"""The masked actor-critic network.

Structure: a three-stage strided conv feature extractor, a ConvLSTM over
the extracted map, and two output branches (policy, value).  Each branch
optionally carries a mask module: a 1x1 conv over the ConvLSTM output
followed by a sigmoid, producing a single-channel spatial map in (0,1)
that is broadcast-multiplied into that branch's feature map.  The mask is
the explanation artifact: it can be visualized, inverted (1-M), or
ablated to all-ones at inference time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

MASK_TRANSFORMS = ("identity", "inverse", "ones")

# kernel/stride/padding for the recurrent cell and the branch convs are
# fixed at 3/1/1 so mask maps keep the extractor's output geometry
_CELL_KERNEL = 3
_CELL_PADDING = 1


def conv_out_size(size, kernel, stride, padding):
    return (size + 2 * padding - kernel) // stride + 1


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture switches; the two *_mask_enabled flags select the variant."""

    MAX_WEIGHTS = 2 ** 25   # 93x the default network's weight count

    input_hw: int = 20
    fe_channels: tuple = (32, 32, 64)
    lstm_channels: int = 64
    branch_channels: int = 32
    n_actions: int = 3
    policy_mask_enabled: bool = True
    value_mask_enabled: bool = True
    conv_kernel: int = 3
    conv_stride: int = 2
    conv_padding: int = 1

    def __post_init__(self):
        object.__setattr__(self, "fe_channels", tuple(self.fe_channels))
        if len(self.fe_channels) != 3:
            raise ValueError(f"fe_channels must have length 3, got {self.fe_channels}")
        if min(self.fe_channels) < 1:
            raise ValueError(f"fe_channels must all be >= 1, got {self.fe_channels}")
        for name in ("lstm_channels", "branch_channels", "n_actions", "conv_kernel",
                     "conv_stride"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.conv_padding < 0:
            raise ValueError(f"conv_padding must be >= 0, got {self.conv_padding}")
        if self.feature_hw() < 2:
            raise ValueError(
                f"input_hw={self.input_hw} leaves a {self.feature_hw()}-pixel feature map; need >= 2")
        n = sum(math.prod(shape) for shape in weight_shapes(self).values())
        if n > self.MAX_WEIGHTS:
            raise ValueError(f"the network has {n} weights, more than {self.MAX_WEIGHTS}; shrink "
                             f"fe_channels, lstm_channels, branch_channels, conv_kernel or the "
                             f"feature map (conv_padding, conv_stride)")

    def feature_hw(self):
        """Spatial side length after the three extractor convolutions."""
        hw = self.input_hw
        for _ in range(3):
            hw = conv_out_size(hw, self.conv_kernel, self.conv_stride, self.conv_padding)
        return hw


@dataclass
class RecurrentState:
    """ConvLSTM hidden/cell arrays carried across the steps of an episode; no graph."""

    h: np.ndarray
    c: np.ndarray

    @classmethod
    def zeros(cls, config, dtype=np.float32, batch=1):
        """[batch,h,w,L] zeros for ``batch`` independent episodes."""
        shape = (batch, config.feature_hw(), config.feature_hw(), config.lstm_channels)
        return cls(np.zeros(shape, dtype=dtype), np.zeros(shape, dtype=dtype))


@dataclass
class ForwardTrace:
    """The outputs of one forward pass, graph references included.

    Every tensor carries a leading axis over the rows of the pass;
    ``state`` is the state the pass read, the caller's own object, and
    ``next_state`` holds the arrays that leave each row.  A mask is None
    where its branch has none or the "ones" transform ablates it;
    ``value`` and ``m_v`` are None when the value branch was skipped.
    """

    policy: Tensor
    policy_logits: Tensor
    value: Tensor | None
    m_p: Tensor | None = None
    m_v: Tensor | None = None
    state: RecurrentState = None           # both set by ``forward`` once the heads have run
    next_state: RecurrentState = None


def _all_shapes(config):
    """Every tensor of the both-mask network in the paper's layout, in a fixed order that keys
    the init streams: OIHW conv kernels, dense columns in (c,h,w) order."""
    c1, c2, c3 = config.fe_channels
    L = config.lstm_channels
    B = config.branch_channels
    k = config.conv_kernel
    flat = B * config.feature_hw() ** 2
    return {
        "fe1.w": (c1, 1, k, k), "fe1.b": (c1,),
        "fe2.w": (c2, c1, k, k), "fe2.b": (c2,),
        "fe3.w": (c3, c2, k, k), "fe3.b": (c3,),
        "lstm.w": (4 * L, c3 + L, _CELL_KERNEL, _CELL_KERNEL), "lstm.b": (4 * L,),
        "policy_branch.w": (B, L, _CELL_KERNEL, _CELL_KERNEL), "policy_branch.b": (B,),
        "policy_mask.w": (1, L, 1, 1), "policy_mask.b": (1,),
        "policy_out.w": (config.n_actions, flat), "policy_out.b": (config.n_actions,),
        "value_branch.w": (B, L, _CELL_KERNEL, _CELL_KERNEL), "value_branch.b": (B,),
        "value_mask.w": (1, L, 1, 1), "value_mask.b": (1,),
        "value_out.w": (1, flat), "value_out.b": (1,),
    }


def weight_shapes(config, on_disk=False):
    """Name -> shape of every tensor of the variant; the variants differ only in mask pairs.

    In memory conv kernels are HWIO [kH,kW,C_in,C_out]; ``on_disk`` gives
    the checkpoint's OIHW shapes instead.
    """
    kept = {"policy_mask": config.policy_mask_enabled, "value_mask": config.value_mask_enabled}
    return {name: shape if on_disk or len(shape) != 4 else (*shape[2:], shape[1], shape[0])
            for name, shape in _all_shapes(config).items() if kept.get(name.split(".")[0], True)}


def to_disk_layout(arrays, config):
    """In-memory weight arrays in the checkpoint's layout, the paper's: OIHW kernels, and
    dense columns in (c,h,w) order instead of the flattened channel-last map's (h,w,c)."""
    side = config.feature_hw()
    out = {}
    for name, a in arrays.items():
        if a.ndim == 4:
            a = a.transpose(3, 2, 0, 1)
        elif name.endswith("_out.w"):
            a = a.reshape(len(a), side, side, -1).transpose(0, 3, 1, 2).reshape(len(a), -1)
        out[name] = a
    return out


def from_disk_layout(arrays, config):
    """Inverse of ``to_disk_layout``: contiguous HWIO kernels and (h,w,c) dense columns."""
    side = config.feature_hw()
    out = {}
    for name, a in arrays.items():
        if a.ndim == 4:
            a = a.transpose(2, 3, 1, 0)
        elif name.endswith("_out.w"):
            a = a.reshape(len(a), -1, side, side).transpose(0, 2, 3, 1).reshape(len(a), -1)
        out[name] = np.ascontiguousarray(a)
    return out


def check_weights(weights, config, on_disk=False):
    """Raise ValueError unless ``weights`` (arrays or Tensors) are exactly the variant's, all finite.

    ``on_disk`` checks the shapes of the checkpoint's layout.
    """
    shapes = weight_shapes(config, on_disk)
    missing, extra = sorted(shapes.keys() - weights.keys()), sorted(weights.keys() - shapes.keys())
    if missing or extra:
        raise ValueError(f"tensor names do not match the network (missing {missing}, "
                         f"extra {extra})")
    for name, shape in shapes.items():
        w = weights[name]
        if w.shape != shape:
            raise ValueError(f"tensor {name} has shape {w.shape}, expected {shape}")
        if not np.isfinite(w.data if isinstance(w, Tensor) else w).all():
            raise ValueError(f"tensor {name} holds a non-finite value")


def init_weights(config, seed, dtype=np.float32):
    """Reproducible weight dict: He-scaled uniform kernels, zero biases.

    Kernels draw from uniform(-sqrt(6/fan_in), +sqrt(6/fan_in)); the
    weaker 1/sqrt(fan_in) bound shrinks these sparse pixel activations
    roughly tenfold per stage and leaves the heads numerically dead.
    The forget-gate slice of the ConvLSTM bias starts at 1.0.  Every
    tensor draws from its own seed stream keyed by seed and the tensor's
    place in the both-mask network, so shared layers get identical values
    across variants.  The draws fill the paper's layout
    (``to_disk_layout``), which is then laid out for the engine.
    """
    L = config.lstm_channels
    order = list(_all_shapes(config))
    drawn = {}
    for name, shape in weight_shapes(config, on_disk=True).items():
        stream = np.random.default_rng([seed, order.index(name)])
        if name.endswith(".b"):
            data = np.zeros(shape)
            if name == "lstm.b":
                data[L:2 * L] = 1.0
        else:
            fan_in = int(np.prod(shape[1:]))
            bound = np.sqrt(6.0 / fan_in)
            data = stream.uniform(-bound, bound, size=shape)
        drawn[name] = data.astype(dtype)
    return {name: Tensor(a) for name, a in from_disk_layout(drawn, config).items()}


def feature_extract(x, w, config):
    """Three conv+ReLU stages mapping [R,H,W,1] pixels x to the LSTM input."""
    for i in (1, 2, 3):
        x = ad.relu(ad.conv2d(x, w[f"fe{i}.w"], w[f"fe{i}.b"],
                              stride=config.conv_stride, padding=config.conv_padding))
    return x


def compute_mask(h, w, branch):
    """Sigmoid of a 1x1 conv over the ConvLSTM output; one channel, values in (0,1)."""
    return ad.sigmoid(ad.conv2d(h, w[f"{branch}_mask.w"], w[f"{branch}_mask.b"],
                                stride=1, padding=0))


def invert_mask(m):
    """Gaze inversion: 1 - M elementwise, formed as (-M) + 1 with the same bits; gradient -1.

    Inverting twice need not restore M bit for bit: 1 - (1 - 0.3) != 0.3 in float64.
    """
    if float(m.data.min()) < 0.0 or float(m.data.max()) > 1.0:
        raise ValueError(
            f"invert_mask: values must lie in [0,1], got range "
            f"[{float(m.data.min())}, {float(m.data.max())}]")
    return ad.add(ad.mul(m, -1.0), 1.0)


def _branch(h, w, config, branch, transform):
    """Feature conv of one branch times its mask, and the mask (None if unmasked or "ones")."""
    f = ad.relu(ad.conv2d(h, w[f"{branch}_branch.w"], w[f"{branch}_branch.b"],
                          stride=1, padding=_CELL_PADDING))
    enabled = (config.policy_mask_enabled if branch == "policy"
               else config.value_mask_enabled)
    if not enabled or transform == "ones":
        return f, None
    m = compute_mask(h, w, branch)
    if transform == "inverse":
        m = invert_mask(m)
    return ad.mul(f, m), m


def _heads(h, w, config, mask_transform, with_value=True):
    """Masked branches and output heads over ConvLSTM outputs [N,H,W,L].

    The dense heads read each row of the branch maps flat, in (h,w,c) order.
    """
    f_p, m_p = _branch(h, w, config, "policy", mask_transform)
    logits = ad.dense(f_p, w["policy_out.w"], w["policy_out.b"])
    trace = ForwardTrace(policy=ad.softmax(logits), policy_logits=logits, value=None, m_p=m_p)
    if with_value:
        value_transform = "ones" if mask_transform == "ones" else "identity"
        f_v, trace.m_v = _branch(h, w, config, "value", value_transform)
        trace.value = ad.dense(f_v, w["value_out.w"], w["value_out.b"])
    return trace


def forward(obs, state, w, config, mask_transform="identity", with_value=True, batch_sizes=None):
    """Full pass: extractor -> ConvLSTM -> masked branches -> (policy, value).

    ``obs`` is [R,H,W] frames with states [R,h,w,L]; one [H,W] frame is
    one row.  Every output has a leading axis over the rows.  Maps, masks
    and states are channel-last: a mask is [R,h,w,1].  ``batch_sizes``
    lays the rows out as ``autodiff.convlstm`` reads them: by default one
    step of R independent episodes, as actors and evaluation step; the
    learner passes the packed step blocks of a round
    (``training.step_blocks``) with the states the actors recorded
    entering each step.  The ConvLSTM reads the state's arrays, so
    gradients stop at the state passed in, as the learner's stop at a
    segment's start; the trace keeps ``state`` as the state it read, and
    ``next_state`` holds the arrays of h and c that leave each row.

    ``mask_transform`` drives the policy mask: "identity" uses the mask
    as computed, "inverse" applies gaze inversion, "ones" ablates the
    attention mechanism entirely (both branches): the masks are not
    computed, so a masked variant runs the vanilla path on shared weights.

    ``with_value=False`` skips the value branch (its conv, mask and head),
    which no action choice reads; the policy outputs and the next state
    are the same bits either way.
    """
    if mask_transform not in MASK_TRANSFORMS:
        raise ValueError(f"mask_transform must be one of {MASK_TRANSFORMS}")

    obs = np.asarray(obs, dtype=w["fe1.w"].dtype)
    if obs.ndim == 2:
        obs = obs[None]
    if obs.ndim != 3 or obs.shape[1:] != (config.input_hw, config.input_hw):
        raise ad.ShapeError(f"observation shape {obs.shape} is not [H,W] or [R,H,W] "
                            f"with H = W = {config.input_hw}")

    x = feature_extract(Tensor(obs[..., None]), w, config)
    if batch_sizes is None:
        batch_sizes = [len(obs)]
    h, c = ad.convlstm(x, w["lstm.w"], w["lstm.b"], state.h, state.c, batch_sizes)
    trace = _heads(h, w, config, mask_transform, with_value)
    trace.state, trace.next_state = state, RecurrentState(h.data, c)
    return trace
