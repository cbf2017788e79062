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

    def feature_hw(self):
        """Spatial side length after the three extractor convolutions."""
        hw = self.input_hw
        for _ in range(3):
            hw = conv_out_size(hw, self.conv_kernel, self.conv_stride, self.conv_padding)
        return hw


@dataclass
class RecurrentState:
    """ConvLSTM hidden/cell pair carried across the steps of an episode."""

    h: Tensor
    c: Tensor

    @classmethod
    def zeros(cls, config, dtype=np.float32, batch=None):
        """[L,h,w] zeros, or [batch,L,h,w] for ``batch`` independent episodes."""
        shape = (config.lstm_channels, config.feature_hw(), config.feature_hw())
        if batch is not None:
            shape = (batch,) + shape
        return cls(Tensor(np.zeros(shape, dtype=dtype)), Tensor(np.zeros(shape, dtype=dtype)))


@dataclass
class ForwardTrace:
    """Everything one forward pass produced, graph references included.

    From a batched ``forward`` every tensor carries a leading batch axis;
    from ``forward_segment`` a leading time axis, and ``next_state`` is None.
    """

    f_p: Tensor
    f_v: Tensor
    f_p_masked: Tensor
    f_v_masked: Tensor
    policy: Tensor
    policy_logits: Tensor
    value: Tensor
    next_state: RecurrentState
    m_p: Tensor | None = None
    m_v: Tensor | None = None

    @property
    def value_scalar(self):
        return float(self.value.data[0])


# tensor names, in a fixed order so initialization streams are stable
# across variants (a tensor gets the same values for the same seed
# whether or not the mask pairs around it exist)
_NAME_UNIVERSE = (
    "fe1.w", "fe1.b", "fe2.w", "fe2.b", "fe3.w", "fe3.b",
    "lstm.w", "lstm.b",
    "policy_branch.w", "policy_branch.b", "policy_mask.w", "policy_mask.b",
    "policy_out.w", "policy_out.b",
    "value_branch.w", "value_branch.b", "value_mask.w", "value_mask.b",
    "value_out.w", "value_out.b",
)


def weight_names(config):
    """Tensor names for a variant; a pure function of the config."""
    names = []
    for name in _NAME_UNIVERSE:
        if name.startswith("policy_mask") and not config.policy_mask_enabled:
            continue
        if name.startswith("value_mask") and not config.value_mask_enabled:
            continue
        names.append(name)
    return names


def weight_shapes(config):
    c1, c2, c3 = config.fe_channels
    L = config.lstm_channels
    B = config.branch_channels
    k = config.conv_kernel
    flat = B * config.feature_hw() ** 2
    shapes = {
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
    return {name: shapes[name] for name in weight_names(config)}


def init_weights(config, seed, dtype=np.float32):
    """Reproducible weight dict: He-scaled uniform kernels, zero biases.

    Kernels draw from uniform(-sqrt(6/fan_in), +sqrt(6/fan_in)); the
    weaker 1/sqrt(fan_in) bound shrinks these sparse pixel activations
    roughly tenfold per stage and leaves the heads numerically dead.
    The forget-gate slice of the ConvLSTM bias starts at 1.0.  Every
    tensor draws from its own seed stream keyed by (seed, name), so
    shared layers get identical values across variants.
    """
    L = config.lstm_channels
    weights = {}
    for name, shape in weight_shapes(config).items():
        stream = np.random.default_rng([seed, _NAME_UNIVERSE.index(name)])
        if name.endswith(".b"):
            data = np.zeros(shape)
            if name == "lstm.b":
                data[L:2 * L] = 1.0
        else:
            fan_in = int(np.prod(shape[1:]))
            bound = np.sqrt(6.0 / fan_in)
            data = stream.uniform(-bound, bound, size=shape)
        weights[name] = Tensor(data.astype(dtype))
    return weights


def feature_extract(obs, w, config):
    """Three conv+ReLU stages mapping [1,H,W] pixels, or a [T,1,H,W] batch, to the LSTM input."""
    if obs.data.ndim not in (3, 4) or obs.shape[-3:] != (1, config.input_hw, config.input_hw):
        raise ad.ShapeError(
            f"observation shape {obs.shape} != ([T,] 1, {config.input_hw}, {config.input_hw})")
    x = obs
    for i in (1, 2, 3):
        x = ad.relu(ad.conv2d(x, w[f"fe{i}.w"], w[f"fe{i}.b"],
                              stride=config.conv_stride, padding=config.conv_padding))
    return x


def convlstm_step(x, state, w):
    """One ConvLSTM step: gates i,f,o,g from a 3x3 same-padding conv over (x,h).

    x [C,H,W] with state [L,H,W], or a batch x [B,C,H,W] with state [B,L,H,W].
    """
    if (state.h.shape[:-3] != x.shape[:-3] or state.h.shape[-2:] != x.shape[-2:]
            or state.h.shape != state.c.shape):
        raise ad.ShapeError(
            f"recurrent state {state.h.shape}/{state.c.shape} incompatible with input {x.shape}")
    L = state.h.shape[-3]
    z = ad.conv2d(ad.concat_channels(x, state.h), w["lstm.w"], w["lstm.b"],
                  stride=1, padding=_CELL_PADDING)
    i = ad.sigmoid(ad.slice_channels(z, 0, L))
    f = ad.sigmoid(ad.slice_channels(z, L, 2 * L))
    o = ad.sigmoid(ad.slice_channels(z, 2 * L, 3 * L))
    g = ad.tanh(ad.slice_channels(z, 3 * L, 4 * L))
    c_next = ad.add(ad.mul(f, state.c), ad.mul(i, g))
    h_next = ad.mul(o, ad.tanh(c_next))
    return h_next, RecurrentState(h_next, c_next)


def compute_mask(h, w, branch):
    """Sigmoid of a 1x1 conv over the ConvLSTM output; one channel, values in (0,1)."""
    if branch not in ("policy", "value"):
        raise ValueError(f"unknown branch {branch!r}")
    key = f"{branch}_mask.w"
    if key not in w:
        raise ValueError(f"{branch} mask branch is not enabled in these weights")
    return ad.sigmoid(ad.conv2d(h, w[key], w[f"{branch}_mask.b"], stride=1, padding=0))


def apply_mask(f, m):
    """F' = F * M with the single-channel mask broadcast across channels."""
    return ad.broadcast_mul_channelwise(f, m)


def invert_mask(m):
    """Gaze inversion: 1 - M elementwise.  Applying it twice restores M exactly."""
    if float(m.data.min()) < 0.0 or float(m.data.max()) > 1.0:
        raise ValueError(
            f"invert_mask: values must lie in [0,1], got range "
            f"[{float(m.data.min())}, {float(m.data.max())}]")
    return ad.one_minus(m)


def _branch(h, w, config, branch, transform, dtype):
    """Feature conv + optional mask for one branch; returns (f, m, f_masked)."""
    f = ad.relu(ad.conv2d(h, w[f"{branch}_branch.w"], w[f"{branch}_branch.b"],
                          stride=1, padding=_CELL_PADDING))
    enabled = (config.policy_mask_enabled if branch == "policy"
               else config.value_mask_enabled)
    if not enabled:
        return f, None, f
    if transform == "ones":
        m = Tensor(np.ones(f.shape[:-3] + (1,) + f.shape[-2:], dtype=dtype))
    else:
        m = compute_mask(h, w, branch)
        if transform == "inverse":
            m = invert_mask(m)
    return f, m, apply_mask(f, m)


def _heads(h, next_state, w, config, mask_transform, dtype):
    """Masked branches and output heads over one ConvLSTM output [L,H,W], or [N,L,H,W] of them."""
    value_transform = "ones" if mask_transform == "ones" else "identity"
    f_p, m_p, f_p_masked = _branch(h, w, config, "policy", mask_transform, dtype)
    f_v, m_v, f_v_masked = _branch(h, w, config, "value", value_transform, dtype)

    flat = f_p_masked.shape[:-3] + (-1,)
    logits = ad.dense(ad.reshape(f_p_masked, flat), w["policy_out.w"], w["policy_out.b"])
    policy = ad.softmax(logits)
    value = ad.dense(ad.reshape(f_v_masked, flat), w["value_out.w"], w["value_out.b"])

    return ForwardTrace(f_p=f_p, f_v=f_v, f_p_masked=f_p_masked, f_v_masked=f_v_masked,
                        policy=policy, policy_logits=logits, value=value,
                        next_state=next_state, m_p=m_p, m_v=m_v)


def forward(obs, state, w, config, mask_transform="identity"):
    """Full pass: extractor -> ConvLSTM -> masked branches -> (policy, value).

    ``obs`` is one [H,W] or [1,H,W] observation with state [L,h,w], or a
    batch [B,1,H,W] of independent episodes with state [B,L,h,w]; a batch
    gives every output a leading batch axis.

    ``mask_transform`` drives the policy mask: "identity" uses the mask
    as computed, "inverse" applies gaze inversion, "ones" ablates the
    attention mechanism entirely (both branches), making a masked variant
    compute exactly what the vanilla one would with shared weights.
    """
    if mask_transform not in MASK_TRANSFORMS:
        raise ValueError(f"mask_transform must be one of {MASK_TRANSFORMS}")

    dtype = w["fe1.w"].dtype
    if not isinstance(obs, Tensor):
        obs = Tensor(np.asarray(obs, dtype=dtype))
    if obs.data.ndim == 2:
        obs = Tensor(obs.data[None, :, :])

    h, next_state = convlstm_step(feature_extract(obs, w, config), state, w)
    return _heads(h, next_state, w, config, mask_transform, dtype)


def forward_segment(obs, state, w, config):
    """``forward`` over a whole rollout segment at once, for the learner.

    ``obs`` is the segment's [T,H,W] observations and ``state`` the
    recurrent state before its first step, taken as a constant: gradients
    flow through time inside the segment and stop at its start.  Every
    layer runs as one op over the time axis except the recurrence, which
    is the fused ``autodiff.convlstm``.  Masks are used as computed.
    """
    dtype = w["fe1.w"].dtype
    obs = Tensor(np.asarray(obs, dtype=dtype)[:, None])
    x = feature_extract(obs, w, config)
    h = ad.convlstm(x, w["lstm.w"], w["lstm.b"], state.h.data, state.c.data)
    return _heads(h, None, w, config, "identity", dtype)
