"""Reverse-mode automatic differentiation over dense numpy tensors.

Supplies exactly the operator set the masked actor-critic network needs:
conv2d, the ConvLSTM over packed sequences (one op for a single step and
for a round of steps), dense, add / mul (by a tensor or a constant),
sigmoid / relu, the channel-broadcast mask multiply, softmax /
log-softmax, reshape and the scalar sum.  Each op records a backward
closure on its output; ``backward()`` replays the recorded graph in
reverse topological order and accumulates into ``.grad`` buffers.

Precision is carried by the tensors themselves: build weights in float64
for gradient checking, float32 for training.  Ops never change dtype.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "Tensor", "ShapeError", "GraphError",
    "add", "mul", "sigmoid", "relu",
    "broadcast_mul_channelwise", "conv2d", "convlstm", "dense",
    "softmax", "log_softmax", "reshape", "sum_all", "backward",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class GraphError(RuntimeError):
    """Backward requested on a non-scalar root or an already-consumed graph."""


class Tensor:
    """Dense n-d array with an optional gradient buffer.

    Training builds each round's graph on fresh leaf tensors over the
    shared weight arrays (``training.sync_local``), so no tensor or
    gradient buffer is shared between rounds.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op",
                 "_consumed")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None
        self._op = "leaf"
        self._consumed = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"


def _make(data, parents, op):
    out = Tensor(data)
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = parents
            out._op = op
            break
    return out


def _accum(t, g):
    if t.grad is None:
        t.grad = np.array(g)  # own a copy; g may alias another node's grad
    else:
        t.grad += g


def _accum_owned(t, g):
    # caller guarantees g is freshly allocated and unaliased
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


# ---------------------------------------------------------------------------
# elementwise family

def add(a, b):
    if not isinstance(b, Tensor):
        out = _make(a.data + b, (a,), "add_const")
        if out.requires_grad:
            def _bw():
                _accum(a, out.grad)
            out._backward = _bw
        return out
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    out = _make(a.data + b.data, (a, b), "add")
    if out.requires_grad:
        def _bw():
            if a.requires_grad:
                _accum(a, out.grad)
            if b.requires_grad:
                _accum(b, out.grad)
        out._backward = _bw
    return out


def mul(a, b):
    if not isinstance(b, Tensor):
        out = _make(a.data * b, (a,), "mul_const")
        if out.requires_grad:
            def _bw():
                _accum_owned(a, out.grad * b)
            out._backward = _bw
        return out
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")
    out = _make(a.data * b.data, (a, b), "mul")
    if out.requires_grad:
        def _bw():
            if a.requires_grad:
                _accum_owned(a, out.grad * b.data)
            if b.requires_grad:
                _accum_owned(b, out.grad * a.data)
        out._backward = _bw
    return out


def _sigmoid(z):
    # tanh form: stable against overflow and a single ufunc call
    y = np.tanh(z * 0.5)
    y += 1.0
    y *= 0.5
    return y


def sigmoid(a):
    y = _sigmoid(a.data)
    out = _make(y, (a,), "sigmoid")
    if out.requires_grad:
        def _bw():
            _accum_owned(a, out.grad * (y * (1.0 - y)))
        out._backward = _bw
    return out


def relu(a):
    y = np.maximum(a.data, 0.0)
    out = _make(y, (a,), "relu")
    if out.requires_grad:
        def _bw():
            _accum_owned(a, out.grad * (a.data > 0))
        out._backward = _bw
    return out


def broadcast_mul_channelwise(f, m):
    """Multiply a [C,H,W] map by a [1,H,W] mask replicated across channels.

    A leading batch axis on both ([N,C,H,W] and [N,1,H,W]) is allowed.
    """
    if f.data.ndim not in (3, 4) or m.data.ndim != f.data.ndim or m.shape[-3] != 1:
        raise ShapeError(f"broadcast_mul_channelwise: got {f.shape} and {m.shape}")
    if f.shape[:-3] != m.shape[:-3] or f.shape[-2:] != m.shape[-2:]:
        raise ShapeError(f"broadcast_mul_channelwise: {f.shape} and {m.shape} do not line up")
    out = _make(f.data * m.data, (f, m), "bmul")
    if out.requires_grad:
        def _bw():
            if f.requires_grad:
                _accum_owned(f, out.grad * m.data)
            if m.requires_grad:
                _accum_owned(m, (out.grad * f.data).sum(axis=-3, keepdims=True))
        out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# linear operators

@functools.lru_cache(maxsize=64)
def _patch_index(c_in, h, w, kh, kw, stride, padding):
    """Gather index of the im2col patch matrix of a flat [C*H*W] map.

    Row (i, j) is an output position, column (c, ki, kj) a kernel tap, so
    the patches line up with the [C_out, C_in*kH*kW] kernel matrix.  Taps
    that land in the zero padding point one past the map, at C*H*W, where
    ``_im2col`` appends a zero.  Built on first use for each geometry;
    read-only because the cache shares it.
    """
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    rows = ((np.arange(h_out) * stride - padding)[:, None] + np.arange(kh))[:, None, None, :, None]
    cols = ((np.arange(w_out) * stride - padding)[:, None] + np.arange(kw))[None, :, None, None, :]
    channels = np.arange(c_in)[:, None, None] * (h * w)
    inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    idx = np.where(inside, channels + rows * w + cols, c_in * h * w)
    idx = idx.reshape(h_out * w_out, c_in * kh * kw)
    idx.flags.writeable = False
    return idx


def _im2col(xd, kh, kw, stride, padding):
    """Patch rows of an [N,C,H,W] batch: [N*H'*W', C*kH*kW]."""
    n, c, h, w = xd.shape
    idx = _patch_index(c, h, w, kh, kw, stride, padding)
    flat = xd.reshape(n, -1)
    if padding:
        flat = np.concatenate((flat, np.zeros((n, 1), dtype=xd.dtype)), axis=1)
    # plain indexing is the faster gather for one map, take for a batch
    patches = flat[0][idx] if n == 1 else np.take(flat, idx, axis=1)
    return patches.reshape(-1, idx.shape[1])


def _col2im(dpatch, xp_shape, kh, kw, stride, h_out, w_out):
    """Adjoint of ``_im2col``: scatter-add patch gradients into a padded batch.

    One strided add per kernel tap, run channel-last so that the innermost
    loop is over channels rather than a few pixels; accumulates in the
    gradient's dtype.  Returns a [N,C,Hp,Wp] view.
    """
    n, c, hp, wp = xp_shape
    d = dpatch.reshape(n, h_out, w_out, c, kh * kw)
    g = np.zeros((n, hp, wp, c), dtype=dpatch.dtype)
    rows, cols = stride * h_out, stride * w_out
    for ki in range(kh):
        for kj in range(kw):
            g[:, ki:ki + rows:stride, kj:kj + cols:stride] += d[..., ki * kw + kj]
    return g.transpose(0, 3, 1, 2)


def _unpad(g, padding):
    return g[:, :, padding:-padding, padding:-padding] if padding else g


def conv2d(x, k, b, stride=1, padding=0):
    """2-d convolution (cross-correlation) with zero padding.

    x: [C_in, H, W] or a batch [N, C_in, H, W]; k: [C_out, C_in, kH, kW];
    b: [C_out].  Output spatial size: floor((H + 2*padding - kH) / stride) + 1.
    A batch runs as one matmul over all N*H'*W' patch rows.
    """
    if not isinstance(stride, int) or stride <= 0:
        raise ValueError(f"conv2d: stride must be a positive int, got {stride!r}")
    if not isinstance(padding, int) or padding < 0:
        raise ValueError(f"conv2d: padding must be a non-negative int, got {padding!r}")
    if x.data.ndim not in (3, 4) or k.data.ndim != 4:
        raise ShapeError(f"conv2d: need [C,H,W] or [N,C,H,W] input and [O,C,kH,kW] kernel, "
                         f"got {x.shape}, {k.shape}")
    c_in, h, w = x.shape[-3:]
    c_out, kc, kh, kw = k.shape
    if kc != c_in:
        raise ShapeError(f"conv2d: kernel expects {kc} input channels, input has {c_in}")
    if b.shape != (c_out,):
        raise ShapeError(f"conv2d: bias shape {b.shape} != ({c_out},)")
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} exceeds padded input {h + 2*padding}x{w + 2*padding}")

    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    xd = x.data.reshape((-1, c_in, h, w))
    n = xd.shape[0]
    patches = _im2col(xd, kh, kw, stride, padding)             # [N*H'*W', C_in*kH*kW]
    kmat = k.data.reshape(c_out, -1)
    y = (kmat @ patches.T).reshape(c_out, n, h_out, w_out)
    y = np.ascontiguousarray(y.transpose(1, 0, 2, 3))          # no copy when N == 1
    y += b.data[:, None, None]

    out = _make(y.reshape(x.shape[:-3] + (c_out, h_out, w_out)), (x, k, b), "conv2d")
    if out.requires_grad:
        def _bw():
            gm = out.grad.reshape(n, c_out, -1).transpose(1, 0, 2).reshape(c_out, -1)
            if k.requires_grad:
                _accum_owned(k, (gm @ patches).reshape(k.shape))
            if b.requires_grad:
                _accum_owned(b, gm.sum(axis=1))
            if x.requires_grad:
                padded = (n, c_in, h + 2 * padding, w + 2 * padding)
                gxp = _col2im(gm.T @ kmat, padded, kh, kw, stride, h_out, w_out)
                _accum_owned(x, _unpad(gxp, padding).reshape(x.shape))
        out._backward = _bw
    return out


def convlstm(x, k, b, h_in, c_in, batch_sizes):
    """ConvLSTM over sequences packed step-major, as one op: x [R,C,H,W] -> (h, c_next) [R,L,H,W].

    The rows hold step 0 of every sequence, then step 1 of those that reach
    it, and so on: ``batch_sizes[t]`` sequences, longest first, take step
    t, a prefix of the rows of step t-1 (as in PyTorch's packed sequences).
    One step of B sequences is ``batch_sizes=[B]``; an unbatched x [C,H,W]
    with states [L,H,W] is one row and gives unbatched outputs.  The arrays
    h_in, c_in [R,L,H,W] are the states that entered each step when the
    sequences were played with these same weights.  The gates i, f, o, g
    come from a 3x3 same-padding ``conv2d`` node over (x, h_in) with kernel
    k [4L, C+L, 3, 3] and bias b [4L] (Shi et al. 2015), one matmul over
    all R frames; that node owns the kernel and bias gradients.  The cell
    runs once over all rows: c_next = f*c_in + i*g and h = o*tanh(c_next),
    with sigmoid i, f, o and tanh g.  h is the graph output and c_next an
    array with no graph.  The backward is a hand-written BPTT over the
    step blocks, last to first, that takes h_in and c_in of step t for the
    outputs of step t-1, so gradients flow through time inside a sequence
    and stop at its start; it hands the gate gradients to the conv node
    and forms x's gradient through the kernel's x-half only.  It works in
    the conv node's row-major layout [R,4,L,H*W], so step t is a block of
    rows, and the gradients of h_{t-1} and of x both go through
    ``_col2im``, the adjoint of the conv's patch gather.  States these
    weights did not produce give outputs and gradients of no real
    sequence.  One sequence computes what it would alone, bit for bit.
    """
    if x.data.ndim not in (3, 4) or k.data.ndim != 4:
        raise ShapeError(f"convlstm: need [R,C,H,W] or [C,H,W] input and 4-d kernel, "
                         f"got {x.shape}, {k.shape}")
    n_x, h, w = x.shape[-3:]
    L4 = k.shape[0]
    n_hidden = L4 // 4
    state_shape = x.shape[:-3] + (n_hidden, h, w)
    if h_in.shape != state_shape or c_in.shape != state_shape:
        raise ShapeError(f"convlstm: states {h_in.shape}/{c_in.shape} are not "
                         f"{state_shape} for input {x.shape}")
    if k.shape != (4 * n_hidden, n_x + n_hidden, 3, 3) or b.shape != (L4,):
        raise ShapeError(f"convlstm: kernel {k.shape} / bias {b.shape} do not fit "
                         f"{n_x} input and {n_hidden} hidden channels")
    xd = x.data.reshape(-1, n_x, h, w)
    n_rows = len(xd)
    sizes = [int(n) for n in batch_sizes]
    if sum(sizes) != n_rows or min(sizes, default=0) < 1 or sorted(sizes, reverse=True) != sizes:
        raise ShapeError(f"convlstm: batch sizes {sizes} are not positive, non-increasing "
                         f"and summing to the {n_rows} rows")
    dtype = x.data.dtype
    area = h * w
    frames = np.concatenate((xd, h_in.reshape(n_rows, n_hidden, h, w)), axis=1, dtype=dtype)
    zn = conv2d(Tensor(frames), k, b, stride=1, padding=1)     # [R,4L,H,W]
    # the gates overwrite the conv output, which its backward does not read
    z = zn.data.reshape(n_rows, 4, n_hidden, area)
    s = z[:, :3]                # i, f, o: the sigmoid in tanh form, (tanh(v/2) + 1) / 2
    s *= 0.5
    np.tanh(z, out=z)
    s += 1.0
    s *= 0.5
    i, f, o, g = (z[:, j] for j in range(4))
    cs = np.asarray(c_in, dtype=dtype).reshape(n_rows, n_hidden, area)
    c_next = f * cs
    c_next += i * g
    tc = np.tanh(c_next)

    out = _make((o * tc).reshape(state_shape), (x, zn), "convlstm")
    if out.requires_grad:
        def _bw():
            # dL/dz is a factor known from the forward times dc (gates i, f, g)
            # or dh (gate o); the factors of all steps are formed at once
            dz = np.stack((g * i * (1.0 - i), cs * f * (1.0 - f), tc * o * (1.0 - o),
                           i * (1.0 - g * g)), axis=1)                 # [R,4,L,P]
            dtc = o * (1.0 - tc * tc)                                  # dh_t -> dc_t
            dhs = out.grad.reshape(n_rows, n_hidden, area)
            kmat = k.data.reshape(L4, -1)
            patch_grads = np.empty((n_rows, area, L4), dtype=dtype)    # dz per gate-conv patch row
            # carried from step t+1 through W_h and f; a block's first rows
            # are the sequences that reach the next step
            dh_next, dc_next = np.zeros((2, sizes[0], n_hidden, area), dtype=dtype)
            ends = np.cumsum(sizes)
            for t in range(len(sizes) - 1, -1, -1):
                n_t = sizes[t]
                rows = slice(ends[t] - n_t, ends[t])
                dh, dc = dh_next[:n_t], dc_next[:n_t]
                dh += dhs[rows]
                dc += dh * dtc[rows]
                dzt = dz[rows]
                dzt[:, :2] *= dc[:, None]
                dzt[:, 2] *= dh
                dzt[:, 3] *= dc
                dc *= f[rows]
                patch_grads[rows] = dzt.reshape(n_t, L4, area).transpose(0, 2, 1)
                if t:
                    gp = _col2im(patch_grads[rows].reshape(-1, L4) @ kmat[:, n_x * 9:],
                                 (n_t, n_hidden, h + 2, w + 2), 3, 3, 1, h, w)
                    dh.reshape(n_t, n_hidden, h, w)[...] = _unpad(gp, 1)
            if zn.requires_grad:
                _accum_owned(zn, dz.reshape(zn.shape))
            if x.requires_grad:
                gxp = _col2im(patch_grads.reshape(-1, L4) @ kmat[:, :n_x * 9],
                              (n_rows, n_x, h + 2, w + 2), 3, 3, 1, h, w)
                _accum_owned(x, np.ascontiguousarray(_unpad(gxp, 1)).reshape(x.shape))
        out._backward = _bw
    return out, c_next.reshape(state_shape)


def dense(x, w, b):
    """Affine map y = W x + b for a flat input vector, or for each row of an [N, n] batch."""
    if x.data.ndim not in (1, 2) or w.data.ndim != 2:
        raise ShapeError(f"dense: need 1-d or 2-d input and 2-d weight, got {x.shape}, {w.shape}")
    m, n = w.shape
    if x.shape[-1] != n:
        raise ShapeError(f"dense: weight expects input of length {n}, got {x.shape}")
    if b.shape != (m,):
        raise ShapeError(f"dense: bias shape {b.shape} != ({m},)")
    out = _make(x.data @ w.data.T + b.data, (x, w, b), "dense")
    if out.requires_grad:
        def _bw():
            g = out.grad.reshape(-1, m)
            if w.requires_grad:
                _accum_owned(w, g.T @ x.data.reshape(-1, n))
            if b.requires_grad:
                _accum_owned(b, g.sum(axis=0))
            if x.requires_grad:
                _accum_owned(x, (g @ w.data).reshape(x.shape))
        out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# softmax family

def _check_logits(a, op):
    if a.data.ndim not in (1, 2) or a.data.shape[-1] == 0:
        raise ShapeError(f"{op}: need a non-empty 1-d vector or [N, K] rows, got shape {a.shape}")


def softmax(a):
    """Max-shifted softmax over the last axis of a logit vector or [N, K] batch."""
    _check_logits(a, "softmax")
    e = np.exp(a.data - a.data.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    out = _make(y, (a,), "softmax")
    if out.requires_grad:
        def _bw():
            g = out.grad
            _accum_owned(a, y * (g - (g * y).sum(axis=-1, keepdims=True)))
        out._backward = _bw
    return out


def log_softmax(a):
    """Log-probabilities from logits; stable counterpart to softmax."""
    _check_logits(a, "log_softmax")
    z = a.data - a.data.max(axis=-1, keepdims=True)
    lp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out = _make(lp, (a,), "log_softmax")
    if out.requires_grad:
        def _bw():
            g = out.grad
            _accum_owned(a, g - np.exp(lp) * g.sum(axis=-1, keepdims=True))
        out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# structural ops

def reshape(a, shape):
    out = _make(a.data.reshape(shape), (a,), "reshape")
    if out.requires_grad:
        def _bw():
            _accum(a, out.grad.reshape(a.shape))
        out._backward = _bw
    return out


def sum_all(a):
    """Sum of all elements, as a scalar tensor."""
    out = _make(np.asarray(a.data.sum()), (a,), "sum")
    if out.requires_grad:
        def _bw():
            _accum(a, np.broadcast_to(out.grad, a.shape))
        out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# backward pass

def backward(loss):
    """Populate .grad on every requires_grad leaf reachable from ``loss``.

    Grads add to what ``.grad`` already holds; training builds fresh
    leaves for every round, so nothing carries over.  A given graph may
    be traversed once; rerunning it, or any graph that shares an already
    traversed interior node, raises GraphError.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward: loss must be scalar, got shape {loss.shape}")
    if loss._consumed:
        raise GraphError("backward: this graph was already consumed")

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node._consumed and node._parents:
            raise GraphError("backward: part of this graph was already consumed")
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))

    loss._consumed = True
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward()
            # the closure references its own node; dropping it breaks that
            # cycle, so the graph's saved arrays are freed by reference
            # counting instead of waiting for the cyclic collector
            node._backward = None
            node._consumed = True

