"""Reverse-mode automatic differentiation over dense numpy tensors.

Supplies exactly the operator set the masked actor-critic network needs:
conv2d, the fused ConvLSTM, dense, add / mul (by a tensor or a constant),
sigmoid / tanh / relu, the channel-broadcast mask multiply, softmax /
log-softmax, channel concat / slice, row gather, reshape and the scalar
sum.  Each op records a backward closure on its output;
``backward()`` replays the recorded graph in reverse topological order
and accumulates into ``.grad`` buffers.

Precision is carried by the tensors themselves: build weights in float64
for gradient checking, float32 for training.  Ops never change dtype.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "Tensor", "ShapeError", "GraphError",
    "add", "mul", "sigmoid", "tanh", "relu",
    "broadcast_mul_channelwise", "conv2d", "convlstm", "dense",
    "softmax", "log_softmax", "concat_channels", "slice_channels",
    "take_rows", "reshape", "sum_all", "backward",
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


def tanh(a):
    y = np.tanh(a.data)
    out = _make(y, (a,), "tanh")
    if out.requires_grad:
        def _bw():
            _accum_owned(a, out.grad * (1.0 - y * y))
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


@functools.lru_cache(maxsize=64)
def _tap_sum_index(c, n, h, w):
    """Gather index that sums per-tap gradients onto the input of a 3x3 same-padding conv.

    The gradient source is a flat [9*C*N*H*W] block of rows (tap, c) over
    output positions (n, y', x'), followed by one zero.  Row ``tap`` of the
    [9, C*N*H*W] index gives, for each input position (c, n, y, x), the
    entry that tap (ki, kj) carries there from output (y-ki+1, x-kj+1), or
    the zero where that lies outside the map.  Summing the gathered rows
    is the adjoint of the patch gather at a cost linear in the map size.
    Built on first use for each geometry; read-only because the cache shares it.
    """
    ki, kj = np.divmod(np.arange(9), 3)
    y = np.arange(h)[:, None] - ki[:, None, None, None, None] + 1     # y' as [9,1,1,H,1]
    x = np.arange(w) - kj[:, None, None, None, None] + 1              # x' as [9,1,1,1,W]
    plane = ((np.arange(9)[:, None, None, None, None] * c + np.arange(c)[:, None, None, None]) * n
             + np.arange(n)[:, None, None]) * (h * w)
    inside = (y >= 0) & (y < h) & (x >= 0) & (x < w)
    idx = np.where(inside, plane + y * w + x, 9 * c * n * h * w).reshape(9, -1)
    idx.flags.writeable = False
    return idx


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


def convlstm(x, k, b, h0, c0):
    """ConvLSTM over N sequences of T steps, as one op: x [N,T,C,H,W] -> hidden states [N,T,L,H,W].

    The gates i, f, o, g of step t come from a 3x3 same-padding conv over
    (x_t, h_{t-1}) with kernel k [4L, C+L, 3, 3] and bias b [4L].  The
    kernel splits as W_x*x_t + W_h*h_{t-1} (Shi et al. 2015): the x-half
    runs as one matmul over all N*T frames, and only the h-half is
    sequential, one matmul per step over the patch rows of all N
    sequences.  h0, c0 [N,L,H,W] are constant arrays, so gradients stop at
    the start of each sequence.  Backward is a hand-written BPTT whose
    weight gradient is one matmul over all N*T frames.  A batch of one
    sequence computes what it would alone, bit for bit.
    """
    if x.data.ndim != 5 or k.data.ndim != 4:
        raise ShapeError(f"convlstm: need [N,T,C,H,W] input and 4-d kernel, got {x.shape}, {k.shape}")
    n_seq, n_steps, c_in, h, w = x.shape
    L4 = k.shape[0]
    n_hidden = L4 // 4
    if h0.shape != (n_seq, n_hidden, h, w) or c0.shape != h0.shape:
        raise ShapeError(f"convlstm: state {h0.shape}/{c0.shape} incompatible with input {x.shape}")
    if k.shape != (4 * n_hidden, c_in + n_hidden, 3, 3) or b.shape != (L4,):
        raise ShapeError(f"convlstm: kernel {k.shape} / bias {b.shape} do not fit "
                         f"{c_in} input and {n_hidden} hidden channels")
    dtype = x.data.dtype
    p = h * w
    rows = n_seq * p                          # patch rows of one step, sequence-major
    k_x = k.data[:, :c_in].reshape(L4, -1)
    k_h = k.data[:, c_in:].reshape(L4, -1)
    # step-major frames, so that step t's x-half is one contiguous block of columns
    xt = x.data.transpose(1, 0, 2, 3, 4).reshape(n_steps * n_seq, c_in, h, w)
    px = _im2col(xt, 3, 3, 1, 1)                                # [T*N*P, C*9]
    zx = (k_x @ px.T).reshape(L4, n_steps, rows)
    zx += b.data[:, None, None]

    # patch rows of the N padded maps in hp, one map after another
    h_idx = _patch_index(n_hidden, h + 2, w + 2, 3, 3, 1, 0)
    h_idx = (np.arange(n_seq)[:, None, None] * (n_hidden * (h + 2) * (w + 2))
             + h_idx).reshape(rows, -1)
    hp = np.zeros((n_seq, n_hidden, h + 2, w + 2), dtype=dtype)   # padded h_{t-1}
    hp_inner = hp[:, :, 1:-1, 1:-1].transpose(1, 0, 2, 3)         # [L,N,H,W] view
    hp_inner[...] = h0.transpose(1, 0, 2, 3)
    ph = np.empty((n_steps, rows, n_hidden * 9), dtype=dtype)   # h_{t-1} patches
    gates = np.empty((n_steps, L4, rows), dtype=dtype)          # i, f, o, g
    cs = np.empty((n_steps + 1, n_hidden, rows), dtype=dtype)   # c_{t-1} at t
    tcs = np.empty((n_steps, n_hidden, rows), dtype=dtype)      # tanh(c_t)
    hs = np.empty((n_steps, n_hidden, rows), dtype=dtype)
    cs[0] = c0.transpose(1, 0, 2, 3).reshape(n_hidden, rows)
    s3 = 3 * n_hidden
    for t in range(n_steps):
        np.take(hp.reshape(-1), h_idx, out=ph[t])
        z = gates[t]
        np.matmul(k_h, ph[t].T, out=z)
        z += zx[:, t]
        # sigmoid(v) = (tanh(v/2) + 1) / 2 on i, f, o: one tanh over all four gates
        z[:s3] *= 0.5
        np.tanh(z, out=z)
        z[:s3] += 1.0
        z[:s3] *= 0.5
        i, f, o, g = z[:n_hidden], z[n_hidden:2 * n_hidden], z[2 * n_hidden:s3], z[s3:]
        c = cs[t + 1]
        np.multiply(f, cs[t], out=c)
        c += i * g
        np.tanh(c, out=tcs[t])
        np.multiply(o, tcs[t], out=hs[t])
        hp_inner[...] = hs[t].reshape(n_hidden, n_seq, h, w)

    ys = np.ascontiguousarray(hs.reshape(n_steps, n_hidden, n_seq, h, w).transpose(2, 0, 1, 3, 4))
    out = _make(ys, (x, k, b), "convlstm")
    if out.requires_grad:
        def _bw():
            dhs = out.grad.transpose(1, 2, 0, 3, 4).reshape(n_steps, n_hidden, rows)
            i, f, o, g = (gates[:, j * n_hidden:(j + 1) * n_hidden] for j in range(4))
            # dL/dz_t is a factor known from the forward times dc_t (gates i, f, g)
            # or dh_t (gate o); the factors of all steps are formed at once
            dz = np.empty_like(gates)                                  # [T, 4L, N*P]
            dz[:, :n_hidden] = g * i * (1.0 - i)
            dz[:, n_hidden:2 * n_hidden] = cs[:-1] * f * (1.0 - f)
            dz[:, 2 * n_hidden:s3] = tcs * o * (1.0 - o)
            dz[:, s3:] = i * (1.0 - g * g)
            dtc = o * (1.0 - tcs * tcs)                                # dh_t -> dc_t
            # W_h^T dz_t, one row block per kernel tap, then each tap's block
            # summed onto the h_{t-1} positions that tap reads
            k_taps = np.ascontiguousarray(k_h.reshape(L4, n_hidden, 9).transpose(2, 1, 0))
            k_taps = k_taps.reshape(9 * n_hidden, L4)
            tap_idx = _tap_sum_index(n_hidden, n_seq, h, w)
            taps = np.zeros(9 * n_hidden * rows + 1, dtype=dtype)     # the last entry stays 0
            dh = np.zeros((n_hidden, rows), dtype=dtype)   # from step t+1 through W_h
            dc = np.zeros((n_hidden, rows), dtype=dtype)   # from step t+1 through f
            for t in range(n_steps - 1, -1, -1):
                dh += dhs[t]
                dc += dh * dtc[t]
                dzt = dz[t]
                dzt[:n_hidden] *= dc
                dzt[n_hidden:2 * n_hidden] *= dc
                dzt[2 * n_hidden:s3] *= dh
                dzt[s3:] *= dc
                dc *= f[t]
                if t:
                    np.matmul(k_taps, dzt, out=taps[:-1].reshape(9 * n_hidden, rows))
                    dh = np.take(taps, tap_idx).sum(axis=0).reshape(n_hidden, rows)
            gm = dz.transpose(1, 0, 2).reshape(L4, -1)                 # [4L, T*N*P]
            if k.requires_grad:
                gk = np.empty((L4, (c_in + n_hidden) * 9), dtype=dtype)
                np.matmul(gm, px, out=gk[:, :c_in * 9])
                np.matmul(gm, ph.reshape(-1, n_hidden * 9), out=gk[:, c_in * 9:])
                _accum_owned(k, gk.reshape(k.shape))
            if b.requires_grad:
                _accum_owned(b, gm.sum(axis=1))
            if x.requires_grad:
                gxp = _col2im(gm.T @ k_x, (n_steps * n_seq, c_in, h + 2, w + 2), 3, 3, 1, h, w)
                gx = _unpad(gxp, 1).reshape(n_steps, n_seq, c_in, h, w).transpose(1, 0, 2, 3, 4)
                _accum_owned(x, np.ascontiguousarray(gx))
        out._backward = _bw
    return out


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

def concat_channels(a, b):
    """Stack two [C,H,W] maps, or two [N,C,H,W] batches, along the channel axis."""
    if (a.data.ndim not in (3, 4) or b.data.ndim != a.data.ndim
            or a.shape[:-3] != b.shape[:-3] or a.shape[-2:] != b.shape[-2:]):
        raise ShapeError(f"concat_channels: shapes do not line up: {a.shape}, {b.shape}")
    na = a.shape[-3]
    out = _make(np.concatenate((a.data, b.data), axis=-3), (a, b), "concat")
    if out.requires_grad:
        def _bw():
            if a.requires_grad:
                _accum(a, out.grad[..., :na, :, :])
            if b.requires_grad:
                _accum(b, out.grad[..., na:, :, :])
        out._backward = _bw
    return out


def slice_channels(a, lo, hi):
    """View of channels [lo, hi) of a [C,H,W] map or an [N,C,H,W] batch."""
    if a.data.ndim not in (3, 4) or not (0 <= lo < hi <= a.shape[-3]):
        raise ShapeError(f"slice_channels: range [{lo},{hi}) invalid for shape {a.shape}")
    out = _make(a.data[..., lo:hi, :, :], (a,), "slice")
    if out.requires_grad:
        def _bw():
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[..., lo:hi, :, :] += out.grad
        out._backward = _bw
    return out


def take_rows(a, rows):
    """Rows ``rows`` (distinct indices) of ``a`` along its first axis; the others get no gradient."""
    rows = np.asarray(rows)
    out = _make(a.data[rows], (a,), "take_rows")
    if out.requires_grad:
        def _bw():
            g = np.zeros_like(a.data)
            g[rows] = out.grad
            _accum_owned(a, g)
        out._backward = _bw
    return out


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

