"""Reverse-mode automatic differentiation over dense numpy tensors.

Supplies exactly the operator set the masked actor-critic network needs:
conv2d, the ConvLSTM over packed sequences (one op for a single step and
for a round of steps), dense, add / mul (by a tensor or a constant;
mul also repeats a mask over channels), sigmoid / relu, softmax /
log-softmax and the scalar sum.  Each op computes its output and hands
its gradient rule to ``_make``, which records it only when some input
requires grad; ``backward()`` replays the recorded graph in reverse
topological order and accumulates into ``.grad`` buffers.

Every input has a leading row axis: maps are channel-last [N,H,W,C] and
logits [N,K], and dense reads each row of an [N,...] input flat, in C
order.  Conv kernels are HWIO ([kH,kW,C_in,C_out]), so a conv's patch
matrix is one strided copy of contiguous channel runs and its matmul
gives a channel-last output.

Precision is carried by the tensors themselves: build weights in float64
for gradient checking, float32 for training.  Ops never change dtype.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor", "ShapeError", "GraphError",
    "add", "mul", "sigmoid", "relu", "conv2d", "convlstm", "dense",
    "softmax", "log_softmax", "sum_all", "backward",
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

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _make(data, parents, backward):
    """An op's output over ``data``, recording ``backward`` only when some parent requires grad.

    ``backward(g)`` adds the parents' gradients given the output's gradient
    g; the output's zero-argument ``_backward`` calls it on its ``.grad``.
    """
    out = Tensor(data)
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = parents
            out._backward = lambda: backward(out.grad)
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
        return _make(a.data + b, (a,), lambda g: _accum(a, g))
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")

    def _bw(g):
        if a.requires_grad:
            _accum(a, g)
        if b.requires_grad:
            _accum(b, g)
    return _make(a.data + b.data, (a, b), _bw)


def mul(a, b):
    """a * b, by a constant or by a tensor b of a's rank whose axes have a's size or 1.

    b repeats along its size-1 axes (a mask [N,H,W,1] scales every channel
    of a map [N,H,W,C]), and its gradient is summed over them.
    """
    if not isinstance(b, Tensor):
        return _make(a.data * b, (a,), lambda g: _accum_owned(a, g * b))
    if b.data.ndim != a.data.ndim or any(m not in (1, n) for n, m in zip(a.shape, b.shape)):
        raise ShapeError(f"mul: shape {b.shape} does not repeat to {a.shape}")
    repeated = tuple(i for i, (n, m) in enumerate(zip(a.shape, b.shape)) if m != n)

    def _bw(g):
        if a.requires_grad:
            _accum_owned(a, g * b.data)
        if b.requires_grad:
            gb = g * a.data
            _accum_owned(b, gb.sum(axis=repeated, keepdims=True) if repeated else gb)
    return _make(a.data * b.data, (a, b), _bw)


def _sigmoid(z):
    # tanh form: stable against overflow and a single ufunc call
    y = np.tanh(z * 0.5)
    y += 1.0
    y *= 0.5
    return y


def sigmoid(a):
    y = _sigmoid(a.data)
    return _make(y, (a,), lambda g: _accum_owned(a, g * (y * (1.0 - y))))


def relu(a):
    return _make(np.maximum(a.data, 0.0), (a,), lambda g: _accum_owned(a, g * (a.data > 0)))


# ---------------------------------------------------------------------------
# linear operators

def _im2col(xd, kh, kw, stride, padding):
    """Patch rows of an [N,H,W,C] batch: [N*H'*W', kH*kW*C], columns in (ki, kj, c) order.

    One copy out of a strided window view of the zero-padded batch; its
    inner runs are C contiguous values, and the columns line up with the
    rows of the HWIO kernel seen as a [kH*kW*C_in, C_out] matrix.
    """
    n, h, w, c = xd.shape
    if padding:
        xp = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=xd.dtype)
        xp[:, padding:padding + h, padding:padding + w] = xd
    else:
        xp = np.ascontiguousarray(xd)
    h_out = (xp.shape[1] - kh) // stride + 1
    w_out = (xp.shape[2] - kw) // stride + 1
    sn, sh, sw, sc = xp.strides
    # the window view straight from the ndarray constructor: a third of
    # the cost of ``as_strided``, which a one-row forward pays per conv
    windows = np.ndarray((n, h_out, w_out, kh, kw, c), xp.dtype, xp, 0,
                         (sn, stride * sh, stride * sw, sh, sw, sc))
    return windows.reshape(n * h_out * w_out, kh * kw * c)


def _tap_spans(n_taps, size, size_out, stride, padding):
    """(tap, output slice, input slice) along one axis, for each tap that reads inside the map."""
    for t in range(n_taps):     # output o of tap t reads input o*stride + t - padding
        o0 = max(0, -((t - padding) // stride))
        o1 = min(size_out, (size - 1 + padding - t) // stride + 1)
        if o0 < o1:
            i0 = o0 * stride + t - padding
            yield t, slice(o0, o1), slice(i0, i0 + (o1 - o0) * stride, stride)


def _conv_adjoint(g, k, x_shape, stride, padding):
    """A conv's input gradient [N,H,W,C] from its output gradient g [N,H',W',O] and HWIO kernel k.

    Tap by tap, in (ki, kj) order, adds the tap's product into the input
    positions it read; a tap that reads only padding is skipped.
    """
    gx = np.zeros(x_shape, dtype=g.dtype)
    cols = list(_tap_spans(k.shape[1], x_shape[2], g.shape[2], stride, padding))
    for ki, ro, ri in _tap_spans(k.shape[0], x_shape[1], g.shape[1], stride, padding):
        for kj, co, ci in cols:
            gt = g[:, ro, co]
            gtk = gt.reshape(-1, g.shape[-1]) @ k[ki, kj].T   # 2-d: a 4-d @ loops over small GEMMs
            gx[:, ri, ci] += gtk.reshape(gt.shape[:-1] + (-1,))
    return gx


# conv2d sums its kernel gradient over blocks of this many patch rows, in order, so its bits do
# not hang on the BLAS thread count: of 64-1024, the largest that held on OpenBLAS 0.3.31 (not 512)
_KGRAD_ROWS = 256


def conv2d(x, k, b, stride=1, padding=0):
    """2-d convolution (cross-correlation) with zero padding, channel-last.

    x: [N, H, W, C_in]; k: HWIO [kH, kW, C_in, C_out]; b: [C_out]; the
    output is [N, H', W', C_out] with
    H' = floor((H + 2*padding - kH) / stride) + 1.  The batch runs as one
    matmul over all N*H'*W' patch rows, whose result is already channel-last;
    the input gradient goes tap by tap (``_conv_adjoint``).
    """
    if not isinstance(stride, int) or stride <= 0:
        raise ValueError(f"conv2d: stride must be a positive int, got {stride!r}")
    if not isinstance(padding, int) or padding < 0:
        raise ValueError(f"conv2d: padding must be a non-negative int, got {padding!r}")
    if x.data.ndim != 4 or k.data.ndim != 4:
        raise ShapeError(f"conv2d: need [N,H,W,C] input and [kH,kW,C,O] kernel, "
                         f"got {x.shape}, {k.shape}")
    n, h, w, c_in = x.shape
    kh, kw, kc, c_out = k.shape
    if kc != c_in:
        raise ShapeError(f"conv2d: kernel expects {kc} input channels, input has {c_in}")
    if b.shape != (c_out,):
        raise ShapeError(f"conv2d: bias shape {b.shape} != ({c_out},)")
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} exceeds padded input {h + 2*padding}x{w + 2*padding}")

    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    patches = _im2col(x.data, kh, kw, stride, padding)         # [N*H'*W', kH*kW*C_in]
    y = patches @ k.data.reshape(-1, c_out)
    y += b.data

    def _bw(g):
        gm = g.reshape(-1, c_out)
        if k.requires_grad:
            # the later blocks share one out buffer: a fresh product per block faults its pages
            gk, part = patches[:_KGRAD_ROWS].T @ gm[:_KGRAD_ROWS], None
            for lo in range(_KGRAD_ROWS, len(gm), _KGRAD_ROWS):
                part = np.matmul(patches[lo:lo + _KGRAD_ROWS].T, gm[lo:lo + _KGRAD_ROWS], part)
                gk += part
            _accum_owned(k, gk.reshape(k.shape))
        if b.requires_grad:
            _accum_owned(b, gm.sum(axis=0))
        if x.requires_grad:
            _accum_owned(x, _conv_adjoint(g, k.data, x.shape, stride, padding))
    return _make(y.reshape(n, h_out, w_out, c_out), (x, k, b), _bw)


def convlstm(x, k, b, h_in, c_in, batch_sizes):
    """ConvLSTM over sequences packed step-major, as one op: x [R,H,W,C] -> (h, c_next) [R,H,W,L].

    The rows hold step 0 of every sequence, then step 1 of those that reach
    it, and so on: ``batch_sizes[t]`` sequences, longest first, take step
    t, a prefix of the rows of step t-1 (as in PyTorch's packed sequences).
    One step of B sequences is ``batch_sizes=[B]``.  The arrays h_in, c_in
    [R,H,W,L] are the states that entered each step when the sequences
    were played with these same weights.  The gates i, f, o, g come from a
    3x3 same-padding ``conv2d`` node over (x, h_in) with HWIO kernel
    k [3, 3, C+L, 4L] and bias b [4L] (Shi et al. 2015), one matmul over
    all R frames; that node owns the kernel and bias gradients.  The
    cell runs once over all rows: c_next = f*c_in + i*g and
    h = o*tanh(c_next), with sigmoid i, f, o and tanh g.  h is the graph
    output and c_next an array with no graph.  The backward is a
    hand-written BPTT over the step blocks, last to first, that takes h_in
    and c_in of step t for the outputs of step t-1, so gradients flow
    through time inside a sequence and stop at its start; it hands the
    gate gradients to the conv node and forms x's gradient through the
    kernel's x-half only.  It works in the conv node's own layout
    [R,H*W,4,L], so step t is a block of rows and the gate gradients are
    the conv's output gradients as they stand; the gradients of h_{t-1} and
    of x both go tap by tap through ``_conv_adjoint``, with the kernel's h-
    and x-channels.  States these weights did not produce give outputs and
    gradients of no real sequence.  One sequence computes what it would
    alone, bit for bit.
    """
    if x.data.ndim != 4 or k.data.ndim != 4:
        raise ShapeError(f"convlstm: need [R,H,W,C] input and 4-d kernel, got {x.shape}, {k.shape}")
    n_rows, h, w, n_x = x.shape
    L4 = k.shape[-1]
    n_hidden = L4 // 4
    state_shape = x.shape[:-1] + (n_hidden,)
    if h_in.shape != state_shape or c_in.shape != state_shape:
        raise ShapeError(f"convlstm: states {h_in.shape}/{c_in.shape} are not "
                         f"{state_shape} for input {x.shape}")
    if k.shape != (3, 3, n_x + n_hidden, 4 * n_hidden) or b.shape != (L4,):
        raise ShapeError(f"convlstm: kernel {k.shape} / bias {b.shape} do not fit "
                         f"{n_x} input and {n_hidden} hidden channels")
    sizes = [int(n) for n in batch_sizes]
    if sum(sizes) != n_rows or min(sizes, default=0) < 1 or sorted(sizes, reverse=True) != sizes:
        raise ShapeError(f"convlstm: batch sizes {sizes} are not positive, non-increasing "
                         f"and summing to the {n_rows} rows")
    dtype = x.data.dtype
    area = h * w
    frames = np.concatenate((x.data, h_in), axis=-1, dtype=dtype)
    zn = conv2d(Tensor(frames), k, b, stride=1, padding=1)     # [R,H,W,4L]
    # the gates overwrite the conv output, which its backward does not read
    z = zn.data.reshape(n_rows, area, 4, n_hidden)
    s = z[:, :, :3]             # i, f, o: the sigmoid in tanh form, (tanh(v/2) + 1) / 2
    s *= 0.5
    np.tanh(z, out=z)
    s += 1.0
    s *= 0.5
    i, f, o, g = (z[:, :, j] for j in range(4))
    cs = np.asarray(c_in, dtype=dtype).reshape(n_rows, area, n_hidden)
    c_next = f * cs
    c_next += i * g
    tc = np.tanh(c_next)

    def _bw(dh_out):     # the output's gradient; g is the tanh gate
        # dL/dz is a factor known from the forward times dc (gates i, f, g)
        # or dh (gate o); the factors of all steps are formed at once
        dz = np.stack((g * i * (1.0 - i), cs * f * (1.0 - f), tc * o * (1.0 - o),
                       i * (1.0 - g * g)), axis=2)                 # [R,P,4,L]
        dtc = o * (1.0 - tc * tc)                                  # dh_t -> dc_t
        dhs = dh_out.reshape(n_rows, area, n_hidden)
        # carried from step t+1 through W_h and f; a block's first rows
        # are the sequences that reach the next step
        dh_next, dc_next = np.zeros((2, sizes[0], area, n_hidden), dtype=dtype)
        ends = np.cumsum(sizes)
        for t in range(len(sizes) - 1, -1, -1):
            n_t = sizes[t]
            rows = slice(ends[t] - n_t, ends[t])
            dh, dc = dh_next[:n_t], dc_next[:n_t]
            dh += dhs[rows]
            dc += dh * dtc[rows]
            dzt = dz[rows]
            dzt[:, :, :2] *= dc[:, :, None]
            dzt[:, :, 2] *= dh
            dzt[:, :, 3] *= dc
            dc *= f[rows]
            if t:
                dh.reshape(n_t, h, w, n_hidden)[...] = _conv_adjoint(
                    dzt.reshape(n_t, h, w, L4), k.data[:, :, n_x:], (n_t, h, w, n_hidden), 1, 1)
        if zn.requires_grad:
            _accum_owned(zn, dz.reshape(zn.shape))
        if x.requires_grad:
            _accum_owned(x, _conv_adjoint(dz.reshape(n_rows, h, w, L4), k.data[:, :, :n_x],
                                          x.shape, 1, 1))
    return _make((o * tc).reshape(state_shape), (x, zn), _bw), c_next.reshape(state_shape)


def dense(x, w, b):
    """Affine map y = W x + b for each row x of an [N, ...] batch, read flat in C order."""
    if x.data.ndim < 2 or w.data.ndim != 2:
        raise ShapeError(f"dense: need [N, ...] input and 2-d weight, got {x.shape}, {w.shape}")
    m, n = w.shape
    xf = x.data.reshape(len(x.data), -1)
    if xf.shape[1] != n:
        raise ShapeError(f"dense: weight expects rows of {n} values, got {x.shape}")
    if b.shape != (m,):
        raise ShapeError(f"dense: bias shape {b.shape} != ({m},)")

    def _bw(g):
        if w.requires_grad:
            _accum_owned(w, g.T @ xf)
        if b.requires_grad:
            _accum_owned(b, g.sum(axis=0))
        if x.requires_grad:
            _accum_owned(x, (g @ w.data).reshape(x.shape))
    return _make(xf @ w.data.T + b.data, (x, w, b), _bw)


# ---------------------------------------------------------------------------
# softmax family

def _check_logits(a, op):
    if a.data.ndim != 2 or a.data.shape[1] == 0:
        raise ShapeError(f"{op}: need non-empty [N, K] rows, got shape {a.shape}")


def softmax(a):
    """Max-shifted softmax over each row of [N, K] logits."""
    _check_logits(a, "softmax")
    e = np.exp(a.data - a.data.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    return _make(y, (a,), lambda g: _accum_owned(a, y * (g - (g * y).sum(axis=-1, keepdims=True))))


def log_softmax(a):
    """Log-probabilities from [N, K] logits; stable counterpart to softmax."""
    _check_logits(a, "log_softmax")
    z = a.data - a.data.max(axis=-1, keepdims=True)
    lp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return _make(lp, (a,), lambda g: _accum_owned(a, g - np.exp(lp) * g.sum(axis=-1, keepdims=True)))


# ---------------------------------------------------------------------------
# reduction

def sum_all(a):
    """Sum of all elements, as a scalar tensor."""
    return _make(np.asarray(a.data.sum()), (a,), lambda g: _accum(a, np.broadcast_to(g, a.shape)))


# ---------------------------------------------------------------------------
# backward pass

def backward(loss):
    """Populate .grad on every requires_grad leaf reachable from ``loss``.

    Grads add to what ``.grad`` already holds.  Running a node's rule
    spends it: the node keeps its parents but drops its rule, so a graph
    that holds a spent node raises GraphError before any rule runs.  A
    scalar leaf as ``loss`` has nothing to spend: each call sets its grad to 1.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward: loss must be scalar, got shape {loss.shape}")

    topo, visited = [], set()
    stack = [(loss, False)] if loss._parents else []     # leaves have no rule to run
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
        elif id(node) not in visited:
            if node._backward is None:      # its rule already ran
                raise GraphError("backward: this graph, or part of it, was already consumed")
            visited.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents if p._parents and id(p) not in visited)

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        node._backward()
        # the closure references its own node: dropping it breaks that cycle, so
        # reference counting frees the graph's arrays, and marks the node spent
        node._backward = None
