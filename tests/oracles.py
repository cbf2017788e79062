"""Independent reference implementations shared by the test modules.

Everything here is deliberately written the slow, obvious way (explicit
loops, direct formulas) so it cannot share a bug with the library paths
it checks.
"""

import dataclasses
import functools

import numpy as np

from maskac import autodiff as ad
from maskac.analysis import sample_action
from maskac.envs import make_env
from maskac.network import RecurrentState, _heads, feature_extract, forward


def pick(a, index):
    """Element ``index`` of a tensor, as a scalar tensor: the sum of ``a`` times a one-hot."""
    onehot = np.zeros(a.shape, dtype=a.dtype)
    onehot[index] = 1.0
    return ad.sum_all(ad.mul(a, onehot))


def zero_grads(tensors):
    """Drop gradient buffers on an iterable or mapping of tensors."""
    if hasattr(tensors, "values"):
        tensors = tensors.values()
    for t in tensors:
        t.grad = None


def grad_check(f, params, eps=1e-5, n_samples=100, rng=None):
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps the parameter dict to a scalar loss tensor and must be
    deterministic.  Coordinates are sampled uniformly over all parameter
    elements; relative error uses |a - n| / max(|a|, |n|, 1e-8).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    for t in params.values():
        t.requires_grad = True
    zero_grads(params)
    ad.backward(f(params))
    analytic = {name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                for name, t in params.items()}

    names = sorted(params)
    sizes = np.array([params[n].data.size for n in names])
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    total = int(sizes.sum())
    coords = rng.choice(total, size=min(n_samples, total), replace=False)

    worst = 0.0
    for c in coords:
        ti = int(np.searchsorted(offsets, c, side="right") - 1)
        name = names[ti]
        flat = params[name].data.reshape(-1)
        i = int(c - offsets[ti])
        saved = flat[i]
        flat[i] = saved + eps
        hi = f(params).data.reshape(())
        flat[i] = saved - eps
        lo = f(params).data.reshape(())
        flat[i] = saved
        # difference in the working dtype: float() here would clip an
        # extended-precision run back to double and reintroduce noise
        numeric = float((hi - lo) / (2.0 * eps))
        a = float(analytic[name].reshape(-1)[i])
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst


def dequantize(bytes_):
    """Netpbm bytes back to intensities in [0,1]."""
    return np.asarray(bytes_, dtype=np.float64) / 255.0


# ---------------------------------------------------------------------------
# layouts: the library runs channel-last (NHWC maps, HWIO kernels); the
# references below are written channel-first (NCHW maps, OIHW kernels)

def nhwc(a):
    """A channel-first [..., C, H, W] array as a channel-last [..., H, W, C] copy."""
    return np.ascontiguousarray(np.moveaxis(a, -3, -1))


def nchw(a):
    """A channel-last [..., H, W, C] array as a channel-first [..., C, H, W] copy."""
    return np.ascontiguousarray(np.moveaxis(a, -1, -3))


def hwio(k):
    """An OIHW kernel as an HWIO copy."""
    return np.ascontiguousarray(k.transpose(2, 3, 1, 0))


def oihw(k):
    """An HWIO kernel as an OIHW copy."""
    return np.ascontiguousarray(k.transpose(3, 2, 0, 1))


def permute(a, axes):
    """Graph op: ``a`` with its axes permuted as ``np.transpose`` does; a copy."""
    return ad._make(np.ascontiguousarray(a.data.transpose(axes)), (a,),
                    lambda g: ad._accum(a, g.transpose(np.argsort(axes))))


def to_nchw(a):
    """Graph op: a channel-last map, or a batch of them, as channel-first."""
    lead = tuple(range(a.data.ndim - 3))
    return permute(a, lead + tuple(len(lead) + i for i in (2, 0, 1)))


def to_nhwc(a):
    """Graph op: a channel-first map, or a batch of them, as channel-last."""
    lead = tuple(range(a.data.ndim - 3))
    return permute(a, lead + tuple(len(lead) + i for i in (1, 2, 0)))


# ---------------------------------------------------------------------------
# the channel-first gather convolution: the engine's conv2d before it went
# channel-last, kept as the reference its replacement is checked against

@functools.lru_cache(maxsize=64)
def _patch_index(c_in, h, w, kh, kw, stride, padding):
    """Gather index of the im2col patch matrix of a flat [C*H*W] map.

    Row (i, j) is an output position, column (c, ki, kj) a kernel tap, so
    the patches line up with the [C_out, C_in*kH*kW] kernel matrix.  Taps
    that land in the zero padding point one past the map, at C*H*W, where
    ``_im2col_nchw`` appends a zero.
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


def _im2col_nchw(xd, kh, kw, stride, padding):
    """Patch rows of an [N,C,H,W] batch: [N*H'*W', C*kH*kW]."""
    n, c, h, w = xd.shape
    idx = _patch_index(c, h, w, kh, kw, stride, padding)
    flat = xd.reshape(n, -1)
    if padding:
        flat = np.concatenate((flat, np.zeros((n, 1), dtype=xd.dtype)), axis=1)
    return np.take(flat, idx, axis=1).reshape(-1, idx.shape[1])


def _col2im_nchw(dpatch, xp_shape, kh, kw, stride, h_out, w_out):
    """Adjoint of ``_im2col_nchw``: scatter-add patch gradients into a padded [N,C,Hp,Wp] batch."""
    n, c, hp, wp = xp_shape
    d = dpatch.reshape(n, h_out, w_out, c, kh * kw)
    g = np.zeros((n, hp, wp, c), dtype=dpatch.dtype)
    rows, cols = stride * h_out, stride * w_out
    for ki in range(kh):
        for kj in range(kw):
            g[:, ki:ki + rows:stride, kj:kj + cols:stride] += d[..., ki * kw + kj]
    return g.transpose(0, 3, 1, 2)


def conv2d_nchw(x, k, b, stride=1, padding=0):
    """Graph op: channel-first convolution, x [C,H,W] or [N,C,H,W], k OIHW [C_out,C_in,kH,kW]."""
    c_in, h, w = x.shape[-3:]
    c_out, _, kh, kw = k.shape
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    xd = x.data.reshape((-1, c_in, h, w))
    n = xd.shape[0]
    patches = _im2col_nchw(xd, kh, kw, stride, padding)
    kmat = k.data.reshape(c_out, -1)
    y = (kmat @ patches.T).reshape(c_out, n, h_out, w_out).transpose(1, 0, 2, 3)
    y = y + b.data[:, None, None]

    def _bw(g):
        gm = g.reshape(n, c_out, -1).transpose(1, 0, 2).reshape(c_out, -1)
        if k.requires_grad:
            ad._accum(k, (gm @ patches).reshape(k.shape))
        if b.requires_grad:
            ad._accum(b, gm.sum(axis=1))
        if x.requires_grad:
            padded = (n, c_in, h + 2 * padding, w + 2 * padding)
            gxp = _col2im_nchw(gm.T @ kmat, padded, kh, kw, stride, h_out, w_out)
            if padding:
                gxp = gxp[:, :, padding:-padding, padding:-padding]
            ad._accum(x, gxp.reshape(x.shape))
    return ad._make(y.reshape(x.shape[:-3] + (c_out, h_out, w_out)), (x, k, b), _bw)


def conv2d_oracle(x, k, b, stride, padding):
    """Direct six-nested-loop convolution, channel-first: x [C,H,W], k OIHW."""
    c_in, h, w = x.shape
    c_out, _, kh, kw = k.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    xp = np.zeros((c_in, hp, wp))
    xp[:, padding:padding + h, padding:padding + w] = x
    h_out = (hp - kh) // stride + 1
    w_out = (wp - kw) // stride + 1
    y = np.zeros((c_out, h_out, w_out))
    for co in range(c_out):
        for oi in range(h_out):
            for oj in range(w_out):
                acc = 0.0
                for ci in range(c_in):
                    for ki in range(kh):
                        for kj in range(kw):
                            acc += xp[ci, oi * stride + ki, oj * stride + kj] * k[co, ci, ki, kj]
                y[co, oi, oj] = acc + b[co]
    return y


def matvec_oracle(x, w, b):
    y = np.zeros(w.shape[0])
    for i in range(w.shape[0]):
        acc = 0.0
        for j in range(w.shape[1]):
            acc += w[i, j] * x[j]
        y[i] = acc + b[i]
    return y


def convlstm_oracle(x, h_prev, c_prev, kernel, bias):
    """Gate-by-gate ConvLSTM step from the raw formulas, channel-first: x [C,H,W], kernel OIHW."""
    L = h_prev.shape[0]
    z = conv2d_oracle(np.concatenate([x, h_prev], axis=0), kernel, bias, stride=1, padding=1)

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    i = sig(z[0:L])
    f = sig(z[L:2 * L])
    o = sig(z[2 * L:3 * L])
    g = np.tanh(z[3 * L:4 * L])
    c_next = f * c_prev + i * g
    h_next = o * np.tanh(c_next)
    return h_next, c_next


def _sigmoid(v):
    return 0.5 * (np.tanh(0.5 * v) + 1.0)


def concat_channels(a, b):
    """Graph op: two [C,H,W] maps, or two [N,C,H,W] batches, stacked along the channel axis."""
    if (a.data.ndim not in (3, 4) or b.data.ndim != a.data.ndim
            or a.shape[:-3] != b.shape[:-3] or a.shape[-2:] != b.shape[-2:]):
        raise ad.ShapeError(f"concat_channels: shapes do not line up: {a.shape}, {b.shape}")
    na = a.shape[-3]

    def _bw(g):
        if a.requires_grad:
            ad._accum(a, g[..., :na, :, :])
        if b.requires_grad:
            ad._accum(b, g[..., na:, :, :])
    return ad._make(np.concatenate((a.data, b.data), axis=-3), (a, b), _bw)


def lstm_cell(z, c):
    """Graph op: (h, c_next) from gate pre-activations z [4L,H,W] and cell state c [L,H,W].

    A leading batch axis on both is allowed.  c_next = f*c + i*g and
    h = o*tanh(c_next), with sigmoid i, f, o and tanh g; c_next is h's
    parent, so a loss may read either output or both.
    """
    L = c.shape[-3]
    i, f, o = (_sigmoid(z.data[..., j * L:(j + 1) * L, :, :]) for j in range(3))
    g = np.tanh(z.data[..., 3 * L:, :, :])
    c_next = f * c.data + i * g
    tc = np.tanh(c_next)

    def _bw_c(dc):        # h's gradient reaches c_next in h's rule and gate o here
        dh = np.zeros_like(dc) if h_out.grad is None else h_out.grad
        if z.requires_grad:
            ad._accum(z, np.concatenate((dc * g * i * (1.0 - i), dc * c.data * f * (1.0 - f),
                                         dh * tc * o * (1.0 - o), dc * i * (1.0 - g * g)),
                                        axis=-3))
        if c.requires_grad:
            ad._accum(c, dc * f)
    c_out = ad._make(c_next, (z, c), _bw_c)
    h_out = ad._make(o * tc, (z, c_out), lambda dh: ad._accum(c_out, dh * o * (1.0 - tc * tc)))
    return h_out, c_out


def convlstm_step(x, state, w):
    """One ConvLSTM step as a graph of per-step ops: (x, h) stacked, the 3x3 gate conv, the cell.

    All channel-first: x [C,H,W] with ``state`` an (h, c) pair of [L,H,W]
    tensors, or a batch of both, and ``w["lstm.w"]`` an OIHW kernel;
    returns the next (h, c) pair.  Unlike ``autodiff.convlstm``, gradients
    flow on into ``state``.
    """
    h, c = state
    z = conv2d_nchw(concat_channels(x, h), w["lstm.w"], w["lstm.b"], stride=1, padding=1)
    return lstm_cell(z, c)


def per_step_forward(obs, state, w, config):
    """``network.forward`` of one [H,W] frame with the per-step ConvLSTM, grads into ``state``.

    ``state`` is an (h, c) pair of channel-last [1,h,w,L] tensors, as the
    network keeps them; the step runs channel-first in ``convlstm_step``,
    through graph transposes of its input, states and kernel.  Returns
    the trace and the next pair.
    """
    x = feature_extract(ad.Tensor(np.asarray(obs, dtype=w["fe1.w"].dtype)[None, :, :, None]), w,
                        config)
    kernel = {"lstm.w": permute(w["lstm.w"], (3, 2, 0, 1)), "lstm.b": w["lstm.b"]}
    h, c = convlstm_step(to_nchw(x), tuple(to_nchw(t) for t in state), kernel)
    state = to_nhwc(h), to_nhwc(c)
    return _heads(state[0], w, config, "identity"), state


def discounted_returns_oracle(rewards, bootstrap, gamma):
    """R_t = sum_k gamma^k r_{t+k} + gamma^(T-t) * bootstrap, summed directly."""
    T = len(rewards)
    out = []
    for t in range(T):
        acc = 0.0
        for k in range(T - t):
            acc += gamma ** k * rewards[t + k]
        acc += gamma ** (T - t) * bootstrap
        out.append(acc)
    return out


def catch_random_expectation(size=20, paddle_half=3):
    """Exact mean return of the uniform-random policy on the catch task.

    Enumerates every (ball start column, drift) pair and evolves the exact
    paddle-center distribution of the clipped uniform random walk; the
    catch probability is the coverage mass under each landing column.
    """
    steps = size - 1
    lo, hi = paddle_half, size - 1 - paddle_half
    dist = np.zeros(size)
    dist[size // 2] = 1.0
    for _ in range(steps):
        nxt = np.zeros(size)
        for c in range(size):
            if dist[c] == 0.0:
                continue
            for d in (-1, 0, 1):
                nxt[min(max(c + d, lo), hi)] += dist[c] / 3.0
        dist = nxt

    total = 0.0
    n_cases = 0
    for start in range(size):
        for drift in (-1, 0, 1):
            col, d = start, drift
            for _ in range(steps):
                col += d
                if col < 0:
                    col, d = -col, -d
                elif col > size - 1:
                    col, d = 2 * (size - 1) - col, -d
            p_catch = dist[max(col - paddle_half, 0):col + paddle_half + 1].sum()
            total += 2.0 * p_catch - 1.0
            n_cases += 1
    return total / n_cases


def per_step_a3c_loss(obs, actions, start_state, weights, config, returns, entropy_coef,
                      value_coef):
    """The actor-critic loss of one segment's frames and actions, built one step at a time.

    One ``per_step_forward`` per step, carrying the (h, c) pair of tensors
    with its graph from the segment's start state, then per-step policy,
    value and entropy terms added up one by one.  Each step's advantage
    R - V takes V from that step's own forward, as a constant.  The
    batched learner must produce the same gradients.
    """
    state = start_state
    total = None
    for frame, action, ret in zip(obs, actions, returns):
        trace, state = per_step_forward(frame, state, weights, config)
        adv = ret - float(trace.value.data[0, 0])
        logp = ad.log_softmax(trace.policy_logits)
        picked = pick(logp, (0, action))
        entropy = ad.mul(ad.sum_all(ad.mul(trace.policy, logp)), -1.0)
        verr = ad.add(pick(trace.value, (0, 0)), -float(ret))
        term = ad.add(ad.mul(picked, -float(adv)),
                      ad.add(ad.mul(ad.mul(verr, verr), float(value_coef)),
                             ad.mul(entropy, -float(entropy_coef))))
        total = term if total is None else ad.add(total, term)
    return total


def batch_sizes(lengths):
    """How many of the segments of ``lengths`` reach each step."""
    return [sum(n > t for n in lengths) for t in range(max(lengths))]


def packed_rows(lengths):
    """Per segment, the row of each of its steps in a round packed step-major.

    Counts the rows one at a time: step 0 of every segment, then step 1 of
    those that reach it, and so on; within a step the longest segments
    come first, ties in segment order.
    """
    order = sorted(range(len(lengths)), key=lambda i: -lengths[i])
    rows = [[] for _ in lengths]
    row = 0
    for t in range(max(lengths)):
        for i in order:
            if t < lengths[i]:
                rows[i].append(row)
                row += 1
    return rows


def pack(segments, dtype):
    """Per-segment lists of steps as one packed [R,...] array of ``dtype``."""
    rows = packed_rows([len(s) for s in segments])
    out = np.zeros((sum(map(len, rows)),) + np.shape(segments[0][0]), dtype=dtype)
    for segment, segment_rows in zip(segments, rows):
        for step, row in zip(segment, segment_rows):
            out[row] = step
    return out


def replay_states(obs, lengths, weights, config, start=None):
    """The ConvLSTM (h, c) [R,h,w,L] that enter each step of each segment, as actors record them.

    ``obs`` [R,H,W] holds the segments of ``lengths`` packed step-major.
    Replays each segment's steps through one one-frame ``forward`` per
    step without a graph, from the start states ``start`` (an (h, c) pair
    of [N,h,w,L] arrays) or zeros.  It reads the weights' current values,
    so a caller that perturbs a weight records the states that weight makes.
    """
    weights = {k: ad.Tensor(t.data) for k, t in weights.items()}
    dtype = weights["fe1.w"].dtype
    side = config.feature_hw()
    h = np.zeros((len(obs), side, side, config.lstm_channels), dtype=dtype)
    c = np.zeros_like(h)
    for i, rows in enumerate(packed_rows(lengths)):
        state = (RecurrentState.zeros(config, dtype) if start is None
                 else RecurrentState(start[0][i:i + 1], start[1][i:i + 1]))
        for row in rows:
            h[row], c[row] = state.h[0], state.c[0]
            state = forward(obs[row], state, weights, config, with_value=False).next_state
    return h, c


def per_episode_replay(weights, config, env_spec, episodes, mask_transform="identity",
                       seed=0, greedy=True):
    """Per episode, its return and the (trace, action) of each step, from one
    one-frame ``forward`` per step, one episode after another.

    The episode seeds, action rngs and argmax/sampling rule are those of
    ``analysis.evaluate`` and ``analysis.record_heatmaps``, which play the
    same episodes through the batched lockstep driver.
    """
    weights = {k: ad.Tensor(v.data if isinstance(v, ad.Tensor) else v) for k, v in weights.items()}
    dtype = weights["fe1.w"].dtype
    episodes_out = []
    for ep in range(episodes):
        env_seed = int(np.random.SeedSequence([seed, ep]).generate_state(1)[0])
        env = make_env(dataclasses.replace(env_spec, seed=env_seed))
        rng = np.random.default_rng([seed, ep, 1])
        state = RecurrentState.zeros(config, dtype)
        steps = []
        while not env.done:
            trace = forward(env.observe(), state, weights, config, mask_transform=mask_transform)
            probs = trace.policy.data[0]
            action = int(np.argmax(probs)) if greedy else sample_action(probs, rng)
            env.step(action)
            steps.append((trace, action))
            state = trace.next_state
        episodes_out.append((env.score, steps))
    return episodes_out


def per_episode_evaluate(weights, config, env_spec, episodes, mask_transform="identity",
                         seed=0, greedy=True):
    """(return, length) of each episode of ``per_episode_replay``."""
    return [(score, len(steps)) for score, steps in
            per_episode_replay(weights, config, env_spec, episodes, mask_transform, seed, greedy)]


def rmsprop_apply_oracle(values, ms, grads, hyper):
    """Clip to the global norm, then ``w -= lr*g / sqrt(ms + eps)`` with fresh temporaries.

    Updates ``values`` and ``ms`` (dicts of arrays) in place; the formula
    ``apply_gradients`` must reproduce bit for bit.
    """
    norm = float(np.sqrt(sum(float(np.dot(g.ravel(), g.ravel())) for g in grads.values())))
    scale = 1.0 if norm <= hyper.grad_clip_norm else hyper.grad_clip_norm / norm
    decay = hyper.rmsprop_decay
    for name, g in grads.items():
        if scale != 1.0:
            g = g * scale
        np.multiply(ms[name], decay, out=ms[name])
        ms[name] += (1.0 - decay) * (g * g)
        values[name] -= hyper.lr * g / np.sqrt(ms[name] + hyper.rmsprop_eps)
    return scale


def region_mean_oracle(grid, stencil, position, obs_size):
    """``analysis.region_mean`` as sum_c covered_c * m_c / sum_c covered_c over the mask cells.

    covered_c counts the pixels of cell c's block that a full-frame copy of the stencil sets.
    """
    full = np.zeros((obs_size, obs_size), dtype=bool)
    r, c = position
    h, w = stencil.shape
    full[r:r + h, c:c + w] = stencil
    n = grid.shape[0]
    idx = np.arange(obs_size) * n // obs_size
    total = covered = 0.0
    for a in range(n):
        for b in range(n):
            count = full[np.ix_(idx == a, idx == b)].sum()
            total += count * grid[a, b]
            covered += count
    return total / covered
