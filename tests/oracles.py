"""Independent reference implementations shared by the test modules.

Everything here is deliberately written the slow, obvious way (explicit
loops, direct formulas) so it cannot share a bug with the library paths
it checks.
"""

import numpy as np

from maskac import autodiff as ad
from maskac.envs import make_env
from maskac.network import RecurrentState, forward
from maskac.training import sample_action


def pick(a, index):
    """Element ``index`` of a 1-d tensor, as a scalar tensor: the sum of ``a`` times a one-hot."""
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


def conv2d_oracle(x, k, b, stride, padding):
    """Direct six-nested-loop convolution."""
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
    """Gate-by-gate ConvLSTM step from the raw formulas."""
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


def per_step_a3c_loss(rollout, weights, config, returns, advantages, entropy_coef, value_coef):
    """The segment's actor-critic loss built one step at a time.

    One graph-building ``forward`` per step, carrying the recurrent state
    with its graph from the segment's start state, then per-step policy,
    value and entropy terms added up one by one.  The batched learner
    must produce the same gradients.
    """
    state = rollout.start_state
    total = None
    for step, ret, adv in zip(rollout.steps, returns, advantages):
        trace = forward(step.obs, state, weights, config)
        state = trace.next_state
        logp = ad.log_softmax(trace.policy_logits)
        picked = pick(logp, step.action)
        entropy = ad.mul(ad.sum_all(ad.mul(trace.policy, logp)), -1.0)
        verr = ad.add(pick(trace.value, 0), -float(ret))
        term = ad.add(ad.mul(picked, -float(adv)),
                      ad.add(ad.mul(ad.mul(verr, verr), float(value_coef)),
                             ad.mul(entropy, -float(entropy_coef))))
        total = term if total is None else ad.add(total, term)
    return total


def per_episode_replay(weights, config, env_spec, episodes, mask_transform="identity",
                       seed=0, greedy=True):
    """Per episode, its return and the (trace, action) of each step, from one
    unbatched ``forward`` per step, one episode after another.

    The episode seeds, action rngs and argmax/sampling rule are those of
    ``analysis.evaluate`` and ``analysis.record_heatmaps``, which play the
    same episodes through the batched lockstep driver.
    """
    weights = {k: ad.Tensor(v.data if isinstance(v, ad.Tensor) else v) for k, v in weights.items()}
    dtype = weights["fe1.w"].dtype
    env = make_env(env_spec)
    episodes_out = []
    for ep in range(episodes):
        env.reset(seed=int(np.random.SeedSequence([seed, ep]).generate_state(1)[0]))
        rng = np.random.default_rng([seed, ep, 1])
        state = RecurrentState.zeros(config, dtype)
        steps = []
        while not env.done:
            trace = forward(env.observe(), state, weights, config, mask_transform=mask_transform)
            probs = trace.policy.data
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
