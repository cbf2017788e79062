"""n-step advantage actor-critic training with lockstep actors and one learner.

N workers, each with its own environment, action rng and recurrent
state, play in lockstep rounds (synchronous A2C, or PAAC: Clemente et
al. 2017).  A round snapshots the shared parameters, steps all N envs
together for up to ``t_max`` steps, one batched ``forward`` per step,
backpropagates the sum of the N segments' actor-critic losses
(truncated through time at each segment's start) and applies the
clipped gradient to the shared store once.  A fixed seed reproduces a
run whatever the worker count, and with one worker a round is one A3C
cycle.

The rollout builds no graph: it keeps each step's observation, action,
reward, value and action probabilities, plus the recurrent state each
segment started from.  The learner then recomputes all N segments with
one ``forward_segment`` over [N,T,...] and backpropagates that single
graph.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .envs import make_env
from .network import RecurrentState, forward, forward_segment, init_weights


@dataclass
class Hyperparams:
    gamma: float = 0.99
    lr: float = 1e-4
    n_workers: int = 4
    t_max: int = 20
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    grad_clip_norm: float = 40.0
    total_steps: int = 200_000
    rmsprop_decay: float = 0.99
    rmsprop_eps: float = 0.1

    def __post_init__(self):
        # each check is written so that a nan value fails it
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if not (0.0 < self.lr < math.inf):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.t_max < 1 or self.n_workers < 1:
            raise ValueError("t_max and n_workers must be >= 1")
        for name in ("entropy_coef", "value_coef"):
            if not (0.0 <= getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if not self.grad_clip_norm > 0:
            raise ValueError(f"grad_clip_norm must be > 0, got {self.grad_clip_norm}")
        if not self.rmsprop_eps > 0:
            raise ValueError(f"rmsprop_eps must be > 0, got {self.rmsprop_eps}")
        if not (0.0 <= self.rmsprop_decay < 1.0):
            raise ValueError(f"rmsprop_decay must lie in [0, 1), got {self.rmsprop_decay}")


@dataclass
class RolloutStep:
    obs: np.ndarray
    action: int
    reward: float
    value: float
    log_prob: float
    probs: np.ndarray


@dataclass
class Rollout:
    """One segment; ``start_state`` is the recurrent state before its first step."""

    steps: list
    bootstrap_value: float
    terminal: bool
    start_state: RecurrentState | None = None

    def __len__(self):
        return len(self.steps)


def sample_action(probs, rng):
    """Categorical draw via the cumulative distribution."""
    u = rng.random()
    idx = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    return min(idx, len(probs) - 1)


def policy_entropy(probs):
    """-sum p log p over the nonzero action probabilities."""
    p = probs[probs > 0]
    return float(-(p * np.log(p)).sum())


def collect_rollout(envs, weights, config, state, t_max, rngs):
    """Step ``envs`` in lockstep for up to t_max steps without a graph; one rollout per env.

    ``state`` [N,L,h,w] holds each env's recurrent state, and ``rngs`` its
    action rng.  Each step is one batched ``forward`` over the envs still
    running; an env whose episode ends drops out, its state resets to
    zeros and its bootstrap value is 0.  One more batched ``forward`` gives
    the bootstrap values of the envs that did not finish.  An env that
    starts the round done is reset first.  The envs render each frame
    once: a segment's first frame comes from ``observe`` (or ``reset``),
    every later one from the step that made it.  Returns the rollouts, in
    env order, and the [N,...] state to carry into the next round.
    """
    frozen = {k: Tensor(t.data) for k, t in weights.items()}   # no requires_grad: no graph
    h, c = state.h.data.copy(), state.c.data.copy()
    obs = []
    for i, env in enumerate(envs):
        if env.done:
            obs.append(env.reset())
            h[i] = 0
            c[i] = 0
        else:
            obs.append(env.observe())
    rollouts = [Rollout([], 0.0, False, RecurrentState(Tensor(h[i]), Tensor(c[i])))
                for i in range(len(envs))]
    rows = list(range(len(envs)))          # the envs still running, in batch order
    live = RecurrentState(Tensor(h), Tensor(c))
    for _ in range(t_max):
        trace = forward(np.array(obs)[:, None], live, frozen, config)
        values = trace.value.data[:, 0].tolist()
        frames, obs, keep = obs, [], []
        for k, i in enumerate(rows):
            probs = trace.policy.data[k]
            action = sample_action(probs, rngs[i])
            res = envs[i].step(action)
            rollouts[i].steps.append(RolloutStep(
                obs=frames[k], action=action, reward=res.reward, value=values[k],
                log_prob=float(np.log(probs[action])), probs=probs))
            if res.done:
                rollouts[i].terminal = True
            else:
                obs.append(res.obs)
                keep.append(k)
        live = trace.next_state
        if len(keep) < len(rows):
            live = RecurrentState(Tensor(live.h.data[keep]), Tensor(live.c.data[keep]))
            rows = [rows[k] for k in keep]
        if not rows:
            break
    h, c = np.zeros_like(h), np.zeros_like(c)
    if rows:
        h[rows], c[rows] = live.h.data, live.c.data
        values = forward(np.array(obs)[:, None], live, frozen, config).value.data[:, 0]
        for i, value in zip(rows, values.tolist()):
            rollouts[i].bootstrap_value = value
    return rollouts, RecurrentState(Tensor(h), Tensor(c))


def compute_returns(rollout, gamma):
    """R_t = r_t + gamma * R_{t+1}, seeded with the bootstrap value; A_t = R_t - V_t."""
    acc = rollout.bootstrap_value
    returns = []
    for step in reversed(rollout.steps):
        acc = step.reward + gamma * acc
        returns.append(acc)
    returns.reverse()
    advantages = [r - s.value for r, s in zip(returns, rollout.steps)]
    return returns, advantages


def a3c_loss(rollouts, weights, config, returns, advantages, entropy_coef, value_coef):
    """Sum over a round's segments of their policy, value, and entropy terms.

    ``returns`` and ``advantages`` hold one list per segment.  All segments
    are recomputed with a graph through one ``forward_segment``, their
    observations padded to the longest; a padded step enters no term.
    Advantages and returns enter as constants: the policy term pushes
    log-probabilities only, the value term pushes the critic only.
    """
    lengths = [len(r) for r in rollouts]
    if lengths != [len(x) for x in returns] or lengths != [len(x) for x in advantages]:
        raise ValueError("rollouts, returns and advantages must have equal lengths")
    steps = [s for r in rollouts for s in r.steps]
    n = len(steps)
    dtype = weights["fe1.w"].dtype
    obs = np.zeros((len(rollouts), max(lengths)) + np.shape(steps[0].obs), dtype=dtype)
    for i, r in enumerate(rollouts):
        obs[i, :len(r)] = [s.obs for s in r.steps]
    start = RecurrentState(Tensor(np.stack([r.start_state.h.data for r in rollouts])),
                           Tensor(np.stack([r.start_state.c.data for r in rollouts])))
    trace = forward_segment(obs, start, weights, config, lengths)
    logits = trace.policy_logits                                  # [steps, K]
    logp = ad.log_softmax(logits)
    weighted = np.zeros(logits.shape, dtype=dtype)   # -A_t at the action taken
    weighted[np.arange(n), [s.action for s in steps]] = -np.concatenate(advantages)
    policy_term = ad.sum_all(ad.mul(logp, weighted))
    # V - R: its square is the bits of (R - V)^2, as rounding is sign-symmetric
    verr = ad.add(ad.reshape(trace.value, (n,)), -np.concatenate(returns).astype(dtype))
    value_term = ad.sum_all(ad.mul(verr, verr))
    neg_entropy = ad.sum_all(ad.mul(trace.policy, logp))
    return ad.add(policy_term, ad.add(ad.mul(value_term, float(value_coef)),
                                      ad.mul(neg_entropy, float(entropy_coef))))


def loss_components(rollouts, returns, advantages):
    """Per-step means over a round's segments of the three loss pieces, for the metrics log."""
    steps = [s for r in rollouts for s in r.steps]
    t = len(steps)
    advantages = [a for seg in advantages for a in seg]
    returns = [r for seg in returns for r in seg]
    policy_loss = -sum(s.log_prob * a for s, a in zip(steps, advantages)) / t
    value_loss = sum((r - s.value) ** 2 for s, r in zip(steps, returns)) / t
    entropy = sum(policy_entropy(s.probs) for s in steps)
    return policy_loss, value_loss, entropy / t


# Elements per slice of the in-place RMSProp update: slices keep its two
# scratch buffers at 128 KB in float32 instead of two copies of every tensor.
_APPLY_CHUNK = 16384


class SharedParams:
    """Global weights plus per-parameter RMSProp statistics and a step counter.

    Two scratch buffers of ``_APPLY_CHUNK`` elements per dtype hold the
    RMSProp intermediates.
    """

    def __init__(self, weights):
        self.values = {k: np.array(t.data, copy=True) for k, t in weights.items()}
        self.ms = {k: np.zeros_like(v) for k, v in self.values.items()}
        self._scratch = {v.dtype: (np.empty(_APPLY_CHUNK, v.dtype), np.empty(_APPLY_CHUNK, v.dtype))
                         for v in self.values.values()}
        self.steps = 0
        self.updates = 0
        self.skipped = 0


def sync_local(shared):
    """Fresh gradient-tracking leaves over the global weights, sharing their arrays.

    Nothing writes the store between this call and the round's backward
    pass, so the leaves need no copy; each call gives new tensors, so no
    gradient buffer carries over from one round to the next.
    """
    return {k: Tensor(v, requires_grad=True) for k, v in shared.values.items()}


def _rmsprop_chunk(values, ms, g, scale, hyper, step, tmp):
    """One slice of the in-place update; ``step`` and ``tmp`` are scratch of the same length."""
    if scale != 1.0:
        g = np.multiply(g, scale, out=step)
    np.multiply(ms, hyper.rmsprop_decay, out=ms)
    np.multiply(g, g, out=tmp)
    tmp *= 1.0 - hyper.rmsprop_decay
    ms += tmp
    np.add(ms, hyper.rmsprop_eps, out=tmp)
    np.sqrt(tmp, out=tmp)
    np.multiply(g, hyper.lr, out=step)
    step /= tmp
    values -= step


def apply_gradients(shared, grads, hyper, n_steps):
    """Clip to the global-norm budget, then shared RMSProp on the named tensors.

    Parameters absent from ``grads`` are untouched, statistics included.
    A non-finite gradient skips the update (the step counter still
    advances) and reports None so the caller can flag it.  The update runs
    in place on the store's scratch buffers and gives the same bits as
    ``ms = decay*ms + (1-decay)*g*g; w -= lr*g / sqrt(ms + eps)``.
    """
    sq = 0.0
    for g in grads.values():
        flat = g.ravel()
        sq += float(np.dot(flat, flat))
    norm = float(np.sqrt(sq))
    shared.steps += n_steps
    if not np.isfinite(norm):
        shared.skipped += 1
        return None
    scale = 1.0 if norm <= hyper.grad_clip_norm else hyper.grad_clip_norm / norm
    for name, g in grads.items():
        values, ms = shared.values[name].reshape(-1), shared.ms[name].reshape(-1)
        step, tmp = shared._scratch[values.dtype]
        g = g.reshape(-1)
        for lo in range(0, values.size, _APPLY_CHUNK):
            hi = min(lo + _APPLY_CHUNK, values.size)
            _rmsprop_chunk(values[lo:hi], ms[lo:hi], g[lo:hi], scale, hyper,
                           step[:hi - lo], tmp[:hi - lo])
    shared.updates += 1
    return norm


class MetricsWriter:
    """Append-only CSV of one row per update."""

    HEADER = "step,episode_return,policy_loss,value_loss,entropy,grad_norm"

    def __init__(self, path):
        self._fh = open(path, "w")
        self._fh.write(self.HEADER + "\n")

    def log(self, step, episode_return, policy_loss, value_loss, entropy, grad_norm):
        er = "" if episode_return is None else repr(float(episode_return))
        gn = "nan" if grad_norm is None else repr(float(grad_norm))
        self._fh.write(f"{step},{er},{repr(float(policy_loss))},"
                       f"{repr(float(value_loss))},{repr(float(entropy))},{gn}\n")

    def close(self):
        self._fh.close()


def _worker_env_seed(seed, worker_id):
    return int(np.random.SeedSequence([seed, worker_id, 17]).generate_state(1)[0])


def _worker_loop(envs, rngs, shared, config, hyper, metrics, save_snapshot, checkpoint_interval):
    """Play lockstep rounds of all workers, one summed update each, until the budget is met.

    The budget is checked before every round, and a round takes at most
    ``t_max`` steps per worker, so the run ends below
    ``total_steps + n_workers * t_max``.  Whenever the step count passes a
    multiple of ``checkpoint_interval`` not saved yet, the weights are
    saved under the step count they hold.
    """
    state = RecurrentState.zeros(config, batch=len(envs))
    saved_mark = 0
    while shared.steps < hyper.total_steps:
        weights = sync_local(shared)
        rollouts, state = collect_rollout(envs, weights, config, state, hyper.t_max, rngs)
        ended = [env.score for env, r in zip(envs, rollouts) if r.terminal]
        returns, advantages = zip(*(compute_returns(r, hyper.gamma) for r in rollouts))
        loss = a3c_loss(rollouts, weights, config, returns, advantages,
                        hyper.entropy_coef, hyper.value_coef)
        ad.backward(loss)
        grads = {k: t.grad for k, t in weights.items() if t.grad is not None}
        norm = apply_gradients(shared, grads, hyper, sum(len(r) for r in rollouts))
        p_loss, v_loss, entropy = loss_components(rollouts, returns, advantages)
        metrics.log(shared.steps, float(np.mean(ended)) if ended else None,
                    p_loss, v_loss, entropy, norm)
        if checkpoint_interval and shared.steps // checkpoint_interval > saved_mark:
            saved_mark = shared.steps // checkpoint_interval
            save_snapshot(shared.steps)


def train(config, hyper, env_spec, seed, out_dir, checkpoint_interval=50_000, log=None):
    """Run the lockstep training loop in float32 until the global step budget is met.

    Writes ckpt_<step>.ma3c files (including the initial ckpt_0) and a
    metrics.csv into ``out_dir``; returns the path of the final
    checkpoint.
    """
    from .checkpoint import save_checkpoint  # here to avoid an import cycle

    os.makedirs(out_dir, exist_ok=True)

    shared = SharedParams(init_weights(config, seed))
    last_saved = None

    def save_snapshot(step):
        # every update advances the step count, so saving the same step again writes the same bytes
        nonlocal last_saved
        path = os.path.join(out_dir, f"ckpt_{step}.ma3c")
        if step != last_saved:
            save_checkpoint(shared.values, config, path)
            last_saved = step
        return path

    save_snapshot(0)
    metrics = MetricsWriter(os.path.join(out_dir, "metrics.csv"))
    t0 = time.monotonic()
    try:
        envs = [make_env(dataclasses.replace(env_spec, seed=_worker_env_seed(seed, i)))
                for i in range(hyper.n_workers)]
        rngs = [np.random.default_rng([seed, i, 1]) for i in range(hyper.n_workers)]
        _worker_loop(envs, rngs, shared, config, hyper, metrics, save_snapshot,
                     checkpoint_interval)
    finally:
        metrics.close()

    final_step = shared.steps
    final_path = save_snapshot(final_step)
    elapsed = time.monotonic() - t0
    if log:
        rate = final_step / elapsed if elapsed > 0 else 0.0
        log(f"trained {final_step} steps in {elapsed:.1f}s "
            f"({rate:.0f} steps/s, {shared.updates} updates, {shared.skipped} skipped)")
    return final_path
