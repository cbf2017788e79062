"""n-step advantage actor-critic training with round-robin actor-learners.

N worker records, each with its own environment, action rng and
recurrent state, take turns in the fixed order 0..N-1.  A turn snapshots
the shared parameters, so it sees the update the previous worker just
applied, collects a bounded rollout segment, backpropagates the
actor-critic loss through the segment (truncated through time at the
segment boundary) and applies the clipped gradients to the shared store.
This keeps A3C's order of snapshot, rollout and update per worker, and a
fixed seed reproduces a run whatever the worker count.

The rollout builds no graph: it keeps the observations, actions,
rewards, values and action probabilities, plus the recurrent state the
segment started from.  The learner then recomputes the segment once
with ``forward_segment``, every layer batched over the time axis, and
backpropagates that single graph.
"""

from __future__ import annotations

import dataclasses
import itertools
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


def collect_rollout(env, weights, config, state, t_max, rng):
    """Run up to t_max policy steps without a graph; stop early on episode end.

    The env renders each frame once: the segment's first frame comes from
    ``observe`` (or ``reset``), every later one from the step that made it.
    On a terminal step the returned state resets to zeros and
    bootstrap_value is 0; otherwise the value of the successor state
    seeds the return.
    """
    dtype = weights["fe1.w"].dtype
    frozen = {k: Tensor(t.data) for k, t in weights.items()}   # no requires_grad: no graph
    if env.done:
        obs = env.reset()
        state = RecurrentState.zeros(config, dtype)
    else:
        obs = env.observe()
    start = state
    steps = []
    terminal = False
    for _ in range(t_max):
        trace = forward(obs, state, frozen, config)
        probs = trace.policy.data
        action = sample_action(probs, rng)
        res = env.step(action)
        steps.append(RolloutStep(obs=obs, action=action, reward=res.reward,
                                 value=trace.value_scalar,
                                 log_prob=float(np.log(probs[action])), probs=probs))
        obs = res.obs
        state = trace.next_state
        if res.done:
            terminal = True
            state = RecurrentState.zeros(config, dtype)
            break
    if terminal:
        bootstrap = 0.0
    else:
        bootstrap = forward(obs, state, frozen, config).value_scalar
    return Rollout(steps, bootstrap, terminal, start), state


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


def a3c_loss(rollout, weights, config, returns, advantages, entropy_coef, value_coef):
    """Sum over the segment of policy, value, and entropy terms.

    Recomputes the segment with a graph through ``forward_segment``.
    Advantages and returns enter as constants: the policy term pushes
    log-probabilities only, the value term pushes the critic only.
    """
    n = len(rollout.steps)
    if not (n == len(returns) == len(advantages)):
        raise ValueError("rollout, returns and advantages must have equal length")
    trace = forward_segment(np.stack([s.obs for s in rollout.steps]), rollout.start_state,
                            weights, config)
    logits = trace.policy_logits                                  # [T, K]
    logp = ad.log_softmax(logits)
    dtype = logits.dtype
    weighted = np.zeros(logits.shape, dtype=dtype)   # -A_t at the action taken
    weighted[np.arange(n), [s.action for s in rollout.steps]] = -np.asarray(advantages)
    policy_term = ad.sum_all(ad.mul(logp, weighted))
    verr = ad.add(ad.neg(ad.reshape(trace.value, (n,))), np.asarray(returns, dtype=dtype))
    value_term = ad.sum_all(ad.mul(verr, verr))
    neg_entropy = ad.sum_all(ad.mul(trace.policy, logp))
    return ad.add(policy_term, ad.add(ad.mul(value_term, float(value_coef)),
                                      ad.mul(neg_entropy, float(entropy_coef))))


def loss_components(rollout, returns, advantages):
    """Per-step means of the three loss pieces, for the metrics log."""
    t = len(rollout.steps)
    policy_loss = -sum(s.log_prob * a for s, a in zip(rollout.steps, advantages)) / t
    value_loss = sum((r - s.value) ** 2 for s, r in zip(rollout.steps, returns)) / t
    entropy = sum(policy_entropy(s.probs) for s in rollout.steps)
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

    Nothing writes the store between this call and the cycle's backward
    pass, so the leaves need no copy; each call gives new tensors, so no
    gradient buffer carries over from one cycle to the next.
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
    """Append-only CSV of one row per rollout."""

    HEADER = "step,worker,episode_return,policy_loss,value_loss,entropy,grad_norm"

    def __init__(self, path):
        self._fh = open(path, "w")
        self._fh.write(self.HEADER + "\n")

    def log(self, step, worker, episode_return, policy_loss, value_loss, entropy, grad_norm):
        er = "" if episode_return is None else repr(float(episode_return))
        gn = "nan" if grad_norm is None else repr(float(grad_norm))
        self._fh.write(f"{step},{worker},{er},{repr(float(policy_loss))},"
                       f"{repr(float(value_loss))},{repr(float(entropy))},{gn}\n")

    def close(self):
        self._fh.close()


@dataclass
class Worker:
    """One actor-learner: its environment, action rng and recurrent state."""

    index: int
    env: object
    rng: np.random.Generator
    state: RecurrentState


def _worker_env_seed(seed, worker_id):
    return int(np.random.SeedSequence([seed, worker_id, 17]).generate_state(1)[0])


def _make_worker(index, config, env_spec, seed):
    env = make_env(dataclasses.replace(env_spec, seed=_worker_env_seed(seed, index)))
    return Worker(index, env, np.random.default_rng([seed, index, 1]),
                  RecurrentState.zeros(config))


def _worker_loop(workers, shared, config, hyper, metrics, save_snapshot, checkpoint_interval):
    """Give the workers one rollout-and-update cycle each, in turn, until the budget is met.

    The budget is checked before every cycle, so the run ends below
    ``total_steps + t_max``.  Whenever the step count passes a multiple
    of ``checkpoint_interval`` not saved yet, the weights are saved under
    the step count they hold.
    """
    saved_mark = 0
    for worker in itertools.cycle(workers):
        if shared.steps >= hyper.total_steps:
            return
        weights = sync_local(shared)
        rollout, worker.state = collect_rollout(worker.env, weights, config, worker.state,
                                                hyper.t_max, worker.rng)
        episode_return = worker.env.score if rollout.terminal else None
        returns, advantages = compute_returns(rollout, hyper.gamma)
        loss = a3c_loss(rollout, weights, config, returns, advantages,
                        hyper.entropy_coef, hyper.value_coef)
        ad.backward(loss)
        grads = {k: t.grad for k, t in weights.items() if t.grad is not None}
        norm = apply_gradients(shared, grads, hyper, len(rollout))
        p_loss, v_loss, entropy = loss_components(rollout, returns, advantages)
        metrics.log(shared.steps, worker.index, episode_return, p_loss, v_loss, entropy, norm)
        if checkpoint_interval and shared.steps // checkpoint_interval > saved_mark:
            saved_mark = shared.steps // checkpoint_interval
            save_snapshot(shared.steps)


def train(config, hyper, env_spec, seed, out_dir, checkpoint_interval=50_000, log=None):
    """Run the round-robin training loop in float32 until the global step budget is met.

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
        workers = [_make_worker(i, config, env_spec, seed) for i in range(hyper.n_workers)]
        _worker_loop(workers, shared, config, hyper, metrics, save_snapshot,
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
