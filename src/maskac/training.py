"""n-step advantage actor-critic training with lockstep actors and one learner.

N workers, each with its own environment, action rng and recurrent
state, play in lockstep rounds (synchronous A2C, or PAAC: Clemente et
al. 2017).  A round snapshots the shared parameters, steps all N envs
together for up to ``t_max`` steps through ``analysis.lockstep``, the
driver the analysis instruments play their episodes with, and
backpropagates the sum of the N segments' actor-critic losses
(truncated through time at each segment's start) and applies the
clipped gradient to the shared store once.  A fixed seed reproduces a
run whatever the worker count, and with one worker a round is one A3C
cycle.

The rollout builds no graph and skips the value branch; ``lockstep``
resets the envs that start a round done, and each step's trace holds
the recurrent state its ``forward`` read.  The rollout returns the
round as a ``Round`` of arrays packed step-major, with no padding: each
step's observation, action, reward and that entering state.  The
learner recomputes all N segments with one ``forward`` over those rows
in their step blocks, the pass the actors run over one step, whose
ConvLSTM reads the recorded states instead of stepping through time; it
takes the values, log-probs, entropies and advantages from that pass,
and backpropagates that single graph.  The round loop, ``_worker_loop``,
also writes every checkpoint after the initial one.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import checkpoint
from .analysis import check_env_fit, evaluate, lockstep, write_csv
from .autodiff import Tensor
from .envs import make_env
from .network import RecurrentState, forward, init_weights


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
        if self.total_steps < 0:
            raise ValueError(f"total_steps must be >= 0, got {self.total_steps}")
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
class Round:
    """The N segments of one lockstep round, their R steps packed step-major.

    ``obs`` [R,H,W], ``actions``, ``rewards`` [R] and the ConvLSTM states
    ``h``, ``c`` [R,h,w,L] that entered each step hold step 0 of every
    segment, then step 1 of those that reached it, and so on, longest
    segments first (``step_blocks``).  In worker order, ``lengths`` [N]
    counts each segment's steps, ``terminal`` [N] marks those that ended
    their episode and ``bootstrap`` [N] is the value after each (0 if ended).
    """

    obs: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    h: np.ndarray
    c: np.ndarray
    lengths: np.ndarray
    terminal: np.ndarray
    bootstrap: np.ndarray


def step_blocks(lengths):
    """The packed layout of segments of ``lengths``: ``(order, sizes)``.

    ``order`` [N], the segments longest first with ties in worker order,
    orders the rows of every step; step t is a block of ``sizes[t]`` rows.
    """
    sizes = [int((lengths > t).sum()) for t in range(int(lengths.max()))]
    return np.argsort(-lengths, kind="stable"), sizes


def collect_rollout(envs, weights, config, state, t_max, rngs):
    """Step ``envs`` in lockstep for up to t_max steps without a graph; one segment per env.

    ``state`` [N,h,w,L] holds each env's recurrent state, zeros for an env
    that starts the round done, and ``rngs`` its action rng.  The steps
    run through ``lockstep`` without the value branch, which resets an env
    that starts done and renders each frame once; each step records the
    state its ``forward`` read.  An env whose episode ends drops out and
    its bootstrap value is 0.  One more batched full ``forward`` gives the
    bootstrap values of the envs that did not finish.  Returns the packed
    ``Round`` and the [N,...] state to carry into the next round: zeros,
    except the rows of the envs still running.
    """
    frozen = {k: Tensor(t.data) for k, t in weights.items()}   # no requires_grad: no graph
    steps = []     # per step: its rows' envs, step index, frames, actions, rewards, states in
    for t, rows, frames, trace, actions, results in lockstep(
            frozen, config, envs, rngs, greedy=False, with_value=False, state=state):
        steps.append((rows, [t] * len(rows), frames, actions, [r.reward for r in results],
                      trace.state.h, trace.state.c))
        if t + 1 == t_max:
            break
    env_of, step_of, *fields = (np.concatenate(part) for part in zip(*steps))
    lengths = np.bincount(env_of, minlength=len(envs))
    rank = np.argsort(step_blocks(lengths)[0])                   # each env's place in a step
    packed = np.lexsort((rank[env_of], step_of))
    rnd = Round(*(field[packed] for field in fields), lengths,
                np.array([env.done for env in envs]), np.zeros(len(envs)))
    # the envs still running after the last step carry their state and get a bootstrap value
    carried = RecurrentState.zeros(config, state.h.dtype, batch=len(envs))
    running = [k for k, r in enumerate(results) if not r.done]
    if running:
        ends = [rows[k] for k in running]
        kept = RecurrentState(trace.next_state.h[running], trace.next_state.c[running])
        carried.h[ends], carried.c[ends] = kept.h, kept.c
        last = np.stack([results[k].obs for k in running])
        rnd.bootstrap[ends] = forward(last, kept, frozen, config).value.data[:, 0]
    return rnd, carried


def compute_returns(rnd, gamma):
    """[R] R_t = r_t + gamma * R_{t+1} per segment from its bootstrap, in ``rnd``'s packed order."""
    order, sizes = step_blocks(rnd.lengths)
    returns = np.empty_like(rnd.rewards)
    acc = rnd.bootstrap[order]       # per segment, the return of the step after the current one
    for end, n in zip(np.cumsum(sizes)[::-1], sizes[::-1]):
        acc[:n] = rnd.rewards[end - n:end] + gamma * acc[:n]
        returns[end - n:end] = acc[:n]
    return returns


def a3c_loss(rnd, weights, config, returns, entropy_coef, value_coef):
    """Sum over a round's segments of their policy, value, and entropy terms, and their log row.

    ``returns`` are ``rnd``'s [R] returns.  All segments are recomputed
    with a graph through one ``forward`` over the round's rows in their
    step blocks, from the states the actors recorded.  The advantages are
    R - V from that pass's values.  Advantages and returns enter as
    constants: the policy term pushes log-probabilities only, the value
    term pushes the critic only.
    """
    if np.shape(returns) != rnd.actions.shape:
        raise ValueError(f"returns must be [R] = {rnd.actions.shape}, got {np.shape(returns)}")
    trace = forward(rnd.obs, RecurrentState(rnd.h, rnd.c), weights, config,
                    batch_sizes=step_blocks(rnd.lengths)[1])
    (policy_term, value_term, neg_entropy), row = loss_components(trace, rnd.actions, returns)
    loss = ad.add(policy_term, ad.add(ad.mul(value_term, float(value_coef)),
                                      ad.mul(neg_entropy, float(entropy_coef))))
    return loss, row


def loss_components(trace, actions, returns):
    """The three loss sums of a round from the learner's trace, and their log row.

    ``trace`` is the learner's ``forward``, one row per step; ``actions``
    and ``returns`` run over the same steps, and the advantages are R - V
    from the trace's values.  Returns the policy term -sum A*log pi(a),
    the value term sum (R - V)^2 and sum pi*log pi (the negated entropy)
    as graph tensors, and a dict of their per-step means (policy_loss,
    value_loss, entropy) with, per branch, the mean of its mask and its
    spatial std averaged over the steps (None for a branch without a
    mask).
    """
    n = len(actions)
    logits = trace.policy_logits                                  # [steps, K]
    dtype = logits.dtype
    returns = np.asarray(returns)
    advantages = returns - trace.value.data[:, 0]
    logp = ad.log_softmax(logits)
    weighted = np.zeros(logits.shape, dtype=dtype)   # -A_t at the action taken
    weighted[np.arange(n), actions] = -advantages
    policy_term = ad.sum_all(ad.mul(logp, weighted))
    # V - R on [n,1]: its square is the bits of (R - V)^2, as rounding is sign-symmetric
    verr = ad.add(trace.value, -returns[:, None].astype(dtype))
    value_term = ad.sum_all(ad.mul(verr, verr))
    neg_entropy = ad.sum_all(ad.mul(trace.policy, logp))
    row = {"policy_loss": float(policy_term.data) / n, "value_loss": float(value_term.data) / n,
           "entropy": -float(neg_entropy.data) / n}
    for branch, m in (("policy", trace.m_p), ("value", trace.m_v)):
        mean = std = None
        if m is not None:
            frames = m.data.reshape(n, -1)
            mean, std = float(frames.mean()), float(frames.std(axis=1).mean())
        row[f"{branch}_mask_mean"], row[f"{branch}_mask_std"] = mean, std
    return (policy_term, value_term, neg_entropy), row


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
    """Append-only CSV of one row per update, on disk as soon as it is logged."""

    COLUMNS = ("step", "episode_return", "policy_loss", "value_loss", "entropy", "grad_norm",
               "policy_mask_mean", "policy_mask_std", "value_mask_mean", "value_mask_std")

    def __init__(self, path):
        self._fh = open(path, "w", newline="", buffering=1)
        self._writer = csv.DictWriter(self._fh, self.COLUMNS, lineterminator="\n")
        self._writer.writeheader()

    def log(self, step, episode_return, row, grad_norm):
        """One update: ``row`` is ``loss_components``' dict; a None grad_norm (skipped) logs nan."""
        self._writer.writerow({**row, "step": step, "episode_return": episode_return,
                               "grad_norm": math.nan if grad_norm is None else float(grad_norm)})

    def close(self):
        self._fh.close()


def _worker_env_seed(seed, worker_id):
    return int(np.random.SeedSequence([seed, worker_id, 17]).generate_state(1)[0])


# phases of a round, in the order the ``train`` log line reports their shares
PHASES = ("rollout", "learner_forward", "backward", "apply")


def _ckpt_path(out_dir, step):
    return os.path.join(out_dir, f"ckpt_{step}.ma3c")


def _worker_loop(envs, rngs, shared, config, hyper, metrics, out_dir, checkpoint_interval):
    """Play lockstep rounds of all workers, one summed update each, until the budget is met.

    The budget is checked before every round, and a round takes at most
    ``t_max`` steps per worker, so the run ends below
    ``total_steps + n_workers * t_max``.  After ckpt_0, which ``train``
    writes, the weights are saved into ``out_dir`` under the step count
    they hold whenever it passes a multiple of ``checkpoint_interval``,
    and after the last round.  Returns the seconds spent in each of
    ``PHASES``: the rollout, the learner's ``forward`` over the round with
    its loss, backward, and the update.
    """
    seconds = dict.fromkeys(PHASES, 0.0)
    state = RecurrentState.zeros(config, batch=len(envs))
    saved = 0
    while shared.steps < hyper.total_steps:
        t0 = time.perf_counter()
        weights = sync_local(shared)
        rnd, state = collect_rollout(envs, weights, config, state, hyper.t_max, rngs)
        t1 = time.perf_counter()
        returns = compute_returns(rnd, hyper.gamma)
        loss, row = a3c_loss(rnd, weights, config, returns, hyper.entropy_coef, hyper.value_coef)
        t2 = time.perf_counter()
        ad.backward(loss)
        del loss                      # frees the round's graph before the update
        t3 = time.perf_counter()
        grads = {k: t.grad for k, t in weights.items() if t.grad is not None}
        norm = apply_gradients(shared, grads, hyper, int(rnd.lengths.sum()))
        t4 = time.perf_counter()
        for phase, dt in zip(PHASES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            seconds[phase] += dt
        ended = [env.score for env, done in zip(envs, rnd.terminal) if done]
        metrics.log(shared.steps, float(np.mean(ended)) if ended else None, row, norm)
        if (shared.steps >= hyper.total_steps or checkpoint_interval
                and shared.steps // checkpoint_interval > saved // checkpoint_interval):
            saved = shared.steps
            checkpoint.save_checkpoint(shared.values, config, _ckpt_path(out_dir, saved))
    return seconds


def train(config, hyper, env_spec, seed, out_dir, checkpoint_interval=50_000, log=None):
    """Run the lockstep training loop in float32 until the global step budget is met.

    Raises ``VariantError`` before anything is written if ``config`` does
    not fit the env.  Writes the initial ckpt_0.ma3c, a metrics.csv and,
    from ``_worker_loop``, the later ckpt_<step>.ma3c files into
    ``out_dir``; returns the path of the final checkpoint.  ``log`` gets
    one closing line: steps, steps/s, updates and skipped updates, then
    each of ``PHASES`` as a share of the wall time.
    """
    check_env_fit(config, env_spec)
    os.makedirs(out_dir, exist_ok=True)
    shared = SharedParams(init_weights(config, seed))
    checkpoint.save_checkpoint(shared.values, config, _ckpt_path(out_dir, 0))
    metrics = MetricsWriter(os.path.join(out_dir, "metrics.csv"))
    t0 = time.perf_counter()
    try:
        envs = [make_env(dataclasses.replace(env_spec, seed=_worker_env_seed(seed, i)))
                for i in range(hyper.n_workers)]
        rngs = [np.random.default_rng([seed, i, 1]) for i in range(hyper.n_workers)]
        seconds = _worker_loop(envs, rngs, shared, config, hyper, metrics, out_dir,
                               checkpoint_interval)
    finally:
        metrics.close()

    final_step = shared.steps
    elapsed = max(time.perf_counter() - t0, 1e-9)
    if log:
        # shares of the wall time, rounded down so that they never sum past 1
        shares = ", ".join(f"{phase} {math.floor(1000 * seconds[phase] / elapsed) / 1000:.3f}"
                           for phase in PHASES)
        log(f"trained {final_step} steps in {elapsed:.1f}s "
            f"({final_step / elapsed:.0f} steps/s, {shared.updates} updates, "
            f"{shared.skipped} skipped); time shares: {shares}")
    return _ckpt_path(out_dir, final_step)


# evaluation seed of every run ``compare_variants`` scores
EVAL_SEED = 1000
VARIANTS = (
    ("vanilla", False, False),
    ("policy", True, False),
    ("value", False, True),
    ("both", True, True),
)


def _final_checkpoint(run_dir, min_steps, config):
    """The highest-step checkpoint in ``run_dir`` that reaches ``min_steps`` and stores ``config``.

    A checkpoint that does not load counts as absent; None if none is left.
    """
    if not os.path.isdir(run_dir):
        return None
    found = []
    for name in os.listdir(run_dir):
        if name.startswith("ckpt_") and name.endswith(".ma3c"):
            try:
                step = int(name[5:-5])
            except ValueError:
                continue
            if step >= min_steps:
                found.append((step, os.path.join(run_dir, name)))
    for _, path in sorted(found, reverse=True):
        try:
            if checkpoint.load_checkpoint(path)[1] == config:
                return path
        except checkpoint.CheckpointError:
            continue
    return None


def compare_variants(env_spec, config, seeds, hyper, episodes, out_dir,
                     checkpoint_interval=50_000, log=None):
    """Train all four variants of ``config`` per seed, evaluate each, and tabulate max/mean.

    Returns the table rows (one per variant x seed, plus a best-of-seeds
    row per variant selected by mean) and writes variants.csv in out_dir.
    A run under out_dir with a checkpoint of the same network that reaches
    the step budget is reused, not trained again; the other hyperparameters
    are not stored in checkpoints and are not compared.  A network that
    does not fit the env raises ``VariantError`` before anything is written.
    """
    check_env_fit(config, env_spec)
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for variant, pol, val in VARIANTS:
        variant_config = dataclasses.replace(config, policy_mask_enabled=pol,
                                             value_mask_enabled=val)
        per_seed = []
        for seed in seeds:
            run_dir = os.path.join(out_dir, variant, f"seed_{seed}")
            ckpt = _final_checkpoint(run_dir, hyper.total_steps, variant_config)
            if ckpt is None:
                if log:
                    log(f"training {variant} seed={seed} for {hyper.total_steps} steps")
                ckpt = train(variant_config, hyper, env_spec, seed, run_dir,
                             checkpoint_interval=checkpoint_interval, log=log)
            weights, ckpt_config = checkpoint.load_checkpoint(ckpt)
            stats = evaluate(weights, ckpt_config, env_spec, episodes,
                             seed=EVAL_SEED, greedy=True)
            row = {"variant": variant, "policy_mask": pol, "value_mask": val,
                   "seed": seed, "max": stats.max, "mean": stats.mean, "ckpt": ckpt}
            per_seed.append(row)
            rows.append(row)
            if log:
                log(f"{variant} seed={seed}: max={stats.max} mean={stats.mean}")
        best = max(per_seed, key=lambda r: r["mean"])
        rows.append({**best, "seed": "best"})

    write_csv(os.path.join(out_dir, "variants.csv"),
              ("variant", "policy_mask", "value_mask", "seed", "max", "mean"),
              [(r["variant"], int(r["policy_mask"]), int(r["value_mask"]), r["seed"], r["max"],
                r["mean"]) for r in rows])
    return rows
