"""Evaluation and mask-analysis procedures.

Four instruments over a trained (or random) agent: greedy/sampled score
evaluation under a mask transform, random-action baselines, heat-map
recording of the mask maps, and the observation-injection probe that
watches how masks and the action distribution react to planted pixels.
They and the training rollout play their envs through one driver, ``lockstep``.
"""

from __future__ import annotations

import csv
import dataclasses
import os
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .envs import make_env
from .netpbm import write_pgm, write_ppm
from .network import RecurrentState, check_weights, forward

OVERLAY_ALPHA = 0.5
# Most episodes ``evaluate`` steps in lockstep.  32 rows halve the
# per-observation cost of a one-row forward, larger groups measured at most
# 15% cheaper, and the cap bounds the batch's im2col memory.
EVAL_GROUP = 32


@dataclass
class EpisodeStats:
    returns: list
    max: float
    mean: float
    n_episodes: int

    @classmethod
    def from_returns(cls, returns):
        returns = [float(r) for r in returns]
        if not returns:
            raise ValueError("episode statistics need at least one episode")
        return cls(returns=returns, max=max(returns),
                   mean=sum(returns) / len(returns), n_episodes=len(returns))


@dataclass
class HeatmapFrame:
    timestep: int
    branch: str
    mask: np.ndarray        # native mask grid
    action: int
    value: float


@dataclass
class InjectionReport:
    """Per-frame mask/action record around an observation injection."""

    rows: list              # dicts: t, injected, region means, probs, value
    action_names: tuple


class VariantError(ValueError):
    """The network does not fit the environment or the requested use of its masks."""


def write_csv(path, header, rows):
    """Write ``header`` and ``rows`` in the one table format.

    Line ends are ``\\n``, a float is its shortest round-trip repr and None
    an empty cell.  Callers pass a bool as ``int`` and a numpy scalar as
    ``float``: the csv module writes ``True``, and a float32 by its own
    shorter repr.
    """
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def check_env_fit(config, env_spec):
    """Raise VariantError unless the network takes the env's frames and has its actions."""
    if config.n_actions != env_spec.n_actions:
        raise VariantError(f"network has {config.n_actions} actions but env "
                           f"{env_spec.name!r} has {env_spec.n_actions}")
    if config.input_hw != env_spec.size:
        raise VariantError(f"network expects {config.input_hw}x{config.input_hw} "
                           f"observations, env size is {env_spec.size}")


def _checked_tensors(weights, config, env_spec, mask_transform="identity", need_mask=False):
    """The weights as tensors, once ``config`` is known to fit them, the env and the mask use.

    ``need_mask`` asks for at least one mask branch, as heat maps and
    injection probes read the masks; ``mask_transform`` "inverse" needs
    the policy mask and "ones" some mask to ablate.
    """
    try:
        check_weights(weights, config)
    except ValueError as exc:
        raise VariantError(str(exc)) from None
    check_env_fit(config, env_spec)
    if mask_transform == "inverse" and not config.policy_mask_enabled:
        raise VariantError("mask_transform='inverse' needs the policy mask branch")
    if ((need_mask or mask_transform == "ones")
            and not (config.policy_mask_enabled or config.value_mask_enabled)):
        raise VariantError("this network has no mask branches")
    return {k: Tensor(v.data if isinstance(v, Tensor) else v) for k, v in weights.items()}


def _episode_seed(seed, episode):
    return int(np.random.SeedSequence([seed, episode]).generate_state(1)[0])


def _seeded_episodes(env_spec, episodes, seed):
    """An env and an action rng per episode index, each seeded as if that episode ran alone."""
    envs, rngs = [], []
    for ep in episodes:
        envs.append(make_env(dataclasses.replace(env_spec, seed=_episode_seed(seed, ep))))
        rngs.append(np.random.default_rng([seed, ep, 1]))
    return envs, rngs


def sample_action(probs, rng):
    """Categorical draw via the cumulative distribution."""
    u = rng.random()
    idx = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    return min(idx, len(probs) - 1)


def lockstep(weights, config, envs, rngs, mask_transform="identity", greedy=True,
             with_value=True, state=None):
    """Play ``envs`` side by side to their ends, one batched ``forward`` per env step.

    ``state`` [N,h,w,L] picks up envs where a caller left them, zeros by
    default.  An env that starts done is reset, and its row of ``state``
    must already be zero: a carried state is built from zeros.  Each frame
    is rendered once, the first by ``observe`` (or ``reset``), every later
    one by the step that made it.  Yields ``(t, rows, obs, trace, actions,
    results)`` after each step: ``rows`` are the indices into ``envs``
    that stepped, and ``obs`` [B,H,W], ``trace`` (whose ``state`` is the
    one the step read), ``actions`` and the envs' step ``results`` hold
    one row for each of them.  Finished envs drop out of the batch.
    ``with_value=False`` skips the value branch, which no action reads.
    """
    rows = list(range(len(envs)))
    obs = [env.reset() if env.done else env.observe() for env in envs]
    if state is None:
        state = RecurrentState.zeros(config, weights["fe1.w"].dtype, batch=len(envs))
    t = 0
    while rows:
        obs = np.array(obs)
        trace = forward(obs, state, weights, config, mask_transform=mask_transform,
                        with_value=with_value)
        actions = [int(np.argmax(probs)) if greedy else sample_action(probs, rngs[i])
                   for i, probs in zip(rows, trace.policy.data)]
        results = [envs[i].step(action) for i, action in zip(rows, actions)]
        yield t, rows, obs, trace, actions, results
        keep = [k for k, result in enumerate(results) if not result.done]
        obs = [results[k].obs for k in keep]
        state = trace.next_state
        if len(keep) < len(rows):
            state = RecurrentState(state.h[keep], state.c[keep])
            rows = [rows[k] for k in keep]
        t += 1


def evaluate(weights, config, env_spec, episodes, mask_transform="identity",
             seed=0, greedy=True):
    """Score over full episodes; the mask transform rides along every forward.

    Episodes run in lockstep groups of up to ``EVAL_GROUP``: each has its
    own environment and action rng, seeded by its index exactly as if it
    ran alone, and each env step of the group is one batched ``forward``
    over the episodes still running.  The value branch is skipped: no
    score depends on it.
    """
    weights = _checked_tensors(weights, config, env_spec, mask_transform)
    returns = []
    for first in range(0, episodes, EVAL_GROUP):
        envs, rngs = _seeded_episodes(env_spec, range(first, min(first + EVAL_GROUP, episodes)),
                                      seed)
        for _ in lockstep(weights, config, envs, rngs, mask_transform, greedy,
                          with_value=False):
            pass
        returns.extend(env.score for env in envs)
    return EpisodeStats.from_returns(returns)


def random_baseline(env_spec, episodes, seed):
    """Uniform-random action scores under the same episode protocol, one episode at a time."""
    returns = []
    for ep in range(episodes):
        (env,), (rng,) = _seeded_episodes(env_spec, [ep], seed)
        while not env.done:
            env.step(int(rng.integers(env.n_actions)))
        returns.append(env.score)
    return EpisodeStats.from_returns(returns)


def policy_entropy(probs):
    """-sum p log p over the nonzero action probabilities."""
    p = probs[probs > 0]
    return float(-(p * np.log(p)).sum())


def decrease_rate(normal_mean, inverse_mean):
    """Percent score drop caused by gaze inversion, relative to the normal score."""
    if normal_mean <= 0:
        raise ValueError(
            f"decrease_rate needs a positive normal mean; got normal={normal_mean}, "
            f"inverse={inverse_mean}; report the raw means instead")
    return 100.0 * (normal_mean - inverse_mean) / normal_mean


def pixel_cells(size, grid_size):
    """The mask cell over each of ``size`` pixels, blocks as even as possible (20/3: 7+7+6)."""
    return np.arange(size) * grid_size // size


def upsample_nearest(grid, size):
    """Nearest-neighbor blow-up of a square mask grid to ``size`` pixels a side."""
    idx = pixel_cells(size, grid.shape[0])
    return grid[np.ix_(idx, idx)]


def overlay_rgb(mask_up, obs):
    """Red-channel mask overlay: R = a*M + (1-a)*obs, G = B = (1-a)*obs, a = OVERLAY_ALPHA."""
    base = (1.0 - OVERLAY_ALPHA) * obs
    return np.stack([OVERLAY_ALPHA * mask_up + base, base, base], axis=-1)


def record_heatmaps(weights, config, env_spec, episodes, seed, out_dir, greedy=True):
    """Write per-step mask PGMs, observation PGMs, overlay PPMs, and index CSVs.

    Files: <branch>_<episode>_<t>.pgm, obs_<episode>_<t>.pgm,
    overlay_<branch>_<episode>_<t>.ppm, index_<episode>.csv.
    """
    weights = _checked_tensors(weights, config, env_spec, need_mask=True)
    branches = [b for b, on in (("policy", config.policy_mask_enabled),
                                ("value", config.value_mask_enabled)) if on]
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for ep in range(episodes):
        envs, rngs = _seeded_episodes(env_spec, [ep], seed)
        index_rows = []
        for t, _, obs, trace, (action,), _ in lockstep(weights, config, envs, rngs, greedy=greedy):
            obs, probs = obs[0], trace.policy.data[0]
            value = float(trace.value.data[0, 0])
            for branch in branches:
                mask = (trace.m_p if branch == "policy" else trace.m_v).data[0, ..., 0]
                write_pgm(os.path.join(out_dir, f"{branch}_{ep}_{t}.pgm"), mask)
                write_ppm(os.path.join(out_dir, f"overlay_{branch}_{ep}_{t}.ppm"),
                          overlay_rgb(upsample_nearest(mask, env_spec.size), obs))
                written.append(HeatmapFrame(timestep=t, branch=branch, mask=mask,
                                            action=action, value=value))
            write_pgm(os.path.join(out_dir, f"obs_{ep}_{t}.pgm"), obs)
            index_rows.append((t, action, value, policy_entropy(probs)))
        write_csv(os.path.join(out_dir, f"index_{ep}.csv"),
                  ("t", "action", "value", "policy_entropy"), index_rows)
    return written


def region_mean(grid, stencil, position, size):
    """Mean of ``grid``, blown up to ``size`` pixels, over the stencil's pixels at ``position``.

    Each mask cell weighs as many times as the stencil sets pixels over it,
    so a sprite smaller than a cell still reads the cell under it.
    """
    rows, cols = np.nonzero(stencil)
    return float(upsample_nearest(grid, size)[rows + position[0], cols + position[1]].mean())


def injection_response(weights, config, env_spec, spec, window, seed):
    """Run one greedy rollout with an injected sprite and log masks and policy around it.

    ``window`` is an inclusive (first, last) frame range and must contain
    the injection start frame.  Raises ValueError, naming both frames, if
    the episode ends before that frame: no row would show the sprite.
    """
    weights = _checked_tensors(weights, config, env_spec, need_mask=True)
    first, last = window
    if not (first <= spec.start_frame <= last) or first < 0:
        raise ValueError(f"window {window} does not cover injection frame {spec.start_frame}")

    envs, rngs = _seeded_episodes(env_spec, [0], seed)
    envs[0].inject(spec)
    rows = []
    for t, _, _, trace, _, _ in lockstep(weights, config, envs, rngs):
        if t >= first:
            row = {"t": t, "injected": spec.active(t),
                   "value": float(trace.value.data[0, 0]),
                   "probs": tuple(float(p) for p in trace.policy.data[0])}
            for branch, m in (("policy", trace.m_p), ("value", trace.m_v)):
                if m is not None:
                    row[f"region_mean_{branch}"] = region_mean(m.data[0, ..., 0], spec.stencil,
                                                               spec.position, env_spec.size)
            rows.append(row)
        if t == last:
            break
    if t < spec.start_frame:
        raise ValueError(f"the episode ended at frame {t}, before injection frame "
                         f"{spec.start_frame}")
    return InjectionReport(rows=rows, action_names=tuple(envs[0].action_names))
