"""Evaluation and mask-analysis procedures.

Four instruments over a trained (or random) agent: greedy/sampled score
evaluation under a mask transform, random-action baselines, heat-map
recording of the mask maps, and the observation-injection probe that
watches how masks and the action distribution react to planted pixels.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .checkpoint import CheckpointError, load_checkpoint
from .envs import make_env
from .netpbm import write_pgm, write_ppm
from .network import RecurrentState, forward, weight_names
from .training import policy_entropy, sample_action, train

OVERLAY_ALPHA = 0.5
# Most episodes ``evaluate`` steps in lockstep.  32 rows halve the
# per-observation cost of a one-row forward, larger groups measured at most
# 15% cheaper, and the cap bounds the batch's im2col memory.
EVAL_GROUP = 32
# evaluation seed of every run ``compare_variants`` scores
EVAL_SEED = 1000
VARIANTS = (
    ("vanilla", False, False),
    ("policy", True, False),
    ("value", False, True),
    ("both", True, True),
)


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
    upsampled: np.ndarray   # nearest-neighbor blow-up to observation size
    observation: np.ndarray
    action: int
    value: float


@dataclass
class InjectionReport:
    """Per-frame mask/action record around an observation injection."""

    rows: list              # dicts: t, injected, region means, probs, value
    region: np.ndarray      # bool mask cells covered by the sprite stencil
    start_frame: int
    action_names: tuple


class VariantError(ValueError):
    """The network does not fit the environment or the requested use of its masks."""


def _checked_tensors(weights, config, env_spec, mask_transform="identity", need_mask=False):
    """The weights as tensors, once ``config`` is known to fit them, the env and the mask use.

    ``need_mask`` asks for at least one mask branch, as heat maps and
    injection probes read the masks; ``mask_transform`` "inverse" needs
    the policy mask and "ones" some mask to ablate.
    """
    expected = set(weight_names(config))
    if set(weights) != expected:
        raise VariantError(
            f"weights do not match the config variant: missing "
            f"{sorted(expected - set(weights))}, extra {sorted(set(weights) - expected)}")
    if config.n_actions != env_spec.n_actions:
        raise VariantError(f"network has {config.n_actions} actions but env "
                           f"{env_spec.name!r} has {env_spec.n_actions}")
    if config.input_hw != env_spec.size:
        raise VariantError(f"network expects {config.input_hw}x{config.input_hw} "
                           f"observations, env size is {env_spec.size}")
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


def _lockstep(weights, config, envs, rngs, mask_transform="identity", greedy=True):
    """Play ``envs`` side by side to their ends, one batched ``forward`` per env step.

    Yields ``(t, rows, obs, trace, actions)`` before each step: ``rows``
    are the indices into ``envs`` still running, and ``obs``, ``trace``
    and ``actions`` hold one row for each of them.  Finished envs drop
    out of the batch; a batch of one computes what the unbatched
    ``forward`` does, bit for bit.
    """
    rows = list(range(len(envs)))
    obs = [env.observe() for env in envs]
    state = RecurrentState.zeros(config, weights["fe1.w"].dtype, batch=len(envs))
    t = 0
    while rows:
        obs = np.stack(obs)
        trace = forward(obs[:, None], state, weights, config, mask_transform=mask_transform)
        actions = [int(np.argmax(probs)) if greedy else sample_action(probs, rngs[i])
                   for i, probs in zip(rows, trace.policy.data)]
        yield t, rows, obs, trace, actions
        obs, keep = [], []
        for k, (i, action) in enumerate(zip(rows, actions)):
            result = envs[i].step(action)
            if not result.done:
                obs.append(result.obs)
                keep.append(k)
        state = trace.next_state
        if len(keep) < len(rows):
            state = RecurrentState(Tensor(state.h.data[keep]), Tensor(state.c.data[keep]))
            rows = [rows[k] for k in keep]
        t += 1


def evaluate(weights, config, env_spec, episodes, mask_transform="identity",
             seed=0, greedy=True):
    """Score over full episodes; the mask transform rides along every forward.

    Episodes run in lockstep groups of up to ``EVAL_GROUP``: each has its
    own environment and action rng, seeded by its index exactly as if it
    ran alone, and each env step of the group is one batched ``forward``
    over the episodes still running.
    """
    weights = _checked_tensors(weights, config, env_spec, mask_transform)
    returns = []
    for first in range(0, episodes, EVAL_GROUP):
        envs, rngs = _seeded_episodes(env_spec, range(first, min(first + EVAL_GROUP, episodes)),
                                      seed)
        for _ in _lockstep(weights, config, envs, rngs, mask_transform, greedy):
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


def decrease_rate(normal_mean, inverse_mean):
    """Percent score drop caused by gaze inversion, relative to the normal score."""
    if normal_mean <= 0:
        raise ValueError(
            f"decrease_rate needs a positive normal mean; got normal={normal_mean}, "
            f"inverse={inverse_mean}; report the raw means instead")
    return 100.0 * (normal_mean - inverse_mean) / normal_mean


def upsample_nearest(grid, size):
    """Nearest-neighbor blow-up with block sizes as even as possible (20 over 3 -> 7+7+6)."""
    g = grid.shape[0]
    idx = np.arange(size) * g // size
    return grid[np.ix_(idx, idx)]


def overlay_rgb(mask_up, obs, alpha=OVERLAY_ALPHA):
    """Red-channel mask overlay: R = a*M + (1-a)*obs, G = B = (1-a)*obs."""
    base = (1.0 - alpha) * obs
    rgb = np.stack([alpha * mask_up + base, base, base], axis=-1)
    return rgb


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
        for t, _, obs, trace, (action,) in _lockstep(weights, config, envs, rngs, greedy=greedy):
            obs, probs = obs[0], trace.policy.data[0]
            value = float(trace.value.data[0, 0])
            for branch in branches:
                mask = (trace.m_p if branch == "policy" else trace.m_v).data[0, 0]
                frame = HeatmapFrame(
                    timestep=t, branch=branch, mask=mask,
                    upsampled=upsample_nearest(mask, env_spec.size),
                    observation=obs, action=action, value=value)
                write_pgm(os.path.join(out_dir, f"{branch}_{ep}_{t}.pgm"), frame.mask)
                write_ppm(os.path.join(out_dir, f"overlay_{branch}_{ep}_{t}.ppm"),
                          overlay_rgb(frame.upsampled, frame.observation))
                written.append(frame)
            write_pgm(os.path.join(out_dir, f"obs_{ep}_{t}.pgm"), obs)
            index_rows.append(f"{t},{action},{value!r},{policy_entropy(probs)!r}")
        with open(os.path.join(out_dir, f"index_{ep}.csv"), "w") as fh:
            fh.write("t,action,value,policy_entropy\n")
            fh.write("\n".join(index_rows) + "\n")
    return written


def stencil_region_cells(stencil, position, obs_size, grid_size):
    """Mask cells whose pixel block is at least half covered by the stencil."""
    full = np.zeros((obs_size, obs_size), dtype=bool)
    r, c = position
    h, w = stencil.shape
    full[r:r + h, c:c + w] = stencil
    idx = np.arange(obs_size) * grid_size // obs_size
    region = np.zeros((grid_size, grid_size), dtype=bool)
    for a in range(grid_size):
        for b in range(grid_size):
            block = full[np.ix_(idx == a, idx == b)]
            region[a, b] = block.sum() * 2 >= block.size
    return region


def injection_response(weights, config, env_spec, spec, window, seed):
    """Run one greedy rollout with an injected sprite and log masks and policy around it.

    ``window`` is an inclusive (first, last) frame range and must contain
    the injection start frame.
    """
    weights = _checked_tensors(weights, config, env_spec, need_mask=True)
    first, last = window
    if not (first <= spec.start_frame <= last) or first < 0:
        raise ValueError(f"window {window} does not cover injection frame {spec.start_frame}")

    envs, rngs = _seeded_episodes(env_spec, [0], seed)
    envs[0].inject(spec)
    region = stencil_region_cells(spec.stencil, spec.position, env_spec.size,
                                  config.feature_hw())
    rows = []
    for t, _, _, trace, _ in _lockstep(weights, config, envs, rngs):
        if t >= first:
            row = {"t": t, "injected": spec.active(t),
                   "value": float(trace.value.data[0, 0]),
                   "probs": tuple(float(p) for p in trace.policy.data[0])}
            for branch, m in (("policy", trace.m_p), ("value", trace.m_v)):
                if m is not None:
                    grid = m.data[0, 0]
                    row[f"region_mean_{branch}"] = (float(grid[region].mean())
                                                    if region.any() else float("nan"))
            rows.append(row)
        if t == last:
            break
    return InjectionReport(rows=rows, region=region, start_frame=spec.start_frame,
                           action_names=tuple(envs[0].action_names))


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
            if load_checkpoint(path)[1] == config:
                return path
        except (CheckpointError, OSError):
            continue
    return None


def compare_variants(env_spec, config, seeds, hyper, episodes, out_dir,
                     checkpoint_interval=50_000, log=None):
    """Train all four variants of ``config`` per seed, evaluate each, and tabulate max/mean.

    Returns the table rows (one per variant x seed, plus a best-of-seeds
    row per variant selected by mean) and writes variants.csv in out_dir.
    A run under out_dir with a checkpoint of the same network that reaches
    the step budget is reused, not trained again; the other hyperparameters
    are not stored in checkpoints and are not compared.
    """
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
            weights, ckpt_config = load_checkpoint(ckpt)
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

    with open(os.path.join(out_dir, "variants.csv"), "w") as fh:
        fh.write("variant,policy_mask,value_mask,seed,max,mean\n")
        for r in rows:
            fh.write(f"{r['variant']},{int(r['policy_mask'])},{int(r['value_mask'])},"
                     f"{r['seed']},{r['max']!r},{r['mean']!r}\n")
    return rows
