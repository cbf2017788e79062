#!/usr/bin/env python3
"""maskac benchmark: the paper's train-then-analyse loop, measured end to end.

    python3 bench/run.py --workload train-catch-1w --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --seconds 30        # every workload, one after another

Each workload repeats one closed-loop cycle in a single process until
``--seconds`` run out: ``train()`` with the workload's environment and
worker count, a round trip of its final checkpoint, greedy ``evaluate``
under the three mask transforms, ``record_heatmaps``, one
``injection_response`` with a full-width bar over the bottom rows (the
fuel gauge), and a replay of a recorded trajectory through ``forward``,
timed call by call.  Every input derives from ``--seed``.  The workloads
differ in which half of the loop dominates.

With ``--trace 0`` the last stdout line holds the end-to-end metrics
(see ``end_to_end`` for how repeats are combined).  With ``--trace 1`` the layers are wrapped by
``tracer.py`` and the last line holds the per-layer metrics; a child
process repeats the traced run with ``OPENBLAS_NUM_THREADS=1`` for the
BLAS diagnostic.  Details (run environment, checks, tail percentiles,
what each layer metric should move) are printed above the last line and
written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import tracer as tracing
from summary import checkpoint_step, median, tail

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


@dataclass(frozen=True)
class Workload:
    env: str
    workers: int
    train_steps: int       # budget of one train() call; the run may overshoot it
    eval_episodes: int     # per mask transform
    heatmap_episodes: int
    why: str


# A repeat lasts 1-3 s, so a run holds 10-40 of them and every metric samples
# the whole run: on a shared host whose speed drifts, one long window per
# metric would see a different host state for each metric.
WORKLOADS = {
    "train-catch-1w": Workload(
        "catch", 1, 400, 6, 6,
        "train() on catch, both masks, 1 worker: the learner-bound single-worker baseline; "
        "every 19-step episode is one segment, so no tail forward runs"),
    "train-fuel-2w": Workload(
        "fuel", 2, 400, 2, 2,
        "train() on fuel with 2 worker threads: compute gate, SharedParams locks, worker idle "
        "time and full 20-step segments with an unused tail forward"),
    "analyze-fuel": Workload(
        "fuel", 1, 100, 2, 2,
        "mask analysis on fuel (evaluate x3 transforms, heat maps, gauge injection, forward "
        "replay) with only a short train: the side learner changes should not move"),
}
TRANSFORMS = ("identity", "inverse", "ones")
REPLAY_CALLS = 500    # per repeat; the ten-beyond rule then gives each repeat's p98
SETUP_PROBES = 10    # at most one per repeat, so they sample the whole run
BAR_ROWS = 3          # height of the injected bar; the fuel gauge is the bottom 3 rows

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("train_steps_per_s", "1/s", "higher", 0.25),
    ("eval_steps_per_s", "1/s", "higher", 0.25),
    ("forward_ms_mean", "ms", "lower", 0.25),
    ("forward_ms_tail", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]
# Printed with the end-to-end metrics but not in the result line, so no
# bound gates them: heat-map throughput includes small-file writes, whose
# run-to-run spread on a shared disk exceeds the largest bound allowed;
# the median latency jumps between the two modes of a two-speed host (see
# end_to_end); failures are the result line's attempted and failed counts.
REPORTED = [
    ("heatmap_frames_per_s", "1/s"),
    ("forward_ms_p50", "ms"),
    ("failed_ratio", "ratio"),
]


class Tally:
    """Attempted and failed operations, and the outcome of each named check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = {}   # name -> [passed, total]

    def work(self, attempted, failed=0):
        self.attempted += attempted
        self.failed += failed

    def check(self, name, ok, note=""):
        entry = self.checks.setdefault(name, [0, 0])
        entry[0] += bool(ok)
        entry[1] += 1
        self.work(1, 0 if ok else 1)
        if not ok:
            print(f"check failed: {name} {note}".rstrip(), file=sys.stderr)


def import_maskac():
    """Import maskac from this checkout's src/, or None if it is not there."""
    if not (SRC / "maskac" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import maskac
    if Path(maskac.__file__).resolve().parent != SRC / "maskac":
        return None
    return maskac


# ---------------------------------------------------------------------------
# inputs

@dataclass
class Inputs:
    workload: Workload
    spec: object
    config: object
    weights: dict          # loaded from the setup checkpoint, float32 arrays
    train_seed: int
    eval_seed: int
    heat_seed: int
    inject_seed: int
    injection: object
    window: tuple
    replay_seed: int


def prepare(workload, seed, work_dir, tally):
    """Everything a user pays before the first timed call: import, weights
    through a checkpoint save/load, environment construction."""
    from maskac import checkpoint, envs, network

    rng = np.random.default_rng(seed)
    train_seed, weights_seed, eval_seed, heat_seed, inject_seed, replay_seed = (
        int(s) for s in rng.integers(0, 2**31 - 1, size=6))
    spec = envs.EnvSpec(name=workload.env)
    config = network.NetworkConfig(input_hw=spec.size, n_actions=spec.n_actions)
    initial = network.init_weights(config, weights_seed)
    path = os.path.join(work_dir, "analysed.ma3c")
    checkpoint.save_checkpoint(initial, config, path)
    weights, loaded_config = checkpoint.load_checkpoint(path)
    tally.check("checkpoint round trip equals the weights at float32",
                loaded_config == config and set(weights) == set(initial) and all(
                    np.array_equal(weights[k], initial[k].data.astype(np.float32))
                    for k in initial))
    envs.make_env(spec)
    size = spec.size
    start = int(rng.integers(4, 9))
    injection = envs.InjectionSpec(
        sprite=np.full((BAR_ROWS, size), envs.FUEL_BAR, dtype=np.float32),
        stencil=np.ones((BAR_ROWS, size), dtype=bool),
        position=(size - BAR_ROWS, 0), start_frame=start)
    return Inputs(workload, spec, config, weights, train_seed, eval_seed, heat_seed,
                  inject_seed, injection, (start - 3, start + 12), replay_seed)


def record_trajectory(inp, n):
    """(observation, starts_episode) pairs from uniformly random play."""
    from maskac import envs

    env = envs.make_env(dataclasses.replace(inp.spec, seed=inp.replay_seed))
    rng = np.random.default_rng(inp.replay_seed)
    out, fresh = [], True
    for _ in range(n):
        out.append((env.observe(), fresh))
        fresh = env.step(int(rng.integers(env.n_actions))).done
        if fresh:
            env.reset()
    return out


def as_tensors(weights):
    from maskac.autodiff import Tensor
    return {k: Tensor(v) for k, v in weights.items()}


# ---------------------------------------------------------------------------
# one-off checks and reference values, before any timing

def reference_pass(inp, tally):
    """Greedy returns and env steps of each evaluate call, and the vanilla check.

    Env steps are counted here, with a counting wrapper, so the timed
    evaluate calls later run unwrapped; they must reproduce these returns.
    """
    from maskac import analysis, network

    counter = tracing.Tracer()
    counter.wrap("envs", "maskac.envs", "_BaseEnv.step", counter.timed("envs.step"))
    reference = {}
    try:
        for transform in TRANSFORMS:
            before = len(counter.spans)
            stats = analysis.evaluate(inp.weights, inp.config, inp.spec,
                                      inp.workload.eval_episodes,
                                      mask_transform=transform, seed=inp.eval_seed)
            reference[transform] = (stats.returns, len(counter.spans) - before)
    finally:
        counter.uninstall()

    vanilla_config = dataclasses.replace(inp.config, policy_mask_enabled=False,
                                         value_mask_enabled=False)
    vanilla = {k: v for k, v in inp.weights.items() if "_mask." not in k}
    stats = analysis.evaluate(vanilla, vanilla_config, inp.spec, inp.workload.eval_episodes,
                              mask_transform="identity", seed=inp.eval_seed)
    same = stats.returns == reference["ones"][0]
    # returns can tie by chance; the outputs along a trajectory cannot
    both_w, van_w = as_tensors(inp.weights), as_tensors(vanilla)
    zeros = network.RecurrentState.zeros
    s_both, s_van = zeros(inp.config), zeros(vanilla_config)
    for obs, fresh in record_trajectory(inp, 50):
        if fresh:
            s_both, s_van = zeros(inp.config), zeros(vanilla_config)
        a = network.forward(obs, s_both, both_w, inp.config, mask_transform="ones")
        b = network.forward(obs, s_van, van_w, vanilla_config)
        same = same and np.array_equal(a.policy.data, b.policy.data) \
            and np.array_equal(a.value.data, b.value.data)
        s_both, s_van = a.next_state, b.next_state
    tally.check("'ones' on both-mask weights equals the vanilla config", same)
    return reference


# ---------------------------------------------------------------------------
# the repeated cycle

_TRAIN_LOG = re.compile(r"(\d+) updates, (\d+) skipped")


def check_training(inp, final, messages, run_dir, tally, state):
    """Checks on one train() call; returns nothing, records into ``tally``."""
    from maskac import checkpoint

    m = _TRAIN_LOG.search(" ".join(messages))
    tally.check("train() reports its updates", m is not None, repr(messages))
    if m:
        updates, skipped = int(m.group(1)), int(m.group(2))
        tally.work(updates + skipped, skipped)
        with open(os.path.join(run_dir, "metrics.csv")) as fh:
            rows = sum(1 for _ in fh) - 1
        tally.check("metrics.csv has one row per update", rows == updates + skipped,
                    f"{rows} rows, {updates}+{skipped} updates")

    weights, config = checkpoint.load_checkpoint(final)
    tally.check("final weights are finite", all(np.isfinite(v).all() for v in weights.values()))
    again = os.path.join(run_dir, "roundtrip.ma3c")
    checkpoint.save_checkpoint(weights, config, again)
    back, back_config = checkpoint.load_checkpoint(again)
    tally.check("checkpoint round trip equals the weights at float32",
                back_config == config and set(back) == set(weights)
                and all(np.array_equal(back[k], weights[k]) for k in weights))

    with open(final, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    state.setdefault("digests", []).append(digest)
    if inp.workload.workers == 1:
        tally.check("1-worker training on one seed writes identical checkpoints",
                    digest == state["digests"][0])


def check_heatmaps(inp, frames, out_dir, tally):
    """Read back the files of the first frame and of the last frame written."""
    from maskac import netpbm

    size, grid = inp.spec.size, inp.config.feature_hw()
    ok = True
    for ep, t in {(0, 0), (inp.workload.heatmap_episodes - 1, frames[-1].timestep)}:
        for branch in ("policy", "value"):
            ok &= netpbm.read_pgm(os.path.join(out_dir, f"{branch}_{ep}_{t}.pgm")).shape == (grid, grid)
            ok &= netpbm.read_ppm(os.path.join(out_dir, f"overlay_{branch}_{ep}_{t}.ppm")).shape == (size, size, 3)
        ok &= netpbm.read_pgm(os.path.join(out_dir, f"obs_{ep}_{t}.pgm")).shape == (size, size)
    tally.check("heat-map files read back with the expected shape", ok)


def replay(inp, tensors, trajectory):
    """Per-call latency in ms of no-grad forward along a recorded trajectory."""
    from maskac import network

    zeros = network.RecurrentState.zeros
    state = zeros(inp.config)
    times = []
    for obs, fresh in trajectory:
        if fresh:
            state = zeros(inp.config)
        t0 = perf_counter()
        out = network.forward(obs, state, tensors, inp.config)
        times.append((perf_counter() - t0) * 1e3)
        state = out.next_state
    return times


def run_repeat(inp, reference, tensors, trajectory, heat_dir, work_dir, tally, state):
    """One workload cycle; returns the work it did and the wall time each part took."""
    from maskac import analysis, training

    wl = inp.workload
    # train directories are removed with work_dir after the run,
    # so no deletion runs between timed calls
    run_dir = tempfile.mkdtemp(dir=work_dir)
    messages = []
    hyper = training.Hyperparams(n_workers=wl.workers, total_steps=wl.train_steps)
    t0 = perf_counter()
    final = training.train(inp.config, hyper, inp.spec, seed=inp.train_seed,
                           out_dir=run_dir, checkpoint_interval=wl.train_steps // 3,
                           log=messages.append)
    train_s = perf_counter() - t0
    check_training(inp, final, messages, run_dir, tally, state)

    returns = {}
    t0 = perf_counter()
    for transform in TRANSFORMS:
        returns[transform] = analysis.evaluate(
            inp.weights, inp.config, inp.spec, wl.eval_episodes,
            mask_transform=transform, seed=inp.eval_seed).returns
    eval_s = perf_counter() - t0
    tally.work(len(TRANSFORMS) * wl.eval_episodes)
    tally.check("evaluate reproduces the reference returns",
                all(returns[t] == reference[t][0] for t in TRANSFORMS))

    t0 = perf_counter()
    frames = analysis.record_heatmaps(inp.weights, inp.config, inp.spec,
                                      wl.heatmap_episodes, inp.heat_seed, heat_dir)
    heat_s = perf_counter() - t0
    tally.work(len(os.listdir(heat_dir)))
    check_heatmaps(inp, frames, heat_dir, tally)

    report = analysis.injection_response(inp.weights, inp.config, inp.spec,
                                         inp.injection, inp.window, inp.inject_seed)
    tally.check("injection response covers its window from the first frame",
                bool(report.rows) and report.rows[0]["t"] == inp.window[0])

    forward_ms = replay(inp, tensors, trajectory)
    tally.work(len(forward_ms))
    return {
        "train_steps": checkpoint_step(final), "train_s": train_s,
        "eval_steps": sum(steps for _, steps in reference.values()), "eval_s": eval_s,
        "heatmap_frames": len(frames), "heatmap_s": heat_s,
        "forward_ms": forward_ms,
    }


def end_to_end(repeats):
    """Run-level figures from the repeats of one run.

    Throughput is total work over total time.  Per-call forward latency is
    bimodal on hosts whose speed switches between two states, and its
    median jumps between the modes as the share of slow time crosses one
    half; the mean moves in proportion to that share, so it is reported
    instead.  The tail is each repeat's ten-beyond percentile of its
    REPLAY_CALLS calls, median over the repeats.
    """
    def rate(work, seconds):
        return sum(r[work] for r in repeats) / sum(r[seconds] for r in repeats)

    forward_ms = [ms for r in repeats for ms in r["forward_ms"]]
    tails = [tail(r["forward_ms"]) for r in repeats]
    return {
        "train_steps_per_s": rate("train_steps", "train_s"),
        "eval_steps_per_s": rate("eval_steps", "eval_s"),
        "forward_ms_mean": sum(forward_ms) / len(forward_ms),
        "forward_ms_tail": median([t[1] for t in tails]),
        "heatmap_frames_per_s": rate("heatmap_frames", "heatmap_s"),
        "forward_ms_p50": median(forward_ms),
    }, {"percentile": tails[0][0], "samples_per_repeat": tails[0][2], "repeats": len(tails)}


# ---------------------------------------------------------------------------
# setup probes and the BLAS child

def _self_command(args, *extra):
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def probe_setup(args, tally):
    """Seconds from starting a fresh process to the end of its prepare(), or None."""
    t0 = time.monotonic()
    proc = subprocess.run(_self_command(args, "--probe-setup"), capture_output=True,
                          text=True, timeout=120)
    lines = proc.stdout.split()
    ok = proc.returncode == 0 and len(lines) == 1
    tally.check("setup probe completes", ok, proc.stderr[-500:])
    return float(lines[0]) - t0 if ok else None


def blas_child(args, seconds):
    """lstm conv fwd/bwd µs from a traced child run with OPENBLAS_NUM_THREADS=1."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    cmd = _self_command(args, "--seconds", repr(seconds), "--trace", "1", "--blas-child")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=seconds + 120)
    if proc.returncode != 0:
        print(proc.stderr[-2000:], file=sys.stderr)
        return None
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: metrics[f"autodiff.conv2d.lstm.{k}_us"]["value"] for k in ("fwd", "bwd")}


# ---------------------------------------------------------------------------

def run_environment():
    import numpy
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "MASKAC_THREADS": os.environ.get("MASKAC_THREADS"),
    }


def run_workload(args):
    wl = WORKLOADS[args.workload]
    traced = args.trace == 1
    tally = Tally()
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=OUT / "tmp")
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "why": wl.why, "environment": run_environment()}
    repeats, n_traced = [], 0
    try:
        setup_times = []
        inp = prepare(wl, args.seed, work_dir, tally)
        reference = reference_pass(inp, tally)
        tensors = as_tensors(inp.weights)
        trajectory = record_trajectory(inp, REPLAY_CALLS)
        # timed heat-map calls overwrite the files this first call creates
        heat_dir = os.path.join(work_dir, "heat")
        from maskac import analysis
        analysis.record_heatmaps(inp.weights, inp.config, inp.spec, wl.heatmap_episodes,
                                 inp.heat_seed, heat_dir)

        seconds = args.seconds / 2 if traced and not args.blas_child else args.seconds
        tr = tracing.Tracer() if traced else None
        state = {}
        start = perf_counter()
        while True:
            # traced runs alternate traced and untraced repeats to measure the overhead
            trace_this = traced and len(repeats) % 2 == 0
            if trace_this:
                tracing.install(tr)
            try:
                figures = run_repeat(inp, reference, tensors, trajectory, heat_dir,
                                     work_dir, tally, state)
            except Exception:  # a failing cycle is counted and ends the run
                traceback.print_exc()
                tally.work(1, 1)
                break
            finally:
                if trace_this:
                    tr.uninstall()
            figures["traced"] = trace_this
            n_traced += trace_this
            repeats.append(figures)
            if not traced and len(setup_times) < SETUP_PROBES:
                setup_times.append(probe_setup(args, tally))
            elapsed = perf_counter() - start
            if len(repeats) >= 2 and elapsed * (len(repeats) + 1) / len(repeats) > seconds:
                break
        details["repeats"] = [{k: v for k, v in r.items() if k != "forward_ms"} for r in repeats]
        if wl.workers > 1:
            details["train_digests_matched"] = len(set(state.get("digests", []))) == 1

        if traced:
            metrics, layer_details = tracing.layer_metrics(tr.spans, n_traced, tr.missing)
            details.update(layer_details)
            by_flag = {flag: [r for r in repeats if r["traced"] == flag] for flag in (True, False)}
            if by_flag[True] and by_flag[False]:
                t_rate, u_rate = (end_to_end(by_flag[f])[0]["train_steps_per_s"]
                                  for f in (True, False))
                metrics["tracing.train_steps_per_s_traced"] = t_rate
                metrics["tracing.train_steps_per_s_untraced"] = u_rate
                metrics["tracing.overhead_share"] = 1.0 - t_rate / u_rate
            if not args.blas_child:
                blas1 = blas_child(args, args.seconds / 2)
                tally.check("OPENBLAS_NUM_THREADS=1 child run completes", blas1 is not None)
                if blas1:
                    for k, v in blas1.items():
                        metrics[f"autodiff.conv2d.lstm.{k}_us.blas1"] = v
            suffix = "-blas1" if args.blas_child else ""
            tr.write_csv(str(OUT / f"spans-{args.workload}-seed{args.seed}{suffix}.csv"))
            table = [(name, unit) for name, unit, *_ in tracing.PER_LAYER]
            details["moves"] = {name: moves for name, _, _, moves in tracing.PER_LAYER}
        else:
            metrics, details["forward_ms_tail"] = end_to_end(repeats) if repeats else ({}, None)
            setup_times = [t for t in setup_times if t is not None]
            metrics["setup_s"] = median(setup_times) if setup_times else 0.0
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            table = [(name, unit) for name, unit, *_ in END_TO_END]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    details["checks"] = tally.checks
    metrics["failed_ratio"] = tally.failed / max(tally.attempted, 1)
    if not traced:
        details["reported"] = {name: {"value": metrics.get(name, 0.0), "unit": unit}
                               for name, unit in REPORTED}
    result = {
        "correct": bool(repeats) and tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in table},
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**result, "details": details}, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repeats {len(repeats)} ({n_traced} traced)")
    print("environment " + json.dumps(details["environment"]))
    for name, entry in result["metrics"].items():
        print(f"  {name:40s} {entry['value']:14.6g} {entry['unit']}")
    for name, (passed, total) in tally.checks.items():
        print(f"  check {passed}/{total}  {name}")
    for name, entry in details.get("reported", {}).items():
        print(f"  {name:40s} {entry['value']:14.6g} {entry['unit']}  (reported, no bound)")
    print(f"  failed {tally.failed} of {tally.attempted} attempted")
    for key in ("forward_ms_tail", "training.cycle_ms_tail", "training.phase_share_sum",
                "train_digests_matched", "absent_layers"):
        if key in details:
            print(f"  {key}: {json.dumps(details[key])}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Every workload in its own process; prints each one's table and all results."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--blas-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload is None:
        return run_all(args)
    if import_maskac() is None:
        print(f"bench: no maskac package under {SRC}", file=sys.stderr)
        return 2
    if args.probe_setup:
        (OUT / "tmp").mkdir(parents=True, exist_ok=True)
        work_dir = tempfile.mkdtemp(dir=OUT / "tmp")
        try:
            prepare(WORKLOADS[args.workload], args.seed, work_dir, Tally())
            print(repr(time.monotonic()), flush=True)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
