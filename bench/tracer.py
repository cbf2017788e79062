"""Span tracing of the maskac layers, installed from outside the package.

The traced run replaces functions at the names their callers look them
up (module attributes, and class attributes for methods) with wrappers
that record spans: name, start, end, parent span and thread.  Spans stay
in memory until the run ends.  Nothing under ``src/`` knows about the
tracer, and ``uninstall`` puts every original back.  A target that does
not exist marks its layer absent instead of failing the run.

Autodiff ops get a second wrapper on the backward closure each op
attaches to its output, so backward time is attributed per op.  Conv
and dense kernels are named after the layer whose weight tensor they
receive: the ``forward`` wrapper records which tensor object carries
which weight name.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import itertools
import os
import threading
from collections import Counter, defaultdict, namedtuple
from time import perf_counter

from summary import median, tail

Span = namedtuple("Span", "sid parent name t0 t1 thread extra")

CONV_LAYERS = ("fe1", "fe2", "fe3", "lstm", "policy_branch", "value_branch",
               "policy_mask", "value_mask")
DENSE_LAYERS = ("policy_out", "value_out")
# autodiff exports that are not ops building graph nodes
_NOT_OPS = {"backward", "zero_grads", "grad_check"}

# Span names of the phases of one worker cycle, and the phase each counts to.
PHASES = {
    "training.sync": "sync",
    "training.rollout": "rollout",
    "training.returns": "loss",
    "training.a3c_loss": "loss",
    "autodiff.backward": "backward",
    "training.apply": "apply",
}

_TRAIN = "train_steps_per_s on train-catch-1w, train-fuel-2w and the short train of analyze-fuel"
_TRAIN_ALL = "train_steps_per_s on every workload"

# (name, unit, better, which end-to-end metric on which workload it should move)
PER_LAYER = [
    ("training.cycle_ms_p50", "ms", "lower", _TRAIN_ALL),
    ("training.cycle_ms_tail", "ms", "lower", _TRAIN_ALL),
    ("training.sync_share", "ratio", "lower", _TRAIN_ALL),
    ("training.rollout_share", "ratio", "lower", _TRAIN_ALL),
    ("training.loss_share", "ratio", "lower", _TRAIN_ALL),
    ("training.backward_share", "ratio", "lower", _TRAIN_ALL),
    ("training.apply_share", "ratio", "lower", _TRAIN_ALL),
    ("training.worker_idle_share", "ratio", "lower",
     "train_steps_per_s on train-fuel-2w only; no change on 1-worker training"),
    ("training.updates", "count/repeat", "higher", _TRAIN_ALL),
    ("training.skipped_updates", "count/repeat", "lower", "failures on every workload"),
    ("training.steps_per_update", "count", "higher", _TRAIN_ALL),
    ("training.checkpoint_stall_share", "ratio", "lower", _TRAIN_ALL),
    ("network.forward_us", "us", "lower", _TRAIN_ALL),
    ("network.forward_nograd_us", "us", "lower",
     "forward_ms_mean and eval_steps_per_s on every workload, most on analyze-fuel"),
    ("network.useful_forward_ratio", "ratio", "higher",
     "train_steps_per_s on train-fuel-2w (catch segments never build a tail forward)"),
    ("autodiff.backward_ms", "ms", "lower", _TRAIN + "; no change to analysis metrics"),
    ("autodiff.nodes_per_update", "count", "lower", _TRAIN + "; no change to analysis metrics"),
    *[(f"autodiff.conv2d.{layer}.{d}_us", "us", "lower",
       _TRAIN + ("; also forward_ms_mean" if d == "fwd" else "; no change to analysis metrics"))
      for layer in CONV_LAYERS for d in ("fwd", "bwd")],
    *[(f"autodiff.dense.{layer}.{d}_us", "us", "lower", _TRAIN)
      for layer in DENSE_LAYERS for d in ("fwd", "bwd")],
    ("autodiff.other.fwd_us", "us", "lower", _TRAIN + "; also forward_ms_mean"),
    ("autodiff.other.bwd_us", "us", "lower", _TRAIN),
    ("autodiff.conv2d.mflop_per_update", "MFLOP", "lower", _TRAIN + " (computed from shapes)"),
    ("autodiff.conv2d.lstm.fwd_us.blas1", "us", "lower",
     "diagnostic only: the ConvLSTM conv with OPENBLAS_NUM_THREADS=1 in a child process"),
    ("autodiff.conv2d.lstm.bwd_us.blas1", "us", "lower",
     "diagnostic only: the ConvLSTM conv with OPENBLAS_NUM_THREADS=1 in a child process"),
    ("envs.step_us", "us", "lower", "eval_steps_per_s on analyze-fuel; small share of training"),
    ("envs.observe_us", "us", "lower", "eval_steps_per_s on analyze-fuel; small share of training"),
    ("envs.steps", "count/repeat", "higher", "work count behind eval_steps_per_s and train_steps_per_s"),
    *[(f"analysis.evaluate_ms.{t}", "ms", "lower", "eval_steps_per_s on every workload, most on analyze-fuel")
      for t in ("identity", "inverse", "ones")],
    ("analysis.record_heatmaps_ms", "ms", "lower", "heatmap_frames_per_s on every workload"),
    ("analysis.injection_response_ms", "ms", "lower", "eval_steps_per_s on analyze-fuel (same forward path)"),
    ("netpbm.write_us", "us", "lower", "heatmap_frames_per_s on every workload"),
    ("netpbm.files", "count/repeat", "higher", "work count behind heatmap_frames_per_s"),
    ("netpbm.bytes", "bytes/repeat", "lower", "heatmap_frames_per_s on every workload"),
    ("checkpoint.save_ms", "ms", "lower", "setup_s on analyze-fuel and training.checkpoint_stall_share"),
    ("checkpoint.load_ms", "ms", "lower", "setup_s on analyze-fuel"),
    ("checkpoint.bytes", "bytes", "lower", "checkpoint.save_ms and checkpoint.load_ms"),
    ("tracing.train_steps_per_s_traced", "1/s", "higher", "tracing overhead, against the untraced figure"),
    ("tracing.train_steps_per_s_untraced", "1/s", "higher", "tracing overhead base"),
    ("tracing.overhead_share", "ratio", "lower", "none: cost of the wrappers themselves"),
]


class Tracer:
    """Records spans from wrappers it installs; ``uninstall`` removes them all."""

    def __init__(self):
        self.spans = []
        self.missing = defaultdict(list)   # layer -> targets that were not found
        self.weight_names = {}             # id(weight tensor) -> layer name
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrapping -----------------------------------------------------------

    def wrap(self, layer, module_name, attr_path, make_wrapper):
        """Replace ``module.attr_path`` by ``make_wrapper(original)``.

        ``attr_path`` may name a method as ``Class.method``.  A missing
        module or attribute is recorded against ``layer``.
        """
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = attr_path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing[layer].append(f"{module_name}.{attr_path}")
            return
        own = attr in vars(owner)
        setattr(owner, attr, make_wrapper(original))
        self._patches.append((owner, attr, original, own))

    def uninstall(self):
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def timed(self, name, extra=None, before=None):
        """Wrapper factory: each call records a span named ``name``.

        ``name`` may be a function of the bound arguments; ``extra``
        computes the span's number from the arguments and the result;
        ``before`` sees the arguments before the call.
        """
        spans, ids, stack_of = self.spans, self._ids, self._stack

        def factory(fn):
            sig = inspect.signature(fn) if (extra or before or callable(name)) else None

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                bound = None
                if sig is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    bound = bound.arguments
                if before is not None:
                    before(bound)
                stack = stack_of()
                sid = next(ids)
                parent = stack[-1] if stack else 0
                stack.append(sid)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                spans.append(Span(sid, parent, name(bound) if callable(name) else name,
                                  t0, t1, threading.get_ident(),
                                  extra(bound, result) if extra else None))
                return result
            return wrapper
        return factory

    def op(self, opname):
        """Wrapper factory for an autodiff op: times the call and its backward closure."""
        spans, ids, stack_of, names = self.spans, self._ids, self._stack, self.weight_names

        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack = stack_of()
                sid = next(ids)
                parent = stack[-1] if stack else 0
                stack.append(sid)
                t0 = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                key, flops, bwd_flops = "other", None, None
                if opname in ("conv2d", "dense"):
                    x = args[0] if args else kwargs.get("x")
                    w = args[1] if len(args) > 1 else kwargs.get("k", kwargs.get("w"))
                    key = f"{opname}.{names.get(id(w), 'unkeyed')}"
                    if opname == "conv2d":
                        # one multiply-add per output element per kernel tap
                        flops = 2 * out.data.size * (w.data.size // w.shape[0])
                        bwd_flops = flops * (int(w.requires_grad) + int(x.requires_grad))
                spans.append(Span(sid, parent, "op:" + key, t0, t1,
                                  threading.get_ident(), flops))
                bw = getattr(out, "_backward", None)
                # an op that returns another op's output (sub -> add) is timed once
                if bw is not None and not hasattr(bw, "bench_key"):
                    out._backward = self._timed_backward(bw, key, bwd_flops)
                return out
            return wrapper
        return factory

    def _timed_backward(self, closure, key, flops):
        spans, ids, stack_of = self.spans, self._ids, self._stack
        name = "bwd:" + key

        def timed_closure():
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            t0 = perf_counter()
            closure()
            spans.append(Span(sid, parent, name, t0, perf_counter(),
                              threading.get_ident(), flops))
        timed_closure.bench_key = key
        return timed_closure

    # -- output -------------------------------------------------------------

    def write_csv(self, path):
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(Span._fields)
            out.writerows(self.spans)


def install(tracer):
    """Wrap every layer boundary of maskac that the per-layer metrics read."""
    tracer.missing.clear()
    t = tracer.timed

    # argument lookups tolerate renamed parameters: a changed signature
    # loses the number, never the call
    def remember_weights(bound):
        for name, tensor in (bound.get("w") or {}).items():
            tracer.weight_names[id(tensor)] = name.rsplit(".", 1)[0]

    def graph_flag(bound, _result):
        w = bound.get("w") or {}
        return int(bool(getattr(w.get("fe1.w"), "requires_grad", False)))

    def file_size(bound, _result):
        path = bound.get("path")
        return os.path.getsize(path) if path and os.path.exists(path) else 0

    tr = "maskac.training"
    tracer.wrap("training", tr, "train", t("training.train"))
    tracer.wrap("training", tr, "_worker_loop", t("training.worker"))
    tracer.wrap("training", tr, "sync_local", t("training.sync"))
    tracer.wrap("training", tr, "collect_rollout", t("training.rollout"))
    tracer.wrap("training", tr, "compute_returns", t("training.returns"))
    tracer.wrap("training", tr, "a3c_loss", t("training.a3c_loss"))
    tracer.wrap("training", tr, "apply_gradients",
                t("training.apply", extra=lambda _b, norm: int(norm is not None)))
    tracer.wrap("training", tr, "loss_components", t("training.post"))
    tracer.wrap("training", tr, "MetricsWriter.log", t("training.post"))

    tracer.wrap("autodiff", "maskac.autodiff", "backward", t("autodiff.backward"))
    try:
        ops = [n for n in importlib.import_module("maskac.autodiff").__all__
               if n not in _NOT_OPS and n[0].islower()]
    except (ImportError, AttributeError):
        ops = []
    for required in ("conv2d", "dense"):
        if required not in ops:
            tracer.missing["autodiff"].append(f"maskac.autodiff.{required}")
    for opname in ops:
        tracer.wrap("autodiff", "maskac.autodiff", opname, tracer.op(opname))

    fwd = t("network.forward", before=remember_weights, extra=graph_flag)
    for caller in ("maskac.network", tr, "maskac.analysis"):
        tracer.wrap("network", caller, "forward", fwd)

    tracer.wrap("envs", "maskac.envs", "_BaseEnv.step", t("envs.step"))
    tracer.wrap("envs", "maskac.envs", "_BaseEnv.observe", t("envs.observe"))

    an = "maskac.analysis"
    tracer.wrap("analysis", an, "evaluate",
                t(lambda b: f"analysis.evaluate.{b.get('mask_transform')}",
                  extra=lambda b, _r: b.get("episodes", 0)))
    tracer.wrap("analysis", an, "record_heatmaps", t("analysis.record_heatmaps"))
    tracer.wrap("analysis", an, "injection_response", t("analysis.injection_response"))
    tracer.wrap("netpbm", an, "write_pgm", t("netpbm.write", extra=file_size))
    tracer.wrap("netpbm", an, "write_ppm", t("netpbm.write", extra=file_size))

    ck = "maskac.checkpoint"
    tracer.wrap("checkpoint", ck, "save_checkpoint", t("checkpoint.save", extra=file_size))
    tracer.wrap("checkpoint", ck, "load_checkpoint", t("checkpoint.load"))
    return tracer


# ---------------------------------------------------------------------------
# span arithmetic

def self_times(spans):
    """Span id -> duration minus the part of it that its children cover.

    Children may overlap each other (threads) or stick out of the parent;
    only the union of their intervals inside the parent is subtracted.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append((s.t0, s.t1))
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.t0
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, cursor), min(b, s.t1)
            if b > a:
                covered += b - a
                cursor = b
        out[s.sid] = (s.t1 - s.t0) - covered
    return out


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _cycles(spans):
    """Worker cycles as (start, end, thread) and the time per phase inside them.

    Per thread, a cycle runs from the start of a sync span to the end of
    the next apply span; phase spans outside a cycle are ignored.
    """
    by_thread = defaultdict(list)
    for s in spans:
        if s.name in PHASES:
            by_thread[s.thread].append(s)
    cycles, phase_time, cycle_sids = [], Counter(), set()
    for tid, phase_spans in by_thread.items():
        phase_spans.sort(key=lambda s: s.t0)
        start, members = None, []
        for s in phase_spans:
            if s.name == "training.sync":
                start, members = s.t0, []
            if start is None:
                continue
            members.append(s)
            if s.name == "training.apply":
                cycles.append((start, s.t1, tid))
                for m in members:
                    phase_time[PHASES[m.name]] += m.t1 - m.t0
                    cycle_sids.add(m.sid)
                start = None
    return cycles, phase_time, cycle_sids


def layer_metrics(spans, repeats, missing):
    """Every per-layer metric from the spans of ``repeats`` traced workload repeats.

    Returns (metrics, details): metrics maps each PER_LAYER name to a
    number (0.0 where the run produced no such span), details holds the
    tail percentiles used, the phase-share sum and the absent layers.
    """
    repeats = max(repeats, 1)
    selft = self_times(spans)
    names = {s.sid: s.name for s in spans}
    parents = {s.sid: s.parent for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def durs(name, scale=1.0):
        return [(s.t1 - s.t0) * scale for s in by_name[name]]

    def selfs(name, scale=1.0):
        return [selft[s.sid] * scale for s in by_name[name]]

    def phase_ancestor(sid):
        while sid:
            if sid in cycle_sids:
                return True
            sid = parents.get(sid, 0)
        return False

    m = {name: 0.0 for name, *_ in PER_LAYER}
    details = {}

    # training
    cycles, phase_time, cycle_sids = _cycles(spans)
    n_cycles = len(cycles)
    n_trains = len(by_name["training.train"]) or repeats
    if cycles:
        cycle_ms = [(b - a) * 1e3 for a, b, _ in cycles]
        total = sum(b - a for a, b, _ in cycles)
        m["training.cycle_ms_p50"] = median(cycle_ms)
        t = tail(cycle_ms)
        if t:
            m["training.cycle_ms_tail"] = t[1]
            details["training.cycle_ms_tail"] = {"percentile": t[0], "samples": t[2]}
        for phase in ("sync", "rollout", "loss", "backward", "apply"):
            m[f"training.{phase}_share"] = phase_time[phase] / total
        details["training.phase_share_sum"] = sum(phase_time.values()) / total
    # thread ids are reused by later train() calls, so a worker span owns
    # only the cycles and bookkeeping of its thread inside its own interval
    cycles_by_thread, post_by_thread = defaultdict(list), defaultdict(list)
    for a, b, tid in cycles:
        cycles_by_thread[tid].append((a, b))
    for s in by_name["checkpoint.save"] + by_name["training.post"]:
        post_by_thread[s.thread].append(s)
    wall = idle = stall = 0.0
    for w in by_name["training.worker"]:
        busy = sum(b - a for a, b in cycles_by_thread[w.thread] if w.t0 <= a and b <= w.t1)
        own = [s for s in post_by_thread[w.thread] if w.t0 <= s.t0 and s.t1 <= w.t1]
        wall += w.t1 - w.t0
        idle += w.t1 - w.t0 - busy - sum(s.t1 - s.t0 for s in own)
        stall += sum(s.t1 - s.t0 for s in own if s.name == "checkpoint.save")
    if wall:
        m["training.worker_idle_share"] = idle / wall
        m["training.checkpoint_stall_share"] = stall / wall
    applied = [s.extra for s in by_name["training.apply"]]
    m["training.updates"] = sum(1 for e in applied if e) / n_trains
    m["training.skipped_updates"] = sum(1 for e in applied if not e) / n_trains

    # network: graph-building forwards and env steps inside rollouts
    rollout_steps = sum(1 for s in by_name["envs.step"]
                        if names.get(s.parent) == "training.rollout")
    graph_fwd = [s for s in by_name["network.forward"] if s.extra == 1]
    nograd_fwd = [s for s in by_name["network.forward"] if s.extra == 0]
    m["network.forward_us"] = _mean([(s.t1 - s.t0) * 1e6 for s in graph_fwd])
    m["network.forward_nograd_us"] = _mean([(s.t1 - s.t0) * 1e6 for s in nograd_fwd])
    if graph_fwd:
        m["network.useful_forward_ratio"] = rollout_steps / len(graph_fwd)
    if n_cycles:
        m["training.steps_per_update"] = rollout_steps / n_cycles

    # autodiff
    m["autodiff.backward_ms"] = _mean(durs("autodiff.backward", 1e3))
    for layer in CONV_LAYERS:
        m[f"autodiff.conv2d.{layer}.fwd_us"] = _mean(selfs(f"op:conv2d.{layer}", 1e6))
        m[f"autodiff.conv2d.{layer}.bwd_us"] = _mean(selfs(f"bwd:conv2d.{layer}", 1e6))
    for layer in DENSE_LAYERS:
        m[f"autodiff.dense.{layer}.fwd_us"] = _mean(selfs(f"op:dense.{layer}", 1e6))
        m[f"autodiff.dense.{layer}.bwd_us"] = _mean(selfs(f"bwd:dense.{layer}", 1e6))
    m["autodiff.other.fwd_us"] = _mean(selfs("op:other", 1e6))
    m["autodiff.other.bwd_us"] = _mean(selfs("bwd:other", 1e6))
    nodes = flops = 0
    for s in spans:
        if s.name.startswith(("op:", "bwd:")) and phase_ancestor(s.parent):
            if s.name.startswith("op:") and not names.get(s.parent, "").startswith("op:"):
                nodes += 1
            if s.name.startswith(("op:conv2d", "bwd:conv2d")):
                flops += s.extra or 0
    if n_cycles:
        m["autodiff.nodes_per_update"] = nodes / n_cycles
        m["autodiff.conv2d.mflop_per_update"] = flops / n_cycles / 1e6

    # envs
    m["envs.step_us"] = _mean(selfs("envs.step", 1e6))
    m["envs.observe_us"] = _mean(durs("envs.observe", 1e6))
    m["envs.steps"] = len(by_name["envs.step"]) / repeats

    # analysis
    for transform in ("identity", "inverse", "ones"):
        ev = by_name[f"analysis.evaluate.{transform}"]
        episodes = sum(s.extra for s in ev)
        if episodes:
            m[f"analysis.evaluate_ms.{transform}"] = sum(s.t1 - s.t0 for s in ev) * 1e3 / episodes
    m["analysis.record_heatmaps_ms"] = _mean(durs("analysis.record_heatmaps", 1e3))
    m["analysis.injection_response_ms"] = _mean(durs("analysis.injection_response", 1e3))

    # netpbm and checkpoint
    writes = by_name["netpbm.write"]
    m["netpbm.write_us"] = _mean(durs("netpbm.write", 1e6))
    m["netpbm.files"] = len(writes) / repeats
    m["netpbm.bytes"] = sum(s.extra for s in writes) / repeats
    m["checkpoint.save_ms"] = _mean(durs("checkpoint.save", 1e3))
    m["checkpoint.load_ms"] = _mean(durs("checkpoint.load", 1e3))
    if by_name["checkpoint.save"]:
        m["checkpoint.bytes"] = median([s.extra for s in by_name["checkpoint.save"]])

    details["absent_layers"] = {layer: targets for layer, targets in missing.items() if targets}
    return m, details
