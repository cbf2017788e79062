"""Tests of the benchmark's own helpers.

    python3 -m pytest bench -q
"""

import json
import os

import numpy as np
import pytest

import run
import tracer
from summary import checkpoint_step, tail, tail_percentile
from tracer import Span, Tracer, layer_metrics, self_times

assert run.import_maskac() is not None, "run from a checkout with src/maskac"


def spans_of(*rows):
    return [Span(sid, parent, name, t0, t1, thread, extra)
            for sid, parent, name, t0, t1, thread, extra in rows]


def test_self_time_subtracts_nested_children():
    spans = spans_of(
        (1, 0, "root", 0.0, 10.0, 1, None),
        (2, 1, "child", 1.0, 4.0, 1, None),
        (3, 2, "grandchild", 2.0, 3.0, 1, None),
        (4, 1, "child", 6.0, 7.0, 1, None),
    )
    st = self_times(spans)
    assert st == {1: pytest.approx(6.0), 2: pytest.approx(2.0),
                  3: pytest.approx(1.0), 4: pytest.approx(1.0)}


def test_self_time_counts_overlapping_children_once():
    # two threads' children overlap in [3, 5); one sticks out past the parent's end
    spans = spans_of(
        (1, 0, "root", 0.0, 10.0, 1, None),
        (2, 1, "worker", 1.0, 5.0, 2, None),
        (3, 1, "worker", 3.0, 8.0, 3, None),
        (4, 1, "late", 9.0, 12.0, 1, None),
    )
    assert self_times(spans)[1] == pytest.approx(10.0 - 7.0 - 1.0)


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
    (999, 98.0), (1000, 99.0), (2000, 99.5), (10_000, 99.9), (100_000, 99.99),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_reports_percentile_value_and_count():
    values = list(range(1, 1001))        # 1..1000
    p, value, n = tail(values)
    assert (p, n) == (99.0, 1000)
    assert sum(v > value for v in values) >= 10
    assert value == pytest.approx(990.01)


def test_train_throughput_uses_the_step_reached_not_the_budget(tmp_path):
    # catch episodes last 19 steps and every segment is one episode, so a
    # 25-step budget ends after the second segment, at step 38
    from maskac import EnvSpec, Hyperparams, NetworkConfig, train

    spec = EnvSpec(name="catch")
    config = NetworkConfig(input_hw=spec.size, n_actions=spec.n_actions,
                           fe_channels=(4, 4, 4), lstm_channels=4, branch_channels=4)
    final = train(config, Hyperparams(n_workers=1, total_steps=25), spec, seed=0,
                  out_dir=str(tmp_path))
    assert checkpoint_step(final) == 38
    repeat = {"train_steps": checkpoint_step(final), "train_s": 2.0, "eval_steps": 1,
              "eval_s": 1.0, "heatmap_frames": 1, "heatmap_s": 1.0, "forward_ms": [1.0] * 20}
    metrics, _ = run.end_to_end([repeat, dict(repeat, train_s=6.0)])
    assert metrics["train_steps_per_s"] == pytest.approx(76 / 8.0)
    with pytest.raises(ValueError):
        checkpoint_step(os.path.join(str(tmp_path), "metrics.csv"))


def test_missing_wrap_target_marks_its_layer_absent():
    t = Tracer()
    t.wrap("netpbm", "maskac.netpbm", "write_tiff", t.timed("netpbm.write"))
    t.wrap("cache", "maskac.no_such_module", "get", t.timed("cache.get"))
    metrics, details = layer_metrics(t.spans, 1, t.missing)
    assert details["absent_layers"] == {"netpbm": ["maskac.netpbm.write_tiff"],
                                        "cache": ["maskac.no_such_module.get"]}
    assert metrics["netpbm.files"] == 0.0
    t.uninstall()


def test_install_traces_ops_and_backward_by_layer_then_restores():
    from maskac import autodiff, network

    config = network.NetworkConfig(fe_channels=(4, 4, 4), lstm_channels=4, branch_channels=4)
    weights = network.init_weights(config, 0)
    for w in weights.values():
        w.requires_grad = True
    original = autodiff.conv2d
    t = tracer.install(Tracer())
    try:
        assert not t.missing
        out = network.forward(np.zeros((20, 20)), network.RecurrentState.zeros(config),
                              weights, config)
        autodiff.backward(autodiff.sum_all(out.value))
    finally:
        t.uninstall()
    assert autodiff.conv2d is original
    names = {s.name for s in t.spans}
    for layer in tracer.CONV_LAYERS:
        assert f"op:conv2d.{layer}" in names
    assert {"bwd:conv2d.lstm", "bwd:dense.value_out", "network.forward",
            "autodiff.backward"} <= names
    # the policy head gets no gradient from the value, so its backward never runs
    assert "bwd:dense.policy_out" not in names


def test_phase_shares_and_idle_share_from_worker_spans():
    # two train() calls whose worker threads got the same thread id; each
    # worker runs two cycles of 1+2+1+3+1 = 8 time units, 4 units of
    # bookkeeping and 2 units waiting, in a 22-unit thread
    rows, sid = [], 1
    for start in (0.0, 100.0):
        worker, sid = sid, sid + 1
        rows.append((worker, 0, "training.worker", start, start + 22.0, 7, None))
        t = start
        for _ in range(2):
            for name, d in (("training.sync", 1), ("training.rollout", 2),
                            ("training.a3c_loss", 1), ("autodiff.backward", 3),
                            ("training.apply", 1)):
                rows.append((sid, worker, name, t, t + d, 7,
                             1 if name == "training.apply" else None))
                sid, t = sid + 1, t + d
            rows.append((sid, worker, "training.post", t, t + 2, 7, None))
            sid, t = sid + 1, t + 3
    m, details = layer_metrics(spans_of(*rows), 2, {})
    assert m["training.backward_share"] == pytest.approx(3 / 8)
    assert m["training.rollout_share"] == pytest.approx(2 / 8)
    assert details["training.phase_share_sum"] == pytest.approx(1.0)
    assert m["training.worker_idle_share"] == pytest.approx((22 - 16 - 4) / 22)
    assert m["training.updates"] == 2 and m["training.cycle_ms_p50"] == pytest.approx(8000.0)


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [row[:3] for row in tracer.PER_LAYER]
