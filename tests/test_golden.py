"""Golden fixed-seed training runs, in two layers.

Each scenario trains a network with a fixed seed: a tiny one, except
``catch_1w_default``, whose default-size network reaches matmul shapes
that the tiny ones never do.

The tolerance layer runs everywhere: the final checkpoint's weights must
lie within 1e-4 of each tensor's largest magnitude of the recorded ones,
and the ``step`` and ``episode_return`` columns of its ``metrics.csv``
must equal the recorded text.  The collector run has 3 workers at
``t_max=7``, so some of its rounds are ragged.

The exact layer pins the sha256 of the final checkpoint file and of
``metrics.csv`` of the 1-worker runs on catch (tiny and default size)
and on fuel and of the 3-worker collector run, and of the analysis
outputs of a fresh network on catch: ``evaluate`` returns under each
mask transform, greedy and sampled, the ``record_heatmaps`` files and
the ``injection_response`` rows; and the ``variants.csv`` of a two-seed
``compare_variants`` run.
float32 matmul bits may differ between BLAS kernels and CPUs, so it runs
only where the recorded fingerprint (numpy version, BLAS name and
version, CPU model, CPU count) matches, and skips with the difference
elsewhere.  The OpenBLAS thread count is not in it: conv2d sums its
kernel gradient over fixed blocks of patch rows, so the bits are the same
under one thread and the default, and CI runs this file under both.

Re-record with ``PYTHONPATH=src python tests/test_golden.py weights``
(the tolerance files) or ``... digests`` (the exact layer, with the
fingerprint of the machine that records it), and say why in CHANGES.md.
"""

import csv
import hashlib
import io
import json
import os
import platform
import sys
import tempfile

import numpy as np
import pytest

from maskac.analysis import evaluate, injection_response, record_heatmaps
from maskac.checkpoint import load_checkpoint
from maskac.envs import EnvSpec, InjectionSpec
from maskac.network import MASK_TRANSFORMS, NetworkConfig, init_weights, to_disk_layout
from maskac.training import Hyperparams, compare_variants, train

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
DIGESTS = os.path.join(GOLDEN, "digests.json")
SCENARIOS = {
    "catch_1w": ("catch", Hyperparams(lr=1e-3, n_workers=1, t_max=20, total_steps=200)),
    "collector_3w": ("collector", Hyperparams(lr=1e-3, n_workers=3, t_max=7, total_steps=300)),
    "fuel_1w": ("fuel", Hyperparams(lr=1e-3, n_workers=1, t_max=20, total_steps=200)),
    "catch_1w_default": ("catch", Hyperparams(lr=7e-4, rmsprop_eps=1e-5, n_workers=1, t_max=20,
                                              total_steps=200)),
}
# lr 1e-2 for 100 steps moves the greedy policy enough that, over 12
# episodes, the masked variants score apart from vanilla
VARIANTS_HYPER = Hyperparams(lr=1e-2, rmsprop_eps=1e-5, n_workers=2, t_max=20, total_steps=100)
VARIANTS_EPISODES = 12
TOLERANCE = ("catch_1w", "collector_3w")
EXACT = ("catch_1w", "collector_3w", "fuel_1w", "catch_1w_default")
RTOL = 1e-4


def tiny_config(spec):
    return NetworkConfig(fe_channels=(4, 4, 4), lstm_channels=4, branch_channels=4,
                         n_actions=spec.n_actions)


def train_scenario(name, out_dir):
    """Train the scenario into ``out_dir``; returns the final checkpoint's path."""
    env, hyper = SCENARIOS[name]
    spec = EnvSpec(name=env)
    default_size = name == "catch_1w_default"
    config = NetworkConfig(n_actions=spec.n_actions) if default_size else tiny_config(spec)
    return train(config, hyper, spec, seed=0, out_dir=out_dir, checkpoint_interval=0)


def run(name, out_dir):
    """The scenario's final weights and the step,episode_return columns of its metrics.csv.

    The weights are in the checkpoint's layout (OIHW kernels), which the
    tolerance files record.
    """
    final = train_scenario(name, out_dir)
    with open(os.path.join(out_dir, "metrics.csv")) as fh:
        rows = [(r["step"], r["episode_return"]) for r in csv.DictReader(fh)]
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([("step", "episode_return"), *rows])
    return to_disk_layout(*load_checkpoint(final)), text.getvalue()


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _file_sha(path):
    with open(path, "rb") as fh:
        return _sha(fh.read())


def digests(name, out_dir):
    """sha256 of the scenario's final checkpoint and of its metrics.csv."""
    final = train_scenario(name, out_dir)
    return {"checkpoint": _file_sha(final),
            "metrics": _file_sha(os.path.join(out_dir, "metrics.csv"))}


def analysis_digests(out_dir):
    """sha256 of the analysis outputs of a fresh float32 network on catch.

    ``evaluate`` returns for each mask transform, greedy and sampled; the
    names and bytes of every ``record_heatmaps`` file; and the rows of an
    ``injection_response`` whose sprite lands mid-episode.
    """
    spec = EnvSpec(name="catch")
    config = tiny_config(spec)
    weights = init_weights(config, seed=7)
    out = {}
    for transform in MASK_TRANSFORMS:
        for greedy in (True, False):
            stats = evaluate(weights, config, spec, 6, transform, seed=1, greedy=greedy)
            mode = "greedy" if greedy else "sampled"
            out[f"evaluate_{transform}_{mode}"] = _sha(repr(stats.returns).encode())
    record_heatmaps(weights, config, spec, 2, seed=2, out_dir=out_dir)
    files = sorted(os.listdir(out_dir))
    out["heatmaps"] = _sha(json.dumps({f: _file_sha(os.path.join(out_dir, f))
                                       for f in files}).encode())
    inj = InjectionSpec(np.ones((4, 4)), np.ones((4, 4), bool), position=(8, 8),
                        start_frame=5, duration=6)
    report = injection_response(weights, config, spec, inj, window=(3, 14), seed=4)
    out["injection"] = _sha(repr((report.rows, report.action_names)).encode())
    return out


def variants_digest(out_dir):
    """sha256 of the ``variants.csv`` of a tiny ``compare_variants`` run on catch, seeds 0 and 1."""
    spec = EnvSpec(name="catch")
    compare_variants(spec, tiny_config(spec), (0, 1), VARIANTS_HYPER, VARIANTS_EPISODES, out_dir,
                     checkpoint_interval=0)
    return _file_sha(os.path.join(out_dir, "variants.csv"))


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor()


def fingerprint():
    """What the float32 bits of a training run may depend on besides the code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu": _cpu_model(), "cpu_count": os.cpu_count()}


@pytest.mark.parametrize("name", TOLERANCE)
def test_training_matches_the_golden_run(tmp_path, name):
    weights, columns = run(name, str(tmp_path))
    with open(os.path.join(GOLDEN, f"{name}.csv")) as fh:
        assert columns == fh.read()
    with np.load(os.path.join(GOLDEN, f"{name}.npz")) as golden:
        assert sorted(golden.files) == sorted(weights)
        for key, value in weights.items():
            ref = golden[key]
            scale = float(np.abs(ref).max()) or 1.0
            np.testing.assert_allclose(value, ref, rtol=0, atol=RTOL * scale, err_msg=key)
    if name == "collector_3w":
        # a full round is 21 steps; a shorter one holds a ragged segment
        steps = [int(line.split(",")[0]) for line in columns.splitlines()[1:]]
        assert any(d != 21 for d in np.diff([0] + steps))


def golden_digests():
    """The recorded digests, or a skip naming how this platform differs from the recording one."""
    with open(DIGESTS) as fh:
        golden = json.load(fh)
    here = fingerprint()
    differs = {k: (v, here.get(k)) for k, v in golden["fingerprint"].items() if here.get(k) != v}
    if differs:
        pytest.skip(f"recorded on another platform (recorded, here): {differs}")
    return golden["runs"]


@pytest.mark.parametrize("name", EXACT)
def test_training_outputs_match_the_golden_digests(tmp_path, name):
    assert digests(name, str(tmp_path)) == golden_digests()[name]


def test_analysis_outputs_match_the_golden_digests(tmp_path):
    assert analysis_digests(str(tmp_path)) == golden_digests()["analysis"]


def test_compare_variants_table_matches_the_golden_digest(tmp_path):
    assert variants_digest(str(tmp_path)) == golden_digests()["variants"]


def record(layer):
    os.makedirs(GOLDEN, exist_ok=True)
    if layer == "digests":
        runs = {}
        for name in EXACT:
            with tempfile.TemporaryDirectory() as tmp:
                runs[name] = digests(name, tmp)
        with tempfile.TemporaryDirectory() as tmp:
            runs["analysis"] = analysis_digests(tmp)
        with tempfile.TemporaryDirectory() as tmp:
            runs["variants"] = variants_digest(tmp)
        with open(DIGESTS, "w") as fh:
            json.dump({"fingerprint": fingerprint(), "runs": runs}, fh, indent=2)
            fh.write("\n")
        return
    for name in TOLERANCE:
        with tempfile.TemporaryDirectory() as tmp:
            weights, columns = run(name, tmp)
        with open(os.path.join(GOLDEN, f"{name}.csv"), "w") as fh:
            fh.write(columns)
        np.savez(os.path.join(GOLDEN, f"{name}.npz"), **weights)


if __name__ == "__main__":
    if sys.argv[1:] not in (["weights"], ["digests"]):
        sys.exit("usage: python tests/test_golden.py weights|digests")
    record(sys.argv[1])
