"""Golden fixed-seed training runs, compared with a tolerance.

Each scenario trains a tiny network with a fixed seed.  Its final
checkpoint's weights must lie within 1e-4 of each tensor's largest
magnitude of the recorded ones, and the ``step`` and ``episode_return``
columns of its ``metrics.csv`` must equal the recorded text.  float32
matmul bits may differ between BLAS kernels, so the weights are not
compared bit for bit.  The collector run has 3 workers at ``t_max=7``, so
some of its rounds are ragged.

Re-record the files under ``tests/golden/`` with
``PYTHONPATH=src python tests/test_golden.py``, and say why in CHANGES.md.
"""

import csv
import io
import os
import tempfile

import numpy as np
import pytest

from maskac.checkpoint import load_checkpoint
from maskac.envs import EnvSpec
from maskac.network import NetworkConfig
from maskac.training import Hyperparams, train

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
SCENARIOS = {
    "catch_1w": ("catch", Hyperparams(lr=1e-3, n_workers=1, t_max=20, total_steps=200)),
    "collector_3w": ("collector", Hyperparams(lr=1e-3, n_workers=3, t_max=7, total_steps=300)),
}
RTOL = 1e-4


def run(name, out_dir):
    """The scenario's final weights and the step,episode_return columns of its metrics.csv."""
    env, hyper = SCENARIOS[name]
    spec = EnvSpec(name=env)
    config = NetworkConfig(fe_channels=(4, 4, 4), lstm_channels=4, branch_channels=4,
                           n_actions=spec.n_actions)
    final = train(config, hyper, spec, seed=0, out_dir=out_dir, checkpoint_interval=0)
    with open(os.path.join(out_dir, "metrics.csv")) as fh:
        rows = [(r["step"], r["episode_return"]) for r in csv.DictReader(fh)]
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([("step", "episode_return"), *rows])
    return load_checkpoint(final)[0], text.getvalue()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
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


def record():
    os.makedirs(GOLDEN, exist_ok=True)
    for name in SCENARIOS:
        with tempfile.TemporaryDirectory() as tmp:
            weights, columns = run(name, tmp)
        with open(os.path.join(GOLDEN, f"{name}.csv"), "w") as fh:
            fh.write(columns)
        np.savez(os.path.join(GOLDEN, f"{name}.npz"), **weights)


if __name__ == "__main__":
    record()
