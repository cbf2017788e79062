"""Evaluation protocols, heat-map emission, and the injection probe."""

import os

import numpy as np
import pytest

from maskac import analysis, netpbm
from maskac.analysis import (EpisodeStats, VariantError, compare_variants, decrease_rate,
                             evaluate, injection_response, overlay_rgb,
                             policy_entropy, random_baseline, record_heatmaps,
                             stencil_region_cells, upsample_nearest)
from maskac.envs import EnvSpec, InjectionSpec
from maskac.network import NetworkConfig, init_weights, weight_names
from maskac.training import Hyperparams

from oracles import catch_random_expectation, per_episode_evaluate, per_episode_replay


def cfg(policy=True, value=True, n_actions=3, **kw):
    return NetworkConfig(n_actions=n_actions, policy_mask_enabled=policy,
                         value_mask_enabled=value, **kw)


def weights_for(config, seed=0):
    return init_weights(config, seed=seed, dtype=np.float32)


# ---------------------------------------------------------------------------
# evaluate / random_baseline

def test_evaluate_single_episode_max_equals_mean():
    config = cfg()
    stats = evaluate(weights_for(config), config, EnvSpec(name="catch"),
                     episodes=1, seed=0, greedy=True)
    assert stats.n_episodes == 1
    assert stats.max == stats.mean == stats.returns[0]


def test_evaluate_returns_bounded_on_catch():
    config = cfg()
    stats = evaluate(weights_for(config), config, EnvSpec(name="catch"),
                     episodes=20, seed=1)
    assert all(r in (-1.0, 1.0) for r in stats.returns)
    assert -1.0 <= stats.mean <= 1.0


def test_evaluate_deterministic_given_seed():
    config = cfg()
    w = weights_for(config)
    a = evaluate(w, config, EnvSpec(name="catch"), episodes=10, seed=5, greedy=True)
    b = evaluate(w, config, EnvSpec(name="catch"), episodes=10, seed=5, greedy=True)
    assert a.returns == b.returns
    c = evaluate(w, config, EnvSpec(name="catch"), episodes=10, seed=5, greedy=False)
    d = evaluate(w, config, EnvSpec(name="catch"), episodes=10, seed=5, greedy=False)
    assert c.returns == d.returns


def test_evaluate_rejects_mismatched_weights():
    config = cfg()
    w = weights_for(config)
    vanilla = cfg(policy=False, value=False)
    with pytest.raises(ValueError):
        evaluate(w, vanilla, EnvSpec(name="catch"), episodes=1, seed=0)


def test_evaluate_inverse_requires_policy_mask():
    config = cfg(policy=False, value=True)
    with pytest.raises(ValueError):
        evaluate(weights_for(config), config, EnvSpec(name="catch"),
                 episodes=1, seed=0, mask_transform="inverse")


def test_evaluate_ones_equals_weight_shared_vanilla():
    config = cfg()
    vanilla = cfg(policy=False, value=False)
    w = weights_for(config, seed=3)
    w_v = {k: w[k] for k in weight_names(vanilla)}
    masked = evaluate(w, config, EnvSpec(name="catch"), episodes=15, seed=7,
                      mask_transform="ones")
    plain = evaluate(w_v, vanilla, EnvSpec(name="catch"), episodes=15, seed=7)
    assert masked.returns == plain.returns


@pytest.mark.parametrize("env", ["catch", "fuel"])
def test_lockstep_evaluate_matches_per_episode_loop(env, monkeypatch):
    # groups of 3 over 7 episodes: two full groups and one partial group
    monkeypatch.setattr(analysis, "EVAL_GROUP", 3)
    spec = EnvSpec(name=env, episode_cap=50)
    config = cfg(n_actions=spec.n_actions, fe_channels=(4, 4, 8), lstm_channels=8,
                 branch_channels=4)
    w = init_weights(config, seed=2, dtype=np.float64)
    ragged = False
    for transform in ("identity", "inverse", "ones"):
        for greedy in (True, False):
            expected = per_episode_evaluate(w, config, spec, 7, transform, seed=4,
                                            greedy=greedy)
            stats = evaluate(w, config, spec, 7, transform, seed=4, greedy=greedy)
            assert stats.returns == [r for r, _ in expected]
            ragged |= any(len({n for _, n in expected[g:g + 3]}) > 1 for g in (0, 3, 6))
    assert ragged or env == "catch", "no group had episodes ending at different steps"


def test_random_baseline_reproducible_and_bounded():
    spec = EnvSpec(name="catch")
    a = random_baseline(spec, episodes=50, seed=2)
    b = random_baseline(spec, episodes=50, seed=2)
    assert a.returns == b.returns
    assert all(r in (-1.0, 1.0) for r in a.returns)


def test_random_baseline_matches_exact_enumeration():
    expected = catch_random_expectation()
    assert abs(expected - (-0.30)) < 1e-12  # uniform landing x 7-cell paddle
    episodes = 3000
    stats = random_baseline(EnvSpec(name="catch"), episodes=episodes, seed=11)
    se = np.std(stats.returns, ddof=1) / np.sqrt(episodes)
    assert abs(stats.mean - expected) <= 3 * se


# ---------------------------------------------------------------------------
# decrease rate

def test_decrease_rate_reference_values():
    assert round(decrease_rate(595.8, 2.2), 2) == 99.63
    assert decrease_rate(5.0, 5.0) == 0.0
    assert decrease_rate(7.5, 0.0) == 100.0


def test_decrease_rate_rejects_nonpositive_normal():
    with pytest.raises(ValueError) as exc:
        decrease_rate(-3.0, -75.7)
    assert "-3.0" in str(exc.value) and "-75.7" in str(exc.value)


# ---------------------------------------------------------------------------
# quantization / upsampling / overlay

def test_quantize_rule_half_goes_to_128():
    assert netpbm.quantize(np.array([0.5]))[0] == 128
    assert netpbm.quantize(np.array([0.0]))[0] == 0
    assert netpbm.quantize(np.array([1.0]))[0] == 255
    assert netpbm.quantize(np.array([2.0]))[0] == 255  # clamped


def test_pgm_roundtrip_within_one_level(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.uniform(0, 1, size=(9, 9))
    path = str(tmp_path / "m.pgm")
    netpbm.write_pgm(path, values)
    back = netpbm.dequantize(netpbm.read_pgm(path))
    assert np.abs(back - values).max() <= 1.0 / 255.0


def test_upsample_blocks_are_7_7_6():
    grid = np.array([[1.0, 2.0, 3.0],
                     [4.0, 5.0, 6.0],
                     [7.0, 8.0, 9.0]])
    up = upsample_nearest(grid, 20)
    assert up.shape == (20, 20)
    col_counts = [(up[0] == v).sum() for v in (1.0, 2.0, 3.0)]
    assert col_counts == [7, 7, 6]
    assert up.min() == grid.min() and up.max() == grid.max()  # same extrema


def test_overlay_formula():
    mask_up = np.full((4, 4), 0.8)
    obs = np.full((4, 4), 0.2)
    rgb = overlay_rgb(mask_up, obs, alpha=0.5)
    np.testing.assert_allclose(rgb[..., 0], 0.5 * 0.8 + 0.5 * 0.2)
    np.testing.assert_allclose(rgb[..., 1], 0.5 * 0.2)
    np.testing.assert_allclose(rgb[..., 2], 0.5 * 0.2)


# ---------------------------------------------------------------------------
# heat maps

def test_record_heatmaps_writes_expected_files(tmp_path):
    config = cfg()
    spec = EnvSpec(name="catch")
    frames = record_heatmaps(weights_for(config), config, spec, episodes=1,
                             seed=4, out_dir=str(tmp_path))
    names = sorted(os.listdir(tmp_path))
    episode_len = spec.size - 1
    assert sum(n.startswith("policy_") for n in names) == episode_len
    assert sum(n.startswith("value_") for n in names) == episode_len
    assert sum(n.startswith("obs_") for n in names) == episode_len
    assert sum(n.startswith("overlay_policy_") for n in names) == episode_len
    assert sum(n.startswith("overlay_value_") for n in names) == episode_len
    with open(tmp_path / "index_0.csv") as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "t,action,value,policy_entropy"
    assert len(lines) - 1 == episode_len
    # a written mask dequantizes back to the trace mask within one level
    frame = frames[0]
    back = netpbm.dequantize(netpbm.read_pgm(tmp_path / "policy_0_0.pgm"))
    assert np.abs(back - frame.mask).max() <= 1.0 / 255.0


def test_record_heatmaps_constant_half_mask_writes_128(tmp_path):
    config = cfg()
    w = weights_for(config)
    w["policy_mask.w"].data[:] = 0.0
    w["policy_mask.b"].data[:] = 0.0
    record_heatmaps(w, config, EnvSpec(name="catch"), episodes=1, seed=4,
                    out_dir=str(tmp_path))
    img = netpbm.read_pgm(tmp_path / "policy_0_0.pgm")
    assert np.all(img == 128)


def test_record_heatmaps_rejects_unmasked_variant(tmp_path):
    config = cfg(policy=False, value=False)
    with pytest.raises(ValueError):
        record_heatmaps(weights_for(config), config, EnvSpec(name="catch"),
                        episodes=1, seed=0, out_dir=str(tmp_path))


def test_record_heatmaps_frames_equal_an_unbatched_replay(tmp_path):
    spec = EnvSpec(name="fuel", episode_cap=60)
    config = cfg(n_actions=6, fe_channels=(4, 4, 8), lstm_channels=8, branch_channels=4)
    w = weights_for(config, seed=2)
    frames = record_heatmaps(w, config, spec, episodes=3, seed=0, out_dir=str(tmp_path),
                             greedy=False)
    expected = per_episode_replay(w, config, spec, 3, seed=0, greedy=False)
    assert len({len(steps) for _, steps in expected}) == 3, "episodes of equal length"
    replayed = [(t, branch, trace, action) for _, steps in expected
                for t, (trace, action) in enumerate(steps) for branch in ("policy", "value")]
    assert len(frames) == len(replayed)
    for frame, (t, branch, trace, action) in zip(frames, replayed):
        mask = (trace.m_p if branch == "policy" else trace.m_v).data[0]
        assert (frame.timestep, frame.branch, frame.action) == (t, branch, action)
        assert np.array_equal(frame.mask, mask) and frame.value == trace.value_scalar


def test_record_heatmaps_deterministic_bytes(tmp_path):
    config = cfg()
    w = weights_for(config)
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        record_heatmaps(w, config, EnvSpec(name="catch"), episodes=1, seed=9,
                        out_dir=str(out))
        blobs.append({n: (out / n).read_bytes() for n in os.listdir(out)})
    assert blobs[0] == blobs[1]


# ---------------------------------------------------------------------------
# injection response

def full_bar_injection(size=20, start=3, duration=None, rows=3):
    sprite = np.full((rows, size), 0.9, dtype=np.float32)
    stencil = np.ones((rows, size), dtype=bool)
    return InjectionSpec(sprite, stencil, position=(size - rows, 0),
                         start_frame=start, duration=duration)


def test_injection_zero_duration_equals_uninjected():
    config = cfg(n_actions=6)
    w = weights_for(config)
    spec = EnvSpec(name="fuel")
    rep_inj = injection_response(w, config, spec, full_bar_injection(duration=0),
                                 window=(0, 8), seed=3)
    rep_plain = injection_response(w, config, spec, full_bar_injection(duration=0, start=4),
                                   window=(0, 8), seed=3)
    assert [dict(r, injected=None) for r in rep_inj.rows] == \
        [dict(r, injected=None) for r in rep_plain.rows]
    assert not any(r["injected"] for r in rep_inj.rows)


def test_injection_whole_frame_region_mean_is_global_mean():
    config = cfg(n_actions=6)
    w = weights_for(config)
    size = 20
    sprite = np.zeros((size, size), dtype=np.float32)
    stencil = np.ones((size, size), dtype=bool)
    inj = InjectionSpec(sprite, stencil, position=(0, 0), start_frame=3, duration=0)
    rep = injection_response(w, config, EnvSpec(name="fuel"), inj,
                             window=(0, 3), seed=5)
    assert rep.region.all()
    # with the region covering everything, compare against a fresh forward
    from maskac.network import RecurrentState, forward
    from maskac.envs import make_env
    from maskac.analysis import _episode_seed
    env = make_env(EnvSpec(name="fuel"))
    env.reset(seed=_episode_seed(5, 0))
    trace = forward(env.observe(), RecurrentState.zeros(config, np.float32),
                    {k: v for k, v in w.items()}, config)
    assert abs(rep.rows[0]["region_mean_policy"] - float(trace.m_p.data.mean())) < 1e-6


def test_injection_window_must_cover_start_frame():
    config = cfg(n_actions=6)
    with pytest.raises(ValueError):
        injection_response(weights_for(config), config, EnvSpec(name="fuel"),
                           full_bar_injection(start=50), window=(0, 10), seed=0)


def test_injection_report_carries_action_probabilities():
    config = cfg(n_actions=6)
    w = weights_for(config)
    rep = injection_response(w, config, EnvSpec(name="fuel"),
                             full_bar_injection(start=2), window=(0, 6), seed=7)
    assert rep.action_names == ("up", "down", "left", "right", "stay", "collect")
    for row in rep.rows:
        assert len(row["probs"]) == 6
        assert abs(sum(row["probs"]) - 1.0) < 1e-5
        assert 0.0 < row["region_mean_policy"] < 1.0
        assert 0.0 < row["region_mean_value"] < 1.0
    assert [r["injected"] for r in rep.rows] == [False, False] + [True] * 5


@pytest.mark.parametrize("config", [
    cfg(),                                       # 3 actions, fuel has 6
    cfg(n_actions=6, input_hw=30),               # 30-pixel input, fuel is 20 pixels
    cfg(policy=False, value=False, n_actions=6),  # no mask to probe
])
def test_injection_rejects_a_network_that_does_not_fit(config):
    with pytest.raises(VariantError):
        injection_response(weights_for(config), config, EnvSpec(name="fuel"),
                           full_bar_injection(), window=(0, 4), seed=0)


def test_injection_report_ends_with_the_episode():
    # a catch episode makes 19 decisions; the terminal frame gets no forward
    config = cfg()
    sprite = InjectionSpec(np.full((2, 5), 0.6), np.ones((2, 5), bool), (3, 3), start_frame=2)
    rep = injection_response(weights_for(config), config, EnvSpec(name="catch"), sprite,
                             window=(0, 30), seed=1)
    assert [r["t"] for r in rep.rows] == list(range(19))


def test_stencil_region_majority_rule():
    # a sprite covering one full 7x7 block and a sliver of the next
    stencil = np.ones((7, 9), dtype=bool)
    region = stencil_region_cells(stencil, (0, 0), obs_size=20, grid_size=3)
    assert region[0, 0]          # fully covered
    assert not region[0, 1]      # 2 of 7 columns covered: below half
    assert not region[1, 0]      # no rows covered
    stencil2 = np.ones((7, 11), dtype=bool)  # 4 of 7 columns of block 1
    region2 = stencil_region_cells(stencil2, (0, 0), obs_size=20, grid_size=3)
    assert region2[0, 1]


# ---------------------------------------------------------------------------
# variant comparison (tiny budget; learning quality is covered by acceptance)

def small_base_config():
    return NetworkConfig(fe_channels=(4, 4, 8), lstm_channels=8, branch_channels=4)

def test_compare_variants_structure(tmp_path):
    spec = EnvSpec(name="catch")
    hyper = Hyperparams(total_steps=60, n_workers=1, t_max=10)
    rows = compare_variants(spec, small_base_config(), seeds=[0, 1], hyper=hyper, episodes=3,
                            out_dir=str(tmp_path))
    # 4 variants x (2 seeds + best row)
    assert len(rows) == 4 * 3
    variants = [r["variant"] for r in rows]
    for v in ("vanilla", "policy", "value", "both"):
        assert variants.count(v) == 3
    best_rows = [r for r in rows if r["seed"] == "best"]
    assert len(best_rows) == 4
    for r in best_rows:
        seeds_of_variant = [x["mean"] for x in rows
                            if x["variant"] == r["variant"] and x["seed"] != "best"]
        assert r["mean"] == max(seeds_of_variant)
    table = (tmp_path / "variants.csv").read_text().strip().splitlines()
    assert table[0] == "variant,policy_mask,value_mask,seed,max,mean"
    assert len(table) == 1 + 12


def test_compare_variants_reuses_existing_runs(tmp_path):
    spec = EnvSpec(name="catch")
    hyper = Hyperparams(total_steps=40, n_workers=1, t_max=10)
    rows1 = compare_variants(spec, small_base_config(), seeds=[0], hyper=hyper, episodes=2,
                             out_dir=str(tmp_path))
    mtimes = {}
    for root, _, files in os.walk(tmp_path):
        for f in files:
            if f.endswith(".ma3c"):
                p = os.path.join(root, f)
                mtimes[p] = os.path.getmtime(p)
    rows2 = compare_variants(spec, small_base_config(), seeds=[0], hyper=hyper, episodes=2,
                             out_dir=str(tmp_path))
    for p, m in mtimes.items():
        assert os.path.getmtime(p) == m  # nothing was retrained
    assert [r["mean"] for r in rows1] == [r["mean"] for r in rows2]
