"""Checkpoint format, config parsing, and the command-line surface."""

import errno
import os
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from maskac import checkpoint, netpbm
from maskac.analysis import EpisodeStats
from maskac.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from maskac.cli import (CONFIG_DEFAULTS, EXIT_ARGUMENT, EXIT_CHECKPOINT,
                        EXIT_CONFIG, EXIT_OK, EXIT_VARIANT, ResolvedConfig,
                        main, parse_config_file)
from maskac.network import NetworkConfig, init_weights, weight_names, weight_shapes


def cfg(policy=True, value=True, **kw):
    return NetworkConfig(policy_mask_enabled=policy, value_mask_enabled=value, **kw)


def write_config(path, **overrides):
    lines = [f"{k}={v}" for k, v in overrides.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def small_net_overrides():
    return dict(fe_channels="4,4,8", lstm_channels="8", branch_channels="4")


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_roundtrip_bit_identical(tmp_path):
    for variant in ((False, False), (True, False), (False, True), (True, True)):
        config = cfg(policy=variant[0], value=variant[1])
        weights = init_weights(config, seed=7)
        path = str(tmp_path / f"w_{variant[0]}_{variant[1]}.ma3c")
        save_checkpoint(weights, config, path)
        loaded, loaded_config = load_checkpoint(path)
        assert loaded_config == config
        assert set(loaded) == set(weights)
        for k in weights:
            assert np.array_equal(loaded[k], weights[k].data)
        # saving what was loaded reproduces the same bytes
        path2 = str(tmp_path / "again.ma3c")
        save_checkpoint(loaded, loaded_config, path2)
        assert open(path, "rb").read() == open(path2, "rb").read()


def test_checkpoint_detects_single_bit_corruption(tmp_path):
    config = cfg()
    path = str(tmp_path / "w.ma3c")
    save_checkpoint(init_weights(config, seed=0), config, path)
    blob = bytearray(open(path, "rb").read())
    blob[len(blob) // 2] ^= 0x01
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_detects_truncation(tmp_path):
    config = cfg()
    path = str(tmp_path / "w.ma3c")
    save_checkpoint(init_weights(config, seed=0), config, path)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-9])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = str(tmp_path / "w.ma3c")
    open(path, "wb").write(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_name_set_must_match_config(tmp_path):
    config = cfg()
    weights = init_weights(config, seed=0)
    weights.pop("policy_mask.w")
    path = str(tmp_path / "w.ma3c")
    save_checkpoint(weights, config, path)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def tiny_cfg(**kw):
    return NetworkConfig(fe_channels=(1, 1, 1), lstm_channels=1, branch_channels=1, **kw)


def with_crc(body):
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def rewrite_config(path, edit):
    """Replace the config block of a checkpoint by ``edit(block)``, with a valid CRC."""
    body = open(path, "rb").read()[:-4]
    (n,) = struct.unpack_from("<I", body, 8)
    block = edit(body[12:12 + n])
    open(path, "wb").write(with_crc(body[:8] + struct.pack("<I", len(block)) + block
                                    + body[12 + n:]))


@pytest.mark.parametrize("edit", [
    lambda b: b.replace(b"lstm_channels=1", b"lstm_channels=one"),
    lambda b: b.replace(b"input_hw=20", b"input_hw=2\xff0"),
    lambda b: b.replace(b"n_actions=3", b"n_actions=0"),
    lambda b: b.replace(b"conv_stride=2", b"conv_stride=0"),
    lambda b: b.replace(b"fe_channels=1,1,1", b"fe_channels=1,1"),
    lambda b: b + b"\ncolour=blue",
], ids=["non-int", "non-utf8", "n_actions-0", "stride-0", "two-fe-channels", "unknown-key"])
def test_checkpoint_bad_config_raises_checkpoint_error(tmp_path, capsys, edit):
    config = tiny_cfg()
    path = str(tmp_path / "w.ma3c")
    save_checkpoint(init_weights(config, seed=0), config, path)
    rewrite_config(path, edit)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    assert main(["eval", "--ckpt", path, "--episodes", "1"]) == EXIT_CHECKPOINT
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_checkpoint_config_block_of_the_default_config(tmp_path):
    path = str(tmp_path / "w.ma3c")
    save_checkpoint({}, NetworkConfig(), path)
    body = open(path, "rb").read()
    (n,) = struct.unpack_from("<I", body, 8)
    assert body[12:12 + n] == (
        b"input_hw=20\nfe_channels=32,32,64\nlstm_channels=64\nbranch_channels=32\n"
        b"n_actions=3\npolicy_mask_enabled=true\nvalue_mask_enabled=true\nconv_kernel=3\n"
        b"conv_stride=2\nconv_padding=1")


@pytest.mark.parametrize("field", ["lstm_channels", "branch_channels", "conv_kernel"])
def test_checkpoint_whose_config_has_a_zero_size_loads_as_an_error(tmp_path, capsys, field):
    # weights shaped to match, as a writer that skipped validation would save them
    config = tiny_cfg()
    object.__setattr__(config, field, 0)
    path = str(tmp_path / "w.ma3c")
    save_checkpoint({name: np.zeros(shape, np.float32)
                     for name, shape in weight_shapes(config).items()}, config, path)
    with pytest.raises(CheckpointError, match=field):
        load_checkpoint(path)
    assert main(["eval", "--ckpt", path, "--episodes", "1"]) == EXIT_CHECKPOINT
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_checkpoint_dims_whose_product_wraps_int64_are_rejected(tmp_path):
    # 2**31 * 2**31 * 4 is 2**64, which an int64 product wraps to 0 bytes
    config = tiny_cfg()
    path = str(tmp_path / "w.ma3c")
    save_checkpoint(init_weights(config, seed=0), config, path)
    body = open(path, "rb").read()[:-4]
    (n,) = struct.unpack_from("<I", body, 8)
    head = body[:12 + n]
    record = struct.pack("<H", 5) + b"fe1.w" + struct.pack("<B3I", 3, 2**31, 2**31, 4)
    open(path, "wb").write(with_crc(head + struct.pack("<I", 1) + record))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    config = tiny_cfg()
    path = str(tmp_path_factory.mktemp("ckpt") / "w.ma3c")
    save_checkpoint(init_weights(config, seed=0), config, path)
    return path, open(path, "rb").read()


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_checkpoint_bytes_raise_only_checkpoint_error(tiny_checkpoint, data):
    path, raw = tiny_checkpoint
    body = bytearray(raw[:-4])
    for pos, value in data.draw(st.lists(st.tuples(st.integers(0, len(body) - 1),
                                                   st.integers(0, 255)), max_size=6)):
        body[pos] = value
    cut = data.draw(st.integers(0, len(body)))
    body[cut:cut] = data.draw(st.binary(max_size=12))
    body = body[:data.draw(st.integers(0, len(body)))] if data.draw(st.booleans()) else body
    mutated = path + ".mutated"
    with open(mutated, "wb") as fh:
        fh.write(with_crc(bytes(body)))
    try:
        load_checkpoint(mutated)
    except CheckpointError:
        pass


class _FailingFile:
    """File stand-in whose second write fails as a full disk would."""

    def __init__(self, fh):
        self._fh, self._writes = fh, 0

    def write(self, data):
        self._writes += 1
        if self._writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def test_checkpoint_save_failing_partway_leaves_no_file(tmp_path, monkeypatch):
    config = tiny_cfg()
    weights = init_weights(config, seed=0)
    kept = str(tmp_path / "ckpt_5.ma3c")
    save_checkpoint(weights, config, kept)
    before = open(kept, "rb").read()
    monkeypatch.setattr(checkpoint, "open", lambda *a: _FailingFile(open(*a)), raising=False)
    with pytest.raises(OSError):
        save_checkpoint(weights, config, str(tmp_path / "ckpt_10.ma3c"))
    with pytest.raises(OSError):
        save_checkpoint(init_weights(config, seed=1), config, kept)
    assert os.listdir(tmp_path) == ["ckpt_5.ma3c"]
    assert open(kept, "rb").read() == before


# ---------------------------------------------------------------------------
# config files

def test_config_defaults_and_overrides(tmp_path):
    path = write_config(tmp_path / "c.cfg", lr="0.001", env="fuel")
    raw = parse_config_file(path)
    assert raw["lr"] == "0.001"
    assert raw["env"] == "fuel"
    assert raw["gamma"] == CONFIG_DEFAULTS["gamma"]
    resolved = ResolvedConfig(raw)
    assert resolved.hyper.lr == 0.001
    assert resolved.env_spec.name == "fuel"
    assert resolved.network.n_actions == 6
    assert resolved.env_spec.episode_cap == 200  # auto-resolved


def test_config_defaults_are_the_documented_keys_and_texts():
    assert list(CONFIG_DEFAULTS.items()) == [
        ("env", "catch"), ("size", "20"), ("episode_cap", "auto"),
        ("policy_mask", "true"), ("value_mask", "true"),
        ("fe_channels", "32,32,64"), ("lstm_channels", "64"), ("branch_channels", "32"),
        ("conv_kernel", "3"), ("conv_stride", "2"), ("conv_padding", "1"),
        ("gamma", "0.99"), ("lr", "0.0001"), ("n_workers", "4"), ("t_max", "20"),
        ("entropy_coef", "0.01"), ("value_coef", "0.5"), ("grad_clip_norm", "40.0"),
        ("total_steps", "200000"), ("rmsprop_decay", "0.99"), ("rmsprop_eps", "0.1"),
        ("seed", "0"), ("seeds", "0,1,2,3,4"),
        ("out_dir", "runs/out"), ("checkpoint_interval", "50000"), ("eval_episodes", "100"),
    ]


# each of these crashed a run, trained on to a non-finite checkpoint,
# flipped the sign of every update or skipped every update; episode_cap=0
# meant the default cap, and episode_step_cap and precision are no longer keys
@pytest.mark.parametrize("key,value", [
    ("lstm_channels", "0"), ("lstm_channels", "-2"), ("branch_channels", "0"),
    ("fe_channels", "0,4,4"), ("conv_kernel", "0"), ("conv_padding", "-1"),
    ("lr", "nan"), ("rmsprop_eps", "0"), ("grad_clip_norm", "-1"), ("rmsprop_decay", "1"),
    ("entropy_coef", "nan"), ("entropy_coef", "-0.01"), ("value_coef", "nan"),
    ("value_coef", "inf"), ("seed", "-1"), ("seeds", "0,-1"),
    ("episode_cap", "0"), ("episode_step_cap", "10000"), ("precision", "double"),
])
def test_config_value_that_breaks_a_run_exits_2_with_one_line(tmp_path, capsys, key, value):
    settings = dict(total_steps="20", n_workers="1", conv_stride="1",
                    out_dir=str(tmp_path / "run"), **small_net_overrides())
    settings[key] = value
    assert main(["train", write_config(tmp_path / "c.cfg", **settings)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "run").exists()


def test_config_rejects_unknown_key(tmp_path):
    path = write_config(tmp_path / "c.cfg", nonsense="1")
    with pytest.raises(Exception):
        parse_config_file(path)
    assert main(["train", path]) == EXIT_CONFIG


def test_config_rejects_zero_eval_episodes(tmp_path):
    path = write_config(tmp_path / "c.cfg", eval_episodes="0")
    assert main(["compare", path]) == EXIT_CONFIG


def test_config_missing_file_exit_code(capsys):
    assert main(["train", "/nonexistent/nowhere.cfg"]) == EXIT_CONFIG
    assert "/nonexistent/nowhere.cfg" in capsys.readouterr().err


def test_config_resolved_roundtrip(tmp_path):
    cfg_path = write_config(tmp_path / "c.cfg", total_steps="0", n_workers="1",
                            out_dir=str(tmp_path / "run"), **small_net_overrides())
    assert main(["train", cfg_path]) == EXIT_OK
    resolved_path = tmp_path / "run" / "config.resolved"
    assert resolved_path.is_file()
    # feeding the resolved config back reproduces the identical resolution
    raw2 = parse_config_file(str(resolved_path))
    text2 = ResolvedConfig(raw2).resolved_text()
    assert text2 == resolved_path.read_text()


# ---------------------------------------------------------------------------
# train / eval / viz

def trained_tiny_run(tmp_path, **extra):
    os.makedirs(tmp_path, exist_ok=True)
    out = tmp_path / "run"
    settings = dict(total_steps="60", n_workers="1", t_max="10", out_dir=str(out),
                    checkpoint_interval="1000000", **small_net_overrides())
    settings.update(extra)
    cfg_path = write_config(tmp_path / "c.cfg", **settings)
    assert main(["train", cfg_path]) == EXIT_OK
    ckpts = sorted(p for p in os.listdir(out) if p.endswith(".ma3c"))
    final = max(ckpts, key=lambda n: int(n[5:-5]))
    return out, str(out / final)


def test_train_writes_metrics_and_loadable_checkpoint(tmp_path):
    out, ckpt = trained_tiny_run(tmp_path)
    assert (out / "metrics.csv").stat().st_size > 0
    weights, config = load_checkpoint(ckpt)
    assert set(weights) == set(weight_names(config))


def test_train_zero_steps_single_checkpoint(tmp_path):
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path / "c.cfg", total_steps="0", n_workers="1",
                            out_dir=str(out), **small_net_overrides())
    assert main(["train", cfg_path]) == EXIT_OK
    assert [p for p in os.listdir(out) if p.endswith(".ma3c")] == ["ckpt_0.ma3c"]


def test_eval_prints_stats_and_writes_csv(tmp_path, capsys):
    out, ckpt = trained_tiny_run(tmp_path)
    csv = str(tmp_path / "eval.csv")
    assert main(["eval", "--ckpt", ckpt, "--episodes", "3", "--seed", "1",
                 "--greedy", "--out", csv]) == EXIT_OK
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("max=") and "mean=" in line and line.endswith("n=3")
    rows = open(csv).read().strip().splitlines()
    assert rows[0] == "episode,return"
    assert len(rows) == 4


def test_eval_deterministic_byte_identical(tmp_path):
    out, ckpt = trained_tiny_run(tmp_path)
    blobs = []
    for name in ("a.csv", "b.csv"):
        csv = str(tmp_path / name)
        assert main(["eval", "--ckpt", ckpt, "--episodes", "4", "--seed", "2",
                     "--greedy", "--out", csv]) == EXIT_OK
        blobs.append(open(csv, "rb").read())
    assert blobs[0] == blobs[1]


def test_eval_corrupted_checkpoint_exit_3(tmp_path):
    out, ckpt = trained_tiny_run(tmp_path)
    blob = bytearray(open(ckpt, "rb").read())
    blob[100] ^= 0x10
    open(ckpt, "wb").write(bytes(blob))
    assert main(["eval", "--ckpt", ckpt, "--episodes", "1"]) == EXIT_CHECKPOINT


def test_eval_inverse_on_vanilla_exit_4(tmp_path):
    out, ckpt = trained_tiny_run(tmp_path, policy_mask="false", value_mask="false")
    assert main(["eval", "--ckpt", ckpt, "--episodes", "1",
                 "--mask", "inverse"]) == EXIT_VARIANT
    assert main(["eval", "--ckpt", ckpt, "--episodes", "1",
                 "--mask", "ones"]) == EXIT_VARIANT
    assert main(["eval", "--ckpt", ckpt, "--episodes", "1"]) == EXIT_OK


def test_eval_mask_ones_matches_vanilla_twin(tmp_path, capsys):
    # same seed stream: shared layers of the masked run equal the vanilla run
    out_m, ckpt_m = trained_tiny_run(tmp_path, total_steps="0")
    vdir = tmp_path / "v"
    cfg_path = write_config(tmp_path / "v.cfg", total_steps="0", n_workers="1",
                            out_dir=str(vdir), policy_mask="false", value_mask="false",
                            **small_net_overrides())
    assert main(["train", cfg_path]) == EXIT_OK
    ckpt_v = str(vdir / "ckpt_0.ma3c")
    outs = []
    for ck, mask in ((ckpt_m, "ones"), (ckpt_v, "normal")):
        assert main(["eval", "--ckpt", ck, "--episodes", "5", "--seed", "4",
                     "--greedy", "--mask", mask,
                     "--out", str(tmp_path / "o.csv")]) == EXIT_OK
        outs.append((capsys.readouterr().out.strip().splitlines()[-1],
                     open(tmp_path / "o.csv").read()))
    assert outs[0] == outs[1]


def test_viz_writes_files_and_rejects_vanilla(tmp_path):
    out, ckpt = trained_tiny_run(tmp_path)
    viz_dir = str(tmp_path / "viz")
    assert main(["viz", "--ckpt", ckpt, "--episodes", "1", "--seed", "3",
                 "--out", viz_dir]) == EXIT_OK
    names = os.listdir(viz_dir)
    n_pgm = sum(n.endswith(".pgm") for n in names)
    n_ppm = sum(n.endswith(".ppm") for n in names)
    n_csv = sum(n.endswith(".csv") for n in names)
    assert n_pgm > 0 and n_ppm > 0 and n_csv == 1
    assert n_pgm == 3 * (n_pgm // 3)  # policy + value + obs per step

    out_v, ckpt_v = trained_tiny_run(tmp_path / "v", policy_mask="false",
                                     value_mask="false")
    assert main(["viz", "--ckpt", ckpt_v, "--episodes", "1",
                 "--out", str(tmp_path / "viz2")]) == EXIT_VARIANT


@pytest.mark.parametrize("command", ["eval", "viz", "inject"])
@pytest.mark.parametrize("n_actions,flags", [(6, ["--size", "30"]), (3, [])],
                         ids=["size-30", "3-action-checkpoint"])
def test_checkpoint_that_does_not_fit_the_env_exits_4_with_one_line(tmp_path, capsys,
                                                                      command, n_actions, flags):
    # a 20-pixel network on fuel, run at size 30 or with fuel's 6 actions against its 3
    config = cfg(n_actions=n_actions, fe_channels=(4, 4, 8), lstm_channels=8, branch_channels=4)
    ckpt = str(tmp_path / "w.ma3c")
    save_checkpoint(init_weights(config, seed=0), config, ckpt)
    argv = {"eval": ["--episodes", "1"],
            "viz": ["--out", str(tmp_path / "viz")],
            "inject": ["--sprite", write_sprite(tmp_path), "--pos", "17,0", "--frame", "2",
                       "--window", "0,4"]}[command]
    assert main([command, "--ckpt", ckpt, "--env", "fuel", *argv, *flags]) == EXIT_VARIANT
    err = capsys.readouterr().err
    assert err.startswith("variant mismatch:") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "viz").exists()


def test_viz_rerun_byte_identical(tmp_path):
    out, ckpt = trained_tiny_run(tmp_path)
    blobs = []
    for d in ("viz_a", "viz_b"):
        viz_dir = tmp_path / d
        assert main(["viz", "--ckpt", ckpt, "--episodes", "1", "--seed", "5",
                     "--out", str(viz_dir)]) == EXIT_OK
        blobs.append({n: (viz_dir / n).read_bytes() for n in os.listdir(viz_dir)})
    assert blobs[0] == blobs[1]


# ---------------------------------------------------------------------------
# inject

def write_sprite(tmp_path, shape=(3, 20), value=0.9):
    path = str(tmp_path / "sprite.pgm")
    netpbm.write_pgm(path, np.full(shape, value))
    return path


def test_inject_report_csv(tmp_path):
    out, ckpt = trained_tiny_run(tmp_path, env="fuel")
    sprite = write_sprite(tmp_path)
    csv = str(tmp_path / "report.csv")
    assert main(["inject", "--ckpt", ckpt, "--sprite", sprite, "--pos", "17,0",
                 "--frame", "4", "--window", "0,8", "--env", "fuel",
                 "--seed", "1", "--out", csv]) == EXIT_OK
    rows = open(csv).read().strip().splitlines()
    assert rows[0] == ("t,injected,region_mean_policy,region_mean_value,value,"
                       "p_up,p_down,p_left,p_right,p_stay,p_collect")
    assert len(rows) == 10
    injected_flags = [r.split(",")[1] for r in rows[1:]]
    assert injected_flags == ["0"] * 4 + ["1"] * 5


def test_inject_window_must_cover_frame(tmp_path):
    out, ckpt = trained_tiny_run(tmp_path, env="fuel")
    sprite = write_sprite(tmp_path)
    assert main(["inject", "--ckpt", ckpt, "--sprite", sprite, "--pos", "17,0",
                 "--frame", "30", "--window", "0,8", "--env", "fuel"]) == EXIT_ARGUMENT


def test_inject_out_of_bounds_sprite(tmp_path):
    out, ckpt = trained_tiny_run(tmp_path, env="fuel")
    sprite = write_sprite(tmp_path)
    assert main(["inject", "--ckpt", ckpt, "--sprite", sprite, "--pos", "19,5",
                 "--frame", "2", "--window", "0,4", "--env", "fuel"]) == EXIT_ARGUMENT


@pytest.mark.parametrize("case", ["duration-abc", "missing-sprite", "not-p5", "oversized-header"])
def test_inject_bad_duration_or_sprite_exit_5_with_one_line(tmp_path, capsys, case):
    spec_cfg = NetworkConfig(n_actions=6, fe_channels=(4, 4, 8), lstm_channels=8,
                             branch_channels=4)
    ckpt = str(tmp_path / "w.ma3c")
    save_checkpoint(init_weights(spec_cfg, seed=0), spec_cfg, ckpt)
    sprite, duration = write_sprite(tmp_path), "3"
    if case == "duration-abc":
        duration = "abc"
    elif case == "missing-sprite":
        sprite = str(tmp_path / "absent.pgm")
    elif case == "not-p5":
        sprite = str(tmp_path / "sprite.ppm")
        netpbm.write_ppm(sprite, np.zeros((3, 20, 3)))
    else:
        sprite = str(tmp_path / "huge.pgm")
        open(sprite, "wb").write(b"P5\n99999999 99999999\n255\n\x00")
    assert main(["inject", "--ckpt", ckpt, "--sprite", sprite, "--pos", "17,0",
                 "--frame", "2", "--window", "0,4", "--env", "fuel",
                 "--duration", duration]) == EXIT_ARGUMENT
    err = capsys.readouterr().err
    assert err.startswith("invalid argument:") and len(err.strip().splitlines()) == 1
    assert ("--duration" if case == "duration-abc" else "--sprite") in err


def test_inject_zero_intensity_full_stencil(tmp_path):
    out, ckpt = trained_tiny_run(tmp_path, env="fuel")
    sprite = write_sprite(tmp_path, value=0.0)
    csv = str(tmp_path / "report.csv")
    assert main(["inject", "--ckpt", ckpt, "--sprite", sprite, "--pos", "17,0",
                 "--frame", "2", "--window", "0,4", "--env", "fuel",
                 "--stencil-threshold", "0", "--out", csv]) == EXIT_OK
    assert len(open(csv).read().strip().splitlines()) == 6


# ---------------------------------------------------------------------------
# misc commands

def test_random_baseline_command(tmp_path, capsys):
    csv = str(tmp_path / "rb.csv")
    assert main(["random-baseline", "--env", "catch", "--episodes", "50",
                 "--seed", "3", "--out", csv]) == EXIT_OK
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert "mean=" in line and line.endswith("n=50")
    assert len(open(csv).read().strip().splitlines()) == 51


@pytest.mark.parametrize("command", ["eval", "viz", "inject", "random-baseline"])
def test_negative_seed_exits_5_with_one_line(tmp_path, capsys, command):
    argv = {"eval": ["--ckpt", "w.ma3c"],
            "viz": ["--ckpt", "w.ma3c", "--out", "viz"],
            "inject": ["--ckpt", "w.ma3c", "--sprite", "s.pgm", "--pos", "0,0",
                       "--frame", "0", "--window", "0,1"],
            "random-baseline": ["--episodes", "3"]}[command]
    assert main([command, *argv, "--seed", "-1"]) == EXIT_ARGUMENT
    err = capsys.readouterr().err
    assert err.startswith("invalid argument:") and "--seed" in err
    assert len(err.strip().splitlines()) == 1


def test_bad_cli_arguments_exit_5():
    assert main(["eval"]) == EXIT_ARGUMENT           # missing --ckpt
    assert main(["frobnicate"]) == EXIT_ARGUMENT     # unknown subcommand


def test_zero_episodes_exit_5_with_one_line(tmp_path, capsys):
    config = cfg()
    ckpt = str(tmp_path / "w.ma3c")
    save_checkpoint(init_weights(config, seed=0), config, ckpt)
    viz_dir = str(tmp_path / "viz")
    for argv in (["eval", "--ckpt", ckpt, "--episodes", "0"],
                 ["random-baseline", "--episodes", "0"],
                 ["random-baseline", "--episodes", "-3"],
                 ["viz", "--ckpt", ckpt, "--out", viz_dir, "--episodes", "0"],
                 ["viz", "--ckpt", ckpt, "--out", viz_dir, "--episodes", "-1"]):
        assert main(argv) == EXIT_ARGUMENT
        err = capsys.readouterr().err
        assert err.startswith("invalid argument:") and "--episodes" in err
        assert len(err.strip().splitlines()) == 1
    assert not os.path.exists(viz_dir)
    with pytest.raises(ValueError):
        EpisodeStats.from_returns([])


# below these sizes an env's layout does not fit: a traceback before, and
# collector at size 3 looped for ever placing its chaser
@pytest.mark.parametrize("env,too_small,smallest", [
    ("catch", (6, 1, 0, -5), 7),
    ("collector", (5, 4, 3, 2, 1), 6),
    ("fuel", (8, 3, 0), 9),
])
def test_size_an_env_cannot_lay_out_exits_5(env, too_small, smallest, capsys):
    for size in too_small:
        assert main(["random-baseline", "--env", env, "--size", str(size),
                     "--episodes", "2"]) == EXIT_ARGUMENT
        err = capsys.readouterr().err
        assert err.startswith("invalid argument: --size") and f"size >= {smallest}" in err
        assert len(err.strip().splitlines()) == 1
    assert main(["random-baseline", "--env", env, "--size", str(smallest),
                 "--episodes", "20"]) == EXIT_OK


def test_config_size_an_env_cannot_lay_out_exits_2(tmp_path, capsys):
    # stride 1 keeps a 6x6 input a valid network, so only the env rejects it
    cfg_path = write_config(tmp_path / "c.cfg", env="catch", size="6", conv_stride="1",
                            total_steps="20", out_dir=str(tmp_path / "run"),
                            **small_net_overrides())
    assert main(["train", cfg_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "size >= 7" in err
    assert not (tmp_path / "run").exists()


def test_compare_command(tmp_path, capsys):
    out = tmp_path / "cmp"
    cfg_path = write_config(tmp_path / "c.cfg", total_steps="40", n_workers="1",
                            t_max="10", seeds="0", eval_episodes="2",
                            out_dir=str(out), **small_net_overrides())
    assert main(["compare", cfg_path]) == EXIT_OK
    assert (out / "variants.csv").is_file()
    text = capsys.readouterr().out
    for v in ("vanilla", "policy", "value", "both"):
        assert v in text
