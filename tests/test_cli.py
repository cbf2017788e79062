"""Checkpoint format, config parsing, and the command-line surface."""

import csv
import errno
import hashlib
import math
import os
import shutil
import struct
import tempfile
from pathlib import Path
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from maskac import checkpoint, cli, netpbm
from maskac.analysis import EpisodeStats, evaluate, injection_response, random_baseline
from maskac.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from maskac.envs import ENV_NAMES, EnvSpec, InjectionSpec
from maskac.cli import (CONFIG_DEFAULTS, EXIT_ARGUMENT, EXIT_CHECKPOINT,
                        EXIT_CONFIG, EXIT_OK, EXIT_VARIANT, ResolvedConfig,
                        main, parse_config_file)
from maskac.network import NetworkConfig, init_weights, weight_shapes
from maskac.training import _final_checkpoint


def cfg(policy=True, value=True, **kw):
    return NetworkConfig(policy_mask_enabled=policy, value_mask_enabled=value, **kw)


def write_config(path, **overrides):
    lines = [f"{k}={v}" for k, v in overrides.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def read_table(path, header):
    """The rows of a CSV file after its header, which must be ``header``."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header
    return rows[1:]


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
        assert Path(path).read_bytes() == Path(path2).read_bytes()


# sha256 of the checkpoint of ``init_weights(NetworkConfig(), 0)``, as written
# before the engine went channel-last: the file keeps the paper's layout
# (OIHW kernels, (c,h,w) dense columns) and version 1, so every run's ckpt_0
# keeps its bytes; the draws and the file need no BLAS
DEFAULT_INIT_CHECKPOINT_SHA256 = "4d9ffafed0df3a5196abdd2d16b9e145485270ffdaaf4d27d337a32b615234f8"


def test_default_init_checkpoint_bytes_are_pinned_and_load_in_memory_layout(tmp_path):
    config = NetworkConfig()
    weights = init_weights(config, 0)
    path = tmp_path / "ckpt_0.ma3c"
    save_checkpoint(weights, config, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DEFAULT_INIT_CHECKPOINT_SHA256
    loaded, _ = load_checkpoint(str(path))
    assert loaded.keys() == weights.keys()
    assert loaded["lstm.w"].shape == (3, 3, 128, 256)              # HWIO in memory
    for name, tensor in weights.items():
        assert loaded[name].shape == tensor.shape and np.array_equal(loaded[name], tensor.data)


def test_checkpoint_detects_single_bit_corruption(tmp_path):
    config = cfg()
    path = str(tmp_path / "w.ma3c")
    save_checkpoint(init_weights(config, seed=0), config, path)
    blob = bytearray(Path(path).read_bytes())
    blob[len(blob) // 2] ^= 0x01
    Path(path).write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_detects_truncation(tmp_path):
    config = cfg()
    path = str(tmp_path / "w.ma3c")
    save_checkpoint(init_weights(config, seed=0), config, path)
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[:-9])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = str(tmp_path / "w.ma3c")
    Path(path).write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_name_set_must_match_config(tmp_path):
    # a policy-only network's tensors under a config block that claims both masks
    config = cfg(value=False)
    path = str(tmp_path / "w.ma3c")
    save_checkpoint(init_weights(config, seed=0), config, path)
    rewrite_config(path, lambda b: b.replace(b"value_mask_enabled=false",
                                             b"value_mask_enabled=true"))
    with pytest.raises(CheckpointError, match="value_mask.w"):
        load_checkpoint(path)


def test_checkpoint_tensor_shapes_must_match_config(tmp_path, capsys):
    config = tiny_cfg()
    path = str(tmp_path / "w.ma3c")
    save_checkpoint(init_weights(config, seed=0), config, path)
    rewrite_config(path, lambda b: b.replace(b"n_actions=3", b"n_actions=4"))
    with pytest.raises(CheckpointError, match="policy_out.w"):
        load_checkpoint(path)
    assert main(["eval", "--ckpt", path, "--episodes", "1"]) == EXIT_CHECKPOINT
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


@pytest.mark.parametrize("edit", [
    lambda w: w.update(extra=np.zeros(1)), lambda w: w.pop("policy_mask.w"),
    lambda w: w.update({"fe1.b": np.zeros(5)}),
], ids=["extra", "missing", "shape"])
def test_save_checkpoint_rejects_weights_that_do_not_fit_before_writing(tmp_path, edit):
    config = tiny_cfg()
    weights = init_weights(config, seed=0)
    edit(weights)
    with pytest.raises(ValueError):
        save_checkpoint(weights, config, str(tmp_path / "w.ma3c"))
    assert os.listdir(tmp_path) == []


def tiny_cfg(**kw):
    return NetworkConfig(fe_channels=(1, 1, 1), lstm_channels=1, branch_channels=1, **kw)


def with_crc(body):
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def rewrite_config(path, edit):
    """Replace the config block of a checkpoint by ``edit(block)``, with a valid CRC."""
    body = Path(path).read_bytes()[:-4]
    (n,) = struct.unpack_from("<I", body, 8)
    block = edit(body[12:12 + n])
    Path(path).write_bytes(with_crc(body[:8] + struct.pack("<I", len(block)) + block
                                    + body[12 + n:]))


@pytest.mark.parametrize("edit", [
    lambda b: b.replace(b"lstm_channels=1", b"lstm_channels=one"),
    lambda b: b.replace(b"input_hw=20", b"input_hw=2\xff0"),
    lambda b: b.replace(b"n_actions=3", b"n_actions=0"),
    lambda b: b.replace(b"conv_stride=2", b"conv_stride=0"),
    lambda b: b.replace(b"fe_channels=1,1,1", b"fe_channels=1,1"),
    lambda b: b + b"\ncolour=blue",
    lambda b: b.replace(b"lstm_channels=1", b"lstm_channels=1000000000"),
    lambda b: b + b"\nlstm_channels=1",
], ids=["non-int", "non-utf8", "n_actions-0", "stride-0", "two-fe-channels", "unknown-key",
        "oversized", "repeated-key"])
def test_checkpoint_bad_config_raises_checkpoint_error(tmp_path, capsys, edit):
    config = tiny_cfg()
    path = str(tmp_path / "w.ma3c")
    save_checkpoint(init_weights(config, seed=0), config, path)
    rewrite_config(path, edit)
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: ")
    assert main(["eval", "--ckpt", path, "--episodes", "1"]) == EXIT_CHECKPOINT
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def _record(name, shape):
    """One tensor record of zeros: name, rank, dims and payload, as save_checkpoint lays it out."""
    return (struct.pack("<H", len(name)) + name + struct.pack("<B", len(shape))
            + struct.pack(f"<{len(shape)}I", *shape) + bytes(4 * math.prod(shape)))


# every other way the reader refuses a file whose checksum holds: the body
# built from a saved tiny checkpoint's body, and the words the error names
_REFUSED_BODIES = {
    "shorter-than-12-bytes": (lambda body, n: b"MA3C", "too short"),
    "version-2": (lambda body, n: body[:4] + struct.pack("<I", 2) + body[8:], "version 2"),
    "config-without-input_hw": (
        lambda body, n: body[:8] + struct.pack("<I", n - len(b"input_hw=20\n"))
        + body[12:12 + n].replace(b"input_hw=20\n", b"") + body[12 + n:],
        "missing ['input_hw']"),
    "name-not-utf8": (lambda body, n: body[:12 + n] + struct.pack("<I", 1)
                      + _record(b"fe1.\xff", (1,)), "not utf-8"),
    "65-dims": (lambda body, n: body[:12 + n] + struct.pack("<I", 1)
                + _record(b"fe1.b", (1,) * 65), "has shape"),
    "byte-after-last-record": (lambda body, n: body + b"\x00", "trailing bytes"),
}


@pytest.mark.parametrize("case", list(_REFUSED_BODIES))
def test_checkpoint_reader_refusals_name_the_file(tmp_path, capsys, case):
    config = tiny_cfg()
    path = str(tmp_path / "w.ma3c")
    save_checkpoint(init_weights(config, seed=0), config, path)
    body = Path(path).read_bytes()[:-4]
    make, words = _REFUSED_BODIES[case]
    Path(path).write_bytes(with_crc(make(body, struct.unpack_from("<I", body, 8)[0])))
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: ") and words in str(err.value)
    assert main(["eval", "--ckpt", path, "--episodes", "1"]) == EXIT_CHECKPOINT
    err = capsys.readouterr().err
    assert err.startswith(f"checkpoint error: {path}: ") and len(err.strip().splitlines()) == 1


def test_checkpoint_config_block_of_the_default_config(tmp_path):
    path = str(tmp_path / "w.ma3c")
    save_checkpoint(init_weights(NetworkConfig(), seed=0), NetworkConfig(), path)
    body = Path(path).read_bytes()
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
    body = Path(path).read_bytes()[:-4]
    (n,) = struct.unpack_from("<I", body, 8)
    head = body[:12 + n]
    record = struct.pack("<H", 5) + b"fe1.w" + struct.pack("<B3I", 3, 2**31, 2**31, 4)
    Path(path).write_bytes(with_crc(head + struct.pack("<I", 1) + record))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_that_stores_a_tensor_twice_raises_naming_it(tmp_path, capsys):
    # a second fe1.b record, of 7s, after the ones save_checkpoint wrote
    config = tiny_cfg()
    path = str(tmp_path / "w.ma3c")
    save_checkpoint(init_weights(config, seed=0), config, path)
    body = Path(path).read_bytes()[:-4]
    (n,) = struct.unpack_from("<I", body, 8)
    (count,) = struct.unpack_from("<I", body, 12 + n)
    record = (struct.pack("<H", 5) + b"fe1.b" + struct.pack("<BI", 1, 1)
              + np.full(1, 7, "<f4").tobytes())
    Path(path).write_bytes(with_crc(body[:12 + n] + struct.pack("<I", count + 1)
                                    + body[16 + n:] + record))
    with pytest.raises(CheckpointError, match="'fe1.b' is stored twice"):
        load_checkpoint(path)
    assert main(["eval", "--ckpt", path, "--episodes", "1"]) == EXIT_CHECKPOINT
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    config = tiny_cfg()
    path = str(tmp_path_factory.mktemp("ckpt") / "w.ma3c")
    save_checkpoint(init_weights(config, seed=0), config, path)
    return path, Path(path).read_bytes()


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


def non_finite_checkpoint(path, value):
    """A checkpoint whose ``policy_mask.b`` payload is ``value``, with a valid CRC."""
    config = cfg(fe_channels=(4, 4, 8), lstm_channels=8, branch_channels=4)
    save_checkpoint(init_weights(config, seed=0), config, path)
    body = bytearray(Path(path).read_bytes()[:-4])
    name = b"policy_mask.b"
    at = body.index(struct.pack("<H", len(name)) + name) + 2 + len(name) + 1 + 4   # rank, dim
    body[at:at + 4] = struct.pack("<f", value)
    Path(path).write_bytes(with_crc(bytes(body)))
    return path


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_checkpoint_with_a_non_finite_weight_raises_naming_the_tensor(tmp_path, value):
    path = non_finite_checkpoint(str(tmp_path / "w.ma3c"), value)
    with pytest.raises(CheckpointError, match="tensor policy_mask.b holds a non-finite value"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("command", ["eval", "viz", "inject"])
def test_non_finite_checkpoint_exits_3_with_one_line(tmp_path, capsys, command, value):
    ckpt = non_finite_checkpoint(str(tmp_path / "w.ma3c"), value)
    argv = {"eval": ["--episodes", "1", "--mask", "inverse"],
            "viz": ["--out", str(tmp_path / "viz")],
            "inject": ["--sprite", write_sprite(tmp_path), "--pos", "17,0", "--frame", "2",
                       "--window", "0,4"]}[command]
    assert main([command, "--ckpt", ckpt, *argv]) == EXIT_CHECKPOINT
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error:") and len(err.strip().splitlines()) == 1
    assert "policy_mask.b" in err and not (tmp_path / "viz").exists()


def test_a_run_directory_skips_a_checkpoint_with_a_non_finite_weight(tmp_path):
    # compare reuses the highest-step checkpoint that loads; a NaN payload does not
    good = str(tmp_path / "ckpt_50.ma3c")
    non_finite_checkpoint(good, 0.5)
    non_finite_checkpoint(str(tmp_path / "ckpt_100.ma3c"), np.nan)
    config = load_checkpoint(good)[1]
    assert _final_checkpoint(str(tmp_path), 40, config) == good
    assert _final_checkpoint(str(tmp_path), 60, config) is None


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e39], ids=["nan", "inf", "float32-overflow"])
def test_save_checkpoint_refuses_non_finite_weights_before_writing(tmp_path, value):
    config = tiny_cfg()
    weights = {k: t.data.astype(np.float64) for k, t in init_weights(config, seed=0).items()}
    weights["policy_mask.b"][0] = value
    with pytest.raises(ValueError, match="policy_mask.b"):
        save_checkpoint(weights, config, str(tmp_path / "w.ma3c"))
    assert os.listdir(tmp_path) == []


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
    before = Path(kept).read_bytes()
    monkeypatch.setattr(checkpoint, "open", lambda *a: _FailingFile(open(*a)), raising=False)
    with pytest.raises(OSError):
        save_checkpoint(weights, config, str(tmp_path / "ckpt_10.ma3c"))
    with pytest.raises(OSError):
        save_checkpoint(init_weights(config, seed=1), config, kept)
    assert os.listdir(tmp_path) == ["ckpt_5.ma3c"]
    assert Path(kept).read_bytes() == before


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
# flipped the sign of every update or skipped every update; a repeated
# seed counted one compare run twice in variants.csv; episode_cap=0
# meant the default cap, episode_step_cap and precision are no longer keys,
# a negative checkpoint_interval saved no periodic checkpoint, a huge
# size overflowed numpy and a huge channel count asked numpy for more
# memory than there is
@pytest.mark.parametrize("key,value", [
    ("lstm_channels", "0"), ("lstm_channels", "-2"), ("branch_channels", "0"),
    ("fe_channels", "0,4,4"), ("conv_kernel", "0"), ("conv_padding", "-1"),
    ("lr", "nan"), ("rmsprop_eps", "0"), ("grad_clip_norm", "-1"), ("rmsprop_decay", "1"),
    ("entropy_coef", "nan"), ("entropy_coef", "-0.01"), ("value_coef", "nan"),
    ("value_coef", "inf"), ("seed", "-1"), ("seeds", "0,-1"), ("seeds", "0,0"),
    ("episode_cap", "0"), ("episode_step_cap", "10000"), ("precision", "double"),
    ("checkpoint_interval", "-5"), ("total_steps", "-5"), ("size", "513"),
    ("size", "99999999999999999999"), ("lstm_channels", "1000000000"),
    ("branch_channels", "100000000000"), ("t_max", "0"), ("n_workers", "0"),
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


@pytest.mark.parametrize("text,names", [
    (b"env=catch\xff\n", ["not UTF-8"]),
    (b"env=catch\nlr=0.001\n# env=collector\nenv=fuel\n", ["'env'", "lines 1 and 4"]),
], ids=["non-utf8", "repeated-key"])
def test_config_text_that_is_not_utf8_or_repeats_a_key_exits_2_with_one_line(
        tmp_path, capsys, text, names):
    path = tmp_path / "c.cfg"
    path.write_bytes(text)
    assert main(["train", str(path), "--out", str(tmp_path / "run")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(path) in err
    assert all(name in err for name in names)
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "run").exists()


# a config text is made of lines of these kinds; every example must end in
# a ResolvedConfig or a ConfigError, never in another exception
_config_lines = st.one_of(
    st.tuples(st.sampled_from(sorted(CONFIG_DEFAULTS)),
              st.one_of(st.sampled_from(["0", "-1", "1", "3", "20", "513", "1e999", "nan",
                                         "-inf", "0.5", "true", "no", "1,2,3", ",", "auto",
                                         "", "99999999999999999999", "x" * 40]),
                        st.text(max_size=12)))
    .map(lambda kv: f"{kv[0]}={kv[1]}".encode("utf-8", "surrogatepass")),
    st.text(max_size=20).map(lambda t: t.encode("utf-8", "surrogatepass")),   # often no '='
    st.binary(max_size=20),
)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(lines=st.lists(_config_lines, max_size=8), repeat=st.booleans())
def test_generated_config_texts_resolve_or_raise_only_config_error(tmp_path_factory, lines,
                                                                    repeat):
    if repeat and lines:
        lines.append(lines[0])
    path = tmp_path_factory.mktemp("cfg") / "c.cfg"
    path.write_bytes(b"\n".join(lines) + b"\n")
    try:
        ResolvedConfig(parse_config_file(str(path)))
    except cli.ConfigError:
        pass


def test_config_that_exists_but_cannot_be_read_exits_2_with_one_line(tmp_path, capsys):
    path = "/proc/self/mem"     # a regular file whose read fails with EIO
    if not os.path.isfile(path):
        pytest.skip("/proc/self/mem is absent")
    assert main(["train", path, "--out", str(tmp_path / "run")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config file {path}")
    assert len(err.strip().splitlines()) == 1 and not (tmp_path / "run").exists()


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
    assert set(weights) == set(weight_shapes(config))


def test_train_out_under_missing_parents_is_made_and_under_a_file_exits_5(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "c.cfg", total_steps="0", **small_net_overrides())
    assert main(["train", cfg_path, "--out", str(tmp_path / "a" / "b" / "run")]) == EXIT_OK
    assert (tmp_path / "a" / "b" / "run" / "ckpt_0.ma3c").is_file()
    (tmp_path / "blocker").write_text("")
    capsys.readouterr()
    assert main(["train", cfg_path, "--out", str(tmp_path / "blocker" / "a" / "run")]) \
        == EXIT_ARGUMENT
    err = capsys.readouterr().err
    assert "blocker is not a directory" in err and len(err.strip().splitlines()) == 1


def test_train_zero_steps_single_checkpoint(tmp_path):
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path / "c.cfg", total_steps="0", n_workers="1",
                            out_dir=str(out), **small_net_overrides())
    assert main(["train", cfg_path]) == EXIT_OK
    assert [p for p in os.listdir(out) if p.endswith(".ma3c")] == ["ckpt_0.ma3c"]


def test_eval_prints_stats_and_writes_csv(tmp_path, capsys):
    out, ckpt = trained_tiny_run(tmp_path)
    table = str(tmp_path / "eval.csv")
    assert main(["eval", "--ckpt", ckpt, "--episodes", "3", "--seed", "1",
                 "--greedy", "--out", table]) == EXIT_OK
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("max=") and "mean=" in line and line.endswith("n=3")
    weights, config = load_checkpoint(ckpt)
    stats = evaluate(weights, config, EnvSpec(name="catch"), 3, seed=1, greedy=True)
    rows = read_table(table, ["episode", "return"])
    assert [(int(ep), float(ret)) for ep, ret in rows] == list(enumerate(stats.returns))


def test_eval_deterministic_byte_identical(tmp_path):
    out, ckpt = trained_tiny_run(tmp_path)
    blobs = []
    for name in ("a.csv", "b.csv"):
        table = str(tmp_path / name)
        assert main(["eval", "--ckpt", ckpt, "--episodes", "4", "--seed", "2",
                     "--greedy", "--out", table]) == EXIT_OK
        blobs.append(Path(table).read_bytes())
    assert blobs[0] == blobs[1]


def test_eval_corrupted_checkpoint_exit_3(tmp_path):
    out, ckpt = trained_tiny_run(tmp_path)
    blob = bytearray(Path(ckpt).read_bytes())
    blob[100] ^= 0x10
    Path(ckpt).write_bytes(bytes(blob))
    assert main(["eval", "--ckpt", ckpt, "--episodes", "1"]) == EXIT_CHECKPOINT


def unreadable_checkpoint_path(tmp_path, kind):
    """A path that names no readable checkpoint file: a FIFO, a directory or /proc/self/mem."""
    path = str(tmp_path / "ckpt_500.ma3c")
    if kind == "fifo":
        if not hasattr(os, "mkfifo"):
            pytest.skip("os.mkfifo is not available")
        os.mkfifo(path)      # opening it to read would block until a writer comes
    elif kind == "directory":
        os.mkdir(path)
    else:
        path = "/proc/self/mem"     # a regular file whose read fails with EIO
        if not os.path.isfile(path):
            pytest.skip("/proc/self/mem is absent")
    return path


@pytest.mark.parametrize("kind", ["fifo", "directory", "proc-mem"])
def test_unreadable_checkpoint_path_exits_3_with_one_line(tmp_path, capsys, kind):
    path = unreadable_checkpoint_path(tmp_path, kind)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    assert main(["eval", "--ckpt", path, "--episodes", "1"]) == EXIT_CHECKPOINT
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error:") and len(err.strip().splitlines()) == 1
    assert path in err


@pytest.mark.parametrize("kind", ["fifo", "directory"])
def test_a_run_directory_skips_a_checkpoint_name_that_is_no_file(tmp_path, kind):
    # compare's reuse check passes over the higher-step name without opening it
    good = str(tmp_path / "ckpt_50.ma3c")
    non_finite_checkpoint(good, 0.5)
    unreadable_checkpoint_path(tmp_path, kind)
    shutil.copy(good, tmp_path / "ckpt_x.ma3c")     # no step in its name
    assert _final_checkpoint(str(tmp_path), 40, load_checkpoint(good)[1]) == good


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
                     (tmp_path / "o.csv").read_text()))
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
    # a policy-only network, so the value mask's region mean is an empty cell
    out, ckpt = trained_tiny_run(tmp_path, env="fuel", value_mask="false")
    sprite = write_sprite(tmp_path)
    table = str(tmp_path / "report.csv")
    assert main(["inject", "--ckpt", ckpt, "--sprite", sprite, "--pos", "17,0",
                 "--frame", "4", "--window", "0,8", "--env", "fuel",
                 "--seed", "1", "--out", table]) == EXIT_OK
    rows = read_table(table, ["t", "injected", "region_mean_policy", "region_mean_value", "value",
                              "p_up", "p_down", "p_left", "p_right", "p_stay", "p_collect"])
    weights, config = load_checkpoint(ckpt)
    inj = InjectionSpec(*cli.load_sprite(sprite, 1), position=(17, 0), start_frame=4,
                        duration=None)
    report = injection_response(weights, config, EnvSpec(name="fuel"), inj, window=(0, 8), seed=1)
    assert len(rows) == len(report.rows) == 9
    for cells, r in zip(rows, report.rows):
        assert cells[:2] == [str(r["t"]), str(int(r["injected"]))] and cells[3] == ""
        assert [float(c) for c in (cells[2], *cells[4:])] == [r["region_mean_policy"], r["value"],
                                                               *r["probs"]]
    assert [cells[1] for cells in rows] == ["0"] * 4 + ["1"] * 5


def test_inject_window_must_cover_frame(tmp_path):
    out, ckpt = trained_tiny_run(tmp_path, env="fuel")
    sprite = write_sprite(tmp_path)
    assert main(["inject", "--ckpt", ckpt, "--sprite", sprite, "--pos", "17,0",
                 "--frame", "30", "--window", "0,8", "--env", "fuel"]) == EXIT_ARGUMENT


@pytest.mark.parametrize("window", ["24,30", "10,30"])
def test_inject_frame_after_the_episode_ends_exits_5_with_one_line(tmp_path, capsys, window):
    out, ckpt = trained_tiny_run(tmp_path)
    table = tmp_path / "report.csv"
    capsys.readouterr()
    assert main(["inject", "--ckpt", ckpt, "--sprite", write_sprite(tmp_path), "--pos", "17,0",
                 "--frame", "25", "--window", window, "--out", str(table)]) == EXIT_ARGUMENT
    err = capsys.readouterr().err
    assert err.startswith("invalid argument:") and len(err.strip().splitlines()) == 1
    assert "frame 25" in err and not table.exists()


def test_inject_out_of_bounds_sprite(tmp_path):
    out, ckpt = trained_tiny_run(tmp_path, env="fuel")
    sprite = write_sprite(tmp_path)
    assert main(["inject", "--ckpt", ckpt, "--sprite", sprite, "--pos", "19,5",
                 "--frame", "2", "--window", "0,4", "--env", "fuel"]) == EXIT_ARGUMENT


# sprite files that are no usable P5 image
_BAD_SPRITES = {"oversized-header": b"P5\n99999999 99999999\n255\n\x00",
                "truncated-header": b"P5\n3 3\n", "zero-width": b"P5\n0 3\n255\n",
                "maxval-65535": b"P5\n1 1\n65535\n\x00\x00",
                "size-not-a-number": b"P5\nthree 3\n255\n" + bytes(9)}
# flags with a value that inject refuses, and the words its error names;
# no sprite byte reaches a stencil threshold of 256
_BAD_INJECT_FLAGS = {"duration-abc": ("--duration", "abc", "--duration"),
                     "empty-stencil": ("--stencil-threshold", "256", "stencil"),
                     "pos-three-numbers": ("--pos", "1,2,3", "--pos"),
                     "pos-letters": ("--pos", "a,b", "--pos"),
                     "window-one-number": ("--window", "1", "--window")}


@pytest.mark.parametrize("case", ["duration-abc", "missing-sprite", "not-p5", *_BAD_SPRITES,
                                  "empty-stencil", "pos-three-numbers", "pos-letters",
                                  "window-one-number"])
def test_inject_bad_duration_or_sprite_exit_5_with_one_line(tmp_path, capsys, case):
    spec_cfg = NetworkConfig(n_actions=6, fe_channels=(4, 4, 8), lstm_channels=8,
                             branch_channels=4)
    ckpt = str(tmp_path / "w.ma3c")
    save_checkpoint(init_weights(spec_cfg, seed=0), spec_cfg, ckpt)
    flags = {"--sprite": write_sprite(tmp_path), "--pos": "17,0", "--frame": "2",
             "--window": "0,4", "--env": "fuel", "--duration": "3", "--stencil-threshold": "1"}
    named = "--sprite"
    if case in _BAD_INJECT_FLAGS:
        flag, value, named = _BAD_INJECT_FLAGS[case]
        flags[flag] = value
    elif case == "missing-sprite":
        flags["--sprite"] = str(tmp_path / "absent.pgm")
    elif case == "not-p5":
        flags["--sprite"] = str(tmp_path / "sprite.ppm")
        netpbm.write_ppm(flags["--sprite"], np.zeros((3, 20, 3)))
    else:
        flags["--sprite"] = str(tmp_path / "bad.pgm")
        Path(flags["--sprite"]).write_bytes(_BAD_SPRITES[case])
    assert main(["inject", "--ckpt", ckpt, *(x for kv in flags.items() for x in kv)]) \
        == EXIT_ARGUMENT
    err = capsys.readouterr().err
    assert err.startswith("invalid argument:") and len(err.strip().splitlines()) == 1
    assert named in err and not os.path.exists(f"{ckpt}.inject.csv")


def test_inject_zero_intensity_full_stencil(tmp_path):
    out, ckpt = trained_tiny_run(tmp_path, env="fuel")
    sprite = write_sprite(tmp_path, value=0.0)
    table = str(tmp_path / "report.csv")
    assert main(["inject", "--ckpt", ckpt, "--sprite", sprite, "--pos", "17,0",
                 "--frame", "2", "--window", "0,4", "--env", "fuel",
                 "--stencil-threshold", "0", "--out", table]) == EXIT_OK
    assert len(Path(table).read_text().strip().splitlines()) == 6


# ---------------------------------------------------------------------------
# misc commands

def test_random_baseline_command(tmp_path, capsys):
    table = str(tmp_path / "rb.csv")
    assert main(["random-baseline", "--env", "catch", "--episodes", "50",
                 "--seed", "3", "--out", table]) == EXIT_OK
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert "mean=" in line and line.endswith("n=50")
    stats = random_baseline(EnvSpec(name="catch"), 50, seed=3)
    rows = read_table(table, ["episode", "return"])
    assert [(int(ep), float(ret)) for ep, ret in rows] == list(enumerate(stats.returns))


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


@pytest.mark.parametrize("env", ["catch", "collector", "fuel"])
def test_size_above_max_size_exits_5_with_one_line(env, capsys):
    for size in (EnvSpec.MAX_SIZE + 1, 99999999999999999999):
        assert main(["random-baseline", "--env", env, "--size", str(size),
                     "--episodes", "2"]) == EXIT_ARGUMENT
        err = capsys.readouterr().err
        assert err.startswith("invalid argument: --size") and f"<= {EnvSpec.MAX_SIZE}" in err
        assert len(err.strip().splitlines()) == 1


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


def test_compare_runs_save_the_periodic_checkpoints_train_saves(tmp_path):
    settings = dict(total_steps="100", checkpoint_interval="40", n_workers="1", t_max="10",
                    **small_net_overrides())
    assert main(["train", write_config(tmp_path / "t.cfg", **settings),
                 "--out", str(tmp_path / "train")]) == EXIT_OK
    trained = {f for f in os.listdir(tmp_path / "train") if f.endswith(".ma3c")}
    assert len(trained) >= 3          # ckpt_0, a periodic one and the final one
    assert main(["compare", write_config(tmp_path / "c.cfg", seeds="0", eval_episodes="2",
                                         **settings),
                 "--out", str(tmp_path / "cmp")]) == EXIT_OK
    for variant in ("vanilla", "policy", "value", "both"):
        run = tmp_path / "cmp" / variant / "seed_0"
        assert {f for f in os.listdir(run) if f.endswith(".ma3c")} == trained


# ---------------------------------------------------------------------------
# output paths that cannot be written

# the function each subcommand does its work in; it must not run
_WORK = {"train": "train", "compare": "compare_variants", "eval": "evaluate",
         "viz": "record_heatmaps", "inject": "injection_response",
         "random-baseline": "random_baseline"}


def _refuse_work(monkeypatch, command):
    def work(*args, **kwargs):
        raise AssertionError(f"{command} ran its work before checking its output path")
    monkeypatch.setattr(cli, _WORK[command], work)


@pytest.mark.parametrize("command,out", [
    ("train", "file"), ("compare", "file"), ("viz", "file"),
    ("eval", "missing-dir"), ("eval", "dir"), ("inject", "missing-dir"),
    ("random-baseline", "missing-dir"),
    *((command, "empty") for command in _WORK),
])
def test_unwritable_out_exits_5_before_the_work(tmp_path, capsys, monkeypatch, command, out):
    blocker = tmp_path / "blocker"
    blocker.write_text("keep\n")
    out_path = {"file": blocker, "dir": tmp_path, "empty": "",
                "missing-dir": tmp_path / "missing" / "out.csv"}[out]
    config = cfg(fe_channels=(4, 4, 8), lstm_channels=8, branch_channels=4)
    ckpt = str(tmp_path / "w.ma3c")
    save_checkpoint(init_weights(config, seed=0), config, ckpt)
    cfg_path = write_config(tmp_path / "c.cfg", total_steps="20", seeds="0",
                            out_dir=str(tmp_path / "out_dir"), **small_net_overrides())
    argv = {"train": [cfg_path], "compare": [cfg_path],
            "eval": ["--ckpt", ckpt], "viz": ["--ckpt", ckpt],
            "inject": ["--ckpt", ckpt, "--sprite", write_sprite(tmp_path), "--pos", "17,0",
                       "--frame", "2", "--window", "0,4"],
            "random-baseline": ["--episodes", "2"]}[command]
    _refuse_work(monkeypatch, command)
    before = sorted(os.listdir(tmp_path))
    assert main([command, *argv, "--out", str(out_path)]) == EXIT_ARGUMENT
    err = capsys.readouterr().err
    assert err.startswith("invalid argument: --out") and len(err.strip().splitlines()) == 1
    assert sorted(os.listdir(tmp_path)) == before
    assert blocker.read_text() == "keep\n"


@pytest.mark.parametrize("command", ["train", "compare"])
def test_unwritable_config_out_dir_exits_2_before_the_work(tmp_path, capsys, monkeypatch,
                                                           command):
    blocker = tmp_path / "blocker"
    blocker.write_text("keep\n")
    cfg_path = write_config(tmp_path / "c.cfg", out_dir=str(blocker / "run"),
                            **small_net_overrides())
    _refuse_work(monkeypatch, command)
    assert main([command, cfg_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: out_dir") and len(err.strip().splitlines()) == 1
    assert sorted(os.listdir(tmp_path)) == ["blocker", "c.cfg"]


# ---------------------------------------------------------------------------
# argument fuzz: any argument list ends in a documented exit code

@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    """A tiny both-mask checkpoint per env, a vanilla and a corrupt one, and a 3x5 sprite."""
    root = tmp_path_factory.mktemp("fuzz")
    small = dict(fe_channels=(2, 2, 2), lstm_channels=2, branch_channels=2)
    for env in ENV_NAMES:
        config = cfg(n_actions=EnvSpec(name=env).n_actions, **small)
        save_checkpoint(init_weights(config, seed=0), config, str(root / f"{env}.ma3c"))
    vanilla = cfg(False, False, **small)
    save_checkpoint(init_weights(vanilla, seed=0), vanilla, str(root / "vanilla.ma3c"))
    (root / "corrupt.ma3c").write_bytes((root / "catch.ma3c").read_bytes()[:-9])
    write_sprite(root, shape=(3, 5))
    return root


_HUGE = 10**30
_TEXT = st.sampled_from(["", "x", "1.5", "1,2,3"])


def _arg_text(value):
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


@st.composite
def _argv(draw, root):
    """(argv, broken): a command line valid in every option but ``broken``, if it is not None.

    Valid values keep the work small (at most 2 episodes, sizes up to 64);
    a broken value may be huge, as it is rejected before any work runs.
    """
    command = draw(st.sampled_from(["eval", "viz", "inject", "random-baseline"]))
    env = draw(st.sampled_from(ENV_NAMES))
    frame = draw(st.integers(0, 18 if env == "catch" else 30))   # catch plays frames 0..18
    huge_pair = st.tuples(st.integers(-_HUGE, _HUGE), st.integers(-_HUGE, _HUGE))
    options = {     # flag: (valid values, broken values)
        "--env": (st.just(env), st.just("pong")),
        "--size": (st.integers(9, 64) if command == "random-baseline" else st.just(20),
                   st.one_of(st.integers(-_HUGE, 5), st.integers(EnvSpec.MAX_SIZE + 1, _HUGE),
                             _TEXT)),
        "--seed": (st.integers(0, _HUGE), st.one_of(st.integers(-_HUGE, -1), _TEXT)),
        "--out": (st.just(str(root / f"{command}.out")), st.just(str(root / "sprite.pgm" / "x"))),
    }
    if command != "inject":
        options["--episodes"] = (st.integers(1, 2), st.one_of(st.integers(-_HUGE, 0), _TEXT))
    if command != "random-baseline":
        other = [name for name in ENV_NAMES if name != env]
        options["--ckpt"] = (st.just(str(root / f"{env}.ma3c")),
                             st.sampled_from([str(root / f"{name}.ma3c") for name in
                                              ["vanilla", "corrupt", "missing", *other]]))
    if command == "eval":
        options["--mask"] = (st.sampled_from(["normal", "inverse", "ones"]), st.just("none"))
    if command == "inject":
        options.update({
            "--sprite": (st.just(str(root / "sprite.pgm")),
                         st.sampled_from([str(root / "missing.pgm"), str(root / "catch.ma3c")])),
            "--pos": (st.tuples(st.integers(0, 17), st.integers(0, 15)), huge_pair),
            "--frame": (st.just(frame), st.one_of(st.integers(-_HUGE, -1), _TEXT)),
            "--window": (st.tuples(st.integers(0, frame), st.integers(frame, frame + 10)),
                         st.one_of(huge_pair, _TEXT)),
            "--duration": (st.one_of(st.integers(0, 30), st.just("permanent")),
                           st.one_of(st.integers(-_HUGE, -1), _TEXT)),
            # the sprite's bytes are 230: a higher threshold leaves an empty stencil
            "--stencil-threshold": (st.integers(0, 230), st.integers(-_HUGE, _HUGE)),
        })
    always = {"--env", "--ckpt", "--episodes", "--sprite", "--pos", "--frame", "--window"}
    if command == "viz":
        always.add("--out")
    broken = draw(st.sampled_from([None, *options]))
    argv = [command]
    for flag, (valid, bad) in options.items():
        if flag == broken:
            argv += [flag, _arg_text(draw(bad))]
        elif flag in always or draw(st.booleans()):
            argv += [flag, _arg_text(draw(valid))]
    if command in ("eval", "viz") and draw(st.booleans()):
        argv.append("--greedy")
    return argv, broken


@settings(max_examples=250, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_argument_list_ends_in_a_documented_exit_code(fuzz_root, data):
    argv, broken = data.draw(_argv(fuzz_root), label="argv")
    code = main(argv)
    if broken is None:
        assert code == EXIT_OK
    else:
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_CHECKPOINT, EXIT_VARIANT, EXIT_ARGUMENT)


# ---------------------------------------------------------------------------
# config fuzz of train and compare: a valid config runs, a broken key exits 2

def _config_options(env, root):
    """key: (valid values, broken values) of a train/compare config.

    Valid values bound every example's work: a budget of at most 40 steps,
    at most 4 channels a layer, 3 workers, 2 evaluation episodes and 40
    steps an episode.  Each broken value is rejected before any work runs.
    """
    def ints(lo, hi):
        return st.integers(lo, hi).map(str)

    channels = st.tuples(*[st.integers(1, 4)] * 3).map(_arg_text)
    return {
        "env": (st.just(env), st.just("pong")),
        "size": (ints(9, 24), st.sampled_from(["5", "513", "x"])),
        "episode_cap": (ints(1, 40), st.sampled_from(["0", "-3", "auto1"])),
        "policy_mask": (st.sampled_from(["true", "false"]), st.just("maybe")),
        "value_mask": (st.sampled_from(["yes", "no"]), st.just("2")),
        "fe_channels": (channels, st.sampled_from(["0,4,4", "4,4", "4,4,4,4", "a"])),
        "lstm_channels": (ints(1, 4), st.sampled_from(["0", "-1", "1.5"])),
        "branch_channels": (ints(1, 4), st.sampled_from(["0", ""])),
        "conv_padding": (ints(1, 2), st.sampled_from(["-1", "x"])),
        "gamma": (st.sampled_from(["0", "0.9", "1"]), st.sampled_from(["1.5", "nan", "-0.1"])),
        "lr": (st.sampled_from(["1e-4", "7e-4", "1e-2"]), st.sampled_from(["0", "-1e-3", "nan", "inf"])),
        "n_workers": (ints(1, 3), st.sampled_from(["0", "-2", "two"])),
        "t_max": (ints(1, 20), st.sampled_from(["0", "-1"])),
        "entropy_coef": (st.sampled_from(["0", "0.01"]), st.sampled_from(["-1", "nan"])),
        "value_coef": (st.sampled_from(["0.5", "1"]), st.sampled_from(["inf", "-0.5"])),
        "grad_clip_norm": (st.sampled_from(["40", "0.1"]), st.sampled_from(["0", "nan"])),
        "total_steps": (ints(0, 40), st.sampled_from(["-5", "1e3"])),
        "rmsprop_decay": (st.sampled_from(["0.99", "0"]), st.sampled_from(["1", "nan"])),
        "rmsprop_eps": (st.sampled_from(["0.1", "1e-5"]), st.sampled_from(["0", "-1"])),
        "seed": (ints(0, 2 ** 40), st.sampled_from(["-1", "x"])),
        "seeds": (ints(0, 9), st.sampled_from(["", "-1", ",", "1,x", "2,0,2"])),
        "checkpoint_interval": (ints(0, 50), st.sampled_from(["-5", "1.5"])),
        "eval_episodes": (ints(1, 2), st.sampled_from(["0", "-1"])),
        "out_dir": (st.just(str(root / "unused")), st.just(str(root / "file" / "run"))),
    }


def _draw_run(data, tmp_path, broken):
    """(argv, broken key or None, config lines) of a ``train`` or ``compare`` run.

    With ``broken`` one drawn key gets a broken value; every other key
    present gets a valid one.  Each run writes under a fresh directory.
    """
    root = Path(tempfile.mkdtemp(dir=tmp_path))
    (root / "file").write_text("")
    command = data.draw(st.sampled_from(["train", "compare"]), label="command")
    options = _config_options(data.draw(st.sampled_from(ENV_NAMES), label="env"), root)
    broken = data.draw(st.sampled_from(list(options)), label="broken") if broken else None
    lines = {}
    for key, (valid, bad) in options.items():
        if key == broken:
            lines[key] = data.draw(bad, label=key)
        elif key in ("env", "total_steps", "eval_episodes", "seeds", "episode_cap") \
                or data.draw(st.booleans()):
            lines[key] = data.draw(valid, label=key)
    for key, size in (("fe_channels", "4,4,4"), ("lstm_channels", "4"), ("branch_channels", "4")):
        lines.setdefault(key, size)          # a left-out size would default to a large network
    path = write_config(root / "c.cfg", **lines)
    out = [] if broken == "out_dir" else ["--out", str(root / "run")]
    return [command, path, *out], broken, lines


_FUZZ_SETTINGS = dict(derandomize=True, database=None, deadline=None,
                      suppress_health_check=[HealthCheck.too_slow,
                                             HealthCheck.function_scoped_fixture])


@settings(max_examples=30, **_FUZZ_SETTINGS)
@given(data=st.data())
def test_generated_train_and_compare_configs_run(tmp_path, data):
    # the one network pass across envs, variants, sizes and ragged rounds
    argv, _, _ = _draw_run(data, tmp_path, broken=False)
    assert main(argv) == EXIT_OK
    out = Path(argv[argv.index("--out") + 1])
    assert (out / "variants.csv").exists() == (argv[0] == "compare")


@settings(max_examples=150, **_FUZZ_SETTINGS)
@given(data=st.data())
def test_generated_configs_with_one_broken_key_exit_2(tmp_path, data):
    argv, broken, lines = _draw_run(data, tmp_path, broken=True)
    assert main(argv) == EXIT_CONFIG, (broken, lines[broken])
    out = Path(argv[1]).parent / "run"
    assert not out.exists()
