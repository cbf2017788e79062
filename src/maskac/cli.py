"""Command-line front end: configuration, training, evaluation, analysis.

Subcommands: train, eval, viz, inject, compare, random-baseline.
Exit codes: 0 ok, 2 config problem, 3 checkpoint problem, 4 variant
mismatch, 5 invalid argument.  An output path that cannot be written is an
invalid argument from ``--out`` and a config problem from ``out_dir``.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .analysis import (VariantError, evaluate, injection_response, random_baseline,
                       record_heatmaps, write_csv)
from .checkpoint import CheckpointError, format_value, load_checkpoint, parse_value
from .envs import ENV_NAMES, EnvSpec, InjectionSpec
from .netpbm import read_pgm
from .network import NetworkConfig
from .training import Hyperparams, compare_variants, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECKPOINT = 3
EXIT_VARIANT = 4
EXIT_ARGUMENT = 5

MASK_MODES = {"normal": "identity", "inverse": "inverse", "ones": "ones"}


class ConfigError(Exception):
    pass


class ArgumentProblem(Exception):
    pass


# ---------------------------------------------------------------------------
# flat key=value configuration
#
# Every Hyperparams field and every architecture field of NetworkConfig is a
# config key of the same name, with the field's default as its default.

# NetworkConfig fields that come from other keys: size, env and the two masks
_DERIVED_NETWORK_FIELDS = ("input_hw", "n_actions", "policy_mask_enabled", "value_mask_enabled")
_ARCH_DEFAULTS = {f.name: f.default for f in dataclasses.fields(NetworkConfig)
                  if f.name not in _DERIVED_NETWORK_FIELDS}
_HYPER_DEFAULTS = {f.name: f.default for f in dataclasses.fields(Hyperparams)}

CONFIG_DEFAULTS = {
    "env": "catch",
    "size": "20",
    "episode_cap": "auto",
    "policy_mask": "true",
    "value_mask": "true",
    **{k: format_value(v) for k, v in _ARCH_DEFAULTS.items()},
    **{k: format_value(v) for k, v in _HYPER_DEFAULTS.items()},
    "seed": "0",
    "seeds": "0,1,2,3,4",
    "out_dir": "runs/out",
    "checkpoint_interval": "50000",
    "eval_episodes": "100",
}


def parse_config_file(path):
    """Defaults overlaid with the key=value lines of a UTF-8 file.

    An unknown key, or a key given twice, is rejected.
    """
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    raw = dict(CONFIG_DEFAULTS)
    seen = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        key, sep, value = text.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line.strip()!r}")
        if key not in CONFIG_DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}: key {key!r} is given twice, "
                              f"on lines {seen[key]} and {lineno}")
        seen[key] = lineno
        raw[key] = value
    return raw


def _value(raw, key, kind):
    try:
        return parse_value(key, raw[key], kind)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


class ResolvedConfig:
    """Typed view over the raw mapping, plus the resolved echo text."""

    def __init__(self, raw):
        self.raw = dict(raw)
        env = raw["env"]
        if env not in ENV_NAMES:
            raise ConfigError(f"env must be one of {ENV_NAMES}, got {env!r}")
        size = _value(raw, "size", int)
        episode_cap = None if raw["episode_cap"] == "auto" else _value(raw, "episode_cap", int)
        self.seed = _value(raw, "seed", int)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        arch = {k: _value(raw, k, type(v)) for k, v in _ARCH_DEFAULTS.items()}
        hyper = {k: _value(raw, k, type(v)) for k, v in _HYPER_DEFAULTS.items()}
        try:
            self.env_spec = EnvSpec(name=env, size=size, episode_cap=episode_cap, seed=self.seed)
            self.network = NetworkConfig(input_hw=size, n_actions=self.env_spec.n_actions,
                                         policy_mask_enabled=_value(raw, "policy_mask", bool),
                                         value_mask_enabled=_value(raw, "value_mask", bool), **arch)
            self.hyper = Hyperparams(**hyper)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        self.seeds = list(_value(raw, "seeds", tuple))
        if not self.seeds or min(self.seeds) < 0:
            raise ConfigError(f"seeds must name at least one seed, each >= 0, got {raw['seeds']!r}")
        repeated = next((s for i, s in enumerate(self.seeds) if s in self.seeds[:i]), None)
        if repeated is not None:
            raise ConfigError(f"seeds must not repeat a seed (a repeat counts one run twice), "
                              f"got {repeated} twice in {raw['seeds']!r}")
        self.out_dir = raw["out_dir"]
        self.checkpoint_interval = _value(raw, "checkpoint_interval", int)
        if self.checkpoint_interval < 0:
            raise ConfigError(f"checkpoint_interval must be >= 0 (0 saves no periodic "
                              f"checkpoint), got {self.checkpoint_interval}")
        self.eval_episodes = _value(raw, "eval_episodes", int)
        if self.eval_episodes < 1:
            raise ConfigError(f"eval_episodes must be at least 1, got {self.eval_episodes}")
        self.raw["episode_cap"] = str(self.env_spec.episode_cap)

    def resolved_text(self):
        return "".join(f"{k}={self.raw[k]}\n" for k in sorted(self.raw))


# ---------------------------------------------------------------------------
# shared command helpers

def _env_spec_from_args(args):
    try:
        return EnvSpec(name=args.env, size=args.size, seed=0)
    except ValueError as exc:
        raise ArgumentProblem(f"--size: {exc}") from None


def _unwritable(path, directory):
    """Why ``path`` cannot be written as a file (or as a directory), or None; creates nothing."""
    if not path:
        return "the path is empty"
    path = os.path.abspath(path)
    if os.path.exists(path):
        if os.path.isdir(path) != directory:
            return "it is a directory" if os.path.isdir(path) else "it is not a directory"
        return None if os.access(path, os.W_OK) else "permission denied"
    parent = os.path.dirname(path)
    while directory and not os.path.exists(parent):   # a run directory gets its parents made
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        return f"{parent} {'is not a directory' if os.path.exists(parent) else 'does not exist'}"
    return None if os.access(parent, os.W_OK | os.X_OK) else f"permission denied in {parent}"


def _check_out(path, directory=False, reads=()):
    """``path`` once it is writable and none of the input files ``reads``; call before any work."""
    reason = _unwritable(path, directory)
    if not reason and os.path.exists(path) and any(
            os.path.exists(src) and os.path.samefile(path, src) for src in reads):
        reason = "it is an input of this command"
    if reason:
        raise ArgumentProblem(f"--out {path} cannot be written: {reason}")
    return path


def _prepare_out_dir(args, config):
    """The run directory, ``--out`` or else the config's ``out_dir``, holding config.resolved."""
    if args.out is not None:
        config.raw["out_dir"] = _check_out(args.out, directory=True)
    else:
        reason = _unwritable(config.out_dir, directory=True)
        if reason:
            raise ConfigError(f"out_dir {config.out_dir} cannot be written: {reason}")
    out_dir = config.raw["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.resolved"), "w") as fh:
        fh.write(config.resolved_text())
    return out_dir


# ---------------------------------------------------------------------------
# subcommands

def cmd_train(args):
    config = ResolvedConfig(parse_config_file(args.config))
    out_dir = _prepare_out_dir(args, config)
    final = train(config.network, config.hyper, config.env_spec, config.seed, out_dir,
                  checkpoint_interval=config.checkpoint_interval,
                  log=lambda msg: print(msg, flush=True))
    print(f"final checkpoint: {final}")
    return EXIT_OK


def cmd_eval(args):
    weights, net_config = load_checkpoint(args.ckpt)
    spec = _env_spec_from_args(args)
    out_csv = _check_out(f"{args.ckpt}.eval.csv" if args.out is None else args.out,
                         reads=(args.ckpt,))
    stats = evaluate(weights, net_config, spec, args.episodes,
                     mask_transform=MASK_MODES[args.mask], seed=args.seed,
                     greedy=args.greedy)
    write_csv(out_csv, ("episode", "return"), enumerate(stats.returns))
    print(f"max={stats.max!r} mean={stats.mean!r} n={stats.n_episodes}")
    return EXIT_OK


def cmd_viz(args):
    weights, net_config = load_checkpoint(args.ckpt)
    spec = _env_spec_from_args(args)
    _check_out(args.out, directory=True)
    record_heatmaps(weights, net_config, spec, args.episodes, args.seed, args.out,
                    greedy=args.greedy)
    print(f"heat maps written to {args.out}")
    return EXIT_OK


def _parse_pair(text, what):
    parts = text.split(",")
    if len(parts) != 2:
        raise ArgumentProblem(f"{what} must be two comma-separated integers, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ArgumentProblem(f"{what} must be integers, got {text!r}") from None


def load_sprite(path, threshold):
    """PGM sprite file: intensities from bytes, stencil from the threshold."""
    try:
        raw = read_pgm(path)
    except (OSError, ValueError) as exc:
        raise ArgumentProblem(f"--sprite {path}: {exc}") from None
    sprite = raw.astype(np.float32) / 255.0
    stencil = raw >= threshold
    return sprite, stencil


def cmd_inject(args):
    weights, net_config = load_checkpoint(args.ckpt)
    spec = _env_spec_from_args(args)
    row, col = _parse_pair(args.pos, "--pos")
    first, last = _parse_pair(args.window, "--window")
    sprite, stencil = load_sprite(args.sprite, args.stencil_threshold)
    out_csv = _check_out(f"{args.ckpt}.inject.csv" if args.out is None else args.out,
                         reads=(args.ckpt, args.sprite))
    try:
        inj = InjectionSpec(sprite, stencil, position=(row, col),
                            start_frame=args.frame, duration=args.duration)
        report = injection_response(weights, net_config, spec, inj,
                                    window=(first, last), seed=args.seed)
    except VariantError:
        raise
    except ValueError as exc:
        raise ArgumentProblem(str(exc)) from None

    write_csv(out_csv, ("t", "injected", "region_mean_policy", "region_mean_value", "value",
                        *(f"p_{name}" for name in report.action_names)),
              [(r["t"], int(r["injected"]), r.get("region_mean_policy"),
                r.get("region_mean_value"), r["value"], *r["probs"]) for r in report.rows])
    print(f"injection report written to {out_csv}")
    return EXIT_OK


def cmd_compare(args):
    config = ResolvedConfig(parse_config_file(args.config))
    out_dir = _prepare_out_dir(args, config)
    rows = compare_variants(config.env_spec, config.network, config.seeds, config.hyper,
                            config.eval_episodes, out_dir,
                            checkpoint_interval=config.checkpoint_interval,
                            log=lambda msg: print(msg, flush=True))
    print(f"{'variant':<10} {'seed':>6} {'max':>10} {'mean':>10}")
    for r in rows:
        print(f"{r['variant']:<10} {str(r['seed']):>6} {r['max']:>10.3f} {r['mean']:>10.3f}")
    print(f"table written to {os.path.join(out_dir, 'variants.csv')}")
    return EXIT_OK


def cmd_random_baseline(args):
    spec = _env_spec_from_args(args)
    if args.out is not None:
        _check_out(args.out)
    stats = random_baseline(spec, args.episodes, args.seed)
    if args.out is not None:
        write_csv(args.out, ("episode", "return"), enumerate(stats.returns))
    print(f"max={stats.max!r} mean={stats.mean!r} n={stats.n_episodes}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ArgumentProblem(message)


def _int_at_least(lowest, what):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = lowest - 1
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be a {what} integer, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1, "positive")
_seed = _int_at_least(0, "non-negative")


def _duration(text):
    if text == "permanent":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer or 'permanent', got {text!r}") from None


def _add_env_flags(p):
    p.add_argument("--env", default="catch", choices=ENV_NAMES)
    p.add_argument("--size", type=int, default=20)
    p.add_argument("--seed", type=_seed, default=0)


def build_parser():
    parser = _Parser(prog="maskac",
                     description="Mask-attention actor-critic: train, evaluate, analyze.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train per a config file")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="output directory (overrides out_dir)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint over full episodes")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--episodes", type=_positive_int, default=100)
    p.add_argument("--mask", default="normal", choices=sorted(MASK_MODES))
    p.add_argument("--greedy", action="store_true")
    p.add_argument("--out", default=None, help="per-episode CSV path")
    _add_env_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("viz", help="write mask heat-map files for episodes")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--episodes", type=_positive_int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--greedy", action="store_true")
    _add_env_flags(p)
    p.set_defaults(func=cmd_viz)

    p = sub.add_parser("inject", help="plant a sprite in the observations and record reactions")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--sprite", required=True, help="small PGM file")
    p.add_argument("--stencil-threshold", type=int, default=1,
                   help="bytes >= threshold count as sprite pixels (0 = full stencil)")
    p.add_argument("--pos", required=True, help="row,col of the sprite's top-left corner")
    p.add_argument("--frame", type=int, required=True, help="first frame showing the sprite")
    p.add_argument("--window", required=True, help="first,last frames to report")
    p.add_argument("--duration", type=_duration, default="permanent",
                   help="frames shown, or 'permanent'")
    p.add_argument("--out", default=None, help="report CSV path")
    _add_env_flags(p)
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("compare", help="train and tabulate all four attention variants")
    p.add_argument("config")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("random-baseline", help="score the uniform-random policy")
    p.add_argument("--episodes", type=_positive_int, default=10000)
    p.add_argument("--out", default=None, help="per-episode CSV path")
    _add_env_flags(p)
    p.set_defaults(func=cmd_random_baseline)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except VariantError as exc:
        print(f"variant mismatch: {exc}", file=sys.stderr)
        return EXIT_VARIANT
    except ArgumentProblem as exc:
        print(f"invalid argument: {exc}", file=sys.stderr)
        return EXIT_ARGUMENT


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
