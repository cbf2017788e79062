"""Binary weight checkpoints with integrity checking.

Layout, all integers little-endian:

    magic    4 bytes   b"MA3C"
    version  u32       currently 1
    config   u32 byte length, then utf-8 key=value lines
    count    u32       number of tensor records
    record   u16 name length, name utf-8, u8 rank, u32 x rank dims,
             float32 little-endian row-major payload
    crc32    u32       checksum of every preceding byte

Payloads are always single precision, so loading a checkpoint written
from a double-precision run reproduces the weights only to float32.
"""

from __future__ import annotations

import dataclasses
import math
import os
import struct
import zlib

import numpy as np

from .network import NetworkConfig, weight_names, weight_shapes

MAGIC = b"MA3C"
VERSION = 1


class CheckpointError(Exception):
    """The file is not a valid checkpoint (magic, version, checksum, or names)."""


# The text form of a setting, shared by the checkpoint's config block and
# the CLI's config files: its type is the type of the field's default.

def format_value(value):
    """true/false for a bool, comma-separated items for a tuple, else ``str``."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


_KINDS = {int: "an integer", float: "a number", tuple: "comma-separated integers"}


def parse_value(key, text, kind):
    """Inverse of ``format_value`` for setting ``key`` of type ``kind``; raises ValueError."""
    if kind is bool:
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"{key} must be true or false, got {text!r}")
    try:
        if kind is tuple:
            return tuple(int(v) for v in text.split(",") if v.strip() != "")
        return kind(text)
    except ValueError:
        raise ValueError(f"{key} must be {_KINDS[kind]}, got {text!r}") from None


# the config block: every NetworkConfig field, in declaration order
_CONFIG_KINDS = {f.name: type(f.default) for f in dataclasses.fields(NetworkConfig)}


def _encode_config(config):
    return "\n".join(f"{key}={format_value(getattr(config, key))}"
                     for key in _CONFIG_KINDS).encode()


def _decode_config(blob):
    values = {}
    try:
        for line in blob.decode().splitlines():
            key, _, text = line.partition("=")
            if key not in _CONFIG_KINDS:
                raise CheckpointError(f"checkpoint config has unknown key {key!r}")
            values[key] = parse_value(key, text, _CONFIG_KINDS[key])
        missing = _CONFIG_KINDS.keys() - values.keys()
        if missing:
            raise CheckpointError(f"checkpoint config block is missing {sorted(missing)}")
        return NetworkConfig(**values)
    except ValueError as exc:   # also UnicodeDecodeError
        raise CheckpointError(f"checkpoint config is invalid: {exc}") from None


def save_checkpoint(weights, config, path):
    """Write the named tensors (Tensor or ndarray values) as float32 records.

    The bytes go to ``<path>.tmp`` first and replace ``path`` only once
    complete, so an interrupted save never leaves a truncated checkpoint
    under a checkpoint name.
    """
    arrays = {}
    for name, value in weights.items():
        data = value.data if hasattr(value, "data") else value
        arrays[name] = np.ascontiguousarray(np.asarray(data), dtype="<f4")

    parts = [MAGIC, struct.pack("<I", VERSION)]
    blob = _encode_config(config)
    parts.append(struct.pack("<I", len(blob)))
    parts.append(blob)
    parts.append(struct.pack("<I", len(arrays)))
    for name in sorted(arrays):
        arr = arrays[name]
        encoded = name.encode()
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.tobytes())
    body = b"".join(parts)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(body)
            fh.write(struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


class _Reader:
    def __init__(self, buf):
        self.buf = buf
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.buf):
            raise CheckpointError("checkpoint truncated")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def u16(self):
        return struct.unpack("<H", self.take(2))[0]

    def u8(self):
        return self.take(1)[0]


def load_checkpoint(path):
    """Read and validate a checkpoint; returns (weights dict of float32 arrays, config)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4 + 4 + 4:
        raise CheckpointError(f"{path}: too short to be a checkpoint")
    body, (crc,) = raw[:-4], struct.unpack("<I", raw[-4:])
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise CheckpointError(f"{path}: checksum mismatch")

    r = _Reader(body)
    if r.take(4) != MAGIC:
        raise CheckpointError(f"{path}: bad magic")
    version = r.u32()
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    config = _decode_config(r.take(r.u32()))
    count = r.u32()
    weights = {}
    for _ in range(count):
        try:
            name = r.take(r.u16()).decode()
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: tensor name is not utf-8") from None
        rank = r.u8()
        shape = tuple(r.u32() for _ in range(rank))
        # Python ints: a numpy product of u32 dims can wrap around int64
        data = np.frombuffer(r.take(4 * math.prod(shape)), dtype="<f4")
        try:
            data = data.reshape(shape)
        except ValueError as exc:   # e.g. more dimensions than numpy supports
            raise CheckpointError(f"{path}: tensor {name!r} has shape {shape}: {exc}") from None
        weights[name] = data.astype(np.float32, copy=True)
    if r.pos != len(body):
        raise CheckpointError(f"{path}: trailing bytes after tensor records")

    expected = set(weight_names(config))
    if set(weights) != expected:
        raise CheckpointError(
            f"{path}: tensor names do not match the stored config "
            f"(missing {sorted(expected - set(weights))}, "
            f"extra {sorted(set(weights) - expected)})")
    for name, shape in weight_shapes(config).items():
        if weights[name].shape != shape:
            raise CheckpointError(f"{path}: {name} has shape {weights[name].shape}, "
                                  f"expected {shape}")
    return weights, config
