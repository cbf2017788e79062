"""Binary weight checkpoints with integrity checking.

Layout, all integers little-endian:

    magic    4 bytes   b"MA3C"
    version  u32       currently 1
    config   u32 byte length, then utf-8 key=value lines
    count    u32       number of tensor records
    record   u16 name length, name utf-8, u8 rank, u32 x rank dims,
             float32 little-endian row-major payload
    crc32    u32       checksum of every preceding byte

Tensors are stored in the paper's layout, whatever the engine's: conv
kernels OIHW [C_out,C_in,kH,kW], and the dense heads' columns in (c,h,w)
order.  ``save_checkpoint`` and ``load_checkpoint`` convert from and to
the in-memory layout (``network.to_disk_layout``).

Payloads are finite single-precision values: training skips non-finite
updates, so any other value marks a corrupt file, and a double-precision
run's weights load back only to float32.
"""

from __future__ import annotations

import dataclasses
import math
import os
import struct
import zlib

import numpy as np

from .autodiff import Tensor
from .network import NetworkConfig, check_weights, from_disk_layout, to_disk_layout

MAGIC = b"MA3C"
VERSION = 1


class CheckpointError(Exception):
    """Not a readable, valid checkpoint: file, magic, version, checksum, tensors or values."""


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
            if key in values:
                raise CheckpointError(f"checkpoint config repeats key {key!r}")
            values[key] = parse_value(key, text, _CONFIG_KINDS[key])
        missing = _CONFIG_KINDS.keys() - values.keys()
        if missing:
            raise CheckpointError(f"checkpoint config block is missing {sorted(missing)}")
        return NetworkConfig(**values)
    except ValueError as exc:   # also UnicodeDecodeError
        raise CheckpointError(f"checkpoint config is invalid: {exc}") from None


def save_checkpoint(weights, config, path):
    """Write the named tensors (Tensor or ndarray values) as float32 records.

    Weights that do not fit ``config`` or are not finite in float32 raise
    ValueError before anything is written.  The bytes go to ``<path>.tmp``
    first and replace ``path`` only once complete, so an interrupted save
    never leaves a truncated checkpoint under a checkpoint name.
    """
    arrays = {}
    with np.errstate(over="ignore"):   # a value past float32's range becomes inf, refused below
        for name, value in weights.items():
            data = value.data if isinstance(value, Tensor) else value
            arrays[name] = np.ascontiguousarray(data, dtype="<f4")
    check_weights(arrays, config)
    arrays = to_disk_layout(arrays, config)

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
    """Read and validate a checkpoint; returns (weights dict of float32 arrays, config).

    The arrays are in the in-memory layout, as ``init_weights`` makes them.

    A path that is not a regular file (missing, a directory, a FIFO) or
    that cannot be read raises CheckpointError too; a FIFO is never opened.
    """
    if not os.path.isfile(path):
        raise CheckpointError(f"{path}: not found, or not a regular file")
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot be read: {exc.strerror or exc}") from None
    try:
        weights, config = _parse(raw)
        check_weights(weights, config, on_disk=True)
    except (CheckpointError, ValueError) as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return from_disk_layout(weights, config), config


def _parse(raw):
    """(on-disk weights, config) read from a checkpoint's bytes; the weights are not yet checked."""
    if len(raw) < 4 + 4 + 4:
        raise CheckpointError("too short to be a checkpoint")
    body, (crc,) = raw[:-4], struct.unpack("<I", raw[-4:])
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise CheckpointError("checksum mismatch")

    r = _Reader(body)
    if r.take(4) != MAGIC:
        raise CheckpointError("bad magic")
    version = r.u32()
    if version != VERSION:
        raise CheckpointError(f"unsupported version {version}")
    config = _decode_config(r.take(r.u32()))
    count = r.u32()
    weights = {}
    for _ in range(count):
        try:
            name = r.take(r.u16()).decode()
        except UnicodeDecodeError:
            raise CheckpointError("tensor name is not utf-8") from None
        if name in weights:
            raise CheckpointError(f"tensor {name!r} is stored twice")
        rank = r.u8()
        shape = tuple(r.u32() for _ in range(rank))
        # Python ints: a numpy product of u32 dims can wrap around int64
        data = np.frombuffer(r.take(4 * math.prod(shape)), dtype="<f4")
        try:
            data = data.reshape(shape)
        except ValueError as exc:   # e.g. more dimensions than numpy supports
            raise CheckpointError(f"tensor {name!r} has shape {shape}: {exc}") from None
        weights[name] = data.astype(np.float32, copy=True)
    if r.pos != len(body):
        raise CheckpointError("trailing bytes after tensor records")
    return weights, config
