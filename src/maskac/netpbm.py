"""Binary netpbm images (P5 grayscale, P6 color) with a fixed quantization rule.

Intensities in [0,1] map to bytes as floor(v*255 + 0.5) clamped to
[0,255], so 0.5 becomes 128 on every platform.
"""

from __future__ import annotations

import math
import os

import numpy as np


def quantize(values):
    v = np.floor(np.asarray(values, dtype=np.float64) * 255.0 + 0.5)
    return np.clip(v, 0, 255).astype(np.uint8)


def _write(path, magic, data):
    """Quantized [H,W] or [H,W,3] bytes under a binary netpbm header."""
    h, w = data.shape[:2]
    with open(path, "wb") as fh:
        fh.write(b"%s\n%d %d\n255\n" % (magic, w, h))
        fh.write(data.tobytes())


def write_pgm(path, values):
    """Grayscale [H,W] intensities in [0,1] as a binary P5 file."""
    data = quantize(values)
    if data.ndim != 2:
        raise ValueError(f"PGM needs a 2-d image, got shape {data.shape}")
    _write(path, b"P5", data)


def write_ppm(path, rgb):
    """Color [H,W,3] intensities in [0,1] as a binary P6 file."""
    data = quantize(rgb)
    if data.ndim != 3 or data.shape[2] != 3:
        raise ValueError(f"PPM needs a [H,W,3] image, got shape {data.shape}")
    _write(path, b"P6", data)


def _read(path, magic, pixel):
    """The uint8 [H,W,*pixel] payload of a binary netpbm file with this magic."""
    with open(path, "rb") as fh:
        if fh.read(2) != magic:
            raise ValueError(f"not a {magic.decode()} file")
        tokens = []
        while len(tokens) < 3:
            line = fh.readline()
            if not line:
                raise ValueError("truncated netpbm header")
            tokens.extend(line.split(b"#", 1)[0].split())
        w, h, maxval = (int(t) for t in tokens[:3])
        if w < 1 or h < 1:
            raise ValueError(f"image size must be positive, got {w}x{h}")
        if maxval != 255:
            raise ValueError(f"only maxval 255 is supported, got {maxval}")
        shape = (h, w) + pixel
        # checked against the file size first: a header can claim any size
        if os.fstat(fh.fileno()).st_size - fh.tell() < math.prod(shape):
            raise ValueError(f"truncated {magic.decode()} payload")
        data = np.frombuffer(fh.read(math.prod(shape)), dtype=np.uint8)
    return data.reshape(shape).copy()


def read_pgm(path):
    """Binary P5 file as a uint8 [H,W] array."""
    return _read(path, b"P5", ())


def read_ppm(path):
    """Binary P6 file as a uint8 [H,W,3] array."""
    return _read(path, b"P6", (3,))
