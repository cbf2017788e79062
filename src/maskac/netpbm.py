"""Binary netpbm images (P5 grayscale, P6 color) with a fixed quantization rule.

Intensities in [0,1] map to bytes as floor(v*255 + 0.5) clamped to
[0,255], so 0.5 becomes 128 on every platform.
"""

from __future__ import annotations

import os

import numpy as np


def quantize(values):
    v = np.floor(np.asarray(values, dtype=np.float64) * 255.0 + 0.5)
    return np.clip(v, 0, 255).astype(np.uint8)


def dequantize(bytes_):
    return np.asarray(bytes_, dtype=np.float64) / 255.0


def write_pgm(path, values):
    """Grayscale [H,W] intensities in [0,1] as a binary P5 file."""
    data = quantize(values)
    if data.ndim != 2:
        raise ValueError(f"PGM needs a 2-d image, got shape {data.shape}")
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


def write_ppm(path, rgb):
    """Color [H,W,3] intensities in [0,1] as a binary P6 file."""
    data = quantize(rgb)
    if data.ndim != 3 or data.shape[2] != 3:
        raise ValueError(f"PPM needs a [H,W,3] image, got shape {data.shape}")
    h, w, _ = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


def _read_header(fh, magic):
    if fh.read(2) != magic:
        raise ValueError(f"not a {magic.decode()} file")
    tokens = []
    while len(tokens) < 3:
        line = fh.readline()
        if not line:
            raise ValueError("truncated netpbm header")
        text = line.split(b"#", 1)[0]
        tokens.extend(text.split())
    w, h, maxval = (int(t) for t in tokens[:3])
    if w < 1 or h < 1:
        raise ValueError(f"image size must be positive, got {w}x{h}")
    if maxval != 255:
        raise ValueError(f"only maxval 255 is supported, got {maxval}")
    return w, h


def _read_payload(fh, n_bytes, kind):
    # checked against the file size first: a header can claim any size
    if os.fstat(fh.fileno()).st_size - fh.tell() < n_bytes:
        raise ValueError(f"truncated {kind} payload")
    return np.frombuffer(fh.read(n_bytes), dtype=np.uint8)


def read_pgm(path):
    """Binary P5 file as a uint8 [H,W] array."""
    with open(path, "rb") as fh:
        w, h = _read_header(fh, b"P5")
        data = _read_payload(fh, w * h, "PGM")
    return data.reshape(h, w).copy()


def read_ppm(path):
    """Binary P6 file as a uint8 [H,W,3] array."""
    with open(path, "rb") as fh:
        w, h = _read_header(fh, b"P6")
        data = _read_payload(fh, w * h * 3, "PPM")
    return data.reshape(h, w, 3).copy()
