"""Binary netpbm I/O: P6 (PPM, RGB) and P5 (PGM, gray), maxval 255.

Writers take uint8 levels, written as they are, or floats in [0, 1],
quantized with round half up, floor(v * 255 + 0.5). `read_levels` returns
the file's uint8 levels, and `read_ppm`/`read_pgm` scale them to floats
with `to_unit` (divide by 255), so a float write/read round trip moves a
value by at most 1/510. Parse failures report the byte offset, and writing
refuses a NaN or infinite value rather than store a grey level for it.
Writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import math
import os

import numpy as np


class NetpbmError(ValueError):
    """Malformed or truncated netpbm file."""


def _quantize(path, a: np.ndarray) -> np.ndarray:
    if a.dtype == np.uint8:   # levels already, as load_dataset keeps frames
        return a
    a = np.asarray(a, dtype=np.float64)
    if not np.isfinite(a).all():
        raise NetpbmError(f"{path}: non-finite pixel value, nothing written")
    q = np.floor(a * 255.0 + 0.5)
    return np.clip(q, 0.0, 255.0).astype(np.uint8)


def atomic_write_bytes(path, data: bytes) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_ppm(path, img: np.ndarray) -> None:
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"PPM image must be (h, w, 3), got {img.shape}")
    h, w, _ = img.shape
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + _quantize(path, img).tobytes())


def write_pgm(path, img: np.ndarray) -> None:
    img = np.asarray(img)
    if img.ndim != 2:
        raise ValueError(f"PGM image must be (h, w), got {img.shape}")
    h, w = img.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + _quantize(path, img).tobytes())


class _Scanner:
    """Tokenizer for the netpbm header: whitespace-separated tokens with
    # comments running to end of line."""

    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.off = 0
        self.path = path

    def fail(self, msg: str, at: int | None = None):
        where = self.off if at is None else at
        raise NetpbmError(f"{self.path}: {msg} at byte {where}")

    def token(self, what: str) -> bytes:
        b = self.blob
        n = len(b)
        while self.off < n:
            ch = b[self.off]
            if ch in b" \t\r\n\x0b\x0c":
                self.off += 1
            elif ch == ord("#"):
                while self.off < n and b[self.off] not in b"\r\n":
                    self.off += 1
            else:
                break
        if self.off >= n:
            self.fail(f"missing {what}")
        start = self.off
        while self.off < n and b[self.off] not in b" \t\r\n\x0b\x0c":
            self.off += 1
        return b[start:self.off]

    def int_token(self, what: str) -> int:
        tok = self.token(what)
        at = self.off - len(tok)
        if not tok.isdigit():
            self.fail(f"expected integer {what}, found {tok[:16]!r}", at=at)
        try:
            return int(tok)
        except ValueError:   # past Python's limit on digits per conversion
            self.fail(f"integer {what} of {len(tok)} digits is too long", at=at)


def _parse(path, magic: bytes, channels: int) -> tuple[bytes, tuple, int]:
    """The file's bytes, its image shape and the raster's byte offset, after
    checking the header and that the raster is long enough."""
    with open(path, "rb") as fh:
        blob = fh.read()
    sc = _Scanner(blob, path)
    found = sc.token("magic")
    if found != magic:
        sc.fail(f"expected magic {magic.decode()}, found {found[:16]!r}", at=0)
    w = sc.int_token("width")
    h = sc.int_token("height")
    if w < 1 or h < 1:
        sc.fail(f"non-positive image size {w}x{h}")
    maxval = sc.int_token("maxval")
    if maxval != 255:
        sc.fail(f"unsupported maxval {maxval} (only 255)")
    # Exactly one whitespace byte separates the header from the raster.
    if sc.off >= len(blob) or blob[sc.off] not in b" \t\r\n\x0b\x0c":
        sc.fail("missing whitespace before pixel data")
    sc.off += 1
    need = w * h * channels
    if len(blob) - sc.off < need:
        sc.fail(f"truncated pixel data, need {need} bytes, have {len(blob) - sc.off}")
    return blob, ((h, w, channels) if channels > 1 else (h, w)), sc.off


def read_levels(path, magic: bytes) -> np.ndarray:
    """The raster of a P6 (magic b"P6", (h, w, 3)) or P5 (b"P5", (h, w))
    file as its uint8 levels, 0-255."""
    blob, shape, off = _parse(path, magic, 3 if magic == b"P6" else 1)
    raw = np.frombuffer(blob, dtype=np.uint8, count=math.prod(shape), offset=off)
    return raw.reshape(shape)


def to_unit(levels: np.ndarray) -> np.ndarray:
    """uint8 levels as float64 in [0, 1]: the one place a level is scaled, so
    every reader and the model's input see the same bits."""
    return levels.astype(np.float64) / 255.0


def ppm_shape(path) -> tuple:
    """(h, w, 3) of a PPM whose header and raster length check out, decoding
    no pixels: read_ppm of the same file then fails only if it changed."""
    return _parse(path, b"P6", 3)[1]


def read_ppm(path) -> np.ndarray:
    """(h, w, 3) float image in [0, 1]."""
    return to_unit(read_levels(path, b"P6"))


def read_pgm(path) -> np.ndarray:
    """(h, w) float image in [0, 1]."""
    return to_unit(read_levels(path, b"P5"))
