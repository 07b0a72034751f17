"""Core raster and matrix value types plus bit-exact file I/O.

Conventions shared by every other module:

* images are row-major ``(height, width)`` float64 grids, normalized to the
  canonical dynamic range [0, 1] on load (reconstructions may exceed it; the
  range is re-imposed only when exporting),
* flattening an image into the linear measurement model is always row-major,
* file formats: binary PGM (``P5``, 8/16-bit, big-endian samples) and the
  lossless SPIF raw-float grid used as an intermediate in tests.
"""

from __future__ import annotations

import struct

import numpy as np

SPIF_MAGIC = b"SPIF"
_SPIF_HEADER = struct.Struct("<4sIII")  # magic, width, height, reserved


class FormatError(ValueError):
    """Unsupported, malformed, or truncated image file."""


def _require_finite(a, what):
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} contains non-finite entries")


def complex_grid(data, width=None, height=None):
    """Validated row-major complex grid: complex128, finite, read-only."""
    a = np.asarray(data, dtype=np.complex128)
    if width is not None or height is not None:
        a = a.reshape(height, width)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"bad complex grid shape {a.shape}")
    _require_finite(a, "complex grid")
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


class Image:
    """2D grayscale raster, immutable after construction.

    ``data`` is a read-only float64 array of shape (height, width). Loaded
    images are in [0, 1]; ``source_depth``/``source_maxval`` record the file
    quantization so round-trips can be checked.
    """

    __slots__ = ("data", "source_depth", "source_maxval")

    def __init__(self, data, source_depth=8, source_maxval=None):
        a = np.asarray(data, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError(f"image must be 2D and non-empty, got shape {a.shape}")
        _require_finite(a, "image")
        a = np.ascontiguousarray(a)
        a.flags.writeable = False
        object.__setattr__(self, "data", a)
        object.__setattr__(self, "source_depth", int(source_depth))
        object.__setattr__(self, "source_maxval", int(source_maxval if source_maxval is not None
                                                      else (1 << int(source_depth)) - 1))

    def __setattr__(self, name, value):
        raise AttributeError("Image is immutable")

    @property
    def width(self):
        return self.data.shape[1]

    @property
    def height(self):
        return self.data.shape[0]

    def vector(self):
        """Row-major flattening used by the linear measurement model."""
        return self.data.ravel()

    def __eq__(self, other):
        return (isinstance(other, Image) and self.data.shape == other.data.shape
                and np.array_equal(self.data, other.data))

    def __repr__(self):
        return f"Image({self.width}x{self.height}, depth={self.source_depth})"


# --------------------------------------------------------------------------
# PGM (P5)
# --------------------------------------------------------------------------

def _read_pgm_tokens(buf, count):
    """Read `count` whitespace-separated header tokens, skipping '#' comments."""
    tokens = []
    pos = 0
    while len(tokens) < count:
        if pos >= len(buf):
            raise FormatError("truncated PGM header")
        c = buf[pos:pos + 1]
        if c == b"#":
            nl = buf.find(b"\n", pos)
            if nl < 0:
                raise FormatError("truncated PGM header")
            pos = nl + 1
        elif c.isspace():
            pos += 1
        else:
            end = pos
            while end < len(buf) and not buf[end:end + 1].isspace() and buf[end:end + 1] != b"#":
                end += 1
            tokens.append(buf[pos:end])
            pos = end
    return tokens, pos


def _load_pgm(buf):
    tokens, pos = _read_pgm_tokens(buf, 4)
    if tokens[0] != b"P5":
        raise FormatError(f"not a binary PGM (magic {tokens[0]!r})")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError as e:
        raise FormatError("non-numeric PGM header field") from e
    if width < 1 or height < 1:
        raise FormatError(f"zero or negative PGM dimensions {width}x{height}")
    if not 0 < maxval < 65536:
        raise FormatError(f"PGM maxval {maxval} out of range")
    pos += 1  # single whitespace byte after maxval, per the PGM spec
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    need = width * height * dtype.itemsize
    raw = buf[pos:pos + need]
    if len(raw) < need:
        raise FormatError(f"truncated PGM payload ({len(raw)} of {need} bytes)")
    samples = np.frombuffer(raw, dtype=dtype).reshape(height, width)
    data = samples.astype(np.float64) / maxval
    depth = 16 if maxval > 255 else 8
    return Image(data, source_depth=depth, source_maxval=maxval)


def _load_spif(buf):
    if len(buf) < _SPIF_HEADER.size:
        raise FormatError("truncated SPIF header")
    magic, width, height, _reserved = _SPIF_HEADER.unpack_from(buf)
    if magic != SPIF_MAGIC:
        raise FormatError("bad SPIF magic")
    if width < 1 or height < 1:
        raise FormatError(f"zero SPIF dimensions {width}x{height}")
    need = width * height * 8
    raw = buf[_SPIF_HEADER.size:_SPIF_HEADER.size + need]
    if len(raw) < need:
        raise FormatError(f"truncated SPIF payload ({len(raw)} of {need} bytes)")
    data = np.frombuffer(raw, dtype="<f8").reshape(height, width)
    _require_finite(data, "SPIF image")
    return Image(data, source_depth=16, source_maxval=65535)


def load_image(path):
    """Load an 8/16-bit binary PGM or a SPIF raw-float grid.

    Intensities are mapped affinely to [0, 1] (sample / maxval); the file's
    bit depth and maxval are retained on the Image for round-tripping.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) == 0:
        raise FormatError(f"empty file: {path}")
    if buf[:2] == b"P5":
        return _load_pgm(buf)
    if buf[:4] == SPIF_MAGIC:
        return _load_spif(buf)
    raise FormatError(f"unsupported image format in {path}")


def save_image(img, path, depth=8):
    """Write a binary PGM; intensities are clamped to [0, 1] and quantized.

    Quantization is round-half-up so e.g. 0.5 at 8-bit becomes byte 128.
    """
    if depth not in (8, 16):
        raise ValueError(f"depth must be 8 or 16, got {depth}")
    maxval = (1 << depth) - 1
    clamped = np.clip(img.data, 0.0, 1.0)
    q = np.floor(clamped * maxval + 0.5)
    dtype = np.dtype(">u2") if depth == 16 else np.dtype("u1")
    header = f"P5\n{img.width} {img.height}\n{maxval}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(q.astype(dtype).tobytes())


def save_spif(img, path):
    """Write the lossless raw-float SPIF format (no clamping)."""
    with open(path, "wb") as fh:
        fh.write(_SPIF_HEADER.pack(SPIF_MAGIC, img.width, img.height, 0))
        fh.write(np.ascontiguousarray(img.data, dtype="<f8").tobytes())
