"""The core image type plus bit-exact file I/O.

Conventions shared by every other module:

* images are row-major ``(height, width)`` float64 grids, normalized to the
  canonical dynamic range [0, 1] on load (reconstructions may exceed it; the
  range is re-imposed only when exporting),
* flattening an image into the linear measurement model is always row-major,
* file formats: binary PGM (``P5``, 8/16-bit, big-endian samples) and
  SPIF, a lossless raw-float grid that load_image also reads,
* the binary SPIP, SPIM and SPIV readers check their headers through
  read_header and require_size; every CSV export goes through write_csv.
"""

from __future__ import annotations

import numbers
import os
import struct
from dataclasses import fields

import numpy as np

SPIF_MAGIC = b"SPIF"
_SPIF_HEADER = struct.Struct("<4sIII")  # magic, width, height, reserved


class FormatError(ValueError):
    """Unsupported, malformed, or truncated file."""


def read_header(fh, header_struct, magic, version, name):
    """Read a binary header whose first two fields are its magic and version
    and check both; returns the remaining fields."""
    head = fh.read(header_struct.size)
    if len(head) < header_struct.size:
        raise FormatError(f"truncated {name} header ({len(head)} bytes)")
    got_magic, got_version, *rest = header_struct.unpack(head)
    if got_magic != magic:
        raise FormatError(f"bad {name} magic")
    if got_version != version:
        raise FormatError(f"unsupported {name} version {got_version}")
    return rest


def require_size(fh, need, name):
    """Raise FormatError unless the open file is exactly `need` bytes long."""
    size = os.fstat(fh.fileno()).st_size
    if size != need:
        raise FormatError(f"{name} file is {size} bytes, header says {need}")


def write_csv(path, header, rows):
    """Write the `header` names and then one line per row. A value is written
    with str(), so a Python float as its repr, and None as an empty field."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("" if v is None else str(v) for v in row) + "\n")


_FIELD_TYPES = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a number"),
                "str": (str, "a string")}


def check_field_types(obj, label):
    """Raise ValueError unless each field of the dataclass `obj` holds its
    annotated type: int, float (any real), str, or list[...] of one of them.
    A bool is not a number; a field that defaults to None may be None.
    `label` formats a field name for the message, e.g. "TV {}"."""
    for f in fields(obj):
        value, name = getattr(obj, f.name), label.format(f.name)
        inner = f.type.removeprefix("list[").removesuffix("]")
        cls, what = _FIELD_TYPES[inner]
        if value is None and f.default is None:
            continue
        if inner == f.type:
            items, where = [value], ""
        elif isinstance(value, list):
            items, where = value, "an entry of "
        else:
            raise ValueError(f"{name} must be a list, got {type(value).__name__}")
        for v in items:
            if isinstance(v, bool) or not isinstance(v, cls):
                raise ValueError(f"{where}{name} must be {what}, got {v!r}")


def require_u64(value, what):
    """Raise ValueError unless `value` fits the unsigned 64-bit field it is
    written to: [0, 2^64)."""
    if not 0 <= value < 1 << 64:
        raise ValueError(f"{what} must lie in [0, 2^64), got {value!r}")


def _require_finite(a, what):
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} contains non-finite entries")


class Image:
    """2D grayscale raster, immutable after construction.

    ``data`` is a read-only float64 array of shape (height, width). Loaded
    images are in [0, 1].
    """

    __slots__ = ("data",)

    def __init__(self, data):
        a = np.asarray(data, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError(f"image must be 2D and non-empty, got shape {a.shape}")
        _require_finite(a, "image")
        a = np.ascontiguousarray(a)
        a.flags.writeable = False
        object.__setattr__(self, "data", a)

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
        return f"Image({self.width}x{self.height})"


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
    return Image(samples.astype(np.float64) / maxval)


def _load_spif(fh):
    """Read a SPIF file from its start; load_image has matched the magic."""
    head = fh.read(_SPIF_HEADER.size)
    if len(head) < _SPIF_HEADER.size:
        raise FormatError(f"truncated SPIF header ({len(head)} bytes)")
    _magic, width, height, _reserved = _SPIF_HEADER.unpack(head)
    if width < 1 or height < 1:
        raise FormatError(f"zero SPIF dimensions {width}x{height}")
    require_size(fh, _SPIF_HEADER.size + 8 * width * height, "SPIF")
    data = np.fromfile(fh, dtype="<f8", count=width * height).reshape(height, width)
    _require_finite(data, "SPIF image")
    return Image(data)


def load_image(path):
    """Load an 8/16-bit binary PGM or a SPIF raw-float grid.

    PGM intensities are mapped affinely to [0, 1] (sample / maxval).
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(SPIF_MAGIC))
        if not magic:
            raise FormatError(f"empty file: {path}")
        fh.seek(0)
        if magic[:2] == b"P5":
            return _load_pgm(fh.read())
        if magic == SPIF_MAGIC:
            return _load_spif(fh)
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
