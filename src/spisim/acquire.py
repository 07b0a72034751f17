"""Single-pixel measurement simulation: Y[i] = <X, row_i> plus detector noise.

Noise pipeline order mirrors the physical chain: multiplicative source
fluctuation, then additive detector noise, then uniform ADC quantization.
The reference scale for both the additive term and the quantizer is the
maximum absolute sample observed after source fluctuation in the run
(oscilloscope range selection), recorded on the Measurement.

Differential photodetection measures Y = <X, P> and Ybar = <X, 1-P>
simultaneously for binary patterns P; the per-sample source fluctuation is
shared between the two detectors (same illumination) while additive noise
is independent. Their difference feeds reconstruction, pairing with the
bipolar effective matrix 2P - 1.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .imgcore import FormatError, read_header, require_size, write_csv
from .patterns import PatternSet, _row_blocks, noiselet2, wht2

SPIM_MAGIC = b"SPIM"
SPIM_VERSION = 1
_FLAG_DIFFERENTIAL = 0x01
_FLAG_COMPLEX = 0x02
_SPIM_HEADER = struct.Struct("<4sHIB")
_SPIM_TRAILER = struct.Struct("<ddIQdd")  # additive, fluct, adc_bits, seed, cr, full_scale


@dataclass(frozen=True)
class NoiseModel:
    """additive_sigma and source_fluctuation_sigma are fractions of full scale;
    adc_bits = 0 disables quantization."""

    additive_sigma: float = 0.0
    adc_bits: int = 0
    source_fluctuation_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.additive_sigma < 0:
            raise ValueError("additive_sigma must be >= 0")
        if not 0 <= self.adc_bits <= 24:
            raise ValueError("adc_bits must be in [0, 24]")
        if self.source_fluctuation_sigma < 0:
            raise ValueError("source_fluctuation_sigma must be >= 0")


@dataclass(frozen=True)
class Measurement:
    values: np.ndarray
    pattern_set_hash: bytes
    noise_model: NoiseModel
    compression_ratio: float
    values_bar: object = None
    full_scale: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.compression_ratio <= 1.0:
            raise ValueError(f"compression ratio {self.compression_ratio} outside (0, 1]")
        if len(self.pattern_set_hash) != 32:
            raise ValueError("pattern_set_hash must be 32 bytes")
        # SPIM has no layout for both: differential pairs come from binary sets
        if self.values_bar is not None and np.iscomplexobj(self.values):
            raise ValueError("a differential measurement (values_bar) cannot have complex values")

    @property
    def k(self):
        return len(self.values)

    @property
    def is_differential(self):
        return self.values_bar is not None


def _raw_dot_products(img, ps: PatternSet):
    """<X, row_i> for every row: basis kinds by one fast transform, morlet
    kinds in float64 over blocks of at most 1 MB. Dense float64 copies of
    all rows would take 8 k n bytes (92 MiB for the 1.3 MiB of packed rows
    at 128 x 128, k = 655). morlet-real rows are column-major, so their
    blocks are column blocks, contiguous in that layout; packed binary rows
    are unpacked by row blocks."""
    if ps.kind == "walsh-hadamard":
        t = wht2(img.data).ravel()
        return t[np.asarray(ps.row_meta)]
    if ps.kind == "noiselet":
        t = noiselet2(img.data).ravel()
        return t[np.asarray(ps.row_meta)]
    x = img.vector()
    if ps.kind == "morlet-real":
        out = np.zeros(ps.k)
        for sl in _row_blocks(ps.n, 8 * ps.k):
            out += ps.rows[:, sl].astype(np.float64, copy=False) @ x[sl]
        return out
    return np.concatenate([ps.dense(rows=sl) @ x for sl in _row_blocks(ps.k, 8 * ps.n)])


def _quantize(values, step):
    if np.iscomplexobj(values):
        return (np.round(values.real / step) + 1j * np.round(values.imag / step)) * step
    return np.round(values / step) * step


def apply_noise_chain(raw_blocks, nm: NoiseModel):
    """Shared-fluctuation noise chain over one or two sample blocks."""
    k = len(raw_blocks[0])
    rng = np.random.default_rng(nm.seed)
    fluct = 1.0 + nm.source_fluctuation_sigma * rng.standard_normal(k) \
        if nm.source_fluctuation_sigma > 0 else np.ones(k)
    blocks = [b * fluct for b in raw_blocks]
    scale = max(float(np.max(np.abs(b))) if b.size else 0.0 for b in blocks)
    if nm.additive_sigma > 0 and scale > 0:
        out = []
        for b in blocks:
            if np.iscomplexobj(b):
                noise = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            else:
                noise = rng.standard_normal(k)
            out.append(b + nm.additive_sigma * scale * noise)
        blocks = out
    full_scale = 0.0
    if nm.adc_bits > 0 and scale > 0:
        full_scale = max(float(np.max(np.abs(b))) for b in blocks)
        if full_scale > 0:
            step = full_scale / (1 << nm.adc_bits)
            blocks = [_quantize(b, step) for b in blocks]
    return blocks, full_scale


def measure(img, ps: PatternSet, nm: NoiseModel = NoiseModel()) -> Measurement:
    """Simulate the plain (single-detector) measurement Y = M x."""
    if (img.width, img.height) != (ps.width, ps.height):
        raise ValueError(
            f"image {img.width}x{img.height} does not match patterns {ps.width}x{ps.height}"
        )
    raw = _raw_dot_products(img, ps)
    (values,), full_scale = apply_noise_chain([raw], nm)
    return Measurement(values=values, pattern_set_hash=ps.content_hash(),
                       noise_model=nm, compression_ratio=ps.k / ps.n,
                       full_scale=full_scale)


def measure_differential(img, ps: PatternSet, nm: NoiseModel = NoiseModel()) -> Measurement:
    """Two-detector measurement of a binary set: Y = <X, P>, Ybar = <X, 1-P>."""
    if not ps.is_binary:
        raise ValueError(f"differential measurement needs a binary set, got {ps.kind!r}")
    if (img.width, img.height) != (ps.width, ps.height):
        raise ValueError("image dimensions do not match pattern set")
    raw_y = _raw_dot_products(img, ps)
    raw_ybar = img.vector().sum() - raw_y
    (values, values_bar), full_scale = apply_noise_chain([raw_y, raw_ybar], nm)
    return Measurement(values=values, values_bar=values_bar,
                       pattern_set_hash=ps.content_hash(), noise_model=nm,
                       compression_ratio=ps.k / ps.n, full_scale=full_scale)


def combine_differential(m: Measurement):
    """Y - Ybar; pairs with the bipolar effective matrix 2P - 1."""
    if not m.is_differential:
        raise ValueError("measurement has no differential data")
    return m.values - m.values_bar


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def save_measurement(m: Measurement, path):
    flags = 0
    if m.is_differential:
        flags |= _FLAG_DIFFERENTIAL
    if np.iscomplexobj(m.values):
        flags |= _FLAG_COMPLEX
    with open(path, "wb") as fh:
        fh.write(_SPIM_HEADER.pack(SPIM_MAGIC, SPIM_VERSION, m.k, flags))
        fh.write(np.ascontiguousarray(m.values).astype(
            "<c16" if flags & _FLAG_COMPLEX else "<f8").tobytes())
        if m.is_differential:
            fh.write(np.ascontiguousarray(m.values_bar, dtype="<f8").tobytes())
        fh.write(m.pattern_set_hash)
        nm = m.noise_model
        fh.write(_SPIM_TRAILER.pack(nm.additive_sigma, nm.source_fluctuation_sigma,
                                    nm.adc_bits, nm.seed,
                                    m.compression_ratio, m.full_scale))


def load_measurement(path) -> Measurement:
    with open(path, "rb") as fh:
        k, flags = read_header(fh, _SPIM_HEADER, SPIM_MAGIC, SPIM_VERSION, "SPIM")
        # Measurement refuses complex differential values, so 0x03 is never written
        if flags not in (0, _FLAG_DIFFERENTIAL, _FLAG_COMPLEX):
            raise FormatError(f"unknown SPIM flags 0x{flags:02x}")
        dtype = np.dtype("<c16" if flags & _FLAG_COMPLEX else "<f8")
        differential = bool(flags & _FLAG_DIFFERENTIAL)
        require_size(fh, _SPIM_HEADER.size + k * (dtype.itemsize + 8 * differential) + 32
                     + _SPIM_TRAILER.size, "SPIM")
        values = np.fromfile(fh, dtype=dtype, count=k)
        values_bar = np.fromfile(fh, dtype="<f8", count=k) if differential else None
        digest = fh.read(32)
        additive, fluct, adc_bits, seed, cr, full_scale = \
            _SPIM_TRAILER.unpack(fh.read(_SPIM_TRAILER.size))
    nm = NoiseModel(additive_sigma=additive, adc_bits=adc_bits,
                    source_fluctuation_sigma=fluct, seed=seed)
    return Measurement(values=values, values_bar=values_bar, pattern_set_hash=digest,
                       noise_model=nm, compression_ratio=cr, full_scale=full_scale)


def measurement_to_csv(m: Measurement, path):
    """CSV export: index,value[,value_bar]; complex values as value_re,value_im."""
    if np.iscomplexobj(m.values):
        header, columns = ["value_re", "value_im"], [m.values.real, m.values.imag]
    elif m.is_differential:
        header, columns = ["value", "value_bar"], [m.values, m.values_bar]
    else:
        header, columns = ["value"], [m.values]
    write_csv(path, ["index", *header],
              zip(range(m.k), *(np.asarray(c, dtype=np.float64).tolist() for c in columns)))
