"""Single-pixel measurement simulation: Y[i] = <X, row_i> plus detector noise.

Every sample is real, one per detector frame: a complex noiselet row gives
two, so a k-row noiselet set yields 2k samples [Re(N x)[idx]; Im(N x)[idx]].

Differential photodetection measures Y = <X, P> and Ybar = <X, 1-P>
simultaneously for binary patterns P. Their difference feeds
reconstruction, pairing with the bipolar effective matrix 2P - 1.

The noise chain (`apply_noise_chain`) runs on one (detectors, k) array of
raw samples, Y or [Y; Ybar], in the order of the physical chain:
multiplicative source fluctuation, one draw per frame shared by the
detectors (same illumination); additive detector noise, independent per
sample; then uniform ADC quantization. The reference scale for both the
additive term and the quantizer is the largest absolute sample after
source fluctuation (oscilloscope range selection), and the quantizer's
full scale is recorded on the Measurement. `measure` and
`measure_differential` hand their raw samples to one constructor,
`_measurement`.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .imgcore import FormatError, read_header, require_size, require_u64, write_csv
from .patterns import PatternSet, _row_blocks, noiselet2, wht2

SPIM_MAGIC = b"SPIM"
# 2: compression_ratio counts real samples per pixel (two per noiselet row)
SPIM_VERSION = 2
_FLAG_DIFFERENTIAL = 0x01
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
        for name in ("additive_sigma", "source_fluctuation_sigma"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:   # also rejects NaN
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if not 0 <= self.adc_bits <= 24:
            raise ValueError("adc_bits must be in [0, 24]")
        require_u64(self.seed, "noise seed")


@dataclass(frozen=True)
class Measurement:
    values: np.ndarray
    pattern_set_hash: bytes
    noise_model: NoiseModel
    compression_ratio: float
    values_bar: object = None
    full_scale: float = 0.0

    def __post_init__(self):
        # real samples per pixel: a complete noiselet set gives 2
        if not 0.0 < self.compression_ratio <= 2.0:
            raise ValueError(f"compression ratio {self.compression_ratio} outside (0, 2]")
        if len(self.pattern_set_hash) != 32:
            raise ValueError("pattern_set_hash must be 32 bytes")
        shapes = [np.shape(v) for v in (self.values, self.values_bar) if v is not None]
        if len(shapes[0]) != 1 or len(set(shapes)) > 1:
            raise ValueError("measurement values and values_bar must be 1-D arrays of one "
                             f"length, got shapes {shapes}")
        # SPIM stores real samples only: a complex array would lose its imaginary part
        if np.iscomplexobj(self.values) or np.iscomplexobj(self.values_bar):
            raise ValueError("measurement values must be real samples "
                             "(a noiselet row gives two: Re, then Im)")
        if not all(np.isfinite(v).all() for v in (self.values, self.values_bar)
                   if v is not None):
            raise ValueError("measurement samples must be finite")

    @property
    def k(self):
        return len(self.values)

    @property
    def is_differential(self):
        return self.values_bar is not None


def _raw_dot_products(img, ps: PatternSet):
    """<X, row_i> for every row: basis kinds by one fast transform (noiselet
    as [Re; Im]), morlet kinds in float64 over blocks of at most 1 MB.
    Dense float64 copies of all rows would take 8 k n bytes (92 MiB for the
    1.3 MiB of packed rows at 128 x 128, k = 655). morlet-real rows are
    column-major, so their blocks are column blocks, contiguous in that
    layout; packed binary rows are unpacked by row blocks. ValueError when
    the image grid is not the set's."""
    if (img.width, img.height) != (ps.width, ps.height):
        raise ValueError(f"image {img.width}x{img.height} does not match patterns "
                         f"{ps.width}x{ps.height}")
    if ps.kind == "walsh-hadamard":
        return wht2(img.data).ravel()[ps.row_meta]
    if ps.kind == "noiselet":
        t = noiselet2(img.data).ravel()[ps.row_meta]
        return np.concatenate([t.real, t.imag])
    x = img.vector()
    if ps.kind == "morlet-real":
        out = np.zeros(ps.k)
        for sl in _row_blocks(ps.n, 8 * ps.k):
            out += ps.rows[:, sl].astype(np.float64, copy=False) @ x[sl]
        return out
    return np.concatenate([ps.dense(rows=sl) @ x for sl in _row_blocks(ps.k, 8 * ps.n)])


def apply_noise_chain(y, nm: NoiseModel):
    """(noisy samples, full_scale) of the raw (detectors, k) samples y. The
    additive draw is one (detectors, k) block, detector by detector;
    full_scale is 0.0 unless the ADC quantized."""
    rng = np.random.default_rng(nm.seed)
    if nm.source_fluctuation_sigma > 0:
        y = y * (1.0 + nm.source_fluctuation_sigma * rng.standard_normal(y.shape[1]))
    scale = float(np.max(np.abs(y), initial=0.0))
    if nm.additive_sigma > 0 and scale > 0:
        y = y + nm.additive_sigma * scale * rng.standard_normal(y.shape)
    full_scale = float(np.max(np.abs(y))) if nm.adc_bits > 0 and scale > 0 else 0.0
    if full_scale > 0:
        step = full_scale / (1 << nm.adc_bits)
        y = np.round(y / step) * step
    return y, full_scale


def _measurement(ps: PatternSet, raw, nm: NoiseModel) -> Measurement:
    """The Measurement of ps's raw samples, Y[None] or [Y; Ybar], through
    the noise chain."""
    samples, full_scale = apply_noise_chain(raw, nm)
    return Measurement(values=samples[0], values_bar=samples[1] if len(samples) > 1 else None,
                       pattern_set_hash=ps.content_hash(), noise_model=nm,
                       compression_ratio=raw.shape[1] / ps.n, full_scale=full_scale)


def measure(img, ps: PatternSet, nm: NoiseModel = NoiseModel()) -> Measurement:
    """Simulate the plain (single-detector) measurement Y = M x."""
    return _measurement(ps, _raw_dot_products(img, ps)[None], nm)


def measure_differential(img, ps: PatternSet, nm: NoiseModel = NoiseModel()) -> Measurement:
    """Two-detector measurement of a binary set: Y = <X, P>, Ybar = <X, 1-P>."""
    if not ps.is_binary:
        raise ValueError(f"differential measurement needs a binary set, got {ps.kind!r}")
    raw_y = _raw_dot_products(img, ps)
    return _measurement(ps, np.stack([raw_y, img.vector().sum() - raw_y]), nm)


def combine_differential(m: Measurement):
    """Y - Ybar; pairs with the bipolar effective matrix 2P - 1."""
    if not m.is_differential:
        raise ValueError("measurement has no differential data")
    return m.values - m.values_bar


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def save_measurement(m: Measurement, path):
    flags = _FLAG_DIFFERENTIAL if m.is_differential else 0
    with open(path, "wb") as fh:
        fh.write(_SPIM_HEADER.pack(SPIM_MAGIC, SPIM_VERSION, m.k, flags))
        for v in (m.values, m.values_bar)[:1 + m.is_differential]:
            fh.write(np.ascontiguousarray(v, dtype="<f8").tobytes())
        fh.write(m.pattern_set_hash)
        nm = m.noise_model
        fh.write(_SPIM_TRAILER.pack(nm.additive_sigma, nm.source_fluctuation_sigma,
                                    nm.adc_bits, nm.seed,
                                    m.compression_ratio, m.full_scale))


def load_measurement(path) -> Measurement:
    with open(path, "rb") as fh:
        k, flags = read_header(fh, _SPIM_HEADER, SPIM_MAGIC, SPIM_VERSION, "SPIM")
        if flags not in (0, _FLAG_DIFFERENTIAL):
            raise FormatError(f"unknown SPIM flags 0x{flags:02x}")
        differential = flags == _FLAG_DIFFERENTIAL
        require_size(fh, _SPIM_HEADER.size + 8 * k * (1 + differential) + 32
                     + _SPIM_TRAILER.size, "SPIM")
        values = np.fromfile(fh, dtype="<f8", count=k)
        values_bar = np.fromfile(fh, dtype="<f8", count=k) if differential else None
        digest = fh.read(32)
        additive, fluct, adc_bits, seed, cr, full_scale = \
            _SPIM_TRAILER.unpack(fh.read(_SPIM_TRAILER.size))
    nm = NoiseModel(additive_sigma=additive, adc_bits=adc_bits,
                    source_fluctuation_sigma=fluct, seed=seed)
    return Measurement(values=values, values_bar=values_bar, pattern_set_hash=digest,
                       noise_model=nm, compression_ratio=cr, full_scale=full_scale)


def measurement_to_csv(m: Measurement, path):
    """CSV export: index,value[,value_bar], one line per real sample."""
    columns = (m.values, m.values_bar)[:1 + m.is_differential]
    write_csv(path, ["index", "value", "value_bar"][:1 + len(columns)],
              zip(range(m.k), *(np.asarray(c, dtype=np.float64).tolist() for c in columns)))
