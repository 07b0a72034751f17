"""Measurement-matrix construction.

Four pattern families:

* ``morlet-real``    rows are Re(g * psi): a Morlet wavelet circularly
                     convolved with unit-variance white Gaussian noise,
                     rescaled to unit L2 norm. Stationary, nonergodic.
* ``morlet-binary``  the same rows passed through the Heaviside step
                     (threshold at zero, ties -> 1), stored bit-packed,
                     with the constant all-ones row always prepended.
* ``walsh-hadamard`` random distinct rows of the orthonormal 2D
                     Walsh-Hadamard basis (index 0, the constant row,
                     always included).
* ``noiselet``       same selection scheme over the complex noiselet basis.

Deterministic kinds are stored procedurally (row indices only); morlet kinds
store per-row (sigma, n_p, theta, seed) so any row can be regenerated
bit-exactly without keeping dense payloads around.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .imgcore import FormatError, real_matrix
# morlet_wavelet is not called here; it stays importable from this module
# because the benchmark's span table wraps patterns.morlet_wavelet
from .wavelets import MorletParams, morlet_spectrum, morlet_wavelet  # noqa: F401

KINDS = ("morlet-real", "morlet-binary", "walsh-hadamard", "noiselet")
MORLET_KINDS = ("morlet-real", "morlet-binary")
DETERMINISTIC_KINDS = ("walsh-hadamard", "noiselet")

SPIP_MAGIC = b"SPIP"
SPIP_VERSION = 2  # 2: rows from the separable Morlet spectrum
_FLAG_PACKED = 0x01
_FLAG_FLOAT64 = 0x02
_FLAG_PROCEDURAL = 0x04
_KIND_CODES = {k: i for i, k in enumerate(KINDS)}

_SPIP_HEADER = struct.Struct("<4sHBIIIQB")
_MORLET_META = struct.Struct("<dddQ")


# --------------------------------------------------------------------------
# seeding
# --------------------------------------------------------------------------

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def splitmix64(seed: int, index: int) -> int:
    """index-th output of a splitmix64 stream seeded at `seed` (64-bit)."""
    z = (seed + (index + 1) * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _row_seeds(master_seed: int, i: int):
    """(params_seed, noise_seed) for row i, decorrelated sub-streams."""
    base = splitmix64(master_seed, i)
    return splitmix64(base, 0), splitmix64(base, 1)


# --------------------------------------------------------------------------
# parameter distribution
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamDistribution:
    """Random Morlet parameters: sigma log-uniform, n_p uniform, theta uniform on [0, pi).

    Draws violating the aliasing guard n_p <= 2*sigma are rejected and
    redrawn, so the guard must be satisfiable: np_lo <= 2*sigma_hi.
    """

    sigma_range: tuple = (2.0, 16.0)
    np_range: tuple = (0.5, 4.0)

    def __post_init__(self):
        slo, shi = self.sigma_range
        plo, phi = self.np_range
        if not (0 < slo <= shi):
            raise ValueError(f"bad sigma_range {self.sigma_range}")
        if not (0 < plo <= phi):
            raise ValueError(f"bad np_range {self.np_range}")
        if plo > 2.0 * shi:
            raise ValueError(
                f"unsatisfiable distribution: n_p >= {plo} but 2*sigma <= {2.0 * shi}"
            )

    @classmethod
    def default_for(cls, width, height):
        """Default calibrated range: sigma in [2, min(w,h)/8], n_p in [0.5, 4]."""
        hi = max(2.0, min(width, height) / 8.0)
        return cls(sigma_range=(2.0, hi), np_range=(0.5, 4.0))

    def sample(self, rng) -> MorletParams:
        slo, shi = self.sigma_range
        plo, phi = self.np_range
        for _ in range(1000):
            sigma = float(np.exp(rng.uniform(np.log(slo), np.log(shi))))
            n_p = float(rng.uniform(plo, phi))
            theta = float(rng.uniform(0.0, np.pi))
            if n_p <= 2.0 * sigma:
                return MorletParams(sigma=sigma, n_p=n_p, theta=theta)
        raise ValueError("could not satisfy n_p <= 2*sigma after 1000 draws")


# --------------------------------------------------------------------------
# single-pattern generation
# --------------------------------------------------------------------------

def gen_morlet_pattern(p: MorletParams, seed: int, width: int, height: int):
    """Wavelet-correlated Gaussian random field, unit L2 norm.

    Circular convolution of white Gaussian noise (from `seed`) with the
    Morlet wavelet, computed in the frequency domain with the wavelet
    cyclically shifted to the origin. Taking the real part of the complex
    convolution equals convolving with Re(g), so the whole product runs in
    real FFTs. The kernel spectrum comes from the separable 1D factors of
    the wavelet (`morlet_spectrum`), up to a positive scale that the final
    normalization cancels, so no wavelet grid or norm is formed. Because the
    wavelet has exactly zero discrete mean, the output has no DC component.
    """
    kernel_hat = morlet_spectrum(p, width, height)
    noise = np.random.default_rng(seed).standard_normal((height, width))
    pattern = np.fft.irfft2(np.fft.rfft2(noise) * kernel_hat, s=(height, width))
    norm = np.linalg.norm(pattern)
    if norm == 0.0:
        raise ValueError("degenerate pattern (zero norm)")
    out = np.ascontiguousarray(pattern / norm)
    out.flags.writeable = False
    return out


def binarize(pattern):
    """Heaviside threshold at zero; exact zeros map to 1."""
    out = (np.asarray(pattern) >= 0.0).astype(np.uint8)
    out.flags.writeable = False
    return out


# --------------------------------------------------------------------------
# fast transforms
# --------------------------------------------------------------------------

def _check_pow2(m):
    if m < 1 or (m & (m - 1)) != 0:
        raise ValueError(f"length {m} is not a power of 2")


def _butterfly(a, combine):
    """Apply a 2x2 stage kernel along the last axis, MSB block first."""
    m = a.shape[-1]
    lead = a.shape[:-1]
    span = m
    while span > 1:
        half = span // 2
        b = a.reshape(lead + (m // span, 2, half))
        top = b[..., 0, :]
        bot = b[..., 1, :]
        b[..., 0, :], b[..., 1, :] = combine(top, bot)
        span = half
    return a.reshape(lead + (m,))


def fast_wht(v):
    """Orthonormal Walsh-Hadamard transform along the last axis, O(m log m).

    Matches the Kronecker construction H(2m) = H2 (x) H(m) with
    H2 = [[1, 1], [1, -1]]/sqrt(2). Involutive: applying it twice is the
    identity.
    """
    a = np.array(v, dtype=np.float64 if not np.iscomplexobj(v) else np.complex128)
    m = a.shape[-1]
    _check_pow2(m)
    a = _butterfly(a, lambda t, b: (t + b, t - b))
    a *= m ** -0.5
    return a


def fast_noiselet(v):
    """Unitary noiselet transform along the last axis, O(m log m).

    Stage kernel (1-i)/2 * [[1, i], [i, 1]], applied via the Kronecker
    recursion; the scalar stage factors are folded into one final scaling.
    """
    a = np.array(v, dtype=np.complex128)
    m = a.shape[-1]
    _check_pow2(m)
    p = int(m).bit_length() - 1
    a = _butterfly(a, lambda t, b: (t + 1j * b, 1j * t + b))
    a *= ((1.0 - 1.0j) / 2.0) ** p
    return a


def fast_noiselet_inverse(v):
    """Inverse (conjugate-transpose) noiselet transform along the last axis."""
    return np.conj(fast_noiselet(np.conj(v)))


def wht2(grid):
    """2D orthonormal Walsh-Hadamard transform (rows, then columns)."""
    return np.swapaxes(fast_wht(np.swapaxes(fast_wht(grid), -1, -2)), -1, -2)


def noiselet2(grid):
    return np.swapaxes(fast_noiselet(np.swapaxes(fast_noiselet(grid), -1, -2)), -1, -2)


def noiselet2_inverse(grid):
    return np.conj(noiselet2(np.conj(grid)))


def basis_row_2d(kind, index, width, height):
    """Row `index` of the 2D transform matrix H_h (x) H_w, as a (h, w) grid.

    Row-major pairing: index = iy * width + ix, and the grid value at (y, x)
    is H_h[iy, y] * H_w[ix, x]. Computed with the fast transforms applied to
    unit vectors (both matrices are symmetric, so rows equal columns).
    """
    if kind not in DETERMINISTIC_KINDS:
        raise ValueError(f"no deterministic basis for kind {kind!r}")
    n = width * height
    if not 0 <= index < n:
        raise ValueError(f"row index {index} out of range for {width}x{height}")
    _check_pow2(width)
    _check_pow2(height)
    iy, ix = divmod(int(index), width)
    transform = fast_wht if kind == "walsh-hadamard" else fast_noiselet
    ey = np.zeros(height)
    ey[iy] = 1.0
    ex = np.zeros(width)
    ex[ix] = 1.0
    return np.outer(transform(ey), transform(ex))


# --------------------------------------------------------------------------
# pattern sets
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MorletRowMeta:
    sigma: float
    n_p: float
    theta: float
    seed: int

    CONSTANT = None  # set below: sentinel metadata for the all-ones row

    @property
    def is_constant(self):
        return self.seed == 0 and self.sigma == 0.0

    def params(self):
        return MorletParams(sigma=self.sigma, n_p=self.n_p, theta=self.theta)


MorletRowMeta.CONSTANT = MorletRowMeta(0.0, 0.0, 0.0, 0)


# largest uint8 temporary bipolar_rows allocates
_UNPACK_BYTES = 1 << 20


def _pack_row_bits(bits):
    return np.packbits(bits, bitorder="little")


def _unpack_row_bits(packed, n):
    return np.unpackbits(packed, count=n, bitorder="little")


@dataclass(frozen=True)
class PatternSet:
    """k rows of a measurement matrix over a width x height pixel grid.

    ``rows`` holds the payload: (k, n) float64 for morlet-real, bit-packed
    (k, ceil(n/8)) uint8 for morlet-binary, and None for the deterministic
    kinds (regenerated from row indices on demand). ``row_meta`` is a tuple
    of MorletRowMeta or of int basis-row indices.
    """

    kind: str
    width: int
    height: int
    k: int
    master_seed: int
    row_meta: tuple
    rows: object = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        n = self.width * self.height
        if not 1 <= self.k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={n}")
        if len(self.row_meta) != self.k:
            raise ValueError("row_meta length does not match k")
        if self.kind in DETERMINISTIC_KINDS:
            if len(set(self.row_meta)) != self.k:
                raise ValueError("deterministic kinds require distinct row indices")
            if not 0 <= min(self.row_meta) <= max(self.row_meta) < n:
                raise ValueError(f"basis row indices must lie in [0, {n})")

    @property
    def n(self):
        return self.width * self.height

    @property
    def is_binary(self):
        return self.kind == "morlet-binary"

    @property
    def is_complex(self):
        return self.kind == "noiselet"

    def row_grid(self, i, dtype=np.float64):
        """Row i materialized as a (height, width) grid."""
        if self.kind in DETERMINISTIC_KINDS:
            return basis_row_2d(self.kind, self.row_meta[i], self.width, self.height)
        if self.kind == "morlet-real":
            return self.rows[i].reshape(self.height, self.width).astype(dtype, copy=False)
        bits = _unpack_row_bits(self.rows[i], self.n)
        return bits.reshape(self.height, self.width).astype(dtype)

    def dense(self, dtype=np.float64):
        """Full (k, n) matrix. Binary rows come out as {0, 1} values."""
        if self.kind == "morlet-real":
            return self.rows.astype(dtype, copy=False)
        if self.kind == "morlet-binary":
            return _unpack_row_bits(self.rows.ravel(), self.rows.shape[0] * self.rows.shape[1] * 8) \
                .reshape(self.k, -1)[:, : self.n].astype(dtype)
        out_dtype = np.complex128 if self.is_complex else dtype
        out = np.empty((self.k, self.n), dtype=out_dtype)
        for i in range(self.k):
            out[i] = self.row_grid(i).ravel()
        return out

    # -- serialization ------------------------------------------------------

    def _header_bytes(self):
        flags = 0
        if self.kind == "morlet-real":
            flags |= _FLAG_FLOAT64
        elif self.kind == "morlet-binary":
            flags |= _FLAG_PACKED
        else:
            flags |= _FLAG_PROCEDURAL
        return _SPIP_HEADER.pack(SPIP_MAGIC, SPIP_VERSION, _KIND_CODES[self.kind],
                                 self.width, self.height, self.k,
                                 self.master_seed, flags)

    def _meta_bytes(self):
        if self.kind in DETERMINISTIC_KINDS:
            return np.asarray(self.row_meta, dtype="<u8").tobytes()
        parts = [_MORLET_META.pack(m.sigma, m.n_p, m.theta, m.seed) for m in self.row_meta]
        return b"".join(parts)

    def content_hash(self):
        """SHA-256 over header + per-row metadata.

        The metadata determines every row bit-exactly, so payloads are
        excluded; this keeps hashing cheap for large sets.
        """
        h = hashlib.sha256()
        h.update(self._header_bytes())
        h.update(self._meta_bytes())
        return h.digest()

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(self._header_bytes())
            fh.write(self._meta_bytes())
            if self.kind == "morlet-real":
                fh.write(np.ascontiguousarray(self.rows, dtype="<f8").tobytes())
            elif self.kind == "morlet-binary":
                fh.write(self.rows.tobytes())


def load_pattern_set(path) -> PatternSet:
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < _SPIP_HEADER.size:
        raise FormatError("truncated SPIP header")
    magic, version, kind_code, width, height, k, master_seed, flags = \
        _SPIP_HEADER.unpack_from(buf)
    if magic != SPIP_MAGIC:
        raise FormatError("bad SPIP magic")
    if version != SPIP_VERSION:
        raise FormatError(f"unsupported SPIP version {version}")
    if kind_code >= len(KINDS):
        raise FormatError(f"unknown SPIP kind code {kind_code}")
    kind = KINDS[kind_code]
    n = width * height
    pos = _SPIP_HEADER.size
    if kind in DETERMINISTIC_KINDS:
        need = pos + 8 * k
    else:
        payload = k * ((n + 7) // 8 if flags & _FLAG_PACKED else 8 * n)
        need = pos + k * _MORLET_META.size + payload
    if len(buf) != need:
        raise FormatError(f"SPIP file is {len(buf)} bytes, header says {need}")

    if kind in DETERMINISTIC_KINDS:
        meta = np.frombuffer(buf, dtype="<u8", count=k, offset=pos)
        return PatternSet(kind, width, height, k, master_seed,
                          tuple(int(i) for i in meta), None)

    meta = []
    for _ in range(k):
        sigma, n_p, theta, seed = _MORLET_META.unpack_from(buf, pos)
        meta.append(MorletRowMeta(sigma, n_p, theta, seed))
        pos += _MORLET_META.size

    if flags & _FLAG_PACKED:
        row_bytes = (n + 7) // 8
        need = k * row_bytes
        payload = np.frombuffer(buf, dtype=np.uint8, count=need, offset=pos)
        rows = payload.reshape(k, row_bytes).copy()
    else:
        payload = np.frombuffer(buf, dtype="<f8", count=k * n, offset=pos)
        rows = payload.reshape(k, n).copy()
    rows.flags.writeable = False
    return PatternSet(kind, width, height, k, master_seed, tuple(meta), rows)


def iter_morlet_rows(width, height, k, dist, master_seed, start=0):
    """Yield (MorletRowMeta, unit-norm row grid) for rows start..k-1.

    Row i draws parameters and noise from decorrelated sub-streams of the
    splitmix64 stream of (master_seed, i); the stored seed regenerates the
    row via gen_morlet_pattern.
    """
    for i in range(start, k):
        params_seed, noise_seed = _row_seeds(master_seed, i)
        params = dist.sample(np.random.default_rng(params_seed))
        meta = MorletRowMeta(params.sigma, params.n_p, params.theta, noise_seed)
        yield meta, gen_morlet_pattern(params, noise_seed, width, height)


def bipolar_rows(ps: PatternSet, dtype=np.float32):
    """Unpack a binary set's rows to the bipolar 2P-1 form without a dense
    {0,1} float intermediate.

    Blocks of rows are sized so each unpacked uint8 temporary stays within
    _UNPACK_BYTES: freeing a larger one raises glibc's dynamic mmap
    threshold, and later large arrays then come from a fragmenting heap
    (peak RSS of a 256x256 sweep grew by ~25 MB from its second cycle on).
    """
    if not ps.is_binary:
        raise ValueError("bipolar_rows needs a morlet-binary set")
    out = np.empty((ps.k, ps.n), dtype=dtype)
    block = max(1, _UNPACK_BYTES // ps.n)
    for lo in range(0, ps.k, block):
        hi = min(lo + block, ps.k)
        bits = np.unpackbits(ps.rows[lo:hi], axis=1, count=ps.n, bitorder="little")
        np.multiply(bits, 2.0, out=out[lo:hi], casting="unsafe")
        out[lo:hi] -= 1.0
    return out


def gen_pattern_set(kind, width, height, k, dist=None, master_seed=0) -> PatternSet:
    """Deterministically generate a PatternSet.

    Morlet kinds: row i gets parameters and a noise realization from the
    splitmix64 stream of (master_seed, i); row 0 is always the constant
    pattern (all-ones for morlet-binary, the unit-norm constant for
    morlet-real) so the image mean is measurable: every morlet row is
    exactly zero-mean, so a set without it could never recover the mean.
    Deterministic kinds: k distinct basis-row indices chosen uniformly at
    random, always including index 0 (the constant row).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown pattern kind {kind!r}")
    n = width * height
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n = {n}, got k={k}")

    if kind in DETERMINISTIC_KINDS:
        _check_pow2(width)
        _check_pow2(height)
        rng = np.random.default_rng(splitmix64(master_seed, 0))
        others = rng.choice(n - 1, size=k - 1, replace=False) + 1 if k > 1 else []
        indices = (0, *(int(i) for i in others))
        return PatternSet(kind, width, height, k, master_seed, indices, None)

    if dist is None:
        dist = ParamDistribution.default_for(width, height)
    if k < 2:
        raise ValueError("morlet sets need k >= 2 (constant row + patterns)")

    meta = [MorletRowMeta.CONSTANT]
    if kind == "morlet-binary":
        row_list = [_pack_row_bits(np.ones(n, dtype=np.uint8))]
    else:
        row_list = [np.full(n, n ** -0.5)]
    for row_meta, grid in iter_morlet_rows(width, height, k, dist, master_seed,
                                           start=1):
        meta.append(row_meta)
        pat = grid.ravel()
        if kind == "morlet-binary":
            row_list.append(_pack_row_bits(binarize(pat)))
        else:
            row_list.append(pat)
    rows = np.stack(row_list)
    rows.flags.writeable = False
    if kind == "morlet-real":
        real_matrix(rows)  # finite-entry check
    return PatternSet(kind, width, height, k, master_seed, tuple(meta), rows)
