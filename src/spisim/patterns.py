"""Measurement-matrix construction.

Four pattern families:

* ``morlet-real``    rows are Re(g * psi): a Morlet wavelet circularly
                     convolved with unit-variance white Gaussian noise,
                     rescaled to unit L2 norm. Stationary, nonergodic.
                     The noise is drawn as its spectrum on the rfft
                     half-plane, so a row costs one inverse real FFT.
* ``morlet-binary``  the Heaviside step (threshold at zero, ties -> 1) of
                     a float32 field of the same kind, whose noise is
                     drawn only on the bins where the kernel spectrum is
                     not negligible; stored bit-packed, with the constant
                     all-ones row always prepended.
* ``walsh-hadamard`` random distinct rows of the orthonormal 2D
                     Walsh-Hadamard basis (index 0, the constant row,
                     always included).
* ``noiselet``       same selection scheme over the complex noiselet basis.

Deterministic kinds are stored procedurally (row indices only); morlet kinds
store per-row (sigma, n_p, theta, seed) so any row can be regenerated
bit-exactly without keeping dense payloads around.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .imgcore import FormatError, read_header, require_size, require_u64
# morlet_wavelet is not called here; it stays importable from this module
# because the benchmark's span table wraps patterns.morlet_wavelet
from .wavelets import MorletParams, morlet_factor_spectra, morlet_spectra, morlet_wavelet  # noqa

KINDS = ("morlet-real", "morlet-binary", "walsh-hadamard", "noiselet")
MORLET_KINDS = ("morlet-real", "morlet-binary")
DETERMINISTIC_KINDS = ("walsh-hadamard", "noiselet")

SPIP_MAGIC = b"SPIP"
# 2: rows from the separable Morlet spectrum; 3: morlet-real rows above
# _DENSE_LIMIT entries are generated in float32; 4: the noise spectrum is
# drawn directly (white_noise_spectra); 5: the morlet-real payload is the
# rows as held, the C-contiguous (n, k) rows.T in row_dtype; 6: row norms
# that do not depend on the BLAS thread count; 7: morlet-binary rows are the
# signs of float32 fields whose noise is drawn on the kernel's support
SPIP_VERSION = 7
_KIND_CODES = {k: i for i, k in enumerate(KINDS)}
# flags byte of each kind: 0x01 bit-packed rows, 0x02 dense rows, 0x04 procedural
_KIND_FLAGS = {"morlet-real": 0x02, "morlet-binary": 0x01,
               "walsh-hadamard": 0x04, "noiselet": 0x04}

_SPIP_HEADER = struct.Struct("<4sHBIIIQB")
# one SPIP metadata record per row: a basis-row index, or a morlet row's
# parameters and noise seed (all zero for the constant row 0)
_MORLET_ROW = np.dtype([("sigma", "<f8"), ("n_p", "<f8"), ("theta", "<f8"), ("seed", "<u8")])
_META_DTYPES = {"morlet-real": _MORLET_ROW, "morlet-binary": _MORLET_ROW,
                "walsh-hadamard": np.dtype("<u8"), "noiselet": np.dtype("<u8")}

# morlet sets keep their model rows in float64 up to this many matrix
# entries (k * n), above it morlet-real rows in float32 and morlet-binary
# rows in int8 (PatternSet.row_dtype)
_DENSE_LIMIT = 1 << 25
# morlet-binary sets also take int8 above this many entries when
# _BINARY_BAND_MIN_RATIO * k <= n (CR <= 12.5%); see PatternSet.row_dtype
_BINARY_BAND_LIMIT = 1 << 22
_BINARY_BAND_MIN_RATIO = 8


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
        for name in ("sigma_range", "np_range"):
            r = getattr(self, name)
            if len(r) != 2 or not 0 < r[0] <= r[1]:
                raise ValueError(f"bad {name} {r}")
        shi, plo = self.sigma_range[1], self.np_range[0]
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

def white_noise_spectra(seeds, width: int, height: int, support=None,
                        dtype=np.complex128):
    """rfft2 half-planes of white Gaussian noise, one drawn directly from each seed.

    An (R, height, width//2 + 1) array of `dtype`, complex128 or complex64.
    Each plane has i.i.d. standard normal real and imaginary parts from one
    SFC64 stream, drawn in the plane's real precision. irfft2 keeps only the
    Hermitian part of column 0 and, for even width, of the Nyquist column
    width/2 (it drops their imaginary parts after the inverse FFT along
    axis 0), which halves their power; those columns are scaled by sqrt(2)
    so that every bin carries the power of real white noise.

    With `support`, an (R, height, width//2 + 1) boolean array, plane r is
    zero off support[r], and the stream's normals fill the bins of
    support[r] in row-major order: the bins get the first normals of the
    draw that fills a whole plane.
    """
    spec = (np.empty if support is None else np.zeros)(
        (len(seeds), height, width // 2 + 1), dtype)
    real = spec.real.dtype
    for r, seed in enumerate(seeds):
        normal = np.random.Generator(np.random.SFC64(seed)).standard_normal
        if support is None:
            normal(dtype=real, out=spec[r].view(real))
        else:
            spec[r][support[r]] = normal(2 * np.count_nonzero(support[r]), real).view(dtype)
    sqrt2 = real.type(np.sqrt(2.0))   # a float64 scalar would widen a complex64 loop
    spec[:, :, 0] *= sqrt2
    if width % 2 == 0:
        spec[:, :, -1] *= sqrt2
    return spec


def _morlet_patterns(params, seeds, width: int, height: int, binary=False, factors=None):
    """(R, height, width) patterns of the wavelets `params` and noise
    `seeds`, pairwise: `white_noise_spectra` times `morlet_spectra` (or the
    product of `factors`, its `morlet_factor_spectra`), and one irfft2.

    Real patterns (see gen_morlet_pattern) are float64, each normalized by
    its own 2D norm, so it has the bits it has when generated alone, at any
    BLAS thread count. Binary patterns are the float32 fields whose signs
    are the morlet-binary rows, not normalized: the noise is drawn only on
    the support |psi| >= tau max|psi| of the kernel spectrum psi, with
    tau = eps(float32) / sqrt(n), and the product and the FFT are complex64
    and float32. A dropped bin's expected power is below tau^2 times that of
    the largest bin, and at most n full-plane bins are dropped, so they
    carry less than n tau^2 = eps(float32)^2 of the field's expected energy:
    at most eps(float32) in relative L2. The support is computed
    elementwise (np.abs, a max and a comparison), so it does not depend on
    the BLAS thread count. Raises ValueError when a pattern is zero or not
    finite.
    """
    psi = morlet_spectra(params, width, height) if factors is None else factors[0] @ factors[1]
    if binary:
        mag = np.abs(psi)
        tau = np.finfo(np.float32).eps / np.sqrt(width * height)
        support = mag >= tau * mag.max(axis=(1, 2), keepdims=True)
        del mag
        spec = white_noise_spectra(seeds, width, height, support, np.complex64)
        spec *= psi.astype(np.complex64)
    else:
        spec = white_noise_spectra(seeds, width, height)
        spec *= psi
    del psi
    patterns = np.fft.irfft2(spec, s=(height, width))
    # einsum, not np.linalg.norm: BLAS ddot splits its sum over threads, so
    # the rows' bits would depend on the BLAS thread count
    norms = np.sqrt([np.einsum("ij,ij->", pattern, pattern) for pattern in patterns])
    for norm in norms:
        if not 0.0 < norm < np.inf:  # also catches NaN entries
            raise ValueError(f"degenerate pattern (norm {norm})")
    if not binary:
        patterns /= norms[:, None, None]
    return patterns


def gen_morlet_pattern(p: MorletParams, seed: int, width: int, height: int):
    """Wavelet-correlated Gaussian random field, unit L2 norm.

    Circular convolution of white Gaussian noise (from `seed`) with the
    Morlet wavelet, computed in the frequency domain with the wavelet
    cyclically shifted to the origin. The noise is never formed on the grid:
    its spectrum is drawn directly (`white_noise_spectra`, a complex
    Gaussian on the rfft half-plane with sqrt(2)-weighted column 0 and
    Nyquist column, so every bin has the power of real white noise), which
    leaves one inverse real FFT per row. Taking the real part of the complex
    convolution equals convolving with Re(g), so the kernel spectrum is that
    of Re(g); it comes from the separable 1D factors of the wavelet
    (`morlet_spectra`), up to a positive scale that the final normalization
    cancels, so no wavelet grid or norm is formed. Because the wavelet has
    exactly zero discrete mean, the output has no DC component.

    The morlet-real row whose row_meta record is (p.sigma, p.n_p, p.theta,
    seed): a block of one row of `_morlet_patterns`, which gen_pattern_set
    calls with blocks of rows. A morlet-binary row is not this pattern's
    sign but that of `_morlet_patterns(..., binary=True)`, a float32 field
    whose noise is drawn on the kernel's support only.
    """
    pattern = _morlet_patterns([p], [seed], width, height)[0]
    pattern.flags.writeable = False
    return pattern


# --------------------------------------------------------------------------
# fast transforms
# --------------------------------------------------------------------------

def _check_pow2(m):
    if m < 1 or (m & (m - 1)) != 0:
        raise ValueError(f"length {m} is not a power of 2")


# 2x2 Walsh-Hadamard stage kernel; the transform of length 2^p is H2^(x)p
_H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
_FACTOR_BITS = 4  # dense factors of 2^4 = 16 points


@functools.cache
def _kron_factor(bits, dtype):
    """Dense 2^bits-point factor H2^(x)bits, read-only."""
    f = np.ones((1, 1))
    for _ in range(bits):
        f = np.kron(_H2, f)
    f = f.astype(dtype)
    f.flags.writeable = False
    return f


def _c_view(a, shape):
    """`a` reshaped to `shape` as a view, so that writes through it land in
    `a`: a must be C-contiguous (reshaping any other layout may copy)."""
    if not a.flags.c_contiguous:
        raise ValueError(f"a {a.shape} array written through a reshape must be C-contiguous")
    return a.reshape(shape)


def fast_wht(v, out=None):
    """Orthonormal Walsh-Hadamard transform along the last axis, O(m log m).

    Matches the Kronecker construction H(2m) = H2 (x) H(m) with
    H2 = [[1, 1], [1, -1]]/sqrt(2). With m = 2^p split into 16-point factors
    plus one 2^(p mod 4) remainder, H(m) = F_1 (x) F_2 (x) ..., and each F_j
    is applied to the (pre, f, post) view of its index bits by one BLAS
    matmul: O(16 m) work per factor. Involutive. Returns a new float64 array
    for real input and complex128 for complex input, or `out`, a
    C-contiguous array of v's shape that the last factor writes into (it
    may be v itself); either way the bits are the same.
    """
    a = np.asarray(v)
    dtype = np.complex128 if np.iscomplexobj(a) else np.float64
    m = a.shape[-1]
    _check_pow2(m)
    if m == 1:
        if out is None:
            return np.array(a, dtype=dtype)
        out[...] = a
        return out
    q, r = divmod(m.bit_length() - 1, _FACTOR_BITS)
    x = a.astype(dtype, copy=False)  # each matmul below writes a new array, or out
    post = m
    for bits in ([r] if r else []) + [_FACTOR_BITS] * q:
        f = 1 << bits
        post //= f
        factor = _kron_factor(bits, dtype)
        if post == 1:               # the last factor
            dst = None if out is None else _c_view(out, (-1, f))
            x = np.matmul(x.reshape(-1, f), factor.T, out=dst)
        else:
            x = np.matmul(factor, x.reshape(-1, f, post))
    return x.reshape(a.shape) if out is None else out


@functools.cache
def noiselet_signs(m):
    """q_j = (-1)^floor(popcount(j) / 2) for j < m, float64, read-only."""
    j = np.arange(m)
    popcount = sum((j >> b) & 1 for b in range(m.bit_length()))
    q = 1.0 - 2.0 * ((popcount >> 1) & 1)
    q.flags.writeable = False
    return q


def fast_noiselet(v):
    """Unitary noiselet transform along the last axis, O(m log m).

    The tensor power of the stage kernel (1-i)/2 * [[1, i], [i, 1]] =
    H2 diag(1, -i) H2 is N = H D H with D = diag((-i)^popcount(j)). D splits
    into a real sign vector q (`noiselet_signs`) and the parity E of
    popcount(j), and H E H is the index reversal R, so

        N = ((1 - i) I + (1 + i) R) / 2 . H diag(q) H:

    two real Walsh-Hadamard transforms and a reversal. Returns complex128.
    """
    h = fast_wht(v)
    h *= noiselet_signs(h.shape[-1])
    h = fast_wht(h)
    return ((1 - 1j) * h + (1 + 1j) * h[..., ::-1]) / 2


def _transform2(transform, grid, out=None):
    """2D transform H_h (x) H_w of (..., h, w) grids.

    Both transforms are tensor powers of a 2x2 kernel and satisfy
    H_h (x) H_w = H_(h*w), so the 2D transform is the
    1D transform of the row-major flattened grid (h*w is a power of 2 exactly
    when h and w both are).
    """
    g = np.asarray(grid)
    h, w = g.shape[-2:]
    flat = g.shape[:-2] + (h * w,)
    if out is None:
        return transform(g.reshape(flat)).reshape(g.shape)
    transform(g.reshape(flat), out=_c_view(out, flat))
    return out


def wht2(grid, out=None):
    """2D orthonormal Walsh-Hadamard transform of (..., h, w) grids; `out`
    as in fast_wht (C-contiguous, grid's shape, may be grid itself)."""
    return _transform2(fast_wht, grid, out)


def noiselet2(grid):
    """2D unitary noiselet transform of (..., h, w) grids."""
    return _transform2(fast_noiselet, grid)


# --------------------------------------------------------------------------
# pattern sets
# --------------------------------------------------------------------------

# largest temporary a loop over blocks of rows allocates: freeing a larger
# one raises glibc's dynamic mmap threshold, and later large arrays then come
# from a fragmenting heap (a 256^2 sweep's peak RSS grew from its second cycle)
_UNPACK_BYTES = 1 << 20


def _row_blocks(k, row_bytes, min_rows=1):
    """Slices over k rows (or columns), each of at most _UNPACK_BYTES or of
    min_rows rows, whichever is more."""
    step = max(min_rows, _UNPACK_BYTES // row_bytes)
    return [slice(lo, min(lo + step, k)) for lo in range(0, k, step)]


def _row_dtype(kind, k, n):
    if kind == "morlet-binary" and (k * n > _DENSE_LIMIT or (
            k * n > _BINARY_BAND_LIMIT and _BINARY_BAND_MIN_RATIO * k <= n)):
        return np.int8
    return np.float32 if kind == "morlet-real" and k * n > _DENSE_LIMIT else np.float64


@dataclass(frozen=True)
class PatternSet:
    """k rows of a measurement matrix over a width x height pixel grid.

    ``rows``: for morlet-real, (k, n) ``row_dtype`` held column-major, so
    ``rows.T`` is the C-contiguous (n, k) matrix ``recon._GramVtOp``
    multiplies and the SPIP payload as it is; for morlet-binary, bit-packed
    (k, ceil(n/8)) uint8, row-major (``bipolar_rows`` unpacks them
    column-major); None for the deterministic kinds, whose rows are basis
    rows regenerated on demand. ``row_meta``: the SPIP metadata section as
    a read-only (k,) array of the kind's ``_META_DTYPES`` entry, built from
    any sequence of k records: distinct ``<u8`` basis-row indices in
    [0, n), or for morlet kinds an ``np.recarray`` of (sigma, n_p, theta,
    seed) records, so both ``row_meta[i].sigma`` and ``row_meta.sigma``
    work; row 0, the constant row, is all zeros. ValueError for an unknown
    kind, k outside [1, n], a row_meta of another length, a master_seed
    outside [0, 2^64) or bad basis indices.
    """

    kind: str
    width: int
    height: int
    k: int
    master_seed: int
    row_meta: np.ndarray
    rows: object = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        n = self.width * self.height
        if not 1 <= self.k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={n}")
        if len(self.row_meta) != self.k:
            raise ValueError("row_meta length does not match k")
        require_u64(self.master_seed, "master seed")
        if self.kind in DETERMINISTIC_KINDS:   # before the <u8 cast wraps a negative index
            if len(set(self.row_meta)) != self.k:
                raise ValueError("deterministic kinds require distinct row indices")
            if not 0 <= min(self.row_meta) <= max(self.row_meta) < n:
                raise ValueError(f"basis row indices must lie in [0, {n})")
        # a tuple given whole would be read as one record
        meta = self.row_meta if isinstance(self.row_meta, np.ndarray) else list(self.row_meta)
        meta = np.array(meta, _META_DTYPES[self.kind])
        if self.kind in MORLET_KINDS:
            meta = meta.view(np.recarray)
        meta.flags.writeable = False
        object.__setattr__(self, "row_meta", meta)

    @property
    def n(self):
        return self.width * self.height

    @property
    def is_binary(self):
        return self.kind == "morlet-binary"

    @property
    def row_dtype(self):
        """dtype of the rows the linear model holds (`_row_dtype`): int8 ±1
        for morlet-binary sets above _DENSE_LIMIT (2^25) matrix entries, or
        above _BINARY_BAND_LIMIT (2^22) with 8 k <= n; float32 for
        morlet-real sets above _DENSE_LIMIT; float64 otherwise, so small and
        near-square binary sets keep the float64 rank floor, which the
        float32 one would cut (CHANGES.md FOUND on `_row_dtype`). morlet-real
        rows are generated and loaded in it. ±1 rows and their Gram matrix
        are exact in int8 and float32 products, so a binary model has the
        float64 model's W wherever the Cholesky path is taken
        (BENCH_int8_band.json, BENCH_binary_f32.json)."""
        return _row_dtype(self.kind, self.k, self.n)

    def dense(self, dtype=np.float64, rows=slice(None)):
        """(k, n) matrix, or the rows selected by the slice `rows`. Binary
        rows come out as {0, 1} values; noiselet rows are complex128.

        Both 2D transforms T are symmetric, so basis row i is T e_i: one
        transform of the k unit vectors at row_meta (the 2D transform of a
        grid is the 1D transform of its row-major flattening, see _transform2).
        """
        if self.kind == "morlet-real":
            return self.rows[rows].astype(dtype, copy=False)
        if self.kind == "morlet-binary":
            return np.unpackbits(self.rows[rows], axis=1, count=self.n,
                                 bitorder="little").astype(dtype)
        idx = self.row_meta[rows]
        units = np.zeros((len(idx), self.n))
        units[np.arange(len(idx)), idx] = 1.0
        if self.kind == "noiselet":
            return fast_noiselet(units)
        return fast_wht(units).astype(dtype, copy=False)

    # -- serialization ------------------------------------------------------

    def _header_bytes(self):
        return _SPIP_HEADER.pack(SPIP_MAGIC, SPIP_VERSION, _KIND_CODES[self.kind],
                                 self.width, self.height, self.k,
                                 self.master_seed, _KIND_FLAGS[self.kind])

    def content_hash(self):
        """SHA-256 over header + per-row metadata.

        The metadata determines every row bit-exactly, so payloads are
        excluded; this keeps hashing cheap for large sets.
        """
        h = hashlib.sha256()
        h.update(self._header_bytes())
        h.update(self.row_meta.tobytes())
        return h.digest()

    def save(self, path):
        """Write the SPIP file; payloads are written in place, morlet-real
        rows as the (n, k) array rows.T in row_dtype."""
        with open(path, "wb") as fh:
            fh.write(self._header_bytes())
            fh.write(self.row_meta.tobytes())
            if self.kind == "morlet-real":
                np.ascontiguousarray(self.rows.T, self.rows.dtype.newbyteorder("<")).tofile(fh)
            elif self.kind == "morlet-binary":
                np.ascontiguousarray(self.rows).tofile(fh)


def load_pattern_set(path) -> PatternSet:
    with open(path, "rb") as fh:
        kind_code, width, height, k, master_seed, flags = \
            read_header(fh, _SPIP_HEADER, SPIP_MAGIC, SPIP_VERSION, "SPIP")
        if kind_code >= len(KINDS):
            raise FormatError(f"unknown SPIP kind code {kind_code}")
        kind = KINDS[kind_code]
        if flags != _KIND_FLAGS[kind]:
            raise FormatError(f"SPIP flags 0x{flags:02x} do not match kind {kind!r}")
        n = width * height
        if not 1 <= k <= n:
            raise FormatError(f"SPIP header has k = {k} rows for n = {n} pixels")
        dtype = np.dtype(_row_dtype(kind, k, n)).newbyteorder("<")
        row_bytes = {"morlet-real": dtype.itemsize * n, "morlet-binary": (n + 7) // 8}.get(kind, 0)
        require_size(fh, _SPIP_HEADER.size + k * (_META_DTYPES[kind].itemsize + row_bytes),
                     "SPIP")
        meta = np.fromfile(fh, dtype=_META_DTYPES[kind], count=k)
        # payloads are read in place; morlet-real rows come back column-major
        rows = None
        if kind == "morlet-binary":
            rows = np.fromfile(fh, dtype=np.uint8, count=k * row_bytes).reshape(k, row_bytes)
        elif kind == "morlet-real":
            rows = np.fromfile(fh, dtype=dtype, count=n * k).reshape(n, k).T
    if rows is not None:
        rows.flags.writeable = False
    return PatternSet(kind, width, height, k, master_seed, meta, rows)


def _morlet_row(dist, master_seed, i):
    """(MorletParams, noise_seed) of row i, an int in [0, 2^64).

    Row i draws parameters and noise from decorrelated sub-streams of the
    splitmix64 stream of (master_seed, i); its row_meta record stores both,
    and they regenerate the row: a morlet-real row via gen_morlet_pattern,
    a morlet-binary row as the signs of
    `_morlet_patterns([params], [noise_seed], w, h, binary=True)`.
    """
    params_seed, noise_seed = _row_seeds(master_seed, i)
    return dist.sample(np.random.default_rng(params_seed)), noise_seed


def iter_morlet_rows(width, height, k, dist, master_seed, start=0):
    """Yield (MorletParams, unit-norm row grid) for rows start..k-1, one
    row at a time; the morlet-real rows gen_pattern_set makes in blocks.
    (A morlet-binary row is not the sign of this grid; see _morlet_row.)"""
    for i in range(start, k):
        params, seed = _morlet_row(dist, master_seed, i)
        yield params, gen_morlet_pattern(params, seed, width, height)


def bipolar_rows(ps: PatternSet, dtype=np.float32):
    """A binary set's (k, n) rows in bipolar form 2P - 1, column-major (like
    morlet-real rows, see PatternSet), as ±1 in the signed `dtype` (float64,
    float32 or int8). Unpacked by blocks of byte columns, each uint8
    temporary within _UNPACK_BYTES, with no dense {0, 1} intermediate.
    ValueError for a set of another kind.
    """
    if not ps.is_binary:
        raise ValueError("bipolar_rows needs a morlet-binary set")
    out = np.empty((ps.k, ps.n), dtype=dtype, order="F")
    out_t = out.T                                  # (n, k), C-contiguous
    two, one = out.dtype.type(2), out.dtype.type(1)  # float64 scalars would widen the loop
    for sl in _row_blocks(ps.rows.shape[1], 8 * ps.k):
        bits = np.unpackbits(ps.rows[:, sl], axis=1, bitorder="little")  # (k, 8 cb)
        dst = out_t[8 * sl.start:8 * sl.stop]      # the last block stops at n
        np.multiply(bits.T[:len(dst)], two, out=dst, casting="unsafe")
        dst -= one
    return out


def samples_per_row(kind):
    """Real samples one row yields: a complex noiselet row gives two (its
    real and imaginary parts, two detector frames, measured as [Re; Im])."""
    return 2 if kind == "noiselet" else 1


def rows_for_cr(kind, cr, n):
    """Rows k of a set whose sample budget is cr * n real samples.

    Morlet sets get at least 2 rows (the constant row and one pattern),
    the basis kinds at least 1. cr must lie in (0, 1].
    """
    if not 0 < cr <= 1:  # also rejects NaN
        raise ValueError(f"compression ratio must be in (0, 1], got {cr!r}")
    k = int(round(cr * n / samples_per_row(kind)))
    return max(2 if kind in MORLET_KINDS else 1, k)


def gen_pattern_set(kind, width, height, k, dist=None, master_seed=0) -> PatternSet:
    """Deterministically generate a PatternSet.

    Morlet kinds: row i gets parameters and a noise realization from the
    splitmix64 stream of (master_seed, i); row 0 is always the constant
    pattern (all-ones for morlet-binary, the unit-norm constant for
    morlet-real) so the image mean is measurable: every morlet row is
    exactly zero-mean, so a set without it could never recover the mean.
    morlet-real rows are held in the set's row_dtype, column-major.
    Deterministic kinds: k distinct basis-row indices chosen uniformly at
    random, always including index 0 (the constant row).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown pattern kind {kind!r}")
    n = width * height
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n = {n}, got k={k}")
    require_u64(master_seed, "master seed")

    if kind in DETERMINISTIC_KINDS:
        _check_pow2(width)
        _check_pow2(height)
        rng = np.random.default_rng(splitmix64(master_seed, 0))
        others = rng.choice(n - 1, size=k - 1, replace=False) + 1 if k > 1 else []
        indices = [0, *others]
        return PatternSet(kind, width, height, k, master_seed, indices, None)

    if dist is None:
        dist = ParamDistribution.default_for(width, height)
    if k < 2:
        raise ValueError("morlet sets need k >= 2 (constant row + patterns)")

    # rows 1..k-1 are made in blocks of _UNPACK_BYTES of float64 rows, for
    # binary sets too, and written in place, so a set is never held twice;
    # a block's largest temporary is its complex128 kernel spectra (why
    # binary blocks are no larger: CHANGES.md, "Morlet-binary models above
    # 2^25 entries hold int8 ±1 rows", Left out), whose 1D factors are made
    # once for a group of whole blocks, at 48 (h + w//2 + 1) bytes a row
    binary = kind == "morlet-binary"
    params, seeds = zip(*(_morlet_row(dist, master_seed, i) for i in range(1, k)))
    if binary:
        rows = np.empty((k, (n + 7) // 8), dtype=np.uint8)
        rows[0] = np.packbits(np.ones(n, dtype=bool), bitorder="little")
    else:
        # column-major: each block is written as a strided scatter of its rows
        rows = np.empty((k, n), dtype=_row_dtype(kind, k, n), order="F")
        rows[0] = n ** -0.5
    step = _row_blocks(k - 1, 8 * n)[0].stop
    group = step * max(1, _UNPACK_BYTES // (48 * (height + width // 2 + 1) * step))
    for g in range(0, k - 1, group):                # over rows 1..k-1
        ys, xs = morlet_factor_spectra(params[g:g + group], width, height)
        for sl in _row_blocks(len(ys), 8 * n):
            grids = _morlet_patterns(params[g:][sl], seeds[g:][sl], width, height, binary,
                                     (ys[sl], xs[sl])).reshape(-1, n)
            rows[g + sl.start + 1:g + sl.stop + 1] = (
                np.packbits(grids >= 0.0, axis=1, bitorder="little") if binary else grids)
    rows.flags.writeable = False
    meta = [(0.0, 0.0, 0.0, 0), *((p.sigma, p.n_p, p.theta, s) for p, s in zip(params, seeds))]
    return PatternSet(kind, width, height, k, master_seed, meta, rows)
