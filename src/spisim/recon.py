"""Image reconstruction from compressive measurements.

Every pattern set has one linear model (`linear_model`): a semiorthogonal
operator A (A A^T = I) and the map b = rhs(Y) from an effective measurement
to the orthogonalized system A x = b. For M = U D V*, A = V* and
b = D+ U* Y, so the pseudoinverse estimate is M+ Y = A* b
(`pinv_reconstruct`) and total-variation minimization runs on A x = b
(`tv_reconstruct`), where each NESTA iteration costs one forward and one
adjoint; iterates carry their residual's back-projection, and the rest of
an iteration is one stacked GEMM into reused buffers. Every operator's
adjoint takes `out=`, so the stage's adjoint writes into its row of the
state stack, and the TV gradient (`_tv_grad`) runs on flat views of
C-contiguous work arrays, the stack's rows. Both take one
measurement or a batch. Gram and dense models take a batch in one pass
over the rows, which serves every image (one product, or one per column
block of int8 rows); the fast-transform models and
the TV gradient take one image at a time, since images share nothing there
and a 256^2 image's 0.5 MB arrays stay in a 2 MB L2 cache where a batch's
would not. Morlet models take A = W^T M and b = W^T Y from
the Gram matrix G = M M^T, with W W^T = G^+ (`gram_orthogonalize`: W = L^-T
from the Cholesky factor of G, or U_r / d_r from its eigendecomposition),
and never form V (M in the set's `PatternSet.row_dtype`: above 2^25
entries float32 for morlet-real and int8 ±1 for binary sets, which are
multiplied through float32 copies of column blocks; float32 for binary
sets, whose ±1 rows and Gram are exact in float32, above 2^22 entries with
8 k <= n; held column-major so that forward is x M^T and adjoint s M, see
`_GramVtOp`);
Walsh-Hadamard and noiselet models use their fast transforms, the noiselet
one as two real Walsh-Hadamard transforms per call. The dense SVD
(`factorize`) is the test oracle; `linear_model` accepts its factors too.

A morlet model is its row matrix plus W (k x r), so W is all the
orthogonalization there is to keep: `linear_model` is the one place W is
computed, `cached_pinv` stores it in a SPIV file named by the set's content
hash, and one cached model serves both pinv and TV. No path forms or stores
the n x k pseudoinverse, except `pinv_matrix`, the SVD oracle's.

Binary pattern rows enter the linear model in bipolar form 2P - 1 (the
constant row is unchanged by that map), pairing with the differential
measurement Y - Ybar. Complex noiselet rows enter as stacked real and
imaginary parts, the order of a noiselet measurement's real samples.

The TV solver is a Nesterov-accelerated smoothed-TV scheme with continuation
over a decreasing smoothing parameter: isotropic TV, forward differences,
reflexive boundary, Huber smoothing, and per-stage stopping on the relative
change of the smoothed objective against a trailing window.

Fixed settings: the rank cut-offs relative to the largest singular value
(RANK_TOL cuts only the SVD oracle, `factorize`; Gram models cut at 3
sqrt(eps) of the row dtype, `_rank_floor`), and NESTA's continuation and
stopping rule (Becker, Bobin & Candes 2011), mu from MU_START_FRAC x the
pinv start's dynamic range down to MU_FINAL, each image of a stage stopping
on `tol` against its last STOP_WINDOW values, with the iterate of the
iteration where it stopped.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .acquire import Measurement, combine_differential
from .imgcore import FormatError, Image, check_field_types, read_header, require_size
from .patterns import (DETERMINISTIC_KINDS, PatternSet, _c_view, _row_blocks, bipolar_rows,
                       noiselet_signs, wht2)

SPIV_MAGIC = b"SPIV"
# 3: no rank tolerance in the header. Any change to how W is derived from
# the rows must bump this version, so that a cached W stays valid.
SPIV_VERSION = 3
# magic, version, k, r, row itemsize, pattern-set hash, W payload SHA-256
_SPIV_HEADER = struct.Struct("<4sHIIH32s32s")

RANK_TOL = 1e-10
MU_START_FRAC = 0.1
MU_FINAL = 1e-4
STOP_WINDOW = 10


# --------------------------------------------------------------------------
# effective linear model
# --------------------------------------------------------------------------

def effective_matrix(ps: PatternSet, dtype=np.float64):
    """The real matrix the linear model Y_eff = M_eff x actually uses.

    morlet-real / walsh-hadamard: rows as stored. morlet-binary: 2P - 1
    (the all-ones constant row is a fixed point of that map). noiselet:
    real and imaginary parts stacked, Re rows first (2k x n).
    """
    if ps.kind == "morlet-binary":
        return bipolar_rows(ps, dtype=dtype)
    if ps.kind == "noiselet":
        rows = ps.dense()
        return np.vstack([rows.real, rows.imag]).astype(dtype, copy=False)
    return ps.dense(dtype)


def effective_measurement(ps: PatternSet, m: Measurement):
    """Measurement vector paired with effective_matrix.

    morlet-binary: Y - Ybar when differential; otherwise 2Y - Y0 using the
    constant row's total-flux sample (entry 0 stays Y0). Other kinds: the
    values as measured (noiselet: already [Re; Im]).
    """
    if ps.kind == "morlet-binary":
        if m.is_differential:
            return combine_differential(m)
        if not ps.row_meta[0].is_constant:
            raise ValueError("non-differential binary measurement needs the constant row")
        y = 2.0 * m.values - m.values[0]
        y[0] = m.values[0]
        return y
    return np.asarray(m.values, dtype=np.float64)


def _checked(y, k):
    y = np.asarray(y)
    if y.shape[-1] != k:
        raise ValueError(f"measurement length {y.shape[-1]} != k={k}")
    return y


# --------------------------------------------------------------------------
# SVD reference factors
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SvdFactors:
    """M = U diag(d) Vt with orthonormal U columns and orthonormal Vt rows.

    d is sorted descending; effective_rank counts d_i > RANK_TOL * d_0.
    width/height carry the pixel-grid shape for reshaping reconstructions.
    """

    u: np.ndarray
    d: np.ndarray
    vt: np.ndarray
    effective_rank: int
    width: int
    height: int

    def truncated(self):
        """(u_r, d_r, vt_r) restricted to the effective rank."""
        r = self.effective_rank
        return self.u[:, :r], self.d[:r], self.vt[:r]


def factorize(source, width=None, height=None) -> SvdFactors:
    """SVD of a PatternSet's effective matrix, or of a plain matrix."""
    if isinstance(source, PatternSet):
        mat = effective_matrix(source)
        width, height = source.width, source.height
    else:
        mat = np.asarray(source, dtype=np.float64)
        if mat.ndim != 2:
            raise ValueError("matrix must be 2D")
        if width is None:
            width, height = mat.shape[1], 1
    if not np.any(mat):
        raise ValueError("degenerate all-zero measurement matrix")
    u, d, vt = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.count_nonzero(d > RANK_TOL * d[0]))
    return SvdFactors(u=u, d=d, vt=vt, effective_rank=rank, width=width, height=height)


def _rank_floor(dtype):
    """Smallest kept singular value of a Gram model, relative to the largest.

    Squaring the singular values halves the usable precision, so the
    threshold is 3 sqrt(eps) of the dtype the rows are multiplied in (4.5e-8
    for float64, 1.0e-3 for float32 and for int8 rows, which are multiplied
    as float32 blocks, so an int8 model keeps the float32 model's W): Gram
    eigenvalues below eps * lambda_0 are pure rounding
    noise and inverting them injects garbage into the orthogonalized system.
    RANK_TOL, far below either, cuts only the SVD oracle. A change here
    changes W, so it must bump SPIV_VERSION.
    """
    return 3.0 * np.sqrt(float(np.finfo(_arith_dtype(dtype)).eps))


def _arith_dtype(row_dtype):
    """dtype the products of rows in row_dtype run in: float32 for int8 rows."""
    return np.result_type(row_dtype, np.float32)


def _float32_blocks(m, blocks):
    """(slice, block) for each column slice in `blocks` of the (k, n) int8
    rows m, held column-major: block is m.T[slice] as a C-contiguous
    (cols, k) float32 array, in one buffer reused for every block."""
    buf = np.empty((max(sl.stop - sl.start for sl in blocks), m.shape[0]), np.float32)
    for sl in blocks:
        blk = buf[: sl.stop - sl.start]
        np.copyto(blk, m.T[sl])
        yield sl, blk


def _gram(m_rows):
    """G = M M^T in float64. int8 rows are summed in float32 over column
    blocks (`_float32_blocks`): ±1 partial sums are integers of magnitude at
    most n < 2^24, so G is exact, bitwise the float32 rows' G. A numpy
    product cannot add into g, so each block also costs passes over the
    k x k g; blocks of at least k columns (as large as g when that exceeds
    _UNPACK_BYTES) keep those passes to about 1/k of a block's flops."""
    if m_rows.dtype != np.int8:
        return (m_rows @ m_rows.T).astype(np.float64, copy=False)
    k, n = m_rows.shape
    g = np.zeros((k, k), np.float32)
    for _, blk in _float32_blocks(m_rows, _row_blocks(n, 4 * k, k)):
        g += blk.T @ blk
    return g.astype(np.float64)


_TRI_LEAF = 64


def _tril_inverse(l, out=None):
    """Inverse of the lower-triangular l, column-major, by the block recursion
    [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]], with
    np.linalg.inv on blocks of at most _TRI_LEAF rows (its LU pivots, so
    its result is made exactly triangular)."""
    if out is None:
        out = np.zeros_like(l, order="F")
    k = l.shape[0]
    if k <= _TRI_LEAF:
        out[:] = np.tril(np.linalg.inv(l))
        return out
    h = k // 2
    _tril_inverse(l[:h, :h], out[:h, :h])
    _tril_inverse(l[h:, h:], out[h:, h:])
    out[h:, :h] = -out[h:, h:] @ (l[h:, :h] @ out[:h, :h])
    return out


def _eigh_w(g, floor):
    """W = U_r / d_r from the eigendecomposition G = U D^2 U^T, truncated to
    the singular values d_i > floor * d_0."""
    w, u = np.linalg.eigh(g)
    w = w[::-1]
    u = u[:, ::-1]
    d = np.sqrt(np.maximum(w, 0.0))
    rank = int(np.count_nonzero(d > floor * d[0])) if d[0] > 0 else 0
    if rank == 0:
        raise ValueError("degenerate all-zero measurement matrix")
    return np.ascontiguousarray(u[:, :rank]) / d[:rank]


def gram_orthogonalize(m_rows):
    """(W, path): a k x r W with W W^T = G^+ for the Gram matrix G = M M^T,
    and the name of the path that made it. G comes from `_gram`: exact, and
    bitwise the float32 rows' G, for int8 ±1 rows.

    A = W^T M then has orthonormal rows and the row space of M, and no path
    forms V of the SVD, so this handles measurement matrices too large for
    a dense SVD. "cholesky": G = L L^T and W = L^-T, kept only when
    1 / ||L^-1||_F > _rank_floor * sqrt(||G||_inf); since
    sigma_min(M) >= 1 / ||L^-1||_F and sigma_max(M)^2 <= ||G||_inf, that
    proves no singular value falls below the floor, so nothing would be
    truncated. "eigh" when the bound fails or G is not numerically positive
    definite: W = U_r / d_r from the eigendecomposition, truncated at the
    floor.
    """
    g = _gram(m_rows)
    floor = _rank_floor(m_rows.dtype)
    sigma_floor = floor * np.sqrt(np.linalg.norm(g, np.inf))
    try:
        l_inv = _tril_inverse(np.linalg.cholesky(g))   # column-major: W = l_inv.T is C-ordered
    except np.linalg.LinAlgError:
        pass
    else:
        if 1.0 / np.linalg.norm(l_inv) > sigma_floor:
            return l_inv.T, "cholesky"
    return _eigh_w(g, floor), "eigh"


# --------------------------------------------------------------------------
# linear models: semiorthogonal A with b = rhs(Y)
# --------------------------------------------------------------------------

class _DenseVtOp:
    """A = Vt_r (r x n) with orthonormal rows, dense: the SVD reference."""

    def __init__(self, f: SvdFactors):
        u_r, d_r, vt_r = f.truncated()
        self.vt = np.ascontiguousarray(vt_r)
        self.w = u_r / d_r                       # (k, r)
        self.k = self.w.shape[0]
        self.width, self.height = f.width, f.height

    def rhs(self, y):       # (..., k) -> (..., r)
        return _checked(y, self.k) @ self.w

    def forward(self, x):   # (B, n) -> (B, r)
        return x @ self.vt.T

    def adjoint(self, z, out=None):   # (B, r) -> (B, n)
        return np.matmul(z, self.vt, out=out)


class _GramVtOp:
    """A = W^T M without materializing V; M may be float32 or int8.

    M is float32 or int8 when ``PatternSet.row_dtype`` says so (above 2^25
    entries float32 for morlet-real and int8 for morlet-binary; binary
    sets above 2^22 entries with 8 k <= n float32). Each product rounds its
    float64 input to float32 (float64 for float64 rows) and returns
    float64; for ±1 rows that rounding is the only difference from a
    float64 M, since M and its Gram (and so W on the Cholesky path) are
    exact in float32.

    int8 rows take part in no numpy product. Each product runs over column
    blocks of M (`patterns._row_blocks(n, 4 k)`), each copied to a float32
    (cols, k) block of at most _UNPACK_BYTES that stays in a 2 MB L2 cache
    for its product: the forward adds each block's (B, k) product in
    float64, and the adjoint writes each block's (B, cols) product into its
    columns of the result. A product's float32 sums thus run over one
    block's columns (forward) or over the k rows (adjoint, as for float32
    rows); the adjoint equals the float32 rows' where both take the same
    BLAS kernel. The int8 matrix is a quarter of the float32 one (43 MB
    instead of 172 MB at 256 x 256, k = 655).

    W (k x r) comes from `gram_orthogonalize`, with W W^T the pseudoinverse
    of the Gram matrix M M^T, so A A^T = I to factorization accuracy while
    only k x k dense factors and the row matrix itself are kept in memory.

    M is held column-major: ``m`` is the (k, n) matrix in Fortran order, so
    ``m.T`` is a C-contiguous (n, k) array. Every pattern set produces its
    rows in that layout, so they are used without a copy. The two products
    are forward ``x @ m.T`` (B, k) and adjoint ``s @ m`` (B, n): at every
    dtype and batch size measured they ran at least as fast as the
    row-major ``m @ x.T`` and ``s @ m``.
    """

    def __init__(self, m_rows, w, width, height):
        self.m = np.asfortranarray(m_rows)
        self.w = np.ascontiguousarray(w)          # (k, r)
        self.k = self.w.shape[0]
        self.width, self.height = width, height
        self._dt = _arith_dtype(m_rows.dtype)
        # int8 rows are multiplied through float32 copies of column blocks
        self._blocks = (_row_blocks(self.m.shape[1], 4 * self.k)
                        if m_rows.dtype == np.int8 else None)

    def rhs(self, y):
        return _checked(y, self.k) @ self.w

    def forward(self, x):
        x = np.asarray(x, dtype=self._dt)
        if self._blocks:
            t = np.zeros((x.shape[0], self.k))  # (B, k)
            for sl, blk in _float32_blocks(self.m, self._blocks):
                t += x[:, sl] @ blk
        else:
            t = x @ self.m.T  # (B, k)
        return t.astype(np.float64, copy=False) @ self.w

    def adjoint(self, z, out=None):
        s = (z @ self.w.T).astype(self._dt, copy=False)  # (B, k)
        if self._dt == np.float64:
            return np.matmul(s, self.m, out=out)
        if out is None:
            out = np.empty((s.shape[0], self.m.shape[1]))
        if self._blocks:
            for sl, blk in _float32_blocks(self.m, self._blocks):
                np.copyto(out[:, sl], s @ blk.T)
        else:
            np.copyto(out, s @ self.m)
        return out


class _WhtSubsetOp:
    """Orthonormal Walsh-Hadamard rows selected by index; fast transform.

    Images share nothing in a transform, so `forward` and `adjoint` take one
    image at a time: zero fill, scatter, transform and gather run on its own
    (h, w) row, 0.5 MB at 256^2, so the transform's passes stay in a 2 MB L2
    cache, where a (B, n) batch's would not (1.5 MB per array at B = 3).
    """

    def __init__(self, indices, width, height):
        self.idx = np.asarray(indices)
        self.width, self.height = width, height
        self.k = len(self.idx)
        self.n = width * height

    def rhs(self, y):
        return _checked(y, self.k).astype(np.float64)

    def forward(self, x):   # (B, n) -> (B, k)
        x = x.reshape(-1, self.n)
        out = np.empty((x.shape[0], self.k))
        for xi, oi in zip(x, out):
            np.take(wht2(xi.reshape(self.height, self.width)).reshape(self.n), self.idx, out=oi)
        return out

    def adjoint(self, z, out=None):   # (B, k) -> (B, n)
        grid = np.empty((z.shape[0], self.n)) if out is None else out
        for zi, gi in zip(z, grid):
            gi.fill(0.0)
            gi[self.idx] = zi
            g = _c_view(gi, (self.height, self.width))
            wht2(g, out=g)
        return grid


class _NoiseletSubsetOp:
    """Orthonormalized real view of complex noiselet rows.

    The squared noiselet matrix is the index-reversal permutation, so row
    n-1-i is the conjugate of row i. Of every sampled reversal pair only the
    first-sampled row is kept; the stacked rows sqrt(2)*[Re; Im] are then
    exactly orthonormal, and for a real image the pair's two samples are
    conjugate duplicates, averaged by rhs into the kept one.

    The noiselet matrix is ((1 - i) I + (1 + i) R) / 2 . S with S = H q H
    real and symmetric (`patterns.fast_noiselet`), so row i of sqrt(2)*[Re; Im]
    is sqrt(1/2) (S_i + S_r) and sqrt(1/2) (S_r - S_i), r = n-1-i: both
    directions cost two real 2D Walsh-Hadamard transforms. As in
    `_WhtSubsetOp`, each image of a batch is filled, transformed and
    gathered on its own (h, w) row (0.5 MB at 256^2, against a 2 MB L2).
    """

    def __init__(self, indices, width, height):
        idx = np.asarray(indices, dtype=np.int64)
        self.width, self.height = width, height
        self.n = width * height
        self.k = len(idx)
        pos = np.full(self.n, -1)
        pos[idx] = np.arange(self.k)
        partner = pos[self.n - 1 - idx]
        first = (partner < 0) | (partner >= np.arange(self.k))
        self._keep = np.flatnonzero(first)       # positions of the kept samples
        self._partner = partner[first]           # their partners' positions, -1 if unsampled
        self.idx = idx[first]
        self.ridx = self.n - 1 - self.idx
        self.kd = len(self.idx)
        self._q = noiselet_signs(self.n).reshape(height, width)

    def rhs(self, y):       # y: stacked [Re; Im] (..., 2k)
        y = _checked(y, 2 * self.k)
        y = y[..., : self.k] + 1j * y[..., self.k:]
        v = y[..., self._keep]
        v = np.where(self._partner >= 0, 0.5 * (v + np.conj(y[..., self._partner])), v)
        return np.concatenate([v.real, v.imag], axis=-1) * np.sqrt(2.0)

    def _s(self, x, out=None):   # one image (n,) -> H q H x, (h, w); out (n,) may be x
        t = wht2(x.reshape(self.height, self.width))
        t *= self._q
        return wht2(t, out=None if out is None else _c_view(out, t.shape))

    def forward(self, x):   # (B, n) -> (B, 2 kd)
        x = x.reshape(-1, self.n)
        out = np.empty((x.shape[0], 2 * self.kd))
        for xi, oi in zip(x, out):
            h = self._s(xi).reshape(self.n)
            a, r = h[self.idx], h[self.ridx]
            np.add(r, a, out=oi[: self.kd])
            np.subtract(r, a, out=oi[self.kd:])
            del h, a, r     # the next image's transforms run without them
        out *= np.sqrt(0.5)
        return out

    def adjoint(self, z, out=None):   # (B, 2 kd) -> (B, n)
        w = np.empty((z.shape[0], self.n)) if out is None else out
        for zi, wi in zip(z, w):
            z_re, z_im = zi[: self.kd], zi[self.kd:]
            wi.fill(0.0)
            wi[self.ridx] = (z_re + z_im) * np.sqrt(0.5)
            # adds: on a 1 x 1 grid idx and ridx are the same pixel
            wi[self.idx] += (z_re - z_im) * np.sqrt(0.5)
            self._s(wi, wi)
        return w


def linear_model(source):
    """The linear model of `source`: a semiorthogonal operator with rhs().

    `source` is a PatternSet or an SvdFactors (the dense reference); anything
    else raises TypeError. A morlet set's model is its effective rows, held
    in its row_dtype, column-major and used without a copy, with the W of
    `gram_orthogonalize`: the only place a Gram model's W is computed.
    """
    if isinstance(source, SvdFactors):
        return _DenseVtOp(source)
    if not isinstance(source, PatternSet):
        raise TypeError(f"expected a PatternSet or SvdFactors, got {type(source).__name__}")
    if source.kind == "walsh-hadamard":
        return _WhtSubsetOp(source.row_meta, source.width, source.height)
    if source.kind == "noiselet":
        return _NoiseletSubsetOp(source.row_meta, source.width, source.height)
    rows = effective_matrix(source, source.row_dtype)
    return _GramVtOp(rows, gram_orthogonalize(rows)[0], source.width, source.height)


def _as_model(source):
    return source if hasattr(source, "rhs") else linear_model(source)


# --------------------------------------------------------------------------
# pseudoinverse
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PinvMatrix:
    """Dense Moore-Penrose pseudoinverse (n x k) of truncated SVD factors."""

    data: np.ndarray
    width: int = 0
    height: int = 0

    @property
    def n(self):
        return self.data.shape[0]

    @property
    def k(self):
        return self.data.shape[1]


def pinv_matrix(f: SvdFactors) -> PinvMatrix:
    u_r, d_r, vt_r = f.truncated()
    data = (vt_r.T / d_r) @ u_r.T
    return PinvMatrix(data=np.ascontiguousarray(data), width=f.width, height=f.height)


def pinv_reconstruct(model, y):
    """X ~= M+ Y for one effective measurement (k,) or a batch (B, k).

    `model` is a PinvMatrix, a linear model, or anything linear_model
    accepts; for a model M+ Y = A^T rhs(Y) because A A^T = I. Returns an
    Image for a single measurement, a (B, h, w) array for a batch.
    """
    if isinstance(model, PinvMatrix):
        y = _checked(np.asarray(y, dtype=np.float64), model.k)
        x = (model.data @ y.T).T
    else:
        model = _as_model(model)
        x = model.adjoint(np.atleast_2d(model.rhs(y)))
    x = x.reshape(-1, model.height, model.width)
    return Image(x[0]) if np.ndim(y) == 1 else x


class PinvStream:
    """On-the-fly pseudoinverse recovery: acc += column_j(M+) * y_j.

    Every row index must be applied exactly once (duplicates raise); the
    accumulator uses compensated (Kahan) summation so update order does not
    matter beyond 1 ulp noise. After all k updates the accumulator equals
    the batch product M+ Y.
    """

    def __init__(self, pinv: PinvMatrix):
        self._pinv = pinv
        self._acc = np.zeros(pinv.n)
        self._comp = np.zeros(pinv.n)
        self._seen = np.zeros(pinv.k, dtype=bool)

    def update(self, j, y_j):
        if not 0 <= j < self._pinv.k:
            raise IndexError(f"row index {j} out of range")
        if self._seen[j]:
            raise ValueError(f"duplicate stream update for row {j}")
        self._seen[j] = True
        term = self._pinv.data[:, j] * y_j - self._comp
        total = self._acc + term
        self._comp = (total - self._acc) - term
        self._acc = total
        return self

    @property
    def complete(self):
        return bool(self._seen.all())

    def image(self) -> Image:
        return Image(self._acc.reshape(self._pinv.height, self._pinv.width))


# --------------------------------------------------------------------------
# SPIV orthogonalization cache
# --------------------------------------------------------------------------
# save_pinv, load_pinv and cached_pinv keep their names because the
# benchmark's span table (bench/layers.py) wraps them.

@dataclass(frozen=True)
class SpivRecord:
    """W (k x r float64, W W^T = G^+ for the Gram matrix G) of a Gram model,
    with what a cache hit must match besides k: the pattern set's content
    hash and the itemsize of the rows W was computed from."""

    w: np.ndarray
    source_hash: bytes
    row_itemsize: int


def save_pinv(rec: SpivRecord, path):
    w = np.ascontiguousarray(rec.w, "<f8")
    k, r = w.shape
    with open(path, "wb") as fh:
        fh.write(_SPIV_HEADER.pack(SPIV_MAGIC, SPIV_VERSION, k, r, rec.row_itemsize,
                                   rec.source_hash, hashlib.sha256(w).digest()))
        w.tofile(fh)


def load_pinv(path) -> SpivRecord:
    with open(path, "rb") as fh:
        k, r, itemsize, digest, payload_hash = \
            read_header(fh, _SPIV_HEADER, SPIV_MAGIC, SPIV_VERSION, "SPIV")
        if not 1 <= r <= k:
            raise FormatError(f"SPIV rank {r} outside 1..k={k}")
        require_size(fh, _SPIV_HEADER.size + 8 * k * r, "SPIV")
        w = np.fromfile(fh, dtype="<f8", count=k * r).reshape(k, r)
    if hashlib.sha256(w).digest() != payload_hash:
        raise FormatError("SPIV payload does not match its SHA-256")
    return SpivRecord(w=w, source_hash=digest, row_itemsize=itemsize)


def cached_pinv(ps: PatternSet, cache_dir):
    """The linear model of `ps`, its W cached in cache_dir as <content hash>.spiv.

    A morlet model is the set's effective rows (in its row_dtype) plus
    its W from `linear_model`. Any W with W W^T = G^+ gives the same
    model up to rounding, so a file written by either orthogonalization
    path is a valid hit. A hit rebuilds the model from the rows and the
    cached W, with no Gram product or factorization. A file that load_pinv
    rejects (an older SPIV version among them), or one written for another
    hash, k or row itemsize, is a miss; a miss builds the model with
    `linear_model` and writes its W through a temp file. Fast-transform
    models have nothing to cache and are returned unwritten. The model
    serves pinv_reconstruct and tv_reconstruct alike.
    """
    if ps.kind in DETERMINISTIC_KINDS:
        return linear_model(ps)
    digest = ps.content_hash()
    path = os.path.join(cache_dir, digest.hex() + ".spiv")
    itemsize = np.dtype(ps.row_dtype).itemsize
    try:
        rec = load_pinv(path)
        if (rec.source_hash, rec.w.shape[0], rec.row_itemsize) == (digest, ps.k, itemsize):
            return _GramVtOp(effective_matrix(ps, ps.row_dtype), rec.w, ps.width, ps.height)
    except (OSError, ValueError):
        pass
    model = linear_model(ps)
    os.makedirs(cache_dir, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    save_pinv(SpivRecord(w=model.w, source_hash=digest, row_itemsize=itemsize), tmp)
    os.replace(tmp, path)
    return model


# --------------------------------------------------------------------------
# smoothed total variation
# --------------------------------------------------------------------------

def tv_norm(x):
    """Isotropic TV (forward differences, reflexive boundary) of (h,w) or (B,h,w)."""
    x = np.asarray(x, dtype=np.float64)
    batched = x.ndim == 3
    if not batched:
        x = x[None]
    dx = np.zeros_like(x)
    dy = np.zeros_like(x)
    dx[:, :, :-1] = x[:, :, 1:] - x[:, :, :-1]
    dy[:, :-1, :] = x[:, 1:, :] - x[:, :-1, :]
    val = np.sqrt(dx * dx + dy * dy).sum(axis=(1, 2))
    return val if batched else float(val[0])


def _tv_grad(x, mu, work=None):
    """Huber-smoothed isotropic TV value and gradient, batched over axis 0.

    With m = min(|d|, mu) the Huber term of a difference d is
    m (2|d| - m) / (2 mu): |d|^2 / (2 mu) below mu and |d| - mu / 2 above.
    `work` is (dx, dy, mag, g), arrays shaped like x whose contents are
    overwritten (allocated when omitted); the gradient is returned in g, and
    dx and g must be C-contiguous (the stage's stack rows are; ValueError if
    not). Images share nothing here, so the work runs one image at a time
    (`_tv_grad_image`) with the first image's dx, dy and mag as scratch for
    every image: at 256^2 that is 0.5 MB per array, so an image's passes
    stay in a 2 MB L2 cache where a batch's would not.
    """
    if work is None:
        work = [np.empty((1,) + x.shape[1:]) for _ in range(3)] + [np.empty(x.shape)]
    dx, dy, mag, g = work
    val = np.empty(len(x))
    for i in range(len(x)):
        val[i] = _tv_grad_image(x[i], mu[i], dx[0], dy[0], mag[0], g[i])
    return val, g


def _tv_grad_image(x, mu, dx, dy, mag, g):
    """`_tv_grad` of one (h, w) image into g; returns the value. The
    x-differences and their divergence run on flat views, where a row's last
    difference is the zero that separates it from the next row."""
    xf, dxf, gf = x.reshape(-1), _c_view(dx, -1), _c_view(g, -1)
    np.subtract(xf[1:], xf[:-1], out=dxf[:-1])
    dx[:, -1] = 0.0                     # also dxf[-1]
    dy[-1] = 0.0
    np.subtract(x[1:], x[:-1], out=dy[:-1])
    np.multiply(dx, dx, out=mag)
    mag += np.multiply(dy, dy, out=g)
    np.sqrt(mag, out=mag)
    m = np.minimum(mag, mu, out=g)      # g's buffer, overwritten by the gradient
    val = (2.0 * np.vdot(m, mag) - np.vdot(m, m)) / (2.0 * mu)
    np.maximum(mag, mu, out=mag)
    dx /= mag
    dy /= mag
    # -div: g_j = (0 - dx_j) + dx_(j-1), the zero-filled formula's order. At
    # a row start dx_(j-1) is the previous row's +0.0 (x finite), and 0 - dx_j
    # is never -0.0, so adding it changes no bit
    np.subtract(0.0, dxf, out=gf)
    gf[1:] += dxf[:-1]
    g[:-1] -= dy[:-1]
    g[1:] += dy[:-1]
    return val


@dataclass(frozen=True)
class TvOptions:
    """Solver knobs. epsilon is the data-fidelity radius (0 = exact constraint);
    mu continuation runs mu_stages stages from MU_START_FRAC * dynamic range
    down to MU_FINAL, each stopping on `tol` over a STOP_WINDOW-value window
    or after max_inner iterations."""

    mu_stages: int = 5
    tol: float = 1e-6
    max_inner: int = 3000
    epsilon: float = 0.0

    def __post_init__(self):
        check_field_types(self, "TV {}")
        for name, low in (("mu_stages", 1), ("max_inner", 0), ("tol", 0), ("epsilon", 0)):
            value = getattr(self, name)
            if not value >= low:   # also rejects NaN
                raise ValueError(f"TV {name} must be >= {low}, got {value!r}")


@dataclass
class TvResult:
    """Solutions (B, h, w); stage_tv has per stage a float (one solve) or (B,)."""

    images: np.ndarray
    converged: bool
    monotone: bool
    stage_tv: list = field(default_factory=list)
    iterations: int = 0

    @property
    def image(self) -> Image:
        return Image(self.images[0])


def _shrink(r, eps):
    """c such that v + c A^T r projects v onto {x: ||b - A x|| <= eps}.

    r = b - A v, (B, r); c is (B, 1), exactly 1 for the exact constraint.
    """
    nrm = np.linalg.norm(r, axis=1, keepdims=True)
    return np.maximum(0.0, 1.0 - eps / np.maximum(nrm, 1e-300))


def _nesta_stage(op, b, x0, mu, eps, opts):
    """One continuation stage; returns each image's projected iterate from
    the iteration where its stopping rule fired, or from the last one.

    Every iterate v carries its residual r_v = b - A v and the residual's
    back-projection e_v = A^T r_v. Projecting v onto the constraint set is
    v + c e_v and leaves (1 - c) r_v and (1 - c) e_v. Because A^T is linear,
    the y- and z-steps update e from p = A^T A g, so an iteration costs one
    forward and one adjoint. r and e of the unprojected points vy, vz are
    kept and the (1 - c) factors enter when x is mixed from them.

    The (B, n) state is one stack s = [x, vz, e_vz, e_x, g, p]. With the
    shrink factors c_y, c_z taken from the (B, r) residuals, the next
    [x, vz, e_vz, e_x, y] is linear in s with per-image coefficients, so
    the update is one batched GEMM (B, 5, 6) x (B, 6, n) into a second
    stack; the stacks swap every iteration, and _tv_grad's scratch is the
    idle one.
    """
    batch, h, w = x0.shape
    n = h * w
    invl = (1.0 / (8.0 / mu))[:, None]          # 1 / L, L = 8 / mu
    s = np.empty((6, batch, n))
    t = np.empty_like(s)
    s[0] = s[1] = s[4] = x0.reshape(batch, n)   # x, vz = x0 - sum alpha g / L, y
    r_x = b - op.forward(s[0])
    s[3] = op.adjoint(r_x, out=s[2])
    r_vz = r_x.copy()
    coef = np.zeros((batch, 5, 6))
    coef[:, 1, 1] = coef[:, 2, 2] = coef[:, 4, 0] = 1.0
    hist = np.full((STOP_WINDOW, batch), np.inf)
    done = np.zeros(batch, dtype=bool)
    out = np.empty((batch, n))
    iters = 0
    for it in range(opts.max_inner):
        iters = it + 1
        fval, _ = _tv_grad(s[0].reshape(batch, h, w), mu,
                           [a.reshape(batch, h, w) for a in (t[0], t[1], t[2], s[4])])
        a_g = op.forward(s[4])
        op.adjoint(a_g, out=s[5])
        a_g *= invl

        # y: projection of vy = x - g / L, whose residual is r_x + A g / L;
        # z: projection of vz = x0 - sum_i alpha_i g_i / L
        r_vy = r_x + a_g
        c_y = _shrink(r_vy, eps)
        alpha = 0.5 * (it + 1)
        r_vz += alpha * a_g
        c_z = _shrink(r_vz, eps)

        # x = tau z + (1 - tau) y, with residuals mixed the same way
        tau = 2.0 / (it + 3)
        s_z, s_y = tau * (1.0 - c_z), (1.0 - tau) * (1.0 - c_y)
        r_x = s_z * r_vz + s_y * r_vy

        # coefficient rows: vz - alpha g / L, e_vz + alpha p / L,
        # y = x - g / L + c_y (e_x + p / L), then x = tau (vz + c_z e_vz) + (1 - tau) y
        # and e_x = s_y (e_x + p / L) + s_z e_vz from the new vz, e_vz
        coef[:, 1, 4:5] = -alpha * invl
        coef[:, 2, 5:] = alpha * invl
        coef[:, 4, 3:] = np.hstack([c_y, -invl, c_y * invl])
        coef[:, 0] = tau * (coef[:, 1] + c_z * coef[:, 2]) + (1.0 - tau) * coef[:, 4]
        coef[:, 3] = s_z * coef[:, 2]
        coef[:, 3, 3:4] += s_y
        coef[:, 3, 5:] += s_y * invl
        np.matmul(coef, s.transpose(1, 0, 2), out=t[:5].transpose(1, 0, 2))
        s, t = t, s

        ref = hist.mean(axis=0)
        with np.errstate(invalid="ignore"):
            rel = np.abs(fval - ref) / np.maximum(np.abs(ref), 1e-300)
        stop = ~done & np.isfinite(ref) & (rel <= opts.tol)
        if stop.any():     # the next _tv_grad overwrites s[4]
            np.copyto(out, s[4], where=stop[:, None])
            done |= stop
        hist[it % STOP_WINDOW] = fval
        if done.all():
            break
    np.copyto(out, s[4], where=~done[:, None])
    return out.reshape(batch, h, w), bool(done.all()), iters


def _nesta_solve(op, b, opts: TvOptions):
    """Continuation-wrapped NESTA; b is (B, r), returns (B, h, w) iterates."""
    batch = b.shape[0]
    x = op.adjoint(b).reshape(batch, op.height, op.width)
    dyn = x.max(axis=(1, 2)) - x.min(axis=(1, 2))
    dyn = np.where(dyn > 0, dyn, 1.0)
    mu0 = MU_START_FRAC * dyn
    mu_end = np.minimum(MU_FINAL, mu0)
    stages = opts.mu_stages
    converged = True
    stage_tv = []
    total_iters = 0
    for s in range(stages):
        t = s / (stages - 1) if stages > 1 else 1.0
        mu = mu0 * (mu_end / mu0) ** t
        x, ok, iters = _nesta_stage(op, b, x, mu, opts.epsilon, opts)
        converged &= ok
        total_iters += iters
        stage_tv.append(tv_norm(x))
    return x, converged, stage_tv, total_iters


def _monotone_stages(stage_tv):
    seq = np.array(stage_tv)         # (stages, B)
    if seq.shape[0] < 2:
        return True
    prev = seq[:-1]
    nxt = seq[1:]
    return bool(np.all(nxt <= prev * (1.0 + 1e-6) + 1e-12))


def tv_reconstruct(model, y, opts: TvOptions = TvOptions()) -> TvResult:
    """TV minimization on the orthogonalized system A x = rhs(Y).

    `model` is a linear model or anything linear_model accepts; y is one
    effective measurement (k,) or a batch (B, k) solved together. Returns
    the last feasible iterates with convergence/monotonicity flags over the
    whole batch.
    """
    model = _as_model(model)
    b = np.atleast_2d(model.rhs(y))
    x, converged, stage_tv, iters = _nesta_solve(model, b, opts)
    if np.ndim(y) == 1:
        stage_tv = [float(v[0]) for v in stage_tv]
    return TvResult(images=x, converged=converged, monotone=_monotone_stages(stage_tv),
                    stage_tv=stage_tv, iterations=iters)


# Earlier per-path names, kept because the benchmark's span table
# (bench/layers.py) wraps them; tests also call pinv_reconstruct_basis.
tv_reconstruct_batch_gram = tv_reconstruct_batch_basis = tv_reconstruct
gram_pinv_apply = pinv_reconstruct_basis = pinv_reconstruct
