"""Image reconstruction from compressive measurements.

Every pattern set has one linear model (`linear_model`): a semiorthogonal
operator A (A A^T = I) and the map b = rhs(Y) from an effective measurement
to the orthogonalized system A x = b. For M = U D V*, A = V* and
b = D+ U* Y, so the pseudoinverse estimate is M+ Y = A* b
(`pinv_reconstruct`) and total-variation minimization runs on A x = b
(`tv_reconstruct`). Every model has forward (B, n) -> (B, r) and adjoint
(B, r) -> (B, n), which writes into `out=` when given. Morlet models
(`_GramVtOp`) take A = W^T M and b = W^T Y with W W^T = G^+ for the Gram
matrix G = M M^T (`gram_orthogonalize`), hold M column-major in the set's
`PatternSet.row_dtype` and never form V. Walsh-Hadamard and noiselet
models (`_SubsetOp`) are rows of a real orthogonal transform applied one
image at a time: H itself, or S = H diag(q) H for noiselets, whose rows U
are the sampled indices and their reversals. The dense SVD (`factorize`)
is the test oracle; `linear_model` accepts its factors too.

A morlet model is its row matrix plus W (k x r), so W is all the
orthogonalization there is to keep: `linear_model` is the one place W is
computed, `cached_pinv` stores it in a SPIV file named by the set's content
hash, and one cached model serves both pinv and TV. No path forms or stores
the n x k pseudoinverse, except `pinv_matrix`, the SVD oracle's.

Binary pattern rows enter the linear model in bipolar form 2P - 1 (the
constant row is unchanged by that map), pairing with the differential
measurement Y - Ybar. A noiselet measurement is the sampled complex rows'
real parts, then their imaginary parts; the SVD oracle stacks the rows the
same way, and the fast model maps the samples to S_U x (`_NoiseletSubsetOp`).

The TV solver is a Nesterov-accelerated smoothed-TV scheme (NESTA) with
continuation over a decreasing smoothing parameter: isotropic TV, forward
differences, reflexive boundary, Huber smoothing, and per-stage stopping on
the relative change of the smoothed objective against a trailing window.
`tv_reconstruct` runs the continuation itself: it starts at the pinv image
A^T b, sets the mu schedule, calls `_nesta_stage` once per stage and
records each stage's TV. An iteration costs one forward and one adjoint;
its image-sized state is one stack updated in place (`_nesta_stage`), and
the TV gradient (`_tv_grad`) runs one image at a time.

Fixed settings: the rank cut-offs relative to the largest singular value
(RANK_TOL cuts only the SVD oracle, `factorize`; Gram models cut at 3
sqrt(eps) of the row dtype, `_rank_floor`), and NESTA's continuation and
stopping rule (Becker, Bobin & Candes 2011), mu from MU_START_FRAC x the
pinv start's dynamic range down to MU_FINAL, each image of a stage stopping
on `tol` against its last STOP_WINDOW values, with the iterate of the
iteration where it stopped. Measurements behind these choices are in
CHANGES.md and the BENCH_*.json files.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .acquire import Measurement, combine_differential
from .imgcore import FormatError, Image, check_field_types, read_header, require_size
from .patterns import (DETERMINISTIC_KINDS, PatternSet, _c_view, _row_blocks, bipolar_rows,
                       noiselet_signs, wht2)

SPIV_MAGIC = b"SPIV"
# 3: no rank tolerance in the header; 4: the Cholesky path's L is
# `_cholesky_lower`'s. Any change to how W is derived from the rows must bump
# this version, so that a cached W stays valid.
SPIV_VERSION = 4
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
        if not (ps.row_meta[0].seed == 0 and ps.row_meta[0].sigma == 0):
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
    """Smallest kept singular value of a Gram model relative to the largest:
    3 sqrt(eps) of `_arith_dtype(dtype)`: 4.5e-8 for float64 rows, and one
    floor, 1.0e-3, for float32 and int8 rows, so a ±1 model's W does not
    depend on which of the two holds its rows. Squaring singular values in
    G halves the usable precision, so smaller ones are rounding noise.
    RANK_TOL, far below either, cuts only the SVD oracle. A change here
    changes W, so it must bump SPIV_VERSION."""
    return 3.0 * np.sqrt(float(np.finfo(_arith_dtype(dtype)).eps))


def _arith_dtype(row_dtype):
    """dtype the products of rows in row_dtype run in: float32 for int8 rows."""
    return np.result_type(row_dtype, np.float32)


def _column_blocks(m, min_cols=1):
    """(slice, block) pairs covering, in order, the columns of the (k, n)
    column-major rows m: block is m.T[slice] as a C-contiguous (cols, k)
    array in `_arith_dtype`. Float rows give one block, the view m.T itself.
    int8 rows give float32 copies of the `_row_blocks(n, 4 k, min_cols)`
    column blocks, each at most _UNPACK_BYTES (or min_cols columns) so that
    it stays in L2 for its product, in one reused buffer: no numpy product
    takes int8 rows."""
    k, n = m.shape
    if m.dtype != np.int8:
        yield slice(0, n), m.T
        return
    blocks = _row_blocks(n, 4 * k, min_cols)
    buf = np.empty((blocks[0].stop, k), np.float32)
    for sl in blocks:
        blk = buf[: sl.stop - sl.start]
        np.copyto(blk, m.T[sl])
        yield sl, blk


def _gram(m_rows):
    """G = M M^T (k x k float64) of column-major rows, summed in the rows'
    arithmetic dtype over `_column_blocks` of at least k columns. The
    products share one buffer, freed with the last block before the float64
    cast. Exact for ±1 rows in float32 or int8 (integer partial sums of
    magnitude at most n < 2^24), so an int8 G is bitwise the float32 rows' G."""
    # each block's product also costs a pass over the k x k g: k columns or
    # more keep it to about 1/k of the block's flops
    blocks = _column_blocks(m_rows, m_rows.shape[0])
    _, blk = next(blocks)
    g = blk.T @ blk
    prod = None
    for _, blk in blocks:
        prod = np.matmul(blk.T, blk, out=prod)
        g += prod
    del blk, prod
    return g.astype(np.float64, copy=False)


_TRI_LEAF = 64
_CHOL_PANEL = 128


def _cholesky_lower(a):
    """Overwrite the column-major symmetric a (k x k float64, lower triangle
    read) with its Cholesky factor L, a = L L^T, and return it; LinAlgError,
    leaving a partly overwritten, when a is not positive definite.
    Left-looking by _CHOL_PANEL-column panels: the update from the columns
    left of a panel (one k x _CHOL_PANEL temporary), np.linalg.cholesky of
    its diagonal block D, then the rows below D times D^-T."""
    k = a.shape[0]
    for j0 in range(0, k, _CHOL_PANEL):
        nb = min(_CHOL_PANEL, k - j0)
        panel = a[j0:, j0:j0 + nb]
        if j0:
            panel -= a[j0:, :j0] @ a[j0:j0 + nb, :j0].T
            a[:j0, j0:j0 + nb] = 0.0
        d = np.linalg.cholesky(panel[:nb])
        panel[:nb] = d
        if nb < panel.shape[0]:
            panel[nb:] = panel[nb:] @ _tril_inverse(d).T
    return a


def _tril_inverse(l):
    """Overwrite the lower-triangular l with its inverse and return it, by the
    block recursion [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]]:
    C A^-1 is the level's one (k/2)^2 temporary, and np.linalg.inv runs on
    blocks of at most _TRI_LEAF rows (its LU pivots, so its result is made
    exactly triangular)."""
    k = l.shape[0]
    if k <= _TRI_LEAF:
        l[:] = np.tril(np.linalg.inv(l))
        return l
    h = k // 2
    _tril_inverse(l[:h, :h])
    _tril_inverse(l[h:, h:])
    t = l[h:, :h] @ l[:h, :h]
    np.matmul(l[h:, h:], np.negative(t, out=t), out=l[h:, :h])
    return l


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
    """(W, path) for the (k, n) column-major rows M: W is k x r float64 with
    W W^T = G^+ for G = M M^T (`_gram`), so A = W^T M has orthonormal rows
    and the row space of M.

    "cholesky": W = L^-T from G = L L^T, taken only when
    1 / ||L^-1||_F > _rank_floor * sqrt(||G||_inf), which proves that no
    singular value of M falls below the floor (sigma_min >= 1 / ||L^-1||_F,
    sigma_max^2 <= ||G||_inf), so r = k; L and then L^-1 are made in place
    in one column-major copy of G, so W is its C-ordered transpose. "eigh"
    otherwise, from the untouched G: W = U_r / d_r from the
    eigendecomposition of G, truncated at the floor. ValueError for an
    all-zero M.
    """
    g = _gram(m_rows)
    floor = _rank_floor(m_rows.dtype)
    sigma_floor = floor * np.sqrt(np.linalg.norm(g, np.inf))
    l_inv = g.copy(order="F")
    try:
        _tril_inverse(_cholesky_lower(l_inv))
    except np.linalg.LinAlgError:
        pass
    else:
        if 1.0 / np.linalg.norm(l_inv) > sigma_floor:
            return l_inv.T, "cholesky"
    del l_inv
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
    """A = W^T M (r x n) without materializing V.

    ``m`` is the (k, n) effective row matrix in its ``PatternSet.row_dtype``
    (float64, float32 or int8 ±1), held column-major so that ``m.T`` is
    C-contiguous (n, k); every pattern set makes its rows in that layout, so
    they are used without a copy. ``w`` (k x r float64) comes from
    `gram_orthogonalize`, so A A^T = I to factorization accuracy. Both
    products run over `_column_blocks`: forward (B, n) -> (B, r) is
    x M^T W, adjoint (B, r) -> (B, n) is (z W^T) M, written into ``out``
    when given. Each rounds its float64 input to the rows' arithmetic dtype
    and returns float64; for float rows each is one BLAS product, and for
    ±1 rows that rounding is the only difference from a float64 M.
    """

    def __init__(self, m_rows, w, width, height, path=""):
        self.m = np.asfortranarray(m_rows)
        self.w = np.ascontiguousarray(w)          # (k, r)
        self.path = path    # gram_orthogonalize's path; "" for a W from a SPIV file
        self.k = self.w.shape[0]
        self.width, self.height = width, height
        self._dt = _arith_dtype(m_rows.dtype)

    def rhs(self, y):
        return _checked(y, self.k) @ self.w

    def forward(self, x):
        x = np.asarray(x, dtype=self._dt)
        t = np.zeros((x.shape[0], self.k))  # (B, k)
        for sl, blk in _column_blocks(self.m):
            t += x[:, sl] @ blk
        return t @ self.w

    def adjoint(self, z, out=None):
        s = (z @ self.w.T).astype(self._dt, copy=False)  # (B, k)
        if out is None:
            out = np.empty((s.shape[0], self.m.shape[1]))
        for sl, blk in _column_blocks(self.m):
            np.matmul(s, blk.T, out=out[:, sl])
        return out


class _SubsetOp:
    """A = rows ``idx`` of a real symmetric orthogonal n x n transform T, so
    A A^T = I. A subclass supplies ``_transform(grid, out=None)``, T of one
    (h, w) image (into ``out``, C-contiguous, when given; it may be
    ``grid``), and ``rhs``. forward (B, n) -> (B, len(idx)) takes rows idx
    of T x; adjoint (B, len(idx)) -> (B, n) scatters into idx and applies
    T = T^T, written into ``out`` when given. Images share nothing in a
    transform, so both take one image at a time on its own (h, w) row,
    0.5 MB at 256^2, so the transform's passes stay in a 2 MB L2 cache,
    where a (B, n) batch's would not (1.5 MB per array at B = 3).
    """

    path = "transform"

    def __init__(self, idx, width, height):
        self.idx = idx
        self.width, self.height = width, height
        self.n = width * height

    def forward(self, x):   # (B, n) -> (B, len(idx))
        x = x.reshape(-1, self.n)
        out = np.empty((x.shape[0], len(self.idx)))
        for xi, oi in zip(x, out):
            np.take(self._transform(xi.reshape(self.height, self.width)).reshape(self.n),
                    self.idx, out=oi)
        return out

    def adjoint(self, z, out=None):   # (B, len(idx)) -> (B, n)
        grid = np.empty((z.shape[0], self.n)) if out is None else out
        for zi, gi in zip(z, grid):
            gi.fill(0.0)
            gi[self.idx] = zi
            g = _c_view(gi, (self.height, self.width))
            self._transform(g, g)
        return grid


class _WhtSubsetOp(_SubsetOp):
    """Orthonormal Walsh-Hadamard rows at the sampled indices; b = Y."""

    def __init__(self, indices, width, height):
        super().__init__(np.asarray(indices, dtype=np.int64), width, height)
        self.k = len(self.idx)

    def rhs(self, y):
        return _checked(y, self.k).astype(np.float64)

    def _transform(self, grid, out=None):
        return wht2(grid, out=out)


class _NoiseletSubsetOp(_SubsetOp):
    """Rows U = idx | n-1-idx of S = H diag(q) H (`patterns.fast_noiselet`),
    real, symmetric and orthogonal, for the k sampled noiselet rows idx.

    The noiselet matrix is ((1 - i) I + (1 + i) R) / 2 . S, R the index
    reversal, so with r = n-1-i its row i is ((1 - i) S_i + (1 + i) S_r) / 2:
    S_i x = Re - Im and S_r x = Re + Im of the sample. rhs maps the stacked
    [Re; Im] samples (..., 2k) to those values (..., len(U)), averaging a
    position that a sampled reversal pair (or, on a 1 x 1 grid, the one
    sample) gives twice: the least-squares estimate.
    """

    def __init__(self, indices, width, height):
        sampled = np.asarray(indices, dtype=np.int64)
        n = width * height
        u = np.zeros(n, dtype=bool)
        u[sampled] = u[n - 1 - sampled] = True
        super().__init__(np.flatnonzero(u), width, height)
        self.k = len(sampled)
        self._at = np.searchsorted(self.idx, sampled)           # positions of S_i
        self._rat = np.searchsorted(self.idx, n - 1 - sampled)  # and of S_r
        self._cover = np.bincount(np.concatenate([self._at, self._rat]),
                                  minlength=len(self.idx))
        self._q = noiselet_signs(n).reshape(height, width)

    def rhs(self, y):       # y: stacked [Re; Im] (..., 2k)
        y = _checked(y, 2 * self.k)
        re, im = y[..., : self.k], y[..., self.k:]
        b = np.zeros(y.shape[:-1] + (len(self.idx),))
        b[..., self._at] = re - im
        b[..., self._rat] += re + im
        b /= self._cover
        return b

    def _transform(self, grid, out=None):
        t = wht2(grid)
        t *= self._q
        return wht2(t, out=t if out is None else out)


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
    w, path = gram_orthogonalize(rows)
    return _GramVtOp(rows, w, source.width, source.height, path)


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
    `work` is (dx, dy, mag, g), whose contents are overwritten (allocated
    when omitted): g is shaped like x and returns the gradient; dx, dy and
    mag are scratch of which only the first image is used, so (1, h, w)
    arrays serve. dx and g must be C-contiguous (the stage's stack rows are;
    ValueError if not). Images share nothing here, so the work runs one
    image at a time (`_tv_grad_image`) with that one image of scratch for
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


# bytes of the stack update's 6 input rows per block: with its 5 output rows
# (the temporary) a block takes 0.9 MB, within a 2 MB L2 cache, so the block
# is read, multiplied and written back without a pass to memory
_UPDATE_BYTES = 1 << 19


def _update_blocks(batch, n):
    """(images, columns) slices of a (6, batch, n) stack, each holding at most
    _UPDATE_BYTES of it (or 2 columns): as many whole images as fit, else
    near-equal column blocks of one image. No block is 1 column wide unless
    n is: numpy multiplies a one-column matrix by gemv, whose bits can differ
    from gemm's."""
    column = 6 * 8                                  # bytes of one column of one image
    per = max(1, _UPDATE_BYTES // (column * n))     # whole images per block
    count = -(-n // max(2, _UPDATE_BYTES // column))  # column blocks per image
    step = -(-n // count)
    ends = [*range(step, n - 1, step), n]
    return [(slice(i, min(i + per, batch)), slice(lo, hi)) for i in range(0, batch, per)
            for lo, hi in zip([0] + ends[:-1], ends)]


def _nesta_stage(op, b, x0, mu, eps, opts):
    """One continuation stage at smoothing mu (B,) from x0 (B, h, w) on
    A x = b, b (B, r); returns (images (B, h, w), whether every image
    stopped, iterations). Each image is its projected iterate from the
    iteration where its stopping rule fired, or from the last one. An
    iteration costs one op.forward and one op.adjoint.

    Every iterate v carries its residual r_v = b - A v and e_v = A^T r_v, so
    projecting v onto {x: ||b - A x|| <= eps} is v + c e_v (`_shrink`) with
    no operator call, and the y- and z-steps update e from p = A^T A g. The
    (B, n) state is one stack s = [x, vz, e_vz, e_x, g, p]; the next
    [x, vz, e_vz, e_x, y] is linear in s with per-image coefficients,
    applied in place one `_update_blocks` block at a time. Each entry is the
    same 6-term gemm product in any blocking, so the result does not depend
    on it. Memory behind this layout: CHANGES.md, "NESTA's image-sized
    state is one stack".
    """
    batch, h, w = x0.shape
    n = h * w
    invl = (1.0 / (8.0 / mu))[:, None]          # 1 / L, L = 8 / mu
    blocks = _update_blocks(batch, n)
    tmp_shape = (blocks[0][0].stop, 5, max(c.stop - c.start for _, c in blocks))
    s = np.empty((6, batch, n))
    # _tv_grad's one image of scratch (3 rows) and the update's temporary
    # share one allocation, apart from the stack's (peak RSS: see above)
    buf = np.empty(3 * n + math.prod(tmp_shape))
    work = [*buf[:3 * n].reshape(3, 1, h, w), s[4].reshape(batch, h, w)]
    tmp = buf[3 * n:].reshape(tmp_shape)
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
        fval, _ = _tv_grad(s[0].reshape(batch, h, w), mu, work)
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
        for imgs, cols in blocks:
            blk = s[:, imgs, cols]
            new = tmp[:blk.shape[1], :, :blk.shape[2]]
            np.matmul(coef[imgs], blk.transpose(1, 0, 2), out=new)
            blk[:5] = new.transpose(1, 0, 2)

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


def tv_reconstruct(model, y, opts: TvOptions = TvOptions()) -> TvResult:
    """TV minimization on the orthogonalized system A x = rhs(Y).

    `model` is a linear model or anything linear_model accepts; y is one
    effective measurement (k,) or a batch (B, k) solved together. From the
    pinv image A^T b, opts.mu_stages calls of `_nesta_stage` run, each from
    the last one's images, at mu falling geometrically from MU_START_FRAC x
    each image's dynamic range (1 for a flat image) to MU_FINAL, or to that
    start if smaller (one stage runs at the end value). Returns the last
    stage's images; converged when every stage stopped on its rule,
    monotone when no stage's TV exceeds the previous one's by more than a
    relative 1e-6 plus 1e-12.
    """
    model = _as_model(model)
    b = np.atleast_2d(model.rhs(y))
    x = model.adjoint(b).reshape(len(b), model.height, model.width)
    dyn = x.max(axis=(1, 2)) - x.min(axis=(1, 2))
    mu0 = MU_START_FRAC * np.where(dyn > 0, dyn, 1.0)
    mu_end = np.minimum(MU_FINAL, mu0)
    stages = opts.mu_stages
    converged, iterations, stage_tv = True, 0, []
    for t in [s / (stages - 1) for s in range(stages)] if stages > 1 else [1.0]:
        x, ok, iters = _nesta_stage(model, b, x, mu0 * (mu_end / mu0) ** t, opts.epsilon, opts)
        converged &= ok
        iterations += iters
        stage_tv.append(tv_norm(x))
    seq = np.array(stage_tv)         # (stages, B)
    monotone = bool(np.all(seq[1:] <= seq[:-1] * (1.0 + 1e-6) + 1e-12))
    if np.ndim(y) == 1:
        stage_tv = [float(v[0]) for v in stage_tv]
    return TvResult(images=x, converged=converged, monotone=monotone,
                    stage_tv=stage_tv, iterations=iterations)


# Earlier per-path names, kept because the benchmark's span table
# (bench/layers.py) wraps them; tests also call pinv_reconstruct_basis.
tv_reconstruct_batch_gram = tv_reconstruct_batch_basis = tv_reconstruct
gram_pinv_apply = pinv_reconstruct_basis = pinv_reconstruct
