"""Quality metrics, feature-space decomposition, and the compression-sweep harness.

The sweep harness reproduces the PSNR-vs-compression comparisons: for each
(pattern kind, compression ratio, reconstruction method) cell it generates a
pattern set, simulates the measurement of every corpus image (differential
for binary kinds), reconstructs, and records PSNR and wall time. Cell RNG
streams derive from (seed, kind, CR) only, so any subset of cells recomputed
in isolation reproduces the full run.

A cell is the CLI pipeline (`spisim gen`, `measure`, `reconstruct`) with
the whole corpus as one batch: gen_pattern_set, acquire.measure or
measure_differential per image, recon.effective_measurement and
recon.linear_model of the pattern set.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import acquire, recon
from .acquire import NoiseModel
from .imgcore import Image
from .patterns import KINDS, ParamDistribution, gen_pattern_set, rows_for_cr, splitmix64
from .recon import TvOptions

# Not used here: these names stay importable from this module because the
# benchmark's span table (bench/layers.py) wraps analyze.<name>, and
# bench/worker.py reads analyze._DENSE_LIMIT.
from .acquire import measure  # noqa: F401
from .patterns import _DENSE_LIMIT, bipolar_rows, iter_morlet_rows  # noqa: F401
_measure_effective = measure

PSNR_INF = float("inf")


def mse(x: Image, r: Image) -> float:
    if x.data.shape != r.data.shape:
        raise ValueError(f"dimension mismatch {x.data.shape} vs {r.data.shape}")
    diff = x.data - r.data
    return float(np.mean(diff * diff))


def psnr(x: Image, r: Image) -> float:
    """10*log10(max(R)^2 / MSE(X, R)); +inf sentinel for identical images."""
    err = mse(x, r)
    if err == 0.0:
        return PSNR_INF
    peak = float(np.max(r.data))
    return float(10.0 * np.log10(peak * peak / err))


def format_psnr(value: float) -> str:
    """CSV representation; the +inf sentinel serializes as the string 'inf'."""
    return "inf" if value == PSNR_INF else repr(value)


# --------------------------------------------------------------------------
# feature-space decomposition
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureHistogram:
    """Mean |decomposition coefficient| binned over (sigma, n_p)."""

    sigma_edges: np.ndarray   # (S+1,) strictly increasing
    np_edges: np.ndarray      # (P+1,)
    values: np.ndarray        # (S, P) mean |c| per bin, 0 where no pattern fell
    counts: np.ndarray        # (S, P) number of (pattern, image) samples per bin
    corpus_size: int

    def __post_init__(self):
        if np.any(np.diff(self.sigma_edges) <= 0) or np.any(np.diff(self.np_edges) <= 0):
            raise ValueError("histogram bin edges must be strictly increasing")
        if np.any(self.values < 0):
            raise ValueError("histogram values must be nonnegative")

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("sigma_lo,sigma_hi,np_lo,np_hi,mean_abs_coeff\n")
            for i in range(self.values.shape[0]):
                for j in range(self.values.shape[1]):
                    fh.write(f"{float(self.sigma_edges[i])!r},"
                             f"{float(self.sigma_edges[i + 1])!r},"
                             f"{float(self.np_edges[j])!r},"
                             f"{float(self.np_edges[j + 1])!r},"
                             f"{float(self.values[i, j])!r}\n")


def decompose_features(corpus, dict_size, dist: ParamDistribution, seed=0,
                       nbins_sigma=16, nbins_np=14) -> FeatureHistogram:
    """Decompose a corpus into a random morlet-real dictionary.

    Every image is expressed in the dictionary rows through the truncated
    pseudoinverse (least-squares coefficients of x ~= M^T c), and |c| is
    averaged per (sigma, n_p) bin over rows and images. The coefficients
    come from the Gram model A = D^-1 U^T M = V^T: c = U D^-1 V^T x = W A x.
    """
    corpus = list(corpus)
    if not corpus:
        raise ValueError("empty corpus")
    h, w = corpus[0].data.shape
    for img in corpus:
        if img.data.shape != (h, w):
            raise ValueError("corpus images must share dimensions")
    ps = gen_pattern_set("morlet-real", w, h, dict_size, dist=dist, master_seed=seed)
    model = recon.linear_model(ps)

    # the constant row absorbs the image mean but carries no (sigma, n_p)
    wavelet = np.array([not m.is_constant for m in ps.row_meta])
    sigmas = np.array([m.sigma for m in ps.row_meta])[wavelet]
    nps = np.array([m.n_p for m in ps.row_meta])[wavelet]
    sigma_edges = np.geomspace(dist.sigma_range[0] * 0.999, dist.sigma_range[1] * 1.001,
                               nbins_sigma + 1)
    np_edges = np.linspace(dist.np_range[0] * 0.999, dist.np_range[1] * 1.001,
                           nbins_np + 1)
    si = np.clip(np.searchsorted(sigma_edges, sigmas, side="right") - 1, 0, nbins_sigma - 1)
    pj = np.clip(np.searchsorted(np_edges, nps, side="right") - 1, 0, nbins_np - 1)

    coeffs = model.forward(np.stack([img.vector() for img in corpus])) @ model.w.T
    sums = np.zeros((nbins_sigma, nbins_np))
    counts = np.zeros((nbins_sigma, nbins_np), dtype=np.int64)
    np.add.at(sums, (si, pj), np.abs(coeffs[:, wavelet]).sum(axis=0))
    np.add.at(counts, (si, pj), len(corpus))
    values = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    return FeatureHistogram(sigma_edges=sigma_edges, np_edges=np_edges,
                            values=values, counts=counts, corpus_size=len(corpus))


def histogram_concentration(hist: FeatureHistogram, level=0.1):
    """Mass fraction inside the largest 4-connected above-threshold bin region.

    Threshold = level * peak bin value. Returns (fraction, mask).
    """
    v = hist.values
    total = v.sum()
    if total <= 0:
        return 0.0, np.zeros_like(v, dtype=bool)
    above = v >= level * v.max()
    labels = np.full(v.shape, -1, dtype=np.int64)
    best_mass, best_label = 0.0, -1
    current = 0
    for i in range(v.shape[0]):
        for j in range(v.shape[1]):
            if not above[i, j] or labels[i, j] >= 0:
                continue
            stack = [(i, j)]
            labels[i, j] = current
            mass = 0.0
            while stack:
                a, c = stack.pop()
                mass += v[a, c]
                for a2, c2 in ((a - 1, c), (a + 1, c), (a, c - 1), (a, c + 1)):
                    if 0 <= a2 < v.shape[0] and 0 <= c2 < v.shape[1] \
                            and above[a2, c2] and labels[a2, c2] < 0:
                        labels[a2, c2] = current
                        stack.append((a2, c2))
            if mass > best_mass:
                best_mass, best_label = mass, current
            current += 1
    return best_mass / total, labels == best_label


# --------------------------------------------------------------------------
# sweep harness
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    kind: str
    cr: float
    method: str
    image: str
    psnr_db: float
    runtime_s: float
    # TV rows: the cell's batch solve (inner iterations over all stages,
    # converged, monotone stage TV); None for pinv rows
    iterations: int = None
    converged: bool = None
    monotone: bool = None


@dataclass
class SweepResult:
    rows: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def summary(self):
        """[(kind, cr, method, mean_psnr, std_psnr, total_runtime)] over images."""
        groups = {}
        for r in self.rows:
            groups.setdefault((r.kind, r.cr, r.method), []).append(r)
        out = []
        for (kind, cr, method), rows in sorted(groups.items()):
            vals = np.array([r.psnr_db for r in rows])
            finite = vals[np.isfinite(vals)]
            mean = float(finite.mean()) if finite.size else PSNR_INF
            std = float(finite.std()) if finite.size else 0.0
            out.append((kind, cr, method, mean, std, sum(r.runtime_s for r in rows)))
        return out

    def mean_psnr(self, kind, cr, method):
        vals = [r.psnr_db for r in self.rows
                if r.kind == kind and abs(r.cr - cr) < 1e-12 and r.method == method]
        if not vals:
            raise KeyError(f"no sweep cell ({kind}, {cr}, {method})")
        finite = [v for v in vals if np.isfinite(v)]
        return float(np.mean(finite)) if finite else PSNR_INF

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("kind,cr,method,image,psnr_db,runtime_s,iterations,converged,monotone\n")
            for r in self.rows:
                tv = ",".join("" if v is None else str(int(v))
                              for v in (r.iterations, r.converged, r.monotone))
                fh.write(f"{r.kind},{r.cr!r},{r.method},{r.image},"
                         f"{format_psnr(r.psnr_db)},{r.runtime_s!r},{tv}\n")

    def summary_to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("kind,cr,method,mean_psnr_db,std_psnr_db,runtime_s\n")
            for kind, cr, method, mean, std, rt in self.summary():
                fh.write(f"{kind},{cr!r},{method},{format_psnr(mean)},{std!r},{rt!r}\n")


def _cell_seed(seed, kind, cr):
    return splitmix64(splitmix64(seed, KINDS.index(kind)), int(round(cr * 10 ** 9)))


def _image_noise_model(nm, cell_seed, i):
    return NoiseModel(additive_sigma=nm.additive_sigma, adc_bits=nm.adc_bits,
                      source_fluctuation_sigma=nm.source_fluctuation_sigma,
                      seed=splitmix64(cell_seed, i))


def run_sweep(corpus, kinds, crs, methods, nm: NoiseModel = NoiseModel(), seed=0,
              dist: ParamDistribution = None, tv_opts: TvOptions = TvOptions(),
              progress=None) -> SweepResult:
    """PSNR sweep over (kind x CR x method) for a named image corpus.

    `corpus` is a list of (name, Image) with identical dimensions. Each
    cell reconstructs the corpus as one batch; runtimes are amortized per
    image. A cell at compression ratio cr has patterns.rows_for_cr rows, as
    `spisim gen --cr` does: cr counts real samples, two per noiselet row.
    """
    corpus = list(corpus)
    if not corpus or not kinds or not crs or not methods:
        raise ValueError("corpus, kinds, crs, and methods must be non-empty")
    names = [name for name, _ in corpus]
    images = [img for _, img in corpus]
    result = SweepResult()

    for kind in kinds:
        for cr in crs:
            try:
                _run_cell(result, names, images, kind, cr, dist,
                          _cell_seed(seed, kind, cr), nm, methods, tv_opts)
            except Exception as e:  # failed cells recorded, not fatal
                result.errors.append((kind, cr, "*", f"{type(e).__name__}: {e}"))
            if progress:
                progress(kind, cr)
    return result


def _run_cell(result, names, images, kind, cr, dist, cell_seed, nm, methods, tv_opts):
    h, w = images[0].data.shape
    ps = gen_pattern_set(kind, w, h, rows_for_cr(kind, cr, h * w), dist=dist,
                         master_seed=cell_seed)
    take = acquire.measure_differential if ps.is_binary else acquire.measure
    y = np.stack([recon.effective_measurement(
        ps, take(img, ps, _image_noise_model(nm, cell_seed, i)))
        for i, img in enumerate(images)])
    model = recon.linear_model(ps)

    for method in ("pinv", "tv"):
        if method not in methods:
            continue
        t0 = time.perf_counter()
        if method == "pinv":
            xs, tv = recon.pinv_reconstruct(model, y), ()
        else:
            res = recon.tv_reconstruct(model, y, tv_opts)
            xs, tv = res.images, (res.iterations, res.converged, res.monotone)
        dt = (time.perf_counter() - t0) / len(images)
        for name, img, x in zip(names, images, xs):
            result.rows.append(SweepRow(kind, cr, method, name, psnr(Image(x), img), dt, *tv))


# --------------------------------------------------------------------------
# standard corpus
# --------------------------------------------------------------------------

STANDARD_CORPUS_NAMES = (
    "camera", "moon", "astronaut", "immunohistochemistry", "coffee", "chelsea",
    "cat", "rocket", "hubble_deep_field", "coins", "clock", "page",
)


def _square(a, size):
    """Center-crop a 2D array to a square, resize it to (size, size) with
    anti-aliasing when shrinking, and clip to [0, 1]."""
    side = min(a.shape)
    top, left = (a.shape[0] - side) // 2, (a.shape[1] - side) // 2
    a = a[top:top + side, left:left + side]
    if side != size:
        try:
            from skimage.transform import resize
        except ImportError as e:
            raise ImportError("resizing a corpus needs scikit-image "
                              "(pip install spisim[corpus])") from e
        a = resize(a, (size, size), anti_aliasing=side > size)
    return Image(np.clip(a, 0.0, 1.0))


def standard_corpus(size=512, names=STANDARD_CORPUS_NAMES):
    """Standard grayscale test images shipped with scikit-image.

    Color images are converted with the luminance weights, non-square ones
    center-cropped square, and everything resized to (size, size) with
    anti-aliasing. Values in [0, 1].
    """
    try:
        from skimage import data as skdata
    except ImportError as e:  # pragma: no cover
        raise ImportError("standard_corpus needs scikit-image "
                          "(pip install spisim[corpus])") from e
    out = []
    for name in names:
        img = np.asarray(getattr(skdata, name)(), dtype=np.float64)
        if img.ndim == 3:
            img = img @ np.array([0.2126, 0.7152, 0.0722])
        if img.max() > 1.0:
            img = img / 255.0
        out.append((name, _square(img, size)))
    return out


def load_corpus(paths, size=None):
    """Load a corpus from image files, optionally center-crop/resizing to square."""
    from .imgcore import load_image

    out = []
    for path in paths:
        img = load_image(path)
        if size is not None and img.data.shape != (size, size):
            img = _square(img.data, size)
        out.append((str(path), img))
    return out
