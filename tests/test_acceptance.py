"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The PSNR-ordering experiments (criteria 4-6) run on 12 standard grayscale
test images at the 256x256 desk scale and share one sweep per pattern kind
through a session fixture; expect roughly an hour of wall time on one core.
"""

import time
import warnings

import numpy as np
import pytest

from conftest import dense_transform_matrix, self_pattern_matches_oracle
from spisim import recon
from spisim.acquire import measure, measure_differential
from spisim.analyze import (decompose_features, histogram_concentration, psnr,
                            run_sweep, standard_corpus, STANDARD_CORPUS_NAMES)
from spisim.imgcore import Image
from spisim.patterns import (ParamDistribution, gen_morlet_pattern,
                             gen_pattern_set, splitmix64)
from spisim.recon import TvOptions, effective_matrix, effective_measurement
from spisim.wavelets import MorletParams, morlet_wavelet

warnings.filterwarnings("ignore", message="grid .* is below")

SWEEP_SIZE = 256          # desk-scale fallback for the 512x512 ordering claims
SWEEP_TV = TvOptions(max_inner=60, mu_stages=5, tol=1e-5)


def report(num, ok, detail):
    print(f"\n[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="session")
def corpus():
    return standard_corpus(size=SWEEP_SIZE)


@pytest.fixture(scope="session")
def sweep_results(corpus):
    """Shared sweep cells for criteria 4, 5, 6."""
    t0 = time.perf_counter()

    def progress(kind, cr):
        print(f"  [sweep] {kind} cr={cr:.2%} done at "
              f"{time.perf_counter() - t0:.0f}s", flush=True)

    results = {}
    results["real"] = run_sweep(corpus, ["morlet-real"], [0.04, 0.08], ["tv"],
                                seed=0, tv_opts=SWEEP_TV, progress=progress)
    results["binary"] = run_sweep(corpus, ["morlet-binary"],
                                  [0.02, 0.04, 0.06, 0.08, 0.10], ["pinv", "tv"],
                                  seed=0, tv_opts=SWEEP_TV, progress=progress)
    results["bases"] = run_sweep(corpus, ["walsh-hadamard", "noiselet"], [0.04],
                                 ["tv"], seed=0, tv_opts=SWEEP_TV, progress=progress)
    results["runtime"] = time.perf_counter() - t0
    for res in (results["real"], results["binary"], results["bases"]):
        assert not res.errors, f"sweep cells failed: {res.errors}"
    return results


def test_criterion_1_complete_measurement_exactness(rng):
    img = Image(rng.random((64, 64)))
    t0 = time.perf_counter()
    values = {}
    for kind in ("walsh-hadamard", "noiselet"):
        ps = gen_pattern_set(kind, 64, 64, 64 * 64, master_seed=3)
        m = measure(img, ps)
        rec = recon.pinv_reconstruct_basis(ps, m.values)
        values[kind] = psnr(rec, img)
    elapsed = time.perf_counter() - t0
    ok = all(v > 100.0 for v in values.values()) and elapsed < 5.0
    report(1, ok, "complete CR=1.0 pinv recovery: "
                  f"WH {values['walsh-hadamard']:.0f} dB, "
                  f"noiselet {values['noiselet']:.0f} dB (> 100 dB), "
                  f"{elapsed:.2f}s (< 5s)")


def test_criterion_2_fast_transform_oracles(rng):
    from spisim.patterns import fast_noiselet, fast_wht

    max_err = 0.0
    for m in (2, 4, 8, 16):
        v = rng.standard_normal(m)
        ref = dense_transform_matrix(m, "walsh-hadamard") @ v
        max_err = max(max_err, np.abs(fast_wht(v) - ref).max())
        vc = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        refc = dense_transform_matrix(m, "noiselet") @ vc
        max_err = max(max_err, np.abs(fast_noiselet(vc) - refc).max())

    # noiselet value-set property against the dense Kronecker oracle; note
    # the defining recursion puts p in {1,3,5,7} for m an odd power of 2
    # (re/im two-valued) and {0,2,4,6} for even powers (sum/diff two-valued)
    sets_ok = True
    for m, parities in ((2, {1, 3, 5, 7}), (4, {0, 2, 4, 6}),
                        (8, {1, 3, 5, 7}), (16, {0, 2, 4, 6})):
        h = dense_transform_matrix(m, "noiselet")
        if np.abs(np.abs(h) - m ** -0.5).max() > 1e-12:
            sets_ok = False
        p = np.round(np.angle(h.ravel()) / (np.pi / 4)).astype(int) % 8
        if not set(p) <= parities:
            sets_ok = False
    ok = max_err < 1e-12 and sets_ok
    report(2, ok, f"fast transforms vs dense Kronecker m in 2..16: "
                  f"max err {max_err:.2e} (< 1e-12); noiselet value sets hold")


def test_criterion_3_wavelet_constraints():
    rng = np.random.default_rng(77)
    worst_mean, worst_norm = 0.0, 0.0
    t0 = time.perf_counter()
    for _ in range(10000):
        size = int(rng.integers(24, 65))
        sigma = float(rng.uniform(1.0, size / 8.0))
        n_p = float(rng.uniform(0.5, min(4.0, 2.0 * sigma)))
        theta = float(rng.uniform(0.0, np.pi))
        g = morlet_wavelet(MorletParams(sigma, n_p, theta), size, size)
        worst_mean = max(worst_mean, abs(g.mean()))
        worst_norm = max(worst_norm, abs(np.linalg.norm(g) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_mean < 1e-14 and worst_norm < 1e-12 and elapsed < 60.0
    report(3, ok, f"10000 random wavelets: |mean| <= {worst_mean:.2e} (< 1e-14), "
                  f"|norm-1| <= {worst_norm:.2e} (< 1e-12), {elapsed:.1f}s (< 60s)")


def test_criterion_4_sampling_ordering(sweep_results):
    real = sweep_results["real"].mean_psnr("morlet-real", 0.04, "tv")
    nslt = sweep_results["bases"].mean_psnr("noiselet", 0.04, "tv")
    wh = sweep_results["bases"].mean_psnr("walsh-hadamard", 0.04, "tv")
    runtime = sweep_results["runtime"]
    ok = real > nslt > wh and real >= 22.0 and runtime < 7200
    report(4, ok, f"TV at CR=4% on {SWEEP_SIZE}x{SWEEP_SIZE} corpus (desk-scale "
                  f"fallback): morlet-real {real:.2f} > noiselet {nslt:.2f} > "
                  f"walsh-hadamard {wh:.2f} dB, morlet-real >= 22 dB, "
                  f"sweeps took {runtime:.0f}s (< 2h)")


def test_criterion_5_binarization_penalty(sweep_results):
    deltas = {}
    for cr in (0.04, 0.08):
        real = sweep_results["real"].mean_psnr("morlet-real", cr, "tv")
        binary = sweep_results["binary"].mean_psnr("morlet-binary", cr, "tv")
        deltas[cr] = binary - real
    ok = all(d >= -1.5 for d in deltas.values())
    report(5, ok, "binarization penalty (TV): " +
           ", ".join(f"CR={cr:.0%}: {d:+.2f} dB" for cr, d in deltas.items()) +
           " (each >= -1.5 dB)")


def test_criterion_6_tv_beats_pinv(sweep_results):
    gaps = {}
    for cr in (0.02, 0.04, 0.06, 0.08, 0.10):
        tv = sweep_results["binary"].mean_psnr("morlet-binary", cr, "tv")
        pinv = sweep_results["binary"].mean_psnr("morlet-binary", cr, "pinv")
        gaps[cr] = tv - pinv
    ok = all(g >= 0.0 for g in gaps.values())
    report(6, ok, "TV - pinv gap for morlet-binary: " +
           ", ".join(f"{cr:.0%}: {g:+.2f} dB" for cr, g in gaps.items()) +
           " (all >= 0; expected band 2-7 dB)")


def test_criterion_7_streaming_recovery(rng):
    # equality of streamed and batch pseudoinverse recovery at 128x128
    img = Image(rng.random((128, 128)))
    k = int(0.06 * 128 * 128)
    ps = gen_pattern_set("morlet-binary", 128, 128, k, master_seed=13)
    y = effective_measurement(ps, measure_differential(img, ps))
    pm = recon.pinv_matrix(recon.factorize(ps))
    batch = recon.pinv_reconstruct(pm, y)
    stream = recon.PinvStream(pm)
    for j in rng.permutation(k):
        stream.update(int(j), y[j])
    stream_err = np.abs(stream.image().data - batch.data).max()

    # single matrix-vector reconstruction time at 256x256, 6% CR
    n = 256 * 256
    k2 = int(0.06 * n)
    dist = ParamDistribution.default_for(256, 256)
    ps2 = gen_pattern_set("morlet-binary", 256, 256, k2, dist=dist, master_seed=14)
    m_rows = effective_matrix(ps2, dtype=np.float32)
    w_r, _ = recon.gram_orthogonalize(m_rows)
    w = w_r @ w_r.T                             # G+ on either orthogonalization path
    pinv32 = (w.astype(np.float32) @ m_rows).T  # precalculated n x k pseudoinverse
    y2 = rng.standard_normal(k2).astype(np.float32)
    t0 = time.perf_counter()
    x2 = pinv32 @ y2
    matvec = time.perf_counter() - t0
    assert x2.shape == (n,)
    ok = stream_err < 1e-12 and matvec < 1.0
    report(7, ok, f"streaming == batch within {stream_err:.2e} (< 1e-12) at "
                  f"128x128/6%; 256x256 single matrix-vector recon {matvec*1e3:.0f} ms "
                  f"(< 1 s)")


def _moore_penrose_residual(m, p):
    mp, pm = m @ p, p @ m
    return max(
        np.linalg.norm(m @ pm - m) / np.linalg.norm(m),
        np.linalg.norm(p @ mp - p) / np.linalg.norm(p),
        np.linalg.norm(mp - mp.T) / np.linalg.norm(mp),
        np.linalg.norm(pm - pm.T) / np.linalg.norm(pm),
    )


def test_criterion_8_moore_penrose_identities(rng, tmp_path):
    mats = []
    shapes = [(3, 7), (8, 8), (10, 40), (16, 64), (24, 24), (32, 100), (40, 160),
              (64, 256), (64, 640), (80, 300), (100, 1000), (128, 512),
              (128, 2048), (160, 700), (200, 1200), (256, 1024), (300, 2500),
              (320, 3000), (400, 2000), (512, 4096)]
    for k, n in shapes:
        mats.append(("random", rng.standard_normal((k, n))))
    binary_sets = [gen_pattern_set("morlet-binary", w, h, k, master_seed=k)
                   for k, w, h in [(16, 16, 16), (40, 32, 32), (64, 32, 64), (128, 64, 64),
                                   (512, 64, 64)]]
    for ps in binary_sets:
        mats.append(("morlet-binary", effective_matrix(ps)))

    worst = 0.0
    for _, m in mats:
        worst = max(worst, _moore_penrose_residual(m, recon.pinv_matrix(recon.factorize(m)).data))
    # the n x k matrix the cached model applies on a cache hit: the set's rows
    # and the W cached_pinv wrote, built from Gram factors without an SVD
    worst_gram = 0.0
    for ps in binary_sets:
        recon.cached_pinv(ps, tmp_path)
        p = recon.pinv_reconstruct(recon.cached_pinv(ps, tmp_path),
                                   np.eye(ps.k)).reshape(ps.k, -1).T
        worst_gram = max(worst_gram, _moore_penrose_residual(effective_matrix(ps), p))
    ok = worst < 1e-8 and worst_gram < 1e-8
    report(8, ok, f"Moore-Penrose identities on 20 random + 5 morlet-binary "
                  f"matrices up to 512x4096: worst relative residual "
                  f"{worst:.2e} (< 1e-8); Gram-built cached pinv of the 5 "
                  f"morlet-binary sets {worst_gram:.2e} (< 1e-8)")


def test_criterion_9_feature_decomposition(corpus):
    names = STANDARD_CORPUS_NAMES + ("brick", "grass", "gravel", "horse",
                                     "text", "checkerboard", "colorwheel", "cell")
    images = [img for _, img in standard_corpus(size=128, names=names)]
    assert len(images) == 20
    dist = ParamDistribution.default_for(128, 128)
    hist = decompose_features(images, 1500, dist, seed=42)
    frac, _ = histogram_concentration(hist, level=0.1)

    # self-pattern sanity against the brute-force least-squares oracle
    self_ok = self_pattern_matches_oracle()

    ok = frac >= 0.60 and self_ok
    report(9, ok, f"feature histogram: {frac:.0%} of mass in one contiguous "
                  f"(sigma, n_p) region (>= 60%); self-pattern matches the "
                  f"least-squares oracle")


def test_criterion_10_ensemble_stationarity():
    # per-pixel ensemble variance over 500 seeds, fixed parameters
    p = MorletParams(sigma=4.0, n_p=2.0, theta=0.8)
    w = h = 64
    acc = np.zeros((h, w))
    acc2 = np.zeros((h, w))
    for seed in range(500):
        pat = gen_morlet_pattern(p, splitmix64(1000, seed), w, h)
        acc += pat
        acc2 += pat * pat
    var = acc2 / 500 - (acc / 500) ** 2
    spread = float(var.std() / var.mean())

    # single-realization autocorrelation vs the wavelet autocorrelation oracle
    p2 = MorletParams(sigma=3.0, n_p=2.0, theta=0.4)
    big = 256
    pat = gen_morlet_pattern(p2, 11, big, big)
    emp = np.fft.ifft2(np.abs(np.fft.fft2(pat)) ** 2).real
    emp /= emp[0, 0]
    kernel = np.fft.ifftshift(morlet_wavelet(p2, big, big).real)
    ref = np.fft.ifft2(np.abs(np.fft.fft2(kernel)) ** 2).real
    ref /= ref[0, 0]
    lag = int(2 * p2.sigma)
    sl = np.r_[0:lag + 1, big - lag:big]
    ac_err = float(np.abs(emp[np.ix_(sl, sl)] - ref[np.ix_(sl, sl)]).max())

    ok = spread <= 0.15 and ac_err <= 0.10
    report(10, ok, f"ensemble variance spread over 500 seeds {spread:.1%} "
                   f"(<= 15%); single-realization autocorrelation error "
                   f"{ac_err:.3f} of peak at lags <= 2*sigma (<= 0.10)")
