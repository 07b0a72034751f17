import numpy as np
import pytest

from spisim import patterns
from spisim.acquire import NoiseModel, measure, measure_differential
from spisim.analyze import (_cell_seed, _image_noise_model, decompose_features,
                            histogram_concentration, mse, psnr, run_sweep)
from spisim.imgcore import Image
from spisim.patterns import ParamDistribution, gen_pattern_set, rows_for_cr
from spisim.recon import TvOptions, effective_measurement, linear_model, pinv_reconstruct


class TestMse:
    def test_identical_is_zero(self, random_image):
        assert mse(random_image, random_image) == 0.0

    def test_constant_offset(self):
        r = Image(np.full((4, 4), 0.5))
        x = Image(np.full((4, 4), 0.6))
        assert mse(x, r) == pytest.approx(0.01)

    def test_swapped_pixels(self):
        x = Image(np.array([[0.0, 1.0]]))
        r = Image(np.array([[1.0, 0.0]]))
        assert mse(x, r) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mse(Image(np.zeros((2, 2))), Image(np.zeros((2, 3))))


class TestPsnr:
    def test_twenty_db(self):
        r = Image(np.concatenate([np.full(8, 1.0), np.zeros(8)]).reshape(4, 4))
        x = Image(r.data + 0.1)  # MSE 0.01, max(R) = 1
        assert psnr(x, r) == pytest.approx(20.0)

    def test_identical_gives_inf_sentinel(self, random_image):
        assert psnr(random_image, random_image) == float("inf")
        # the CLI and the sweep CSVs write it with repr/str, as "inf"
        assert repr(psnr(random_image, random_image)) == "inf"

    def test_forty_db(self):
        r = Image(np.concatenate([np.full(8, 1.0), np.zeros(8)]).reshape(4, 4))
        x = Image(r.data + 0.01)
        assert psnr(x, r) == pytest.approx(40.0)

    def test_strictly_decreasing_with_noise(self, rng, random_image):
        noise = rng.standard_normal(random_image.data.shape)
        vals = [psnr(Image(random_image.data + amp * noise), random_image)
                for amp in (1e-3, 1e-2, 1e-1)]
        assert vals[0] > vals[1] > vals[2]


class TestDecomposeFeatures:
    DIST = ParamDistribution(sigma_range=(2.0, 4.0), np_range=(0.5, 3.0))

    def test_self_pattern_concentrates_and_matches_lstsq_oracle(self):
        ps = gen_pattern_set("morlet-real", 32, 32, 64, dist=self.DIST, master_seed=20)
        j = 11
        row = ps.dense()[j]
        img = Image((row / np.abs(row).max()).reshape(32, 32))
        # brute-force least-squares oracle for the coefficient vector
        c_oracle, *_ = np.linalg.lstsq(ps.dense().T, img.vector(), rcond=None)
        assert np.argmax(np.abs(c_oracle)) == j

        hist = decompose_features([img], 64, self.DIST, seed=20)
        meta = ps.row_meta[j]
        si = np.searchsorted(hist.sigma_edges, meta.sigma) - 1
        pj = np.searchsorted(hist.np_edges, meta.n_p) - 1
        assert hist.values[si, pj] == hist.values.max()

    def test_constant_corpus_gives_zero_coefficients(self):
        imgs = [Image(np.full((16, 16), c)) for c in (0.2, 0.7)]
        hist = decompose_features(imgs, 32, self.DIST, seed=4)
        assert hist.values.max() < 1e-8

    def test_doubling_intensity_doubles_values(self, rng):
        img = Image(rng.random((16, 16)))
        h1 = decompose_features([img], 32, self.DIST, seed=4)
        h2 = decompose_features([Image(2.0 * img.data)], 32, self.DIST, seed=4)
        np.testing.assert_allclose(h2.values, 2.0 * h1.values, atol=1e-12)

    def test_corpus_order_invariance(self, rng):
        imgs = [Image(rng.random((16, 16))) for _ in range(3)]
        a = decompose_features(imgs, 32, self.DIST, seed=4)
        b = decompose_features(imgs[::-1], 32, self.DIST, seed=4)
        # equal up to summation-order rounding
        np.testing.assert_allclose(a.values, b.values, atol=1e-14, rtol=1e-12)

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match="empty"):
            decompose_features([], 16, self.DIST)

    def test_csv_format(self, rng, tmp_path):
        hist = decompose_features([Image(rng.random((16, 16)))], 32, self.DIST, seed=4)
        hist.to_csv(tmp_path / "h.csv")
        lines = (tmp_path / "h.csv").read_text().strip().splitlines()
        assert lines[0] == "sigma_lo,sigma_hi,np_lo,np_hi,mean_abs_coeff"
        assert len(lines) == 1 + hist.values.size

    def test_concentration_helper(self):
        from spisim.analyze import FeatureHistogram

        hist = FeatureHistogram(sigma_edges=np.array([1.0, 2.0, 4.0]),
                                np_edges=np.array([0.5, 1.0, 2.0]),
                                values=np.array([[10.0, 9.0], [0.1, 0.2]]),
                                counts=np.ones((2, 2), dtype=np.int64),
                                corpus_size=1)
        frac, mask = histogram_concentration(hist, level=0.5)
        assert frac == pytest.approx(19.0 / 19.3)
        assert mask.sum() == 2


def tiny_corpus(rng, size=16, count=3):
    return [(f"img{i}", Image(rng.random((size, size)))) for i in range(count)]


class TestRunSweep:
    def test_complete_wh_pinv_is_exact(self, rng):
        corpus = tiny_corpus(rng)
        res = run_sweep(corpus, ["walsh-hadamard"], [1.0], ["pinv"], seed=1)
        for row in res.rows:
            assert row.psnr_db > 100.0
        assert not res.errors

    def test_same_seed_reproduces(self, rng):
        corpus = tiny_corpus(rng)
        a = run_sweep(corpus, ["morlet-binary"], [0.25], ["pinv", "tv"], seed=3)
        b = run_sweep(corpus, ["morlet-binary"], [0.25], ["pinv", "tv"], seed=3)
        assert [(r.kind, r.cr, r.method, r.image, r.psnr_db) for r in a.rows] == \
               [(r.kind, r.cr, r.method, r.image, r.psnr_db) for r in b.rows]

    def test_cells_are_independent(self, rng):
        # any subset of cells recomputed in isolation matches the full run
        corpus = tiny_corpus(rng)
        full = run_sweep(corpus, ["morlet-real", "walsh-hadamard"], [0.25, 0.5],
                         ["pinv"], seed=9)
        part = run_sweep(corpus, ["walsh-hadamard"], [0.5], ["pinv"], seed=9)
        want = [(r.image, r.psnr_db) for r in full.rows
                if r.kind == "walsh-hadamard" and r.cr == 0.5]
        got = [(r.image, r.psnr_db) for r in part.rows]
        assert want == got

    def test_noise_seeds_differ_per_image(self, rng):
        corpus = tiny_corpus(rng, count=2)
        nm = NoiseModel(additive_sigma=1e-2, seed=5)
        res = run_sweep(corpus, ["morlet-real"], [0.5], ["pinv"], nm=nm, seed=2)
        assert len({r.psnr_db for r in res.rows}) == 2

    def test_failed_cell_recorded_not_fatal(self, rng):
        corpus = tiny_corpus(rng, size=12)  # 12 is not a power of 2
        res = run_sweep(corpus, ["walsh-hadamard", "morlet-real"], [0.25], ["pinv"],
                        seed=1)
        assert len(res.errors) == 1 and res.errors[0][0] == "walsh-hadamard"
        assert any(r.kind == "morlet-real" for r in res.rows)

    def test_csv_outputs(self, rng, tmp_path):
        corpus = tiny_corpus(rng)
        res = run_sweep(corpus, ["walsh-hadamard"], [1.0], ["pinv"], seed=1)
        res.to_csv(tmp_path / "cells.csv")
        res.summary_to_csv(tmp_path / "summary.csv")
        cells = (tmp_path / "cells.csv").read_text().strip().splitlines()
        assert cells[0] == ("kind,cr,method,image,psnr_db,runtime_s,"
                            "iterations,converged,monotone")
        assert len(cells) == 4
        summary = (tmp_path / "summary.csv").read_text().strip().splitlines()
        assert summary[0] == "kind,cr,method,mean_psnr_db,std_psnr_db,runtime_s"
        # identical reconstructions serialize the +inf sentinel as "inf"
        assert any(line.split(",")[4] == "inf" for line in cells[1:]) or \
               all(float(line.split(",")[4]) > 100 for line in cells[1:])

    def test_tv_diagnostics_reach_the_csv(self, rng, tmp_path):
        corpus = tiny_corpus(rng)
        opts = TvOptions(max_inner=3, mu_stages=2)
        res = run_sweep(corpus, ["morlet-real"], [0.5], ["pinv", "tv"], seed=4, tv_opts=opts)
        res.to_csv(tmp_path / "cells.csv")
        cells = [line.split(",") for line in
                 (tmp_path / "cells.csv").read_text().strip().splitlines()[1:]]
        assert sorted(c[2] for c in cells) == ["pinv"] * 3 + ["tv"] * 3
        for c in cells:
            if c[2] == "pinv":
                assert c[6:] == ["", "", ""]
            else:   # 2 stages of 3 iterations, too few to converge
                assert c[6:8] == ["6", "0"] and c[8] in ("0", "1")
        tv = [r for r in res.rows if r.method == "tv"]
        assert all(r.iterations == 6 and r.converged is False for r in tv)

    def test_summary_means(self, rng):
        corpus = tiny_corpus(rng)
        res = run_sweep(corpus, ["morlet-real"], [0.5], ["pinv"], seed=4)
        mean = res.mean_psnr("morlet-real", 0.5, "pinv")
        vals = [r.psnr_db for r in res.rows]
        assert mean == pytest.approx(np.mean(vals))

    @pytest.mark.parametrize("kind,above", [
        ("morlet-real", False), ("morlet-binary", False), ("walsh-hadamard", False),
        ("noiselet", False), ("morlet-real", True), ("morlet-binary", True)])
    def test_cell_is_the_cli_pipeline(self, rng, monkeypatch, kind, above):
        # gen_pattern_set -> measure / measure_differential -> effective_measurement
        # -> pinv_reconstruct(linear_model(ps)), as `spisim gen/measure/reconstruct`
        if above:
            monkeypatch.setattr(patterns, "_DENSE_LIMIT", 0)
        corpus = tiny_corpus(rng)
        nm = NoiseModel(additive_sigma=1e-2, adc_bits=12)
        seed, cr = 5, 0.25
        res = run_sweep(corpus, [kind], [cr], ["pinv"], nm=nm, seed=seed)
        assert not res.errors

        cell_seed = _cell_seed(seed, kind, cr)
        ps = gen_pattern_set(kind, 16, 16, rows_for_cr(kind, cr, 256),
                             master_seed=cell_seed)
        above_dtype = np.int8 if ps.is_binary else np.float32
        assert ps.row_dtype == (above_dtype if above else np.float64)
        take = measure_differential if ps.is_binary else measure
        y = np.stack([effective_measurement(
            ps, take(img, ps, _image_noise_model(nm, cell_seed, i)))
            for i, (_, img) in enumerate(corpus)])
        xs = pinv_reconstruct(linear_model(ps), y)
        want = [psnr(Image(x), img) for x, (_, img) in zip(xs, corpus)]
        got = [r.psnr_db for r in res.rows]
        assert len(got) == len(want)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
