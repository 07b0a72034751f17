import numpy as np
import pytest

from spisim import patterns, recon
from spisim.acquire import NoiseModel, measure, measure_differential
from spisim.analyze import (FeatureHistogram, SweepRow, _cell_seed, _image_noise_model,
                            decompose_features, histogram_concentration, mse, psnr, run_sweep)
from spisim.imgcore import Image
from spisim.patterns import ParamDistribution, gen_pattern_set, rows_for_cr
from spisim.recon import (TvOptions, effective_matrix, effective_measurement, linear_model,
                          pinv_reconstruct)


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

    def test_mixed_image_sizes(self, rng):
        imgs = [Image(rng.random((16, 16))), Image(rng.random((16, 8)))]
        with pytest.raises(ValueError, match="corpus images must share dimensions"):
            decompose_features(imgs, 16, self.DIST)

    @pytest.mark.parametrize("field,value,message", [
        ("sigma_edges", [1.0, 1.0, 4.0], "histogram bin edges must be strictly increasing"),
        ("np_edges", [2.0, 1.0, 0.5], "histogram bin edges must be strictly increasing"),
        ("values", [[1.0, -0.5], [0.0, 0.0]], "histogram values must be nonnegative"),
    ], ids=["sigma-edges", "np-edges", "negative-value"])
    def test_malformed_histogram_is_refused(self, field, value, message):
        parts = dict(sigma_edges=np.array([1.0, 2.0, 4.0]), np_edges=np.array([0.5, 1.0, 2.0]),
                     values=np.ones((2, 2)), counts=np.ones((2, 2), dtype=np.int64),
                     corpus_size=1)
        parts[field] = np.array(value)
        with pytest.raises(ValueError, match=message):
            FeatureHistogram(**parts)

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

    @pytest.mark.parametrize("dist", [
        ParamDistribution(sigma_range=(2.0, 4.0), np_range=(0.5, 3.0)),
        ParamDistribution(sigma_range=(2.0, 2.0), np_range=(1.0, 1.0)),
        ParamDistribution.default_for(16, 16)])
    def test_bins_equal_a_per_row_loop(self, rng, dist):
        imgs = [Image(rng.random((16, 16))) for _ in range(3)]
        hist = decompose_features(imgs, 120, dist, seed=9)
        ps = gen_pattern_set("morlet-real", 16, 16, 120, dist=dist, master_seed=9)
        model = linear_model(ps)
        coeffs = model.forward(np.stack([img.vector() for img in imgs])) @ model.w.T
        weights = np.abs(coeffs).sum(axis=0)
        sums = np.zeros(hist.values.shape)
        counts = np.zeros(hist.values.shape, dtype=np.int64)
        for r, meta in enumerate(ps.row_meta):
            if meta.seed == 0 and meta.sigma == 0:   # the constant row
                continue
            # inside the widened edges: no row falls outside or is clipped
            assert hist.sigma_edges[0] < meta.sigma < hist.sigma_edges[-1]
            assert hist.np_edges[0] < meta.n_p < hist.np_edges[-1]
            i = int(np.searchsorted(hist.sigma_edges, meta.sigma, side="right")) - 1
            j = int(np.searchsorted(hist.np_edges, meta.n_p, side="right")) - 1
            sums[i, j] += weights[r]
            counts[i, j] += len(imgs)
        assert counts.sum() == (ps.k - 1) * len(imgs)
        assert hist.counts.dtype == np.int64 and np.array_equal(hist.counts, counts)
        values = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
        assert hist.values.tobytes() == values.tobytes()


def _hist(values):
    v = np.asarray(values, dtype=np.float64)
    return FeatureHistogram(sigma_edges=np.arange(v.shape[0] + 1.0),
                            np_edges=np.arange(v.shape[1] + 1.0), values=v,
                            counts=np.ones(v.shape, dtype=np.int64), corpus_size=1)


def _flood_fill_concentration(v, level):
    """Reference: grow each 4-connected above-threshold region from its
    first bin in row-major order; keep the first region of largest mass."""
    above = v >= level * v.max()
    seen = np.zeros(v.shape, dtype=bool)
    best, best_mass = [], 0.0
    for start in zip(*np.nonzero(above)):
        if seen[start]:
            continue
        seen[start] = True
        region, todo = [], [start]
        while todo:
            a, c = todo.pop()
            region.append((a, c))
            for nb in ((a - 1, c), (a + 1, c), (a, c - 1), (a, c + 1)):
                if 0 <= nb[0] < v.shape[0] and 0 <= nb[1] < v.shape[1] \
                        and above[nb] and not seen[nb]:
                    seen[nb] = True
                    todo.append(nb)
        mass = sum(v[b] for b in region)
        if mass > best_mass:
            best, best_mass = region, mass
    mask = np.zeros(v.shape, dtype=bool)
    for b in best:
        mask[b] = True
    return (best_mass / v.sum() if best else 0.0), mask


class TestHistogramConcentration:
    def test_equal_masses_first_region_in_row_major_order_wins(self):
        frac, mask = histogram_concentration(_hist([[0, 0, 2], [1, 0, 0], [1, 0, 0]]))
        assert frac == 0.5
        assert np.array_equal(mask, [[0, 0, 1], [0, 0, 0], [0, 0, 0]])
        frac, mask = histogram_concentration(_hist([[0, 0, 0], [1, 0, 0], [1, 0, 2]]))
        assert frac == 0.5
        assert np.array_equal(mask, [[0, 0, 0], [1, 0, 0], [1, 0, 0]])

    def test_diagonal_neighbours_are_separate_regions(self):
        frac, mask = histogram_concentration(_hist([[1, 0], [0, 3]]), level=0.1)
        assert frac == 0.75
        assert np.array_equal(mask, [[0, 0], [0, 1]])

    @pytest.mark.parametrize("turns", [0, 1, 2, 3])
    def test_label_flows_round_a_u_bend(self, turns):
        # in each rotation the smallest index has to travel a different way
        v = np.rot90(np.array([[1, 0, 1, 0, 3],
                               [1, 0, 1, 0, 0],
                               [1, 1, 1, 0, 0.]]), turns)
        frac, mask = histogram_concentration(_hist(v), level=0.1)
        assert frac == 0.7
        assert np.array_equal(mask, (v > 0) & (v < 3))

    def test_one_bin(self):
        frac, mask = histogram_concentration(_hist([[5.0]]))
        assert frac == 1.0 and mask.tolist() == [[True]]

    @pytest.mark.parametrize("transpose", [False, True])
    def test_one_row_or_column(self, transpose):
        v = np.array([[1.0, 0.0, 2.0, 2.0, 0.0, 1.0]])
        v = v.T if transpose else v
        frac, mask = histogram_concentration(_hist(v))
        assert frac == pytest.approx(4.0 / 6.0, rel=1e-15)
        assert np.array_equal(mask.ravel(), [0, 0, 1, 1, 0, 0])

    @pytest.mark.parametrize("level", [2.0, np.nan])
    def test_no_bin_above_the_threshold(self, level):
        frac, mask = histogram_concentration(_hist([[1.0, 2.0], [3.0, 4.0]]), level=level)
        assert frac == 0.0
        assert mask.shape == (2, 2) and mask.dtype == bool and not mask.any()

    def test_empty_histogram(self):
        frac, mask = histogram_concentration(_hist([[0.0, 0.0], [0.0, 0.0]]))
        assert frac == 0.0 and not mask.any()

    def test_matches_flood_fill_reference(self):
        rng = np.random.default_rng(3)
        for t in range(200):
            shape = rng.integers(1, 10, size=2)
            v = rng.random(shape) ** rng.integers(1, 6)
            v[rng.random(shape) < 0.3 * (t % 2)] = 0.0
            for level in (0.0, 0.1, 0.3, 0.6, 1.0):
                frac, mask = histogram_concentration(_hist(v), level)
                ref_frac, ref_mask = _flood_fill_concentration(v, level)
                assert np.array_equal(mask, ref_mask)
                # the region's mass is summed in another order: at most 81
                # terms, so well inside 1e-12 relative in float64
                assert frac == pytest.approx(ref_frac, rel=1e-12)


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

    @pytest.mark.parametrize("empty", ["corpus", "kinds", "crs", "methods"])
    def test_empty_list_is_refused(self, rng, empty):
        args = dict(corpus=[("a", Image(rng.random((8, 8))))], kinds=["walsh-hadamard"],
                    crs=[0.5], methods=["pinv"])
        args[empty] = []
        with pytest.raises(ValueError, match="corpus, kinds, crs, and methods must be non-empty"):
            run_sweep(**args)

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
                            "iterations,converged,monotone,rank,path,row_dtype")
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
                assert c[6:9] == ["", "", ""]
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

    def test_mean_psnr_reads_the_summary(self, rng):
        res = run_sweep(tiny_corpus(rng), ["walsh-hadamard", "morlet-real"], [0.5],
                        ["pinv", "tv"], seed=4, tv_opts=TvOptions(max_inner=5, mu_stages=2))
        # identical reconstructions: inf PSNRs, left out of a mean or all of it
        for image, psnr_db in (("a", 10.0), ("b", np.inf), ("c", 12.5)):
            res.rows.append(SweepRow("noiselet", 1.0, "pinv", image, psnr_db, 0.0))
        for image in ("a", "b"):
            res.rows.append(SweepRow("noiselet", 1.0, "tv", image, np.inf, 0.0))
        summary = res.summary()
        assert len(summary) == 6
        for kind, cr, method, mean, _, _ in summary:
            assert res.mean_psnr(kind, cr, method) == mean
        assert res.mean_psnr("noiselet", 1.0, "pinv") == 11.25
        assert res.mean_psnr("noiselet", 1.0, "tv") == np.inf
        with pytest.raises(KeyError, match="no sweep cell"):
            res.mean_psnr("noiselet", 0.5, "pinv")
        with pytest.raises(KeyError, match="no sweep cell"):
            res.mean_psnr("morlet-real", 0.5, "svd")

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

    @pytest.mark.parametrize("kind,above", [
        ("morlet-real", False), ("morlet-binary", False), ("walsh-hadamard", False),
        ("noiselet", False), ("morlet-real", True), ("morlet-binary", True)])
    def test_cells_csv_names_each_cells_model(self, rng, tmp_path, monkeypatch, kind, above):
        if above:
            monkeypatch.setattr(patterns, "_DENSE_LIMIT", 0)
        seed, cr = 5, 0.25
        res = run_sweep(tiny_corpus(rng, count=2), [kind], [cr], ["pinv", "tv"], seed=seed,
                        tv_opts=TvOptions(max_inner=2, mu_stages=1))
        res.to_csv(tmp_path / "cells.csv")
        cells = {tuple(line.split(",")[9:]) for line in
                 (tmp_path / "cells.csv").read_text().strip().splitlines()[1:]}

        ps = gen_pattern_set(kind, 16, 16, rows_for_cr(kind, cr, 256),
                             master_seed=_cell_seed(seed, kind, cr))
        # rank: the singular values of the effective rows above the model's
        # floor, one per row for the fast transforms (a noiselet row's two
        # real rows, once per conjugate pair)
        m = effective_matrix(ps)
        sv = np.linalg.svd(m, compute_uv=False)
        if ps.kind in ("walsh-hadamard", "noiselet"):
            rank, path = int(np.count_nonzero(sv > 1e-9)), "transform"
        else:
            rows = effective_matrix(ps, ps.row_dtype)
            rank = int(np.count_nonzero(sv > recon._rank_floor(rows.dtype) * sv[0]))
            path = recon.gram_orthogonalize(rows)[1]
            assert path in ("cholesky", "eigh")
        dtype = {"morlet-real": "float32", "morlet-binary": "int8"}[kind] if above else "float64"
        assert cells == {(str(rank), path, dtype)}
