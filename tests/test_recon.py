import numpy as np
import pytest

from conftest import block_phantom
from spisim import recon
from spisim.acquire import NoiseModel, measure, measure_differential
from spisim.analyze import psnr
from spisim.imgcore import FormatError, Image
from spisim.patterns import gen_pattern_set
from spisim.recon import (PinvMatrix, PinvStream, TvOptions, cached_pinv,
                          effective_matrix, effective_measurement, factorize,
                          linear_model, load_pinv, pinv_matrix, pinv_reconstruct,
                          save_pinv, tv_norm, tv_reconstruct)


def svd_invariants(f):
    assert np.abs(f.u.T @ f.u - np.eye(f.u.shape[1])).max() < 1e-10
    assert np.abs(f.vt @ f.vt.T - np.eye(f.vt.shape[0])).max() < 1e-10
    assert np.all(np.diff(f.d) <= 1e-12)
    assert np.all(f.d >= 0)


class TestFactorize:
    def test_orthonormal_rows_give_unit_singular_values(self):
        ps = gen_pattern_set("walsh-hadamard", 4, 4, 8, master_seed=1)
        f = factorize(ps)
        np.testing.assert_allclose(f.d, 1.0, atol=1e-12)
        pm = pinv_matrix(f)
        assert np.abs(pm.data - effective_matrix(ps).T).max() < 1e-10

    def test_single_row(self):
        f = factorize(np.array([[2.0, 0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(f.d, [2.0])
        pm = pinv_matrix(f)
        np.testing.assert_allclose(pm.data.ravel(), [0.5, 0, 0, 0], atol=1e-14)

    def test_multiply_back(self, rng):
        m = rng.standard_normal((8, 64))
        f = factorize(m)
        svd_invariants(f)
        assert np.abs((f.u * f.d) @ f.vt - m).max() < 1e-10

    def test_all_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            factorize(np.zeros((3, 9)))

    def test_binary_rows_become_bipolar(self):
        ps = gen_pattern_set("morlet-binary", 8, 8, 5, master_seed=3)
        m = effective_matrix(ps)
        assert set(np.unique(m)) == {-1.0, 1.0}
        np.testing.assert_array_equal(m[0], 1.0)  # constant row is a fixed point

    def test_moore_penrose_identities(self, rng):
        mats = [rng.standard_normal((k, n)) for k, n in [(5, 12), (16, 16), (24, 100)]]
        mats.append(effective_matrix(gen_pattern_set("morlet-binary", 8, 8, 10,
                                                     master_seed=5)))
        for m in mats:
            f = factorize(m)
            p = pinv_matrix(f).data
            rel = np.linalg.norm(m)
            assert np.linalg.norm(m @ p @ m - m) / rel < 1e-8
            assert np.linalg.norm(p @ m @ p - p) / np.linalg.norm(p) < 1e-8
            assert np.abs((m @ p) - (m @ p).T).max() < 1e-8
            assert np.abs((p @ m) - (p @ m).T).max() < 1e-8

    def test_rank_truncation(self):
        m = np.vstack([np.eye(3), np.eye(3) * 1e-14])[:, :3] @ np.eye(3)
        m = np.vstack([[1.0, 0, 0], [0, 1.0, 0], [1.0, 0, 0]])  # rank 2
        f = factorize(m)
        assert f.effective_rank == 2


class TestPinvReconstruct:
    def test_complete_wh_measurement_is_exact(self, rng):
        img = Image(rng.random((8, 8)))
        ps = gen_pattern_set("walsh-hadamard", 8, 8, 64, master_seed=2)
        m = measure(img, ps)
        rec = pinv_reconstruct(factorize(ps), m.values)
        assert psnr(rec, img) > 100.0

    def test_zero_measurement_gives_zero_image(self):
        ps = gen_pattern_set("morlet-real", 8, 8, 6, master_seed=2)
        rec = pinv_reconstruct(factorize(ps), np.zeros(6))
        assert not rec.data.any()

    def test_matches_dense_brute_force_oracle(self, rng):
        img = Image(rng.random((16, 16)))
        ps = gen_pattern_set("morlet-real", 16, 16, 64, master_seed=8)
        y = measure(img, ps).values
        rec = pinv_reconstruct(factorize(ps), y)
        oracle = np.linalg.pinv(ps.dense()) @ y  # independent dense route
        assert np.abs(rec.data.ravel() - oracle).max() < 1e-10

    def test_pinv_matrix_and_factors_agree(self, rng):
        ps = gen_pattern_set("morlet-real", 8, 8, 10, master_seed=4)
        f = factorize(ps)
        y = rng.standard_normal(10)
        a = pinv_reconstruct(f, y)
        b = pinv_reconstruct(pinv_matrix(f), y)
        assert np.abs(a.data - b.data).max() < 1e-12

    def test_dimension_mismatch(self):
        ps = gen_pattern_set("morlet-real", 8, 8, 6, master_seed=2)
        with pytest.raises(ValueError):
            pinv_reconstruct(factorize(ps), np.zeros(7))


class TestPinvStream:
    @pytest.fixture
    def setup(self, rng):
        img = Image(rng.random((16, 16)))
        ps = gen_pattern_set("morlet-binary", 16, 16, 15, master_seed=6)
        y = effective_measurement(ps, measure_differential(img, ps))
        pm = pinv_matrix(factorize(ps))
        return pm, y

    def test_order_does_not_matter(self, setup, rng):
        pm, y = setup
        asc = PinvStream(pm)
        for j in range(pm.k):
            asc.update(j, y[j])
        shuffled = PinvStream(pm)
        for j in rng.permutation(pm.k):
            shuffled.update(int(j), y[j])
        assert np.abs(asc.image().data - shuffled.image().data).max() < 1e-12

    def test_full_stream_equals_batch(self, setup):
        pm, y = setup
        s = PinvStream(pm)
        for j in range(pm.k):
            s.update(j, y[j])
        assert s.complete
        batch = pinv_reconstruct(pm, y)
        assert np.abs(s.image().data - batch.data).max() < 1e-12

    def test_single_update_is_a_column(self, setup):
        pm, _ = setup
        s = PinvStream(pm).update(3, 1.0)
        np.testing.assert_allclose(s.image().vector(), pm.data[:, 3], atol=0)

    def test_duplicate_rejected(self, setup):
        pm, y = setup
        s = PinvStream(pm).update(0, y[0])
        with pytest.raises(ValueError, match="duplicate"):
            s.update(0, y[0])


def _tv_subgradient(z):
    dx = np.zeros_like(z)
    dy = np.zeros_like(z)
    dx[:, :-1] = z[:, 1:] - z[:, :-1]
    dy[:-1, :] = z[1:, :] - z[:-1, :]
    mag = np.sqrt(dx * dx + dy * dy)
    den = np.where(mag > 0, mag, 1.0)
    wx, wy = dx / den, dy / den
    g = np.zeros_like(z)
    g[:, :-1] -= wx[:, :-1]
    g[:, 1:] += wx[:, :-1]
    g[:-1, :] -= wy[:-1, :]
    g[1:, :] += wy[:-1, :]
    return mag.sum(), g


class TestTvReconstruct:
    def test_constant_image_exact_with_constant_row(self):
        img = Image(np.full((16, 16), 0.4))
        ps = gen_pattern_set("morlet-binary", 16, 16, 10, master_seed=3)
        y = effective_measurement(ps, measure_differential(img, ps))
        res = tv_reconstruct(factorize(ps), y)
        assert np.abs(res.image.data - 0.4).max() < 1e-6

    def test_complete_system_matches_pinv(self, rng):
        img = Image(rng.random((8, 8)))
        ps = gen_pattern_set("walsh-hadamard", 8, 8, 64, master_seed=1)
        m = measure(img, ps)
        f = factorize(ps)
        res = tv_reconstruct(f, m.values)
        ref = pinv_reconstruct(f, m.values)
        assert np.abs(res.image.data - ref.data).max() < 1e-4

    def test_phantom_recovery_with_subgradient_certificate(self):
        # the >40 dB claim is checked on a solution certified optimal by an
        # independent projected-subgradient search (feasible truth bounds the
        # optimum above; seeded descent bounds it below)
        img = block_phantom(64)
        ps = gen_pattern_set("morlet-binary", 64, 64, int(0.15 * 4096), master_seed=7)
        y = effective_measurement(ps, measure_differential(img, ps))
        f = factorize(ps)
        res = tv_reconstruct(f, y)
        assert psnr(res.image, img) > 40.0
        assert res.converged and res.monotone

        u_r, d_r, vt_r = f.truncated()
        b = (u_r.T @ y) / d_r
        xh = res.image.data
        assert np.abs(vt_r @ xh.ravel() - b).max() < 1e-8  # feasible
        tv_hat = tv_norm(xh)
        assert tv_hat <= tv_norm(img.data) * (1 + 2e-3)    # truth is feasible

        v = vt_r.T
        z = xh.copy()
        best = tv_hat
        for t in range(2000):
            tv, g = _tv_subgradient(z)
            best = min(best, tv)
            step = 0.01 / np.sqrt(t + 1.0)
            z = z - step * g / max(np.linalg.norm(g), 1e-12)
            flat = z.ravel()
            z = (flat + v @ (b - flat @ v)).reshape(z.shape)
        assert best >= tv_hat * (1 - 5e-3)                 # no better feasible point

    def test_stage_objectives_monotone(self, rng):
        img = Image(rng.random((16, 16)))
        ps = gen_pattern_set("morlet-real", 16, 16, 40, master_seed=5)
        y = measure(img, ps).values
        res = tv_reconstruct(factorize(ps), y)
        seq = res.stage_tv
        assert all(b <= a * (1 + 1e-6) + 1e-12 for a, b in zip(seq, seq[1:]))
        assert res.monotone

    def test_budget_exhaustion_flags_nonconvergence(self, rng):
        img = Image(rng.random((16, 16)))
        ps = gen_pattern_set("morlet-real", 16, 16, 40, master_seed=5)
        y = measure(img, ps).values
        res = tv_reconstruct(factorize(ps), y,
                             TvOptions(max_inner=3, tol=1e-14, mu_stages=2))
        assert not res.converged

    def test_epsilon_relaxes_the_constraint(self, rng):
        img = Image(rng.random((16, 16)))
        ps = gen_pattern_set("morlet-real", 16, 16, 60, master_seed=5)
        y = measure(img, ps).values
        f = factorize(ps)
        tight = tv_reconstruct(f, y, TvOptions(epsilon=0.0))
        loose = tv_reconstruct(f, y, TvOptions(epsilon=0.5))
        assert tv_norm(loose.image.data) <= tv_norm(tight.image.data) + 1e-9


class TestNoiseRobustness:
    def test_pinv_psnr_degrades_monotonically(self, rng):
        img = Image(rng.random((16, 16)))
        ps = gen_pattern_set("morlet-real", 16, 16, 80, master_seed=12)
        f = factorize(ps)
        means = []
        for sigma in (0.0, 1e-3, 1e-2):
            vals = []
            for seed in range(10):
                nm = NoiseModel(additive_sigma=sigma, seed=seed)
                y = measure(img, ps, nm).values
                vals.append(psnr(pinv_reconstruct(f, y), img))
            means.append(np.mean([v for v in vals if np.isfinite(v)]))
        assert means[0] > means[1] > means[2]


class TestEffectiveMeasurement:
    def test_plain_binary_equals_differential(self, rng):
        img = Image(rng.random((16, 16)))
        ps = gen_pattern_set("morlet-binary", 16, 16, 12, master_seed=2)
        a = effective_measurement(ps, measure_differential(img, ps))
        b = effective_measurement(ps, measure(img, ps))
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_noiselet_stacks_re_im(self, rng):
        img = Image(rng.random((8, 8)))
        ps = gen_pattern_set("noiselet", 8, 8, 10, master_seed=2)
        m = measure(img, ps)
        y = effective_measurement(ps, m)
        assert y.shape == (20,)
        np.testing.assert_array_equal(y[:10], m.values.real)

    def test_noiselet_dense_factorize_consistent(self, rng):
        # stacked-real SVD path equals the fast operator path
        img = Image(rng.random((8, 8)))
        ps = gen_pattern_set("noiselet", 8, 8, 12, master_seed=9)
        m = measure(img, ps)
        f = factorize(ps)
        rec_svd = pinv_reconstruct(f, effective_measurement(ps, m))
        rec_fast = recon.pinv_reconstruct_basis(ps, m.values)
        # the SVD estimate is least-squares over the stacked system; the fast
        # one is the adjoint of the deduplicated, pair-averaged system, which
        # is the same least-squares estimate
        res_a = tv_reconstruct(f, effective_measurement(ps, m), TvOptions(max_inner=300))
        res_b = tv_reconstruct(ps, m.values, TvOptions(max_inner=300))
        assert np.abs(res_a.image.data - res_b.image.data).max() < 1e-3
        assert np.abs(rec_fast.data - rec_svd.data).max() < 1e-10


class TestSpivCache:
    def test_roundtrip(self, tmp_path, rng):
        ps = gen_pattern_set("morlet-real", 8, 8, 10, master_seed=4)
        pm = pinv_matrix(factorize(ps))
        save_pinv(pm, tmp_path / "p.spiv")
        back = load_pinv(tmp_path / "p.spiv", width=8, height=8)
        assert np.array_equal(back.data, pm.data)
        assert back.source_hash == pm.source_hash
        assert back.rank_tol == pm.rank_tol

    def test_cached_pinv_hits_disk(self, tmp_path):
        ps = gen_pattern_set("morlet-real", 8, 8, 10, master_seed=4)
        a = cached_pinv(ps, tmp_path)
        files = list(tmp_path.glob("*.spiv"))
        assert len(files) == 1
        b = cached_pinv(ps, tmp_path)
        assert np.array_equal(a.data, b.data)
        assert files[0].name == ps.content_hash().hex() + ".spiv"

    def test_truncated_cache_file_is_recomputed(self, tmp_path):
        ps = gen_pattern_set("morlet-binary", 8, 8, 10, master_seed=4)
        fresh = cached_pinv(ps, tmp_path / "fresh")
        cached_pinv(ps, tmp_path)
        path, = tmp_path.glob("*.spiv")
        full = path.stat().st_size
        path.write_bytes(path.read_bytes()[: full // 2])
        again = cached_pinv(ps, tmp_path)
        assert np.array_equal(again.data, fresh.data)
        assert path.stat().st_size == full
        assert np.array_equal(load_pinv(path).data, fresh.data)

    def test_short_file_is_a_format_error(self, tmp_path):
        (tmp_path / "p.spiv").write_bytes(b"SPIV" + bytes(16))
        with pytest.raises(FormatError, match="truncated"):
            load_pinv(tmp_path / "p.spiv")

    def test_cached_pinv_matches_svd_reference(self, tmp_path):
        ps = gen_pattern_set("morlet-binary", 16, 16, 20, master_seed=4)
        pm = cached_pinv(ps, tmp_path)
        assert np.abs(pm.data - pinv_matrix(factorize(ps)).data).max() < 1e-10

    @pytest.mark.parametrize("kind", ["walsh-hadamard", "noiselet"])
    def test_fast_kinds_write_no_file(self, tmp_path, kind):
        ps = gen_pattern_set(kind, 8, 8, 10, master_seed=4)
        model = cached_pinv(ps, tmp_path)
        assert not isinstance(model, PinvMatrix)
        assert not list(tmp_path.iterdir())


KINDS_AT_8 = [("morlet-real", 20), ("morlet-binary", 20), ("walsh-hadamard", 20),
              ("noiselet", 12)]


def _measure_eff(img, ps):
    if ps.kind == "morlet-binary":
        return effective_measurement(ps, measure_differential(img, ps))
    return effective_measurement(ps, measure(img, ps))


class TestLinearModel:
    @pytest.mark.parametrize("kind,k", KINDS_AT_8)
    def test_semiorthogonal_and_pinv_matches_svd(self, rng, kind, k):
        ps = gen_pattern_set(kind, 8, 8, k, master_seed=3)
        model = linear_model(ps)
        a = model.forward(np.eye(64)).T            # A as an r x n matrix
        assert np.abs(a @ a.T - np.eye(a.shape[0])).max() < 1e-10
        np.testing.assert_allclose(model.adjoint(np.eye(a.shape[0])), a, atol=1e-12)
        y = _measure_eff(Image(rng.random((8, 8))), ps)
        rec = pinv_reconstruct(model, y)
        ref = pinv_reconstruct(factorize(ps), y)
        assert np.abs(rec.data - ref.data).max() < 1e-10

    @pytest.mark.parametrize("kind,k", KINDS_AT_8)
    def test_batch_equals_single_solves(self, rng, kind, k):
        ps = gen_pattern_set(kind, 8, 8, k, master_seed=3)
        model = linear_model(ps)
        ys = np.stack([_measure_eff(Image(rng.random((8, 8))), ps) for _ in range(3)])
        opts = TvOptions(max_inner=20, mu_stages=2)
        batch = tv_reconstruct(model, ys, opts)
        pinv = pinv_reconstruct(model, ys)
        assert batch.images.shape == pinv.shape == (3, 8, 8)
        for i, y in enumerate(ys):
            assert np.abs(tv_reconstruct(model, y, opts).image.data
                          - batch.images[i]).max() < 1e-10
            assert np.abs(pinv_reconstruct(model, y).data - pinv[i]).max() < 1e-12

    def test_float32_rows_above_dense_limit(self, monkeypatch):
        ps = gen_pattern_set("morlet-binary", 8, 8, 10, master_seed=3)
        assert linear_model(ps).m.dtype == np.float64
        monkeypatch.setattr(recon, "_DENSE_LIMIT", 10 * 64 - 1)
        assert linear_model(ps).m.dtype == np.float32

    @pytest.mark.parametrize("kind,k", KINDS_AT_8)
    def test_wrong_measurement_length(self, kind, k):
        model = linear_model(gen_pattern_set(kind, 8, 8, k, master_seed=3))
        with pytest.raises(ValueError, match="measurement length"):
            pinv_reconstruct(model, np.zeros(3))

    def test_rejects_non_matrix_source(self):
        with pytest.raises(TypeError):
            linear_model(np.zeros(5))
