import dataclasses
import hashlib
import inspect
import os
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import block_phantom, dense_transform_2d
from spisim import patterns, recon
from spisim.acquire import NoiseModel, measure, measure_differential
from spisim.analyze import psnr
from spisim.imgcore import FormatError, Image
from spisim.patterns import bipolar_rows, fast_noiselet, gen_pattern_set, rows_for_cr, wht2
from spisim.recon import (PinvMatrix, PinvStream, SpivRecord, TvOptions, cached_pinv,
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

    def test_1d_array_rejected(self):
        with pytest.raises(ValueError, match="matrix must be 2D"):
            factorize(np.ones(9))

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

    def test_rank_cut_off_is_the_fixed_rank_tol(self):
        # singular values either side of RANK_TOL = 1e-10 times the largest
        f = factorize(np.diag([1.0, 2e-10, 5e-11]))
        assert recon.RANK_TOL == 1e-10 and f.effective_rank == 2

    @pytest.mark.parametrize("fn", [factorize, recon.gram_orthogonalize, linear_model,
                                    cached_pinv, recon.SvdFactors],
                             ids=lambda fn: fn.__name__)
    def test_rank_tol_is_not_a_parameter(self, fn):
        assert "rank_tol" not in inspect.signature(fn).parameters


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

    @pytest.mark.parametrize("j", [-1, 15])
    def test_out_of_range_rejected(self, setup, j):
        pm, _ = setup
        assert pm.k == 15
        with pytest.raises(IndexError, match=f"row index {j} out of range"):
            PinvStream(pm).update(j, 1.0)


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

    @pytest.mark.parametrize("kind", ["walsh-hadamard", "morlet-real"])
    def test_batch_solve_equals_each_image_alone(self, rng, kind):
        # the flat image stops its stages early; the others run on in the
        # batch, which must not move the flat image's result
        images = [block_phantom(32), Image(np.full((32, 32), 0.3)),
                  Image(np.kron(rng.random((4, 4)), np.ones((8, 8))))]
        ps = gen_pattern_set(kind, 32, 32, 200, master_seed=4)
        y = np.stack([effective_measurement(ps, measure(img, ps)) for img in images])
        model = linear_model(ps)
        opts = TvOptions(max_inner=400, mu_stages=3, tol=1e-4)
        batch = tv_reconstruct(model, y, opts)
        solo = [tv_reconstruct(model, yi, opts) for yi in y]
        assert len({res.iterations for res in solo}) > 1
        for got, res in zip(batch.images, solo):
            assert np.abs(got - res.images[0]).max() <= 1e-12


class TestTvOptionsValidation:
    @pytest.mark.parametrize("name,value", [
        ("epsilon", -1.0), ("epsilon", float("nan")), ("tol", -1e-6), ("max_inner", -1),
        ("mu_stages", 0), ("epsilon", None), ("tol", True), ("max_inner", 60.0),
    ])
    def test_values_that_break_the_solver_raise(self, name, value):
        with pytest.raises(ValueError, match=f"TV {name} must be"):
            TvOptions(**{name: value})

    # the mu schedule and the stopping window are recon constants, not options
    @pytest.mark.parametrize("name,value", [("mu_start_frac", recon.MU_START_FRAC),
                                            ("mu_final", recon.MU_FINAL),
                                            ("window", recon.STOP_WINDOW)])
    def test_fixed_settings_are_not_options(self, name, value):
        with pytest.raises(TypeError, match=name):
            TvOptions(**{name: value})

    def test_boundary_values_are_accepted(self):
        TvOptions(mu_stages=1, max_inner=0, tol=0, epsilon=0)
        TvOptions(mu_stages=np.int64(2), epsilon=np.float32(0.1))

    def test_zero_iterations_return_the_pinv_start(self, rng):
        ps = gen_pattern_set("walsh-hadamard", 16, 16, 60, master_seed=2)
        y = measure(Image(rng.random((16, 16))), ps).values
        res = tv_reconstruct(ps, y, TvOptions(max_inner=0, mu_stages=2))
        assert res.iterations == 0
        assert np.abs(res.image.data - pinv_reconstruct(ps, y).data).max() < 1e-12


def _reference_project(op, v, av, b, eps):
    r = b - av
    if eps > 0:
        nrm = np.linalg.norm(r, axis=1, keepdims=True)
        r = np.maximum(0.0, 1.0 - eps / np.maximum(nrm, 1e-300)) * r
    return v + op.adjoint(r), av + r


def _reference_stage(op, b, x0, mu, eps, opts):
    """The NESTA stage with two adjoints per iteration (one per projection)."""
    batch, h, w = x0.shape
    n = h * w
    L = 8.0 / mu
    x = x0.copy()
    x0f = x0.reshape(batch, n)
    a_x0 = op.forward(x0f)
    a_x = a_x0.copy()
    cum = np.zeros((batch, n))
    cum_a = np.zeros_like(a_x0)
    hist = np.full((recon.STOP_WINDOW, batch), np.inf)
    done = np.zeros(batch, dtype=bool)
    y = x0.copy()
    out = np.empty_like(x0)
    iters = 0
    for it in range(opts.max_inner):
        iters = it + 1
        fval, g = recon._tv_grad(x, mu)
        gf = g.reshape(batch, n)
        a_g = op.forward(gf)
        invl = (1.0 / L)[:, None]
        yf, a_y = _reference_project(op, x.reshape(batch, n) - gf * invl,
                                     a_x - a_g * invl, b, eps)
        alpha = 0.5 * (it + 1)
        cum += alpha * gf
        cum_a += alpha * a_g
        zf, a_z = _reference_project(op, x0f - cum * invl, a_x0 - cum_a * invl, b, eps)
        tau = 2.0 / (it + 3)
        x = (tau * zf + (1.0 - tau) * yf).reshape(batch, h, w)
        a_x = tau * a_z + (1.0 - tau) * a_y
        y = yf.reshape(batch, h, w)
        ref = hist.mean(axis=0)
        with np.errstate(invalid="ignore"):
            rel = np.abs(fval - ref) / np.maximum(np.abs(ref), 1e-300)
        stop = ~done & np.isfinite(ref) & (rel <= opts.tol)
        out[stop] = y[stop]             # each image keeps the iterate it stopped at
        done |= stop
        hist[it % recon.STOP_WINDOW] = fval
        if done.all():
            break
    out[~done] = y[~done]
    return out, bool(done.all()), iters


def _stage_model(name):
    if name == "gram-float64":
        return linear_model(gen_pattern_set("morlet-real", 16, 16, 60, master_seed=2))
    if name == "gram-float32":
        rows = effective_matrix(gen_pattern_set("morlet-binary", 16, 16, 60, master_seed=2),
                                np.float32)
        return recon._GramVtOp(rows, recon.gram_orthogonalize(rows)[0], 16, 16)
    if name == "wht":
        return linear_model(gen_pattern_set("walsh-hadamard", 16, 16, 60, master_seed=2))
    if name == "dense":
        return linear_model(factorize(gen_pattern_set("morlet-real", 16, 16, 60, master_seed=2)))
    return linear_model(gen_pattern_set("noiselet", 16, 16, 40, master_seed=2))


def _stage_inputs(op, batch, seed):
    rng = np.random.default_rng(seed)
    b = op.forward(rng.random((batch, 256)))
    # start off the constraint set so that every projection moves the iterate
    x0 = op.adjoint(b).reshape(batch, 16, 16) + 0.05 * rng.standard_normal((batch, 16, 16))
    return b, x0, np.full(batch, 0.02)


class TestNestaStageOracle:
    # the float32 Gram model rounds each adjoint to float32 separately, so
    # the two bookkeepings differ at that precision (2.8e-7 at most, measured)
    FLOAT32_BOUND = 2e-6

    @pytest.mark.parametrize("name", ["gram-float64", "gram-float32", "wht", "noiselet"])
    # 12 is the paper's cell batch: with eps > 0 every image has its own shrink factors
    @pytest.mark.parametrize("batch", [1, 3, 12])
    @pytest.mark.parametrize("eps_frac", [0.0, 0.05])
    # the early-stop case keeps a 3-value stopping window: at STOP_WINDOW = 10
    # it runs 82 iterations and the float32 batch-3 iterate sits 1.1e-6 eps
    # off the ball (the two-adjoint reference, 2.6e-6), past the 1e-6 bound
    @pytest.mark.parametrize("opts,window", [(TvOptions(max_inner=40, tol=1e-12), None),
                                             (TvOptions(max_inner=400, tol=1e-3), 3)],
                             ids=["budget", "early-stop"])
    def test_matches_two_adjoint_stage(self, monkeypatch, name, batch, eps_frac, opts,
                                       window):
        if window:
            monkeypatch.setattr(recon, "STOP_WINDOW", window)
        op = _stage_model(name)
        b, x0, mu = _stage_inputs(op, batch, seed=batch)
        eps = eps_frac * float(np.linalg.norm(b[0]))
        want, want_done, want_iters = _reference_stage(op, b, x0, mu, eps, opts)
        got, done, iters = recon._nesta_stage(op, b, x0, mu, eps, opts)
        assert (done, iters) == (want_done, want_iters)
        # the budget case runs out of iterations, the early-stop case stops on tol
        assert done == (iters < opts.max_inner) == (opts.max_inner == 400)
        rel = np.abs(got - want).max() / np.abs(want).max()
        assert rel <= (self.FLOAT32_BOUND if name == "gram-float32" else 1e-9)
        if eps > 0:
            # the constraint is active: the iterate sits on the eps-ball. Here
            # |b| = 20 eps, so float32 rounding alone moves the residual by
            # ~1e-6 eps; the float32 model's batch-12 inputs read 1.7e-6 with
            # either bookkeeping
            res = np.linalg.norm(b - op.forward(got.reshape(batch, -1)), axis=1)
            tol = 2e-6 if (name == "gram-float32" and batch == 12) else 1e-6
            assert np.all(np.abs(res - eps) <= tol * eps)

    @pytest.mark.parametrize("name", ["gram-float64", "gram-float32", "wht", "noiselet"])
    @pytest.mark.parametrize("batch", [1, 3, 12])
    # 100-column slices (86, 86 and a short 84), or 3-column slices, whose
    # 1-column remainder joins the last slice
    @pytest.mark.parametrize("update_bytes,widths", [(48 * 100, [86, 86, 84]),
                                                     (48 * 3, [3] * 84 + [4])],
                             ids=["100-columns", "3-columns"])
    def test_update_blocks_leave_every_bit(self, monkeypatch, name, batch, update_bytes,
                                           widths):
        # each entry of the update is the same 6-term gemm product in any block
        op = _stage_model(name)
        b, x0, mu = _stage_inputs(op, batch, seed=batch)
        eps = 0.05 * float(np.linalg.norm(b[0]))
        opts = TvOptions(max_inner=400, tol=1e-3)
        assert recon._update_blocks(256) == [slice(0, 256)]
        want, want_done, want_iters = recon._nesta_stage(op, b, x0, mu, eps, opts)
        monkeypatch.setattr(recon, "_UPDATE_BYTES", update_bytes)
        assert [c.stop - c.start for c in recon._update_blocks(256)] == widths
        got, done, iters = recon._nesta_stage(op, b, x0, mu, eps, opts)
        assert got.tobytes() == want.tobytes() and (done, iters) == (want_done, want_iters)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 70000), update_bytes=st.integers(0, 1 << 20))
    def test_update_blocks_tile_the_image(self, n, update_bytes):
        # in order with no gaps; near-equal, each within the budget's columns
        # (at least 2) but the last, which takes at most one column of tail;
        # none 1 column wide unless n is (gemv rounds unlike gemm)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recon, "_UPDATE_BYTES", update_bytes)
            blocks = recon._update_blocks(n)
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        widths = [c.stop - c.start for c in blocks]
        budget = max(2, update_bytes // 48)
        assert all(w == widths[0] <= budget for w in widths[:-1])
        assert widths[-1] <= widths[0] + 1 and widths[-1] <= budget + 1
        assert min(widths) >= min(n, 2)

    @pytest.mark.parametrize("name", ["gram-float64", "gram-float32", "wht", "noiselet"])
    def test_adjoint_is_contiguous_float64(self, name):
        # the stage keeps an adjoint's result and updates it in place
        op = _stage_model(name)
        b, _, _ = _stage_inputs(op, 3, seed=0)
        e = op.adjoint(b)
        assert e.dtype == np.float64 and e.shape == (3, 256) and e.flags.c_contiguous

    @pytest.mark.parametrize("name", ["dense", "gram-float64", "gram-float32", "wht", "noiselet"])
    def test_adjoint_writes_into_out(self, name):
        # the stage hands over a stack row with stale contents
        op = _stage_model(name)
        b, _, _ = _stage_inputs(op, 3, seed=0)
        stack = np.full((2, 3, 256), np.nan)
        buf = stack[1]
        assert op.adjoint(b, out=buf) is buf
        assert buf.tobytes() == op.adjoint(b).tobytes()
        assert np.isnan(stack[0]).all()

    @pytest.mark.parametrize("name", ["wht", "noiselet"])
    def test_adjoint_rejects_strided_out(self, name):
        # the transform writes through a reshape, which of a strided out is a copy
        op = _stage_model(name)
        b, _, _ = _stage_inputs(op, 3, seed=0)
        with pytest.raises(ValueError):
            op.adjoint(b, out=np.empty((256, 3)).T)

    @pytest.mark.parametrize("name", ["gram-float64", "wht", "noiselet"])
    @pytest.mark.parametrize("eps_frac", [0.0, 0.05])
    def test_one_forward_and_one_adjoint_per_iteration(self, monkeypatch, name, eps_frac):
        op = _stage_model(name)
        calls = {"forward": 0, "adjoint": 0}
        for direction in calls:
            def counted(z, _fn=getattr(op, direction), _key=direction, **kw):
                calls[_key] += 1
                return _fn(z, **kw)
            monkeypatch.setattr(op, direction, counted)
        b, x0, mu = _stage_inputs(op, 3, seed=0)
        eps = eps_frac * float(np.linalg.norm(b[0]))
        for opts in (TvOptions(max_inner=25, tol=1e-12), TvOptions(tol=1e-3)):
            calls.update(forward=0, adjoint=0)
            _, _, iters = recon._nesta_stage(op, b, x0, mu, eps, opts)
            assert calls == {"forward": iters + 1, "adjoint": iters + 1}
        calls.update(forward=0, adjoint=0)
        # through tv_reconstruct, whose rhs calls neither operator: the
        # Walsh-Hadamard rhs is the identity, so y = b there, and any
        # measurement of the model's length (2k samples for noiselets) serves
        # the others
        length = 2 * op.k if name == "noiselet" else op.k
        y = b if name == "wht" else np.random.default_rng(1).random((3, length))
        iters = recon.tv_reconstruct(op, y, TvOptions(max_inner=7, mu_stages=3)).iterations
        assert iters == 21
        # one adjoint for the pinv start, then iterations + 1 per stage
        assert calls == {"forward": 21 + 3, "adjoint": 21 + 3 + 1}

    @pytest.mark.parametrize("name", ["wht", "noiselet", "gram-float64"])
    def test_one_tv_grad_call_per_iteration(self, monkeypatch, name):
        # the per-image work stays inside one call of the module-level name,
        # which the benchmark wraps as one recon.tv_grad span
        op = _stage_model(name)
        calls = []
        tv_grad = recon._tv_grad
        monkeypatch.setattr(recon, "_tv_grad",
                            lambda x, mu, work=None: calls.append(x.shape) or tv_grad(x, mu, work))
        b, x0, mu = _stage_inputs(op, 3, seed=0)
        for max_inner in (1, 5):
            calls.clear()
            _, _, iters = recon._nesta_stage(op, b, x0, mu, 0.0,
                                             TvOptions(max_inner=max_inner, tol=1e-12))
            assert iters == max_inner and calls == [(3, 16, 16)] * iters

    def test_fixed_mu_schedule_and_stopping_window(self, monkeypatch):
        op = _stage_model("wht")
        b, _, _ = _stage_inputs(op, 3, seed=0)
        mus, stage = [], recon._nesta_stage
        monkeypatch.setattr(recon, "_nesta_stage", lambda op, b, x0, mu, eps, opts:
                            mus.append(mu) or stage(op, b, x0, mu, eps, opts))
        # the Walsh-Hadamard rhs is the identity, so the solve runs on b itself
        iters = recon.tv_reconstruct(op, b, TvOptions(mu_stages=3, tol=float("inf"))).iterations
        x = op.adjoint(b)
        mu0 = 0.1 * (x.max(axis=1) - x.min(axis=1))
        np.testing.assert_allclose(mus, [mu0, np.sqrt(mu0 * 1e-4), np.full(3, 1e-4)],
                                   rtol=1e-12)
        # with any change of the objective accepted, a stage stops once its
        # window of 10 values is full
        assert iters == 3 * 11

    # peak at 64^2, B = 3, in (B, n) float64 arrays: the state stack (6),
    # the stage's output (1), the update's temporary (5 rows of a block of
    # two images, 10/3), _tv_grad's scratch (3 rows of one image, 1) and the
    # transforms' temporaries, which are one image's (a third of an array
    # each): two inside a Walsh-Hadamard transform; the noiselet operator
    # also keeps its first transform while the second runs. Measured at
    # 12.28 and 12.81; the bounds add 0.08 and 0.06 of an array (8 and 6 KB)
    @pytest.mark.parametrize("kind,arrays", [("walsh-hadamard", 12.36), ("noiselet", 12.87)])
    def test_memory_does_not_grow_with_iterations(self, kind, arrays):
        op = linear_model(gen_pattern_set(kind, 64, 64, 164, master_seed=2))
        rng = np.random.default_rng(0)
        b = op.forward(rng.random((3, 4096)))
        x0 = op.adjoint(b).reshape(3, 64, 64) + 0.05 * rng.standard_normal((3, 64, 64))
        eps = 0.05 * float(np.linalg.norm(b[0]))
        peaks = []
        # the first run fills numpy's caches; its cache of freed small
        # buffers takes tens of operator calls to fill
        for iters in (40, 4, 40):
            tracemalloc.start()
            try:
                recon._nesta_stage(op, b, x0, np.full(3, 0.02), eps,
                                   TvOptions(max_inner=iters, tol=1e-12))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # Python objects move the peak by tens of bytes between runs; one
        # leaked (B, r) array per iteration would add 36 x 3.9 KB
        assert peaks[2] <= peaks[1] + 1024 and peaks[1] < arrays * x0.nbytes


def _reference_tv_grad(x, mu):
    dx = np.zeros_like(x)
    dy = np.zeros_like(x)
    dx[:, :, :-1] = x[:, :, 1:] - x[:, :, :-1]
    dy[:, :-1, :] = x[:, 1:, :] - x[:, :-1, :]
    mag = np.sqrt(dx * dx + dy * dy)
    mu3 = mu[:, None, None]
    val = np.where(mag <= mu3, mag * mag / (2.0 * mu3), mag - mu3 / 2.0).sum(axis=(1, 2))
    den = np.maximum(mag, mu3)
    wx = dx / den
    wy = dy / den
    g = np.zeros_like(x)
    g[:, :, :-1] -= wx[:, :, :-1]
    g[:, :, 1:] += wx[:, :, :-1]
    g[:, :-1, :] -= wy[:, :-1, :]
    g[:, 1:, :] += wy[:, :-1, :]
    return val, g


def _batched_tv_grad(x, mu):
    """_tv_grad written over the whole batch: flat views across all images."""
    dx, dy, mag, g = (np.empty(x.shape) for _ in range(4))
    xf, dxf, gf = x.reshape(-1), dx.reshape(-1), g.reshape(-1)
    np.subtract(xf[1:], xf[:-1], out=dxf[:-1])
    dx[:, :, -1] = 0.0
    dy[:, -1, :] = 0.0
    np.subtract(x[:, 1:, :], x[:, :-1, :], out=dy[:, :-1, :])
    mu3 = mu[:, None, None]
    np.multiply(dx, dx, out=mag)
    mag += np.multiply(dy, dy, out=g)
    np.sqrt(mag, out=mag)
    m = np.minimum(mag, mu3, out=g)
    val = (2.0 * np.einsum("bij,bij->b", m, mag) - np.einsum("bij,bij->b", m, m)) / (2.0 * mu)
    np.maximum(mag, mu3, out=mag)
    dx /= mag
    dy /= mag
    np.subtract(0.0, dxf, out=gf)
    gf[1:] += dxf[:-1]
    g[:, :-1, :] -= dy[:, :-1, :]
    g[:, 1:, :] += dy[:, :-1, :]
    return val, g


class TestTvGrad:
    @settings(max_examples=150, deadline=None)
    @given(h=st.integers(1, 33), w=st.integers(1, 17), batch=st.integers(1, 3),
           log_mu=st.lists(st.floats(-4.0, 2.0), min_size=3, max_size=3),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_where_formula(self, h, w, batch, log_mu, seed):
        x = np.random.default_rng(seed).random((batch, h, w))
        # differences of a uniform image lie in (-1, 1): mu spans both regimes
        mu = 10.0 ** np.array(log_mu[:batch])
        want_val, want_g = _reference_tv_grad(x, mu)
        val, g = recon._tv_grad(x, mu)
        assert g.tobytes() == want_g.tobytes()
        np.testing.assert_allclose(val, want_val, rtol=1e-12, atol=0)
        # workspaces with stale contents: shaped like x, or one image of
        # scratch, as the stage hands it over
        for scratch in (x.shape, (1, h, w)):
            work = [np.full(scratch, np.nan) for _ in range(3)] + [np.full_like(x, np.nan)]
            val, g = recon._tv_grad(x, mu, work)
            assert g is work[3] and g.tobytes() == want_g.tobytes()
            np.testing.assert_allclose(val, want_val, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("shape", [(1, 1, 2), (1, 2, 1), (2, 5, 3), (3, 8, 8)])
    def test_signed_zeros_match_where_formula(self, rng, shape):
        # -0.0 - 0.0 is a -0.0 difference; the gradient keeps the formula's zero signs
        x = rng.choice(np.array([0.0, -0.0, 0.5]), size=shape)
        mu = np.ones(shape[0])
        want_val, want_g = _reference_tv_grad(x, mu)
        val, g = recon._tv_grad(x, mu)
        assert g.tobytes() == want_g.tobytes()
        np.testing.assert_allclose(val, want_val, rtol=1e-12, atol=0)
        x = np.array([[[0.0, -0.0]]])
        assert recon._tv_grad(x, mu[:1])[1].tobytes() == _reference_tv_grad(x, mu[:1])[1].tobytes()

    @pytest.mark.parametrize("batch,side", [(3, 256), (12, 256), (6, 128), (12, 64)])
    def test_equals_batched_flat_view_body(self, batch, side):
        rng = np.random.default_rng(side)
        x = 0.3 * rng.standard_normal((batch, side, side))
        mu = 10.0 ** rng.uniform(-3.0, 0.0, batch)
        want_val, want_g = _batched_tv_grad(x, mu)
        # as the stage calls it: one image of scratch and a stack row for g,
        # with stale contents
        stack = np.full((6, batch, side * side), np.nan)
        work = [np.full((1, side, side), np.nan) for _ in range(3)]
        val, g = recon._tv_grad(x, mu, work + [stack[4].reshape(x.shape)])
        assert g.tobytes() == want_g.tobytes()
        np.testing.assert_allclose(val, want_val, rtol=1e-12, atol=0)
        val, g = recon._tv_grad(x, mu)
        assert g.tobytes() == want_g.tobytes()
        np.testing.assert_allclose(val, want_val, rtol=1e-12, atol=0)

    def test_strided_work_is_rejected(self):
        x = np.zeros((2, 4, 3))
        work = [np.empty((3, 4, 2)).T for _ in range(4)]
        with pytest.raises(ValueError):
            recon._tv_grad(x, np.ones(2), work)

    def test_gradient_is_central_difference_of_value(self, rng):
        x = rng.random((2, 9, 7))
        mu = np.array([0.05, 0.3])
        _, g = recon._tv_grad(x, mu)
        d = rng.standard_normal(x.shape)
        step = 1e-6
        fd = (recon._tv_grad(x + step * d, mu)[0] - recon._tv_grad(x - step * d, mu)[0]) \
            / (2 * step)
        np.testing.assert_allclose(fd, (g * d).sum(axis=(1, 2)), rtol=1e-6)


def _reference_tv_norm(x):
    dx = np.zeros_like(x)
    dy = np.zeros_like(x)
    dx[:, :, :-1] = x[:, :, 1:] - x[:, :, :-1]
    dy[:, :-1, :] = x[:, 1:, :] - x[:, :-1, :]
    return np.sqrt(dx * dx + dy * dy).sum(axis=(1, 2))


class TestTvNorm:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (1, 64), (64, 1), (33, 17),
                                       (256, 256)])
    def test_matches_zero_filled_formula(self, rng, shape):
        x = rng.standard_normal((3, *shape))
        assert tv_norm(x).tobytes() == _reference_tv_norm(x).tobytes()
        assert tv_norm(x[1]) == _reference_tv_norm(x[1:2])[0]
        # a strided batch is read as it is
        xt = rng.standard_normal((*shape, 2)).transpose(2, 0, 1)
        assert tv_norm(xt).tobytes() == _reference_tv_norm(xt).tobytes()


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

    def test_plain_binary_needs_the_constant_row_first(self, rng):
        img = Image(rng.random((16, 16)))
        ps = gen_pattern_set("morlet-binary", 16, 16, 12, master_seed=2)
        moved = dataclasses.replace(ps, row_meta=np.roll(ps.row_meta, -1))
        with pytest.raises(ValueError,
                           match="non-differential binary measurement needs the constant row"):
            effective_measurement(moved, measure(img, ps))

    def test_noiselet_stacks_re_im(self, rng):
        img = Image(rng.random((8, 8)))
        ps = gen_pattern_set("noiselet", 8, 8, 10, master_seed=2)
        m = measure(img, ps)
        t = fast_noiselet(img.data.ravel())[np.asarray(ps.row_meta)]
        np.testing.assert_array_equal(m.values, np.concatenate([t.real, t.imag]))
        np.testing.assert_array_equal(effective_measurement(ps, m), m.values)

    def test_noiselet_dense_factorize_consistent(self, rng):
        # stacked-real SVD path equals the fast operator path
        img = Image(rng.random((8, 8)))
        ps = gen_pattern_set("noiselet", 8, 8, 12, master_seed=9)
        m = measure(img, ps)
        f = factorize(ps)
        rec_svd = pinv_reconstruct(f, effective_measurement(ps, m))
        rec_fast = recon.pinv_reconstruct_basis(ps, m.values)
        # the SVD estimate is least-squares over the stacked system; the fast
        # one is the adjoint of rows U of S with the pair-averaged rhs, which
        # is the same least-squares estimate
        res_a = tv_reconstruct(f, effective_measurement(ps, m), TvOptions(max_inner=300))
        res_b = tv_reconstruct(ps, m.values, TvOptions(max_inner=300))
        assert np.abs(res_a.image.data - res_b.image.data).max() < 1e-3
        assert np.abs(rec_fast.data - rec_svd.data).max() < 1e-10


def _spiv_v1(ps):
    """A version-1 SPIV file of ps: header, then the n x k pseudoinverse."""
    data = pinv_matrix(factorize(ps)).data
    head = struct.pack("<4sHIId32s", b"SPIV", 1, *data.shape, recon.RANK_TOL,
                       ps.content_hash())
    return head + np.asfortranarray(data).T.tobytes()


def _flip_payload_bit(path, ps):
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 1
    path.write_bytes(bytes(raw))


def _version_2(path, ps):
    """The same W in the version-2 layout, which also recorded a rank tolerance."""
    rec = load_pinv(path)
    head = struct.pack("<4sHIIHd32s32s", b"SPIV", 2, *rec.w.shape, rec.row_itemsize,
                       recon.RANK_TOL, rec.source_hash, hashlib.sha256(rec.w).digest())
    path.write_bytes(head + rec.w.tobytes())


def _version_3(path, ps):
    """The same header and W marked version 3, whose Cholesky W came from
    np.linalg.cholesky of the whole G."""
    raw = bytearray(path.read_bytes())
    struct.pack_into("<H", raw, 4, 3)
    path.write_bytes(bytes(raw))


def _other_k(path, ps):
    other = gen_pattern_set(ps.kind, ps.width, ps.height, ps.k - 2, master_seed=4)
    rec = SpivRecord(w=linear_model(other).w, source_hash=ps.content_hash(), row_itemsize=8)
    save_pinv(rec, path)


def _other_itemsize(path, ps):
    save_pinv(replace(load_pinv(path), row_itemsize=4), path)


def _record_bipolar_rows(monkeypatch):
    """List that collects every matrix recon's bipolar_rows returns."""
    made = []
    monkeypatch.setattr(recon, "bipolar_rows",
                        lambda *a, **kw: made.append(bipolar_rows(*a, **kw)) or made[-1])
    return made


class TestSpivCache:
    def test_roundtrip(self, tmp_path):
        ps = gen_pattern_set("morlet-real", 8, 8, 10, master_seed=4)
        rec = SpivRecord(w=linear_model(ps).w, source_hash=ps.content_hash(), row_itemsize=4)
        save_pinv(rec, tmp_path / "p.spiv")
        back = load_pinv(tmp_path / "p.spiv")
        assert np.array_equal(back.w, rec.w)
        assert (back.source_hash, back.row_itemsize) == (ps.content_hash(), 4)
        assert (tmp_path / "p.spiv").stat().st_size == 80 + 8 * rec.w.size

    def test_cached_pinv_hits_disk(self, tmp_path, rng, monkeypatch):
        ps = gen_pattern_set("morlet-real", 8, 8, 10, master_seed=4)
        a = cached_pinv(ps, tmp_path)
        files = list(tmp_path.glob("*.spiv"))
        assert len(files) == 1
        assert files[0].name == ps.content_hash().hex() + ".spiv"

        def no_call(*args, **kwargs):
            raise AssertionError("a cache hit computed or wrote W")
        monkeypatch.setattr(recon, "gram_orthogonalize", no_call)
        monkeypatch.setattr(recon, "save_pinv", no_call)
        b = cached_pinv(ps, tmp_path)
        assert np.array_equal(a.w, b.w)
        y = rng.standard_normal((3, 10))
        assert np.array_equal(pinv_reconstruct(a, y), pinv_reconstruct(b, y))
        tv = TvOptions(max_inner=5, mu_stages=2)
        assert np.array_equal(tv_reconstruct(a, y, tv).images, tv_reconstruct(b, y, tv).images)

    def test_a_miss_builds_through_linear_model_and_a_hit_does_not(self, tmp_path,
                                                                   monkeypatch):
        ps = gen_pattern_set("morlet-binary", 8, 8, 10, master_seed=4)
        calls = []
        for name in ("linear_model", "gram_orthogonalize"):
            fn = getattr(recon, name)
            monkeypatch.setattr(recon, name, lambda *a, _n=name, _f=fn, **kw:
                                calls.append(_n) or _f(*a, **kw))
        miss = cached_pinv(ps, tmp_path)
        assert calls == ["linear_model", "gram_orthogonalize"]
        hit = cached_pinv(ps, tmp_path)
        assert calls == ["linear_model", "gram_orthogonalize"]
        assert np.array_equal(hit.w, miss.w) and np.array_equal(hit.m, miss.m)

    def test_truncated_cache_file_is_recomputed(self, tmp_path):
        ps = gen_pattern_set("morlet-binary", 8, 8, 10, master_seed=4)
        fresh = cached_pinv(ps, tmp_path / "fresh")
        cached_pinv(ps, tmp_path)
        path, = tmp_path.glob("*.spiv")
        full = path.stat().st_size
        path.write_bytes(path.read_bytes()[: full // 2])
        again = cached_pinv(ps, tmp_path)
        assert np.array_equal(again.w, fresh.w)
        assert path.stat().st_size == full
        assert np.array_equal(load_pinv(path).w, fresh.w)

    @pytest.mark.parametrize("spoil", [
        lambda path, ps: path.write_bytes(_spiv_v1(ps)), _flip_payload_bit,
        _version_2, _version_3, _other_k, _other_itemsize],
        ids=["version-1", "flipped-payload-bit", "version-2", "version-3", "other-k",
             "other-itemsize"])
    def test_spoiled_file_is_a_miss_and_rewritten(self, tmp_path, rng, monkeypatch, spoil):
        ps = gen_pattern_set("morlet-binary", 8, 8, 10, master_seed=4)
        fresh = cached_pinv(ps, tmp_path / "fresh")
        good = (tmp_path / "fresh" / (ps.content_hash().hex() + ".spiv")).read_bytes()
        assert good[4:6] == struct.pack("<H", recon.SPIV_VERSION) == struct.pack("<H", 4)
        path = tmp_path / (ps.content_hash().hex() + ".spiv")
        cached_pinv(ps, tmp_path)
        spoil(path, ps)
        assert path.read_bytes() != good

        calls = []
        gram = recon.gram_orthogonalize
        monkeypatch.setattr(recon, "gram_orthogonalize",
                            lambda *a, **kw: calls.append(1) or gram(*a, **kw))
        again = cached_pinv(ps, tmp_path)
        assert calls == [1]
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.glob("*.spiv*")] == [path.name]
        y = rng.standard_normal(10)
        assert np.array_equal(pinv_reconstruct(again, y).data,
                              pinv_reconstruct(fresh, y).data)

    def test_short_file_is_a_format_error(self, tmp_path):
        (tmp_path / "p.spiv").write_bytes(b"SPIV" + bytes(16))
        with pytest.raises(FormatError, match="truncated"):
            load_pinv(tmp_path / "p.spiv")

    def test_version_1_file_is_a_format_error(self, tmp_path):
        ps = gen_pattern_set("morlet-binary", 8, 8, 10, master_seed=4)
        (tmp_path / "p.spiv").write_bytes(_spiv_v1(ps))
        with pytest.raises(FormatError, match="unsupported SPIV version 1"):
            load_pinv(tmp_path / "p.spiv")

    def test_flipped_payload_bit_is_a_format_error(self, tmp_path):
        ps = gen_pattern_set("morlet-binary", 8, 8, 10, master_seed=4)
        cached_pinv(ps, tmp_path)
        path, = tmp_path.glob("*.spiv")
        _flip_payload_bit(path, ps)
        with pytest.raises(FormatError, match="SHA-256"):
            load_pinv(path)

    def test_cached_pinv_matches_svd_reference(self, tmp_path):
        ps = gen_pattern_set("morlet-binary", 16, 16, 20, master_seed=4)
        cached_pinv(ps, tmp_path)
        p = pinv_reconstruct(cached_pinv(ps, tmp_path), np.eye(ps.k)).reshape(ps.k, -1).T
        assert np.abs(p - pinv_matrix(factorize(ps)).data).max() < 1e-10

    @pytest.mark.parametrize("kind", ["morlet-real", "morlet-binary"])
    def test_cache_hit_uses_the_rows_without_copy(self, tmp_path, monkeypatch, kind):
        ps = gen_pattern_set(kind, 8, 8, 10, master_seed=4)
        cached_pinv(ps, tmp_path)
        made = _record_bipolar_rows(monkeypatch)
        monkeypatch.setattr(recon, "gram_orthogonalize", None)   # a hit computes no W
        hit = cached_pinv(ps, tmp_path)
        rows = made[0] if ps.is_binary else ps.rows
        assert np.shares_memory(hit.m, rows) and hit.m.T.flags.c_contiguous

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
        monkeypatch.setattr(patterns, "_DENSE_LIMIT", 10 * 64 - 1)
        assert linear_model(ps).m.dtype == np.int8

    @pytest.mark.parametrize("limit", [1 << 25, 0])
    def test_morlet_real_rows_used_without_copy(self, monkeypatch, limit):
        monkeypatch.setattr(patterns, "_DENSE_LIMIT", limit)
        ps = gen_pattern_set("morlet-real", 8, 8, 10, master_seed=3)
        m = linear_model(ps).m
        assert m.dtype == ps.row_dtype and np.shares_memory(m, ps.rows)

    @pytest.mark.parametrize("limit", [1 << 25, 0])
    def test_morlet_real_model_rows_are_column_major(self, monkeypatch, limit):
        monkeypatch.setattr(patterns, "_DENSE_LIMIT", limit)
        m = linear_model(gen_pattern_set("morlet-real", 8, 8, 10, master_seed=3)).m
        assert m.T.flags.c_contiguous

    @pytest.mark.parametrize("limit", [1 << 25, 0])
    def test_bipolar_rows_used_without_copy(self, monkeypatch, limit):
        monkeypatch.setattr(patterns, "_DENSE_LIMIT", limit)
        ps = gen_pattern_set("morlet-binary", 8, 8, 10, master_seed=3)
        made = _record_bipolar_rows(monkeypatch)
        m = linear_model(ps).m
        assert len(made) == 1 and np.shares_memory(m, made[0])
        assert m.dtype == ps.row_dtype and m.T.flags.c_contiguous

    @pytest.mark.parametrize("kind", ["morlet-binary", "morlet-real"])
    def test_morlet_binary_model_memory_is_bounded(self, kind):
        # float64 rows at 64 x 64, k = 400. A binary model makes its bipolar
        # rows (a row-major copy would peak at twice them); a morlet-real one
        # uses the set's rows, so none are made. Then G and one column-major
        # copy of it that becomes L and then L^-1, one k x _CHOL_PANEL panel
        # or one (k/2)^2 temporary, and a margin of two diagonal blocks for
        # np.linalg.cholesky's copy and result.
        ps = gen_pattern_set(kind, 64, 64, 400, master_seed=2)
        tracemalloc.start()
        try:
            model = linear_model(ps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.m.dtype == np.float64 and model.path == "cholesky"
        made = model.m.nbytes if kind == "morlet-binary" else 0
        k, panel = ps.k, recon._CHOL_PANEL
        factors = 2 * 8 * k * k + 8 * (k // 2) ** 2 + 8 * k * panel
        assert peak <= made + factors + 2 * 8 * panel * panel

    def test_c_ordered_rows_from_a_caller_are_made_column_major(self, rng):
        rows = rng.standard_normal((6, 40))
        m = recon._GramVtOp(rows, recon.gram_orthogonalize(rows)[0], 40, 1).m
        assert m.T.flags.c_contiguous and np.array_equal(m, rows)

    @pytest.mark.parametrize("kind,k", KINDS_AT_8)
    def test_wrong_measurement_length(self, kind, k):
        model = linear_model(gen_pattern_set(kind, 8, 8, k, master_seed=3))
        with pytest.raises(ValueError, match="measurement length"):
            pinv_reconstruct(model, np.zeros(3))

    def test_rejects_non_matrix_source(self):
        with pytest.raises(TypeError):
            linear_model(np.zeros(5))

    def test_rejects_a_row_matrix(self, rng):
        with pytest.raises(TypeError, match="expected a PatternSet or SvdFactors, got ndarray"):
            linear_model(rng.standard_normal((6, 40)))


class TestGramOrthogonalize:
    """The Cholesky path and the eigh path it falls back to."""

    @staticmethod
    def _rows(kind, dtype, monkeypatch):
        """Rows held as the model holds them; binary rows in the f4 cases
        are above the dense limit, so int8, multiplied in float32."""
        monkeypatch.setattr(patterns, "_DENSE_LIMIT", 0 if dtype == np.float32 else 1 << 25)
        ps = gen_pattern_set(kind, 32, 32, 100, master_seed=5)
        m = effective_matrix(ps, ps.row_dtype)
        held = np.int8 if (ps.is_binary and dtype == np.float32) else dtype
        assert m.dtype == held
        return m

    @staticmethod
    def _eigh(m):
        """W of the eigh path for the Gram matrix gram_orthogonalize forms,
        summed in float32 for int8 rows."""
        m = m.astype(np.result_type(m.dtype, np.float32), copy=False)
        g = (m @ m.T).astype(np.float64)
        return recon._eigh_w(g, recon._rank_floor(m.dtype)), g

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f8", "f4"])
    @pytest.mark.parametrize("kind", ["morlet-real", "morlet-binary"])
    def test_cholesky_pinv_matches_eigh_pinv(self, rng, monkeypatch, kind, dtype):
        # Both W W^T are G^-1 from backward-stable factorizations of the same
        # float64 G, so they differ by O(cond(G) eps) relative; float32 rows
        # add one float32 rounding of the adjoint's input, which moves the
        # image by at most cond(M) eps_32 <= cond(G) eps_32. Measured: at most
        # 1.3 cond(G) eps for float64 rows, and equal images for float32 rows.
        m = self._rows(kind, dtype, monkeypatch)
        w, path = recon.gram_orthogonalize(m)
        w_eigh, g = self._eigh(m)
        assert path == "cholesky" and w.shape == w_eigh.shape == (100, 100)
        y = rng.standard_normal((3, 100))
        x = pinv_reconstruct(recon._GramVtOp(m, w, 32, 32), y)
        x_eigh = pinv_reconstruct(recon._GramVtOp(m, w_eigh, 32, 32), y)
        bound = 8.0 * np.linalg.cond(g) * np.finfo(dtype).eps
        assert np.linalg.norm(x - x_eigh) <= bound * np.linalg.norm(x_eigh)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f8", "f4"])
    @pytest.mark.parametrize("kind", ["morlet-real", "morlet-binary"])
    def test_cholesky_rows_are_orthonormal(self, monkeypatch, kind, dtype):
        m = self._rows(kind, dtype, monkeypatch)
        w, path = recon.gram_orthogonalize(m)
        assert path == "cholesky" and w.flags.c_contiguous
        assert np.array_equal(w, np.tril(w.T).T)        # W = L^-T is upper triangular
        a = w.T @ m.astype(np.float64)                  # A = L^-1 M
        # float32 rows: G is summed in float32, so A A^T = I to that accuracy
        tol = 1e-12 if dtype == np.float64 else 1e-5
        assert np.abs(a @ a.T - np.eye(100)).max() < tol
        g = self._eigh(m)[1]                            # the G that was factored
        assert np.abs(w.T @ g @ w - np.eye(100)).max() < 1e-12

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f8", "f4"])
    def test_repeated_row_takes_eigh_and_drops_it(self, monkeypatch, dtype):
        m = self._rows("morlet-real", dtype, monkeypatch)
        m = np.asfortranarray(np.vstack([m, m[7:8]]))
        tracemalloc.start()
        try:
            w, path = recon.gram_orthogonalize(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        w_eigh, g = self._eigh(m)
        assert path == "eigh" and w.shape == (101, 100)
        assert np.array_equal(w, w_eigh)
        # W is divided in the contiguous copy of U_r: the bits of a division
        # into a new array, with one k x k array fewer. The peak is G, eigh's
        # U and W, plus one ufunc buffer and a quarter of 8k^2 for the vectors
        # and slack; measured 3.83 x 8k^2 here, 4.82 with the division into a
        # new array
        lam, u = np.linalg.eigh(g)
        d = np.sqrt(np.maximum(lam[::-1], 0.0))
        assert np.array_equal(w, np.ascontiguousarray(u[:, ::-1][:, :100]) / d[:100])
        assert peak <= 3.25 * 8 * 101**2 + 8 * np.getbufsize()
        p = w @ w.T
        assert np.abs(g @ p @ g - g).max() < 1e-6 * np.abs(g).max()

    def test_guard_failure_takes_eigh_at_full_rank(self, rng):
        # float32 rows, floor 3 sqrt(eps_32) = 1.04e-3; nine singular values
        # at twice the floor keep the eigh rank at k, while
        # 1 / ||L^-1||_F = 1 / ||M+||_F <= (2 floor) / 3 fails the guard
        k, n = 40, 400
        floor = recon._rank_floor(np.float32)
        s = np.r_[np.ones(k - 9), np.full(9, 2.0 * floor)]
        u, _ = np.linalg.qr(rng.standard_normal((k, k)))
        v, _ = np.linalg.qr(rng.standard_normal((n, k)))
        m = np.asfortranarray(((u * s) @ v.T).astype(np.float32))
        l_inv = np.linalg.inv(np.linalg.cholesky((m @ m.T).astype(np.float64)))
        assert 1.0 / np.linalg.norm(l_inv) < floor      # Cholesky works, the guard fails
        w, path = recon.gram_orthogonalize(m)
        w_eigh, _ = self._eigh(m)
        assert path == "eigh" and w.shape == (k, k)
        assert np.array_equal(w, w_eigh)

    def test_all_zero_rows_are_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            recon.gram_orthogonalize(np.zeros((3, 9)))

    def test_triangular_inverse_by_blocks(self, rng):
        # 150 rows: leaves of 37 and 38 rows below _TRI_LEAF = 64. Five
        # dominant columns make L's subdiagonal outweigh its diagonal, so the
        # LU inside np.linalg.inv pivots and leaves rounding above the diagonal
        m = rng.standard_normal((150, 400))
        m[:, :5] *= 100.0
        l = np.asfortranarray(np.linalg.cholesky(m @ m.T))
        expected = _tril_inverse_out_of_place(l)
        a = l.copy(order="F")
        out = recon._tril_inverse(a)
        assert out is a and out.flags.f_contiguous
        # the same products on the same operands, in the same order
        assert np.array_equal(out, expected)
        assert np.array_equal(out, np.tril(out))
        assert np.abs(out @ l - np.eye(150)).max() < 1e-12

    @staticmethod
    def _cholesky_rows(rng, repeated):
        """300 x 700 Gaussian rows, so G's panels are 128, 128 and 44
        columns. `repeated`: row 290 repeats row 7, which is 16 ones on
        columns no other row touches. L's row 290 is then 4 e_7 exactly, and
        so the pivot of column 290 is 16 - 4^2 = 0 exactly, in the last panel."""
        m = rng.standard_normal((300, 700))
        if repeated:
            m[:, 684:] = 0.0
            m[7] = 0.0
            m[7, 684:] = 1.0
            m[290] = m[7]
        return np.asfortranarray(m)

    def test_blocked_cholesky_is_backward_stable(self, rng):
        m = self._cholesky_rows(rng, repeated=False)
        g = m @ m.T
        l = g.copy(order="F")
        assert recon._cholesky_lower(l) is l
        assert np.array_equal(l, np.tril(l))
        # Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3:
        # L L^T = G + dG with |dG| <= gamma_{k+1} |L| |L^T|; the residual is
        # formed in long double, whose own rounding the bound adds
        k = g.shape[0]

        def gamma(n, dtype):
            nu = n * np.finfo(dtype).eps / 2
            return nu / (1 - nu)
        ll = l.astype(np.longdouble)
        residual = np.abs(ll @ ll.T - g)
        bound = (gamma(k + 1, np.float64) + gamma(k, np.longdouble)) * (np.abs(ll) @ np.abs(ll.T))
        assert np.all(residual <= bound)

    def test_blocked_cholesky_of_a_repeated_row_raises_and_keeps_g(self, rng, monkeypatch):
        m = self._cholesky_rows(rng, repeated=True)
        g = recon._gram(m)
        before = g.tobytes()
        with pytest.raises(np.linalg.LinAlgError):
            recon._cholesky_lower(g.copy(order="F"))
        assert g.tobytes() == before
        # gram_orthogonalize hands the eigh fallback its G untouched
        raised, seen = [], []
        chol, eigh = recon._cholesky_lower, recon._eigh_w

        def spy_chol(a):
            try:
                return chol(a)
            except np.linalg.LinAlgError:
                raised.append(1)
                raise
        monkeypatch.setattr(recon, "_cholesky_lower", spy_chol)
        monkeypatch.setattr(recon, "_eigh_w", lambda g, floor: seen.append(g.tobytes())
                            or eigh(g, floor))
        w, path = recon.gram_orthogonalize(m)
        assert raised == [1] and seen == [before]
        assert path == "eigh" and w.shape == (300, 299)


def _tril_inverse_out_of_place(l, out=None):
    """The triangular inverse as it was computed into a new column-major
    array, before _tril_inverse wrote over its input."""
    if out is None:
        out = np.zeros_like(l, order="F")
    k = l.shape[0]
    if k <= recon._TRI_LEAF:
        out[:] = np.tril(np.linalg.inv(l))
        return out
    h = k // 2
    _tril_inverse_out_of_place(l[:h, :h], out[:h, :h])
    _tril_inverse_out_of_place(l[h:, h:], out[h:, h:])
    out[h:, :h] = -out[h:, h:] @ (l[h:, :h] @ out[:h, :h])
    return out


@pytest.fixture(scope="module")
def band_set():
    """A binary set in the int8 band: 128 x 128, k = 328 (CR 2%)."""
    return gen_pattern_set("morlet-binary", 128, 128, 328, master_seed=1)


class TestBinaryInt8Band:
    """±1 rows are exact in int8 and float32, and so is their Gram matrix,
    whose entries are integers of magnitude at most n < 2^24: an int8 model
    of a band set has the float64 model's W and differs only in the rounding
    of each operator input to float32."""

    def test_grams_are_equal(self, band_set):
        assert band_set.row_dtype == np.int8
        m32 = bipolar_rows(band_set, np.float32)
        m64 = bipolar_rows(band_set, np.float64)
        assert np.array_equal((m32 @ m32.T).astype(np.float64), m64 @ m64.T)
        assert np.array_equal(recon._gram(bipolar_rows(band_set, np.int8)), m64 @ m64.T)

    def test_same_w_bytes(self, band_set):
        w32, path32 = recon.gram_orthogonalize(bipolar_rows(band_set, np.float32))
        w64, path64 = recon.gram_orthogonalize(bipolar_rows(band_set, np.float64))
        assert path32 == path64 == "cholesky"
        assert w32.tobytes() == w64.tobytes()
        w8, path8 = recon.gram_orthogonalize(bipolar_rows(band_set, np.int8))
        assert path8 == "cholesky" and w8.tobytes() == w64.tobytes()

    def test_images_match_the_float64_model(self, band_set):
        img = block_phantom(128)
        y = _measure_eff(img, band_set)
        f8 = linear_model(band_set)
        m64 = bipolar_rows(band_set, np.float64)
        f64 = recon._GramVtOp(m64, recon.gram_orthogonalize(m64)[0], 128, 128)
        assert f8.m.dtype == np.int8
        # pinv is one adjoint s M with s = rhs(y) W^T in float64 on both
        # models; the int8 one rounds s (u |s_i|) and sums k products of ±1
        # in float32 (gamma_k sum |s_i|), so per pixel
        # |x8 - x64| <= (k + 2) u sum |s_i| with u = 2^-24
        s = f64.rhs(y) @ f64.w.T
        bound = (band_set.k + 2) * 2.0 ** -24 * np.abs(s).sum()
        p8, p64 = pinv_reconstruct(f8, y), pinv_reconstruct(f64, y)
        assert np.abs(p8.data - p64.data).max() <= bound
        # TV (5 stages x 12) repeats that rounding in each of its 60 forward
        # and 60 adjoint products; a pinv-sized step (5e-7 here) added up
        # 120 times without damping stays below 1e-4, and the PSNR agrees
        # to 4 decimals. Measured: 1.1e-6 dB (TV) and 1.4e-7 dB (pinv).
        opts = TvOptions(mu_stages=5, max_inner=12, tol=1e-5)
        t8 = tv_reconstruct(f8, y, opts).image
        t64 = tv_reconstruct(f64, y, opts).image
        assert np.abs(t8.data - t64.data).max() < 1e-4
        assert abs(psnr(img, t8) - psnr(img, t64)) < 5e-5
        assert abs(psnr(img, p8) - psnr(img, p64)) < 5e-5

    @pytest.mark.parametrize("earlier", [np.float64, np.float32])
    def test_earlier_spiv_is_a_miss_rewritten_in_int8(self, band_set, tmp_path, monkeypatch,
                                                      earlier):
        # float64 rows before the band existed, float32 rows in it until int8
        path = tmp_path / (band_set.content_hash().hex() + ".spiv")
        with monkeypatch.context() as m:
            m.setattr(patterns, "_row_dtype", lambda kind, k, n: earlier)  # an earlier rule
            assert band_set.row_dtype == earlier
            cached_pinv(band_set, tmp_path)
        old = path.read_bytes()
        assert load_pinv(path).row_itemsize == np.dtype(earlier).itemsize

        calls = []
        gram = recon.gram_orthogonalize
        monkeypatch.setattr(recon, "gram_orthogonalize",
                            lambda *a, **kw: calls.append(1) or gram(*a, **kw))
        model = cached_pinv(band_set, tmp_path)
        assert calls == [1] and model.m.dtype == np.int8
        new = load_pinv(path)
        assert new.row_itemsize == 1
        w_bytes = new.w.nbytes
        assert path.read_bytes()[-w_bytes:] == old[-w_bytes:]


class TestInt8BandMemory:
    """A 128 x 128 binary model at CR 4% holds its ±1 rows once, as k n
    bytes of int8, and multiplies them through float32 column blocks of at
    most _UNPACK_BYTES (k columns for the Gram matrix)."""

    @pytest.fixture(scope="class")
    def cr4_set(self):
        k = rows_for_cr("morlet-binary", 0.04, 128 * 128)
        assert k == 655
        return gen_pattern_set("morlet-binary", 128, 128, k, master_seed=3)

    def test_rows_are_int8_column_major_k_n_bytes(self, cr4_set):
        m = linear_model(cr4_set).m
        assert m.dtype == np.int8 and m.flags.f_contiguous
        assert m.nbytes == cr4_set.k * cr4_set.n == 10_731_520

    def test_cached_pinv_holds_the_same_rows_with_no_float_copy(self, cr4_set, tmp_path):
        rows = linear_model(cr4_set).m
        cached_pinv(cr4_set, tmp_path)                  # the miss writes W
        tracemalloc.start()
        try:
            hit = cached_pinv(cr4_set, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert hit.m.dtype == np.int8 and hit.m.flags.f_contiguous
        assert np.array_equal(hit.m, rows)
        # the rows, W and the unpacking temporaries of bipolar_rows (2.1 MB
        # measured): a float32 copy of the rows would add 4 k n bytes
        assert peak <= rows.nbytes + hit.w.nbytes + 4 * patterns._UNPACK_BYTES

    def test_column_blocks_stay_within_the_unpack_size(self, cr4_set):
        m = linear_model(cr4_set).m
        k = cr4_set.k
        blocks = list(recon._column_blocks(m))
        assert all(blk.dtype == np.float32 and blk.nbytes <= patterns._UNPACK_BYTES
                   for _, blk in blocks)
        assert sum(sl.stop - sl.start for sl, _ in blocks) == cr4_set.n
        gram_blocks = list(recon._column_blocks(m, k))
        assert all(blk.shape == (k, k) for _, blk in gram_blocks[:-1])
        assert gram_blocks[-1][1].shape[0] <= k


def _bipolar_int8(rng, k, n):
    """k random ±1 rows of n pixels, int8 and column-major, as the model holds them."""
    return np.asfortranarray(np.where(rng.random((k, n)) < 0.5, -1, 1).astype(np.int8))


class _NoProducts(np.ndarray):
    """A view of int8 rows that fails every numpy product it is an operand of."""

    PRODUCTS = (np.dot, np.vdot, np.inner, np.outer, np.tensordot, np.einsum, np.kron)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc.__name__ in ("matmul", "vecdot", "matvec", "vecmat"):
            raise AssertionError("a numpy product took the int8 rows")
        inputs = tuple(np.asarray(a) if isinstance(a, _NoProducts) else a for a in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)

    def __array_function__(self, func, types, args, kwargs):
        if func in self.PRODUCTS:
            raise AssertionError("a numpy product took the int8 rows")
        return super().__array_function__(func, types, args, kwargs)


class TestInt8Rows:
    """Binary rows above the dense limit are held as int8 ±1 and multiplied
    only through float32 copies of column blocks."""

    K, SIDE = 60, 16          # n = 256: a raw int8 Gram overflows

    @pytest.fixture
    def rows(self, rng, monkeypatch):
        """(int8 rows, float32 rows, float32 W) in blocks of 100, 100 and 56 columns."""
        monkeypatch.setattr(patterns, "_UNPACK_BYTES", 4 * self.K * 100)
        n = self.SIDE ** 2
        blocks = patterns._row_blocks(n, 4 * self.K)
        assert [sl.stop - sl.start for sl in blocks] == [100, 100, 56]
        m8 = _bipolar_int8(rng, self.K, n)
        m32 = np.asfortranarray(m8.astype(np.float32))
        return m8, m32, recon.gram_orthogonalize(m32)[0]

    def _op(self, m, w):
        return recon._GramVtOp(m, w, self.SIDE, self.SIDE)

    @pytest.mark.parametrize("batch", [1, 3])
    def test_operator_matches_float32_rows(self, rng, rows, batch):
        m8, m32, w = rows
        op8, op32 = self._op(m8, w), self._op(m32, w)
        op64 = self._op(m8.astype(np.float64, order="F"), w)
        assert op8.m.dtype == np.int8 and op8.m.T.flags.c_contiguous
        # the adjoint sums the same k float32 products s_i m_ij per pixel as
        # the float32 rows do, with s = z W^T rounded to float32 alike, but in
        # one BLAS product per column block, whose kernel may order the sum
        # differently. Each float32 sum lies within gamma_k sum_i |s_i| (|m_ij|
        # = 1; gamma_k = k u / (1 - k u), u = 2^-24) of the exact one, so the
        # two lie within twice that of each other
        z = rng.standard_normal((batch, w.shape[1]))
        out = np.empty((batch, self.SIDE ** 2))
        k, u = self.K, 2.0 ** -24
        s = (z @ w.T).astype(np.float32).astype(np.float64)
        bound = 2 * k * u / (1 - k * u) * np.abs(s).sum(axis=1)[:, None]
        assert np.all(np.abs(op8.adjoint(z) - op32.adjoint(z)) <= bound)
        assert op8.adjoint(z, out=out) is out
        assert np.all(np.abs(out - op32.adjoint(z)) <= bound)
        # the forward rounds x to float32 as the float32 rows do, sums each
        # block in float32 and adds the blocks in float64: per entry within
        # twice the float32 bound (n + 1) u |x|_1 sum_i |W_ij| of the float32
        # forward, and no farther from the float64 rows' forward than it
        x = rng.standard_normal((batch, self.SIDE ** 2))
        f8, f32, f64 = op8.forward(x), op32.forward(x), op64.forward(x)
        bound = (2 * (x.shape[1] + 1) * 2.0 ** -24 * np.abs(x).sum(axis=1)[:, None]
                 * np.abs(w).sum(axis=0))
        assert np.all(np.abs(f8 - f32) <= bound)
        assert np.linalg.norm(f8 - f64) <= np.linalg.norm(f32 - f64)

    @pytest.mark.parametrize("k,side,unpack_bytes,cols", [
        (60, 16, 4 * 60 * 100, 100),
        (600, 64, None, 600),      # the default blocks: k columns once 4 k^2 bytes exceed 1 MB
    ], ids=["16x16-blocks-of-100", "64x64-blocks-of-k"])
    def test_gram_equals_float32_gram(self, rng, monkeypatch, k, side, unpack_bytes, cols):
        if unpack_bytes is not None:
            monkeypatch.setattr(patterns, "_UNPACK_BYTES", unpack_bytes)
        n = side * side
        assert patterns._row_blocks(n, 4 * k, k)[0] == slice(0, cols) and n % cols
        m8 = _bipolar_int8(rng, k, n)
        m32 = np.asfortranarray(m8.astype(np.float32))
        assert (m8 @ m8.T)[0, 0] != n              # a raw int8 Gram wraps around
        g32 = (m32 @ m32.T).astype(np.float64)
        assert np.array_equal(recon._gram(m8), g32)
        (w8, path8), (w32, path32) = recon.gram_orthogonalize(m8), recon.gram_orthogonalize(m32)
        assert path8 == path32 == "cholesky" and w8.tobytes() == w32.tobytes()

    @pytest.mark.parametrize("min_cols,widths", [(1, [100, 100, 56]), (120, [120, 120, 16])])
    def test_column_blocks_copy_each_column_once_in_order(self, rows, min_cols, widths):
        m8 = rows[0]
        pairs = list(recon._column_blocks(m8, min_cols))
        assert [sl.stop - sl.start for sl, _ in pairs] == widths
        assert [sl.start for sl, _ in pairs] == [0, *np.cumsum(widths)[:-1]]
        blocks = list(recon._column_blocks(m8, min_cols))   # one buffer, reused
        assert len({blk.__array_interface__["data"][0] for _, blk in blocks}) == 1
        for sl, blk in recon._column_blocks(m8, min_cols):
            assert blk.dtype == np.float32 and blk.flags.c_contiguous
            assert np.array_equal(blk, m8.T[sl].astype(np.float32))

    def test_rank_floor_is_float32s(self):
        assert recon._rank_floor(np.int8) == recon._rank_floor(np.float32)

    def test_no_numpy_product_takes_int8_rows(self, rng, rows):
        m8, m32, w = rows
        spy = m8.view(_NoProducts)
        with pytest.raises(AssertionError, match="product"):
            spy @ spy.T
        w_spy, _ = recon.gram_orthogonalize(spy)
        assert np.array_equal(w_spy, w)
        op = self._op(m8, w)
        op.m = op.m.view(_NoProducts)
        z = rng.standard_normal((3, w.shape[1]))
        op.forward(rng.standard_normal((3, self.SIDE ** 2)))
        op.adjoint(z)
        op.adjoint(z, out=np.empty((3, self.SIDE ** 2)))

    @pytest.mark.filterwarnings("ignore:grid .* is below 8:UserWarning")
    def test_cached_pinv_keys_the_int8_itemsize(self, tmp_path, monkeypatch):
        monkeypatch.setattr(patterns, "_DENSE_LIMIT", 0)
        ps = gen_pattern_set("morlet-binary", 8, 8, 10, master_seed=4)
        assert ps.row_dtype == np.int8
        model = cached_pinv(ps, tmp_path)
        path = tmp_path / (ps.content_hash().hex() + ".spiv")
        assert model.m.dtype == np.int8 and load_pinv(path).row_itemsize == 1
        calls = []
        gram = recon.gram_orthogonalize
        monkeypatch.setattr(recon, "gram_orthogonalize",
                            lambda *a, **kw: calls.append(1) or gram(*a, **kw))
        hit = cached_pinv(ps, tmp_path)
        assert not calls and hit.m.dtype == np.int8 and np.array_equal(hit.w, model.w)
        _other_itemsize(path, ps)             # as a float32 model of the set wrote it
        miss = cached_pinv(ps, tmp_path)
        assert calls == [1] and load_pinv(path).row_itemsize == 1
        assert np.array_equal(miss.w, model.w)


# pinv and TV PSNRs of two dead-leaves images under one model of each row
# dtype at 128^2 (float64 morlet-real, CR 2%; int8 morlet-binary, CR 4%;
# float32 morlet-real, CR 2%, under a zero dense limit); run in a fresh
# interpreter so that the thread count is set before numpy loads
_THREAD_PROBE = """
import importlib.util, sys
import numpy as np
from spisim import patterns
from spisim.acquire import measure, measure_differential
from spisim.analyze import psnr
from spisim.imgcore import Image
from spisim.recon import (TvOptions, effective_measurement, linear_model,
                          pinv_reconstruct, tv_reconstruct)
spec = importlib.util.spec_from_file_location("corpus", sys.argv[1])
corpus = importlib.util.module_from_spec(spec)
spec.loader.exec_module(corpus)
images = [img for _, img in corpus.corpus(128, 2, 11)]
for kind, k, seed, dense_limit in (("morlet-real", 328, 3, patterns._DENSE_LIMIT),
                                   ("morlet-binary", 655, 3, patterns._DENSE_LIMIT),
                                   ("morlet-real", 328, 4, 0)):
    patterns._DENSE_LIMIT = dense_limit
    ps = patterns.gen_pattern_set(kind, 128, 128, k, master_seed=seed)
    take = measure_differential if ps.is_binary else measure
    y = np.stack([effective_measurement(ps, take(img, ps)) for img in images])
    model = linear_model(ps)
    pinv = pinv_reconstruct(model, y)
    tv = tv_reconstruct(model, y, TvOptions(mu_stages=5, max_inner=60, tol=1e-5)).images
    print(np.dtype(ps.row_dtype).name, *(psnr(Image(x), img) for x, img in
                                         zip([*pinv, *tv], images * 2)))
"""


def test_pinv_and_tv_psnr_do_not_depend_on_blas_threads():
    # the thread count changes the order of BLAS sums, so W, pinv and TV
    # differ between 1 and 2 threads by rounding only: every PSNR agrees to
    # well within 5e-5 dB (int8 and float32 rows differed by up to 2.7e-8 and
    # 1.0e-8 dB on a 2-vCPU machine; float64 rows not at all)
    root = Path(recon.__file__).resolve().parents[2]
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(root / "src"),
                                               os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", _THREAD_PROBE,
                              str(root / "bench" / "corpus.py")],
                             env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        runs.append([line.split() for line in run.stdout.splitlines()])
    one, two = runs
    assert [r[0] for r in one] == [r[0] for r in two] == ["float64", "int8", "float32"]
    a = np.array([r[1:] for r in one], dtype=float)
    b = np.array([r[1:] for r in two], dtype=float)
    assert a.shape == (3, 4) and np.all(np.isfinite(a))
    assert np.all(np.abs(a - b) <= 5e-5), np.abs(a - b)


class TestFloatRowsColumnBlocks:
    """Float rows are multiplied as they are: one block, the view m.T."""

    K, SIDE = 60, 16

    @pytest.fixture(params=[np.float32, np.float64])
    def rows(self, rng, request):
        m = np.asfortranarray(rng.standard_normal((self.K, self.SIDE ** 2)).astype(request.param))
        return m, recon.gram_orthogonalize(m)[0]

    def test_one_block_shares_memory_with_the_rows(self, rows):
        m = rows[0]
        [(sl, blk)] = list(recon._column_blocks(m, self.K))
        assert sl == slice(0, m.shape[1]) and blk.dtype == m.dtype
        assert blk.flags.c_contiguous and np.shares_memory(blk, m)
        assert np.array_equal(blk, m.T)

    def test_products_are_the_single_products(self, rng, rows):
        m, w = rows
        op = recon._GramVtOp(m, w, self.SIDE, self.SIDE)
        x = rng.standard_normal((3, self.SIDE ** 2))
        z = rng.standard_normal((3, w.shape[1]))
        t = (x.astype(m.dtype) @ m.T).astype(np.float64)
        assert np.array_equal(op.forward(x), t @ w)
        s = (z @ w.T).astype(m.dtype)
        ref = (s @ m).astype(np.float64)
        out = np.empty((3, self.SIDE ** 2))
        assert np.array_equal(op.adjoint(z), ref)
        assert op.adjoint(z, out=out) is out and np.array_equal(out, ref)
        assert np.array_equal(recon._gram(m), (m @ m.T).astype(np.float64))


def _noiselet_indices(n, seed):
    """Distinct row indices over n pixels with sampled reversal pairs."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(n, size=max(1, n // 3), replace=False)
    pairs = n - 1 - idx[: max(1, len(idx) // 2)]
    return list(dict.fromkeys([int(i) for i in np.concatenate([idx, pairs])]))


class TestNoiseletSubsetOp:
    # A A^T = I and the oracle products hold to this many float64 epsilons
    # times n: each entry of the dense oracle's products is a sum of n terms
    EPS_PER_PIXEL = 4

    @pytest.mark.parametrize("height,width", [(1, 1), (1, 2), (2, 1), (4, 8), (16, 16)])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_matches_dense_oracle_rows(self, height, width, batch):
        n = height * width
        indices = _noiselet_indices(n, seed=n)
        op = recon._NoiseletSubsetOp(indices, width, height)
        # the rows are the sampled indices and their reversals, each once
        assert op.idx.tolist() == sorted({*indices, *(n - 1 - i for i in indices)})
        dense = dense_transform_2d(width, height, "noiselet")
        a = (dense.real - dense.imag)[op.idx]     # the oracle S = H diag(q) H = Re N - Im N
        bound = self.EPS_PER_PIXEL * n * np.finfo(np.float64).eps
        rng = np.random.default_rng(batch)
        x = rng.standard_normal((batch, n))
        z = rng.standard_normal((batch, len(op.idx)))
        ax, atz = op.forward(x), op.adjoint(z)
        assert ax.dtype == atz.dtype == np.float64
        assert np.abs(ax - x @ a.T).max() <= bound * max(1.0, np.abs(ax).max())
        assert np.abs(atz - z @ a).max() <= bound * max(1.0, np.abs(atz).max())
        np.testing.assert_allclose(np.sum(ax * z, axis=1), np.sum(x * atz, axis=1),
                                   rtol=1e-12, atol=1e-12)
        a_op = op.forward(np.eye(n)).T
        assert np.abs(a_op @ a_op.T - np.eye(len(a_op))).max() <= bound
        # the sampled rows' [Re; Im] lie in the row space of A and have its rank
        stacked = np.vstack([dense[indices].real, dense[indices].imag])
        assert np.abs(stacked @ a.T @ a - stacked).max() < 1e-12
        assert np.linalg.matrix_rank(stacked) == len(op.idx)

    @pytest.mark.parametrize("width,height", [(1, 1), (1, 2), (2, 1)])
    def test_tiny_grid_pinv_returns_the_image(self, width, height):
        # on a 1 x 1 grid the one noiselet row is real: its sample's Im is 0
        img = Image(np.array([[0.3, -1.7]])[:, : width * height].reshape(height, width))
        ps = gen_pattern_set("noiselet", width, height, width * height)
        y = effective_measurement(ps, measure(img, ps))
        got = pinv_reconstruct(linear_model(ps), y)
        np.testing.assert_allclose(got.data, img.data, rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(pinv_reconstruct(factorize(ps), y).data, img.data,
                                   rtol=1e-15, atol=1e-15)


# The fast-transform operators written over the whole (B, n) batch: one
# transform call per step, every pass over all B images. The per-image
# operators must give the same bits.
def _batched_wht_forward(op, x):
    t = wht2(x.reshape(-1, op.height, op.width))
    return t.reshape(-1, op.n)[:, op.idx]


def _batched_wht_adjoint(op, z):
    grid = np.zeros((z.shape[0], op.n))
    grid[:, op.idx] = z
    g = grid.reshape(-1, op.height, op.width)
    wht2(g, out=g)
    return grid


def _batched_noiselet_s(op, x):
    t = wht2(x.reshape(-1, op.height, op.width))
    t *= op._q
    wht2(t, out=t)
    return t.reshape(-1, op.n)


def _batched_noiselet_forward(op, x):
    return _batched_noiselet_s(op, x)[:, op.idx]


def _batched_noiselet_adjoint(op, z):
    w = np.zeros((z.shape[0], op.n))
    w[:, op.idx] = z
    return _batched_noiselet_s(op, w)


_BATCHED_OPS = {"walsh-hadamard": (_batched_wht_forward, _batched_wht_adjoint),
                "noiselet": (_batched_noiselet_forward, _batched_noiselet_adjoint)}


class TestPerImageTransforms:
    @pytest.mark.parametrize("kind", ["walsh-hadamard", "noiselet"])
    @pytest.mark.parametrize("height,width", [(256, 256), (8, 16), (1, 1)])
    def test_equals_batched_transforms_bitwise(self, kind, height, width):
        n = height * width
        op = linear_model(gen_pattern_set(kind, width, height, max(1, n // 25), master_seed=4))
        forward, adjoint = _BATCHED_OPS[kind]
        rng = np.random.default_rng(n)
        x = rng.standard_normal((3, n))
        z = op.forward(x)
        assert z.tobytes() == forward(op, x).tobytes()
        want = adjoint(op, z)
        assert op.adjoint(z).tobytes() == want.tobytes()
        stack = np.full((2, 3, n), np.nan)
        buf = stack[1]
        assert op.adjoint(z, out=buf) is buf
        assert buf.tobytes() == want.tobytes() and np.isnan(stack[0]).all()
        y = rng.standard_normal((3, op.k * (2 if kind == "noiselet" else 1)))
        got = pinv_reconstruct(op, y)
        assert got.shape == (3, height, width)
        assert got.tobytes() == adjoint(op, op.rhs(y)).tobytes()

    @pytest.mark.parametrize("kind", ["walsh-hadamard", "noiselet"])
    def test_one_transform_pass_per_image(self, monkeypatch, kind):
        # each image is transformed on its own (h, w) grid
        op = linear_model(gen_pattern_set(kind, 16, 8, 20, master_seed=4))
        shapes = []
        wrapped = recon.wht2

        def counted(grid, *a, **kw):
            shapes.append(np.shape(grid))
            return wrapped(grid, *a, **kw)
        monkeypatch.setattr(recon, "wht2", counted)
        z = op.forward(np.random.default_rng(0).standard_normal((3, 128)))
        op.adjoint(z)
        per_call = 1 if kind == "walsh-hadamard" else 2
        assert shapes == [(8, 16)] * (2 * 3 * per_call)
