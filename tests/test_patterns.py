import hashlib
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import dense_transform_2d, dense_transform_matrix
from spisim import patterns
from spisim.patterns import (ParamDistribution, PatternSet,
                             binarize, bipolar_rows, fast_noiselet, fast_wht,
                             gen_morlet_pattern, gen_pattern_set,
                             load_pattern_set, noiselet2, splitmix64,
                             white_noise_spectra, wht2)
from spisim.imgcore import FormatError
from spisim.wavelets import MorletParams


# SHA-256 of the SPIP file (version 7) of gen_pattern_set(kind, 17, 17, 11,
# master_seed=6), whatever block size the rows were generated in
SPIP_DIGESTS = {
    "morlet-real-float64":
        "22e68c811b1e6cf9f3ea159052e192c0e69d42a4c566e9129f63363bfc52c6ed",
    "morlet-real-float32":
        "7d2e6107c2d78d210242896963ba2619d8ed300da0550466b80402dc22572c4e",
    "morlet-binary":
        "cd2cc7fafe8f0b223688d88f713c5551c73db6b65e9ac967cf199e8c230d6f81",
}

# SPIP header: the flags byte ends it; each kind has one flags value
FLAGS_BYTE = 27
SPIP_FLAGS = {"morlet-real": 0x02, "morlet-binary": 0x01,
              "walsh-hadamard": 0x04, "noiselet": 0x04}


class TestFastWht:
    def test_h2_first_column(self):
        np.testing.assert_allclose(fast_wht(np.array([1.0, 0.0])),
                                   [2 ** -0.5, 2 ** -0.5])

    @settings(max_examples=30, deadline=None)
    @given(arrays(np.float64, 16, elements=st.floats(-10, 10)))
    def test_involution(self, v):
        np.testing.assert_allclose(fast_wht(fast_wht(v)), v, atol=1e-12)

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 64])
    def test_matches_dense_kronecker_oracle(self, m, rng):
        v = rng.standard_normal(m)
        ref = dense_transform_matrix(m, "walsh-hadamard") @ v
        assert np.abs(fast_wht(v) - ref).max() < 1e-12

    def test_non_power_of_two(self):
        with pytest.raises(ValueError):
            fast_wht(np.zeros(12))

    def test_batched_last_axis(self, rng):
        v = rng.standard_normal((3, 8))
        ref = np.stack([fast_wht(row) for row in v])
        np.testing.assert_allclose(fast_wht(v), ref, atol=1e-14)

    # 16 and below: one factor, which reads the array it writes when out is v
    @pytest.mark.parametrize("m", [1, 2, 16, 32, 4096])
    def test_out_is_bitwise_the_new_array(self, rng, m):
        v = rng.standard_normal((3, m))
        want = fast_wht(v)
        out = np.full_like(v, np.nan)
        assert fast_wht(v, out=out) is out and out.tobytes() == want.tobytes()
        assert fast_wht(v, out=v) is v and v.tobytes() == want.tobytes()
        grid = rng.standard_normal((2, 8, m))
        out = np.empty_like(grid)
        assert wht2(grid, out=out) is out and out.tobytes() == wht2(grid).tobytes()

    def test_out_must_be_contiguous(self, rng):
        v = rng.standard_normal((3, 64))
        with pytest.raises(ValueError):
            fast_wht(v, out=np.empty((64, 3)).T)


class TestFastNoiselet:
    def test_h2_first_column(self):
        out = fast_noiselet(np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, [(1 - 1j) / 2, (1 + 1j) / 2], atol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(arrays(np.complex128, 16,
                  elements=st.complex_numbers(max_magnitude=10, allow_nan=False)))
    def test_unitarity(self, v):
        assert abs(np.linalg.norm(fast_noiselet(v)) - np.linalg.norm(v)) < 1e-12

    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    def test_matches_dense_kronecker_oracle(self, m, rng):
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        ref = dense_transform_matrix(m, "noiselet") @ v
        assert np.abs(fast_noiselet(v) - ref).max() < 1e-12

    @pytest.mark.parametrize("m,parities", [(2, {1, 3, 5, 7}), (4, {0, 2, 4, 6}),
                                            (8, {1, 3, 5, 7}), (16, {0, 2, 4, 6})])
    def test_value_sets(self, m, parities):
        # entries are e^{i p pi/4} / sqrt(m); odd powers of 2 carry odd p
        # (two-valued re/im), even powers carry even p (two-valued sum/diff)
        h = dense_transform_matrix(m, "noiselet")
        np.testing.assert_allclose(np.abs(h), m ** -0.5, atol=1e-12)
        p = np.round(np.angle(h.ravel()) / (np.pi / 4)).astype(int) % 8
        assert set(p) <= parities

    def test_inverse(self, rng):
        v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        inverse = np.conj(fast_noiselet(np.conj(fast_noiselet(v))))
        np.testing.assert_allclose(inverse, v, atol=1e-12)

    def test_squared_is_index_reversal(self):
        # supports the closed-form orthogonalization of noiselet subsets
        for m in (4, 16):
            h = dense_transform_matrix(m, "noiselet")
            reversal = np.eye(m)[::-1]
            assert np.abs(h @ h - reversal).max() < 1e-12
            assert np.abs(h[::-1] - np.conj(h)).max() < 1e-12


def _butterfly_oracle(a, combine):
    """The radix-2 butterfly the Kronecker-factor transforms replaced."""
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


def wht_oracle(v):
    a = np.array(v, dtype=np.float64 if not np.iscomplexobj(v) else np.complex128)
    a = _butterfly_oracle(a, lambda t, b: (t + b, t - b))
    return a * a.shape[-1] ** -0.5


def noiselet_oracle(v):
    a = np.array(v, dtype=np.complex128)
    p = a.shape[-1].bit_length() - 1
    a = _butterfly_oracle(a, lambda t, b: (t + 1j * b, 1j * t + b))
    return a * ((1.0 - 1.0j) / 2.0) ** p


def transform2_oracle(transform, grid):
    """Rows, then columns: the 2D transform before the flattened-grid form."""
    return np.swapaxes(transform(np.swapaxes(transform(grid), -1, -2)), -1, -2)


TRANSFORMS = [(fast_wht, wht_oracle), (fast_noiselet, noiselet_oracle)]
TRANSFORMS_2D = [(wht2, wht_oracle), (noiselet2, noiselet_oracle)]


def _signal(seed, shape, complex_):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(shape)
    return v + 1j * rng.standard_normal(shape) if complex_ else v


class TestKroneckerTransformsMatchButterfly:
    @settings(max_examples=80, deadline=None)
    @given(p=st.integers(0, 12), lead=st.sampled_from([(), (3,), (2, 3)]),
           complex_=st.booleans(), pair=st.sampled_from(TRANSFORMS),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_butterfly_oracle(self, p, lead, complex_, pair, seed):
        fast, oracle = pair
        v = _signal(seed, lead + (2 ** p,), complex_)
        out = fast(v)
        assert out.shape == v.shape
        assert np.abs(out - oracle(v)).max() <= 1e-13

    @pytest.mark.parametrize("fast,oracle", TRANSFORMS)
    def test_matches_butterfly_oracle_at_2_16(self, fast, oracle):
        v = _signal(7, 2 ** 16, complex_=False)
        assert np.abs(fast(v) - oracle(v)).max() <= 1e-13

    @pytest.mark.parametrize("fast,oracle", TRANSFORMS_2D)
    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("height,width", [(1, 2), (2, 1), (4, 8), (32, 2),
                                              (8, 256), (128, 64)])
    def test_2d_matches_rows_then_columns(self, fast, oracle, lead, height, width):
        x = _signal(height * width, lead + (height, width), complex_=False)
        out = fast(x)
        assert out.shape == x.shape
        assert np.abs(out - transform2_oracle(oracle, x)).max() <= 1e-13

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.bool_])
    def test_output_dtypes_for_real_input(self, dtype):
        v = np.arange(16).astype(dtype)
        assert fast_wht(v).dtype == np.float64
        assert fast_noiselet(v).dtype == np.complex128
        assert wht2(v.reshape(4, 4)).dtype == np.float64
        assert noiselet2(v.reshape(4, 4)).dtype == np.complex128

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_output_dtypes_for_complex_input(self, dtype):
        v = (np.arange(16) * (1 + 2j)).astype(dtype)
        assert fast_wht(v).dtype == np.complex128
        assert fast_noiselet(v).dtype == np.complex128

    @pytest.mark.parametrize("transform", [fast_wht, fast_noiselet, wht2, noiselet2])
    @pytest.mark.parametrize("m", [1, 2, 16, 64, 512])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.float32])
    def test_input_unchanged_and_not_aliased(self, transform, m, dtype):
        v = _signal(m, (3, m, 1) if transform in (wht2, noiselet2) else (3, m),
                    complex_=dtype is np.complex128).astype(dtype)
        before = v.copy()
        out = transform(v)
        np.testing.assert_array_equal(v, before)
        assert not np.shares_memory(out, v)

    @pytest.mark.parametrize("transform", [fast_wht, fast_noiselet])
    @pytest.mark.parametrize("m", [0, 3, 12, 48, 65535])
    def test_non_power_of_two_length_raises(self, transform, m):
        with pytest.raises(ValueError, match="not a power of 2"):
            transform(np.zeros((2, m)))

    @pytest.mark.parametrize("transform", [wht2, noiselet2])
    @pytest.mark.parametrize("shape", [(3, 4), (4, 3), (6, 6), (0, 4)])
    def test_2d_non_power_of_two_side_raises(self, transform, shape):
        with pytest.raises(ValueError, match="not a power of 2"):
            transform(np.zeros(shape))


def basis_set(kind, width, height, indices):
    return PatternSet(kind, width, height, len(indices), 0, tuple(indices))


class TestBasisRow2d:
    def test_wh_row0_constant(self):
        g = basis_set("walsh-hadamard", 8, 4, range(32)).dense()[0]
        np.testing.assert_allclose(g, np.full(32, 32 ** -0.5), atol=1e-14)

    def test_wh_rows_are_two_valued(self):
        dense = basis_set("walsh-hadamard", 8, 4, range(32)).dense()
        for idx in (3, 17, 30):
            np.testing.assert_allclose(np.abs(dense[idx]), 32 ** -0.5, atol=1e-14)

    @pytest.mark.parametrize("kind", ["walsh-hadamard", "noiselet"])
    def test_rows_match_dense_2d_kronecker_oracle(self, kind):
        for width, height in ((4, 4), (8, 4)):
            oracle = dense_transform_2d(width, height, kind)
            n = width * height
            order = np.random.default_rng(n).permutation(n)
            dense = basis_set(kind, width, height, order).dense()
            assert dense.dtype == (np.complex128 if kind == "noiselet" else np.float64)
            for i, idx in enumerate(order):
                assert np.abs(dense[i] - oracle[idx]).max() < 1e-12

    def test_wh_dense_keeps_dtype(self):
        dense = basis_set("walsh-hadamard", 8, 4, range(32)).dense(np.float32)
        assert dense.dtype == np.float32

    def test_2d_transform_matches_dense(self, rng):
        x = rng.standard_normal((4, 8))
        dense = dense_transform_2d(8, 4, "noiselet")
        np.testing.assert_allclose(noiselet2(x).ravel(), dense @ x.ravel(), atol=1e-12)
        densew = dense_transform_2d(8, 4, "walsh-hadamard")
        np.testing.assert_allclose(wht2(x).ravel(), densew @ x.ravel(), atol=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            basis_set("walsh-hadamard", 4, 4, [0, 16])


class TestBinarize:
    def test_all_negative_gives_zeros(self):
        assert not binarize(-np.ones((3, 3))).any()

    def test_zeros_tie_to_one(self):
        assert binarize(np.zeros((2, 2))).all()

    @settings(max_examples=30, deadline=None)
    @given(arrays(np.float64, (4, 4), elements=st.floats(-5, 5)))
    def test_sign_antisymmetry(self, grid):
        nz = grid != 0
        a = binarize(grid)
        b = binarize(-grid)
        assert np.array_equal(a[nz], 1 - b[nz])


def _dense_path_pattern(p, seed, width, height):
    """gen_morlet_pattern before the separable spectrum: the full complex
    wavelet grid, normalized, then its rfft2 as the kernel spectrum. The
    noise spectrum is the generator's own draw."""
    dx, dy = np.meshgrid(np.arange(width) - (width - 1) / 2.0,
                         np.arange(height) - (height - 1) / 2.0)
    env = np.exp(-(dx * dx + dy * dy) / (2.0 * p.sigma * p.sigma))
    freq = np.pi * p.n_p / (2.0 * p.sigma)
    carrier = np.exp(1j * freq * (dx * np.cos(p.theta) + dy * np.sin(p.theta)))
    g = env * (carrier - (env * carrier).sum() / env.sum())
    kernel_hat = np.fft.rfft2(np.fft.ifftshift((g / np.linalg.norm(g)).real))
    noise_hat = white_noise_spectra([seed], width, height)[0]
    pattern = np.fft.irfft2(noise_hat * kernel_hat, s=(height, width))
    return pattern / np.linalg.norm(pattern)


class TestWhiteNoiseSpectrum:
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("width,height", [(16, 16), (15, 12)])
    def test_round_trip_power_is_flat(self, width, height, dtype):
        # irfft2 keeps only the Hermitian part of column 0 and of the even-width
        # Nyquist column; without their sqrt(2) they read ~0.5 of the interior.
        # 20000 draws put the relative standard error of a bin at <= 1%
        spec = white_noise_spectra(range(20000), width, height, dtype=dtype)
        assert spec.dtype == dtype
        kept = np.fft.rfft2(np.fft.irfft2(spec, s=(height, width)))
        power = (np.abs(kept) ** 2).mean(axis=0)
        interior = power[:, 1:(width - 1) // 2 + 1].mean()
        assert np.abs(power / interior - 1.0).max() < 0.05


    @pytest.mark.parametrize("dtype,rtol", [(np.complex128, 1e-15), (np.complex64, 1e-6)])
    @pytest.mark.parametrize("width,height", [(16, 12), (15, 12)])
    def test_support_gets_the_first_normals_of_the_full_draw(self, width, height, dtype,
                                                            rtol):
        full = white_noise_spectra([5, 6], width, height, dtype=dtype)
        support = np.random.default_rng(1).random(full.shape) < 0.3
        part = white_noise_spectra([5, 6], width, height, support, dtype)
        assert part.dtype == dtype and not part[~support].any()
        scale = np.ones(full.shape[1:])       # the sqrt(2) of column 0 and Nyquist
        scale[:, 0] = np.sqrt(2.0)
        if width % 2 == 0:
            scale[:, -1] = np.sqrt(2.0)
        for r in range(2):
            drawn = (full[r] / scale).ravel()[:np.count_nonzero(support[r])]
            np.testing.assert_allclose(part[r][support[r]] / scale[support[r]], drawn,
                                       rtol=rtol)
        everywhere = white_noise_spectra([5, 6], width, height,
                                         np.ones(full.shape, bool), dtype)
        assert np.array_equal(everywhere, full)


class TestMorletPattern:
    P = MorletParams(sigma=3.0, n_p=2.0, theta=0.9)

    @pytest.mark.parametrize("width,height", [(64, 64), (37, 50), (50, 37)])
    def test_matches_dense_path_oracle(self, width, height):
        dist = ParamDistribution.default_for(width, height)
        rng = np.random.default_rng(width * height)
        for seed in range(1, 31):
            p = dist.sample(rng)
            pat = gen_morlet_pattern(p, seed, width, height)
            ref = _dense_path_pattern(p, seed, width, height)
            assert np.abs(pat - ref).max() <= 1e-14
            if width == height == 64:
                assert np.array_equal(binarize(pat), binarize(ref))

    def test_deterministic(self):
        a = gen_morlet_pattern(self.P, 42, 32, 32)
        b = gen_morlet_pattern(self.P, 42, 32, 32)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, gen_morlet_pattern(self.P, 43, 32, 32))

    def test_zero_mean_and_unit_norm(self):
        pat = gen_morlet_pattern(self.P, 7, 64, 64)
        assert abs(pat.mean()) < 1e-10
        assert abs(np.linalg.norm(pat) - 1.0) < 1e-12

    def test_ensemble_power_spectrum_matches_kernel_oracle(self):
        # oracle: |DFT(Re g)|^2 from morlet_wavelet directly
        from spisim.wavelets import morlet_wavelet

        w = h = 32
        kernel = np.fft.ifftshift(morlet_wavelet(self.P, w, h).real)
        oracle = np.abs(np.fft.fft2(kernel)) ** 2
        acc = np.zeros((h, w))
        for seed in range(200):
            pat = gen_morlet_pattern(self.P, seed, w, h)
            acc += np.abs(np.fft.fft2(pat)) ** 2
        acc /= acc.sum()
        oracle /= oracle.sum()

        fy = np.fft.fftfreq(h)[:, None]
        fx = np.fft.fftfreq(w)[None, :]
        r = np.sqrt(fx * fx + fy * fy)
        edges = np.linspace(0, 0.5, 9)
        for lo, hi in zip(edges[:-1], edges[1:]):
            band = (r >= lo) & (r < hi)
            ref = oracle[band].sum()
            if ref < 5e-3:  # relative error is meaningless on empty bands
                continue
            assert abs(acc[band].sum() - ref) / ref < 0.10

    def test_single_realization_autocorrelation_matches_kernel(self):
        from spisim.wavelets import morlet_wavelet

        w = h = 256
        p = MorletParams(sigma=3.0, n_p=2.0, theta=0.4)
        pat = gen_morlet_pattern(p, 11, w, h)
        emp = np.fft.ifft2(np.abs(np.fft.fft2(pat)) ** 2).real
        emp /= emp[0, 0]
        kernel = np.fft.ifftshift(morlet_wavelet(p, w, h).real)
        ref = np.fft.ifft2(np.abs(np.fft.fft2(kernel)) ** 2).real
        ref /= ref[0, 0]
        lag = int(2 * p.sigma)
        sl = np.r_[0:lag + 1, w - lag:w]
        assert np.abs(emp[np.ix_(sl, sl)] - ref[np.ix_(sl, sl)]).max() < 0.10


class TestParamDistribution:
    def test_ranges_validated(self):
        with pytest.raises(ValueError):
            ParamDistribution(sigma_range=(3.0, 2.0))
        with pytest.raises(ValueError):
            ParamDistribution(sigma_range=(0.5, 1.0), np_range=(3.0, 4.0))

    def test_sampling_respects_guard(self, rng):
        dist = ParamDistribution(sigma_range=(0.5, 4.0), np_range=(0.5, 4.0))
        for _ in range(200):
            p = dist.sample(rng)
            assert p.n_p <= 2 * p.sigma
            assert 0.5 <= p.sigma <= 4.0
            assert 0 <= p.theta < np.pi


class TestGenPatternSet:
    def test_wh_2x2_full_is_permutation_of_basis(self):
        ps = gen_pattern_set("walsh-hadamard", 2, 2, 4, master_seed=5)
        dense = ps.dense()
        oracle = dense_transform_2d(2, 2, "walsh-hadamard")
        perm = sorted(ps.row_meta)
        assert perm == [0, 1, 2, 3]
        for i, idx in enumerate(ps.row_meta):
            np.testing.assert_allclose(dense[i], oracle[idx], atol=1e-14)

    def test_binary_row0_all_ones(self):
        ps = gen_pattern_set("morlet-binary", 16, 16, 8, master_seed=1)
        assert ps.dense()[0].min() == 1.0
        assert ps.row_meta[0].is_constant

    def test_rows_are_held_once(self):
        # a row list followed by np.stack peaked at 2.2x the rows
        tracemalloc.start()
        try:
            ps = gen_pattern_set("morlet-real", 64, 64, 400, master_seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * ps.rows.nbytes

    @staticmethod
    def _rows_made_alone(ps):
        """ps's payload rebuilt one row at a time: gen_morlet_pattern for
        morlet-real rows, the signs of the binary synthesis for morlet-binary
        rows."""
        def alone(m):
            p = MorletParams(m.sigma, m.n_p, m.theta)
            if ps.is_binary:
                return patterns._morlet_patterns([p], [m.seed], ps.width, ps.height,
                                                 binary=True)[0].ravel()
            return gen_morlet_pattern(p, m.seed, ps.width, ps.height).ravel()
        grids = np.stack([np.full(ps.n, ps.n ** -0.5)] + [alone(m) for m in ps.row_meta[1:]])
        if ps.is_binary:
            return np.packbits(binarize(grids), axis=1, bitorder="little")
        return grids.astype(ps.row_dtype)

    @pytest.mark.parametrize("kind", ["morlet-real", "morlet-binary"])
    @pytest.mark.parametrize("width,height,k,unpack_bytes,blocks", [
        (15, 9, 12, 3 * 8 * 15 * 9, [3, 3, 3, 2]),
        (128, 128, 18, None, [8, 8, 1]),             # the default 1 MB blocks
    ], ids=["15x9-blocks-of-3", "128x128-default"])
    def test_rows_made_by_blocks_equal_rows_made_alone(self, monkeypatch, kind, width,
                                                       height, k, unpack_bytes, blocks):
        if unpack_bytes is not None:
            monkeypatch.setattr(patterns, "_UNPACK_BYTES", unpack_bytes)
        n = width * height
        assert [sl.stop - sl.start for sl in patterns._row_blocks(k - 1, 8 * n)] == blocks
        ps = gen_pattern_set(kind, width, height, k, master_seed=6)
        assert np.array_equal(ps.rows, self._rows_made_alone(ps))

    def test_float32_rows_made_by_blocks_equal_rows_made_alone(self, monkeypatch):
        monkeypatch.setattr(patterns, "_UNPACK_BYTES", 3 * 8 * 15 * 9)
        monkeypatch.setattr(patterns, "_DENSE_LIMIT", 0)
        ps = gen_pattern_set("morlet-real", 15, 9, 12, master_seed=6)
        assert ps.rows.dtype == np.float32
        assert np.array_equal(ps.rows, self._rows_made_alone(ps))

    @pytest.mark.parametrize("kind", ["morlet-real", "morlet-binary"])
    def test_rows_below_8_sigma_warn_and_equal_rows_made_alone(self, kind):
        dist = ParamDistribution(sigma_range=(2.0, 6.0))
        with pytest.warns(UserWarning, match=r"below 8\*sigma"):
            ps = gen_pattern_set(kind, 16, 16, 20, dist=dist, master_seed=6)
        assert max(m.sigma for m in ps.row_meta) > 2.0
        with pytest.warns(UserWarning, match=r"below 8\*sigma"):
            alone = self._rows_made_alone(ps)
        assert np.array_equal(ps.rows, alone)

    @pytest.mark.filterwarnings("ignore:grid .* is below 8:UserWarning")
    @pytest.mark.parametrize("binary,dtype", [(False, np.float64), (True, np.float32)])
    def test_degenerate_row_in_a_block_raises(self, binary, dtype):
        # theta = 0 puts the carrier on the one-pixel axis, where kappa
        # cancels it (test_wavelets' constant-carrier case)
        good, bad = MorletParams(2.0, 1.0, 0.7), MorletParams(2.0, 1.0, 0.0)
        fields = patterns._morlet_patterns([good, good], [1, 3], 1, 16, binary)
        assert fields.shape == (2, 16, 1) and fields.dtype == dtype
        with pytest.raises(ValueError, match="degenerate"):
            patterns._morlet_patterns([good, bad, good], [1, 2, 3], 1, 16, binary)

    @pytest.mark.parametrize("binary", [False, True])
    def test_zero_or_non_finite_field_raises(self, monkeypatch, binary):
        # a kernel spectrum that is zero, or NaN, for one row of a block
        real_spectra = patterns.morlet_spectra
        for bad in (0.0, np.nan):
            def spectra(params, width, height, bad=bad):
                psi = real_spectra(params, width, height)
                psi[1] = bad
                return psi
            monkeypatch.setattr(patterns, "morlet_spectra", spectra)
            with pytest.raises(ValueError, match="degenerate pattern"):
                patterns._morlet_patterns([TestMorletPattern.P] * 3, [1, 2, 3], 32, 32, binary)

    # (width, height, master_seed) of the rows whose dropped bins are checked
    @pytest.mark.parametrize("width,height,seed", [(64, 64, 1), (64, 64, 2), (128, 128, 3)])
    def test_dropped_bins_carry_at_most_eps32_of_the_energy(self, width, height, seed):
        # the binary noise is drawn only where |psi| >= tau max|psi|; the
        # expected energy of the field is the sum over full-plane bins of
        # |psi|^2 (every bin has the power of real white noise), and a
        # half-plane column other than 0 and the even-width Nyquist column
        # stands for two full-plane bins
        n = width * height
        tau = np.finfo(np.float32).eps / np.sqrt(n)
        dist = ParamDistribution.default_for(width, height)
        twice = np.full(width // 2 + 1, 2.0)
        twice[0] = 1.0
        if width % 2 == 0:
            twice[-1] = 1.0
        shares, kept = [], []
        for i in range(1, 7):
            params, meta = patterns._morlet_row(dist, seed, i)
            power = np.abs(patterns.morlet_spectra([params], width, height)[0]) ** 2
            support = power >= tau * tau * power.max()
            # the field's spectrum is zero exactly off the support
            field = patterns._morlet_patterns([params], [meta.seed], width, height,
                                              binary=True)[0]
            spec = np.fft.rfft2(field.astype(np.float64))
            assert np.abs(spec[~support]).max() <= 1e-5 * np.abs(spec).max()
            shares.append((twice * power)[~support].sum() / (twice * power).sum())
            kept.append(support.mean())
        assert max(shares) <= np.finfo(np.float32).eps ** 2
        assert max(kept) < 1.0      # every row checked drops some bins

    def test_deterministic_bytes(self, tmp_path):
        for kind in ("morlet-real", "morlet-binary", "walsh-hadamard", "noiselet"):
            a = gen_pattern_set(kind, 8, 8, 6, master_seed=9)
            b = gen_pattern_set(kind, 8, 8, 6, master_seed=9)
            a.save(tmp_path / "a.spip")
            b.save(tmp_path / "b.spip")
            assert (tmp_path / "a.spip").read_bytes() == (tmp_path / "b.spip").read_bytes()
            assert a.content_hash() == b.content_hash()

    def test_seed_changes_bytes(self, tmp_path):
        a = gen_pattern_set("morlet-real", 8, 8, 6, master_seed=9)
        b = gen_pattern_set("morlet-real", 8, 8, 6, master_seed=10)
        assert a.content_hash() != b.content_hash()

    def test_deterministic_full_sets_are_orthonormal(self):
        # dense k = n set satisfies M M* = I
        ps = gen_pattern_set("walsh-hadamard", 4, 4, 16, master_seed=2)
        m = ps.dense()
        assert np.abs(m @ m.T - np.eye(16)).max() < 1e-10
        psn = gen_pattern_set("noiselet", 4, 4, 16, master_seed=2)
        mn = psn.dense()
        assert np.abs(mn @ mn.conj().T - np.eye(16)).max() < 1e-10

    def test_binary_fraction_of_ones_in_band(self):
        ps = gen_pattern_set("morlet-binary", 64, 64, 40, master_seed=3)
        dense = ps.dense()
        frac = dense[1:].mean(axis=1)  # constant row excluded
        assert frac.min() >= 0.35 and frac.max() <= 0.65

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            gen_pattern_set("walsh-hadamard", 4, 4, 17)
        with pytest.raises(ValueError):
            gen_pattern_set("morlet-binary", 4, 4, 1)

    def test_wh_requires_power_of_two(self):
        with pytest.raises(ValueError):
            gen_pattern_set("walsh-hadamard", 10, 10, 4)


# SHA-256 of the SPIP bytes, and of the measured values of a fixed image, of
# morlet-real sets at 128^2 and 256^2 and a morlet-binary set at 256^2; run in
# a fresh interpreter so that the thread count is set before numpy loads
_THREAD_PROBE = """
import hashlib, tempfile
import numpy as np
from spisim.acquire import measure
from spisim.imgcore import Image
from spisim.patterns import gen_pattern_set
with tempfile.TemporaryDirectory() as tmp:
    for kind, size, k in (("morlet-real", 128, 983), ("morlet-real", 256, 300),
                          ("morlet-binary", 256, 300)):
        ps = gen_pattern_set(kind, size, size, k, master_seed=5)
        ps.save(tmp + "/p.spip")
        with open(tmp + "/p.spip", "rb") as fh:
            print(hashlib.sha256(fh.read()).hexdigest())
        img = Image(np.random.default_rng(size).random((size, size)))
        print(hashlib.sha256(measure(img, ps).values.tobytes()).hexdigest())
"""


def test_spip_and_spim_bytes_do_not_depend_on_blas_threads():
    # 128^2 rows are above OpenBLAS's threading threshold for a dot product
    # (v5 moved 319 of these 983 rows by an ulp between 1 and 2 threads);
    # 256^2 also runs the stacked spectrum product of a block of two rows,
    # whose magnitudes decide which bins of a binary row draw noise
    src = str(Path(patterns.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.split())
    assert len(digests[0]) == 6 and digests[0] == digests[1]


class TestSerialization:
    @pytest.mark.parametrize("kind", ["morlet-real", "morlet-binary",
                                      "walsh-hadamard", "noiselet"])
    def test_spip_roundtrip(self, kind, tmp_path):
        ps = gen_pattern_set(kind, 8, 4, 5, master_seed=21)
        ps.save(tmp_path / "p.spip")
        back = load_pattern_set(tmp_path / "p.spip")
        assert back.kind == ps.kind
        assert (back.width, back.height, back.k) == (ps.width, ps.height, ps.k)
        assert back.row_meta == ps.row_meta
        assert back.content_hash() == ps.content_hash()
        if kind == "noiselet":
            np.testing.assert_allclose(back.dense(), ps.dense(), atol=0)
        else:
            assert np.array_equal(back.dense(), ps.dense())

    @pytest.mark.parametrize("kind", ["morlet-real", "morlet-binary",
                                      "walsh-hadamard", "noiselet"])
    def test_wrong_length_is_a_format_error(self, kind, tmp_path):
        gen_pattern_set(kind, 8, 4, 5, master_seed=21).save(tmp_path / "p.spip")
        raw = (tmp_path / "p.spip").read_bytes()
        for bad in (raw[:-1], raw + b"\0"):
            (tmp_path / "bad.spip").write_bytes(bad)
            with pytest.raises(FormatError, match="header says"):
                load_pattern_set(tmp_path / "bad.spip")

    @pytest.mark.parametrize("kind", list(SPIP_FLAGS))
    def test_flags_of_another_kind_are_a_format_error(self, kind, tmp_path):
        gen_pattern_set(kind, 8, 4, 5, master_seed=21).save(tmp_path / "p.spip")
        raw = bytearray((tmp_path / "p.spip").read_bytes())
        assert raw[FLAGS_BYTE] == SPIP_FLAGS[kind]
        for flags in set(SPIP_FLAGS.values()) - {SPIP_FLAGS[kind]}:
            raw[FLAGS_BYTE] = flags
            (tmp_path / "bad.spip").write_bytes(bytes(raw))
            with pytest.raises(FormatError, match="flags"):
                load_pattern_set(tmp_path / "bad.spip")

    @pytest.mark.parametrize("kind", list(SPIP_FLAGS))
    def test_kind_byte_of_another_layout_is_a_format_error(self, kind, tmp_path):
        gen_pattern_set(kind, 8, 4, 5, master_seed=21).save(tmp_path / "p.spip")
        raw = bytearray((tmp_path / "p.spip").read_bytes())
        for code, other in enumerate(SPIP_FLAGS):
            if SPIP_FLAGS[other] == SPIP_FLAGS[kind]:
                continue
            raw[6] = code  # kind byte after magic and version
            (tmp_path / "bad.spip").write_bytes(bytes(raw))
            with pytest.raises(FormatError, match="flags"):
                load_pattern_set(tmp_path / "bad.spip")

    @pytest.mark.parametrize("kind", list(SPIP_FLAGS))
    def test_empty_grid_is_a_format_error(self, kind, tmp_path):
        # width 0 with a payload-free file of the length that width implies
        gen_pattern_set(kind, 8, 4, 5, master_seed=21).save(tmp_path / "p.spip")
        raw = bytearray((tmp_path / "p.spip").read_bytes())
        struct.pack_into("<I", raw, 7, 0)
        meta = 8 if kind in ("walsh-hadamard", "noiselet") else 32
        (tmp_path / "p.spip").write_bytes(bytes(raw[:FLAGS_BYTE + 1 + 5 * meta]))
        with pytest.raises(FormatError, match="k = 5 rows for n = 0 pixels"):
            load_pattern_set(tmp_path / "p.spip")

    def test_basis_index_out_of_range(self, tmp_path):
        gen_pattern_set("walsh-hadamard", 8, 4, 5, master_seed=21).save(tmp_path / "p.spip")
        raw = bytearray((tmp_path / "p.spip").read_bytes())
        raw[28:36] = (32).to_bytes(8, "little")  # first row index := n
        (tmp_path / "p.spip").write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="basis row indices"):
            load_pattern_set(tmp_path / "p.spip")

    def test_bitpacked_roundtrip_exact(self, tmp_path):
        ps = gen_pattern_set("morlet-binary", 10, 6, 7, master_seed=33)
        ps.save(tmp_path / "p.spip")
        back = load_pattern_set(tmp_path / "p.spip")
        assert np.array_equal(back.rows, ps.rows)
        assert back.rows.shape[1] == (60 + 7) // 8  # rows padded to byte boundary

    def test_bipolar_rows_matches_dense(self):
        ps = gen_pattern_set("morlet-binary", 16, 8, 9, master_seed=3)
        np.testing.assert_allclose(bipolar_rows(ps, dtype=np.float64),
                                   2.0 * ps.dense() - 1.0, atol=0)

    @pytest.mark.filterwarnings("ignore:grid .* is below 8:UserWarning")
    @pytest.mark.parametrize("width,height,k", [(5, 3, 7), (47, 45, 1200)])
    def test_bipolar_rows_ragged_bits_and_blocks(self, width, height, k):
        ps = gen_pattern_set("morlet-binary", width, height, k, master_seed=5)
        block = patterns._UNPACK_BYTES // ps.n
        assert ps.n % 8 and k % block  # a padded last byte, a short last block
        expected = 2.0 * ps.dense() - 1.0
        for dtype in (np.int8, np.float32, np.float64):
            out = bipolar_rows(ps, dtype=dtype)
            assert out.dtype == dtype
            assert np.array_equal(out, expected)

    @pytest.mark.filterwarnings("ignore:grid .* is below 8:UserWarning")
    @pytest.mark.parametrize("dtype", [np.int8, np.float32, np.float64])
    def test_bipolar_rows_by_column_blocks(self, monkeypatch, dtype):
        # blocks of 3 byte columns (24 pixels); the last block is cut at n
        ps = gen_pattern_set("morlet-binary", 47, 5, 13, master_seed=5)
        monkeypatch.setattr(patterns, "_UNPACK_BYTES", 3 * 8 * ps.k)
        out = bipolar_rows(ps, dtype=dtype)
        assert ps.n % 24 and out.dtype == dtype and out.T.flags.c_contiguous
        assert np.array_equal(out, 2.0 * ps.dense() - 1.0)

    def test_version_1_file_is_a_format_error(self, tmp_path):
        # v1 rows came from the dense wavelet grid and differ in the last ulp
        gen_pattern_set("morlet-binary", 8, 4, 5, master_seed=21).save(tmp_path / "p.spip")
        raw = bytearray((tmp_path / "p.spip").read_bytes())
        assert struct.unpack_from("<H", raw, 4) == (7,)
        struct.pack_into("<H", raw, 4, 1)
        (tmp_path / "p.spip").write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="unsupported SPIP version 1"):
            load_pattern_set(tmp_path / "p.spip")

    def test_version_2_file_is_a_format_error(self, tmp_path):
        # v2 held morlet-real rows above _DENSE_LIMIT entries in float64
        gen_pattern_set("morlet-real", 8, 4, 5, master_seed=21).save(tmp_path / "p.spip")
        raw = bytearray((tmp_path / "p.spip").read_bytes())
        struct.pack_into("<H", raw, 4, 2)
        (tmp_path / "p.spip").write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="unsupported SPIP version 2"):
            load_pattern_set(tmp_path / "p.spip")

    def test_version_3_file_is_a_format_error(self, tmp_path):
        # v3 rows came from a noise grid and its forward rfft2
        gen_pattern_set("morlet-binary", 8, 4, 5, master_seed=21).save(tmp_path / "p.spip")
        raw = bytearray((tmp_path / "p.spip").read_bytes())
        struct.pack_into("<H", raw, 4, 3)
        (tmp_path / "p.spip").write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="unsupported SPIP version 3"):
            load_pattern_set(tmp_path / "p.spip")

    def test_version_4_file_is_a_format_error(self, tmp_path):
        # v4 stored morlet-real rows row-major as f8 whatever their dtype
        gen_pattern_set("morlet-real", 8, 4, 5, master_seed=21).save(tmp_path / "p.spip")
        raw = bytearray((tmp_path / "p.spip").read_bytes())
        struct.pack_into("<H", raw, 4, 4)
        (tmp_path / "p.spip").write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="unsupported SPIP version 4"):
            load_pattern_set(tmp_path / "p.spip")

    def test_version_5_file_is_a_format_error(self, tmp_path):
        # v5 normalized morlet-real rows by a BLAS dot product, whose bits
        # depend on the thread count
        gen_pattern_set("morlet-real", 8, 4, 5, master_seed=21).save(tmp_path / "p.spip")
        raw = bytearray((tmp_path / "p.spip").read_bytes())
        struct.pack_into("<H", raw, 4, 5)
        (tmp_path / "p.spip").write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="unsupported SPIP version 5"):
            load_pattern_set(tmp_path / "p.spip")

    def test_version_6_file_is_a_format_error(self, tmp_path):
        # v6 morlet-binary rows were the signs of the unit-norm float64
        # morlet-real rows, with noise drawn on every bin
        gen_pattern_set("morlet-binary", 8, 4, 5, master_seed=21).save(tmp_path / "p.spip")
        raw = bytearray((tmp_path / "p.spip").read_bytes())
        struct.pack_into("<H", raw, 4, 6)
        (tmp_path / "p.spip").write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="unsupported SPIP version 6"):
            load_pattern_set(tmp_path / "p.spip")

    @pytest.mark.parametrize("unpack_bytes", [1 << 20, 3 * 8 * 17 * 17],
                             ids=["one-block", "blocks-of-3-rows"])
    @pytest.mark.parametrize("name", sorted(SPIP_DIGESTS))
    def test_saved_bytes_are_pinned(self, tmp_path, monkeypatch, name, unpack_bytes):
        kind = name.removesuffix("-float64").removesuffix("-float32")
        monkeypatch.setattr(patterns, "_DENSE_LIMIT", 0 if name.endswith("32") else 1 << 25)
        monkeypatch.setattr(patterns, "_UNPACK_BYTES", unpack_bytes)
        ps = gen_pattern_set(kind, 17, 17, 11, master_seed=6)
        ps.save(tmp_path / "a.spip")
        raw = (tmp_path / "a.spip").read_bytes()
        assert hashlib.sha256(raw).hexdigest() == SPIP_DIGESTS[name]
        load_pattern_set(tmp_path / "a.spip").save(tmp_path / "b.spip")
        assert (tmp_path / "b.spip").read_bytes() == raw

    @pytest.mark.parametrize("limit", [1 << 25, 0], ids=["float64", "float32"])
    def test_morlet_real_payload_is_version_6s(self, tmp_path, monkeypatch, limit):
        # version 7 changed only morlet-binary rows: a morlet-real payload is
        # the v6 generator's rows, rebuilt here from the full-plane noise draw,
        # the kernel spectrum, one irfft2 and the einsum norm of each row
        monkeypatch.setattr(patterns, "_DENSE_LIMIT", limit)
        ps = gen_pattern_set("morlet-real", 17, 17, 11, master_seed=6)
        ps.save(tmp_path / "p.spip")
        payload = (tmp_path / "p.spip").read_bytes()[FLAGS_BYTE + 1 + 11 * 32:]
        params = [MorletParams(m.sigma, m.n_p, m.theta) for m in ps.row_meta[1:]]
        spec = white_noise_spectra([m.seed for m in ps.row_meta[1:]], 17, 17)
        spec *= patterns.morlet_spectra(params, 17, 17)
        v6 = np.fft.irfft2(spec, s=(17, 17))
        v6 /= np.sqrt([np.einsum("ij,ij->", g, g) for g in v6])[:, None, None]
        v6 = np.concatenate([np.full((1, 289), 289 ** -0.5), v6.reshape(10, 289)])
        assert payload == np.ascontiguousarray(v6.T, ps.row_dtype).tobytes()

    @pytest.mark.parametrize("limit", [1 << 25, 0])
    def test_morlet_real_rows_are_column_major(self, tmp_path, monkeypatch, limit):
        monkeypatch.setattr(patterns, "_DENSE_LIMIT", limit)
        monkeypatch.setattr(patterns, "_UNPACK_BYTES", 3 * 8 * 17 * 17)
        ps = gen_pattern_set("morlet-real", 17, 17, 11, master_seed=6)
        ps.save(tmp_path / "p.spip")
        back = load_pattern_set(tmp_path / "p.spip")
        for rows in (ps.rows, back.rows):
            assert rows.flags.f_contiguous and rows.dtype == ps.row_dtype
        assert np.array_equal(back.rows, ps.rows)

    def test_save_and_load_hold_the_rows_once(self, tmp_path):
        # save wrote .tobytes() of the payload (1.00x the rows); load read the
        # whole file and copied the payload out of it (2.01x)
        ps = gen_pattern_set("morlet-real", 64, 64, 400, master_seed=2)
        path = tmp_path / "p.spip"
        tracemalloc.start()
        try:
            ps.save(path)
            _, save_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            back = load_pattern_set(path)
            _, load_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert save_peak <= 0.2 * ps.rows.nbytes
        assert load_peak <= 1.2 * ps.rows.nbytes
        assert np.array_equal(back.rows, ps.rows)

    def test_morlet_real_rows_held_in_row_dtype(self, monkeypatch, tmp_path):
        below = gen_pattern_set("morlet-real", 16, 8, 9, master_seed=4)
        assert below.row_dtype == below.rows.dtype == np.float64
        monkeypatch.setattr(patterns, "_DENSE_LIMIT", 9 * 128 - 1)
        above = gen_pattern_set("morlet-real", 16, 8, 9, master_seed=4)
        assert above.row_dtype == above.rows.dtype == np.float32
        assert np.array_equal(above.rows, below.rows.astype(np.float32))
        assert gen_pattern_set("morlet-binary", 16, 8, 9).row_dtype == np.int8
        assert gen_pattern_set("noiselet", 16, 8, 9).row_dtype == np.float64
        # the payload is the rows in their dtype
        above.save(tmp_path / "p.spip")
        size = (tmp_path / "p.spip").stat().st_size
        assert size == 28 + 9 * (32 + 4 * 128)
        back = load_pattern_set(tmp_path / "p.spip")
        assert back.rows.dtype == np.float32
        assert np.array_equal(back.rows, above.rows)

    def test_content_hash_names_the_generator_version(self, monkeypatch):
        ps = gen_pattern_set("morlet-binary", 8, 4, 5, master_seed=21)
        v2 = ps.content_hash()
        monkeypatch.setattr(patterns, "SPIP_VERSION", 1)
        assert ps.content_hash() != v2


# (kind, width, height, k, row dtype): above 2^25 entries morlet-real takes
# float32 and morlet-binary int8; below it, binary sets above 2^22 entries
# with 8 k <= n take float32, and everything else float64
ROW_DTYPE_TABLE = [
    ("morlet-binary", 128, 128, 256, np.float64),    # k n = 2^22 exactly
    ("morlet-binary", 128, 128, 257, np.float32),    # first k above 2^22
    ("morlet-binary", 64, 64, 1100, np.float64),     # 8 k > n
    ("morlet-binary", 128, 64, 1024, np.float32),    # 8 k = n
    ("morlet-binary", 128, 64, 1025, np.float64),    # 8 k > n, below 2^25
    # the binary sets of acceptance criterion 8
    ("morlet-binary", 16, 16, 16, np.float64),
    ("morlet-binary", 32, 32, 40, np.float64),
    ("morlet-binary", 32, 64, 64, np.float64),
    ("morlet-binary", 64, 64, 128, np.float64),
    ("morlet-binary", 64, 64, 512, np.float64),
    ("morlet-binary", 256, 256, 655, np.int8),       # above 2^25
    ("morlet-binary", 256, 256, 512, np.float32),    # k n = 2^25 exactly
    ("morlet-binary", 256, 256, 513, np.int8),       # k n = 2^25 + n
    ("morlet-real", 128, 128, 983, np.float64),      # real rows: 2^25 rule only
]


@pytest.mark.parametrize("kind, width, height, k, dtype", ROW_DTYPE_TABLE,
                         ids=[f"{r[0]}-{r[1]}x{r[2]}-k{r[3]}" for r in ROW_DTYPE_TABLE])
def test_row_dtype_rule(kind, width, height, k, dtype, tmp_path):
    # row_dtype reads only the kind and shape, so the rows are zeros
    n = width * height
    rows = (np.zeros((k, (n + 7) // 8), np.uint8) if kind == "morlet-binary"
            else np.zeros((k, n), dtype, order="F"))
    ps = PatternSet(kind, width, height, k, 1, (patterns.MorletRowMeta.CONSTANT,) * k, rows)
    assert ps.row_dtype == dtype
    ps.save(tmp_path / "p.spip")
    back = load_pattern_set(tmp_path / "p.spip")
    assert back.row_dtype == dtype
    if kind == "morlet-real":
        assert back.rows.dtype == dtype


def test_splitmix64_is_stable():
    # frozen reference values of the splitmix64 output function
    assert splitmix64(0, 0) == 0xE220A8397B1DCDAF
    assert splitmix64(0, 1) == 0x6E789E6AA1B965F4
    assert splitmix64(12345, 0) != splitmix64(12345, 1)
