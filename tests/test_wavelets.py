import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spisim.patterns import gen_morlet_pattern
from spisim.wavelets import (MorletParams, _morlet_factor_block, morlet_spectra,
                             morlet_wavelet)

# closed-form continuous limit of the zero-mean constant at n_p = 1,
# exp(-(pi/2)^2/2), confirmed by fine-grid quadrature
KAPPA_NP1 = 0.29121293321402086


def morlet_strategy(max_sigma=6.0):
    def build(sigma, np_frac, theta):
        n_p = 0.3 + np_frac * (min(4.0, 2.0 * sigma) - 0.3)
        return MorletParams(sigma=sigma, n_p=n_p, theta=theta)

    return st.builds(
        build,
        sigma=st.floats(0.8, max_sigma),
        np_frac=st.floats(0.0, 1.0),
        theta=st.floats(0.0, np.pi, exclude_max=True),
    )


class TestMorlet:
    @settings(max_examples=60, deadline=None)
    @given(p=morlet_strategy())
    def test_zero_mean_unit_norm(self, p):
        g = morlet_wavelet(p, 64, 64)
        assert abs(g.mean()) < 1e-14
        assert abs(np.linalg.norm(g) - 1.0) < 1e-12

    def test_wavelet_is_a_read_only_complex_grid(self):
        g = morlet_wavelet(MorletParams(4.0, 2.0, 0.3), 24, 16)
        assert g.shape == (16, 24) and g.dtype == np.complex128
        assert g.flags.c_contiguous and not g.flags.writeable

    def test_continuous_limit_zero_mean_constant(self):
        p = MorletParams(sigma=16.0, n_p=1.0, theta=0.3)
        kappa = _morlet_factor_block([p], 512, 512)[4][0]
        assert abs(kappa - KAPPA_NP1) < 1e-9

    def test_theta_zero_reflection_symmetry(self):
        g = morlet_wavelet(MorletParams(4.0, 2.0, 0.0), 33, 33)
        np.testing.assert_allclose(g, g[::-1, :], atol=1e-12)

    def test_rotation_consistency(self):
        g0 = morlet_wavelet(MorletParams(4.0, 2.0, 0.0), 32, 32)
        g90 = morlet_wavelet(MorletParams(4.0, 2.0, np.pi / 2), 32, 32)
        assert np.abs(g90 - g0.T).max() < 1e-10

    def test_aliasing_guard(self):
        with pytest.raises(ValueError, match="aliasing"):
            MorletParams(sigma=1.0, n_p=3.0, theta=0.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MorletParams(sigma=-1.0, n_p=1.0, theta=0.0)
        with pytest.raises(ValueError):
            MorletParams(sigma=2.0, n_p=0.0, theta=0.0)
        with pytest.raises(ValueError):
            MorletParams(sigma=2.0, n_p=1.0, theta=np.pi)

    def test_truncation_warning(self):
        with pytest.warns(UserWarning, match="8\\*sigma"):
            morlet_wavelet(MorletParams(sigma=8.0, n_p=1.0, theta=0.0), 32, 32)

    @pytest.mark.parametrize("make", [lambda p, w, h: morlet_spectra([p], w, h)[0],
                                      lambda p, w, h: _morlet_factor_block([p], w, h)[4],
                                      lambda p, w, h: gen_morlet_pattern(p, 1, w, h)],
                             ids=["spectrum", "kappa", "pattern"])
    def test_truncation_warning_on_every_path(self, make):
        with pytest.warns(UserWarning, match="8\\*sigma"):
            make(MorletParams(sigma=8.0, n_p=1.0, theta=0.0), 32, 32)

    @pytest.mark.parametrize("width,height", [(0, 8), (8, 0)])
    def test_empty_grid_is_refused(self, width, height):
        with pytest.raises(ValueError, match=f"grid must be at least 1x1, got {width}x{height}"):
            morlet_wavelet(MorletParams(sigma=2.0, n_p=1.0, theta=0.0), width, height)

    @pytest.mark.filterwarnings("ignore:grid .* is below 8:UserWarning")
    @pytest.mark.parametrize("width,height,theta", [(1, 16, 0.0), (16, 1, np.pi / 2)])
    def test_constant_carrier_grid_is_degenerate(self, width, height, theta):
        # the carrier varies along the one-pixel axis only, so kappa cancels
        # it and rounding is all that is left; scaled to unit norm, that
        # rounding had |mean| 0.17 and 0.14
        p = MorletParams(sigma=2.0, n_p=1.0, theta=theta)
        for make in (morlet_wavelet, lambda p, w, h: morlet_spectra([p], w, h)[0]):
            with pytest.raises(ValueError, match="degenerate"):
                make(p, width, height)
        with pytest.raises(ValueError, match="degenerate"):
            gen_morlet_pattern(p, 1, width, height)

    @pytest.mark.filterwarnings("ignore:grid .* is below 8:UserWarning")
    @pytest.mark.parametrize("width,height,theta", [(2, 8, 0.0), (2, 1, 0.7)])
    def test_vanishing_real_part_is_degenerate_for_patterns(self, width, height, theta):
        # a two-pixel axis under a carrier symmetric about the center leaves
        # Re g = 0; the pattern used to be normalized rounding noise with
        # mean 0.24 and -0.71
        p = MorletParams(sigma=2.0, n_p=1.0, theta=theta)
        assert np.linalg.norm(morlet_wavelet(p, width, height).real) < 1e-13
        with pytest.raises(ValueError, match="degenerate"):
            gen_morlet_pattern(p, 1, width, height)


class TestMorletSpectrum:
    @pytest.mark.filterwarnings("ignore:grid .* is below 8:UserWarning")
    @settings(max_examples=300, deadline=None)
    @given(p=morlet_strategy(), width=st.integers(1, 40), height=st.integers(1, 40))
    @example(p=MorletParams(2.0, 1.5, 0.7), width=1, height=1)
    @example(p=MorletParams(2.0, 1.5, 0.7), width=40, height=40)
    @example(p=MorletParams(3.0, 2.0, 1.2), width=7, height=12)
    @example(p=MorletParams(3.0, 2.0, 2.5), width=40, height=1)
    @example(p=MorletParams(1.0, 0.3, 1.192092896e-07), width=1, height=3)
    @example(p=MorletParams(1.0, 0.3, 0.03125), width=1, height=3)
    def test_proportional_to_dense_wavelet_spectrum(self, p, width, height):
        try:
            g = morlet_wavelet(p, width, height)
        except ValueError:
            with pytest.raises(ValueError, match="degenerate"):
                morlet_spectra([p], width, height)[0]
            return
        # Re g is a difference of terms of size ||ex|| ||ey||, so its rounding
        # is eps at that scale, however far Re g itself has cancelled
        a, b, ex, ey, kappa = (f[0] for f in _morlet_factor_block([p], width, height))
        g_norm = np.linalg.norm(np.outer(b, a) - kappa * np.outer(ey, ex))
        rounding = 16.0 * np.finfo(np.float64).eps * (width + height) \
            * np.linalg.norm(ex) * np.linalg.norm(ey)
        try:
            spec = morlet_spectra([p], width, height)[0]
        except ValueError:
            # only Re g may vanish where g does not
            assert np.linalg.norm(g.real) * g_norm <= 2.0 * rounding
            return
        ref = np.fft.rfft2(np.fft.ifftshift(g.real))
        assert spec.shape == ref.shape == (height, width // 2 + 1)
        scale = np.vdot(ref, spec).real / np.vdot(ref, ref).real
        assert scale > 0
        assert np.linalg.norm(spec - scale * ref) \
            <= 1e-12 * np.linalg.norm(spec) + np.sqrt(width * height) * rounding
