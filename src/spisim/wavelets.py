"""Discrete 2D Gabor filters and zero-mean unit-norm Morlet wavelets.

Both are generated on pixel grids. The Morlet wavelet is the zero-mean,
normalized variant of the Gabor filter; its correction constant and
normalization are computed on the discrete grid itself so that the discrete
mean is exactly zero and the discrete L2 norm exactly one, not just their
continuous-integral approximations. That matters downstream: any residual DC
component would leak into every sampling pattern built from the wavelet.

The Morlet envelope and carrier both factor over x and y, so the wavelet is
built from 1D vectors: with envelopes ex, ey and windowed carriers
a = ex e^{i f cos(theta) dx}, b = ey e^{i f sin(theta) dy},

    g = (b a^T - kappa ey ex^T) / ||.||,  kappa = (sum a)(sum b) / ((sum ex)(sum ey)),

and the discrete mean of g is zero because sum(b a^T) = (sum a)(sum b).
Pattern generation needs only the spectrum of Re g, a sum of three outer
products, whose 2D real FFT is a product of 1D FFTs (`morlet_spectrum`); no
n-sized exponential or 2D transform is evaluated for it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .imgcore import complex_grid


@dataclass(frozen=True)
class GaborParams:
    """Gabor filter parameters.

    x0, y0 : center, pixels
    a      : envelope scale, inverse pixels
    u0, v0 : modulation frequency, cycles/pixel (sub-Nyquist: |.| < 0.5)
    """

    x0: float
    y0: float
    a: float
    u0: float
    v0: float

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError(f"envelope scale a must be > 0, got {self.a}")
        if abs(self.u0) >= 0.5 or abs(self.v0) >= 0.5:
            raise ValueError(f"modulation ({self.u0}, {self.v0}) at or above Nyquist")


@dataclass(frozen=True)
class MorletParams:
    """Morlet wavelet parameters.

    sigma : Gaussian envelope std, pixels
    n_p   : number of modulation periods within the envelope (dimensionless)
    theta : modulation orientation, radians in [0, pi)

    The modulation frequency is pi*n_p/(2*sigma) rad/pixel along theta; the
    sub-Nyquist guard n_p <= 2*sigma keeps it at or below pi rad/pixel.
    """

    sigma: float
    n_p: float
    theta: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if not self.n_p > 0:
            raise ValueError(f"n_p must be > 0, got {self.n_p}")
        if not 0.0 <= self.theta < np.pi:
            raise ValueError(f"theta must be in [0, pi), got {self.theta}")
        if self.n_p > 2.0 * self.sigma:
            raise ValueError(
                f"aliasing guard violated: n_p={self.n_p} > 2*sigma={2.0 * self.sigma}"
            )


def gabor_filter(p: GaborParams, width: int, height: int):
    """Complex Gabor filter sampled at integer pixel centers, unit L2 norm."""
    if width < 1 or height < 1:
        raise ValueError(f"grid must be at least 1x1, got {width}x{height}")
    x = np.arange(width, dtype=np.float64) - p.x0
    y = np.arange(height, dtype=np.float64) - p.y0
    dx, dy = np.meshgrid(x, y)  # row-major: [y, x]
    env = np.exp(-np.pi * (dx * dx + dy * dy) * (p.a * p.a))
    phase = -2.0 * np.pi * (p.u0 * dx + p.v0 * dy)
    g = env * np.exp(1j * phase)
    norm = np.linalg.norm(g)
    if norm == 0.0:
        raise ValueError("Gabor envelope underflowed to zero on this grid")
    return complex_grid(g / norm)


def _morlet_factors(p: MorletParams, width: int, height: int):
    """1D factors of the Morlet wavelet on a width x height grid.

    Returns (a, b, ex, ey, kappa) with envelope ey ex^T, windowed carrier
    b a^T and zero-mean constant kappa, so the unnormalized wavelet is
    b a^T - kappa ey ex^T. Warns when the grid is smaller than ~8*sigma per
    side, i.e. when the envelope is visibly truncated at the border.
    """
    if width < 1 or height < 1:
        raise ValueError(f"grid must be at least 1x1, got {width}x{height}")
    if min(width, height) < 8.0 * p.sigma:
        warnings.warn(
            f"grid {width}x{height} is below 8*sigma={8.0 * p.sigma:g}; "
            f"the envelope is truncated at the border",
            stacklevel=3,
        )
    dx = np.arange(width) - (width - 1) / 2.0
    dy = np.arange(height) - (height - 1) / 2.0
    s2 = 2.0 * p.sigma * p.sigma
    ex = np.exp(-dx * dx / s2)
    ey = np.exp(-dy * dy / s2)
    freq = np.pi * p.n_p / (2.0 * p.sigma)
    a = ex * np.exp(1j * freq * np.cos(p.theta) * dx)
    b = ey * np.exp(1j * freq * np.sin(p.theta) * dy)
    kappa = a.sum() * b.sum() / (ex.sum() * ey.sum())
    return a, b, ex, ey, kappa


def _require_nondegenerate(ys, xs, ex, ey):
    """Raise ValueError when sum_i ys[i] xs[i]^T is zero up to rounding.

    The norm comes from the factors without cancellation: with
    [xs] = Qx Rx and [ys] = Qy Ry, the sum is Qy (Ry Rx^T) Qx^T. The carrier
    phase carries rounding of order eps * (w + h) (cos(pi/2) is 6e-17, not
    0), so a sum that small relative to ||ey ex^T|| is a constant carrier
    cancelled by kappa: scaled to unit norm, it would be rounding noise with
    a nonzero mean.
    """
    rx = np.linalg.qr(np.column_stack(xs), mode="r")
    ry = np.linalg.qr(np.column_stack(ys), mode="r")
    rounding = 16.0 * np.finfo(np.float64).eps * (len(ex) + len(ey))
    if np.linalg.norm(ry @ rx.T) <= rounding * np.linalg.norm(ex) * np.linalg.norm(ey):
        raise ValueError("degenerate Morlet wavelet on this grid: "
                         "the carrier is cancelled up to rounding")


def morlet_wavelet(p: MorletParams, width: int, height: int):
    """Morlet wavelet centered at the grid center ((w-1)/2, (h-1)/2).

    Formed as (b a^T - kappa ey ex^T) from the 1D factors, then scaled to
    unit discrete L2 norm. Raises ValueError for a degenerate grid, where
    the carrier is constant and the wavelet vanishes up to rounding.
    """
    a, b, ex, ey, kappa = _morlet_factors(p, width, height)
    _require_nondegenerate([b, -kappa * ey], [a, ex], ex, ey)
    g = np.outer(b, a) - kappa * np.outer(ey, ex)
    return complex_grid(g / np.linalg.norm(g))


def morlet_spectrum(p: MorletParams, width: int, height: int):
    """rfft2(ifftshift(Re g)) of the Morlet wavelet g, up to a positive scale.

    Re g = Re b Re a^T - Im b Im a^T - Re(kappa) ey ex^T (unnormalized),
    ifftshift rolls each factor by -(len // 2), and
    rfft2(u v^T) = fft(u) rfft(v)^T, so the (h, w//2 + 1) spectrum is one
    (h x 3)(3 x (w//2 + 1)) product of 1D FFTs. Same validation and warning
    as morlet_wavelet; raises ValueError when Re g, not only g, vanishes up
    to rounding (e.g. a two-pixel axis under a symmetric real carrier).
    """
    a, b, ex, ey, kappa = _morlet_factors(p, width, height)
    xs = [a.real, a.imag, ex]
    ys = [b.real, -b.imag, -kappa.real * ey]
    _require_nondegenerate(ys, xs, ex, ey)
    cols = np.fft.rfft(np.roll(xs, -(width // 2), axis=1))
    rows = np.fft.fft(np.roll(ys, -(height // 2), axis=1))
    return rows.T @ cols


def morlet_zero_mean_constant(p: MorletParams, width: int, height: int) -> complex:
    """The discrete zero-mean constant used by morlet_wavelet.

    Converges to exp(-(pi*n_p/2)**2 / 2) as the grid grows.
    """
    return complex(_morlet_factors(p, width, height)[4])
