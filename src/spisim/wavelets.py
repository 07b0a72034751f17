"""Discrete 2D zero-mean unit-norm Morlet wavelets.

The wavelet is generated on a pixel grid: a Gaussian envelope times a
complex carrier, minus a constant multiple of the envelope. That correction
constant and the normalization are computed on the discrete grid itself, so
that the discrete mean is exactly zero and the discrete L2 norm exactly one,
not just their continuous-integral approximations. That matters downstream:
any residual DC component would leak into every sampling pattern built from
the wavelet.

The Morlet envelope and carrier both factor over x and y, so the wavelet is
built from 1D vectors: with envelopes ex, ey and windowed carriers
a = ex e^{i f cos(theta) dx}, b = ey e^{i f sin(theta) dy},

    g = (b a^T - kappa ey ex^T) / ||.||,  kappa = (sum a)(sum b) / ((sum ex)(sum ey)),

and the discrete mean of g is zero because sum(b a^T) = (sum a)(sum b).
Pattern generation needs only the spectrum of Re g, a sum of three outer
products, whose 2D real FFT is a product of 1D FFTs (`morlet_spectra`); no
n-sized exponential or 2D transform is evaluated for it. The factors and
spectra are computed for a block of wavelets at once, one row per wavelet;
the single-wavelet functions are blocks of one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .imgcore import complex_grid


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


def _morlet_factor_block(params, width: int, height: int):
    """1D factors of the Morlet wavelets `params` on a width x height grid.

    Returns (a, b, ex, ey, kappa), one row per wavelet: (R, width) arrays a
    and ex, (R, height) arrays b and ey and (R,) kappa, so wavelet i is
    b[i] a[i]^T - kappa[i] ey[i] ex[i]^T unnormalized, with envelope
    ey[i] ex[i]^T and windowed carrier b[i] a[i]^T. Each entry is computed
    as it would be for that wavelet alone. Warns when the grid is smaller
    than ~8*sigma per side, i.e. when an envelope is visibly truncated at
    the border.
    """
    if width < 1 or height < 1:
        raise ValueError(f"grid must be at least 1x1, got {width}x{height}")
    sigma, n_p, theta = (np.array([[getattr(p, name)] for p in params])
                         for name in ("sigma", "n_p", "theta"))
    if min(width, height) < 8.0 * sigma.max():
        warnings.warn(
            f"grid {width}x{height} is below 8*sigma={8.0 * sigma.max():g}; "
            f"the envelope is truncated at the border",
            stacklevel=3,
        )
    dx = np.arange(width) - (width - 1) / 2.0
    dy = np.arange(height) - (height - 1) / 2.0
    s2 = 2.0 * sigma * sigma
    ex = np.exp(-dx * dx / s2)
    ey = np.exp(-dy * dy / s2)
    freq = np.pi * n_p / (2.0 * sigma)
    a = ex * np.exp(1j * freq * np.cos(theta) * dx)
    b = ey * np.exp(1j * freq * np.sin(theta) * dy)
    kappa = a.sum(axis=1) * b.sum(axis=1) / (ex.sum(axis=1) * ey.sum(axis=1))
    return a, b, ex, ey, kappa


def _morlet_factors(p: MorletParams, width: int, height: int):
    """(a, b, ex, ey, kappa) of one wavelet: _morlet_factor_block's first row."""
    return tuple(f[0] for f in _morlet_factor_block([p], width, height))


def _require_nondegenerate(ys, xs, ex, ey):
    """Raise ValueError when any sum_i ys[r, i] xs[r, i]^T is zero up to rounding.

    ys, xs are (R, t, h) and (R, t, w) stacks of t factors, ex, ey the
    (R, w) and (R, h) envelopes. The norm comes from the factors without
    cancellation: with [xs] = Qx Rx and [ys] = Qy Ry, the sum is
    Qy (Ry Rx^T) Qx^T. The carrier phase carries rounding of order
    eps * (w + h) (cos(pi/2) is 6e-17, not 0), so a sum that small relative
    to ||ey ex^T|| is a constant carrier cancelled by kappa: scaled to unit
    norm, it would be rounding noise with a nonzero mean.
    """
    rx = np.linalg.qr(np.swapaxes(xs, 1, 2), mode="r")
    ry = np.linalg.qr(np.swapaxes(ys, 1, 2), mode="r")
    rounding = 16.0 * np.finfo(np.float64).eps * (ex.shape[1] + ey.shape[1])
    size = np.linalg.norm(ry @ np.swapaxes(rx, 1, 2), axis=(1, 2))
    if np.any(size <= rounding * np.linalg.norm(ex, axis=1) * np.linalg.norm(ey, axis=1)):
        raise ValueError("degenerate Morlet wavelet on this grid: "
                         "the carrier is cancelled up to rounding")


def morlet_wavelet(p: MorletParams, width: int, height: int):
    """Morlet wavelet centered at the grid center ((w-1)/2, (h-1)/2).

    Formed as (b a^T - kappa ey ex^T) from the 1D factors, then scaled to
    unit discrete L2 norm. Raises ValueError for a degenerate grid, where
    the carrier is constant and the wavelet vanishes up to rounding.
    """
    a, b, ex, ey, kappa = _morlet_factor_block([p], width, height)
    _require_nondegenerate(np.stack([b, -kappa[:, None] * ey], axis=1),
                           np.stack([a, ex], axis=1), ex, ey)
    g = np.outer(b, a) - kappa * np.outer(ey, ex)
    return complex_grid(g / np.linalg.norm(g))


def morlet_spectra(params, width: int, height: int):
    """rfft2(ifftshift(Re g)) of each Morlet wavelet g in `params`, up to a
    positive scale: an (R, h, w//2 + 1) array.

    Re g = Re b Re a^T - Im b Im a^T - Re(kappa) ey ex^T (unnormalized),
    ifftshift rolls each factor by -(len // 2), and
    rfft2(u v^T) = fft(u) rfft(v)^T, so each spectrum is one
    (h x 3)(3 x (w//2 + 1)) product of 1D FFTs, and the block's are one
    stacked product. Same validation and warning as morlet_wavelet; raises
    ValueError when any Re g, not only g, vanishes up to rounding (e.g. a
    two-pixel axis under a symmetric real carrier).
    """
    a, b, ex, ey, kappa = _morlet_factor_block(params, width, height)
    xs = np.stack([a.real, a.imag, ex], axis=1)                           # (R, 3, w)
    ys = np.stack([b.real, -b.imag, -kappa.real[:, None] * ey], axis=1)   # (R, 3, h)
    _require_nondegenerate(ys, xs, ex, ey)
    cols = np.fft.rfft(np.roll(xs, -(width // 2), axis=2))
    rows = np.fft.fft(np.roll(ys, -(height // 2), axis=2))
    return np.swapaxes(rows, 1, 2) @ cols


def morlet_spectrum(p: MorletParams, width: int, height: int):
    """morlet_spectra of one wavelet: its (h, w//2 + 1) spectrum."""
    return morlet_spectra([p], width, height)[0]
