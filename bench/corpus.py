"""Deterministic dead-leaves test images (Lee, Mumford & Huang, IJCV 2001).

Opaque disks fall on the image plane one after another; each pixel shows the
first disk that covers it. Radii follow the scale-invariant density
p(r) ~ r^-3 between size/64 and size/4, grey levels are uniform in [0, 1],
and leaves keep falling until every pixel is covered. Each image is then
mapped affinely to mean 0.5 and standard deviation 0.25 (clipped to [0, 1]),
so images from different seeds share their contrast. The model reproduces
the occlusion edges and power-law spectrum of natural images, so it stands in
for the bundled standard test images, which need scikit-image. Everything is
drawn from numpy's PCG64 stream of the given seed: same seed, same pixels.
"""

from __future__ import annotations

import numpy as np

_BATCH = 512          # leaves drawn per refill of the parameter buffers
_MAX_LEAVES = 200_000  # coverage is reached far earlier; guards the loop


def _radii(rng, count, r_min, r_max):
    """Inverse-CDF draw from p(r) ~ r^-3 on [r_min, r_max]."""
    u = rng.random(count)
    a, b = r_min ** -2, r_max ** -2
    return (a - u * (a - b)) ** -0.5


def dead_leaves(size, seed):
    """One size x size dead-leaves image in [0, 1], float64."""
    rng = np.random.default_rng(seed)
    r_min, r_max = size / 64.0, size / 4.0
    img = np.full((size, size), np.nan)
    uncovered = size * size
    yy, xx = np.mgrid[0:size, 0:size]
    drawn = 0
    while uncovered and drawn < _MAX_LEAVES:
        radii = _radii(rng, _BATCH, r_min, r_max)
        centres = rng.random((_BATCH, 2)) * size
        greys = rng.random(_BATCH)
        for r, (cy, cx), g in zip(radii, centres, greys):
            y0, y1 = max(int(cy - r), 0), min(int(cy + r) + 2, size)
            x0, x1 = max(int(cx - r), 0), min(int(cx + r) + 2, size)
            if y0 >= y1 or x0 >= x1:
                continue
            win = img[y0:y1, x0:x1]
            hit = ((yy[y0:y1, x0:x1] - cy) ** 2 + (xx[y0:y1, x0:x1] - cx) ** 2 <= r * r)
            hit &= np.isnan(win)
            count = int(hit.sum())
            if count:
                win[hit] = g
                uncovered -= count
        drawn += _BATCH
    img[np.isnan(img)] = 0.5
    return np.clip(0.5 + 0.25 * (img - img.mean()) / img.std(), 0.0, 1.0)


def corpus(size, count, seed):
    """[(name, Image)] of `count` dead-leaves images; image i uses seed (seed, i)."""
    from spisim.imgcore import Image

    return [(f"leaves-{seed}-{i}", Image(dead_leaves(size, [seed, i])))
            for i in range(count)]
