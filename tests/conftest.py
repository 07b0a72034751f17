import numpy as np
import pytest

from spisim.imgcore import Image


def dense_transform_matrix(m, kind):
    """Dense Kronecker-product oracle for the 1D fast transforms."""
    if kind == "walsh-hadamard":
        h2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    else:
        h2 = (1.0 - 1.0j) / 2.0 * np.array([[1.0, 1.0j], [1.0j, 1.0]])
    h = np.eye(1, dtype=h2.dtype)
    while h.shape[0] < m:
        h = np.kron(h2, h)
    return h


def dense_transform_2d(width, height, kind):
    """Dense oracle for the row-major 2D transform H_h (x) H_w."""
    return np.kron(dense_transform_matrix(height, kind),
                   dense_transform_matrix(width, kind))


def self_pattern_matches_oracle():
    """Criterion 9's self-pattern check, which needs no corpus: an image that
    is dictionary row j has its largest least-squares coefficient at j, and
    `decompose_features` puts its histogram peak in row j's (sigma, n_p) bin."""
    from spisim.analyze import decompose_features
    from spisim.patterns import ParamDistribution, gen_pattern_set

    small = ParamDistribution(sigma_range=(2.0, 4.0), np_range=(0.5, 3.0))
    ps = gen_pattern_set("morlet-real", 32, 32, 64, dist=small, master_seed=20)
    j = 11
    row = ps.dense()[j]
    img = Image((row / np.abs(row).max()).reshape(32, 32))
    c_oracle, *_ = np.linalg.lstsq(ps.dense().T, img.vector(), rcond=None)
    if int(np.argmax(np.abs(c_oracle))) != j:
        return False
    hist = decompose_features([img], 64, small, seed=20)
    meta = ps.row_meta[j]
    si = int(np.searchsorted(hist.sigma_edges, meta.sigma)) - 1
    pj = int(np.searchsorted(hist.np_edges, meta.n_p)) - 1
    return bool(hist.values[si, pj] == hist.values.max())


def block_phantom(size=64):
    """Piecewise-constant 4-block test image."""
    x = np.zeros((size, size))
    half = size // 2
    x[:half, :half] = 0.2
    x[:half, half:] = 0.9
    x[half:, :half] = 0.55
    x[half:, half:] = 0.35
    return Image(x)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def random_image(rng):
    return Image(rng.random((16, 16)))
