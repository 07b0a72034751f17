"""The paper's PSNR orderings (criteria 4, 5 and 6) on dead-leaves images.

test_acceptance.py checks these orderings on the standard test images, which
need scikit-image. This module checks the same comparisons offline, on the
benchmark's dead-leaves corpus (bench/corpus.py), so that a change which
moves the rows still shows whether they hold:

* C4: morlet-real > noiselet > walsh-hadamard under TV at CR 4%;
* C5: morlet-binary - morlet-real >= -1.5 dB under TV at CR 4% and 8%;
* C6: TV > pinv for morlet-binary at CR 4% and 8%;
* C9: the feature histogram's concentration and the self-pattern check.

Criterion 4's absolute 22 dB floor belongs to the standard images and is
left out. For C4-C6, size, seeds, image count and TV budget were fixed
before any result was seen; the sweep seed and the TV budget are the
acceptance suite's (C9's seen seed is noted in its test). The C4-C6 sweeps
take about 45 s (85 s of CPU with two OpenBLAS threads on 2 vCPUs). The
budget cannot be cut to save time: at 5 x 30, noiselet TV fell 2.2 dB
below walsh-hadamard on corpus seed 11.
"""

import importlib.util
from pathlib import Path

import pytest

from conftest import self_pattern_matches_oracle
from spisim.analyze import decompose_features, histogram_concentration, run_sweep
from spisim.patterns import ParamDistribution
from spisim.recon import TvOptions

SIZE = 128
IMAGES = 4
CORPUS_SEED = 11
SWEEP_SEED = 0
TV = TvOptions(max_inner=60, mu_stages=5, tol=1e-5)


def _dead_leaves_corpus(seed, count=IMAGES):
    path = Path(__file__).resolve().parents[1] / "bench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("bench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.corpus(SIZE, count, seed)


def ordering_margins(corpus_seed):
    """{check: margin in dB}; each check holds when its margin is > 0
    (C5: >= 0)."""
    images = _dead_leaves_corpus(corpus_seed)

    def sweep(kinds, crs, methods):
        res = run_sweep(images, kinds, crs, methods, seed=SWEEP_SEED, tv_opts=TV)
        assert not res.errors, f"sweep cells failed: {res.errors}"
        return res.mean_psnr

    real = sweep(["morlet-real"], [0.04, 0.08], ["tv"])
    binary = sweep(["morlet-binary"], [0.04, 0.08], ["pinv", "tv"])
    bases = sweep(["walsh-hadamard", "noiselet"], [0.04], ["tv"])
    margins = {
        "C4 real - noiselet": real("morlet-real", 0.04, "tv") - bases("noiselet", 0.04, "tv"),
        "C4 noiselet - WH": bases("noiselet", 0.04, "tv") - bases("walsh-hadamard", 0.04, "tv"),
    }
    for cr in (0.04, 0.08):
        margins[f"C5 binary - real + 1.5 at {cr:.0%}"] = (
            binary("morlet-binary", cr, "tv") - real("morlet-real", cr, "tv") + 1.5)
        margins[f"C6 TV - pinv at {cr:.0%}"] = (
            binary("morlet-binary", cr, "tv") - binary("morlet-binary", cr, "pinv"))
    return margins


@pytest.fixture(scope="module")
def margins():
    return ordering_margins(CORPUS_SEED)


def _check(margins, prefix, strict=True):
    checked = {k: v for k, v in margins.items() if k.startswith(prefix)}
    assert checked
    failed = {k: round(v, 3) for k, v in checked.items() if not (v > 0 if strict else v >= 0)}
    assert not failed, f"orderings violated (margins in dB): {failed}"


def test_c4_morlet_real_beats_noiselet_beats_walsh_hadamard(margins):
    _check(margins, "C4")


def test_c5_binarization_costs_at_most_1_5_db(margins):
    _check(margins, "C5", strict=False)


def test_c6_tv_beats_pinv_for_morlet_binary(margins):
    _check(margins, "C6")


def test_c9_feature_histogram_concentrates():
    """Criterion 9 at its own settings (128^2, 20 images, a 1,500-row
    dictionary, seed 42, the default distribution) on dead-leaves images:
    at least 0.60 of the histogram's mass in one contiguous (sigma, n_p)
    region, and the self-pattern check. Corpus seed 11 was seen before this
    test was written: its concentration read 0.924 (seeds 12 and 13: 0.920
    and 0.928). About 3 s."""
    images = [img for _, img in _dead_leaves_corpus(CORPUS_SEED, count=20)]
    hist = decompose_features(images, 1500, ParamDistribution.default_for(SIZE, SIZE),
                              seed=42)
    frac, _ = histogram_concentration(hist, level=0.1)
    assert frac >= 0.60, f"concentration {frac:.3f} < 0.60"
    assert self_pattern_matches_oracle()
