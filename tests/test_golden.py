"""Golden outputs: what the package computes on fixed small inputs, compared
with the committed tests/golden.json.

The file holds:

* a sweep of the four kinds at CR 10% and 25%, pinv and TV 5 x 40, over
  three 32x32 dead-leaves images (bench/corpus.py, corpus seed 11), sweep
  seed 5, once noiseless and once with additive noise, source fluctuation
  and ADC all on;
* one cell of each row-dtype rule that 32x32 does not reach, made by
  setting its limit to 0 as `test_pinv_and_tv_psnr_do_not_depend_on_blas_threads`
  does: int8 binary rows of the 8 k <= n band and int8 binary rows above
  the dense limit at CR 10%, and float32 morlet-real rows at CR 30%, whose
  Cholesky guard passes the float32 rank floor by less than a factor of 10;
* the SHA-256 of the SPIM bytes of a plain measurement of each kind and a
  differential binary one, under each noise model, and of a zero image's;
* the `analyze-features` CSV and concentration line on the three images
  saved as 8-bit PGMs.

Ranks, paths, row dtypes, cell errors, SPIM digests and the feature output
are compared exactly: SPIM bytes do not depend on the BLAS thread count
(README), and the feature histogram's float64 products did not move
between 1 and 2 OpenBLAS threads. PSNRs are compared within PSNR_BOUND_DB,
the bound of `test_pinv_and_tv_psnr_do_not_depend_on_blas_threads`: W,
pinv and TV go through BLAS products whose reduction order follows the
thread count.

A change meant to move these outputs regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and lists the values that moved in CHANGES.md.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from spisim import cli, patterns
from spisim.acquire import NoiseModel, measure, measure_differential, save_measurement
from spisim.analyze import run_sweep
from spisim.imgcore import Image, save_image
from spisim.patterns import KINDS, gen_pattern_set
from spisim.recon import TvOptions

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
PSNR_BOUND_DB = 5e-5

SIZE, IMAGES, CORPUS_SEED, SWEEP_SEED = 32, 3, 11, 5
CRS = (0.10, 0.25)
TV = TvOptions(mu_stages=5, max_inner=40, tol=1e-5)
NOISY = NoiseModel(additive_sigma=0.01, adc_bits=10, source_fluctuation_sigma=0.01)
# (kind, CR, the limit set to 0 that puts a 32x32 cell in the row dtype)
ROW_DTYPE_CELLS = {
    "binary-int8-band": ("morlet-binary", 0.10, "_BINARY_BAND_LIMIT"),
    "binary-int8": ("morlet-binary", 0.10, "_DENSE_LIMIT"),
    "real-float32": ("morlet-real", 0.30, "_DENSE_LIMIT"),
}
NOISE_MODELS = {
    "none": NoiseModel(),
    "additive": NoiseModel(additive_sigma=0.02, seed=1),
    "fluctuation": NoiseModel(source_fluctuation_sigma=0.05, seed=2),
    "adc": NoiseModel(adc_bits=6, seed=3),
    "all": NoiseModel(additive_sigma=0.02, adc_bits=6, source_fluctuation_sigma=0.05, seed=4),
}


def _corpus():
    spec = importlib.util.spec_from_file_location("corpus", ROOT / "bench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus.corpus(SIZE, IMAGES, CORPUS_SEED)


def _sweep_rows(corpus, kinds, crs, nm=NoiseModel()):
    result = run_sweep(corpus, kinds, crs, ["pinv", "tv"], nm=nm, seed=SWEEP_SEED, tv_opts=TV)
    return {"errors": [list(e) for e in result.errors],
            "rows": [{"cell": f"{r.kind} {r.cr} {r.method} {r.image}", "psnr_db": r.psnr_db,
                      "rank": r.rank, "path": r.path, "row_dtype": r.row_dtype}
                     for r in result.rows]}


def _row_dtype_cell(corpus, kind, cr, limit):
    saved = getattr(patterns, limit)
    setattr(patterns, limit, 0)
    try:
        return _sweep_rows(corpus, [kind], [cr])
    finally:
        setattr(patterns, limit, saved)


def _spim_digests(img, tmp):
    sets = {kind: gen_pattern_set(kind, SIZE, SIZE, 40, master_seed=9) for kind in KINDS}
    zero = Image(np.zeros((SIZE, SIZE)))
    takes = [(f"{kind} plain", measure, ps, img) for kind, ps in sets.items()]
    takes += [("morlet-binary differential", measure_differential, sets["morlet-binary"], img),
              ("zero plain", measure, sets["morlet-real"], zero),
              ("zero differential", measure_differential, sets["morlet-binary"], zero)]
    out = {}
    for noise, nm in NOISE_MODELS.items():
        for name, take, ps, image in takes:
            path = Path(tmp) / "m.spim"
            save_measurement(take(image, ps, nm), path)
            out[f"{noise} {name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def _features(corpus, tmp):
    paths = []
    for i, (_, img) in enumerate(corpus):
        paths.append(str(Path(tmp) / f"leaves{i}.pgm"))
        save_image(img, paths[-1], depth=8)
    csv = Path(tmp) / "hist.csv"
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = cli.main(["analyze-features", "--corpus", *paths, "--size", str(SIZE),
                         "--dict-size", "40", "--seed", "3", "--out", str(csv)])
    assert code == 0
    return {"csv": csv.read_text().splitlines(),
            "concentration": stdout.getvalue().splitlines()[-1]}


def golden_outputs():
    corpus = _corpus()
    with tempfile.TemporaryDirectory() as tmp:
        return {
            "sweep": _sweep_rows(corpus, list(KINDS), list(CRS)),
            "noisy_sweep": _sweep_rows(corpus, list(KINDS), list(CRS), NOISY),
            "row_dtypes": {name: _row_dtype_cell(corpus, *cell)
                           for name, cell in ROW_DTYPE_CELLS.items()},
            "spim_sha256": _spim_digests(corpus[0][1], tmp),
            "features": _features(corpus, tmp),
        }


def _compare_sweep(got, want, where):
    assert got["errors"] == want["errors"], where
    assert [r["cell"] for r in got["rows"]] == [r["cell"] for r in want["rows"]], where
    for g, w in zip(got["rows"], want["rows"]):
        assert (g["rank"], g["path"], g["row_dtype"]) == (w["rank"], w["path"], w["row_dtype"]), \
            f"{where}: {g['cell']}"
        assert g["psnr_db"] == w["psnr_db"] or abs(g["psnr_db"] - w["psnr_db"]) <= PSNR_BOUND_DB, \
            f"{where}: {g['cell']} PSNR {g['psnr_db']!r}, golden {w['psnr_db']!r}"


def test_outputs_match_the_golden_file():
    want = json.loads(GOLDEN.read_text())
    got = golden_outputs()
    assert sorted(got) == sorted(want)
    _compare_sweep(got["sweep"], want["sweep"], "sweep")
    _compare_sweep(got["noisy_sweep"], want["noisy_sweep"], "noisy sweep")
    assert sorted(got["row_dtypes"]) == sorted(want["row_dtypes"])
    for name, cell in got["row_dtypes"].items():
        _compare_sweep(cell, want["row_dtypes"][name], name)
    assert got["spim_sha256"] == want["spim_sha256"]
    assert got["features"] == want["features"]


def test_golden_file_covers_every_kind_row_dtype_and_method():
    want = json.loads(GOLDEN.read_text())
    cells = [r for s in (want["sweep"], want["noisy_sweep"], *want["row_dtypes"].values())
             for r in s["rows"]]
    assert {r["cell"].split()[0] for r in cells} == set(KINDS)
    assert {r["cell"].split()[2] for r in cells} == {"pinv", "tv"}
    assert {r["row_dtype"] for r in cells} == {"float64", "float32", "int8"}
    assert {name: {(r["cell"].split()[0], r["row_dtype"]) for r in cell["rows"]}
            for name, cell in want["row_dtypes"].items()} == {
        "binary-int8-band": {("morlet-binary", "int8")},
        "binary-int8": {("morlet-binary", "int8")},
        "real-float32": {("morlet-real", "float32")}}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_outputs(), indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
