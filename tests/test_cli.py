import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from spisim.acquire import NoiseModel, load_measurement
from spisim.cli import RunConfig, main
from spisim.imgcore import Image, load_image, save_image
from spisim import patterns
from spisim.patterns import load_pattern_set
from spisim.recon import TvOptions, effective_measurement, linear_model


def run(*argv):
    return main(list(argv))


@pytest.fixture
def pgm16(tmp_path, rng):
    path = tmp_path / "img.pgm"
    save_image(Image(rng.random((16, 16))), path, depth=16)
    return str(path)


class TestGen:
    def test_prints_counts_and_display_time(self, tmp_path, capsys):
        out = tmp_path / "p.spip"
        assert run("gen", "--kind", "morlet-binary", "--size", "256x256",
                   "--cr", "0.06", "--seed", "7", "--k", "3932",
                   "--out", str(out)) == 0
        text = capsys.readouterr().out
        assert "k=3932" in text and "n=65536" in text
        assert "0.17872" in text  # 3932 / 22000 s
        assert out.exists()

    def test_double_run_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.spip", tmp_path / "b.spip"
        args = ["gen", "--kind", "morlet-real", "--size", "16x16", "--cr", "0.1",
                "--seed", "3"]
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_wh_alias_and_pow2_check(self, tmp_path, capsys):
        assert run("gen", "--kind", "wh", "--size", "100x100", "--cr", "0.1",
                   "--out", str(tmp_path / "x.spip")) == 2
        assert "power of 2" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["12", "12x", "axb"])
    def test_malformed_size_names_the_form(self, tmp_path, capsys, text):
        with pytest.raises(SystemExit) as exc:
            run("gen", "--kind", "morlet-real", "--size", text, "--out", str(tmp_path / "p.spip"))
        assert exc.value.code == 2
        assert f"argument --size: size must look like 256x256, got {text!r}" in \
            capsys.readouterr().err
        assert not (tmp_path / "p.spip").exists()

    @pytest.mark.parametrize("flag", ["--dist-sigma", "--dist-np"])
    @pytest.mark.parametrize("text", ["1", "1,2,3", "a,b", ""])
    def test_malformed_range_names_the_form(self, tmp_path, capsys, flag, text):
        with pytest.raises(SystemExit) as exc:
            run("gen", "--kind", "morlet-real", "--size", "16x16", flag, text,
                "--out", str(tmp_path / "p.spip"))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: range must look like lo,hi, got {text!r}" in err
        assert not (tmp_path / "p.spip").exists()

    # an infinite bound reached rng.uniform: an OverflowError traceback, exit 1
    # (np inf,inf failed the aliasing guard instead)
    @pytest.mark.parametrize("flag,text", [("--dist-sigma", "1,inf"), ("--dist-np", "1,inf"),
                                           ("--dist-sigma", "inf,inf"), ("--dist-np", "inf,inf")])
    def test_infinite_range_bound_is_an_error(self, tmp_path, capsys, flag, text):
        out = tmp_path / "p.spip"
        assert run("gen", "--kind", "morlet-real", "--size", "16x16", flag, text,
                   "--out", str(out)) == 2
        assert re.fullmatch(r"error: bad (sigma|np)_range \(.*inf\): need finite bounds "
                            r"0 < lo <= hi\n", capsys.readouterr().err)
        assert not out.exists()

    def test_memory_error_is_an_error(self, tmp_path, capsys, monkeypatch):
        # raised, not allocated: with overcommit a real 74.5 GiB request can
        # succeed lazily or wake the OOM killer
        message = ("Unable to allocate 74.5 GiB for an array with shape (100000, 100000) "
                   "and data type float64")

        def no_memory(*a, **kw):
            raise MemoryError(message)
        monkeypatch.setattr(patterns, "gen_pattern_set", no_memory)
        out = tmp_path / "p.spip"
        assert run("gen", "--kind", "morlet-real", "--size", "100000x100000", "--k", "2",
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_cr_to_k_rounding(self, tmp_path, capsys):
        assert run("gen", "--kind", "morlet-binary", "--size", "256x256",
                   "--cr", "0.06", "--out", str(tmp_path / "p.spip")) == 0
        assert "k=3932" in capsys.readouterr().out

    @pytest.mark.parametrize("kind,size,cr,k,printed", [
        ("noiselet", "64x64", "0.04", 82, "cr=4.0039%"),       # two samples per row
        ("morlet-binary", "16x16", "0.001", 2, "cr=0.7812%"),  # constant row + one
        ("morlet-binary", "128x128", "0.04", 655, "cr=3.9978%"),
    ])
    def test_cr_counts_real_samples(self, tmp_path, capsys, kind, size, cr, k, printed):
        assert run("gen", "--kind", kind, "--size", size, "--cr", cr,
                   "--out", str(tmp_path / "p.spip")) == 0
        out = capsys.readouterr().out
        assert f"k={k} " in out and printed in out

    @pytest.mark.parametrize("flag,value,message", [
        ("--cr", "0", "compression ratio must be in (0, 1], got 0.0"),
        ("--cr", "-1", "compression ratio must be in (0, 1], got -1.0"),
        ("--cr", "1.5", "compression ratio must be in (0, 1], got 1.5"),
        ("--frame-rate", "0", "frame rate must be positive and finite, got 0.0"),
        ("--frame-rate", "-5", "frame rate must be positive and finite, got -5.0"),
    ])
    def test_bad_cr_or_frame_rate_is_an_error_line(self, tmp_path, capsys,
                                                   flag, value, message):
        out = tmp_path / "p.spip"
        assert run("gen", "--kind", "morlet-binary", "--size", "16x16",
                   f"{flag}={value}", "--out", str(out)) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    def test_out_of_range_seed_is_an_error_line(self, tmp_path, capsys, seed):
        out = tmp_path / "p.spip"
        assert run("gen", "--kind", "morlet-binary", "--size", "16x16", "--cr", "0.1",
                   f"--seed={seed}", "--out", str(out)) == 2
        assert f"error: master seed must lie in [0, 2^64), got {seed}" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_cr_gives_the_rows_of_a_sweep_cell(self, tmp_path, capsys, rng,
                                                   monkeypatch):
        from spisim import analyze
        from spisim.patterns import KINDS, load_pattern_set

        cell_rows = {}

        def spy(kind, width, height, k, **kw):
            cell_rows[kind] = k
            return real_gen(kind, width, height, k, **kw)
        real_gen = analyze.gen_pattern_set
        monkeypatch.setattr(analyze, "gen_pattern_set", spy)
        corpus = [("a", Image(rng.random((16, 16))))]
        for cr in (0.001, 0.1):
            cell_rows.clear()
            res = analyze.run_sweep(corpus, list(KINDS), [cr], ["pinv"])
            assert not res.errors
            for kind in KINDS:
                out = tmp_path / f"{kind}.spip"
                assert run("gen", "--kind", kind, "--size", "16x16", "--cr", str(cr),
                           "--out", str(out)) == 0
                assert load_pattern_set(out).k == cell_rows[kind], (kind, cr)


class TestMeasureReconstruct:
    def test_pipeline_identity_at_cr1(self, tmp_path, pgm16, capsys):
        ps = tmp_path / "p.spip"
        m = tmp_path / "m.spim"
        out = tmp_path / "rec.pgm"
        assert run("gen", "--kind", "walsh-hadamard", "--size", "16x16",
                   "--k", "256", "--out", str(ps)) == 0
        assert run("measure", "--image", pgm16, "--patterns", str(ps),
                   "--out", str(m), "--csv", str(tmp_path / "m.csv")) == 0
        assert run("reconstruct", "--patterns", str(ps), "--measurement", str(m),
                   "--method", "pinv", "--out", str(out), "--depth", "16",
                   "--reference", pgm16) == 0
        text = capsys.readouterr().out
        psnr_line = [l for l in text.splitlines() if l.startswith("psnr_db=")][0]
        value = psnr_line.split("=")[1]
        assert value == "inf" or float(value) > 100.0
        assert (tmp_path / "m.csv").exists()

    def test_hash_mismatch_fails(self, tmp_path, pgm16, capsys):
        ps1, ps2 = tmp_path / "p1.spip", tmp_path / "p2.spip"
        m = tmp_path / "m.spim"
        run("gen", "--kind", "morlet-binary", "--size", "16x16", "--k", "10",
            "--seed", "1", "--out", str(ps1))
        run("gen", "--kind", "morlet-binary", "--size", "16x16", "--k", "10",
            "--seed", "2", "--out", str(ps2))
        run("measure", "--image", pgm16, "--patterns", str(ps1), "--out", str(m))
        code = run("reconstruct", "--patterns", str(ps2), "--measurement", str(m),
                   "--out", str(tmp_path / "r.pgm"))
        assert code == 2
        assert "hash mismatch" in capsys.readouterr().err

    def test_tv_method_and_pinv_cache(self, tmp_path, pgm16):
        ps = tmp_path / "p.spip"
        m = tmp_path / "m.spim"
        run("gen", "--kind", "morlet-binary", "--size", "16x16", "--k", "64",
            "--out", str(ps))
        run("measure", "--image", pgm16, "--patterns", str(ps), "--out", str(m))
        assert run("reconstruct", "--patterns", str(ps), "--measurement", str(m),
                   "--method", "tv", "--tv-max-inner", "100",
                   "--out", str(tmp_path / "tv.pgm")) == 0
        cache = tmp_path / "cache"
        assert run("reconstruct", "--patterns", str(ps), "--measurement", str(m),
                   "--method", "pinv", "--cache-dir", str(cache),
                   "--out", str(tmp_path / "pi.pgm")) == 0
        assert len(list(cache.glob("*.spiv"))) == 1

    @pytest.mark.parametrize("flag,value,message", [
        ("--noise-seed", "-1", "noise seed must lie in [0, 2^64), got -1"),
        ("--noise-seed", str(1 << 64), f"noise seed must lie in [0, 2^64), got {1 << 64}"),
        ("--noise-sigma", "nan", "additive_sigma must be finite and >= 0, got nan"),
        ("--noise-sigma", "inf", "additive_sigma must be finite and >= 0, got inf"),
        ("--fluctuation", "nan", "source_fluctuation_sigma must be finite and >= 0, got nan"),
        # a finite sigma whose noise overflows to +-inf
        ("--noise-sigma", "1e308", "measurement samples must be finite"),
    ])
    def test_bad_noise_model_is_an_error_line(self, tmp_path, pgm16, capsys,
                                              flag, value, message):
        ps, m = tmp_path / "p.spip", tmp_path / "m.spim"
        assert run("gen", "--kind", "morlet-binary", "--size", "16x16", "--k", "10",
                   "--out", str(ps)) == 0
        assert run("measure", "--image", pgm16, "--patterns", str(ps),
                   f"{flag}={value}", "--out", str(m)) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not m.exists()

    def test_differential_off_gives_the_noiseless_psnr_of_auto(self, tmp_path, pgm16,
                                                               capsys):
        ps = tmp_path / "p.spip"
        assert run("gen", "--kind", "morlet-binary", "--size", "16x16", "--cr", "0.3",
                   "--seed", "1", "--out", str(ps)) == 0
        psnr, y = {}, {}
        pset = load_pattern_set(ps)
        for mode in ("auto", "off"):
            m = tmp_path / f"{mode}.spim"
            assert run("measure", "--image", pgm16, "--patterns", str(ps),
                       "--out", str(m), "--differential", mode) == 0
            assert f"differential={mode == 'auto'})" in capsys.readouterr().out
            assert self._reconstruct(tmp_path, ps, m, "--reference", pgm16) == 0
            psnr[mode] = float(re.search(r"^psnr_db=(.*)$", capsys.readouterr().out, re.M)[1])
            y[mode] = effective_measurement(pset, load_measurement(m))
        assert psnr["auto"] == pytest.approx(11.6747239, abs=1e-7)

        # The two effective measurements are different float64 sums of the
        # same Y = <x, P>: auto's Y - (S - Y) with S = sum(x), and off's
        # 2Y - Y0 with Y0 the constant row's dot product. S and Y0 each lie
        # within gamma_n ||x||_1 of sum(x) (gamma_m = m u / (1 - m u),
        # u = 2^-53), and Y, S - Y and both results are at most ||x||_1 in
        # magnitude, so entrywise |y_auto - y_off| <= (2 gamma_n + 3 u) ||x||_1.
        u = 2.0 ** -53
        ref = load_image(pgm16)
        n, x1 = ref.data.size, np.abs(ref.vector()).sum()
        dy = np.abs(y["auto"] - y["off"])
        assert np.all(dy <= (2 * n * u / (1 - n * u) + 3 * u) * x1)
        # pinv is x = ((y W) W^T) M, products over k, r and k terms; each
        # lies within gamma_len |A| |B| of its exact value, so to first order
        # |x_auto - x_off| <= (dy + (2 k + r) u (|y_auto| + |y_off|)) |W| |W|^T |M|.
        # PSNR = 10 log10(peak^2 n / ||x - ref||^2) moves by at most
        # (20 / ln 10) ||x_auto - x_off|| / ||x - ref||, and computing it
        # (n squares summed, a division and a log) adds at most
        # (10 / ln 10) gamma_(n+3) per mode. Both bounds are doubled for the
        # second-order terms.
        model = linear_model(pset)
        (k, r), w = model.w.shape, np.abs(model.w)
        dx = (dy + (2 * k + r) * u * (np.abs(y["auto"]) + np.abs(y["off"]))) @ w @ w.T
        dx = dx @ np.abs(model.m)
        err = np.sqrt(n) * ref.data.max() * 10.0 ** (-max(psnr.values()) / 20.0)
        gamma = (n + 3) * u / (1 - (n + 3) * u)
        bound = 2 * (20 / np.log(10) * np.linalg.norm(dx) / err + 2 * 10 / np.log(10) * gamma)
        assert abs(psnr["auto"] - psnr["off"]) <= bound

    def test_differential_on_needs_a_binary_set(self, tmp_path, pgm16, capsys):
        ps = tmp_path / "p.spip"
        assert run("gen", "--kind", "morlet-real", "--size", "16x16", "--k", "12",
                   "--out", str(ps)) == 0
        assert run("measure", "--image", pgm16, "--patterns", str(ps),
                   "--out", str(tmp_path / "m.spim"), "--differential", "on") == 2
        assert ("error: differential measurement needs a binary set"
                in capsys.readouterr().err)
        assert not (tmp_path / "m.spim").exists()

    def _gen_measure(self, tmp_path, pgm16, kind="morlet-binary", k="12"):
        ps, m = tmp_path / "p.spip", tmp_path / "m.spim"
        assert run("gen", "--kind", kind, "--size", "16x16", "--k", k,
                   "--out", str(ps)) == 0
        assert run("measure", "--image", pgm16, "--patterns", str(ps),
                   "--out", str(m)) == 0
        return ps, m

    def _reconstruct(self, tmp_path, ps, m, *extra):
        return run("reconstruct", "--patterns", str(ps), "--measurement", str(m),
                   "--out", str(tmp_path / "r.pgm"), *extra)

    def test_default_flags_are_the_library_defaults(self, tmp_path, pgm16, monkeypatch):
        from spisim import acquire, recon

        seen = []
        measure, solve = acquire.measure_differential, recon.tv_reconstruct
        monkeypatch.setattr(acquire, "measure_differential",
                            lambda img, ps, nm: seen.append(nm) or measure(img, ps, nm))
        # records the options, then solves on a small budget
        monkeypatch.setattr(recon, "tv_reconstruct", lambda model, y, opts: seen.append(opts)
                            or solve(model, y, TvOptions(max_inner=5)))
        ps, m = self._gen_measure(tmp_path, pgm16)
        assert self._reconstruct(tmp_path, ps, m, "--method", "tv") == 0
        assert seen == [NoiseModel(), TvOptions()]

    @pytest.mark.parametrize("kind", ["noiselet", "morlet-binary"])
    def test_measure_verbose_prints_the_cr_of_gen(self, tmp_path, pgm16, capsys, kind):
        # both count real samples per pixel, two per noiselet row
        ps = tmp_path / "p.spip"
        assert run("gen", "--kind", kind, "--size", "16x16", "--cr", "0.04",
                   "--out", str(ps)) == 0
        gen_cr = re.search(r"cr=\S+", capsys.readouterr().out).group()
        assert run("measure", "--image", pgm16, "--patterns", str(ps), "--verbose",
                   "--out", str(tmp_path / "m.spim")) == 0
        assert re.search(r"cr=\S+", capsys.readouterr().out).group() == gen_cr
        # the SPIM file stores the same ratio: real samples per pixel
        back = load_measurement(tmp_path / "m.spim")
        assert back.compression_ratio == back.k / 256
        assert f"cr={back.compression_ratio:.4%}" == gen_cr

    def test_mismatched_reference_stops_before_the_solve(self, tmp_path, pgm16, capsys,
                                                         rng):
        ps, m = self._gen_measure(tmp_path, pgm16)
        ref = tmp_path / "ref.pgm"
        save_image(Image(rng.random((8, 8))), ref, depth=8)
        assert self._reconstruct(tmp_path, ps, m, "--reference", str(ref)) == 2
        err = capsys.readouterr().err
        assert "error: reference 8x8 does not match patterns 16x16" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.pgm").exists()

    def test_measure_counts_samples_and_gen_counts_rows(self, tmp_path, pgm16, capsys):
        # a noiselet row gives two real samples, so 5 rows measure 10 samples
        ps = tmp_path / "p.spip"
        assert run("gen", "--kind", "noiselet", "--size", "16x16", "--k", "5",
                   "--out", str(ps)) == 0
        assert "k=5 " in capsys.readouterr().out
        assert run("measure", "--image", pgm16, "--patterns", str(ps), "--verbose",
                   "--out", str(tmp_path / "m.spim")) == 0
        out = capsys.readouterr().out
        assert "samples=10 " in out and "(samples=10," in out
        assert not re.search(r"\bk=", out)

    def test_complex_measurement_file_is_an_error_line(self, tmp_path, pgm16, capsys):
        # flags 0x02 marked a complex noiselet payload; measurements are real samples now
        ps, m = self._gen_measure(tmp_path, pgm16, kind="noiselet")
        raw = bytearray(m.read_bytes())
        raw[10] = 0x02                  # the flags byte of the header "<4sHIB"
        m.write_bytes(bytes(raw))
        assert self._reconstruct(tmp_path, ps, m) == 2
        assert "error: unknown SPIM flags 0x02" in capsys.readouterr().err

    def test_truncated_measurement_is_an_error_line(self, tmp_path, pgm16, capsys):
        ps, m = self._gen_measure(tmp_path, pgm16)
        m.write_bytes(m.read_bytes()[:5])
        assert self._reconstruct(tmp_path, ps, m) == 2
        assert "error: truncated SPIM header" in capsys.readouterr().err

    def test_bad_pattern_kind_code_is_an_error_line(self, tmp_path, pgm16, capsys):
        ps, m = self._gen_measure(tmp_path, pgm16, kind="walsh-hadamard")
        raw = bytearray(ps.read_bytes())
        raw[6] = 9  # kind byte after magic and version
        ps.write_bytes(bytes(raw))
        assert self._reconstruct(tmp_path, ps, m) == 2
        assert "error: unknown SPIP kind code 9" in capsys.readouterr().err

    def test_flags_disagreeing_with_kind_is_an_error_line(self, tmp_path, pgm16, capsys):
        # a morlet-real file relabelled morlet-binary used to load float64
        # rows and die in np.unpackbits with a TypeError traceback
        ps, _ = self._gen_measure(tmp_path, pgm16, kind="morlet-real")
        raw = bytearray(ps.read_bytes())
        raw[6] = 1  # kind byte := morlet-binary
        ps.write_bytes(bytes(raw))
        assert run("measure", "--image", pgm16, "--patterns", str(ps),
                   "--out", str(tmp_path / "m2.spim")) == 2
        assert "error: SPIP flags" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,message", [
        ("--tv-epsilon", "-1", "TV epsilon must be >= 0, got -1.0"),
        ("--tv-tol", "-1e-6", "TV tol must be >= 0, got -1e-06"),
        ("--tv-max-inner", "-1", "TV max_inner must be >= 0, got -1"),
    ])
    def test_invalid_tv_option_is_an_error_line(self, tmp_path, pgm16, capsys,
                                                flag, value, message):
        ps, m = self._gen_measure(tmp_path, pgm16, kind="walsh-hadamard")
        assert self._reconstruct(tmp_path, ps, m, "--method", "tv", f"{flag}={value}") == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "r.pgm").exists()

    def test_version_2_pattern_file_is_an_error_line(self, tmp_path, pgm16, capsys):
        ps, _ = self._gen_measure(tmp_path, pgm16)
        raw = bytearray(ps.read_bytes())
        raw[4:6] = (2).to_bytes(2, "little")
        ps.write_bytes(bytes(raw))
        assert run("measure", "--image", pgm16, "--patterns", str(ps),
                   "--out", str(tmp_path / "m2.spim")) == 2
        assert "error: unsupported SPIP version 2" in capsys.readouterr().err

    def test_version_3_pattern_file_is_an_error_line(self, tmp_path, pgm16, capsys):
        ps, _ = self._gen_measure(tmp_path, pgm16)
        raw = bytearray(ps.read_bytes())
        raw[4:6] = (3).to_bytes(2, "little")
        ps.write_bytes(bytes(raw))
        assert run("measure", "--image", pgm16, "--patterns", str(ps),
                   "--out", str(tmp_path / "m3.spim")) == 2
        assert "error: unsupported SPIP version 3" in capsys.readouterr().err

    def test_version_4_pattern_file_is_an_error_line(self, tmp_path, pgm16, capsys):
        ps, _ = self._gen_measure(tmp_path, pgm16, kind="morlet-real")
        raw = bytearray(ps.read_bytes())
        raw[4:6] = (4).to_bytes(2, "little")
        ps.write_bytes(bytes(raw))
        assert run("measure", "--image", pgm16, "--patterns", str(ps),
                   "--out", str(tmp_path / "m4.spim")) == 2
        assert "error: unsupported SPIP version 4" in capsys.readouterr().err

    def test_short_pinv_cache_file_is_recomputed(self, tmp_path, pgm16):
        from spisim.patterns import load_pattern_set

        ps, m = self._gen_measure(tmp_path, pgm16)
        cache = tmp_path / "cache"
        cache.mkdir()
        spiv = cache / (load_pattern_set(ps).content_hash().hex() + ".spiv")
        spiv.write_bytes(bytes(20))
        assert self._reconstruct(tmp_path, ps, m, "--cache-dir", str(cache)) == 0
        assert spiv.stat().st_size == 80 + 8 * 12 * 12  # header + W, k x r float64
        assert [f.name for f in cache.iterdir()] == [spiv.name]

    def test_tv_reads_the_warm_cache(self, tmp_path, pgm16, monkeypatch):
        from spisim import recon

        ps, m = self._gen_measure(tmp_path, pgm16, k="40")
        cache, plain, cached = tmp_path / "cache", tmp_path / "plain.pgm", tmp_path / "c.pgm"
        tv = ("--method", "tv", "--tv-max-inner", "50", "--depth", "16")
        assert self._reconstruct(tmp_path, ps, m, "--cache-dir", str(cache)) == 0  # pinv miss
        assert run("reconstruct", "--patterns", str(ps), "--measurement", str(m), *tv,
                   "--out", str(plain)) == 0

        def no_call(*args, **kwargs):
            raise AssertionError("--method tv on a warm cache orthogonalized again")
        monkeypatch.setattr(recon, "gram_orthogonalize", no_call)
        assert run("reconstruct", "--patterns", str(ps), "--measurement", str(m), *tv,
                   "--cache-dir", str(cache), "--out", str(cached)) == 0
        assert cached.read_bytes() == plain.read_bytes()

    def test_pinv_cache_miss_and_hit_write_the_same_bytes(self, tmp_path, pgm16,
                                                          monkeypatch):
        from spisim import recon

        ps, m = self._gen_measure(tmp_path, pgm16, k="40")
        cache, miss, hit = tmp_path / "cache", tmp_path / "miss.pgm", tmp_path / "hit.pgm"
        pinv = ("reconstruct", "--patterns", str(ps), "--measurement", str(m),
                "--method", "pinv", "--depth", "16", "--cache-dir", str(cache))
        assert run(*pinv, "--out", str(miss)) == 0

        def no_call(*args, **kwargs):
            raise AssertionError("a cache hit rewrote the SPIV file")
        monkeypatch.setattr(recon, "save_pinv", no_call)
        assert run(*pinv, "--out", str(hit)) == 0
        assert hit.read_bytes() == miss.read_bytes()
        assert len(list(cache.iterdir())) == 1

    def test_inputs_not_mutated(self, tmp_path, pgm16):
        ps = tmp_path / "p.spip"
        m = tmp_path / "m.spim"
        run("gen", "--kind", "morlet-binary", "--size", "16x16", "--k", "12",
            "--out", str(ps))
        before = ps.read_bytes() + open(pgm16, "rb").read()
        run("measure", "--image", pgm16, "--patterns", str(ps), "--out", str(m))
        after = ps.read_bytes() + open(pgm16, "rb").read()
        assert before == after


class TestSweepAndFeatures:
    def test_sweep_with_config(self, tmp_path, rng, capsys):
        paths = []
        for i in range(2):
            p = tmp_path / f"c{i}.pgm"
            save_image(Image(rng.random((16, 16))), p, depth=8)
            paths.append(str(p))
        cfg = {
            "kinds": ["walsh-hadamard"], "crs": [1.0], "methods": ["pinv"],
            "size": 16, "seed": 1, "corpus_paths": paths,
            "output_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("sweep", "--config", str(cfg_path)) == 0
        cells = (tmp_path / "out" / "sweep_cells.csv").read_text().splitlines()
        assert len(cells) == 1 + 2
        assert (tmp_path / "out" / "sweep_summary.csv").exists()

    def test_sweep_grid_covers_kinds_methods_crs(self, tmp_path, rng, capsys):
        paths = []
        for i in range(2):
            p = tmp_path / f"c{i}.pgm"
            save_image(Image(rng.random((16, 16))), p, depth=8)
            paths.append(str(p))
        cfg = {
            "kinds": ["morlet-real", "morlet-binary"], "crs": [0.2, 0.4],
            "methods": ["pinv", "tv"], "size": 16, "seed": 2,
            "corpus_paths": paths,
            "output_dir": str(tmp_path / "out"), "tv_max_inner": 60,
        }
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("sweep", "--config", str(cfg_path)) == 0
        lines = (tmp_path / "out" / "sweep_cells.csv").read_text().strip().splitlines()
        combos = {tuple(l.split(",")[:3]) for l in lines[1:]}
        assert combos == {(k, repr(c), m)
                          for k in ("morlet-real", "morlet-binary")
                          for c in (0.2, 0.4) for m in ("pinv", "tv")}

    def test_default_config_holds_the_library_defaults(self):
        cfg = RunConfig()
        assert len(dataclasses.fields(cfg)) == 16
        assert cfg.tv_options() == TvOptions()
        assert cfg.noise_model() == NoiseModel()

    @pytest.mark.parametrize("resize", [False, True], ids=["standard-corpus", "resized-corpus"])
    def test_sweep_without_scikit_image_is_an_error_line(self, tmp_path, rng, capsys,
                                                         monkeypatch, resize):
        for name in ("skimage", "skimage.data", "skimage.transform"):
            monkeypatch.setitem(sys.modules, name, None)   # import fails
        cfg = {"kinds": ["walsh-hadamard"], "crs": [0.5], "methods": ["pinv"], "size": 16,
               "output_dir": str(tmp_path / "out")}
        if resize:
            img = tmp_path / "c.pgm"
            save_image(Image(rng.random((20, 20))), img, depth=8)
            cfg["corpus_paths"] = [str(img)]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert run("sweep", "--config", str(path)) == 2
        err = capsys.readouterr().err
        assert re.search(r"^error: .*needs scikit-image", err, re.M) and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_config_rejects_unknown_keys(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"unknown_option": 1}))
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_json(bad)

    @pytest.mark.parametrize("raw,message", [
        (5, "config must be a JSON object, got int"),
        ([["size", 8]], "config must be a JSON object, got list"),
        ({"kinds": "noiselet"}, "config key 'kinds' must be a list, got str"),
        ({"crs": 0.1}, "config key 'crs' must be a list, got float"),
        ({"methods": {"pinv": 1}}, "config key 'methods' must be a list, got dict"),
        ({"corpus_paths": "a.pgm"}, "config key 'corpus_paths' must be a list, got str"),
        ({"tv_mu_final": 1e-4}, "unknown config keys: ['tv_mu_final']"),
        ({"tv_mu_start_frac": 0.1}, "unknown config keys: ['tv_mu_start_frac']"),
    ])
    def test_malformed_config_is_an_error_line(self, tmp_path, capsys, raw, message):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        assert run("sweep", "--config", str(cfg)) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,message", [
        ("tv_mu_stages", 0, "TV mu_stages must be >= 1, got 0"),
        ("tv_max_inner", "60", "TV max_inner must be an integer, got '60'"),
    ])
    def test_invalid_tv_config_is_an_error_line(self, tmp_path, rng, capsys,
                                                key, value, message):
        img = tmp_path / "c.pgm"
        save_image(Image(rng.random((16, 16))), img, depth=8)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "kinds": ["walsh-hadamard"], "crs": [0.5], "methods": ["tv"], "size": 16,
            "corpus_paths": [str(img)],
            "output_dir": str(tmp_path / "out"), key: value}))
        assert run("sweep", "--config", str(cfg)) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [
        ("size", "16"), ("adc_bits", "12"), ("additive_sigma", "0.1"), ("output_dir", 5),
        ("corpus_paths", [5]), ("methods", ["svd"]), ("kinds", ["bogus"]),
        ("seed", 1.5), ("crs", ["a"]), ("crs", [2.0]),
        # splitmix64 would reduce these mod 2^64 into another seed's cells
        ("seed", -1), ("seed", 1 << 64),
        # checked before the corpus loads and output_dir is made
        ("additive_sigma", -1), ("adc_bits", 99), ("sigma_range", [5, 1]),
        ("sigma_range", [1]), ("kinds", []), ("crs", []), ("methods", []),
        ("np_range", [1]), ("sigma_range", []), ("np_range", []),
        # infinite bounds passed validation, then failed every morlet cell
        ("sigma_range", [1, math.inf]), ("np_range", [1, math.inf]),
        ("sigma_range", [math.inf, math.inf]),
    ])
    def test_malformed_config_value_stops_before_any_cell(self, tmp_path, rng, capsys,
                                                          key, value):
        img = tmp_path / "c.pgm"
        save_image(Image(rng.random((16, 16))), img, depth=8)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "kinds": ["walsh-hadamard"], "crs": [0.5], "methods": ["pinv"], "size": 16,
            "corpus_paths": [str(img)], "output_dir": str(tmp_path / "out"), key: value}))
        assert run("sweep", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert re.search(r"^error: ", err, re.M) and "Traceback" not in err
        assert not list(tmp_path.rglob("*.csv"))
        assert not (tmp_path / "out").exists()

    # a size-100 image loads without resizing, so before the check this
    # config made output_dir and recorded the failed cell; -8 failed at the
    # corpus with a scikit-image error
    @pytest.mark.parametrize("kinds,size", [(["morlet-real", "walsh-hadamard"], 100),
                                            (["noiselet"], 100), (["morlet-real"], -8),
                                            (["morlet-binary"], 0)])
    def test_bad_size_stops_before_any_work(self, tmp_path, rng, capsys, kinds, size):
        img = tmp_path / "c.pgm"
        save_image(Image(rng.random((100, 100))), img, depth=8)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "kinds": kinds, "crs": [0.1], "methods": ["pinv"], "size": size,
            "corpus_paths": [str(img)], "output_dir": str(tmp_path / "out")}))
        assert run("sweep", "--config", str(cfg)) == 2
        assert ("error: config key 'size' must be >= 1, and a power of 2 for walsh-hadamard "
                f"and noiselet, got {size}") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_morlet_sizes_need_not_be_powers_of_2(self):
        assert RunConfig(kinds=["morlet-real", "morlet-binary"], size=100).size == 100

    def test_readme_configs_load(self, tmp_path):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        blocks = re.findall(r"^```json\n(.*?)^```", readme, re.S | re.M)
        assert blocks
        for i, block in enumerate(blocks):
            path = tmp_path / f"readme{i}.json"
            path.write_text(block)
            RunConfig.from_json(path)

    def test_analyze_features_cli(self, tmp_path, rng, capsys):
        paths = []
        for i in range(2):
            p = tmp_path / f"c{i}.pgm"
            save_image(Image(rng.random((32, 32))), p, depth=8)
            paths.append(str(p))
        out = tmp_path / "hist.csv"
        assert run("analyze-features", "--corpus", *paths, "--size", "32",
                   "--dict-size", "48", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("sigma_lo")
        text = capsys.readouterr().out
        assert re.search(r"^histogram_concentration=[01]\.\d{4} ", text, re.M)

    def test_analyze_features_infinite_sigma_bound_is_an_error(self, tmp_path, rng, capsys):
        img = tmp_path / "c.pgm"
        save_image(Image(rng.random((16, 16))), img, depth=8)
        out = tmp_path / "hist.csv"
        assert run("analyze-features", "--corpus", str(img), "--size", "16",
                   "--dist-sigma", "1,inf", "--out", str(out)) == 2
        assert capsys.readouterr().err == \
            "error: bad sigma_range (1.0, inf): need finite bounds 0 < lo <= hi\n"
        assert not out.exists()

    @pytest.mark.parametrize("corpus", [[], ["--corpus"]], ids=["no-corpus", "bare-corpus"])
    def test_analyze_features_defaults_to_the_standard_corpus(self, tmp_path, capsys,
                                                              monkeypatch, corpus):
        for name in ("skimage", "skimage.data", "skimage.transform"):
            monkeypatch.setitem(sys.modules, name, None)   # import fails
        out = tmp_path / "hist.csv"
        assert run("analyze-features", *corpus, "--size", "16", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert re.search(r"^error: standard_corpus needs scikit-image", err, re.M)
        assert "Traceback" not in err and not out.exists()
