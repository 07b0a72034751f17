import json
import re
from pathlib import Path

import pytest

from spisim.cli import RunConfig, main
from spisim.imgcore import Image, save_image


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

    def test_short_pinv_cache_file_is_recomputed(self, tmp_path, pgm16):
        from spisim.patterns import load_pattern_set

        ps, m = self._gen_measure(tmp_path, pgm16)
        cache = tmp_path / "cache"
        cache.mkdir()
        spiv = cache / (load_pattern_set(ps).content_hash().hex() + ".spiv")
        spiv.write_bytes(bytes(20))
        assert self._reconstruct(tmp_path, ps, m, "--cache-dir", str(cache)) == 0
        assert spiv.stat().st_size == 88 + 8 * 12 * 12  # header + W, k x r float64
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
    ])
    def test_malformed_config_is_an_error_line(self, tmp_path, capsys, raw, message):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        assert run("sweep", "--config", str(cfg)) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,message", [
        ("tv_mu_start_frac", 0, "TV mu_start_frac must be positive and finite, got 0"),
        ("tv_mu_final", -1e-4, "TV mu_final must be positive and finite, got -0.0001"),
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
