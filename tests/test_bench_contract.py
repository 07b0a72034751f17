"""The names the benchmark's layer spans wrap must keep resolving.

bench/layers.py replaces names in spisim's modules with timing wrappers; a
rename there would only show up as a crash of `bench/run.py --trace 1`.
"""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_layer_spans_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    from spans import Tracer
    from spisim import analyze, patterns, recon

    before = recon._nesta_stage
    tr = Tracer()
    try:
        layers.install(tr)
        assert recon._nesta_stage is not before
    finally:
        tr.restore()
    assert recon._nesta_stage is before
    for name in ("layers", "spans"):
        sys.modules.pop(name, None)

    params = list(inspect.signature(recon._nesta_stage).parameters)
    assert params == ["op", "b", "x0", "mu", "eps", "opts"]
    assert analyze._DENSE_LIMIT == patterns._DENSE_LIMIT


def test_operators_and_measure_go_through_transform_names(monkeypatch):
    # bench/layers.py times patterns.transform by wrapping these names only
    # where they exist; an operator calling a renamed transform would report
    # patterns.transform_* as 0 instead of failing
    from spisim import acquire, recon
    from spisim.imgcore import Image
    from spisim.patterns import gen_pattern_set

    # both operators run on real Walsh-Hadamard transforms (the noiselet
    # operator as two of them per call); only the measurement needs noiselet2
    calls = []
    for owner, names in ((recon, ("wht2",)), (acquire, ("wht2", "noiselet2"))):
        for name in names:
            fn = getattr(owner, name, None)
            assert callable(fn), f"{owner.__name__}.{name} is missing"

            def counted(*a, _fn=fn, _key=f"{owner.__name__}.{name}", **kw):
                calls.append(_key)
                return _fn(*a, **kw)
            monkeypatch.setattr(owner, name, counted)

    img = Image(np.random.default_rng(0).random((8, 16)))
    for kind, name, per_call in (("walsh-hadamard", "wht2", 1), ("noiselet", "noiselet2", 2)):
        ps = gen_pattern_set(kind, 16, 8, 40, master_seed=3)
        op = recon.linear_model(ps)
        x = img.data.reshape(1, -1)
        calls.clear()
        z = op.forward(x)
        assert calls == ["spisim.recon.wht2"] * per_call
        calls.clear()
        op.adjoint(z)
        assert calls == ["spisim.recon.wht2"] * per_call
        calls.clear()
        acquire.measure(img, ps)
        assert calls == [f"spisim.acquire.{name}"]


def test_subset_operators_open_only_their_own_spans(monkeypatch):
    # both fast-transform operators inherit forward and adjoint from one
    # base class; a wrapper landing on that shared method (or one class's
    # wrapper reaching the other) would time a call under both labels
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    from spans import Tracer
    from spisim import recon
    from spisim.patterns import gen_pattern_set

    opened = []

    class RecordingTracer(Tracer):
        def open(self, name):
            opened.append(name)
            super().open(name)

    ops = {label: recon.linear_model(gen_pattern_set(kind, 16, 8, 40, master_seed=3))
           for label, kind in (("wht", "walsh-hadamard"), ("noiselet", "noiselet"))}
    x = np.random.default_rng(0).random((2, 128))
    want = {label: (op.forward(x), op.adjoint(op.forward(x))) for label, op in ops.items()}
    tr = RecordingTracer()
    try:
        layers.install(tr)
        for label, op in ops.items():
            for direction in ("forward", "adjoint"):
                opened.clear()
                getattr(op, direction)(x if direction == "forward" else want[label][0])
                assert [n for n in opened if n.startswith("recon.")] == \
                    [f"recon.{direction}.{label}"]
    finally:
        tr.restore()
        for name in ("layers", "spans"):
            sys.modules.pop(name, None)
    opened.clear()
    for label, op in ops.items():
        z = op.forward(x)
        assert z.tobytes() == want[label][0].tobytes()
        assert op.adjoint(z).tobytes() == want[label][1].tobytes()
    assert opened == []


def test_no_span_opens_inside_a_span_of_the_same_name(monkeypatch, rng):
    # a measurement wrapped twice under one name (say acquire.measure around
    # analyze._measure_effective calling measure) counts its time twice
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    from spans import Tracer
    from spisim.analyze import run_sweep
    from spisim.imgcore import Image
    from spisim.patterns import KINDS
    from spisim.recon import TvOptions

    nested = []

    class NestingTracer(Tracer):
        def open(self, name):
            if any(frame[0] == name for frame in self._stack):
                nested.append(name)
            super().open(name)

    tr = NestingTracer()
    corpus = [(f"img{i}", Image(rng.random((16, 16)))) for i in range(2)]
    try:
        layers.install(tr)
        res = run_sweep(corpus, list(KINDS), [0.25], ["pinv", "tv"],
                        tv_opts=TvOptions(max_inner=3, mu_stages=2))
    finally:
        tr.restore()
        for name in ("layers", "spans"):
            sys.modules.pop(name, None)
    assert not res.errors
    assert nested == []
    assert tr.calls["acquire.measure"] == len(KINDS) * len(corpus)


def test_spiv_cache_names_and_written_path(monkeypatch, tmp_path):
    # bench/layers.py wraps recon.cached_pinv, save_pinv and load_pinv by name,
    # reads the written file's path from save_pinv's second positional
    # argument, and counts cache hits as lookups minus writes
    from spisim import recon
    from spisim.patterns import gen_pattern_set

    assert callable(recon.cached_pinv) and callable(recon.load_pinv)
    assert list(inspect.signature(recon.save_pinv).parameters)[1] == "path"

    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    from spans import Tracer

    ps = gen_pattern_set("morlet-binary", 16, 16, 12, master_seed=3)
    tr = Tracer()
    try:
        layers.install(tr)
        recon.cached_pinv(ps, tmp_path)   # miss
        recon.cached_pinv(ps, tmp_path)   # hit
    finally:
        tr.restore()
        for name in ("layers", "spans"):
            sys.modules.pop(name, None)
    spiv, = tmp_path.glob("*.spiv")
    assert tr.counters["recon.spiv_bytes"] == spiv.stat().st_size
    assert (tr.calls["recon.cache_lookup"], tr.calls["recon.spiv_write"],
            tr.calls["recon.spiv_read"]) == (2, 1, 2)


@pytest.mark.parametrize("kind", ["morlet-real", "morlet-binary", "walsh-hadamard", "noiselet"])
def test_spip_save_load_and_hash_open_one_span_each(monkeypatch, tmp_path, kind):
    # bench/layers.py wraps PatternSet.save, load_pattern_set and
    # PatternSet.content_hash; one calling another would count a span twice,
    # and a renamed method would count none
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    from spans import Tracer
    from spisim import patterns

    opened = []

    class RecordingTracer(Tracer):
        def open(self, name):
            opened.append(name)
            super().open(name)

    ps = patterns.gen_pattern_set(kind, 16, 8, 10, master_seed=3)
    path = tmp_path / "p.spip"
    tr = RecordingTracer()
    seen = []
    try:
        layers.install(tr)
        for call in (lambda: ps.save(path), lambda: patterns.load_pattern_set(path),
                     lambda: ps.content_hash()):
            opened.clear()
            call()
            seen.append([n for n in opened if n.startswith("patterns.")])
    finally:
        tr.restore()
        for name in ("layers", "spans"):
            sys.modules.pop(name, None)
    assert seen == [["patterns.spip_write"], ["patterns.spip_read"], ["patterns.hash"]]
    assert tr.counters["patterns.spip_bytes"] == path.stat().st_size
