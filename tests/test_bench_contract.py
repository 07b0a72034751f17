"""The names the benchmark's layer spans wrap must keep resolving.

bench/layers.py replaces names in spisim's modules with timing wrappers; a
rename there would only show up as a crash of `bench/run.py --trace 1`.
"""

import inspect
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_layer_spans_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    from spans import Tracer
    from spisim import analyze, recon

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
    assert analyze._DENSE_LIMIT == recon._DENSE_LIMIT


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
