"""The names the benchmark's layer spans wrap must keep resolving.

bench/layers.py replaces names in spisim's modules with timing wrappers; a
rename there would only show up as a crash of `bench/run.py --trace 1`.
"""

import inspect
import sys
from pathlib import Path

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
