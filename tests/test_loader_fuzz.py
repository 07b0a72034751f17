"""Mutated SPIP, SPIM, SPIV, PGM and SPIF files load or raise ValueError.

Every reader either returns an object or raises ValueError (FormatError is a
subclass), which the CLI turns into an `error:` line and exit code 2. Each
saved file is mutated by flipped bits in its first 80 bytes (the headers),
by truncation at a random length, or by 1-8 trailing bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spisim.acquire import (NoiseModel, load_measurement, measure, measure_differential,
                            save_measurement)
from spisim.imgcore import Image, load_image, save_image, save_spif
from spisim.patterns import gen_pattern_set, load_pattern_set
from spisim.recon import cached_pinv, load_pinv

LOADERS = {".spip": load_pattern_set, ".spim": load_measurement, ".spiv": load_pinv,
           ".pgm": load_image, ".spif": load_image}


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """name -> bytes of one saved file of each format and variant."""
    root = tmp_path_factory.mktemp("saved")
    img = Image(np.random.default_rng(5).random((16, 16)))
    sets = {kind: gen_pattern_set(kind, 16, 16, 12, master_seed=3)
            for kind in ("morlet-real", "morlet-binary", "walsh-hadamard", "noiselet")}
    for kind, ps in sets.items():
        ps.save(root / f"{kind}.spip")
    nm = NoiseModel(additive_sigma=0.01, adc_bits=12, seed=2)
    save_measurement(measure(img, sets["morlet-real"], nm), root / "plain.spim")
    save_measurement(measure_differential(img, sets["morlet-binary"]),
                     root / "differential.spim")
    save_measurement(measure(img, sets["noiselet"]), root / "noiselet.spim")
    cached_pinv(sets["morlet-real"], root)   # writes <content hash>.spiv
    next(root.glob("*.spiv")).rename(root / "pinv.spiv")
    save_image(img, root / "image16.pgm", depth=16)
    save_spif(img, root / "image.spif")
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


NAMES = ["morlet-real.spip", "morlet-binary.spip", "walsh-hadamard.spip", "noiselet.spip",
         "plain.spim", "differential.spim", "noiselet.spim", "pinv.spiv", "image16.pgm",
         "image.spif"]


@st.composite
def mutations(draw, size):
    how = draw(st.sampled_from(["flip", "truncate", "append"]))
    if how == "flip":
        return how, draw(st.lists(st.tuples(st.integers(0, min(size, 80) - 1),
                                            st.integers(0, 7)), min_size=1, max_size=8))
    if how == "truncate":
        return how, draw(st.integers(0, size - 1))
    return how, draw(st.binary(min_size=1, max_size=8))


def _mutate(raw, mutation):
    how, arg = mutation
    if how == "truncate":
        return raw[:arg]
    if how == "append":
        return raw + arg
    out = bytearray(raw)
    for pos, bit in arg:
        out[pos] ^= 1 << bit
    return bytes(out)


@pytest.mark.parametrize("name", NAMES)
def test_saved_file_loads(saved, tmp_path, name):
    path = tmp_path / name
    path.write_bytes(saved[name])
    LOADERS[path.suffix](path)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_file_loads_or_raises_value_error(saved, tmp_path_factory, name, data):
    raw = saved[name]
    path = tmp_path_factory.getbasetemp() / f"mutated-{name}"
    path.write_bytes(_mutate(raw, data.draw(mutations(len(raw)))))
    try:
        LOADERS[path.suffix](path)
    except ValueError:
        pass
