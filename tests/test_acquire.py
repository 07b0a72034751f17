import re
import tracemalloc

import numpy as np
import pytest

from spisim.acquire import (Measurement, NoiseModel, apply_noise_chain, combine_differential,
                            load_measurement, measure, measure_differential,
                            measurement_to_csv, save_measurement)
from spisim.imgcore import FormatError, Image
from spisim import patterns
from spisim.patterns import gen_pattern_set, wht2


@pytest.fixture
def binary_set():
    return gen_pattern_set("morlet-binary", 16, 16, 12, master_seed=4)


class TestMeasure:
    def test_constant_image_binary_pattern(self, binary_set):
        img = Image(np.full((16, 16), 0.25))
        m = measure(img, binary_set)
        ones = binary_set.dense().sum(axis=1)
        np.testing.assert_allclose(m.values, 0.25 * ones, atol=1e-12)

    def test_zero_image_gives_zeros(self, binary_set):
        m = measure(Image(np.zeros((16, 16))), binary_set)
        assert not m.values.any()

    def test_full_wh_equals_fast_transform_oracle(self, rng):
        img = Image(rng.random((8, 8)))
        ps = gen_pattern_set("walsh-hadamard", 8, 8, 64, master_seed=0)
        m = measure(img, ps)
        oracle = wht2(img.data).ravel()[np.asarray(ps.row_meta)]
        assert np.abs(m.values - oracle).max() < 1e-10

    @pytest.mark.parametrize("kind", ["morlet-real", "morlet-binary"])
    def test_row_blocks_match_the_dense_product(self, rng, kind, monkeypatch):
        # blocks of 3 rows with a short last block; float32 rows for morlet-real
        monkeypatch.setattr(patterns, "_UNPACK_BYTES", 3 * 8 * 15 * 9)
        monkeypatch.setattr(patterns, "_DENSE_LIMIT", 0)
        ps = gen_pattern_set(kind, 15, 9, 11, master_seed=6)
        img = Image(rng.random((9, 15)))
        dense = ps.dense() @ img.vector()
        np.testing.assert_allclose(measure(img, ps).values, dense, rtol=1e-14, atol=1e-13)
        if ps.is_binary:
            m = measure_differential(img, ps)
            np.testing.assert_allclose(m.values, dense, rtol=1e-14, atol=1e-13)
            np.testing.assert_allclose(m.values_bar, img.data.sum() - dense, atol=1e-12)

    def test_morlet_measurement_memory_is_bounded(self, rng):
        # a dense float64 copy of every row peaked at 92.1 MiB here
        ps = gen_pattern_set("morlet-binary", 128, 128, 655, master_seed=1)
        img = Image(rng.random((128, 128)))
        for take in (measure, measure_differential):
            tracemalloc.start()
            try:
                take(img, ps)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 4 * 2 ** 20, take.__name__

    def test_linearity(self, rng, binary_set):
        x1 = Image(rng.random((16, 16)))
        x2 = Image(rng.random((16, 16)))
        lhs = measure(Image(2.0 * x1.data + 3.0 * x2.data), binary_set).values
        rhs = 2.0 * measure(x1, binary_set).values + 3.0 * measure(x2, binary_set).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_determinism_with_noise(self, rng, binary_set):
        img = Image(rng.random((16, 16)))
        nm = NoiseModel(additive_sigma=1e-3, adc_bits=14,
                        source_fluctuation_sigma=1e-3, seed=99)
        a = measure(img, binary_set, nm)
        b = measure(img, binary_set, nm)
        assert np.array_equal(a.values, b.values)

    def test_dimension_mismatch(self, binary_set):
        with pytest.raises(ValueError, match="match"):
            measure(Image(np.zeros((8, 8))), binary_set)

    @pytest.mark.parametrize("fn", [measure, measure_differential])
    def test_grid_mismatch_names_both_grids(self, binary_set, fn):
        with pytest.raises(ValueError, match="^image 8x8 does not match patterns 16x16$"):
            fn(Image(np.zeros((8, 8))), binary_set)

    def test_quantization_error_bound(self, rng, binary_set):
        img = Image(rng.random((16, 16)))
        exact = measure(img, binary_set).values
        q = measure(img, binary_set, NoiseModel(adc_bits=14)).values
        full = np.abs(exact).max()
        assert np.abs(q - exact).max() <= full / 2 ** 14 / 2 + 1e-15

    def test_noisy_noiselet_samples_are_quantized_reals(self, rng):
        # the ADC full scale is the largest |real sample|, as for every kind
        ps = gen_pattern_set("noiselet", 16, 16, 40, master_seed=3)
        img = Image(rng.random((16, 16)))
        m = measure(img, ps, NoiseModel(adc_bits=8))
        step = m.full_scale / 2 ** 8
        assert m.values.dtype == np.float64 and m.k == 2 * ps.k
        assert m.full_scale == np.abs(measure(img, ps).values).max()
        assert np.array_equal(np.round(m.values / step) * step, m.values)
        assert np.abs(m.values).max() == m.full_scale

    def test_compression_ratio_recorded(self, binary_set):
        m = measure(Image(np.zeros((16, 16))), binary_set)
        assert m.compression_ratio == pytest.approx(12 / 256)


class TestDifferential:
    def test_additive_noise_is_one_block_drawn_detector_by_detector(self):
        raw = np.array([[1.0, -2.0, 3.0], [0.5, 0.5, 0.5]])
        noisy, full_scale = apply_noise_chain(raw, NoiseModel(additive_sigma=0.1, seed=3))
        # Y's k draws first, then Ybar's, scaled by the largest |raw sample|
        want = raw + 0.1 * 3.0 * np.random.default_rng(3).standard_normal((2, 3))
        assert np.array_equal(noisy, want) and full_scale == 0.0

    def test_complementary_fluxes(self, rng, binary_set):
        img = Image(rng.random((16, 16)))
        m = measure_differential(img, binary_set)
        total = img.data.sum()
        np.testing.assert_allclose(m.values + m.values_bar, total, atol=1e-10)

    def test_fluctuation_cancels_in_ratio(self, rng, binary_set):
        img = Image(rng.random((16, 16)) + 0.1)
        nm = NoiseModel(source_fluctuation_sigma=0.05, seed=7)
        noisy = measure_differential(img, binary_set, nm)
        clean = measure_differential(img, binary_set)
        ratio_noisy = (noisy.values - noisy.values_bar) / (noisy.values + noisy.values_bar)
        ratio_clean = (clean.values - clean.values_bar) / (clean.values + clean.values_bar)
        np.testing.assert_allclose(ratio_noisy, ratio_clean, atol=1e-11)

    def test_constant_image_half_ones_pattern(self):
        # handmade set: one constant row plus a half-ones row
        ps = gen_pattern_set("morlet-binary", 16, 16, 20, master_seed=11)
        img = Image(np.full((16, 16), 0.5))
        m = measure_differential(img, ps)
        diff = combine_differential(m)
        dense = ps.dense()
        half = np.isclose(dense.mean(axis=1), 0.5)
        assert half.any()
        np.testing.assert_allclose(diff[half], 0.0, atol=1e-12)

    def test_combine_matches_bipolar_rows(self, rng, binary_set):
        img = Image(rng.random((16, 16)))
        diff = combine_differential(measure_differential(img, binary_set))
        eff = 2.0 * binary_set.dense() - 1.0
        eff[0] = 1.0  # constant row
        np.testing.assert_allclose(diff, eff @ img.vector(), atol=1e-12)

    def test_combine_simple_values(self):
        m = Measurement(values=np.array([3.0, 1.0]), values_bar=np.array([1.0, 3.0]),
                        pattern_set_hash=b"\x00" * 32, noise_model=NoiseModel(),
                        compression_ratio=0.5)
        np.testing.assert_array_equal(combine_differential(m), [2.0, -2.0])

    def test_all_ones_row_equals_total_flux(self, rng, binary_set):
        img = Image(rng.random((16, 16)))
        diff = combine_differential(measure_differential(img, binary_set))
        assert diff[0] == pytest.approx(img.data.sum(), abs=1e-12)

    def test_requires_binary_kind(self, rng):
        ps = gen_pattern_set("walsh-hadamard", 16, 16, 8, master_seed=0)
        with pytest.raises(ValueError, match="binary"):
            measure_differential(Image(rng.random((16, 16))), ps)

    def test_combine_requires_differential(self, rng, binary_set):
        m = measure(Image(rng.random((16, 16))), binary_set)
        with pytest.raises(ValueError, match="differential"):
            combine_differential(m)


class TestNoiseModelValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            NoiseModel(additive_sigma=-1.0)
        with pytest.raises(ValueError):
            NoiseModel(adc_bits=30)

    @pytest.mark.parametrize("name", ["additive_sigma", "source_fluctuation_sigma"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1e-300])
    def test_sigmas_must_be_finite_and_non_negative(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
            NoiseModel(**{name: value})

    @pytest.mark.parametrize("seed", [-1, 1 << 64, 1 << 70])
    def test_seed_must_fit_its_u64_field(self, seed):
        with pytest.raises(ValueError, match=r"noise seed must lie in \[0, 2\^64\)"):
            NoiseModel(seed=seed)

    def test_largest_seed_round_trips(self, rng, binary_set, tmp_path):
        nm = NoiseModel(additive_sigma=1e-3, seed=(1 << 64) - 1)
        save_measurement(measure(Image(rng.random((16, 16))), binary_set, nm),
                         tmp_path / "m.spim")
        assert load_measurement(tmp_path / "m.spim").noise_model == nm


class TestSerialization:
    @pytest.mark.parametrize("take", ["plain", "differential", "noiselet"])
    def test_spim_roundtrip(self, rng, binary_set, tmp_path, take):
        nm = NoiseModel(additive_sigma=1e-3, adc_bits=14, source_fluctuation_sigma=2e-3,
                        seed=5)
        if take == "noiselet":
            ps = gen_pattern_set("noiselet", 8, 8, 10, master_seed=2)
            m = measure(Image(rng.random((8, 8))), ps, nm)
            assert m.values.dtype == np.float64 and m.k == 2 * ps.k
        else:
            fn = measure_differential if take == "differential" else measure
            m = fn(Image(rng.random((16, 16))), binary_set, nm)
        save_measurement(m, tmp_path / "m.spim")
        back = load_measurement(tmp_path / "m.spim")
        assert np.array_equal(back.values, m.values)
        assert back.values.dtype == m.values.dtype
        assert back.is_differential == m.is_differential
        if m.is_differential:
            assert np.array_equal(back.values_bar, m.values_bar)
        assert back.pattern_set_hash == m.pattern_set_hash
        assert back.noise_model == m.noise_model
        assert back.compression_ratio == m.compression_ratio
        assert back.full_scale == m.full_scale

    @pytest.mark.parametrize("values,values_bar", [
        ([1 + 2j, 3], None), ([1 + 2j, 3], [0.5, 0.5]), ([1.0, 3.0], [0.5 + 1j, 0.5])],
        ids=["plain", "differential", "complex-bar"])
    def test_complex_measurement_is_refused(self, values, values_bar):
        # SPIM stores real samples: saving would drop the imaginary parts
        with pytest.raises(ValueError, match="real samples"):
            Measurement(values=np.array(values),
                        values_bar=None if values_bar is None else np.array(values_bar),
                        pattern_set_hash=bytes(32), noise_model=NoiseModel(),
                        compression_ratio=0.5)

    # a values_bar of another length used to be accepted and broadcast by
    # combine_differential, and a 2-D values saved under a header whose k
    # was its row count
    @pytest.mark.parametrize("fields,message", [
        (dict(values=[1, 2, 3], values_bar=[1]),
         "measurement values and values_bar must be 1-D arrays of one length, "
         "got shapes [(3,), (1,)]"),
        (dict(values=np.ones((2, 3))),
         "measurement values and values_bar must be 1-D arrays of one length, "
         "got shapes [(2, 3)]"),
        (dict(values=np.ones((2, 3)), values_bar=np.ones((2, 3))),
         "measurement values and values_bar must be 1-D arrays of one length, "
         "got shapes [(2, 3), (2, 3)]"),
        (dict(values=np.ones(3), values_bar=np.ones((1, 3))),
         "measurement values and values_bar must be 1-D arrays of one length, "
         "got shapes [(3,), (1, 3)]"),
        (dict(values=np.ones(3), compression_ratio=0.0), "compression ratio 0.0 outside (0, 2]"),
        (dict(values=np.ones(3), compression_ratio=2.5), "compression ratio 2.5 outside (0, 2]"),
        (dict(values=np.ones(3), pattern_set_hash=bytes(31)), "pattern_set_hash must be 32 bytes"),
    ], ids=["bar-length", "2d", "2d-pair", "2d-bar", "cr-0", "cr-2.5", "hash-31"])
    def test_malformed_measurement_is_refused(self, fields, message):
        kw = dict(pattern_set_hash=bytes(32), noise_model=NoiseModel(), compression_ratio=0.5)
        with pytest.raises(ValueError, match=re.escape(message)):
            Measurement(**{**kw, **fields})

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("take", ["plain", "differential"])
    def test_non_finite_samples_are_refused(self, rng, binary_set, tmp_path, bad, take):
        fn = measure_differential if take == "differential" else measure
        m = fn(Image(rng.random((16, 16))), binary_set)
        save_measurement(m, tmp_path / "m.spim")
        raw = bytearray((tmp_path / "m.spim").read_bytes())
        # the last sample: of values_bar when differential, else of values
        at = 11 + 8 * (m.k * (1 + m.is_differential) - 1)   # after the "<4sHIB" header
        raw[at:at + 8] = np.float64(bad).tobytes()
        (tmp_path / "bad.spim").write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="samples must be finite"):
            load_measurement(tmp_path / "bad.spim")

    @pytest.mark.parametrize("differential", [False, True])
    def test_wrong_length_is_a_format_error(self, rng, binary_set, tmp_path,
                                            differential):
        take = measure_differential if differential else measure
        save_measurement(take(Image(rng.random((16, 16))), binary_set), tmp_path / "m.spim")
        raw = (tmp_path / "m.spim").read_bytes()
        for bad in (raw[:-1], raw + b"\0"):
            (tmp_path / "bad.spim").write_bytes(bad)
            with pytest.raises(FormatError, match="header says"):
                load_measurement(tmp_path / "bad.spim")

    # 0x02 was a complex payload: a noiselet measurement is now real samples
    @pytest.mark.parametrize("flags", [0x02, 0x03, 0x04, 0x80])
    def test_unknown_flags_are_a_format_error(self, rng, binary_set, tmp_path, flags):
        save_measurement(measure(Image(rng.random((16, 16))), binary_set), tmp_path / "m.spim")
        raw = bytearray((tmp_path / "m.spim").read_bytes())
        raw[10] = flags                 # the flags byte of the header "<4sHIB"
        (tmp_path / "bad.spim").write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"unknown SPIM flags 0x{flags:02x}"):
            load_measurement(tmp_path / "bad.spim")

    def test_csv_export(self, rng, binary_set, tmp_path):
        m = measure_differential(Image(rng.random((16, 16))), binary_set)
        measurement_to_csv(m, tmp_path / "m.csv")
        lines = (tmp_path / "m.csv").read_text().strip().splitlines()
        assert lines[0] == "index,value,value_bar"
        assert len(lines) == m.k + 1
        i, v, vb = lines[1].split(",")
        assert int(i) == 0 and float(v) == m.values[0] and float(vb) == m.values_bar[0]

    def test_csv_export_noiselet(self, rng, tmp_path):
        ps = gen_pattern_set("noiselet", 8, 8, 4, master_seed=2)
        m = measure(Image(rng.random((8, 8))), ps)
        measurement_to_csv(m, tmp_path / "m.csv")
        lines = (tmp_path / "m.csv").read_text().strip().splitlines()
        assert lines[0] == "index,value"
        assert len(lines) == 2 * ps.k + 1
        assert [float(line.split(",")[1]) for line in lines[1:]] == m.values.tolist()
