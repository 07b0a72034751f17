import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spisim.imgcore import (FormatError, Image, complex_grid, load_image,
                            save_image, save_spif)


def write(path, payload):
    path.write_bytes(payload)
    return str(path)


class TestLoadPgm:
    def test_8bit_affine_map(self, tmp_path):
        buf = b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64])
        img = load_image(write(tmp_path / "a.pgm", buf))
        assert img.data.shape == (2, 2)
        np.testing.assert_allclose(img.vector(), [0.0, 1.0, 128 / 255, 64 / 255])
        assert img.source_depth == 8

    def test_16bit_big_endian(self, tmp_path):
        buf = b"P5 2 1 65535 " + (12345).to_bytes(2, "big") + (65535).to_bytes(2, "big")
        img = load_image(write(tmp_path / "a.pgm", buf))
        np.testing.assert_allclose(img.vector(), [12345 / 65535, 1.0])
        assert img.source_depth == 16

    def test_comments_in_header(self, tmp_path):
        buf = b"P5\n# a comment\n1 1\n255\n\x80"
        img = load_image(write(tmp_path / "a.pgm", buf))
        assert img.data[0, 0] == 128 / 255

    def test_empty_file_is_truncated(self, tmp_path):
        with pytest.raises(FormatError):
            load_image(write(tmp_path / "a.pgm", b""))

    def test_truncated_payload(self, tmp_path):
        with pytest.raises(FormatError, match="truncated"):
            load_image(write(tmp_path / "a.pgm", b"P5\n4 4\n255\n\x00\x01"))

    def test_zero_dimensions(self, tmp_path):
        with pytest.raises(FormatError):
            load_image(write(tmp_path / "a.pgm", b"P5\n0 2\n255\n"))

    def test_unsupported_format(self, tmp_path):
        with pytest.raises(FormatError, match="unsupported"):
            load_image(write(tmp_path / "a.png", b"\x89PNG\r\n"))


class TestSavePgm:
    def test_half_rounds_up_to_128(self, tmp_path):
        save_image(Image(np.full((2, 2), 0.5)), tmp_path / "a.pgm", depth=8)
        payload = (tmp_path / "a.pgm").read_bytes()
        assert payload.endswith(bytes([128] * 4))

    def test_out_of_range_clamped(self, tmp_path):
        save_image(Image(np.array([[1.7, -0.3]])), tmp_path / "a.pgm", depth=8)
        assert (tmp_path / "a.pgm").read_bytes().endswith(bytes([255, 0]))

    def test_header_tokens(self, tmp_path):
        save_image(Image(np.zeros((1, 3))), tmp_path / "a.pgm", depth=8)
        head = (tmp_path / "a.pgm").read_bytes().split(b"\x00")[0]
        assert head.split() == [b"P5", b"3", b"1", b"255"]

    def test_bad_depth(self, tmp_path):
        with pytest.raises(ValueError):
            save_image(Image(np.zeros((1, 1))), tmp_path / "a.pgm", depth=12)


@settings(max_examples=25, deadline=None)
@given(arrays(np.float64, (3, 5), elements=st.floats(0, 1)))
def test_roundtrip_16bit_within_quantization(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("rt") / "img.pgm"
    save_image(Image(data), tmp, depth=16)
    back = load_image(tmp)
    assert np.abs(back.data - data).max() <= 0.5 / 65535 + 1e-12


def test_spif_roundtrip_is_lossless(tmp_path, rng):
    img = Image(rng.standard_normal((7, 9)))  # SPIF carries out-of-range values
    save_spif(img, tmp_path / "a.spif")
    back = load_image(tmp_path / "a.spif")
    assert np.array_equal(back.data, img.data)


def test_spif_truncation(tmp_path):
    save_spif(Image(np.zeros((4, 4))), tmp_path / "a.spif")
    payload = (tmp_path / "a.spif").read_bytes()
    (tmp_path / "b.spif").write_bytes(payload[:-8])
    with pytest.raises(FormatError, match="truncated"):
        load_image(tmp_path / "b.spif")


class TestValueTypes:
    def test_image_rejects_nan(self):
        with pytest.raises(ValueError):
            Image(np.array([[0.0, np.nan]]))

    def test_image_is_immutable(self, random_image):
        with pytest.raises(ValueError):
            random_image.data[0, 0] = 3.0
        with pytest.raises(AttributeError):
            random_image.data = np.zeros((2, 2))

    def test_complex_grid_rejects_nan(self):
        with pytest.raises(ValueError):
            complex_grid([[1.0 + 1j, complex(np.nan, 0)]])

    def test_degenerate_shapes_rejected(self):
        with pytest.raises(ValueError):
            Image(np.zeros((0, 2)))
