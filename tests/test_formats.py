"""Round-trip tests for the binary image formats."""

import numpy as np
import pytest

from occgeom import formats


class TestPfm:
    def test_roundtrip_float32_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.uniform(0, 50, size=(13, 17)).astype(np.float32).astype(np.float64)
        p = tmp_path / "d.pfm"
        formats.write_pfm(p, data)
        back = formats.read_pfm(p)
        assert np.array_equal(back, data)

    def test_header_is_little_endian_negative_scale(self, tmp_path):
        p = tmp_path / "d.pfm"
        formats.write_pfm(p, np.zeros((2, 3)))
        head = p.read_bytes()[:16]
        assert head.startswith(b"Pf\n3 2\n-1.0\n")

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            formats.write_pfm(tmp_path / "x.pfm", np.zeros((2, 2, 2)))


class TestPgm:
    def test_pgm8_roundtrip(self, tmp_path):
        data = np.array([[0, 128], [255, 7]], dtype=np.uint8)
        p = tmp_path / "m.pgm"
        formats.write_pgm8(p, data)
        assert np.array_equal(formats.read_pgm(p), data)


class TestPpm:
    def test_roundtrip_quantized(self, tmp_path):
        rng = np.random.default_rng(2)
        img = rng.uniform(size=(6, 5, 3))
        p = tmp_path / "i.ppm"
        formats.write_ppm(p, img)
        back = formats.read_ppm(p)
        assert back.shape == img.shape
        assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12

    def test_exact_on_quantized_values(self, tmp_path):
        img = np.array([[[0, 127, 255]]], dtype=np.float64) / 255.0
        p = tmp_path / "q.ppm"
        formats.write_ppm(p, img)
        assert np.array_equal(formats.read_ppm(p), img)


WRITERS = {
    "pfm": (formats.write_pfm, formats.read_pfm, np.zeros((5, 7)), 4 * 35),
    "pgm8": (formats.write_pgm8, formats.read_pgm, np.zeros((5, 7), np.uint8), 35),
    "ppm": (formats.write_ppm, formats.read_ppm, np.zeros((5, 7, 3)), 3 * 35),
}


class TestMalformed:
    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_truncated_payload_names_the_file(self, tmp_path, kind):
        write, read, data, nbytes = WRITERS[kind]
        p = tmp_path / f"cut.{kind}"
        write(p, data)
        p.write_bytes(p.read_bytes()[:-3])
        message = f"cut.{kind}: payload is {nbytes - 3} bytes, expected {nbytes}"
        with pytest.raises(ValueError, match=message):
            read(p)

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_trailing_bytes_rejected(self, tmp_path, kind):
        write, read, data, nbytes = WRITERS[kind]
        p = tmp_path / f"long.{kind}"
        write(p, data)
        p.write_bytes(p.read_bytes() + b"\0")
        with pytest.raises(ValueError, match=f"payload is {nbytes + 1} bytes, expected {nbytes}"):
            read(p)

    @pytest.mark.parametrize(
        "head, read, message",
        [
            (b"Pf\n0 2\n-1.0\n", formats.read_pfm, "width and height must be positive"),
            (b"Pf\n3 -2\n-1.0\n", formats.read_pfm, "width and height must be positive"),
            (b"Pf\n3\n-1.0\n", formats.read_pfm, "bad size line"),
            (b"Pf\n3 2\nabc\n", formats.read_pfm, "bad scale line"),
            (b"Pf\n3 2\n0.0\n", formats.read_pfm, "PFM scale must be negative"),
            (b"Pf\n3 2\n1.0\n", formats.read_pfm, "PFM scale must be negative"),
            (b"P5\n3 2\n0\n", formats.read_pgm, "PGM maxval must be 255"),
            (b"P5\n3 2\n70000\n", formats.read_pgm, "PGM maxval must be 255"),
            (b"P5\n3 2\n65535\n", formats.read_pgm, "PGM maxval must be 255"),
            (b"P6\n3 2\n65535\n", formats.read_ppm, "only 8-bit PPM"),
            (b"P6\n3 x\n255\n", formats.read_ppm, "bad size line"),
        ],
    )
    def test_bad_header_names_the_file(self, tmp_path, head, read, message):
        p = tmp_path / "bad.img"
        p.write_bytes(head + bytes(24))
        with pytest.raises(ValueError, match=f"bad.img: {message}"):
            read(p)
