import numpy as np
import pytest

from scrollbin.errors import PnmDecodeError, ScrollbinError
from scrollbin.imagecore import (
    BinaryMask,
    GrayImage,
    RgbImage,
    read_pnm,
    to_grayscale,
    write_pnm,
)


def write_bytes(path, payload: bytes):
    path.write_bytes(payload)
    return path


class TestReadPnm:
    def test_smallest_legal_pgm(self, tmp_path):
        img = read_pnm(write_bytes(tmp_path / "a.pgm", b"P2 2 1 255 0 255"))
        assert isinstance(img, GrayImage)
        assert img.width == 2 and img.height == 1
        assert img.pixels.tolist() == [[0, 255]]

    def test_plain_pbm_ones_are_ink(self, tmp_path):
        mask = read_pnm(write_bytes(tmp_path / "a.pbm", b"P1 2 2 1 0 0 1"))
        assert isinstance(mask, BinaryMask)
        assert mask.ink.tolist() == [[True, False], [False, True]]

    def test_plain_pbm_packed_digits(self, tmp_path):
        mask = read_pnm(write_bytes(tmp_path / "a.pbm", b"P1 4 1\n1001"))
        assert mask.ink.tolist() == [[True, False, False, True]]

    def test_plain_ppm(self, tmp_path):
        img = read_pnm(write_bytes(tmp_path / "a.ppm", b"P3 1 2 255 1 2 3 4 5 6"))
        assert isinstance(img, RgbImage)
        assert img.pixels.tolist() == [[[1, 2, 3]], [[4, 5, 6]]]

    def test_comments_skipped(self, tmp_path):
        data = b"P2 # magic\n# a comment line\n2 1 # dims\n255\n7 9"
        img = read_pnm(write_bytes(tmp_path / "a.pgm", data))
        assert img.pixels.tolist() == [[7, 9]]

    def test_raw_pbm_row_padding(self, tmp_path):
        # 9 columns -> 2 bytes per row, MSB first
        payload = b"P4\n9 2\n" + bytes([0b10000000, 0b10000000, 0b00000001, 0b00000000])
        mask = read_pnm(write_bytes(tmp_path / "a.pbm", payload))
        assert mask.width == 9 and mask.height == 2
        assert mask.ink[0].tolist() == [True] + [False] * 7 + [True]
        assert mask.ink[1].tolist() == [False] * 7 + [True, False]

    def test_bad_magic(self, tmp_path):
        with pytest.raises(PnmDecodeError):
            read_pnm(write_bytes(tmp_path / "a.pgm", b"P9 1 1 255 0"))

    def test_maxval_rejected(self, tmp_path):
        with pytest.raises(PnmDecodeError, match="maxval"):
            read_pnm(write_bytes(tmp_path / "a.pgm", b"P5 1 1 65535\n\x00\x00"))

    def test_truncated_payload_names_offset(self, tmp_path):
        with pytest.raises(PnmDecodeError, match="byte offset") as err:
            read_pnm(write_bytes(tmp_path / "a.pgm", b"P5 4 4 255\n\x01\x02"))
        assert err.value.offset == 11

    def test_malformed_header(self, tmp_path):
        with pytest.raises(PnmDecodeError):
            read_pnm(write_bytes(tmp_path / "a.pgm", b"P5 four 4 255\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(PnmDecodeError):
            read_pnm(write_bytes(tmp_path / "a.pgm", b""))


class TestWritePnm:
    def test_all_ink_mask_payload_bits(self, tmp_path):
        mask = BinaryMask(np.ones((2, 8), dtype=bool))
        path = tmp_path / "m.pbm"
        write_pnm(mask, path)
        payload = path.read_bytes().split(b"\n", 2)[2]
        assert payload == b"\xff\xff"

    def test_single_pixel_pgm_bytes(self, tmp_path):
        path = tmp_path / "g.pgm"
        write_pnm(GrayImage(np.array([[7]], dtype=np.uint8)), path)
        assert path.read_bytes() == b"P5\n1 1\n255\n\x07"

    @pytest.mark.parametrize("binary", [True, False])
    def test_roundtrip_gray(self, tmp_path, binary):
        rng = np.random.default_rng(1)
        for trial in range(20):
            h, w = rng.integers(1, 40, 2)
            img = GrayImage(rng.integers(0, 256, (h, w), dtype=np.uint8))
            path = tmp_path / f"g{trial}.pgm"
            write_pnm(img, path, binary_encoding=binary)
            assert np.array_equal(read_pnm(path).pixels, img.pixels)

    @pytest.mark.parametrize("binary", [True, False])
    def test_roundtrip_rgb(self, tmp_path, binary):
        rng = np.random.default_rng(2)
        for trial in range(10):
            h, w = rng.integers(1, 40, 2)
            img = RgbImage(rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
            path = tmp_path / f"c{trial}.ppm"
            write_pnm(img, path, binary_encoding=binary)
            assert np.array_equal(read_pnm(path).pixels, img.pixels)

    @pytest.mark.parametrize("binary", [True, False])
    def test_roundtrip_mask(self, tmp_path, binary):
        rng = np.random.default_rng(3)
        for trial in range(10):
            h, w = rng.integers(1, 40, 2)
            mask = BinaryMask(rng.random((h, w)) < 0.5)
            path = tmp_path / f"m{trial}.pbm"
            write_pnm(mask, path, binary_encoding=binary)
            assert np.array_equal(read_pnm(path).ink, mask.ink)


class TestGrayscale:
    def test_white(self):
        img = RgbImage(np.full((1, 1, 3), 255, dtype=np.uint8))
        assert to_grayscale(img).pixels[0, 0] == 255

    def test_pure_red(self):
        img = RgbImage(np.array([[[255, 0, 0]]], dtype=np.uint8))
        assert to_grayscale(img).pixels[0, 0] == 76  # round(0.299 * 255)

    def test_gray_fixed_point(self):
        v = np.arange(256, dtype=np.uint8)
        img = RgbImage(np.stack([v, v, v], axis=1)[None, :, :])
        assert np.array_equal(to_grayscale(img).pixels[0], v)


class TestInvariants:
    def test_gray_needs_2d(self):
        with pytest.raises(ScrollbinError):
            GrayImage(np.zeros((2, 2, 3), dtype=np.uint8))

    def test_mask_needs_bool(self):
        with pytest.raises(ScrollbinError):
            BinaryMask(np.zeros((2, 2), dtype=np.uint8))

    def test_rgb_needs_three_channels(self):
        with pytest.raises(ScrollbinError):
            RgbImage(np.zeros((2, 2, 4), dtype=np.uint8))
