import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# (input, PnmDecodeError.offset). Offsets match the byte-at-a-time scanner the
# codec replaced, except the rows marked "token rule": it read tokens with
# int(), which also takes a sign or underscores; a token now has to be [0-9]+.
MALFORMED = [
    (b"P", 0),  # too short for a magic number
    (b"P7 1 1 255\n\x00", 0),  # unknown magic
    (b"P2 four 4 255\n", 2),  # bad header token: offset of the skip before it
    (b"P2 # c\n2 x1 255\n", 8),
    (b"P2 +5 1 255 0", 2),  # token rule
    (b"P2 2 1 255 7 1_0", 12),  # token rule
    (b"P2 2 1 255\n-0 3", 10),  # token rule
    (b"P3 1 1 255\n  +5 1 2", 10),  # token rule
    (b"P2 3 1 255 1 256 3", 12),  # sample above maxval mid-payload
    (b"P2 2 1 255 25\x00 3", 10),  # NUL-suffixed sample
    (b"P2 3 1 255 1 2", 14),  # truncated P2: end of data
    (b"P2 3 1 255 1 2 # 3\n", 19),
    (b"P2 1 1 # maxval never comes", 27),  # header ends inside a comment
    (b"P2 1 1 " + b"#" * 40, 47),
    (b"P1 3 1 1 # 2\n0 2", 15),  # bad P1 bit after a comment: that byte
    (b"P1 2 2 10\n#x\n1z", 14),
    (b"P1 4 1 10 1", 11),  # truncated P1
    (b"P5 0 4 255\n", 6),  # bad dimensions: end of the height token
    (b"P4 3 0\n", 6),
    (b"P2 1 1 254 0", 6),  # unsupported maxval
    (b"P5 1 1 255#\n\x07", 10),  # raw header not ended by whitespace
    (b"P5 1 1 255", 10),  # raw header with no payload
    (b"P6 2 1 255\n\x01\x02\x03", 11),  # truncated raw payload
    (b"P4 9 2\n\x00\x00\x00", 7),
]


@pytest.mark.parametrize("data, offset", MALFORMED)
def test_malformed_input_offset(tmp_path, data, offset):
    with pytest.raises(PnmDecodeError) as err:
        read_pnm(write_bytes(tmp_path / "bad.pnm", data))
    assert err.value.offset == offset


def test_bytes_after_plain_payload_ignored(tmp_path):
    img = read_pnm(write_bytes(tmp_path / "a.pgm", b"P2 2 1 255 1 2 trailing junk 999"))
    assert img.pixels.tolist() == [[1, 2]]
    mask = read_pnm(write_bytes(tmp_path / "a.pbm", b"P1 2 1 01xyz"))
    assert mask.ink.tolist() == [[False, True]]


@pytest.mark.parametrize(
    "data, rows",
    [
        (b"P2 3 1 255 10 20 30 40 bad 999\n", [[10, 20, 30]]),  # tokens after the payload
        (b"P2 2 2 255\n1 2\n3 4\n# trailer\n256 x\n", [[1, 2], [3, 4]]),
        (b"P2 3 1 255 10 # 99 junk\n20\t30", [[10, 20, 30]]),  # a comment inside the payload
        (b"P2 3 1 255\n7#c\n9 # 300\n11", [[7, 9, 11]]),
    ],
)
def test_plain_gray_payload_ends_at_its_last_sample(tmp_path, data, rows):
    assert read_pnm(write_bytes(tmp_path / "a.pgm", data)).pixels.tolist() == rows


@pytest.mark.parametrize(
    "data, message",
    [
        (b"P2 3 1 255 10 20", "truncated payload: 2 of 3 samples (byte offset 16)"),
        (b"P2 3 1 255 10 20 # 30\n", "truncated payload: 2 of 3 samples (byte offset 22)"),
        (b"P2 2 2 255\n1 2\n3", "truncated payload: 3 of 4 samples (byte offset 16)"),
    ],
)
def test_plain_gray_payload_one_sample_short(tmp_path, data, message):
    with pytest.raises(PnmDecodeError) as err:
        read_pnm(write_bytes(tmp_path / "a.pgm", data))
    assert str(err.value) == message


def _scatter(rng, tokens, packed=False) -> bytes:
    """Join tokens with random whitespace runs and comments, or none if packed."""
    out = []
    for tok in tokens:
        out.append(tok)
        if packed and rng.random() < 0.7:
            continue
        gap = bytes(rng.choice(list(b" \t\r\n\v\f"), rng.integers(1, 4)).tolist())
        if rng.random() < 0.3:
            gap += b"#" + bytes(rng.integers(32, 127, rng.integers(0, 8)).tolist()) + b"\n"
        out.append(gap)
    return b"".join(out)


@pytest.mark.parametrize("magic", [b"P1", b"P2", b"P3"])
def test_plain_round_trip_with_scattered_comments(tmp_path, magic):
    rng = np.random.default_rng(7)
    for trial in range(20):
        h, w = (int(v) for v in rng.integers(1, 12, 2))
        if magic == b"P1":
            expect = rng.random((h, w)) < 0.5
            header, samples = [magic, b"%d" % w, b"%d" % h], expect.astype(np.uint8).ravel()
        else:
            shape = (h, w, 3) if magic == b"P3" else (h, w)
            expect = rng.integers(0, 256, shape, dtype=np.uint8)
            header, samples = [magic, b"%d" % w, b"%d" % h, b"255"], expect.ravel()
        # Only P1 digits may be packed without separators.
        payload = _scatter(rng, [b"%d" % v for v in samples], packed=magic == b"P1")
        data = _scatter(rng, header) + payload
        img = read_pnm(write_bytes(tmp_path / f"{trial}.pnm", data))
        assert np.array_equal(img.ink if magic == b"P1" else img.pixels, expect)


PNM_FRAGMENTS = [b" ", b"\n", b"\t", b"# c\n", b"#", b"0", b"1", b"7", b"255", b"256",
                 b"+", b"-", b"_", b"\x00", b"\xff", b"9" * 25, b"0" * 20]


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=64),
        st.tuples(
            st.sampled_from([b"P1", b"P2", b"P3", b"P4", b"P5", b"P6"]),
            st.lists(st.sampled_from(PNM_FRAGMENTS) | st.binary(max_size=4), max_size=24),
        ).map(lambda t: t[0] + b"".join(t[1])),
    )
)
def test_any_bytes_give_image_or_decode_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.pnm"
    path.write_bytes(data)
    try:
        img = read_pnm(path)
    except PnmDecodeError:
        return
    assert isinstance(img, (GrayImage, RgbImage, BinaryMask))


def test_huge_plain_header_allocates_by_payload(tmp_path):
    path = write_bytes(tmp_path / "a.pgm", b"P2 100000 100000 255 1 2 3")
    tracemalloc.start()
    try:
        with pytest.raises(PnmDecodeError) as err:
            read_pnm(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.offset == 26
    assert peak < 1_000_000


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

    def test_roundtrip_gray(self, tmp_path):
        rng = np.random.default_rng(1)
        for trial in range(20):
            h, w = rng.integers(1, 40, 2)
            img = GrayImage(rng.integers(0, 256, (h, w), dtype=np.uint8))
            path = tmp_path / f"g{trial}.pgm"
            write_pnm(img, path)
            assert np.array_equal(read_pnm(path).pixels, img.pixels)

    def test_roundtrip_rgb(self, tmp_path):
        rng = np.random.default_rng(2)
        for trial in range(10):
            h, w = rng.integers(1, 40, 2)
            img = RgbImage(rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
            path = tmp_path / f"c{trial}.ppm"
            write_pnm(img, path)
            assert np.array_equal(read_pnm(path).pixels, img.pixels)

    def test_roundtrip_mask(self, tmp_path):
        rng = np.random.default_rng(3)
        for trial in range(10):
            h, w = rng.integers(1, 40, 2)
            mask = BinaryMask(rng.random((h, w)) < 0.5)
            path = tmp_path / f"m{trial}.pbm"
            write_pnm(mask, path)
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
