import numpy as np
import pytest

from ofdmsar.errors import InvalidParameterError, PgmParseError
from ofdmsar.pgm import parse_pgm, write_pgm


def test_round_trip_binary():
    pixels = np.arange(12, dtype=np.uint8).reshape(3, 4) * 20
    data = write_pgm(pixels)
    assert data.startswith(b"P5\n4 3\n255\n")
    decoded = parse_pgm(data)
    assert decoded.dtype == np.uint8
    assert np.array_equal(decoded, pixels)


def test_round_trip_ascii():
    pixels = np.array([[0, 7], [255, 128]], dtype=np.uint8)
    decoded = parse_pgm(b"P2\n2 2\n255\n0 7\n255 128\n")
    assert decoded.dtype == np.uint8
    assert np.array_equal(decoded, pixels)


def test_parse_rejects_16_bit_at_the_maxval():
    # only 8-bit rasters are read: any other maxval fails at its token
    for data in (b"P5\n2 2\n65535\n\x00\x00\x03\xe8\xff\xff\x00\x2a",
                 b"P2\n2 2\n65535\n0 1000 65535 42\n",
                 b"P5\n2 2\n254\n\x00\x00\x00\x00"):
        with pytest.raises(PgmParseError) as err:
            parse_pgm(data)
        assert err.value.byte_offset == 7
        assert "maxval" in str(err.value)


def test_parse_skips_comments_and_whitespace():
    data = b"P2 # magic\n# a comment line\n 2 1\n# another\n 255\n3 9\n"
    assert np.array_equal(parse_pgm(data), np.array([[3, 9]]))


def test_parse_rejects_wrong_magic():
    with pytest.raises(PgmParseError) as err:
        parse_pgm(b"P6\n1 1\n255\n\x00")
    assert err.value.byte_offset == 0


def test_parse_reports_bad_token_offset():
    data = b"P5\n4x 3\n255\n" + bytes(12)
    with pytest.raises(PgmParseError) as err:
        parse_pgm(data)
    assert err.value.byte_offset == 3
    assert "width" in str(err.value)


def test_parse_rejects_truncated_raster():
    pixels = np.zeros((4, 4), dtype=np.uint8)
    data = write_pgm(pixels)
    with pytest.raises(PgmParseError) as err:
        parse_pgm(data[:-5])
    assert "truncated" in str(err.value)


def test_parse_rejects_sample_above_maxval():
    with pytest.raises(PgmParseError):
        parse_pgm(b"P2\n1 1\n255\n256\n")


def test_parse_rejects_truncated_header():
    with pytest.raises(PgmParseError):
        parse_pgm(b"P5\n4 3\n")
    with pytest.raises(InvalidParameterError):
        parse_pgm("P5\n1 1\n255\n\x00")  # str, not bytes


def test_parse_needs_one_separator_after_a_binary_maxval():
    # a comment or the end of the data right after maxval leaves no
    # separator byte before the raster
    for data in (b"P5\n1 1\n255#c\n\x00", b"P5\n1 1\n255"):
        with pytest.raises(PgmParseError, match="missing whitespace") as err:
            parse_pgm(data)
        assert err.value.byte_offset == data.index(b"255") + 3


def test_write_validation():
    with pytest.raises(InvalidParameterError):
        write_pgm(np.zeros(4, dtype=np.uint8))
    with pytest.raises(InvalidParameterError):
        write_pgm(np.full((2, 2), 300))
    with pytest.raises(InvalidParameterError):
        write_pgm(np.full((2, 2), -1))
