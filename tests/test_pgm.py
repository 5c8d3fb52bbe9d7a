import numpy as np
import pytest

from ofdmsar.errors import InvalidParameterError, PgmParseError
from ofdmsar.pgm import parse_pgm, write_pgm


def test_round_trip_binary():
    pixels = np.arange(12, dtype=np.uint8).reshape(3, 4) * 20
    data = write_pgm(pixels)
    assert data.startswith(b"P5\n4 3\n255\n")
    decoded, maxval = parse_pgm(data)
    assert maxval == 255
    assert np.array_equal(decoded, pixels)


def test_round_trip_ascii():
    pixels = np.array([[0, 7], [255, 128]], dtype=np.uint8)
    decoded, maxval = parse_pgm(b"P2\n2 2\n255\n0 7\n255 128\n")
    assert maxval == 255
    assert np.array_equal(decoded, pixels)


def test_round_trip_16_bit():
    pixels = np.array([[0, 1000], [65535, 42]], dtype=np.uint16)
    decoded, maxval = parse_pgm(
        b"P5\n2 2\n65535\n\x00\x00\x03\xe8\xff\xff\x00\x2a")
    assert maxval == 65535
    assert np.array_equal(decoded, pixels)


def test_parse_skips_comments_and_whitespace():
    data = b"P2 # magic\n# a comment line\n 2 1\n# another\n 9\n3 9\n"
    decoded, maxval = parse_pgm(data)
    assert maxval == 9
    assert np.array_equal(decoded, np.array([[3, 9]]))


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
        parse_pgm(b"P2\n1 1\n10\n11\n")
    with pytest.raises(PgmParseError):
        parse_pgm(b"P5\n1 1\n10\n\x0b")


def test_parse_rejects_truncated_header():
    with pytest.raises(PgmParseError):
        parse_pgm(b"P5\n4 3\n")
    with pytest.raises(InvalidParameterError):
        parse_pgm("P5\n1 1\n255\n\x00")  # str, not bytes


def test_write_validation():
    with pytest.raises(InvalidParameterError):
        write_pgm(np.zeros(4, dtype=np.uint8))
    with pytest.raises(InvalidParameterError):
        write_pgm(np.full((2, 2), 300))
    with pytest.raises(InvalidParameterError):
        write_pgm(np.full((2, 2), -1))
