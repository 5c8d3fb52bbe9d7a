"""Property tests of the PGM reader on decorated headers."""

import numpy as np
from hypothesis import given, settings, strategies as st

from ofdmsar.pgm import parse_pgm, write_pgm

WHITESPACE = b" \t\r\n\x0b\x0c"

# a comment runs to the next CR or LF, so it ends with one here
comments = st.tuples(
    st.binary(max_size=6).map(lambda text: text.replace(b"\r", b"")
                                                .replace(b"\n", b"")),
    st.sampled_from((b"\r", b"\n"))).map(lambda parts: b"#" + b"".join(parts))
separators = st.lists(st.sampled_from(list(map(bytes, zip(WHITESPACE))))
                      | comments, min_size=1, max_size=4).map(b"".join)
rasters = st.tuples(st.integers(1, 8), st.integers(1, 8)).flatmap(
    lambda shape: st.lists(st.integers(0, 255), min_size=shape[0] * shape[1],
                           max_size=shape[0] * shape[1])
    .map(lambda values: np.array(values, np.uint8).reshape(shape)))


@settings(deadline=None)
@given(pixels=rasters, binary=st.booleans(), data=st.data())
def test_decorated_headers_parse_back_to_their_pixels(pixels, binary, data):
    height, width = pixels.shape
    tokens = [b"P5" if binary else b"P2", b"%d" % width, b"%d" % height,
              b"255"]
    if not binary:
        tokens += [b"%d" % value for value in pixels.flat]
    blob = tokens[0]
    for token in tokens[1:]:
        blob += data.draw(separators) + token
    if binary:  # exactly one whitespace byte, then the raster
        blob += data.draw(st.sampled_from(list(map(bytes, zip(WHITESPACE)))))
        blob += pixels.tobytes()
    else:
        blob += data.draw(separators | st.just(b""))
    decoded = parse_pgm(blob)
    assert decoded.dtype == np.uint8
    assert np.array_equal(decoded, pixels)


def test_binary_raster_may_hold_comment_and_whitespace_bytes():
    pixels = np.frombuffer(b"# \t\r\n\x0b\x0c#", np.uint8).reshape(2, 4)
    assert np.array_equal(parse_pgm(b"P5 #c\r4 2\n255\n" + pixels.tobytes()),
                          pixels)
    assert np.array_equal(parse_pgm(write_pgm(pixels)), pixels)
