"""Minimal PGM (portable graymap) reader and writer.

The reader takes the ASCII "P2" and binary "P5" variants of 8-bit
rasters (maxval 255), the form scene rasters come in; the writer emits
the binary form the CLI's images use.
A header is a sequence of tokens (runs of bytes that are neither
whitespace nor '#') between whitespace and comments ('#' to the end of
its line).  One regular expression reads them lazily, so a P5 raster,
which starts after exactly one whitespace byte past the maxval, is never
scanned.  Parse failures raise PgmParseError carrying the byte offset of
the offending input.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import InvalidParameterError, PgmParseError

_WHITESPACE = b" \t\r\n\x0b\x0c"
# a comment, or a token (group 1); finditer passes over the whitespace
_ITEM = re.compile(rb"#[^\r\n]*|([^ \t\r\n\x0b\x0c#]+)")


def parse_pgm(data: bytes) -> np.ndarray:
    """Decode an 8-bit PGM byte string into its (height, width) uint8 pixels.

    Raises PgmParseError on a malformed header, a maxval other than 255 or
    a truncated payload.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise InvalidParameterError("parse_pgm expects bytes")
    data = bytes(data)
    tokens = (match for match in _ITEM.finditer(data) if match[1])

    def token(what: str) -> re.Match:
        match = next(tokens, None)
        if match is None:
            raise PgmParseError(f"unexpected end of header while reading {what}",
                                byte_offset=len(data))
        return match

    def number(what: str, upper: int, lower: int = 1) -> tuple[int, int]:
        match = token(what)
        if not match[1].isdigit():
            raise PgmParseError(f"{what} is not a decimal integer: {match[1]!r}",
                                byte_offset=match.start())
        value = int(match[1])
        if not lower <= value <= upper:
            raise PgmParseError(f"{what} out of range [{lower}, {upper}]: {value}",
                                byte_offset=match.start())
        return value, match.end()

    magic = token("magic number")[1]
    if magic not in (b"P2", b"P5"):
        raise PgmParseError(f"not a PGM image (magic {magic!r}, expected P2 or P5)",
                            byte_offset=0)
    width, _ = number("width", 1 << 20)
    height, _ = number("height", 1 << 20)
    _, end = number("maxval (8-bit rasters only)", 255, lower=255)

    count = width * height
    if magic == b"P2":
        flat = np.empty(count, dtype=np.uint8)
        for i in range(count):
            flat[i], _ = number(f"sample {i}", 255, lower=0)
        return flat.reshape(height, width)

    # P5: exactly one separator byte after maxval, then the raster.
    if end >= len(data) or data[end] not in _WHITESPACE:
        raise PgmParseError("missing whitespace after maxval", byte_offset=end)
    raster = data[end + 1:end + 1 + count]
    if len(raster) < count:
        raise PgmParseError(
            f"truncated raster: need {count} bytes, found {len(raster)}",
            byte_offset=end + 1 + len(raster))
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy()


def write_pgm(pixels: np.ndarray) -> bytes:
    """Encode a (height, width) array of values in [0, 255] as binary
    8-bit PGM (P5, maxval 255) bytes."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 2:
        raise InvalidParameterError(f"pixels must be 2-D, got shape {pixels.shape}")
    if pixels.min(initial=0) < 0 or pixels.max(initial=0) > 255:
        raise InvalidParameterError("pixel values must lie in [0, 255]")
    height, width = pixels.shape
    header = f"P5\n{width} {height}\n255\n".encode()
    return header + pixels.astype(np.uint8).tobytes()
