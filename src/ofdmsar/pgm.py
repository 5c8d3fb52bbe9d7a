"""Minimal PGM (portable graymap) reader and writer.

The reader takes the ASCII "P2" and binary "P5" variants of 8-bit
rasters (maxval 255), the form scene rasters come in; the writer emits
the binary form the CLI's images use.
Parse failures raise PgmParseError carrying the byte offset of the
offending input.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError, PgmParseError

_WHITESPACE = b" \t\r\n\x0b\x0c"


class _Scanner:
    """Tokenizer for the PGM header (whitespace- and comment-aware)."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def skip_separators(self):
        data, n = self.data, len(self.data)
        while self.pos < n:
            byte = self.data[self.pos:self.pos + 1]
            if byte in (b"#",):
                while self.pos < n and data[self.pos:self.pos + 1] not in (b"\n", b"\r"):
                    self.pos += 1
            elif byte in _WHITESPACE:
                self.pos += 1
            else:
                return

    def next_token(self, what: str) -> bytes:
        self.skip_separators()
        if self.pos >= len(self.data):
            raise PgmParseError(f"unexpected end of header while reading {what}",
                                byte_offset=self.pos)
        start = self.pos
        data, n = self.data, len(self.data)
        while self.pos < n and data[self.pos:self.pos + 1] not in _WHITESPACE \
                and data[self.pos:self.pos + 1] != b"#":
            self.pos += 1
        return self.data[start:self.pos]

    def next_int(self, what: str, upper: int, lower: int = 1) -> int:
        token = self.next_token(what)
        start = self.pos - len(token)
        if not token.isdigit():
            raise PgmParseError(f"{what} is not a decimal integer: {token!r}",
                                byte_offset=start)
        value = int(token)
        if value < lower or value > upper:
            raise PgmParseError(f"{what} out of range [{lower}, {upper}]: {value}",
                                byte_offset=start)
        return value


def parse_pgm(data: bytes) -> np.ndarray:
    """Decode an 8-bit PGM byte string into its (height, width) uint8 pixels.

    Raises PgmParseError on a malformed header, a maxval other than 255 or
    a truncated payload.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise InvalidParameterError("parse_pgm expects bytes")
    data = bytes(data)
    scanner = _Scanner(data)
    magic = scanner.next_token("magic number")
    if magic not in (b"P2", b"P5"):
        raise PgmParseError(f"not a PGM image (magic {magic!r}, expected P2 or P5)",
                            byte_offset=0)
    width = scanner.next_int("width", 1 << 20)
    height = scanner.next_int("height", 1 << 20)
    scanner.next_int("maxval (8-bit rasters only)", 255, lower=255)

    count = width * height
    if magic == b"P2":
        flat = np.empty(count, dtype=np.uint8)
        for i in range(count):
            flat[i] = scanner.next_int(f"sample {i}", 255, lower=0)
        return flat.reshape(height, width)

    # P5: exactly one separator byte after maxval, then the raster.
    if scanner.pos >= len(data) or data[scanner.pos:scanner.pos + 1] not in _WHITESPACE:
        raise PgmParseError("missing whitespace after maxval", byte_offset=scanner.pos)
    raster_at = scanner.pos + 1
    raster = data[raster_at:raster_at + count]
    if len(raster) < count:
        raise PgmParseError(
            f"truncated raster: need {count} bytes, found {len(raster)}",
            byte_offset=raster_at + len(raster))
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
