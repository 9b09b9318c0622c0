"""Small helpers shared by the binary feature-file and checkpoint formats.

All multi-byte values are little-endian.
"""

import struct

import numpy as np

U16_MAX = 0xFFFF
U32_MAX = 0xFFFFFFFF


class FormatError(Exception):
    """Base class for malformed binary files."""


class BadMagicError(FormatError):
    def __init__(self, expected: bytes, got: bytes):
        super().__init__("bad magic: expected %r, got %r" % (expected, got))
        self.expected = expected
        self.got = got


class UnsupportedVersionError(FormatError):
    def __init__(self, expected: int, got: int):
        super().__init__("unsupported version %d (expected %d)" % (got, expected))
        self.expected = expected
        self.got = got


class TruncatedFileError(FormatError):
    def __init__(self, offset: int, needed: int, available: int):
        super().__init__(
            "truncated at byte offset %d: needed %d bytes, %d available"
            % (offset, needed, available))
        self.offset = offset
        self.needed = needed
        self.available = available


class TrailingDataError(FormatError):
    def __init__(self, offset: int, extra: int):
        super().__init__("%d unexpected trailing bytes at offset %d" % (extra, offset))
        self.offset = offset
        self.extra = extra


class DimensionOverflowError(FormatError):
    def __init__(self, field: str, value: int, limit: int):
        super().__init__("%s = %d exceeds the format limit %d" % (field, value, limit))
        self.field = field
        self.value = value
        self.limit = limit


class ByteReader:
    """Sequential reader over an in-memory buffer with offset reporting."""

    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def _advance(self, n: int) -> int:
        """Move past the next n bytes; returns the offset they start at."""
        if self.offset + n > len(self.data):
            raise TruncatedFileError(self.offset, n, len(self.data) - self.offset)
        self.offset += n
        return self.offset - n

    def take(self, n: int) -> bytes:
        start = self._advance(n)
        return self.data[start:start + n]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def array(self, dtype: str, *counts: int) -> np.ndarray:
        """The next blocks of counts[0], counts[1], ... items as one
        read-only array over the buffer; a short block raises at its own
        offset, as reading the blocks one at a time would."""
        itemsize = np.dtype(dtype).itemsize
        start = self.offset
        for count in counts:
            self._advance(count * itemsize)
        return np.frombuffer(self.data, dtype=dtype, count=sum(counts),
                             offset=start)

    def expect_eof(self):
        extra = len(self.data) - self.offset
        if extra:
            raise TrailingDataError(self.offset, extra)


def pack_u16(value: int, field: str) -> bytes:
    if not 0 <= value <= U16_MAX:
        raise DimensionOverflowError(field, value, U16_MAX)
    return struct.pack("<H", value)


def pack_u32(value: int, field: str) -> bytes:
    if not 0 <= value <= U32_MAX:
        raise DimensionOverflowError(field, value, U32_MAX)
    return struct.pack("<I", value)
