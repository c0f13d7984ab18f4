"""Byte-accurate file contents for correctness verification.

The cost model prices I/O without touching data, but the test suite
needs to prove that a collective strategy *moves the right bytes* —
group division, partition-tree surgery, and remerging all rearrange who
writes what, and a bug there silently corrupts files while leaving
timings plausible. :class:`FileImage` is the ground truth: a sparse,
growable byte store with extent-based read/write.

Images are intended for test-scale files (up to a few hundred MiB);
benchmark runs disable data tracking and only account sizes.
"""

from __future__ import annotations

import numpy as np

from ..util.errors import FileSystemError
from ..util.intervals import ExtentList

__all__ = ["FileImage"]

_FILL = 0  # unwritten bytes read back as zero, like a POSIX sparse file


class FileImage:
    """A growable in-memory file with extent-granular access."""

    __slots__ = ("_buf", "_size")

    def __init__(self, initial: bytes | bytearray | np.ndarray = b"") -> None:
        arr = np.frombuffer(bytes(initial), dtype=np.uint8).copy()
        self._buf = arr
        self._size = int(arr.size)

    @property
    def size(self) -> int:
        """Current file size (highest written offset + 1, POSIX-style)."""
        return self._size

    def _ensure(self, end: int) -> None:
        if end > self._buf.size:
            new_cap = max(end, 2 * self._buf.size, 4096)
            grown = np.full(new_cap, _FILL, dtype=np.uint8)
            grown[: self._buf.size] = self._buf
            self._buf = grown
        self._size = max(self._size, end)

    # ------------------------------------------------------------------ io
    def write_extent(self, offset: int, data: np.ndarray | bytes) -> None:
        """Write one contiguous chunk at ``offset``."""
        payload = np.frombuffer(bytes(data), dtype=np.uint8) if isinstance(
            data, (bytes, bytearray)
        ) else np.asarray(data, dtype=np.uint8).ravel()
        if offset < 0:
            raise FileSystemError(f"negative write offset {offset}")
        end = offset + payload.size
        self._ensure(end)
        self._buf[offset:end] = payload

    def read_extent(self, offset: int, length: int) -> np.ndarray:
        """Read one contiguous chunk; bytes past EOF read as zero."""
        if offset < 0 or length < 0:
            raise FileSystemError(f"invalid read ({offset}, {length})")
        out = np.full(length, _FILL, dtype=np.uint8)
        end = min(offset + length, self._size)
        if end > offset:
            out[: end - offset] = self._buf[offset:end]
        return out

    def write_extents(self, extents: ExtentList, data: np.ndarray | bytes) -> None:
        """Scatter ``data`` (packed, extent order) into the extent set."""
        payload = np.frombuffer(bytes(data), dtype=np.uint8) if isinstance(
            data, (bytes, bytearray)
        ) else np.asarray(data, dtype=np.uint8).ravel()
        if payload.size != extents.total:
            raise FileSystemError(
                f"payload {payload.size} B != extent total {extents.total} B"
            )
        cursor = 0
        env = extents.envelope()
        if not extents.is_empty:
            self._ensure(env.end)
        for ext in extents:
            self._buf[ext.offset : ext.end] = payload[cursor : cursor + ext.length]
            cursor += ext.length

    def read_extents(self, extents: ExtentList) -> np.ndarray:
        """Gather the extent set into one packed buffer (extent order)."""
        out = np.full(extents.total, _FILL, dtype=np.uint8)
        cursor = 0
        for ext in extents:
            out[cursor : cursor + ext.length] = self.read_extent(
                ext.offset, ext.length
            )
            cursor += ext.length
        return out

    def snapshot(self) -> bytes:
        """The whole file as bytes (testing helper)."""
        return self._buf[: self._size].tobytes()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FileImage):
            return self.snapshot() == other.snapshot()
        if isinstance(other, (bytes, bytearray)):
            return self.snapshot() == bytes(other)
        return NotImplemented

    def __hash__(self) -> int:  # images are mutable; identity hash
        return id(self)
