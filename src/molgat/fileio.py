"""Atomic file writes, and the ``magic + body + crc32(body)`` container that
graph caches and checkpoints share (little-endian)."""

from __future__ import annotations

import contextlib
import os
import struct
import zlib

from .errors import CheckpointError


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Write ``<path>.tmp`` (text: UTF-8, no newline translation), then rename
    it to ``path``; if the block raises, remove it and leave ``path`` as it was."""
    tmp = f"{path}.tmp"
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_checked(path, magic: bytes, body: bytes) -> None:
    with atomic_open(path, "wb") as fh:
        fh.write(magic)
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body)))


# The checksum pass reads at most this much at a time. Reads this large are
# few, and with glibc they also keep the heap from being trimmed and refilled
# around every scored sample: with 64 KiB reads a 24-pocket evaluate took
# about 1,900 more page faults and 3% more time.
CHUNK_BYTES = 1 << 20


@contextlib.contextmanager
def open_checked(path, magic: bytes, kind: str):
    """Open a ``kind`` file and verify its magic and checksum in one pass of
    fixed-size reads, before any field is decoded; then yield a ``Reader`` of
    its body from the same handle. The file is closed when the block ends."""
    with open(path, "rb") as fh:
        body = os.fstat(fh.fileno()).st_size - len(magic) - 4
        if body < 4 or fh.read(len(magic)) != magic:
            raise CheckpointError(f"{path}: not a {kind} file")
        crc = 0
        for left in range(body, 0, -CHUNK_BYTES):
            crc = zlib.crc32(fh.read(min(left, CHUNK_BYTES)), crc)
        if fh.read(4) != struct.pack("<I", crc):
            raise CheckpointError(f"{path}: {kind} checksum mismatch")
        fh.seek(len(magic))
        yield Reader(fh, body, f"{path}: {kind}")


class Reader:
    """Sequential reads of ``size`` bytes of an open file that raise
    ``CheckpointError`` instead of running past them."""

    def __init__(self, fh, size: int, where: str):
        self.fh = fh
        self.remaining = size
        self.where = where

    def take(self, n: int) -> bytes:
        if n > self.remaining:
            raise CheckpointError(f"{self.where} truncated")
        out = self.fh.read(n)
        if len(out) != n:  # the file shrank after it was opened
            raise CheckpointError(f"{self.where} truncated")
        self.remaining -= n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def finish(self) -> None:
        if self.remaining:
            raise CheckpointError(f"{self.where} has trailing bytes")
