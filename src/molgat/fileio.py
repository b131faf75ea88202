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


def read_checked(path, magic: bytes, kind: str) -> "Reader":
    """Verify the magic and checksum of a ``kind`` file; return a body reader."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(magic) + 8 or blob[: len(magic)] != magic:
        raise CheckpointError(f"{path}: not a {kind} file")
    body, (crc,) = blob[len(magic) : -4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) != crc:
        raise CheckpointError(f"{path}: {kind} checksum mismatch")
    return Reader(body, f"{path}: {kind}")


class Reader:
    """Sequential reads that raise ``CheckpointError`` instead of running past the end."""

    def __init__(self, buf: bytes, where: str):
        self.buf = buf
        self.off = 0
        self.where = where

    @property
    def remaining(self) -> int:
        return len(self.buf) - self.off

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.buf):
            raise CheckpointError(f"{self.where} truncated")
        out = self.buf[self.off : self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def finish(self) -> None:
        if self.off != len(self.buf):
            raise CheckpointError(f"{self.where} has trailing bytes")
