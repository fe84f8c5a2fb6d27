"""Artifact encoding: the binary codec and the CSV number format.

Binary artifacts (``.gbct`` reference tables, ``.gbcq`` checkpoints) open
with a 4-byte magic and a u32 format version. Every field after that is
little-endian, and every array is raw float64, so values round-trip bit for
bit. A file that cannot be read, has the wrong magic or version, ends early
or runs on past its last field raises DataError.

CSV files print floats to 17 significant digits, which is lossless for
float64. A CSV file that cannot be read or parsed raises DataError.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import DataError


class BinaryWriter:
    """Writes one binary artifact field by field, straight to an open file."""

    def __init__(self, fh, magic: bytes, version: int):
        self.fh = fh
        fh.write(magic)
        self.pack("I", version)

    def pack(self, fmt: str, *values):
        """Fields in ``struct`` notation; the codec makes them little-endian."""
        self.fh.write(struct.pack("<" + fmt, *values))

    def raw(self, b: bytes):
        self.fh.write(b)

    def array(self, a):
        """Raw little-endian float64 values, row-major."""
        self.fh.write(np.ascontiguousarray(a, dtype="<f8"))


class BinaryReader:
    """Reads one binary artifact written by BinaryWriter.

    The constructor reads the whole file and checks its magic and version;
    ``what`` names the artifact in error messages. Call ``finish`` after the
    last field to reject trailing bytes.
    """

    def __init__(self, path, magic: bytes, version: int, what: str):
        self.path, self.what, self.pos = path, what, len(magic)
        try:
            with open(path, "rb") as fh:
                self.blob = fh.read()
        except OSError as exc:
            raise DataError(f"cannot read {what} {path}: {exc}") from exc
        if self.blob[: len(magic)] != magic:
            raise DataError(f"{path} is not a {what} file (bad magic)")
        (found,) = self.unpack("I")
        if found != version:
            raise DataError(
                f"{path}: unsupported {what} format version {found} "
                f"(this build reads version {version})"
            )

    def _advance(self, n) -> int:
        start = self.pos
        if start + n > len(self.blob):
            raise DataError(f"{self.path}: {self.what} truncated at byte {start}")
        self.pos = start + n
        return start

    def unpack(self, fmt: str) -> tuple:
        """The next fields, in the notation BinaryWriter.pack took."""
        fmt = "<" + fmt
        return struct.unpack_from(fmt, self.blob, self._advance(struct.calcsize(fmt)))

    def raw(self, n) -> bytes:
        start = self._advance(n)
        return self.blob[start : start + n]

    def view(self, *shape) -> np.ndarray:
        """The next float64 array as a read-only view of the file's bytes."""
        count = math.prod(shape)
        start = self._advance(8 * count)
        return np.frombuffer(self.blob, "<f8", count, start).reshape(shape)

    def array(self, *shape) -> np.ndarray:
        """The next float64 array, as a copy that owns its memory."""
        return self.view(*shape).copy()

    def finish(self) -> None:
        extra = len(self.blob) - self.pos
        if extra:
            raise DataError(f"{self.path}: {extra} trailing bytes in {self.what}")


def fmt_value(v) -> str:
    """One CSV cell: text as is, integers exactly, floats to 17 digits."""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def write_csv(path, header, rows) -> None:
    """A header line of ``header`` cells, then one line per row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(fmt_value(v) for v in header) + "\n")
        for row in rows:
            fh.write(",".join(fmt_value(v) for v in row) + "\n")


def read_csv(path, header=False):
    """``(cells, values)``: the first line's cells if ``header`` (else None)
    and the remaining lines as a 2-D float64 array."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cells = fh.readline().strip().split(",") if header else None
            values = np.loadtxt(fh, delimiter=",", ndmin=2, dtype=np.float64)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"cannot parse {path}: {exc}") from exc
    return cells, values
