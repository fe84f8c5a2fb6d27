"""Artifact encoding: the binary codec and the CSV number format.

Binary artifacts (``.gbct`` reference tables, ``.gbcq`` checkpoints) open
with a 4-byte magic and a u32 format version. Every field after that is
little-endian, and every array is raw float64, so values round-trip bit for
bit. A file that cannot be read, has the wrong magic or version, ends early
or runs on past its last field raises DataError.

Both directions stream: the writer writes each field as it is given and the
reader reads each field from the open file, so neither holds a copy of the
whole file. Tables move in blocks of ``ROW_BLOCK`` rows, so the only
temporary is one block. Every array's declared size is checked against the
bytes left in the file before anything is allocated for it, so a corrupt
length ends in DataError, never in a huge allocation.

CSV files print floats to 17 significant digits, which is lossless for
float64. A CSV file that cannot be read or parsed raises DataError.
"""

from __future__ import annotations

import math
import os
import struct
from itertools import accumulate

import numpy as np

from .errors import DataError

# Rows per block of table I/O (and of the table's finiteness check): about
# 3 MB at 100 float64 columns, so per-block overhead is negligible and no
# temporary grows with the table.
ROW_BLOCK = 4096


def _side_by_side(widths) -> list:
    """The column slice of each width when the widths sit side by side."""
    edges = [0, *accumulate(widths)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


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

    def rows(self, *arrays):
        """The 2-D arrays side by side, row-major: the bytes of
        ``array(np.hstack(arrays))``, written ROW_BLOCK rows at a time."""
        n_rows, widths = arrays[0].shape[0], [a.shape[1] for a in arrays]
        block = np.empty((min(n_rows, ROW_BLOCK), sum(widths)), "<f8")
        for start in range(0, n_rows, ROW_BLOCK):
            part = block[: min(n_rows - start, ROW_BLOCK)]
            for a, cols in zip(arrays, _side_by_side(widths)):
                part[:, cols] = a[start : start + part.shape[0]]
            self.fh.write(part)


class BinaryReader:
    """Reads one binary artifact written by BinaryWriter, field by field.

    Use it as a context manager: the constructor opens the file and checks
    its magic and version, and leaving the block closes it. ``what`` names
    the artifact in error messages. Call ``finish`` after the last field to
    reject trailing bytes.
    """

    def __init__(self, path, magic: bytes, version: int, what: str):
        self.path, self.what, self.pos = path, what, 0
        try:
            self.fh = open(path, "rb")
        except OSError as exc:
            raise DataError(f"cannot read {what} {path}: {exc}") from exc
        try:
            self.size = os.fstat(self.fh.fileno()).st_size
            if self.fh.read(len(magic)) != magic:
                raise DataError(f"{path} is not a {what} file (bad magic)")
            self.pos = len(magic)
            (found,) = self.unpack("I")
            if found != version:
                raise DataError(
                    f"{path}: unsupported {what} format version {found} "
                    f"(this build reads version {version})"
                )
        except BaseException:
            self.fh.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def _claim(self, n) -> None:
        """Count the next ``n`` bytes as read, or raise DataError if the file
        ends first. Called before anything of that size is allocated."""
        if n > self.size - self.pos:
            raise DataError(f"{self.path}: {self.what} truncated at byte {self.pos}")
        self.pos += n

    def _fill(self, buf) -> None:
        """Fill the writable buffer ``buf`` with the file's next bytes."""
        if self.fh.readinto(buf) != memoryview(buf).nbytes:
            raise DataError(f"{self.path}: {self.what} shrank while being read")

    def unpack(self, fmt: str) -> tuple:
        """The next fields, in the notation BinaryWriter.pack took."""
        fmt = "<" + fmt
        return struct.unpack(fmt, self.raw(struct.calcsize(fmt)))

    def raw(self, n) -> bytes:
        self._claim(n)
        buf = bytearray(n)
        self._fill(buf)
        return bytes(buf)

    def array(self, *shape) -> np.ndarray:
        """The next float64 array, read into memory it owns."""
        self._claim(8 * math.prod(shape))
        out = np.empty(shape, "<f8")
        self._fill(out)
        return out

    def rows(self, n_rows, *widths) -> list:
        """The next ``n_rows`` x ``sum(widths)`` float64 values, split by
        column into one ``(n_rows, width)`` array per width: the inverse of
        BinaryWriter.rows, read ROW_BLOCK rows at a time."""
        width = sum(widths)
        self._claim(8 * n_rows * width)
        outs = [np.empty((n_rows, w), "<f8") for w in widths]
        block = np.empty((min(n_rows, ROW_BLOCK), width), "<f8")
        for start in range(0, n_rows, ROW_BLOCK):
            part = block[: min(n_rows - start, ROW_BLOCK)]
            self._fill(part)
            for out, cols in zip(outs, _side_by_side(widths)):
                out[start : start + part.shape[0]] = part[:, cols]
        return outs

    def finish(self) -> None:
        extra = self.size - self.pos
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


def read_csv(path):
    """Every line of a CSV file as a 2-D float64 array. A file that cannot
    be read raises DataError "cannot read", one that cannot be parsed
    "cannot parse"."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return np.loadtxt(fh, delimiter=",", ndmin=2, dtype=np.float64)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"cannot parse {path}: {exc}") from exc
