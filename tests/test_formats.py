"""Artifact codec: row-block table I/O, and every corrupt byte of a table
or checkpoint is a DataError."""

import struct
import tracemalloc

import numpy as np
import pytest

from gbc.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from gbc.errors import DataError
from gbc.formats import ROW_BLOCK
from gbc.models import ReferenceTable, read_table_binary, write_table_binary
from gbc.nets import FeedForwardNet
from gbc.quantile import CosineEmbedding, ImplicitQuantileNet
from gbc.rng import RngStream
from gbc.summaries import SummaryMap


def _tiny_checkpoint(kind):
    rng = RngStream(12)
    gen = rng.generator
    if kind == "linear":
        summary = SummaryMap(
            kind="linear", matrix=gen.normal(size=(1, 3)), intercept=gen.normal(size=1)
        )
    else:
        summary = SummaryMap(
            kind="network",
            log1p_inputs=True,
            net=FeedForwardNet.create([3, 2, 1], rng.child("s")),
            input_mean=gen.normal(size=3),
            input_sd=np.ones(3),
            output_mean=gen.normal(size=1),
            output_sd=np.ones(1),
        )
    net = ImplicitQuantileNet(
        psi=FeedForwardNet.create([1, 2, 2], rng.child("psi")),
        phi=CosineEmbedding.create(2, 2, rng.child("phi")),
        g=FeedForwardNet.create([2, 2, 1], rng.child("g")),
        cond_mean=np.zeros(1),
        cond_sd=np.ones(1),
        target_mean=0.5,
        target_sd=2.0,
    )
    return Checkpoint(summary=summary, nets=[net], table_seed=3)


def _assert_flips_load_or_fail_cleanly(path, load):
    """Set each byte in turn to 0x00, 0x01 and 0xff: loading must succeed
    or raise DataError."""
    blob = path.read_bytes()
    bad = path.with_name("flipped" + path.suffix)
    for i in range(len(blob)):
        for value in (0x00, 0x01, 0xFF):
            if blob[i] == value:
                continue
            bad.write_bytes(blob[:i] + bytes([value]) + blob[i + 1 :])
            try:
                load(bad)
            except DataError:
                pass
            except Exception as exc:
                pytest.fail(f"byte {i} set to {value:#04x}: {exc!r}")


@pytest.mark.parametrize("kind", ["linear", "network"])
def test_checkpoint_byte_flips_load_or_raise_data_error(tmp_path, kind):
    path = tmp_path / "tiny.gbcq"
    save_checkpoint(path, _tiny_checkpoint(kind))
    _assert_flips_load_or_fail_cleanly(path, load_checkpoint)


def test_table_byte_flips_load_or_raise_data_error(tmp_path):
    gen = RngStream(13).generator
    table = ReferenceTable(
        thetas=gen.normal(size=(4, 2)), ys=gen.normal(size=(4, 3)),
        seed=13, simulator="normal-location",
    )
    path = tmp_path / "tiny.gbct"
    write_table_binary(path, table)
    _assert_flips_load_or_fail_cleanly(path, read_table_binary)


@pytest.mark.parametrize("offset", [48, 49], ids=["kind", "log1p"])
def test_summary_flag_bytes_must_be_zero_or_one(tmp_path, offset):
    # Header: magic (4), version (4), table seed (8), config hash (32); then
    # the summary-kind byte and the log1p byte.
    path = tmp_path / "tiny.gbcq"
    save_checkpoint(path, _tiny_checkpoint("linear"))
    blob = bytearray(path.read_bytes())
    blob[offset] = 2
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="expected 0 or 1"):
        load_checkpoint(path)


def _table(n_rows, d, n, seed):
    gen = RngStream(seed).generator
    return ReferenceTable(
        thetas=gen.normal(size=(n_rows, d)), ys=gen.normal(size=(n_rows, n)),
        seed=seed, simulator="normal-location",
    )


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize(
    "n_rows", [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3]
)
def test_table_round_trip_across_row_blocks(tmp_path, n_rows):
    table = _table(n_rows, 2, 5, seed=14)
    path = tmp_path / "table.gbct"
    write_table_binary(path, table)
    # The file is the whole-array layout: header, then every row of
    # (theta, y) as one row-major float64 payload.
    name = table.simulator.encode("utf-8")
    header = b"GBCT" + struct.pack("<IIIIQH", 1, n_rows, 2, 5, 14, len(name)) + name
    payload = np.hstack([table.thetas, table.ys]).astype("<f8").tobytes()
    assert path.read_bytes() == header + payload
    back = read_table_binary(path)
    assert _same_bits(back.thetas, table.thetas)
    assert _same_bits(back.ys, table.ys)
    assert (back.seed, back.simulator) == (table.seed, table.simulator)


def _load_traced(path, load):
    """Load ``path``, expecting DataError; return the peak bytes traced."""
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="truncated"):
            load(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("field", ["rows", "theta_dim", "data_dim"])
def test_table_header_promising_more_than_the_file_holds(tmp_path, field):
    # Header: magic (4), version (4), then u32 rows, theta dim and data dim.
    offset = {"rows": 8, "theta_dim": 12, "data_dim": 16}[field]
    path = tmp_path / "table.gbct"
    write_table_binary(path, _table(6, 2, 3, seed=16))
    blob = bytearray(path.read_bytes())
    blob[offset : offset + 4] = struct.pack("<I", 2**32 - 1)
    path.write_bytes(bytes(blob))
    assert _load_traced(path, read_table_binary) < 64 * 1024


def test_checkpoint_array_dim_larger_than_the_file(tmp_path):
    # Header: magic (4), version (4), table seed (8), config hash (32), the
    # summary kind and log1p bytes, then the linear matrix's u32 k and n.
    path = tmp_path / "tiny.gbcq"
    save_checkpoint(path, _tiny_checkpoint("linear"))
    blob = bytearray(path.read_bytes())
    blob[54:58] = struct.pack("<I", 2**32 - 1)
    path.write_bytes(bytes(blob))
    assert _load_traced(path, load_checkpoint) < 64 * 1024


def test_table_io_holds_no_second_copy_of_the_table(tmp_path):
    """Writing allocates a few row blocks; reading allocates the table's own
    arrays and a few row blocks. Measured as tracemalloc's peak."""
    table = _table(50_000, 1, 100, seed=17)
    table_bytes = table.thetas.nbytes + table.ys.nbytes
    block_bytes = ROW_BLOCK * 101 * 8
    path = tmp_path / "table.gbct"
    tracemalloc.start()
    try:
        write_table_binary(path, table)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        back = read_table_binary(path)
        read_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert _same_bits(back.ys, table.ys)
    assert write_peak <= 2 * block_bytes, (write_peak, block_bytes)
    assert read_peak <= table_bytes + 2 * block_bytes, (read_peak, table_bytes)
