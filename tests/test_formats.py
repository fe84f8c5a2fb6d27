"""Artifact codec: every corrupt byte of a table or checkpoint is a DataError."""

import numpy as np
import pytest

from gbc.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from gbc.errors import DataError
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
