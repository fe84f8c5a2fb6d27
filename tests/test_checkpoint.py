"""Model checkpoint serialization: bit-exact round trips, corruption errors."""

import struct

import numpy as np
import pytest

from gbc.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from gbc.errors import DataError
from gbc.models import ReferenceTable
from gbc.nets import FeedForwardNet
from gbc.quantile import (
    CosineEmbedding,
    ImplicitQuantileNet,
    NetworkSpec,
    OptimizerSpec,
    train_iqn,
)
from gbc.rng import RngStream
from gbc.summaries import SummaryMap


def _make_net(rng, cond_dim=3):
    psi = FeedForwardNet.create([cond_dim, 8, 4], rng.child("psi"))
    phi = CosineEmbedding.create(6, 4, rng.child("phi"))
    g = FeedForwardNet.create([4, 8, 1], rng.child("g"))
    gen = rng.child("stats").generator
    return ImplicitQuantileNet(
        psi=psi, phi=phi, g=g,
        cond_mean=gen.normal(size=cond_dim),
        cond_sd=np.abs(gen.normal(size=cond_dim)) + 0.5,
        target_mean=float(gen.normal()),
        target_sd=float(np.abs(gen.normal()) + 0.5),
    )


def _linear_checkpoint(seed=3):
    rng = RngStream(seed)
    summary = SummaryMap(
        kind="linear",
        matrix=rng.generator.normal(size=(2, 5)),
        intercept=rng.generator.normal(size=2),
    )
    nets = [_make_net(rng.child("n0"), cond_dim=2), _make_net(rng.child("n1"), cond_dim=3)]
    return Checkpoint(
        summary=summary, nets=nets, table_seed=77,
        config_hash=bytes(range(32)),
    )


def test_round_trip_is_bit_exact(tmp_path):
    ckpt = _linear_checkpoint()
    path = tmp_path / "model.gbcq"
    save_checkpoint(path, ckpt)
    back = load_checkpoint(path)
    assert back.table_seed == 77
    assert back.config_hash == bytes(range(32))
    assert back.summary.kind == "linear"
    assert np.array_equal(back.summary.matrix, ckpt.summary.matrix)
    assert np.array_equal(back.summary.intercept, ckpt.summary.intercept)
    assert len(back.nets) == 2
    for a, b in zip(ckpt.nets, back.nets):
        assert type(b.phi) is CosineEmbedding
        for la, lb in zip(a.psi.layers + a.phi.layers + a.g.layers,
                          b.psi.layers + b.phi.layers + b.g.layers):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)
            assert la.activation == lb.activation
        assert np.array_equal(a.cond_mean, b.cond_mean)
        assert np.array_equal(a.cond_sd, b.cond_sd)
        assert a.target_mean == b.target_mean
        assert a.target_sd == b.target_sd


def _read_net_bytes(blob, at):
    """Skip one serialized FeedForwardNet; return the offset after it."""
    (n_layers,) = struct.unpack_from("<I", blob, at)
    at += 4
    for _ in range(n_layers):
        d_in, d_out, _act = struct.unpack_from("<IIB", blob, at)
        at += 9 + 8 * (d_in * d_out + d_out)
    return at


def test_embedding_block_follows_the_documented_layout(tmp_path):
    # README: magic, u32 version, u64 table seed, 32-byte hash, the summary
    # (kind and log1p bytes; linear: u32 k, u32 n, k x n values, k
    # intercepts), u32 net count, then per net psi and the cosine embedding
    # as u32 n_cos, u32 m, n_cos x m weights, m biases.
    ckpt = _linear_checkpoint()
    path = tmp_path / "layout.gbcq"
    save_checkpoint(path, ckpt)
    blob = path.read_bytes()
    assert blob[:4] == b"GBCQ"
    at = 4 + 4 + 8 + 32
    kind, _log1p, k, n = struct.unpack_from("<BBII", blob, at)
    assert kind == 0
    at += 10 + 8 * (k * n + k)
    (n_nets,) = struct.unpack_from("<I", blob, at)
    assert n_nets == 2
    at = _read_net_bytes(blob, at + 4)
    n_cos, m = struct.unpack_from("<II", blob, at)
    at += 8
    (layer,) = ckpt.nets[0].phi.layers
    assert (n_cos, m) == layer.weight.shape == (6, 4)
    weights = np.frombuffer(blob, "<f8", n_cos * m, at).reshape(n_cos, m)
    biases = np.frombuffer(blob, "<f8", m, at + 8 * n_cos * m)
    assert weights.tobytes() == layer.weight.tobytes()
    assert biases.tobytes() == layer.bias.tobytes()
    # g follows at once: no activation byte in the embedding block.
    after = at + 8 * (n_cos * m + m)
    assert struct.unpack_from("<I", blob, after)[0] == len(ckpt.nets[0].g.layers)


def test_save_is_deterministic(tmp_path):
    ckpt = _linear_checkpoint()
    p1, p2 = tmp_path / "a.gbcq", tmp_path / "b.gbcq"
    save_checkpoint(p1, ckpt)
    save_checkpoint(p2, ckpt)
    assert p1.read_bytes() == p2.read_bytes()


def test_loaded_model_predicts_identically(tmp_path):
    # End-to-end: train a tiny model, save, load, and compare quantile
    # outputs exactly.
    gen = RngStream(4).generator
    thetas = gen.normal(size=(300, 1))
    ys = thetas + 0.5 * gen.normal(size=(300, 2))
    table = ReferenceTable(thetas=thetas, ys=ys, seed=9, simulator="normal-location")
    summary = SummaryMap(
        kind="linear", matrix=np.full((1, 2), 0.5), intercept=np.zeros(1)
    )
    spec = NetworkSpec(psi_hidden=(8,), feature_dim=8, n_cos=4, g_hidden=(8,))
    net, _ = train_iqn(
        table, summary, 0, spec, OptimizerSpec(epochs=5), RngStream(5)
    )
    ckpt = Checkpoint(summary=summary, nets=[net], table_seed=9)
    path = tmp_path / "trained.gbcq"
    save_checkpoint(path, ckpt)
    model = load_checkpoint(path).model()
    y_obs = np.array([0.4, -0.2])
    taus = np.linspace(0.05, 0.95, 19)
    want = net.quantile_values(np.array([0.1]), taus)  # summary of y_obs = 0.1
    got = model.quantile_values(y_obs, taus)
    assert np.array_equal(got, want)


def test_network_summary_round_trip(tmp_path):
    rng = RngStream(6)
    summary = SummaryMap(
        kind="network",
        log1p_inputs=True,
        net=FeedForwardNet.create([4, 6, 2], rng.child("s")),
        input_mean=np.arange(4.0),
        input_sd=np.arange(1.0, 5.0),
        output_mean=np.array([0.5, -0.5]),
        output_sd=np.array([2.0, 3.0]),
    )
    ckpt = Checkpoint(
        summary=summary, nets=[_make_net(rng.child("n"), cond_dim=2)], table_seed=1
    )
    path = tmp_path / "net-summary.gbcq"
    save_checkpoint(path, ckpt)
    back = load_checkpoint(path)
    assert back.summary.kind == "network"
    assert back.summary.log1p_inputs is True
    assert np.array_equal(back.summary.input_mean, summary.input_mean)
    assert np.array_equal(back.summary.output_sd, summary.output_sd)
    for la, lb in zip(summary.net.layers, back.summary.net.layers):
        assert np.array_equal(la.weight, lb.weight)


def test_network_summary_statistics_must_fit_its_net(tmp_path):
    rng = RngStream(6)
    summary = SummaryMap(
        kind="network",
        net=FeedForwardNet.create([4, 6, 2], rng.child("s")),
        input_mean=np.zeros(4),
        input_sd=np.ones(4),
        output_mean=np.zeros(3),
        output_sd=np.ones(3),
    )
    path = tmp_path / "bad-summary.gbcq"
    net = _make_net(rng.child("n"), cond_dim=2)
    save_checkpoint(path, Checkpoint(summary=summary, nets=[net], table_seed=1))
    with pytest.raises(DataError, match="statistics for 4 and 3"):
        load_checkpoint(path)


def test_checkpoint_without_quantile_nets_is_data_error(tmp_path):
    """The writer still encodes a net count of zero; the loader refuses it,
    naming the file, because such a checkpoint holds no posterior."""
    ckpt = _linear_checkpoint()
    ckpt.nets = []
    path = tmp_path / "summary-only.gbcq"
    save_checkpoint(path, ckpt)
    with pytest.raises(DataError, match="no quantile nets") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def test_bad_magic_is_structured_error(tmp_path):
    path = tmp_path / "junk.gbcq"
    path.write_bytes(b"ZZZZ" + bytes(100))
    with pytest.raises(DataError, match="magic"):
        load_checkpoint(path)


def test_unsupported_version_is_structured_error(tmp_path):
    ckpt = _linear_checkpoint()
    path = tmp_path / "future.gbcq"
    save_checkpoint(path, ckpt)
    blob = bytearray(path.read_bytes())
    blob[4] = 250
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="version 250"):
        load_checkpoint(path)


def test_truncated_checkpoint_is_structured_error(tmp_path):
    ckpt = _linear_checkpoint()
    path = tmp_path / "cut.gbcq"
    save_checkpoint(path, ckpt)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(path)


def test_trailing_bytes_are_rejected(tmp_path):
    ckpt = _linear_checkpoint()
    path = tmp_path / "padded.gbcq"
    save_checkpoint(path, ckpt)
    path.write_bytes(path.read_bytes() + b"\x00\x01\x02")
    with pytest.raises(DataError, match="trailing"):
        load_checkpoint(path)


def test_missing_file_is_structured_error(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_checkpoint(tmp_path / "absent.gbcq")


def test_bad_config_hash_length_rejected(tmp_path):
    ckpt = _linear_checkpoint()
    ckpt.config_hash = b"\x00" * 5
    with pytest.raises(ValueError, match="32 bytes"):
        save_checkpoint(tmp_path / "x.gbcq", ckpt)
