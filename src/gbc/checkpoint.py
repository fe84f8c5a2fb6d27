"""Binary model checkpoints.

Layout (all little-endian): magic "GBCQ", format version, provenance
(reference-table seed and config hash), the summary map, then one block for
each of one or more quantile nets (dims, weights, standardization
statistics). Arrays are raw float64, so load(save(x)) reproduces every
parameter bit-exactly. A checkpoint with no quantile net is refused.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DataError
from .formats import BinaryReader, BinaryWriter
from .nets import FeedForwardNet, Layer, IDENTITY, RELU
from .quantile import AutoregressiveQuantileModel, CosineEmbedding, ImplicitQuantileNet
from .summaries import SummaryMap

MAGIC = b"GBCQ"
VERSION = 1

_ACT_CODE = {RELU: 0, IDENTITY: 1}
_ACT_NAME = {v: k for k, v in _ACT_CODE.items()}


@dataclass
class Checkpoint:
    summary: SummaryMap
    nets: list  # ImplicitQuantileNet per coordinate, in sampling order
    table_seed: int
    config_hash: bytes = b"\x00" * 32

    def model(self) -> AutoregressiveQuantileModel:
        return AutoregressiveQuantileModel(summary=self.summary, nets=self.nets)


def _write_net(w: BinaryWriter, net: FeedForwardNet):
    w.pack("I", len(net.layers))
    for lay in net.layers:
        w.pack("IIB", *lay.weight.shape, _ACT_CODE[lay.activation])
        w.array(lay.weight)
        w.array(lay.bias)


def _read_net(r: BinaryReader) -> FeedForwardNet:
    (n_layers,) = r.unpack("I")
    if n_layers == 0:
        raise DataError(f"{r.path}: a net in the checkpoint has no layers")
    layers = []
    for _ in range(n_layers):
        d_in, d_out, code = r.unpack("IIB")
        if layers and d_in != layers[-1].weight.shape[1]:
            raise DataError(
                f"{r.path}: layer input dim {d_in} does not match the previous "
                f"layer's output dim {layers[-1].weight.shape[1]}"
            )
        if code not in _ACT_NAME:
            raise DataError(f"{r.path}: unknown activation code {code}")
        layers.append(Layer(r.array(d_in, d_out), r.array(d_out), _ACT_NAME[code]))
    return FeedForwardNet(layers)


def _write_summary(w: BinaryWriter, s: SummaryMap):
    w.pack("BB", s.kind == "network", bool(s.log1p_inputs))
    if s.kind == "linear":
        (layer,) = s.net.layers
        w.pack("II", *layer.weight.T.shape)
        w.array(layer.weight.T)
        w.array(layer.bias)
    else:
        _write_net(w, s.net)
        w.pack("I", s.input_mean.shape[0])
        w.array(s.input_mean)
        w.array(s.input_sd)
        w.pack("I", s.output_mean.shape[0])
        w.array(s.output_mean)
        w.array(s.output_sd)


def _read_summary(r: BinaryReader) -> SummaryMap:
    network, log1p = r.unpack("BB")
    if network > 1 or log1p > 1:
        raise DataError(
            f"{r.path}: summary kind and log1p bytes are {network}, {log1p}; "
            "expected 0 or 1"
        )
    if not network:
        k, n = r.unpack("II")
        return SummaryMap(
            kind="linear", log1p_inputs=bool(log1p),
            matrix=r.array(k, n), intercept=r.array(k),
        )
    net = _read_net(r)
    (n,) = r.unpack("I")
    input_mean, input_sd = r.array(n), r.array(n)
    (k,) = r.unpack("I")
    if (net.input_dim, net.output_dim) != (n, k):
        raise DataError(
            f"{r.path}: the summary net maps {net.input_dim} to {net.output_dim} "
            f"values but carries statistics for {n} and {k}"
        )
    return SummaryMap(
        kind="network",
        log1p_inputs=bool(log1p),
        net=net,
        input_mean=input_mean,
        input_sd=input_sd,
        output_mean=r.array(k),
        output_sd=r.array(k),
    )


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    if len(ckpt.config_hash) != 32:
        raise ValueError("config hash must be 32 bytes")
    if not ckpt.nets:
        raise ValueError("a checkpoint needs at least one quantile net")
    with open(path, "wb") as fh:
        w = BinaryWriter(fh, MAGIC, VERSION)
        w.pack("Q", int(ckpt.table_seed))
        w.raw(ckpt.config_hash)
        _write_summary(w, ckpt.summary)
        w.pack("I", len(ckpt.nets))
        for net in ckpt.nets:
            _write_net(w, net.psi)
            # phi's block: n_cos, m, weights, biases (its activation is fixed).
            (phi,) = net.phi.layers
            w.pack("II", *phi.weight.shape)
            w.array(phi.weight)
            w.array(phi.bias)
            _write_net(w, net.g)
            w.pack("I", net.cond_mean.shape[0])
            w.array(net.cond_mean)
            w.array(net.cond_sd)
            w.pack("dd", net.target_mean, net.target_sd)


def load_checkpoint(path) -> Checkpoint:
    with BinaryReader(path, MAGIC, VERSION, "model checkpoint") as r:
        (table_seed,) = r.unpack("Q")
        config_hash = r.raw(32)
        summary = _read_summary(r)
        (n_nets,) = r.unpack("I")
        if n_nets == 0:
            raise DataError(f"{r.path}: the checkpoint holds no quantile nets")
        nets = []
        for k in range(n_nets):
            psi = _read_net(r)
            n_cos, m = r.unpack("II")
            phi = CosineEmbedding([Layer(r.array(n_cos, m), r.array(m), RELU)])
            g = _read_net(r)
            (cond_dim,) = r.unpack("I")
            cond_mean, cond_sd = r.array(cond_dim), r.array(cond_dim)
            target_mean, target_sd = r.unpack("dd")
            # Net k conditions on the summary and the k coordinates before it;
            # psi's features and the embedding multiply, and g maps them to 1.
            if not psi.output_dim == m == g.input_dim or g.output_dim != 1:
                raise DataError(
                    f"{r.path}: net {k} has psi output {psi.output_dim}, embedding "
                    f"width {m} and g {g.input_dim} -> {g.output_dim}"
                )
            if not psi.input_dim == cond_dim == summary.out_dim + k:
                raise DataError(
                    f"{r.path}: net {k} conditions on {psi.input_dim} inputs with "
                    f"{cond_dim} statistics; the chain gives it {summary.out_dim + k}"
                )
            nets.append(
                ImplicitQuantileNet(
                    psi=psi, phi=phi, g=g,
                    cond_mean=cond_mean, cond_sd=cond_sd,
                    target_mean=target_mean, target_sd=target_sd,
                )
            )
        r.finish()
    return Checkpoint(
        summary=summary, nets=nets, table_seed=table_seed, config_hash=config_hash
    )
