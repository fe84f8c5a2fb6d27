"""Implicit quantile networks and the autoregressive posterior sampler.

The posterior of one parameter coordinate is represented by its quantile
function: a network f(tau, x) = g(psi(x) * phi(tau)) (element-wise product)
trained with the pinball loss at uniformly random quantile levels. A vector
parameter gets one such net per coordinate, the k-th conditioning on the
data summary and the previously drawn coordinates, so posterior sampling is
a single forward sweep per draw: theta_k = f_k(tau_k, s, theta_<k) with
fresh uniform tau_k. psi, phi and g are all ``FeedForwardNet``s, so they
share one forward and backward pass; phi is one ReLU layer on the cosine
basis of tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nets import RELU, FeedForwardNet, OptimizerSpec, train_minibatch
from .summaries import SummaryMap, _safe_sd, apply_summary

# Quantile evaluation runs the net on row blocks of this many rows, so each
# block's temporaries stay in cache. Every block starts at a multiple of it:
# the bytes of a row of a BLAS product can depend on the row's position mod
# the kernel's unroll (rows of the (M, 64) @ (64, 1) output layer on position
# mod 4), and 1,024 keeps every row where the whole-array product puts it.
SAMPLE_BLOCK_ROWS = 1024


class CosineEmbedding(FeedForwardNet):
    """tau -> ReLU(cos(pi * i * tau) W + b), i = 0..n_cos-1, output dim m:
    one ReLU layer applied to the cosine basis of the levels."""

    @classmethod
    def create(cls, n_cos, m, rng):
        return super().create([n_cos, m], rng, final_activation=RELU)

    def basis(self, taus):
        taus = np.asarray(taus, dtype=np.float64)
        if not np.all((taus >= 0.0) & (taus <= 1.0)):
            raise ValueError("quantile levels must lie in [0, 1]")
        out = np.multiply.outer(taus, np.arange(self.input_dim))  # (B, n_cos)
        out *= np.pi
        return np.cos(out, out=out)

    def forward_cached(self, taus):
        return super().forward_cached(self.basis(taus))


@dataclass
class NetworkSpec:
    """Architecture sizes for one implicit quantile net."""

    psi_hidden: tuple = (64, 64)
    feature_dim: int = 64  # m: width of the psi/phi product junction
    n_cos: int = 64
    g_hidden: tuple = (64, 64)


@dataclass
class ImplicitQuantileNet:
    """One conditional quantile function f(tau | conditioning vector).

    Conditioning inputs are z-scored with the recorded statistics before
    entering psi; raw outputs of g are de-standardized with the recorded
    target statistics, so evaluation takes and returns native units.
    """

    psi: FeedForwardNet
    phi: CosineEmbedding
    g: FeedForwardNet
    cond_mean: np.ndarray
    cond_sd: np.ndarray
    target_mean: float
    target_sd: float

    @property
    def cond_dim(self):
        return self.psi.input_dim

    def quantile_values(self, cond, taus) -> np.ndarray:
        """Raw (un-rearranged) quantile values at levels taus, native units.

        cond is one conditioning vector (c,) shared by all taus, or a batch
        (B, c) paired with taus of length B.

        Runs in row blocks (``_row_blocks``), so each block's temporaries
        stay in cache. A shared vector gives every block of one length the
        same psi input, so psi runs once per distinct block length (at most
        two) and its output is reused; phi and g run per block. The values
        are the same bytes as one whole-array pass.
        """
        cond = np.asarray(cond, dtype=np.float64)
        taus = np.asarray(taus, dtype=np.float64)
        shared = cond.ndim == 1
        if not shared and cond.shape[0] != taus.shape[0]:
            raise ValueError(
                f"{cond.shape[0]} conditioning rows for {taus.shape[0]} quantile levels"
            )
        out = np.empty(taus.shape[0])
        psi_by_length = {}
        for rows in _row_blocks(taus.shape[0]):
            if shared:
                n = rows.stop - rows.start
                if n not in psi_by_length:
                    block = np.broadcast_to(cond, (n, cond.shape[0]))
                    psi_by_length[n] = self._psi_block(block)
                a = psi_by_length[n]
            else:
                a = self._psi_block(cond[rows])
            out[rows] = self.g.forward(a * self.phi.forward(taus[rows]))[:, 0]
        return out * self.target_sd + self.target_mean

    def _psi_block(self, cond_rows):
        # A block of several rows, never one row broadcast afterwards: a
        # one-row product takes BLAS's gemv path, whose bytes differ.
        return self.psi.forward((cond_rows - self.cond_mean) / self.cond_sd)


def train_iqn(
    table,
    summary: SummaryMap,
    coordinate: int,
    spec: NetworkSpec,
    opt: OptimizerSpec,
    rng,
):
    """Fit the quantile net for one theta coordinate on a reference table.

    Conditioning is (summary of y, theta_1..theta_{coordinate-1}); targets
    are theta_coordinate. Every epoch draws a fresh uniform quantile level
    per row. Training settles the fit: a stepped rate and a Polyak-averaged
    tail (see :func:`train_minibatch`). Returns ``(net, losses)`` with
    per-epoch mean pinball loss in native target units.
    """
    if table.n_rows == 0:
        raise ValueError("cannot train on an empty table")
    if not 0 <= coordinate < table.theta_dim:
        raise ValueError(f"coordinate {coordinate} outside 0..{table.theta_dim - 1}")
    cond = np.hstack([apply_summary(summary, table.ys), table.thetas[:, :coordinate]])
    target = table.thetas[:, coordinate]

    cond_mean = cond.mean(axis=0)
    cond_sd = _safe_sd(cond)
    t_mean = float(target.mean())
    t_sd = float(_safe_sd(target))
    x = (cond - cond_mean) / cond_sd
    t = (target - t_mean) / t_sd

    psi = FeedForwardNet.create(
        [cond.shape[1], *spec.psi_hidden, spec.feature_dim], rng.child("psi-init")
    )
    phi = CosineEmbedding.create(spec.n_cos, spec.feature_dim, rng.child("phi-init"))
    g = FeedForwardNet.create(
        [spec.feature_dim, *spec.g_hidden, 1], rng.child("g-init")
    )
    net = ImplicitQuantileNet(
        psi=psi, phi=phi, g=g,
        cond_mean=cond_mean, cond_sd=cond_sd,
        target_mean=t_mean, target_sd=t_sd,
    )

    # Where each net's gradients sit in train_minibatch's list.
    n_psi, n_phi = 2 * len(psi.layers), 2 * len(phi.layers)

    def batch_step(idx, taus, grads):
        tb, taub = t[idx], taus[idx]
        a, cache_psi = psi.forward_cached(x[idx])
        b, cache_phi = phi.forward_cached(taub)
        h = a * b
        out, cache_g = g.forward_cached(h)
        u = tb - out[:, 0]
        loss = float(np.sum(u * (taub - (u < 0.0))))
        # d(mean pinball)/d(out) = (1[u<0] - tau) / batch
        dout = (((u < 0.0) - taub) / len(idx))[:, None]
        _, dh = g.backward(cache_g, dout, grads=grads[n_psi + n_phi :])
        psi.backward(cache_psi, dh * b, input_grad=False, grads=grads[:n_psi])
        phi.backward(cache_phi, dh * a, input_grad=False,
                     grads=grads[n_psi : n_psi + n_phi])
        return loss

    n = x.shape[0]
    # Each epoch draws a fresh quantile level per row before shuffling.
    losses = train_minibatch(
        [*psi.layers, *phi.layers, *g.layers], opt, n,
        rng.child("train-shuffle").generator, batch_step, "quantile",
        draw_epoch=lambda gen: gen.uniform(size=n), settle=True,
    )
    return net, losses * t_sd  # pinball scales linearly


@dataclass
class AutoregressiveQuantileModel:
    """d quantile nets chained in a fixed coordinate order.

    Net k conditions on the data summary and coordinates 0..k-1, so a joint
    posterior draw is d sequential quantile evaluations at independent
    uniform levels.
    """

    summary: SummaryMap
    nets: list

    @property
    def dim(self):
        return len(self.nets)

    def _summary_of(self, y_obs):
        return apply_summary(self.summary, np.asarray(y_obs, dtype=np.float64))

    def sample(self, y_obs, n_draws, rng) -> np.ndarray:
        """n_draws x d posterior draws at the observed data."""
        if n_draws < 0:
            raise ValueError("draw count cannot be negative")
        s = self._summary_of(y_obs)
        gen = rng.generator
        draws = np.empty((n_draws, self.dim))
        for k, net in enumerate(self.nets):
            taus = gen.uniform(size=n_draws)
            if s.shape[0] + k != net.cond_dim:
                raise ValueError(
                    f"net {k} expects conditioning dim {net.cond_dim}, "
                    f"got {s.shape[0] + k}"
                )
            # Net 0 conditions on the summary alone: one vector for all rows.
            cond = s if k == 0 else np.hstack(
                [np.broadcast_to(s, (n_draws, s.shape[0])), draws[:, :k]]
            )
            draws[:, k] = net.quantile_values(cond, taus)
        return draws

    def quantile_values(self, y_obs, taus) -> np.ndarray:
        """Marginal quantile values of the first coordinate (d = 1 chains)."""
        if self.dim != 1:
            raise ValueError(
                "marginal quantile curves are defined for single-parameter "
                "chains; sample() the joint model instead"
            )
        return self.nets[0].quantile_values(self._summary_of(y_obs), np.asarray(taus))


def _row_blocks(n_rows):
    """Slices of ``SAMPLE_BLOCK_ROWS`` rows covering ``range(n_rows)``. A
    trailing one-row block joins the block before it: NumPy sends a one-row
    product to BLAS's gemv path, whose bytes differ from the same row of a
    larger product."""
    starts = list(range(0, n_rows, SAMPLE_BLOCK_ROWS))
    if len(starts) > 1 and n_rows - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n_rows])]


def checked_tau_grid(tau_grid) -> np.ndarray:
    """``tau_grid`` as a float64 array; ValueError unless it is a non-empty
    1-D grid, strictly increasing inside (0, 1)."""
    tau_grid = np.asarray(tau_grid, dtype=np.float64)
    if tau_grid.ndim != 1 or tau_grid.size == 0:
        raise ValueError("tau grid must be a non-empty 1-D array")
    if not np.all((tau_grid > 0.0) & (tau_grid < 1.0)):
        raise ValueError("tau grid must lie strictly inside (0, 1)")
    if not np.all(np.diff(tau_grid) > 0.0):
        raise ValueError("tau grid must be strictly increasing")
    return tau_grid


def posterior_quantile_curve(model, y_obs, tau_grid):
    """Quantile curve on a grid, monotone-rearranged.

    Returns ``(values, crossing_rate)``: values are the raw net outputs
    sorted into non-decreasing order (rearrangement never hurts a quantile
    estimate), and crossing_rate is the fraction of adjacent grid pairs the
    raw outputs ordered backwards before sorting.
    """
    tau_grid = checked_tau_grid(tau_grid)
    raw = np.asarray(model.quantile_values(y_obs, tau_grid), dtype=np.float64)
    if raw.size > 1:
        crossing = float(np.mean(np.diff(raw) < 0.0))
    else:
        crossing = 0.0
    return np.sort(raw), crossing
