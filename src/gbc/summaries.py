"""Dimension-reducing summary statistics S(y).

Two fits are offered: a deep posterior-mean regression (train a small net to
predict theta from y; its output is the k = d dimensional summary) and a
ridge-regularized linear least-squares map. Both produce a
:class:`SummaryMap`, a net on y that is frozen once fitted and embedded
verbatim in model checkpoints. A linear map is one identity layer with no
standardization statistics: it is fit on raw y, and a unit z-score would
only copy every input row.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .nets import IDENTITY, FeedForwardNet, Layer, OptimizerSpec, train_minibatch

RIDGE = 1e-8


@dataclass
class SummaryMap:
    """A fitted map from raw data vectors to k summary coordinates.

    s is ``net`` on y' (y after the optional log(1 + count) transform),
    z-scored on the way in and out where the map has statistics: a
    "network" map has both, a "linear" one none. A linear map is built from
    ``matrix`` B (k, n) and ``intercept`` (k,) as the identity layer
    s = y' @ B.T + intercept. ``kind`` labels the fit in checkpoints and
    reports.
    """

    kind: str
    log1p_inputs: bool = False
    net: FeedForwardNet | None = None
    input_mean: np.ndarray | None = None  # (n,)
    input_sd: np.ndarray | None = None  # (n,)
    output_mean: np.ndarray | None = None  # (k,)
    output_sd: np.ndarray | None = None  # (k,)
    matrix: InitVar[np.ndarray | None] = None  # (k, n)
    intercept: InitVar[np.ndarray | None] = None  # (k,)

    def __post_init__(self, matrix, intercept):
        if self.kind not in ("linear", "network"):
            raise ValueError(f"unknown summary kind {self.kind!r}")
        if self.kind == "linear":
            layer = Layer(np.transpose(matrix), intercept, IDENTITY)
            self.net = FeedForwardNet([layer])

    @property
    def out_dim(self) -> int:
        return self.net.output_dim

    @property
    def in_dim(self) -> int:
        return self.net.input_dim


def apply_summary(summary: SummaryMap, y) -> np.ndarray:
    """Evaluate a fitted summary on one vector (n,) or a batch (B, n)."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape[-1] != summary.in_dim:
        raise ValueError(
            f"data dimension {y.shape[-1]} does not match summary input "
            f"dimension {summary.in_dim}"
        )
    if summary.log1p_inputs:
        y = np.log1p(y)
    if summary.input_mean is not None:
        y = (y - summary.input_mean) / summary.input_sd
    out = summary.net.forward(y)
    if summary.output_mean is not None:
        out = out * summary.output_sd + summary.output_mean
    return out


def mean_summary(n) -> SummaryMap:
    """The sample mean of an n-vector as a one-coordinate linear summary."""
    return SummaryMap(
        kind="linear", matrix=np.full((1, n), 1.0 / n), intercept=np.zeros(1)
    )


def _safe_sd(x, axis=0):
    sd = x.std(axis=axis)
    return np.where(sd == 0.0, 1.0, sd)


def _split_holdout(n_rows):
    """Fixed 90/10 split by row index; at least one row on each side."""
    cut = max(1, min(n_rows - 1, int(round(0.9 * n_rows)))) if n_rows > 1 else n_rows
    return np.arange(cut), np.arange(cut, n_rows)


def holdout_mse(summary: SummaryMap, table) -> float:
    """Mean squared Euclidean error of the summary on the held-out rows of
    the 90/10 split; nan when the table is too small to hold any out."""
    _, hold_ix = _split_holdout(table.n_rows)
    if not hold_ix.size:
        return float("nan")
    pred = apply_summary(summary, table.ys[hold_ix])
    return float(np.mean(np.sum((pred - table.thetas[hold_ix]) ** 2, axis=1)))


def fit_posterior_mean_net(
    table, rng, opt: OptimizerSpec, hidden=(64, 64), log1p_inputs=False
) -> tuple[SummaryMap, np.ndarray]:
    """Train S(y) ~ E[theta | y] by l2 regression on the first 90% of the
    table's rows (:func:`holdout_mse` scores the other 10%), with the
    training settings ``opt`` at a constant rate and no tail average.
    Returns ``(summary, losses)``, the losses one per epoch.

    The summary dimension equals the parameter dimension (one coordinate per
    theta component). Inputs and targets are z-scored with statistics from
    the training split; the returned map folds both transforms in, so its
    outputs live in native theta units. Losses are reported in native units
    as the mean squared Euclidean error per row.
    """
    if table.n_rows == 0:
        raise ValueError("cannot fit a summary on an empty table")
    ys = np.log1p(table.ys) if log1p_inputs else table.ys
    thetas = table.thetas
    train_ix, _ = _split_holdout(table.n_rows)

    x_mean = ys[train_ix].mean(axis=0)
    x_sd = _safe_sd(ys[train_ix])
    t_mean = thetas[train_ix].mean(axis=0)
    t_sd = _safe_sd(thetas[train_ix])
    x_train = (ys[train_ix] - x_mean) / x_sd
    t_train = (thetas[train_ix] - t_mean) / t_sd

    d = thetas.shape[1]
    net = FeedForwardNet.create(
        [ys.shape[1], *hidden, d], rng.child("summary-init")
    )

    def batch_step(idx, _drawn, grads):
        out, cache = net.forward_cached(x_train[idx])
        resid = out - t_train[idx]
        loss = float(np.sum(resid**2 * t_sd**2))
        net.backward(
            cache, (2.0 / (len(idx) * d)) * resid, input_grad=False, grads=grads
        )
        return loss

    losses = train_minibatch(
        net.layers, opt, x_train.shape[0],
        rng.child("summary-shuffle").generator, batch_step, "summary",
    )

    summary = SummaryMap(
        kind="network", log1p_inputs=log1p_inputs, net=net,
        input_mean=x_mean, input_sd=x_sd, output_mean=t_mean, output_sd=t_sd,
    )
    return summary, losses


def fit_linear_summary(table, log1p_inputs=False) -> SummaryMap:
    """Closed-form least squares of theta on y, one row of B per coordinate.

    Solves the normal equations with an intercept column and a small ridge
    term ``RIDGE`` on the slopes (never on the intercept), so rank-deficient
    designs are handled without special-casing.
    """
    if table.n_rows == 0:
        raise ValueError("cannot fit a summary on an empty table")
    ys = np.log1p(table.ys) if log1p_inputs else table.ys
    n = ys.shape[1]
    design = np.hstack([ys, np.ones((table.n_rows, 1))])
    gram = design.T @ design
    gram[np.arange(n), np.arange(n)] += RIDGE
    rhs = design.T @ table.thetas
    coef = np.linalg.solve(gram, rhs)  # (n + 1, d)
    return SummaryMap(
        kind="linear",
        log1p_inputs=log1p_inputs,
        matrix=np.ascontiguousarray(coef[:n].T),
        intercept=coef[n].copy(),
    )
