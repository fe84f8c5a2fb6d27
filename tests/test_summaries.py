"""Summary-statistic fits: linear least squares and posterior-mean nets."""

import numpy as np
import pytest

from gbc import summaries
from gbc.config import RunConfig, optimizer_spec_from_config
from gbc.errors import ConfigError, TrainingDivergence
from gbc.models import (
    NormalCoord,
    NormalLocationSimulator,
    PriorSpec,
    ReferenceTable,
    generate_reference_table,
)
from gbc.nets import OptimizerSpec
from gbc.rng import RngStream
from gbc.summaries import (
    SummaryMap,
    apply_summary,
    fit_linear_summary,
    fit_posterior_mean_net,
    holdout_mse,
)
from quantile_helpers import huge_targets
from training_reference import reference_train_minibatch


def _table_from_arrays(thetas, ys, seed=0):
    return ReferenceTable(
        thetas=np.asarray(thetas, dtype=np.float64),
        ys=np.asarray(ys, dtype=np.float64),
        seed=seed,
        simulator="normal-location",
    )


def test_linear_summary_inverts_exact_linear_map():
    # ys = thetas @ A.T with A invertible and no noise: least squares must
    # recover B = A^{-1} and a zero intercept (ridge 1e-8 is negligible
    # against a gram matrix of order N).
    gen = RngStream(4).generator
    A = np.array([[2.0, 0.5, 0.0], [-1.0, 1.5, 0.3], [0.2, 0.0, 1.0]])
    thetas = gen.normal(size=(2000, 3))
    table = _table_from_arrays(thetas, thetas @ A.T)
    fit = fit_linear_summary(table)
    assert np.allclose(fit.matrix, np.linalg.inv(A), atol=1e-6)
    assert np.allclose(fit.intercept, 0.0, atol=1e-6)
    # and the fitted map reproduces theta from y
    pred = apply_summary(fit, table.ys)
    assert np.allclose(pred, thetas, atol=1e-6)


def test_linear_summary_identity_map():
    gen = RngStream(5).generator
    thetas = gen.normal(size=(500, 2))
    table = _table_from_arrays(thetas, thetas.copy())
    fit = fit_linear_summary(table)
    assert np.allclose(fit.matrix, np.eye(2), atol=1e-6)


def test_linear_summary_recovers_index_direction():
    # theta depends on y only through a single linear index w'y with y
    # Gaussian; the least-squares slope must align with w even though the
    # link (tanh) is nonlinear.
    gen = RngStream(6).generator
    n = 20
    w = gen.normal(size=n)
    w /= np.linalg.norm(w)
    ys = gen.normal(size=(50_000, n))
    thetas = np.tanh(ys @ w)[:, None] + 0.1 * gen.normal(size=(50_000, 1))
    fit = fit_linear_summary(_table_from_arrays(thetas, ys))
    b = fit.matrix[0]
    cosine = abs(b @ w) / np.linalg.norm(b)
    assert cosine > 0.95


def test_linear_summary_null_coefficients_near_zero():
    # Independent theta and y: every slope coefficient is statistically
    # zero. OLS coefficient standard error is about 1/sqrt(N) here.
    gen = RngStream(7).generator
    N, n = 20_000, 10
    thetas = gen.normal(size=(N, 1))
    ys = gen.normal(size=(N, n))
    fit = fit_linear_summary(_table_from_arrays(thetas, ys))
    se = 1.0 / np.sqrt(N)
    assert np.all(np.abs(fit.matrix) < 4.0 * se)


def test_linear_summary_tracks_sample_mean():
    # On the conjugate location problem the fitted summary must be a
    # monotone function of the sample mean (rank correlation ~ 1).
    prior = PriorSpec((NormalCoord(0.0, 5.0),))
    sim = NormalLocationSimulator(noise_var=10.0, n_obs=30)
    table = generate_reference_table(prior, sim, 5000, RngStream(11))
    fit = fit_linear_summary(table)
    s = apply_summary(fit, table.ys)[:, 0]
    ybar = table.ys.mean(axis=1)
    r1 = np.argsort(np.argsort(s)).astype(np.float64)
    r2 = np.argsort(np.argsort(ybar)).astype(np.float64)
    rank_corr = np.corrcoef(r1, r2)[0, 1]
    assert rank_corr > 0.99


def test_linear_summary_row_order_invariant():
    prior = PriorSpec((NormalCoord(0.0, 1.0),))
    sim = NormalLocationSimulator(noise_var=1.0, n_obs=8)
    table = generate_reference_table(prior, sim, 400, RngStream(14))
    perm = RngStream(15).generator.permutation(400)
    shuffled = _table_from_arrays(table.thetas[perm], table.ys[perm])
    a = fit_linear_summary(table)
    b = fit_linear_summary(shuffled)
    assert np.allclose(a.matrix, b.matrix, atol=1e-8)
    assert np.allclose(a.intercept, b.intercept, atol=1e-8)


def test_empty_table_rejected_by_both_fits():
    empty = _table_from_arrays(np.empty((0, 1)), np.empty((0, 3)))
    with pytest.raises(ValueError, match="empty"):
        fit_linear_summary(empty)
    with pytest.raises(ValueError, match="empty"):
        fit_posterior_mean_net(empty, RngStream(0), OptimizerSpec())


def test_network_summary_tracks_conditional_mean():
    # y has three noisy copies of theta; E[theta | y] is linear in the
    # sample mean, so the trained net must correlate near-perfectly with it.
    gen = RngStream(16).generator
    thetas = gen.normal(0.0, 2.0, size=(6000, 1))
    ys = thetas + 0.5 * gen.normal(size=(6000, 3))
    table = _table_from_arrays(thetas, ys)
    summary, losses = fit_posterior_mean_net(
        table, RngStream(17), OptimizerSpec(epochs=60, batch_size=256), hidden=(32, 32)
    )
    s = apply_summary(summary, ys)[:, 0]
    corr = np.corrcoef(s, ys.mean(axis=1))[0, 1]
    assert corr > 0.99
    assert losses.shape == (60,)
    holdout_loss = holdout_mse(summary, table)
    assert np.isfinite(holdout_loss)
    # The fit should beat the no-information predictor by a wide margin.
    assert holdout_loss < 0.5 * np.var(thetas)


def test_network_summary_pure_noise_holdout_matches_prior_variance():
    # When y carries no information the best l2 prediction is the prior
    # mean, so holdout mean squared error approaches Var(theta).
    gen = RngStream(18).generator
    thetas = gen.normal(size=(4000, 1))
    ys = gen.normal(size=(4000, 5))
    table = _table_from_arrays(thetas, ys)
    summary, _ = fit_posterior_mean_net(
        table, RngStream(19), OptimizerSpec(epochs=40, batch_size=256), hidden=(16,)
    )
    holdout_var = np.var(thetas[3600:])
    assert abs(holdout_mse(summary, table) - holdout_var) < 0.10 * holdout_var


def test_network_summary_log1p_handles_count_scales():
    # Count-like data spanning several orders of magnitude: the log(1+y)
    # input transform must be applied consistently at fit and apply time.
    gen = RngStream(20).generator
    thetas = gen.uniform(1.0, 6.0, size=(4000, 1))
    ys = np.exp(thetas + 0.05 * gen.normal(size=(4000, 4)))
    table = _table_from_arrays(thetas, ys)
    summary, _ = fit_posterior_mean_net(
        table, RngStream(21), OptimizerSpec(epochs=80, batch_size=256), hidden=(32,),
        log1p_inputs=True,
    )
    assert summary.log1p_inputs
    pred = apply_summary(summary, ys)
    corr = np.corrcoef(pred[:, 0], thetas[:, 0])[0, 1]
    assert corr > 0.98


def test_network_summary_divergence_is_reported_with_epoch():
    gen = RngStream(22).generator
    thetas = gen.normal(size=(256, 1))
    ys = thetas + gen.normal(size=(256, 2))
    table = _table_from_arrays(huge_targets(256, seed=22)[:, None], ys)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergence) as err:
            fit_posterior_mean_net(table, RngStream(23), OptimizerSpec(epochs=5))
    assert err.value.epoch == 0


def test_unknown_optimizer_rejected():
    # Every summary net trains with Adam; a config that names an optimizer
    # is rejected rather than quietly trained with another.
    cfg = RunConfig.from_text("[summary]\nkind = network\noptimizer = adagrad\n")
    with pytest.raises(ConfigError, match=r"\[summary\] optimizer"):
        optimizer_spec_from_config(cfg, "summary")


def test_apply_summary_checks_dimension_and_handles_vectors():
    fit = SummaryMap(
        kind="linear",
        matrix=np.array([[0.5, 0.5]]),
        intercept=np.array([1.0]),
    )
    single = apply_summary(fit, np.array([2.0, 4.0]))
    assert single.shape == (1,)
    assert np.isclose(single[0], 4.0)
    batch = apply_summary(fit, np.array([[2.0, 4.0], [0.0, 0.0]]))
    assert batch.shape == (2, 1)
    assert np.allclose(batch[:, 0], [4.0, 1.0])
    with pytest.raises(ValueError, match="dimension"):
        apply_summary(fit, np.zeros(3))


def test_summary_map_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        SummaryMap(kind="quadratic")


def test_network_summary_matches_per_block_reference(monkeypatch):
    # 150 rows: a 135-row training split, so the last batch of 32 is ragged.
    gen = RngStream(25).generator
    thetas = gen.normal(size=(150, 2))
    ys = np.hstack([thetas, thetas.sum(axis=1, keepdims=True)]) + 0.3 * gen.normal(size=(150, 3))
    table = _table_from_arrays(thetas, ys)
    opt = OptimizerSpec(epochs=12, batch_size=32, lr=3e-3)
    fit, losses = fit_posterior_mean_net(table, RngStream(26), opt, hidden=(16, 8))
    monkeypatch.setattr(summaries, "train_minibatch", reference_train_minibatch)
    ref, ref_losses = fit_posterior_mean_net(table, RngStream(26), opt, hidden=(16, 8))
    assert losses.tobytes() == ref_losses.tobytes()
    assert holdout_mse(fit, table) == holdout_mse(ref, table)
    net, ref_net = fit.net, ref.net
    for a, b in zip(net.parameters(), ref_net.parameters()):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    buffer = net.parameters()[0].base
    assert buffer.size == sum(p.size for p in net.parameters())
    assert all(np.shares_memory(buffer, p) for p in net.parameters())
