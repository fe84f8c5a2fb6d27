"""ABC rejection, fiducial rejection, Wasserstein helpers, line search."""

import dataclasses
import math
import os

import numpy as np
import pytest
from scipy import stats

from gbc import baselines, models
from gbc.analytic import NormalNormalModel, conjugate_posterior
from gbc.baselines import (
    AbcConfig,
    AbcResult,
    abc_epsilon_sweep,
    fiducial_normal_meanvar,
    fiducial_rejection,
    golden_section,
    w1_distance,
    w1_bootstrap_se,
)
from gbc.models import NormalCoord, NormalLocationSimulator, PriorSpec
from gbc.errors import DataError
from gbc.rng import RngStream
from gbc.summaries import SummaryMap

from fiducial_reference import per_draw_fiducial, scalar_golden_section
from oracles import posterior_sample, reverify_abc


def _mean_summary(n):
    return SummaryMap(
        kind="linear", matrix=np.full((1, n), 1.0 / n), intercept=np.zeros(1)
    )


def _abc(simulator, prior, y_obs, cfg, budget, rng):
    """The sweep's result at the one tolerance ``cfg.epsilon``."""
    return abc_epsilon_sweep(
        simulator, prior, y_obs, cfg, [cfg.epsilon], budget, rng
    )[0]


def _location_problem():
    prior = PriorSpec((NormalCoord(0.0, 1.0),))
    sim = NormalLocationSimulator(noise_var=1.0, n_obs=10)
    y_obs = sim.simulate(np.array([1.0]), RngStream(50).generator)
    post = conjugate_posterior(NormalNormalModel(0.0, 1.0, 1.0, tuple(y_obs)))
    return prior, sim, y_obs, post


def test_abc_infinite_epsilon_accepts_all_and_reproduces_prior_blocks():
    prior, sim, y_obs, _ = _location_problem()
    cfg = AbcConfig(epsilon=np.inf, summary=_mean_summary(10))
    res = _abc(sim, prior, y_obs, cfg, budget=5000, rng=RngStream(51))
    assert res.n_accepted == 5000
    assert res.acceptance_rate == 1.0
    assert np.array_equal(res.accepted_index, np.arange(5000))
    # Accepted draws in proposal order equal the prior draws of block 0,
    # regenerated from the same child stream.
    gen = RngStream(51).child(0).generator
    expected = prior.sample(gen, 4096)
    assert np.array_equal(res.thetas[:4096], expected)
    # And the accepted set is distributed like the prior.
    assert abs(res.thetas.mean()) < 4.0 / np.sqrt(5000)
    assert abs(res.thetas.var() - 1.0) < 0.1


def test_abc_sweep_is_nested_and_tightens_toward_posterior():
    prior, sim, y_obs, post = _location_problem()
    cfg = AbcConfig(epsilon=1.0, summary=_mean_summary(10))
    sweep = abc_epsilon_sweep(
        sim, prior, y_obs, cfg, epsilons=[4.0, 1.0, 0.25],
        budget=40_000, rng=RngStream(52),
    )
    # acceptance counts are monotone and the accepted sets are nested
    assert sweep[0].n_accepted >= sweep[1].n_accepted >= sweep[2].n_accepted
    assert sweep[2].n_accepted > 100
    assert set(sweep[2].accepted_index) <= set(sweep[1].accepted_index)
    assert set(sweep[1].accepted_index) <= set(sweep[0].accepted_index)
    # W1 against the exact posterior shrinks as epsilon shrinks
    w = [w1_distance(r.thetas[:, 0], post.quantile) for r in sweep]
    assert w[0] > w[1] > w[2]
    assert w[2] < 0.2 * post.sd


class _ThreadPoolSpy:
    """Records the worker counts of the thread pools ``map_blocks`` opens."""

    def __init__(self, monkeypatch):
        self.workers = []
        pool = models.ThreadPoolExecutor

        def start(max_workers):
            self.workers.append(max_workers)
            return pool(max_workers)

        monkeypatch.setattr(models, "ThreadPoolExecutor", start)


@pytest.mark.parametrize("cpus, pools", [(1, []), (4, [4])])
def test_abc_pool_is_the_same_at_any_thread_count(monkeypatch, cpus, pools):
    prior, sim, y_obs, _ = _location_problem()
    cfg = AbcConfig(epsilon=0.0, summary=_mean_summary(10))

    def sweep():
        return abc_epsilon_sweep(
            sim, prior, y_obs, cfg, [2.0, 0.5, 0.0], 5000, RngStream(57),
            block_size=512,
        )

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    serial = sweep()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    spy = _ThreadPoolSpy(monkeypatch)
    pooled = sweep()
    assert spy.workers == pools
    assert serial[0].n_accepted > 0
    for want, got in zip(serial, pooled, strict=True):
        for field in dataclasses.fields(AbcResult):
            a, b = getattr(want, field.name), getattr(got, field.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and a.shape == b.shape, field.name
                assert a.tobytes() == b.tobytes(), field.name
            else:
                assert a == b, field.name


def test_abc_simulator_failure_in_a_later_block_raises_as_the_serial_loop(
    monkeypatch,
):
    prior, sim, y_obs, _ = _location_problem()

    class FailingSim(NormalLocationSimulator):
        """Fails on every block whose first draw is positive."""

        def simulate_batch(self, thetas, gen):
            if thetas[0, 0] > 0.0:
                raise ValueError(f"first draw {thetas[0, 0]!r}")
            return super().simulate_batch(thetas, gen)

    failing = FailingSim(noise_var=1.0, n_obs=10)
    cfg = AbcConfig(epsilon=0.0, summary=_mean_summary(10))
    errors = {}
    for cpus in (1, 4):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        with pytest.raises(DataError) as err:
            abc_epsilon_sweep(
                failing, prior, y_obs, cfg, [1.0], 5000, RngStream(63),
                block_size=256,
            )
        assert isinstance(err.value.__cause__, ValueError)
        errors[cpus] = str(err.value)
    assert errors[1] == errors[4]
    # The first failing block is a later one, and not the only one.
    first = [
        prior.sample(RngStream(63).child(b).generator, 1)[0, 0] > 0.0
        for b in range(20)
    ]
    assert not first[0] and sum(first) > 1
    b = first.index(True)
    assert f"rows [{256 * b}, {256 * (b + 1)})" in errors[1]


def test_abc_zero_acceptance_is_diagnosed_not_raised():
    prior, sim, _, _ = _location_problem()
    y_far = np.full(10, 80.0)  # unreachable under the prior
    cfg = AbcConfig(epsilon=0.01, summary=_mean_summary(10))
    res = _abc(sim, prior, y_far, cfg, budget=2000, rng=RngStream(53))
    assert res.n_accepted == 0
    assert res.thetas.shape == (0, 1)
    assert "0 of 2000" in res.diagnostic
    assert "smallest observed distance" in res.diagnostic


def test_abc_without_standardization_uses_unit_scale():
    prior, sim, y_obs, _ = _location_problem()
    cfg = AbcConfig(epsilon=0.5, summary=_mean_summary(10), standardize=False)
    res = _abc(sim, prior, y_obs, cfg, budget=3000, rng=RngStream(54))
    assert np.array_equal(res.summary_scale, np.ones(1))
    assert res.n_accepted > 0


def test_abc_config_validation():
    with pytest.raises(ValueError):
        AbcConfig(epsilon=-0.1)
    prior, sim, y_obs, _ = _location_problem()
    with pytest.raises(ValueError):
        _abc(sim, prior, y_obs, AbcConfig(epsilon=1.0), 0, RngStream(0))


def test_reverify_confirms_honest_results_and_catches_tampering():
    prior, sim, y_obs, _ = _location_problem()
    cfg = AbcConfig(epsilon=1.0, summary=_mean_summary(10))
    res = _abc(sim, prior, y_obs, cfg, budget=8000, rng=RngStream(55))
    assert res.n_accepted > 10
    assert reverify_abc(sim, prior, y_obs, cfg, res, RngStream(55))
    # tampered parameter values no longer match the regenerated blocks
    res.thetas[0, 0] += 0.5
    assert not reverify_abc(sim, prior, y_obs, cfg, res, RngStream(55))
    res.thetas[0, 0] -= 0.5
    # claiming a tighter epsilon than the run used also fails
    res.epsilon = 1e-6
    assert not reverify_abc(sim, prior, y_obs, cfg, res, RngStream(55))


def test_reverify_empty_result_is_trivially_true():
    prior, sim, _, _ = _location_problem()
    cfg = AbcConfig(epsilon=0.001, summary=_mean_summary(10))
    res = _abc(sim, prior, np.full(10, 80.0), cfg, budget=500, rng=RngStream(56))
    assert res.n_accepted == 0
    assert reverify_abc(sim, prior, np.full(10, 80.0), cfg, res, RngStream(56))


def test_golden_section_minimizes_quadratic():
    x, converged = golden_section(lambda v: (v - 2.0) ** 2, 0.0, 5.0)
    assert converged
    assert abs(x - 2.0) < 1e-7


def test_golden_section_asymmetric_and_edge_minimum():
    x, converged = golden_section(lambda v: abs(v - 0.1), 0.0, 100.0)
    assert converged
    assert abs(x - 0.1) < 1e-6
    x, converged = golden_section(lambda v: v, 3.0, 7.0)  # minimum at the edge
    assert converged
    assert abs(x - 3.0) < 1e-6


def test_golden_section_reports_iteration_cap():
    x, converged = golden_section(lambda v: (v - 2.0) ** 2, 0.0, 5.0, max_iter=3)
    assert not converged
    with pytest.raises(ValueError):
        golden_section(lambda v: v, 1.0, 1.0)


def test_golden_section_array_matches_scalar_loop():
    # Brackets from 1e-9 wide (already converged) to 1e3 wide (capped at
    # max_iter = 30 before reaching tol), minima inside, outside and on a
    # plateau where f1 == f2 ties.
    gen = RngStream(68).generator
    lo = gen.uniform(-50.0, 50.0, size=64)
    hi = lo + 10.0 ** gen.uniform(-9.0, 3.0, size=64)
    centre = gen.uniform(-60.0, 60.0, size=64)

    def fn(v, c=centre):
        return np.maximum(np.abs(v - c), 0.25)

    for max_iter in (200, 30):
        x, converged = golden_section(fn, lo, hi, tol=1e-8, max_iter=max_iter)
        for i in range(lo.size):
            xr, okr = scalar_golden_section(
                lambda v, c=centre[i]: max(abs(v - c), 0.25),
                lo[i], hi[i], tol=1e-8, max_iter=max_iter,
            )
            assert x[i] == xr and bool(converged[i]) == okr
        assert converged.any() and (max_iter == 200 or not converged.all())
    x, converged = golden_section(lambda v: (v - 2.0) ** 2, 0.0, 5.0)
    assert x.shape == converged.shape == ()  # scalar bounds give 0-d arrays
    assert x == scalar_golden_section(lambda v: (v - 2.0) ** 2, 0.0, 5.0)[0]


def _meanvar_problem(n=12):
    y = RngStream(69).generator.normal(1.0, 2.0, size=n)
    y_bar, s2 = float(np.mean(y)), float(np.var(y, ddof=1))

    def G(u, th):
        return np.array([th[0] + np.sqrt(th[1]) * u[0], th[1] * u[1]])

    def sample_u(gen):
        return np.array(
            [gen.normal(0.0, math.sqrt(1.0 / n)), gen.gamma(n / 2.0, 2.0 / n)]
        )

    sd = math.sqrt(s2)
    return dict(
        G=G, sample_u=sample_u, y_obs=np.array([y_bar, s2]),
        theta_bounds=[(y_bar - 12.0 * sd, y_bar + 12.0 * sd), (s2 / 50, s2 * 50)],
    )


def _scale_location_problem():
    # 25 outputs, a fresh u vector per draw: sums of more than 8 squares.
    y = 3.0 + 1.5 * RngStream(70).generator.normal(size=25)
    return dict(
        G=lambda u, theta: theta[0] + theta[1] * u,
        sample_u=lambda gen: gen.normal(size=25),
        y_obs=y,
        theta_bounds=[(-10.0, 10.0), (0.1, 5.0)],
    )


@pytest.mark.parametrize(
    "problem, options",
    [
        (dict(G=lambda u, th: np.array([th[0] + u]),
              sample_u=lambda gen: float(gen.normal()),
              y_obs=np.array([4.2]), theta_bounds=[(-7.8, 16.2)]),
         dict(epsilon=np.inf, budget=300)),
        (_meanvar_problem(), dict(epsilon=np.inf, budget=60)),
        # Few sweeps and a tight epsilon: some draws are skipped, some
        # rejected, the rest accepted.
        (_meanvar_problem(), dict(epsilon=2e-9, budget=60, max_sweeps=5)),
        (_scale_location_problem(),
         dict(epsilon=7.0, budget=20, max_sweeps=6)),
    ],
    ids=["location", "meanvar", "meanvar-skips", "scale-location"],
)
def test_fiducial_matches_per_draw_reference(problem, options):
    batched = fiducial_rejection(rng=RngStream(71), **problem, **options)
    reference = per_draw_fiducial(rng=RngStream(71), **problem, **options)
    assert batched.thetas.shape == reference.thetas.shape
    assert batched.thetas.tobytes() == reference.thetas.tobytes()
    assert batched.n_draws == reference.n_draws
    assert batched.n_accepted == reference.n_accepted
    assert batched.n_skipped == reference.n_skipped
    assert batched.acceptance_rate == reference.acceptance_rate
    if "max_sweeps" in options:
        assert 0 < batched.n_skipped
        assert 0 < batched.n_accepted < batched.n_draws - batched.n_skipped


def test_fiducial_solve_makes_one_line_search_per_coordinate_and_sweep(monkeypatch):
    # Scalar theta: one sweep of one line search is the whole solve, so
    # every draw converges in it. A 2-vector: one line search per coordinate
    # each sweep, and the first sweep, which leaves the midpoint, converges
    # no draw.
    sizes = []
    line_search = baselines.golden_section

    def counted(fn, lo, hi, **kwargs):
        sizes.append(np.size(lo))
        return line_search(fn, lo, hi, **kwargs)

    monkeypatch.setattr(baselines, "golden_section", counted)
    res = baselines.fiducial_location(4.2, np.inf, 300, RngStream(71))
    assert sizes == [300] and res.n_skipped == 0
    for max_sweeps in (1, 2):
        sizes.clear()
        res = fiducial_rejection(
            rng=RngStream(71), epsilon=np.inf, budget=60, max_sweeps=max_sweeps,
            **_meanvar_problem(),
        )
        assert len(sizes) == 2 * max_sweeps and sizes[0] == 60
        if max_sweeps == 1:
            assert res.n_skipped == 60


def test_fiducial_rejects_fewer_than_one_sweep():
    for max_sweeps in (0, -1):
        with pytest.raises(ValueError, match="max_sweeps"):
            fiducial_rejection(
                rng=RngStream(71), epsilon=np.inf, budget=60,
                max_sweeps=max_sweeps, **_meanvar_problem(),
            )


def test_fiducial_location_model_matches_normal_law():
    # G(u, theta) = theta + u with one observation: the solve is exact
    # (theta* = y - u), every draw is accepted at epsilon = inf, and the
    # fiducial law is N(y, 1).
    y = 4.2
    res = fiducial_rejection(
        G=lambda u, theta: theta[0] + u,
        sample_u=lambda gen: gen.normal(),
        y_obs=y,
        epsilon=np.inf,
        budget=2000,
        rng=RngStream(57),
        theta_bounds=[(y - 12.0, y + 12.0)],
    )
    assert res.n_accepted == 2000
    assert res.n_skipped == 0
    assert res.acceptance_rate == 1.0
    ks = stats.kstest(res.thetas[:, 0], "norm", args=(y, 1.0))
    assert ks.pvalue > 0.01


def test_fiducial_meanvar_variance_follows_the_sample_variance_law():
    # With s2 the ddof=1 sample variance, (n-1) s2 / sigma^2 ~ chi^2_{n-1},
    # so epsilon = inf gives sigma^2 ~ InvGamma((n-1)/2, scale (n-1) s2 / 2).
    # The old Gamma(n/2, 2/n) pivot failed this at p = 7.7e-10.
    n, s2 = 10, 4.0
    res = fiducial_normal_meanvar(1.0, s2, n, np.inf, 20_000,
                                  RngStream(0).child("fiducial"))
    assert res.n_accepted == 20_000
    law = stats.invgamma((n - 1) / 2, scale=(n - 1) * s2 / 2)
    assert stats.kstest(res.thetas[:, 1], law.cdf).pvalue > 0.01


def test_fiducial_skips_unconverged_solves():
    res = fiducial_rejection(
        G=lambda u, theta: theta[0] + u,
        sample_u=lambda gen: gen.normal(),
        y_obs=0.0,
        epsilon=np.inf,
        budget=5,
        rng=RngStream(63),
        theta_bounds=[(-12.0, 12.0)],
        max_iter=1,  # bracket cannot shrink to tol in one step
    )
    assert res.n_accepted == 0
    assert res.n_skipped == 5
    assert res.acceptance_rate == 0.0
    assert res.thetas.shape == (0, 1)


def test_fiducial_distance_is_the_euclidean_norm():
    # G pins both outputs to theta; y = (0, 2) leaves a residual of
    # sqrt(2) at the optimum theta = 1, not divided by the output count.
    common = dict(
        G=lambda u, theta: np.array([theta[0], theta[0]]),
        sample_u=lambda gen: 0.0,
        y_obs=np.array([0.0, 2.0]),
        budget=3,
        theta_bounds=[(-5.0, 5.0)],
    )
    strict = fiducial_rejection(epsilon=1.2, rng=RngStream(59), **common)
    assert strict.n_accepted == 0  # sqrt(2) > 1.2
    relaxed = fiducial_rejection(epsilon=1.5, rng=RngStream(59), **common)
    assert relaxed.n_accepted == 3  # sqrt(2) <= 1.5
    assert np.allclose(relaxed.thetas, 1.0, atol=1e-6)


def test_fiducial_two_parameter_scale_location():
    # y = theta1 + theta2 * u with known u vector: coordinate descent must
    # recover the exact (intercept, scale) pair that generated y.
    u_star = RngStream(60).generator.normal(size=25)
    y = 3.0 + 1.5 * u_star

    def sample_u(gen):
        return u_star  # every draw sees the same u: solution is exact

    res = fiducial_rejection(
        G=lambda u, theta: theta[0] + theta[1] * u,
        sample_u=sample_u,
        y_obs=y,
        epsilon=0.01,
        budget=2,
        rng=RngStream(61),
        theta_bounds=[(-10.0, 10.0), (0.1, 5.0)],
        tol=1e-10,
    )
    assert res.n_accepted == 2
    assert np.allclose(res.thetas, [3.0, 1.5], atol=1e-4)


def test_fiducial_validates_bounds():
    with pytest.raises(ValueError):
        fiducial_rejection(
            G=lambda u, theta: theta[0],
            sample_u=lambda gen: 0.0,
            y_obs=0.0,
            epsilon=1.0,
            budget=1,
            rng=RngStream(0),
            theta_bounds=[(2.0, 2.0)],
        )


def test_w1_zero_for_matching_constant_laws():
    assert w1_distance(np.full(100, 3.7), lambda t: np.full_like(t, 3.7)) == 0.0


def test_w1_equals_shift_for_translated_laws():
    gen = RngStream(62).generator
    x = gen.normal(size=20_000)
    # same empirical law shifted by 0.3: every quantile gap is exactly 0.3
    d = w1_distance(
        x + 0.3, lambda t: np.quantile(x, t, method="linear")
    )
    assert abs(d - 0.3) < 1e-12


def test_w1_self_distance_is_small():
    post = conjugate_posterior(NormalNormalModel(0.0, 1.0, 1.0, (1.0,)))
    draws = posterior_sample(post, 100_000, RngStream(63))
    assert w1_distance(draws, post.quantile) < 0.02 * post.sd


def test_w1_validation():
    with pytest.raises(ValueError):
        w1_distance(np.array([]), lambda t: t)
    with pytest.raises(ValueError):
        w1_distance(np.array([1.0]), lambda t: t, grid_size=0)


def test_w1_bootstrap_se_scales_like_sampling_error():
    post = conjugate_posterior(NormalNormalModel(0.0, 1.0, 1.0, (1.0,)))
    small = posterior_sample(post, 500, RngStream(64))
    big = posterior_sample(post, 8000, RngStream(65))
    se_small = w1_bootstrap_se(small, post.quantile, RngStream(66))
    se_big = w1_bootstrap_se(big, post.quantile, RngStream(67))
    assert 0.0 < se_big < se_small
    # same inputs, same stream: deterministic
    again = w1_bootstrap_se(small, post.quantile, RngStream(66))
    assert again == se_small
