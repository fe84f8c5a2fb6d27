"""Closed-form conjugate posterior, and the test oracles built on it: the
survival-function distortion and the prior-quantile representation.

Oracles here are independent of the package: mpmath's arbitrary-precision
erf for the normal CDF, and direct trapezoid integration of
prior x likelihood for the posterior moments.
"""

import mpmath
import numpy as np
import pytest

from gbc.analytic import NormalNormalModel, conjugate_posterior, normal_quantile
from gbc.rng import RngStream
from oracles import (
    conditional_quantile_check,
    distortion_identity_gap,
    normal_cdf,
    posterior_cdf,
    posterior_sample,
    wang_distortion,
)


def _mpmath_cdf(x):
    return float(0.5 * (1 + mpmath.erf(x / mpmath.sqrt(2))))


def test_normal_cdf_at_zero():
    assert normal_cdf(0.0) == 0.5


def test_normal_cdf_against_mpmath():
    for x in (-6.0, -1.959964, -0.5, 0.3, 1.959964, 4.2):
        assert abs(normal_cdf(x) - _mpmath_cdf(x)) < 1e-14


def test_normal_quantile_roundtrip():
    # Tail points near +/-6 lose ~1e-9 through the CDF representation
    # (cdf(6) is within 1e-9 of 1), so the tolerance is 1e-7, not 1e-12.
    xs = np.linspace(-6.0, 6.0, 41)
    back = normal_quantile(normal_cdf(xs))
    assert np.max(np.abs(back - xs)) < 1e-7


def test_normal_quantile_rejects_endpoints():
    with pytest.raises(ValueError):
        normal_quantile(0.0)
    with pytest.raises(ValueError):
        normal_quantile(1.0)


def test_conjugate_matches_hand_worked_case():
    # mu=0, prior var 1, noise var 1, single y=2:
    # t = 1 + 1 = 2, mu* = 2/2 = 1, sd*^2 = 1/2.
    model = NormalNormalModel(prior_mean=0.0, prior_var=1.0, noise_var=1.0, y=(2.0,))
    post = conjugate_posterior(model)
    assert abs(post.mean - 1.0) < 1e-15
    assert abs(post.var - 0.5) < 1e-15


def test_conjugate_no_data_returns_prior():
    model = NormalNormalModel(prior_mean=1.5, prior_var=4.0, noise_var=10.0, y=())
    post = conjugate_posterior(model)
    assert post.mean == 1.5
    assert post.var == 4.0


def _trapezoid_posterior_moments(model, n_grid=200_001, span=10.0):
    """Numeric Bayes: integrate prior x likelihood on a dense grid."""
    post = conjugate_posterior(model)  # only for grid placement
    grid = np.linspace(post.mean - span * post.sd, post.mean + span * post.sd, n_grid)
    log_prior = -0.5 * (grid - model.prior_mean) ** 2 / model.prior_var
    y = np.asarray(model.y)
    log_like = np.zeros_like(grid)
    for yi in y:
        log_like += -0.5 * (yi - grid) ** 2 / model.noise_var
    log_post = log_prior + log_like
    log_post -= log_post.max()
    w = np.exp(log_post)
    z = np.trapezoid(w, grid)
    mean = np.trapezoid(w * grid, grid) / z
    var = np.trapezoid(w * (grid - mean) ** 2, grid) / z
    return mean, np.sqrt(var)


def test_conjugate_matches_trapezoid_integration():
    model = NormalNormalModel(prior_mean=0.0, prior_var=1.0, noise_var=1.0, y=(2.0,))
    post = conjugate_posterior(model)
    mean, sd = _trapezoid_posterior_moments(model)
    assert abs(post.mean - mean) < 1e-8
    assert abs(post.sd - sd) < 1e-8


def test_conjugate_with_variance_five_prior():
    # Prior variance 5, noise variance 10, n = 100 draws at theta = 3:
    # posterior sd is sqrt(5*10 / (10 + 100*5)) ~= 0.31311, data-free.
    gen = RngStream(8).generator
    y = tuple(gen.normal(3.0, np.sqrt(10.0), size=100))
    model = NormalNormalModel(prior_mean=0.0, prior_var=5.0, noise_var=10.0, y=y)
    post = conjugate_posterior(model)
    assert abs(post.sd - np.sqrt(50.0 / 510.0)) < 1e-14
    shrink = 100 * 5.0 / (10.0 + 100 * 5.0)
    assert abs(post.mean - shrink * np.mean(y)) < 1e-12


def test_posterior_quantile_cdf_are_inverse():
    model = NormalNormalModel(prior_mean=1.0, prior_var=2.0, noise_var=3.0, y=(0.5, 1.5))
    post = conjugate_posterior(model)
    u = np.linspace(0.01, 0.99, 25)
    assert np.max(np.abs(posterior_cdf(post, post.quantile(u)) - u)) < 1e-12


def test_posterior_sampling_moments():
    model = NormalNormalModel(prior_mean=0.0, prior_var=5.0, noise_var=10.0, y=(3.0,) * 10)
    post = conjugate_posterior(model)
    draws = posterior_sample(post, 200_000, RngStream(17))
    assert abs(np.mean(draws) - post.mean) < 5 * post.sd / np.sqrt(200_000)
    assert abs(np.std(draws) / post.sd - 1.0) < 0.01


def test_wang_distortion_endpoints_pinned():
    assert wang_distortion(0.0, lam1=0.7, lam=0.3) == 0.0
    assert wang_distortion(1.0, lam1=0.7, lam=0.3) == 1.0


def test_wang_distortion_monotone():
    p = np.linspace(0.0, 1.0, 101)
    g = wang_distortion(p, lam1=1.3, lam=-0.4)
    assert np.all(np.diff(g) >= 0.0)


def test_distortion_identity_small_gap():
    # posterior survival(theta) = g(prior survival(theta)) for the
    # conjugate pair; float64 should agree to ~1e-14.
    gen = RngStream(23).generator
    for _ in range(20):
        model = NormalNormalModel(
            prior_mean=float(gen.normal()),
            prior_var=float(gen.uniform(0.5, 5.0)),
            noise_var=float(gen.uniform(0.5, 5.0)),
            y=tuple(gen.normal(size=int(gen.integers(1, 30)))),
        )
        assert distortion_identity_gap(model) < 1e-10


def test_distortion_identity_no_data_case():
    # n = 0: posterior equals prior and the distortion is the identity map.
    model = NormalNormalModel(prior_mean=0.3, prior_var=2.0, noise_var=1.0, y=())
    assert distortion_identity_gap(model) < 1e-12


def test_conditional_quantile_check_recovers_posterior():
    # Draw posterior samples, rank them through the prior CDF, and verify
    # the prior-quantile of the rank distribution reproduces the posterior
    # quantile function (the distortion read in sampling form).
    model = NormalNormalModel(prior_mean=0.0, prior_var=4.0, noise_var=2.0, y=(1.0, 2.0, 0.5))
    post = conjugate_posterior(model)
    samples = posterior_sample(post, 100_000, RngStream(31))
    gaps = conditional_quantile_check(post, model.prior_mean, model.prior_var, samples)
    assert np.max(np.abs(gaps)) < 0.05 * post.sd


def test_conditional_quantile_check_consistency_in_n():
    # The gap shrinks as the sample grows (Monte Carlo consistency).
    model = NormalNormalModel(prior_mean=0.0, prior_var=4.0, noise_var=2.0, y=(1.0,))
    post = conjugate_posterior(model)
    small = posterior_sample(post, 1_000, RngStream(41))
    large = posterior_sample(post, 100_000, RngStream(42))
    g_small = np.max(np.abs(conditional_quantile_check(post, 0.0, 4.0, small)))
    g_large = np.max(np.abs(conditional_quantile_check(post, 0.0, 4.0, large)))
    assert g_large < g_small


def test_invalid_model_parameters_rejected():
    with pytest.raises(ValueError):
        NormalNormalModel(prior_mean=0.0, prior_var=-1.0, noise_var=1.0, y=(1.0,))
    with pytest.raises(ValueError):
        NormalNormalModel(prior_mean=0.0, prior_var=1.0, noise_var=0.0, y=(1.0,))
    with pytest.raises(ValueError):
        wang_distortion(1.2, lam1=1.0, lam=0.0)
    with pytest.raises(ValueError):
        wang_distortion(0.5, lam1=0.0, lam=0.0)
