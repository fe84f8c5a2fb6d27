"""Closed forms and checks that only the tests use.

Kept only as test oracles: the normal CDF and the conjugate posterior's
distribution functions and draws, the distortion view of conjugate updating,
the prior-quantile representation of the posterior, the pinball loss,
quantile-based expected utility, and the re-verification of ABC results by
regenerating their proposal blocks.

The distortion view: the posterior survival function equals a probability
distortion g applied to the prior survival function, with
g(p) = Phi(lam1 * Phi^{-1}(p) + lam). Criterion 01 checks it to 1e-10.
"""

import warnings

import numpy as np
from scipy.special import ndtr, ndtri

from gbc.analytic import conjugate_posterior, normal_quantile
from gbc.quantile import posterior_quantile_curve
from gbc.summaries import apply_summary


def normal_cdf(x):
    """Standard normal CDF, vectorized, absolute accuracy ~1e-15."""
    return ndtr(np.asarray(x, dtype=np.float64))


def posterior_cdf(post, x):
    return normal_cdf((np.asarray(x, dtype=np.float64) - post.mean) / post.sd)


def posterior_sample(post, k, rng):
    """``k`` draws from the N(mean, var) posterior on ``rng``'s generator."""
    return rng.generator.normal(post.mean, post.sd, size=int(k))


def distortion_coefficients(model):
    """(lam1, lam) of the distortion mapping the prior survival function of
    ``model`` onto its posterior's. With s = sum(y), t = noise_var +
    n * prior_var and prior sd alpha:

        lam1 = alpha / post_sd          (>= 1, equals 1 iff n = 0)
        lam  = alpha * lam1 * (s - n * prior_mean) / t
    """
    post = conjugate_posterior(model)
    t = model.noise_var + model.n * model.prior_var
    alpha = float(np.sqrt(model.prior_var))
    lam1 = alpha / post.sd
    return lam1, alpha * lam1 * (model.data_sum - model.n * model.prior_mean) / t


def wang_distortion(p, lam1, lam):
    """The distortion g(p) = Phi(lam1 * Phi^{-1}(p) + lam) on (0, 1).

    Endpoints are pinned to g(0) = 0 and g(1) = 1, their limiting values for
    lam1 > 0.
    """
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("distortion argument must lie in [0, 1]")
    if lam1 <= 0:
        raise ValueError("lam1 must be positive")
    out = np.empty_like(p)
    interior = (p > 0.0) & (p < 1.0)
    out[interior] = ndtr(lam1 * ndtri(p[interior]) + lam)
    out[p == 0.0] = 0.0
    out[p == 1.0] = 1.0
    return out if out.ndim else float(out)


def distortion_identity_gap(model, grid=None):
    """Max absolute gap in the survival-distortion identity on a theta grid.

    The identity: posterior survival(theta) = g(prior survival(theta)) with
    g the posterior's own distortion. Zero in exact arithmetic; float64
    keeps it below ~1e-13 for non-degenerate configurations. The default
    grid is 401 points spanning the posterior mean +/- 6 posterior sd.
    """
    post = conjugate_posterior(model)
    if grid is None:
        grid = np.linspace(post.mean - 6.0 * post.sd, post.mean + 6.0 * post.sd, 401)
    grid = np.asarray(grid, dtype=np.float64)
    prior_survival = normal_cdf((model.prior_mean - grid) / np.sqrt(model.prior_var))
    distorted = wang_distortion(prior_survival, *distortion_coefficients(model))
    post_survival = normal_cdf((post.mean - grid) / post.sd)
    return float(np.max(np.abs(post_survival - distorted)))


def conditional_quantile_check(post, prior_mean, prior_var, samples, u_grid=None):
    """Gap in the prior-quantile representation of the posterior.

    The u-quantile of the posterior equals Q_prior(s) where s is the
    u-quantile of F_prior(theta) under the posterior. This estimates s
    empirically from posterior draws and returns the max absolute deviation
    of Q_prior(s) from the exact posterior quantile over ``u_grid``. The gap
    shrinks as the sample grows.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("need at least one posterior draw")
    if u_grid is None:
        u_grid = np.linspace(0.1, 0.9, 9)
    u_grid = np.asarray(u_grid, dtype=np.float64)
    prior_sd = float(np.sqrt(prior_var))
    ranks = normal_cdf((samples - prior_mean) / prior_sd)
    s = np.quantile(ranks, u_grid, method="linear")
    s = np.clip(s, 1e-15, 1.0 - 1e-15)
    via_prior = prior_mean + prior_sd * normal_quantile(s)
    return float(np.max(np.abs(via_prior - post.quantile(u_grid))))


def pinball_loss(tau, u):
    """Check-function loss rho_tau(u) = u * (tau - 1[u < 0]), >= 0: the
    per-row loss ``train_iqn`` sums.

    Slope tau to the right of the origin and tau - 1 to the left, so its
    minimizer over constants is the tau-quantile of the residual law.
    """
    tau = np.asarray(tau, dtype=np.float64)
    if np.any(tau <= 0.0) or np.any(tau >= 1.0):
        raise ValueError("pinball level must lie strictly inside (0, 1)")
    u = np.asarray(u, dtype=np.float64)
    out = u * (tau - (u < 0.0))
    return float(out) if out.ndim == 0 else out


def expected_utility(model, y_obs, utility, quadrature_size=10_000) -> float:
    """E[utility(theta)] by midpoint quadrature over the quantile curve.

    Uses the identity E[g(theta)] = integral_0^1 g(F^{-1}(tau)) d tau on the
    rearranged curve. For monotone non-decreasing g the integrand is itself
    the quantile function of g(theta) (the compositional rule); a
    non-monotone g is flagged with a warning because that reading fails,
    but the expectation itself remains valid.
    """
    if quadrature_size < 2:
        raise ValueError("need at least two quadrature nodes")
    taus = (np.arange(quadrature_size) + 0.5) / quadrature_size
    curve, _ = posterior_quantile_curve(model, y_obs, taus)
    values = np.asarray([utility(v) for v in curve], dtype=np.float64)
    if np.any(np.diff(values) < 0.0):
        warnings.warn(
            "utility is not monotone non-decreasing on the quantile range; "
            "the compositional quantile rule does not apply (the expected "
            "value is still exact)",
            stacklevel=2,
        )
    return float(values.mean())


def reverify_abc(simulator, prior, y_obs, cfg, result, rng, block_size=4096) -> bool:
    """Re-simulate the proposal blocks holding accepted draws and re-check
    epsilon.

    ``rng`` and ``block_size`` must be those of the original
    ``abc_epsilon_sweep`` run; block streams are re-derived from them.
    Returns True when every accepted draw still meets its constraint (with
    the recorded standardization scale) and equals its regenerated draw.
    """
    if result.n_accepted == 0:
        return True

    def summarize(ys):
        ys = np.asarray(ys, dtype=np.float64)
        return ys if cfg.summary is None else apply_summary(cfg.summary, ys)

    s_obs = summarize(y_obs)
    for b in np.unique(result.accepted_index // block_size):
        start = int(b) * block_size
        stop = min(result.n_proposals, start + block_size)
        gen = rng.child(int(b)).generator
        th = prior.sample(gen, stop - start)
        s = summarize(simulator.simulate_batch(th, gen))
        local = result.accepted_index[
            (result.accepted_index >= start) & (result.accepted_index < stop)
        ]
        rows = local - start
        d = np.sqrt(np.sum(((s[rows] - s_obs) / result.summary_scale) ** 2, axis=1))
        if np.any(d > result.epsilon):
            return False
        kept = result.thetas[np.searchsorted(result.accepted_index, local)]
        if not np.array_equal(th[rows], kept):
            return False
    return True
