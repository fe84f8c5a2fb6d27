"""Rejection-sampling baselines: ABC and fiducial inference.

Both serve as convergence cross-checks for the quantile engine: ABC
rejection approaches the exact posterior as its tolerance shrinks, and the
fiducial sampler has known closed-form output on the location model. The
Wasserstein-1 helper quantifies distance to an analytic law via quantile
gaps.

ABC proposals are generated in blocks, one child stream per block, so any
accepted draw can be regenerated from its block's stream alone. The blocks
run on ``min(blocks, CPUs)`` threads through ``models.map_blocks``; each
writes only its own rows, so the pool does not depend on the thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import cpu_count, map_blocks, simulate_block
from .summaries import _safe_sd, apply_summary

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # 0.618...


@dataclass
class AbcConfig:
    """Uniform-kernel ABC settings.

    Tolerances bound the Euclidean distance between standardized summaries
    (epsilon = 0 accepts exact summary matches only, which is meaningful for
    discrete simulators). :func:`abc_epsilon_sweep` takes its tolerances as
    an argument; ``epsilon`` is only checked to be >= 0. summary = None
    means the identity summary (compare raw data vectors). When standardize
    is true,
    summary coordinates are divided by their prior-predictive standard
    deviation estimated from the first proposal block, so epsilon is in
    "prior-predictive sd" units.
    """

    epsilon: float
    summary: object = None  # SummaryMap or None for identity
    standardize: bool = True

    def __post_init__(self):
        if not self.epsilon >= 0:
            raise ValueError("epsilon must be a number >= 0")


@dataclass
class AbcResult:
    thetas: np.ndarray  # (n_accepted, d)
    n_proposals: int
    n_accepted: int
    acceptance_rate: float
    epsilon: float
    summary_scale: np.ndarray  # (k,) standardization divisors
    accepted_index: np.ndarray  # global proposal index of each accepted draw
    diagnostic: str = ""


def _summarize(cfg: AbcConfig, ys):
    ys = np.asarray(ys, dtype=np.float64)
    return ys if cfg.summary is None else apply_summary(cfg.summary, ys)


def _abc_pool(simulator, prior, y_obs, cfg, budget, rng, block_size):
    """Propose from the prior and return (thetas, distances, scale).

    Distances are to the observed summary, after dividing every summary
    coordinate by `scale` (prior-predictive sds from the first block when
    cfg.standardize, ones otherwise).
    """
    if budget < 1:
        raise ValueError("need a positive proposal budget")
    s_obs = _summarize(cfg, np.asarray(y_obs, dtype=np.float64))
    thetas = np.empty((budget, prior.dim))
    summaries = np.empty((budget, s_obs.shape[0]))

    def run_block(b):
        start = b * block_size
        stop = min(budget, start + block_size)
        thetas[start:stop], ys = simulate_block(prior, simulator, rng, b, start, stop)
        summaries[start:stop] = _summarize(cfg, ys)

    n_blocks = (budget + block_size - 1) // block_size
    map_blocks(run_block, n_blocks, cpu_count())
    if cfg.standardize:
        scale = _safe_sd(summaries[: min(budget, block_size)])
    else:
        scale = np.ones(summaries.shape[1])
    dists = np.sqrt(np.sum(((summaries - s_obs) / scale) ** 2, axis=1))
    return thetas, dists, scale


def abc_epsilon_sweep(
    simulator, prior, y_obs, cfg: AbcConfig, epsilons, budget, rng, block_size=4096
) -> list[AbcResult]:
    """Uniform-kernel ABC: keep the prior draws of one shared proposal pool
    whose summaries land within each epsilon of the observed summary.

    Using a single pool makes the accepted sets nested, so acceptance counts
    are monotone in epsilon by construction and sweep rows are directly
    comparable. Zero acceptances is a valid outcome: that result is empty
    and carries a diagnostic string instead of raising.
    """
    epsilons = [float(e) for e in epsilons]
    if not all(e >= 0 for e in epsilons):
        raise ValueError("every epsilon must be a number >= 0")
    thetas, dists, scale = _abc_pool(
        simulator, prior, y_obs, cfg, budget, rng, block_size
    )
    out = []
    for eps in epsilons:
        keep = np.flatnonzero(dists <= eps)
        diagnostic = ""
        if keep.size == 0:
            diagnostic = (
                f"0 of {budget} proposals accepted at epsilon={eps}; "
                f"smallest observed distance was {float(dists.min()):.6g}"
            )
        out.append(
            AbcResult(
                thetas=thetas[keep],
                n_proposals=budget,
                n_accepted=int(keep.size),
                acceptance_rate=keep.size / budget,
                epsilon=eps,
                summary_scale=scale,
                accepted_index=keep,
                diagnostic=diagnostic,
            )
        )
    return out


def golden_section(fn, lo, hi, tol=1e-8, max_iter=200):
    """Minimize a unimodal function on [lo, hi], elementwise over arrays.

    ``fn`` maps an array of points shaped like the broadcast of ``lo`` and
    ``hi`` to their values. Each element keeps its own bracket and stops on
    its own once the bracket is no wider than tol, or at the iteration cap;
    its arithmetic is that of a scalar golden-section search. Returns the
    arrays ``(x, converged)``, shaped like the broadcast bounds (0-d for
    scalar bounds).
    """
    a, b = np.broadcast_arrays(
        np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
    )
    if not np.all(a < b):
        raise ValueError("need lo < hi")
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    active = b - a > tol
    it = 0
    while it < max_iter and np.any(active):
        # left: the minimum lies in [a, x2], so x2 becomes b and x1 becomes
        # x2; right: it lies in [x1, b]. Either way one new point is probed.
        le = f1 <= f2
        left, right = active & le, active & ~le
        b = np.where(left, x2, b)
        a = np.where(right, x1, a)
        probe = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        f_probe = fn(probe)
        x1, x2 = (
            np.where(left, probe, np.where(right, x2, x1)),
            np.where(right, probe, np.where(left, x1, x2)),
        )
        f1, f2 = (
            np.where(left, f_probe, np.where(right, f2, f1)),
            np.where(right, f_probe, np.where(left, f1, f2)),
        )
        active &= b - a > tol
        it += 1
    return 0.5 * (a + b), (b - a) <= tol


@dataclass
class FiducialResult:
    thetas: np.ndarray  # (n_accepted, d)
    n_draws: int
    n_accepted: int
    n_skipped: int  # inner optimizer failed to converge
    acceptance_rate: float


def fiducial_rejection(
    G,
    sample_u,
    y_obs,
    epsilon,
    budget,
    rng,
    theta_bounds,
    tol=1e-8,
    max_iter=200,
    max_sweeps=50,
) -> FiducialResult:
    """Fiducial rejection sampling.

    Per draw: simulate u* from its known law via ``sample_u(gen)``, solve
    theta* = argmin_theta ||y_obs - G(u*, theta)|| inside ``theta_bounds``
    by cyclic coordinate descent of golden-section line searches (one
    sweep, a single line search, for scalar theta), then accept theta* when
    the attained distance is <= epsilon (epsilon = inf accepts every
    converged draw). Draws whose line search fails, or that move a
    coordinate by 10 tol or more in each of ``max_sweeps`` (at least 1)
    sweeps, are skipped and counted, not raised.

    All draws are solved at once. ``sample_u`` returns one draw (a scalar
    or a k-vector) and is called ``budget`` times; the draws are stacked on
    a trailing axis, so ``G(u, theta)`` receives u of shape (n,) or (k, n)
    and theta of shape (d, n), and returns the m model outputs of all n
    draws, shape (m, n) (or (n,) when m = 1). A G written with elementwise
    NumPy operations on ``u[i]`` and ``theta[j]`` does this. Each draw's
    bracket updates, sweeps and result are those of a per-draw solve.
    """
    y_obs = np.atleast_1d(np.asarray(y_obs, dtype=np.float64))
    bounds = [(float(lo), float(hi)) for lo, hi in theta_bounds]
    for lo, hi in bounds:
        if not lo < hi:
            raise ValueError(f"empty theta bound [{lo}, {hi}]")
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be at least 1, got {max_sweeps}")
    d = len(bounds)
    budget = int(budget)
    if budget < 1:
        return FiducialResult(np.empty((0, d)), budget, 0, 0, 0.0)
    gen = rng.generator
    u = np.stack([np.asarray(sample_u(gen)) for _ in range(budget)], axis=-1)

    def distance(idx, theta):
        """||y_obs - G(u, theta)|| for the draws ``idx``."""
        g = np.asarray(G(u[..., idx], theta), dtype=np.float64)
        if g.ndim < 2:
            g = g.reshape(1, -1)
        resid = np.broadcast_to(y_obs[:, None] - g, (y_obs.size, idx.size))
        # One contiguous row per draw, so each sum adds in the per-draw order.
        resid = np.ascontiguousarray(resid.T)
        return np.sqrt(np.sum(resid**2, axis=1))

    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    # Cyclic coordinate descent over the draws still in the batch. A draw
    # leaves it ok when a sweep moves no coordinate by 10 tol, or after one
    # sweep when d = 1 (a second line search would repeat the first), and
    # skipped when one of its line searches fails.
    theta = np.repeat((0.5 * (lo + hi))[:, None], budget, axis=1)
    ok = np.zeros(budget, dtype=bool)
    live = np.arange(budget)
    for _sweep in range(max_sweeps):
        shift = np.zeros(live.size)
        for k in range(d):
            def along(v, _k=k, _live=live):
                t = theta[:, _live]
                t[_k] = v
                return distance(_live, t)

            x, conv = golden_section(
                along, np.full(live.size, lo[k]), np.full(live.size, hi[k]),
                tol=tol, max_iter=max_iter,
            )
            step = np.abs(x - theta[k, live])
            shift = np.where(step > shift, step, shift)
            theta[k, live[conv]] = x[conv]
            live, shift = live[conv], shift[conv]
        done = (shift < 10.0 * tol) | (d == 1)
        ok[live[done]] = True
        live = live[~done]
        if live.size == 0:
            break
    keep = np.flatnonzero(ok)
    if keep.size:
        keep = keep[distance(keep, theta[:, keep]) <= epsilon]
    n_accepted = int(keep.size)
    return FiducialResult(
        thetas=np.ascontiguousarray(theta[:, keep].T),
        n_draws=budget,
        n_accepted=n_accepted,
        n_skipped=budget - int(ok.sum()),
        acceptance_rate=n_accepted / budget,
    )


def fiducial_location(y0, epsilon, budget, rng) -> FiducialResult:
    """Fiducial draws for the unit-variance location model y = theta + u,
    u ~ N(0, 1), observed at the scalar y0; the fiducial law is N(y0, 1).

    theta is searched within y0 +- 12, twelve noise sds.
    """
    return fiducial_rejection(
        G=lambda u, th: np.array([th[0] + u]),
        sample_u=lambda gen: float(gen.normal()),
        y_obs=np.array([y0]),
        epsilon=epsilon,
        budget=budget,
        rng=rng,
        theta_bounds=[(y0 - 12.0, y0 + 12.0)],
    )


def fiducial_normal_meanvar(y_bar, s2, n, epsilon, budget, rng) -> FiducialResult:
    """Fiducial draws of (mu, sigma^2) from n observations seen through
    their mean y_bar and ddof=1 sample variance s2: y_bar = mu + sigma u0
    and s2 = sigma^2 u1, with u0 ~ N(0, 1/n) and u1 ~ Gamma((n-1)/2,
    scale 2/(n-1)), the law of (n-1) s2 / sigma^2 ~ chi^2_{n-1} over n-1.

    mu is searched within y_bar +- 12 sample sds, sigma^2 within
    [s2 / 50, 50 s2].
    """
    sd = math.sqrt(s2)
    return fiducial_rejection(
        G=lambda u, th: np.array([th[0] + np.sqrt(th[1]) * u[0], th[1] * u[1]]),
        sample_u=lambda gen: np.array(
            [gen.normal(0.0, math.sqrt(1.0 / n)),
             gen.gamma((n - 1) / 2.0, 2.0 / (n - 1))]
        ),
        y_obs=np.array([y_bar, s2]),
        epsilon=epsilon,
        budget=budget,
        rng=rng,
        theta_bounds=[(y_bar - 12.0 * sd, y_bar + 12.0 * sd), (s2 / 50.0, s2 * 50.0)],
    )


def w1_distance(samples, quantile_fn, grid_size=512) -> float:
    """Mean absolute gap between empirical and reference quantiles.

    Evaluates both on the midpoint grid tau_j = (j + 1/2) / M; for large M
    this converges to the Wasserstein-1 distance between the empirical law
    of ``samples`` and the law with quantile function ``quantile_fn``.
    """
    samples = np.asarray(samples, dtype=np.float64).reshape(-1)
    if samples.size == 0:
        raise ValueError("need at least one sample")
    if grid_size < 1:
        raise ValueError("grid size must be positive")
    taus = (np.arange(grid_size) + 0.5) / grid_size
    emp = np.quantile(samples, taus, method="linear")
    ref = np.asarray(quantile_fn(taus), dtype=np.float64)
    return float(np.mean(np.abs(emp - ref)))


def w1_bootstrap_se(samples, quantile_fn, rng, grid_size=512, n_boot=200) -> float:
    """Bootstrap standard error of :func:`w1_distance` over the sample set."""
    samples = np.asarray(samples, dtype=np.float64).reshape(-1)
    if samples.size == 0:
        raise ValueError("need at least one sample")
    gen = rng.generator
    vals = np.empty(n_boot)
    for i in range(n_boot):
        resample = samples[gen.integers(0, samples.size, size=samples.size)]
        vals[i] = w1_distance(resample, quantile_fn, grid_size=grid_size)
    return float(vals.std(ddof=1))
