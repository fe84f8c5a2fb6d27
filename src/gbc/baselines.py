"""Rejection-sampling baselines: ABC and fiducial inference.

Both serve as convergence cross-checks for the quantile engine: ABC
rejection approaches the exact posterior as its tolerance shrinks, and the
fiducial sampler has known closed-form output on the location model. The
Wasserstein-1 helper quantifies distance to an analytic law via quantile
gaps.

Proposals are generated in blocks, one child stream per block, so any
accepted draw can be re-verified later by regenerating its block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .summaries import apply_summary

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # 0.618...


@dataclass
class AbcConfig:
    """Uniform-kernel ABC settings.

    epsilon >= 0 is the tolerance on the Euclidean distance between
    standardized summaries (epsilon = 0 accepts exact summary matches only,
    which is meaningful for discrete simulators). summary = None means the
    identity summary (compare raw data vectors). When standardize is true,
    summary coordinates are divided by their prior-predictive standard
    deviation estimated from the first proposal block, so epsilon is in
    "prior-predictive sd" units.
    """

    epsilon: float
    summary: object = None  # SummaryMap or None for identity
    standardize: bool = True

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon cannot be negative")


@dataclass
class AbcResult:
    thetas: np.ndarray  # (n_accepted, d)
    n_proposals: int
    n_accepted: int
    acceptance_rate: float
    epsilon: float
    summary_scale: np.ndarray  # (k,) standardization divisors
    accepted_index: np.ndarray  # global proposal index of each accepted draw
    block_size: int
    diagnostic: str = ""


def _summarize(cfg: AbcConfig, ys):
    ys = np.asarray(ys, dtype=np.float64)
    batch = ys if ys.ndim == 2 else ys[None, :]
    if cfg.summary is None:
        out = batch
    else:
        out = apply_summary(cfg.summary, batch)
        if out.ndim == 1:
            out = out[:, None]
    return out if ys.ndim == 2 else out[0]


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
    summaries = None
    scale = None
    n_blocks = (budget + block_size - 1) // block_size
    filled = 0
    for b in range(n_blocks):
        start = b * block_size
        stop = min(budget, start + block_size)
        gen = rng.child(b).generator
        th = prior.sample(gen, stop - start)
        ys = simulator.simulate_batch(th, gen)
        s = _summarize(cfg, ys)
        if summaries is None:
            summaries = np.empty((budget, s.shape[1]))
        thetas[start:stop] = th
        summaries[start:stop] = s
        filled = stop
    assert filled == budget
    if cfg.standardize:
        first = summaries[: min(budget, block_size)]
        scale = first.std(axis=0)
        scale = np.where(scale == 0.0, 1.0, scale)
    else:
        scale = np.ones(summaries.shape[1])
    dists = np.sqrt(np.sum(((summaries - s_obs) / scale) ** 2, axis=1))
    return thetas, dists, scale


def abc_rejection(
    simulator, prior, y_obs, cfg: AbcConfig, budget, rng, block_size=4096
) -> AbcResult:
    """Uniform-kernel ABC: keep prior draws whose summaries land within
    epsilon of the observed summary.

    Zero acceptances is a valid outcome: the result is empty and carries a
    diagnostic string instead of raising.
    """
    return abc_epsilon_sweep(
        simulator, prior, y_obs, cfg, [cfg.epsilon], budget, rng, block_size
    )[0]


def abc_epsilon_sweep(
    simulator, prior, y_obs, cfg: AbcConfig, epsilons, budget, rng, block_size=4096
) -> list[AbcResult]:
    """Threshold one shared proposal pool at each epsilon.

    Using a single pool makes the accepted sets nested, so acceptance counts
    are monotone in epsilon by construction and sweep rows are directly
    comparable.
    """
    epsilons = [float(e) for e in epsilons]
    if any(e < 0 for e in epsilons):
        raise ValueError("epsilon cannot be negative")
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
                block_size=block_size,
                diagnostic=diagnostic,
            )
        )
    return out


def reverify_abc(simulator, prior, y_obs, cfg, result: AbcResult, rng) -> bool:
    """Re-simulate the blocks holding accepted draws and re-check epsilon.

    ``rng`` must be the same stream the original run used; block streams are
    re-derived from it. Returns True when every accepted draw still meets
    its constraint (with the recorded standardization scale).
    """
    if result.n_accepted == 0:
        return True
    s_obs = _summarize(cfg, np.asarray(y_obs, dtype=np.float64))
    blocks = np.unique(result.accepted_index // result.block_size)
    for b in blocks:
        start = int(b) * result.block_size
        stop = min(result.n_proposals, start + result.block_size)
        gen = rng.child(int(b)).generator
        th = prior.sample(gen, stop - start)
        ys = simulator.simulate_batch(th, gen)
        s = _summarize(cfg, ys)
        local = result.accepted_index[
            (result.accepted_index >= start) & (result.accepted_index < stop)
        ]
        rows = local - start
        d = np.sqrt(np.sum(((s[rows] - s_obs) / result.summary_scale) ** 2, axis=1))
        if np.any(d > result.epsilon):
            return False
        # The regenerated thetas must also match what was accepted.
        kept = result.thetas[np.searchsorted(result.accepted_index, local)]
        if not np.array_equal(th[rows], kept):
            return False
    return True


def golden_section(fn, lo, hi, tol=1e-8, max_iter=200):
    """Minimize a unimodal scalar function on [lo, hi].

    Returns ``(x, converged)`` where converged means the bracket shrank
    below tol within the iteration cap.
    """
    a, b = float(lo), float(hi)
    if not a < b:
        raise ValueError("need lo < hi")
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    it = 0
    while b - a > tol and it < max_iter:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fn(x2)
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
    normalize_dim=False,
) -> FiducialResult:
    """Fiducial rejection sampling.

    Per draw: simulate u* from its known law via ``sample_u(gen)``, solve
    theta* = argmin_theta ||y_obs - G(u*, theta)|| inside ``theta_bounds``
    (golden-section for scalar theta, cyclic coordinate descent of
    golden-section line searches for vectors), then accept theta* when the
    attained distance is <= epsilon (epsilon = inf accepts every converged
    draw). Draws whose inner optimization does not converge are skipped and
    counted, not raised.

    With normalize_dim the distance is divided by sqrt(len(y_obs)), making
    epsilon a per-coordinate RMS tolerance.
    """
    y_obs = np.atleast_1d(np.asarray(y_obs, dtype=np.float64))
    bounds = [(float(lo), float(hi)) for lo, hi in theta_bounds]
    for lo, hi in bounds:
        if not lo < hi:
            raise ValueError(f"empty theta bound [{lo}, {hi}]")
    d = len(bounds)
    gen = rng.generator
    norm = math.sqrt(y_obs.size) if normalize_dim else 1.0

    def distance(u, theta):
        resid = y_obs - np.atleast_1d(np.asarray(G(u, theta), dtype=np.float64))
        return float(np.sqrt(np.sum(resid**2))) / norm

    accepted = []
    n_skipped = 0
    for _ in range(int(budget)):
        u = sample_u(gen)
        if d == 1:
            x, ok = golden_section(
                lambda v: distance(u, np.array([v])),
                bounds[0][0], bounds[0][1], tol=tol, max_iter=max_iter,
            )
            theta = np.array([x])
        else:
            theta = np.array([0.5 * (lo + hi) for lo, hi in bounds])
            ok = False
            for _sweep in range(max_sweeps):
                shift = 0.0
                for k, (lo, hi) in enumerate(bounds):
                    def along(v, _k=k):
                        t = theta.copy()
                        t[_k] = v
                        return distance(u, t)

                    x, conv = golden_section(
                        along, lo, hi, tol=tol, max_iter=max_iter
                    )
                    if not conv:
                        break
                    shift = max(shift, abs(x - theta[k]))
                    theta[k] = x
                else:
                    if shift < 10.0 * tol:
                        ok = True
                        break
                    continue
                break  # a line search failed to converge
        if not ok:
            n_skipped += 1
            continue
        if distance(u, theta) <= epsilon:
            accepted.append(theta)
    thetas = np.array(accepted) if accepted else np.empty((0, d))
    return FiducialResult(
        thetas=thetas,
        n_draws=int(budget),
        n_accepted=len(accepted),
        n_skipped=n_skipped,
        acceptance_rate=len(accepted) / budget if budget else 0.0,
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
