"""Per-draw fiducial solver: the scalar loop that ``gbc.baselines`` batches.

Kept only as a test oracle. ``scalar_golden_section`` and
``per_draw_fiducial`` solve one draw at a time with Python floats; the
batched ``golden_section`` and ``fiducial_rejection`` must reproduce their
results bit for bit.
"""

import math

import numpy as np

from gbc.baselines import FiducialResult

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def scalar_golden_section(fn, lo, hi, tol=1e-8, max_iter=200):
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


def per_draw_fiducial(
    G, sample_u, y_obs, epsilon, budget, rng, theta_bounds,
    tol=1e-8, max_iter=200, max_sweeps=50,
) -> FiducialResult:
    y_obs = np.atleast_1d(np.asarray(y_obs, dtype=np.float64))
    bounds = [(float(lo), float(hi)) for lo, hi in theta_bounds]
    d = len(bounds)
    gen = rng.generator

    def distance(u, theta):
        resid = y_obs - np.atleast_1d(np.asarray(G(u, theta), dtype=np.float64))
        return float(np.sqrt(np.sum(resid**2)))

    accepted = []
    n_skipped = 0
    for _ in range(int(budget)):
        u = sample_u(gen)
        if d == 1:
            x, ok = scalar_golden_section(
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

                    x, conv = scalar_golden_section(
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
                break
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
