"""Closed-form posterior of the conjugate normal location model.

The model: theta ~ N(prior_mean, prior_var), observations y_i | theta
~ N(theta, noise_var), i = 1..n. Everything downstream (quantile networks,
rejection baselines) is validated against this exact posterior, so this
module is deliberately dependency-light and heavily unit-tested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri


def normal_quantile(p):
    """Standard normal quantile for p in (0, 1)."""
    p = np.asarray(p, dtype=np.float64)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    return ndtri(p)


@dataclass(frozen=True)
class NormalNormalModel:
    """Prior N(prior_mean, prior_var), likelihood N(theta, noise_var), data y."""

    prior_mean: float
    prior_var: float
    noise_var: float
    y: tuple

    def __post_init__(self):
        if self.prior_var <= 0 or self.noise_var <= 0:
            raise ValueError("variances must be positive")
        object.__setattr__(self, "y", tuple(float(v) for v in self.y))

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def data_sum(self) -> float:
        return float(sum(self.y))


@dataclass(frozen=True)
class AnalyticPosterior:
    """The exact N(mean, var) posterior."""

    mean: float
    var: float

    @property
    def sd(self) -> float:
        return float(np.sqrt(self.var))

    def quantile(self, p):
        return self.mean + self.sd * normal_quantile(p)


def conjugate_posterior(model: NormalNormalModel) -> AnalyticPosterior:
    """Exact posterior of the normal location model.

    With s = sum(y) and t = noise_var + n * prior_var:

        mean = (noise_var * prior_mean + prior_var * s) / t
        var  = prior_var * noise_var / t

    The same formulas cover n = 0 (posterior = prior).
    """
    t = model.noise_var + model.n * model.prior_var
    mean = (model.noise_var * model.prior_mean + model.prior_var * model.data_sum) / t
    return AnalyticPosterior(mean=mean, var=model.prior_var * model.noise_var / t)
