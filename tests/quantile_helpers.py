"""Quantile-model stand-ins and helpers used only by the tests.

The stubs give closed-form or plain-function quantile curves the interface
of a trained model (``quantile_values(y_obs, taus)``), so curve, sampling
and expected-utility code can be checked against exact answers.
"""

import numpy as np

from gbc.rng import RngStream


def huge_targets(n, seed):
    """``n`` finite targets of +-1.5e308 in random order. Their sums
    overflow, so a net trained on them diverges in its first epoch."""
    signs = RngStream(seed).generator.uniform(size=n) < 0.5
    return np.where(signs, -1.5e308, 1.5e308)


class AnalyticQuantileStub:
    """Adapter giving a closed-form posterior the quantile-model interface."""

    def __init__(self, posterior):
        self.posterior = posterior

    def quantile_values(self, y_obs, taus):
        return np.asarray(self.posterior.quantile(np.asarray(taus)))


class FunctionQuantileStub:
    """Wrap a plain quantile function tau -> value as a quantile model."""

    def __init__(self, fn):
        self.fn = fn

    def quantile_values(self, y_obs, taus):
        taus = np.asarray(taus, dtype=np.float64)
        return np.asarray([self.fn(t) for t in taus], dtype=np.float64)


def cosine_embed(tau, emb):
    """Embedding vector of a CosineEmbedding for a single level tau in [0, 1]."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau={tau} outside [0, 1]")
    return emb.forward(np.array([tau]))[0]


def sample_posterior(model, y_obs, n_draws, rng):
    """Draw from a fitted model, or from a stub by inverse-CDF sampling."""
    if hasattr(model, "sample"):
        return model.sample(y_obs, n_draws, rng)
    # Stubs: single coordinate, direct inverse-CDF sampling.
    taus = rng.generator.uniform(size=n_draws)
    return np.asarray(model.quantile_values(y_obs, taus))[:, None]
