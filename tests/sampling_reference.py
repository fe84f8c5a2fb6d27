"""Whole-array quantile evaluation and posterior sampling: what
``gbc.quantile`` computes in row blocks.

Kept only as a test oracle. ``reference_net_values`` evaluates one quantile
net on all rows at once, and ``reference_sample`` runs each net of the chain
that way, drawing net k's quantile levels just before it runs.
``ImplicitQuantileNet.quantile_values`` and ``AutoregressiveQuantileModel.sample``
must reproduce them bit for bit, and ``reference_quantile_values`` the
marginal curve.
"""

import numpy as np


def reference_net_values(net, cond, taus):
    cond = np.asarray(cond, dtype=np.float64)
    taus = np.asarray(taus, dtype=np.float64)
    if cond.ndim == 1:
        cond = np.broadcast_to(cond, (taus.shape[0], cond.shape[0]))
    z = (cond - net.cond_mean) / net.cond_sd
    a = net.psi.forward(z)
    b = net.phi.forward(taus)
    out = net.g.forward(a * b)[:, 0]
    return out * net.target_sd + net.target_mean


def reference_sample(model, y_obs, n_draws, rng):
    s = model._summary_of(y_obs)
    gen = rng.generator
    draws = np.empty((n_draws, model.dim))
    cond = np.broadcast_to(s, (n_draws, s.shape[0]))
    for k, net in enumerate(model.nets):
        taus = gen.uniform(size=n_draws)
        full = np.hstack([cond, draws[:, :k]])
        draws[:, k] = reference_net_values(net, full, taus)
    return draws


def reference_quantile_values(model, y_obs, taus):
    return reference_net_values(model.nets[0], model._summary_of(y_obs), taus)
