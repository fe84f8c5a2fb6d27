"""Acceptance gate: ten numbered end-to-end criteria with pinned tolerances.

Each test prints one labeled PASS/FAIL line with its measured values
(`pytest tests/test_acceptance.py -v -s` shows them as they run). The two
benchmark studies are module-scoped fixtures, so each runs exactly once.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from gbc.analytic import NormalNormalModel, conjugate_posterior
from gbc.baselines import AbcConfig, abc_epsilon_sweep
from gbc.config import RunConfig
from gbc.models import EPIDEMIC_QUANTILE_PROBS, PriorSpec, UniformCoord
from gbc.nets import run_gradient_check
from gbc.pipeline import benchmark_epidemic, benchmark_normal, run_seed
from gbc.rng import RngStream
from oracles import distortion_identity_gap, expected_utility
from quantile_helpers import FunctionQuantileStub

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def normal_benchmark():
    cfg = RunConfig.from_file(CONFIG_DIR / "normal.ini")
    start = time.perf_counter()
    result = benchmark_normal(cfg, run_seed(cfg))
    elapsed = time.perf_counter() - start
    return cfg, result, elapsed


@pytest.fixture(scope="module")
def epidemic_benchmark():
    cfg = RunConfig.from_file(CONFIG_DIR / "epidemic.ini")
    start = time.perf_counter()
    result = benchmark_epidemic(cfg, run_seed(cfg))
    elapsed = time.perf_counter() - start
    return cfg, result, elapsed


def test_criterion_01_distortion_identity():
    # The distorted prior survival function must equal the posterior
    # survival function to near machine precision, across random
    # model configurations, on a 401-point grid spanning mean +- 6 sd.
    gen = RngStream(20260816).child("wang").generator
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(gen.integers(0, 30))
        model = NormalNormalModel(
            prior_mean=float(gen.uniform(-3.0, 3.0)),
            prior_var=float(gen.uniform(0.2, 8.0)),
            noise_var=float(gen.uniform(0.2, 8.0)),
            y=tuple(gen.uniform(-5.0, 5.0, size=n)),
        )
        worst = max(worst, distortion_identity_gap(model))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    _report(
        1, "distortion identity", ok,
        f"max gap {worst:.3e} (limit 1e-10) over 1000 configs, "
        f"401-point grid, in {elapsed:.2f}s (limit 10s)",
    )


def test_criterion_02_conjugate_vs_numeric_integration():
    # Closed-form posterior mean and sd against trapezoid integration of
    # prior x likelihood on a dense grid, 1e-6 relative, 100 configurations.
    gen = RngStream(20260816).child("trapezoid").generator
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(gen.integers(1, 50))
        y = gen.uniform(-4.0, 4.0, size=n)
        model = NormalNormalModel(
            prior_mean=float(gen.uniform(-3.0, 3.0)),
            prior_var=float(gen.uniform(0.2, 8.0)),
            noise_var=float(gen.uniform(0.2, 8.0)),
            y=tuple(y),
        )
        post = conjugate_posterior(model)
        grid = np.linspace(post.mean - 12 * post.sd, post.mean + 12 * post.sd, 200_001)
        # log prior x likelihood via sufficient statistics, stabilized
        logp = -0.5 * (grid - model.prior_mean) ** 2 / model.prior_var
        logp += -0.5 * (np.sum(y**2) - 2 * grid * np.sum(y) + n * grid**2) / model.noise_var
        w = np.exp(logp - logp.max())
        z = np.trapezoid(w, grid)
        num_mean = np.trapezoid(grid * w, grid) / z
        num_var = np.trapezoid(grid**2 * w, grid) / z - num_mean**2
        num_sd = np.sqrt(num_var)
        rel_mean = abs(num_mean - post.mean) / max(abs(post.mean), post.sd)
        rel_sd = abs(num_sd - post.sd) / post.sd
        worst = max(worst, rel_mean, rel_sd)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 30.0
    _report(
        2, "conjugate oracle vs numeric Bayes", ok,
        f"max relative error {worst:.3e} (limit 1e-6) over 100 configs "
        f"in {elapsed:.2f}s (limit 30s)",
    )


def test_criterion_03_quantile_net_recovery(normal_benchmark):
    cfg, result, elapsed = normal_benchmark
    # the configuration this criterion pins
    assert cfg.get_int("run", "table_rows") == 10_000
    assert cfg.get_str("prior", "theta") == "normal(0,5)"
    assert cfg.get_float("simulator", "noise_var") == 10.0
    assert cfg.get_int("simulator", "n_obs") == 100
    assert cfg.get_int("sampling", "n_draws") == 10_000
    taus = cfg.get_floats("sampling", "tau_grid")
    assert len(taus) == 19 and taus[0] == 0.05 and taus[-1] == 0.95
    sigma = result.posterior_sd
    net_row = next(r for r in result.rows if r[0] == "quantile-net")
    w1, max_qerr = net_row[4], net_row[6]
    ok = max_qerr < 0.15 * sigma and w1 < 0.10 * sigma and elapsed < 600.0
    _report(
        3, "quantile-net recovery", ok,
        f"max quantile error {max_qerr:.4f} (limit {0.15 * sigma:.4f}), "
        f"W1 {w1:.4f} (limit {0.10 * sigma:.4f}), "
        f"benchmark ran in {elapsed:.0f}s (limit 600s single-threaded)",
    )


def test_criterion_04_abc_convergence(normal_benchmark):
    cfg, result, _ = normal_benchmark
    assert cfg.get_floats("abc", "epsilons") == (2.0, 1.0, 0.5, 0.25, 0.1)
    sigma = result.posterior_sd
    abc_rows = [r for r in result.rows if r[0] == "abc"]
    assert len(abc_rows) == 5
    assert all(r[2] > 0 for r in abc_rows), "every epsilon must accept draws"
    w1s = [r[4] for r in abc_rows]
    ses = [r[5] for r in abc_rows]
    monotone = all(
        w1s[i + 1] <= w1s[i] + 2.0 * ses[i + 1] for i in range(len(w1s) - 1)
    )
    final_ok = w1s[-1] < 0.2 * sigma
    ok = monotone and final_ok
    _report(
        4, "ABC epsilon-sweep convergence", ok,
        f"W1 sequence {', '.join(f'{v:.4f}' for v in w1s)} "
        f"(non-increasing within 2 SE: {monotone}); "
        f"final {w1s[-1]:.4f} < {0.2 * sigma:.4f}: {final_ok}",
    )


def test_criterion_05_fiducial_location_law(normal_benchmark):
    cfg, result, _ = normal_benchmark
    assert cfg.get_int("fiducial", "budget") == 10_000
    fid_row = next(r for r in result.rows if r[0] == "fiducial")
    n_draws, ks_stat, passed = fid_row[2], fid_row[7], fid_row[8]
    # Kolmogorov critical value at significance 0.01 for n = 10^4
    critical = stats.kstwobign.isf(0.01) / np.sqrt(n_draws)
    ok = n_draws == 10_000 and passed == "yes" and ks_stat < critical
    _report(
        5, "fiducial location model", ok,
        f"KS statistic {ks_stat:.5f} over {n_draws} draws "
        f"(critical value {critical:.5f} at significance 0.01)",
    )


def test_criterion_06_expected_utility_identity(normal_benchmark):
    _, result, _ = normal_benchmark
    m, s = result.posterior_mean, result.posterior_sd
    gen = RngStream(20260816).child("utility-mc").generator
    # identity utility on the benchmark posterior; kinked utility on a
    # zero-centered posterior of the same width so the kink actually binds
    cases = (
        ("theta", lambda v: v, m),
        ("max(theta,0)", lambda v: max(v, 0.0), 0.0),
    )
    details = []
    ok = True
    for label, g, center in cases:
        stub = FunctionQuantileStub(lambda t, c=center: c + s * stats.norm.ppf(t))
        quad = expected_utility(stub, None, g)
        g_draws = np.asarray([g(v) for v in gen.normal(center, s, size=100_000)])
        mc = g_draws.mean()
        se = g_draws.std(ddof=1) / np.sqrt(g_draws.size)
        ok = ok and abs(quad - mc) < 3.0 * se
        details.append(f"{label}: quadrature {quad:.5f} vs MC {mc:.5f} (3 SE {3*se:.5f})")
    _report(6, "expected-utility identity", ok, "; ".join(details))


def test_criterion_07_gradient_integrity():
    worst = run_gradient_check(100, RngStream(20260816).child("gradcheck"))
    ok = worst < 1e-5
    _report(
        7, "gradient integrity", ok,
        f"max relative error {worst:.3e} over 100 random nets (limit 1e-5)",
    )


def test_criterion_08_beta_posterior_exactness():
    # theta ~ U(0,1), two coin flips, observed two heads, epsilon = 0 with
    # the identity summary: accepted thetas are exact Beta(3,1) draws.
    class TwoCoinFlips:
        name = "two-coin-flips"
        theta_dim = 1
        y_dim = 2

        def simulate_batch(self, thetas, gen):
            return (gen.uniform(size=(thetas.shape[0], 2)) < thetas).astype(np.float64)

    prior = PriorSpec((UniformCoord(0.0, 1.0),))
    cfg = AbcConfig(epsilon=0.0, summary=None, standardize=False)
    res = abc_epsilon_sweep(
        TwoCoinFlips(), prior, np.array([1.0, 1.0]), cfg, [0.0],
        budget=340_000, rng=RngStream(20260816).child("coins"),
    )[0]
    enough = res.n_accepted >= 100_000
    mean = float(res.thetas[:100_000, 0].mean()) if enough else float("nan")
    ok = enough and abs(mean - 0.75) < 0.01
    _report(
        8, "Beta-posterior exactness", ok,
        f"{res.n_accepted} acceptances (need 100000); mean of first 10^5 = "
        f"{mean:.4f} (target 0.75 within 0.01)",
    )


def test_criterion_09_epidemic_holdout_coverage(epidemic_benchmark):
    cfg, result, elapsed = epidemic_benchmark
    # the scale this criterion pins
    assert cfg.get_int("benchmark", "scenarios") == 100
    assert cfg.get_int("benchmark", "replicates") == 100
    assert cfg.get_int("benchmark", "holdouts") == 3
    assert cfg.get_int("simulator", "weeks") == 56
    assert len(EPIDEMIC_QUANTILE_PROBS) == 5
    assert len(result.holdout_ids) == 3
    ok = result.coverage >= 0.80 and elapsed < 1800.0
    _report(
        9, "epidemic holdout coverage", ok,
        f"90% band coverage {result.coverage:.3f} over "
        f"(scenario, quantile, week) cells (floor 0.80), "
        f"ran in {elapsed:.0f}s (limit 1800s)",
    )


def test_criterion_10_byte_identical_reruns(tmp_path):
    config_text = """\
[run]
seed = 11
simulator = normal-location
table_rows = 2000

[simulator]
noise_var = 10.0
n_obs = 25

[prior]
theta = normal(0,5)

[summary]
kind = linear

[network]
psi_hidden = 32,32
feature_dim = 32
n_cos = 32
g_hidden = 32,32

[optimizer]
epochs = 40
batch_size = 128
"""
    cfg = tmp_path / "run.ini"
    cfg.write_text(config_text)

    def run(cmd, out):
        proc = subprocess.run(
            [sys.executable, "-m", "gbc.cli", cmd, "--config", str(cfg),
             "--out", str(out)],
            capture_output=True, text=True, env=dict(os.environ),
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    pairs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run("gen-table", out)
        run("train", out)
        pairs.append(out)
    a, b = pairs
    table_same = (a / "table.gbct").read_bytes() == (b / "table.gbct").read_bytes()
    model_same = (a / "model.gbcq").read_bytes() == (b / "model.gbcq").read_bytes()
    trace_same = (
        (a / "loss_trace.csv").read_bytes() == (b / "loss_trace.csv").read_bytes()
    )
    ok = table_same and model_same and trace_same
    _report(
        10, "byte-identical reruns", ok,
        f"table identical: {table_same}, model identical: {model_same}, "
        f"loss trace identical: {trace_same}",
    )
