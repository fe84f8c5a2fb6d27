"""End-to-end orchestration: table -> summary -> quantile chain -> reports.

Every function here is a pure function of (config, seed): all randomness
flows through named child streams of the run's root stream, so reruns are
byte-identical. The benchmark drivers also compute the pass/fail decisions
the CLI turns into exit codes.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .analytic import NormalNormalModel, conjugate_posterior
from .baselines import (
    AbcConfig,
    abc_epsilon_sweep,
    fiducial_location,
    fiducial_normal_meanvar,
    w1_bootstrap_se,
    w1_distance,
)
from .checkpoint import Checkpoint
from .config import (
    RunConfig,
    network_spec_from_config,
    optimizer_spec_from_config,
    prior_and_simulator,
)
from .design import lhs_sample
from .errors import ConfigError, DataError
# write_csv is unused here but kept importable as pipeline.write_csv: the
# benchmark harness writes its loss-trace digest through it.
from .formats import write_csv  # noqa: F401
from .models import (
    EPIDEMIC_QUANTILE_PROBS,
    NormalCoord,
    ReferenceTable,
    cpu_count,
    generate_reference_table,
    map_blocks,
    quantile_index_replicates,
)
from .quantile import checked_tau_grid, posterior_quantile_curve, train_iqn
from .rng import RngStream
# apply_summary is unused here but kept importable as pipeline.apply_summary:
# profilers wrap it under every module name that can call it.
from .summaries import (
    SummaryMap,
    apply_summary,  # noqa: F401
    fit_linear_summary,
    fit_posterior_mean_net,
    holdout_mse,
    mean_summary,
)

# Validation thresholds enforced by the normal benchmark (in units of the
# exact posterior sd, except the Kolmogorov significance level).
NET_MAX_QERR_SIGMA = 0.15
NET_W1_SIGMA = 0.10
ABC_FINAL_W1_SIGMA = 0.20
KS_SIGNIFICANCE = 0.01

DEFAULT_TAU_GRID = tuple(np.round(np.arange(0.05, 0.951, 0.05), 10))


def run_seed(cfg: RunConfig, override=None) -> int:
    if override is not None:
        return int(override)
    return cfg.get_int("run", "seed", 0)


def build_table(cfg: RunConfig, seed, threads=None) -> ReferenceTable:
    """Generate the reference table the config describes, on ``threads``
    threads (default: every CPU this process may run on). The table's
    bytes do not depend on the count."""
    prior, simulator = prior_and_simulator(cfg)
    root = RngStream(seed)
    return generate_reference_table(
        prior,
        simulator,
        cfg.get_int("run", "table_rows", minimum=1),
        root.child("table"),
        block_size=cfg.get_int("run", "block_size", 4096, minimum=1),
        threads=cpu_count() if threads is None else threads,
    )


def _summary_kind(cfg: RunConfig) -> str:
    return cfg.get_choice("summary", "kind", ("linear", "network"), "network")


def check_training_settings(cfg: RunConfig) -> None:
    """Read the optimizer and network settings that :func:`fit_summary` and
    :func:`train_chain` read, so a bad or removed key fails before a table
    is built or a net is fitted."""
    if _summary_kind(cfg) == "network":
        optimizer_spec_from_config(cfg, "summary")
    optimizer_spec_from_config(cfg)
    network_spec_from_config(cfg)


def fit_summary(cfg: RunConfig, table: ReferenceTable, seed):
    """Fit the configured summary map. Returns (summary, losses or None,
    :func:`holdout_mse` on the last 10% of rows). A network summary is
    fitted on the other 90%; a linear one on every row, so its mse is
    in-sample."""
    log1p = cfg.get_bool("summary", "log1p_inputs", "false")
    if _summary_kind(cfg) == "linear":
        summary, losses = fit_linear_summary(table, log1p_inputs=log1p), None
    else:
        summary, losses = fit_posterior_mean_net(
            table,
            RngStream(seed).child("summary"),
            optimizer_spec_from_config(cfg, "summary"),
            hidden=cfg.get_ints("summary", "hidden", "64,64", minimum=1),
            log1p_inputs=log1p,
        )
    return summary, losses, holdout_mse(summary, table)


def train_chain(cfg: RunConfig, table: ReferenceTable, summary: SummaryMap, seed):
    """Train one quantile net per theta coordinate. Returns
    (Checkpoint, loss trace array of shape (epochs, d)).

    Net k trains on the table's true theta_<k with its own ``train-{k}``
    stream, so the nets do not depend on each other. They train in up to
    ``min(d, CPUs)`` forked worker processes; with one worker (d = 1 or one
    CPU) they train in this process and no pool starts. Fork hands the
    workers the parent's BLAS settings, so every net's bytes are the same
    as from a serial loop whatever the worker count.
    """
    train = partial(
        _train_coordinate, table, summary,
        network_spec_from_config(cfg), optimizer_spec_from_config(cfg), seed,
    )
    d = table.theta_dim
    workers = min(d, cpu_count())
    if workers <= 1:
        trained = [train(k) for k in range(d)]
    else:
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            # map yields in k order and cancels the nets not yet started
            # when one raises.
            trained = list(pool.map(train, range(d)))
    ckpt = Checkpoint(
        summary=summary,
        nets=[net for net, _ in trained],
        table_seed=table.seed,
        config_hash=cfg.config_hash(),
    )
    return ckpt, np.column_stack([losses for _, losses in trained])


def _train_coordinate(table, summary, net_spec, opt_spec, seed, k):
    """``train_iqn`` for coordinate k on its ``train-{k}`` stream; the unit
    of work of :func:`train_chain`, module-level so a worker can run it."""
    return train_iqn(
        table, summary, k, net_spec, opt_spec, RngStream(seed).child(f"train-{k}")
    )


def abc_stage(cfg: RunConfig, simulator, prior):
    """Check the ``[abc]`` settings and return the epsilon sweep they
    describe: a function of ``(y_obs, rng)`` that returns one AbcResult per
    epsilon, in config order, each a threshold of one shared proposal
    pool."""
    kind = cfg.get_choice("abc", "summary", ("mean", "identity"), "mean")
    epsilons = cfg.get_floats("abc", "epsilons", "2,1,0.5,0.25,0.1")
    budget = cfg.get_int("abc", "budget", 100_000, minimum=1)
    block_size = cfg.get_int("abc", "block_size", 4096, minimum=1)
    if not epsilons or not all(e >= 0 for e in epsilons):
        raise ConfigError("config key [abc] epsilons must be one or more numbers >= 0")
    abc_cfg = AbcConfig(
        epsilon=0.0,
        summary=mean_summary(simulator.y_dim) if kind == "mean" else None,
        standardize=cfg.get_bool("abc", "standardize", "true"),
    )

    def sweep(y_obs, rng):
        return abc_epsilon_sweep(
            simulator, prior, y_obs, abc_cfg, epsilons, budget, rng,
            block_size=block_size,
        )

    return sweep


FIDUCIAL_HEADERS = {"location": ["theta_1"], "normal-meanvar": ["mu", "sigma_sq"]}


def fiducial_model(cfg: RunConfig) -> str:
    """``[fiducial] model``, a key of FIDUCIAL_HEADERS."""
    return cfg.get_choice("fiducial", "model", tuple(FIDUCIAL_HEADERS), "location")


def fiducial_stage(cfg: RunConfig):
    """Check the ``[fiducial]`` settings and return the sampler they
    describe: a function of ``(y, rng)`` that returns the FiducialResult of
    rejection draws for the data row ``y``. The unit-variance location
    model sees the row through its mean."""
    model = fiducial_model(cfg)
    epsilon = cfg.get_float("fiducial", "epsilon", "inf")
    budget = cfg.get_int("fiducial", "budget", 10_000, minimum=1)
    if not epsilon >= 0:
        raise ConfigError(
            f"config key [fiducial] epsilon must be a number >= 0 or inf, got {epsilon}"
        )

    def sample(y, rng):
        y = np.asarray(y, dtype=np.float64)
        if model == "location":
            return fiducial_location(float(np.mean(y)), epsilon, budget, rng)
        if y.size < 2:
            raise DataError("normal-meanvar fiducial needs at least 2 observations")
        return fiducial_normal_meanvar(
            float(np.mean(y)), float(np.var(y, ddof=1)), y.size, epsilon, budget, rng
        )

    return sample


# ---------------------------------------------------------------------------
# Normal-location benchmark: quantile net vs ABC vs fiducial vs closed form.


@dataclass
class NormalBenchmarkResult:
    rows: list  # report rows (list of lists)
    posterior_mean: float
    posterior_sd: float
    y_bar: float
    # Fraction of adjacent tau-grid pairs the raw net quantiles order backwards.
    crossing_rate: float
    failures: list


def benchmark_normal(cfg: RunConfig, seed) -> NormalBenchmarkResult:
    """Method-by-method comparison on the conjugate normal location model.

    Builds y_obs at the configured true theta, trains the quantile chain on
    a fresh reference table, runs the ``[abc]`` epsilon sweep and the
    ``[fiducial]`` location sampler, and scores everything against the
    exact posterior.
    """
    # Imported here: only this benchmark uses scipy.stats, and importing it
    # at module level would add its load time and memory to every command.
    from scipy import stats

    prior, simulator = prior_and_simulator(cfg)
    if prior.dim != 1 or not isinstance(prior.coords[0], NormalCoord):
        raise ConfigError("the normal benchmark needs a 1-D normal prior")
    if simulator.name != "normal-location":
        raise ConfigError("the normal benchmark needs the normal-location simulator")
    if fiducial_model(cfg) != "location":
        raise ConfigError("the normal benchmark needs [fiducial] model = location")
    fiducial = fiducial_stage(cfg)
    check_training_settings(cfg)

    root = RngStream(seed)
    theta_true = cfg.get_float("benchmark", "theta_true", 3.0)
    if not abs(theta_true) < np.inf:
        raise ConfigError(
            f"config key [benchmark] theta_true must be finite, got {theta_true}"
        )
    y_obs = simulator.simulate(
        np.array([theta_true]), root.child("y-obs").generator
    )
    model = NormalNormalModel(
        prior_mean=prior.coords[0].mean,
        prior_var=prior.coords[0].var,
        noise_var=simulator.noise_var,
        y=tuple(y_obs),
    )
    post = conjugate_posterior(model)
    sigma = post.sd
    try:
        tau_grid = checked_tau_grid(
            cfg.get_floats("sampling", "tau_grid", ",".join(map(str, DEFAULT_TAU_GRID)))
        )
    except ValueError as exc:
        raise ConfigError(f"config key [sampling] tau_grid: {exc}") from None
    n_draws = cfg.get_int("sampling", "n_draws", 10_000, minimum=1)
    abc_sweep = abc_stage(cfg, simulator, prior)
    failures = []
    rows = []

    # Closed form against itself: exact zeros, the reference row.
    rows.append(["analytic", "nan", 0, 1.0, 0.0, 0.0, 0.0, "nan", "yes"])

    # Quantile-network pipeline.
    table = build_table(cfg, seed)
    summary, _, _ = fit_summary(cfg, table, seed)
    ckpt, _ = train_chain(cfg, table, summary, seed)
    qmodel = ckpt.model()
    curve, crossing_rate = posterior_quantile_curve(qmodel, y_obs, tau_grid)
    max_qerr = float(np.max(np.abs(curve - post.quantile(tau_grid))))
    draws = qmodel.sample(y_obs, n_draws, root.child("net-sample"))[:, 0]
    net_w1 = w1_distance(draws, post.quantile)
    net_ok = max_qerr < NET_MAX_QERR_SIGMA * sigma and net_w1 < NET_W1_SIGMA * sigma
    if not net_ok:
        failures.append(
            f"quantile net: max quantile error {max_qerr:.4g} "
            f"(limit {NET_MAX_QERR_SIGMA * sigma:.4g}), W1 {net_w1:.4g} "
            f"(limit {NET_W1_SIGMA * sigma:.4g})"
        )
    rows.append(
        ["quantile-net", "nan", n_draws, 1.0, net_w1, 0.0, max_qerr, "nan",
         "yes" if net_ok else "no"]
    )

    sweep = abc_sweep(y_obs, root.child("abc"))
    last_w1 = None
    boot = root.child("abc-boot")
    for res in sweep:
        if res.n_accepted == 0:
            failures.append(f"abc epsilon={res.epsilon}: no acceptances")
            rows.append(
                ["abc", res.epsilon, 0, 0.0, "nan", "nan", "nan", "nan", "no"]
            )
            continue
        w1 = w1_distance(res.thetas[:, 0], post.quantile)
        se = w1_bootstrap_se(res.thetas[:, 0], post.quantile, boot.child(len(rows)))
        step_ok = last_w1 is None or w1 <= last_w1 + 2.0 * se
        if not step_ok:
            failures.append(
                f"abc W1 increased beyond 2 SE at epsilon={res.epsilon}: "
                f"{last_w1:.4g} -> {w1:.4g} (se {se:.4g})"
            )
        rows.append(
            ["abc", res.epsilon, res.n_accepted, res.acceptance_rate, w1, se,
             "nan", "nan", "yes" if step_ok else "no"]
        )
        last_w1 = w1
    if last_w1 is None or last_w1 >= ABC_FINAL_W1_SIGMA * sigma:
        failures.append(
            f"abc final W1 {last_w1} not below {ABC_FINAL_W1_SIGMA * sigma:.4g}"
        )

    # Fiducial location model on the scalar y = y_bar: closed form N(y_bar, 1).
    y_bar = float(np.mean(y_obs))
    fid = fiducial(y_obs, root.child("fiducial"))
    fid_draws = fid.thetas[:, 0]
    if fid.n_accepted:
        ks_stat, ks_p = stats.kstest(fid_draws, "norm", args=(y_bar, 1.0))
        fid_w1 = w1_distance(fid_draws, lambda t: y_bar + stats.norm.ppf(t))
        fid_ok = ks_p > KS_SIGNIFICANCE
        if not fid_ok:
            failures.append(
                f"fiducial location draws fail the Kolmogorov test: "
                f"stat {ks_stat:.4g}, p {ks_p:.4g}"
            )
    else:
        ks_stat, fid_w1, fid_ok = float("nan"), "nan", False
        failures.append("fiducial: no acceptances")
    rows.append(
        ["fiducial", "nan", fid.n_accepted, fid.acceptance_rate, fid_w1, "nan",
         "nan", ks_stat, "yes" if fid_ok else "no"]
    )

    return NormalBenchmarkResult(
        rows=rows,
        posterior_mean=post.mean,
        posterior_sd=sigma,
        y_bar=y_bar,
        crossing_rate=crossing_rate,
        failures=failures,
    )


NORMAL_REPORT_HEADER = [
    "method", "epsilon", "n_draws", "acceptance_rate", "w1", "w1_se",
    "max_quantile_err", "ks_stat", "pass",
]


# ---------------------------------------------------------------------------
# Epidemic benchmark: LHS scenarios, quantile-trajectory table, autoregressive
# chain, posterior-predictive coverage on held-out scenarios.


@dataclass
class EpidemicBenchmarkResult:
    holdout_ids: list
    holdout_tables: dict  # id -> rows for the per-scenario CSV
    coverage_rows: list
    coverage: float
    box_violation_rate: float
    box_violation_by_coord: np.ndarray  # per theta coordinate (alpha last)
    failures: list


def benchmark_epidemic(cfg: RunConfig, seed) -> EpidemicBenchmarkResult:
    """Desk-scale epidemic study: train on quantile trajectories from an LHS
    design over the [prior] box, then check posterior-predictive band
    coverage on holdouts."""
    prior, simulator = prior_and_simulator(cfg)
    box = prior.box()
    if simulator.name != "epidemic" or None in box:
        raise ConfigError(
            "the epidemic benchmark needs the epidemic simulator and a "
            "5-coordinate uniform [prior] theta"
        )
    try:
        simulator.validate(np.array(box).T)  # both corners of the box
    except ValueError as exc:
        raise ConfigError(f"[prior] theta: {exc}") from exc
    n_scen = cfg.get_int("benchmark", "scenarios", 100)
    n_reps = cfg.get_int("benchmark", "replicates", 100, minimum=2)
    n_hold = cfg.get_int("benchmark", "holdouts", 3, minimum=1)
    n_draws = cfg.get_int("benchmark", "posterior_draws", 300, minimum=1)
    pred_reps = cfg.get_int("benchmark", "predictive_replicates", 100, minimum=1)
    floor = cfg.get_float("benchmark", "coverage_floor", 0.8)
    if not 0.0 <= floor <= 1.0:
        raise ConfigError(
            f"config key [benchmark] coverage_floor must be in [0, 1], got {floor}"
        )
    if n_hold >= n_scen:
        raise ConfigError(
            "config key [benchmark] holdouts must be fewer than scenarios"
        )
    check_training_settings(cfg)
    probs = np.asarray(EPIDEMIC_QUANTILE_PROBS)
    weeks = simulator.weeks
    root = RngStream(seed)

    # Design and replicate curves, each scenario on its own stream, on this
    # thread: on a 2-vCPU host two threads were no faster (timings in README).
    scenarios = lhs_sample(box, n_scen, root.child("design"))
    quantile_traj = np.empty((n_scen, probs.size, weeks))
    for i in range(n_scen):
        gen = root.child(f"scenario-{i}").generator
        curves = simulator.simulate_batch(scenarios[i : i + 1], gen, replicates=n_reps)
        quantile_traj[i] = quantile_index_replicates(curves, probs)

    hold_gen = root.child("holdout").generator
    holdout_ids = sorted(
        int(v) for v in hold_gen.choice(n_scen, size=n_hold, replace=False)
    )
    train_ids = [i for i in range(n_scen) if i not in holdout_ids]

    # Training table: one row per (scenario, quantile level); theta is the
    # 5 scenario parameters plus the level itself, y the quantile trajectory.
    table = ReferenceTable(
        thetas=np.column_stack([
            np.repeat(scenarios[train_ids], probs.size, axis=0),
            np.tile(probs, len(train_ids)),
        ]),
        ys=quantile_traj[train_ids].reshape(-1, weeks),
        seed=int(seed),
        simulator="epidemic-quantiles",
    )

    summary, _, _ = fit_summary(cfg, table, seed)
    ckpt, _ = train_chain(cfg, table, summary, seed)
    model = ckpt.model()

    # Prior box for clipping predictive draws back into simulator range.
    lo = np.array([r[0] for r in box] + [0.0])
    hi = np.array([r[1] for r in box] + [1.0])

    # Posterior draws for every (holdout, level) cell, in order on this
    # thread, shape (cell, draw, 6); then each cell's predictive bands, one
    # cell per block.
    cells = [(h, j) for h in holdout_ids for j in range(probs.size)]
    draws = np.stack([
        model.sample(quantile_traj[h, j], n_draws, root.child(f"sample-{h}-{j}"))
        for h, j in cells
    ])

    def predictive_bands(c):
        """(lower, median, upper) weekly bands of cell c's predictive curves."""
        h, j = cells[c]
        clipped = np.clip(draws[c], lo, hi)
        # pred_reps replicate epidemics per draw, all in one simulator run;
        # each week, pred[t] takes the level clipped[t, 5] of row t of the
        # (draws, replicates) counts.
        pred_gen = root.child(f"predict-{h}-{j}").generator
        pred = np.empty((n_draws, weeks))
        weekly = simulator.simulate_weeks(
            clipped[:, :5], pred_gen, replicates=pred_reps
        )
        for week, cum in enumerate(weekly):
            pred[:, week] = _row_quantile(np.sort(cum, axis=1), clipped[:, 5])
        return tuple(np.quantile(pred, q, axis=0) for q in (0.05, 0.5, 0.95))

    bands = map_blocks(predictive_bands, len(cells), cpu_count())
    # Observed trajectories and bands, each shape (cell, week).
    lower, median, upper = (np.stack(band) for band in zip(*bands))
    obs = np.stack([quantile_traj[h, j] for h, j in cells])
    outside = (draws < lo) | (draws > hi)
    covered = (obs >= lower) & (obs <= upper)

    holdout_tables = {h: {"week": np.arange(1, weeks + 1)} for h in holdout_ids}
    for c, (h, j) in enumerate(cells):
        tag = f"q{probs[j]:g}"
        holdout_tables[h].update({
            f"obs_{tag}": obs[c], f"lo_{tag}": lower[c],
            f"med_{tag}": median[c], f"hi_{tag}": upper[c],
        })
    coverage_rows = [
        [h, float(probs[j]), int(covered[c].sum()), weeks, float(covered[c].mean())]
        for c, (h, j) in enumerate(cells)
    ]
    coverage = float(covered.mean())
    coverage_rows.append(["all", "nan", int(covered.sum()), covered.size, coverage])
    failures = []
    if coverage < floor:
        failures.append(
            f"posterior-predictive coverage {coverage:.3f} below floor {floor}"
        )
    return EpidemicBenchmarkResult(
        holdout_ids=holdout_ids,
        holdout_tables=holdout_tables,
        coverage_rows=coverage_rows,
        coverage=coverage,
        box_violation_rate=float(outside.any(axis=2).mean()),
        box_violation_by_coord=outside.mean(axis=(0, 1)),
        failures=failures,
    )


def _row_quantile(rows, levels):
    """``np.quantile(rows[i], levels[i], method="linear")`` for every row i
    of an (R, n) array whose rows are sorted, with NumPy's virtual index
    (n - 1) * level and its two-sided linear interpolation."""
    n = rows.shape[1]
    virtual = (n - 1) * np.asarray(levels, dtype=np.float64)
    below = np.floor(virtual)
    gamma = virtual - below
    lo = np.minimum(below.astype(np.intp), n - 1)
    hi = np.minimum(lo + 1, n - 1)
    r = np.arange(rows.shape[0])
    a, b = rows[r, lo], rows[r, hi]
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


COVERAGE_HEADER = ["scenario", "alpha", "covered_weeks", "total_weeks", "coverage"]


def holdout_csv_rows(columns: dict):
    header = list(columns.keys())
    n = len(columns["week"])
    rows = [[columns[k][i] for k in header] for i in range(n)]
    return header, rows
