"""Pipeline studies: what the epidemic benchmark reads from its config, how
its predictive check reduces replicate curves and fans out over threads, and
how the quantile chain is trained across worker processes."""

import os
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from gbc import cli, models, pipeline, quantile
from gbc.checkpoint import Checkpoint, save_checkpoint
from gbc.config import (
    RunConfig,
    network_spec_from_config,
    optimizer_spec_from_config,
    prior_from_config,
)
from gbc.errors import ConfigError, TrainingDivergence
from gbc.formats import fmt_value
from gbc.quantile import train_iqn
from gbc.rng import RngStream
from gbc.summaries import fit_linear_summary
from quantile_helpers import huge_targets

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# The normal benchmark at toy size. [abc] has no budget key and a raw
# (unstandardized) tolerance; [fiducial] comes last so tests can add keys.
TINY_NORMAL = """\
[run]
seed = 7
simulator = normal-location
table_rows = 200

[simulator]
noise_var = 1.0
n_obs = 6

[prior]
theta = normal(0,2)

[summary]
kind = linear

[network]
psi_hidden = 8
feature_dim = 8
n_cos = 4
g_hidden = 8

[optimizer]
epochs = 2
batch_size = 64

[sampling]
n_draws = 200

[benchmark]
theta_true = 3.0

[abc]
epsilons = 1,0.5
standardize = false

[fiducial]
budget = 50
"""

# A box strictly inside the simulator's validity domain on every coordinate.
NARROW_PRIOR = (
    "uniform(4e-5,5e-5) uniform(2,4) uniform(3,5) uniform(0.2,0.3) uniform(6e-5,7e-5)"
)


class _PoolSpy:
    """Records the worker counts of the pools ``owner.name`` starts."""

    def __init__(self, monkeypatch, owner=pipeline, name="ProcessPoolExecutor"):
        self.workers = []
        pool = getattr(owner, name)

        def start(max_workers, **kwargs):
            self.workers.append(max_workers)
            return pool(max_workers, **kwargs)

        monkeypatch.setattr(owner, name, start)


def _tiny_epidemic_config():
    cfg = RunConfig.from_file(CONFIG_DIR / "epidemic.ini")
    cfg.set("prior", "theta", NARROW_PRIOR)
    for section, key, value in (
        ("simulator", "weeks", 8),
        ("summary", "hidden", "8"),
        ("summary", "epochs", 2),
        ("network", "psi_hidden", "8"),
        ("network", "feature_dim", 8),
        ("network", "n_cos", 4),
        ("network", "g_hidden", "8"),
        ("optimizer", "epochs", 2),
        ("benchmark", "scenarios", 6),
        ("benchmark", "replicates", 4),
        ("benchmark", "holdouts", 1),
        ("benchmark", "posterior_draws", 20),
        ("benchmark", "predictive_replicates", 3),
    ):
        cfg.set(section, key, value)
    return cfg


def test_epidemic_benchmark_stays_in_prior_box(monkeypatch):
    cfg = _tiny_epidemic_config()
    design, predictive = [], []
    simulate_batch = models.EpidemicSimulator.simulate_batch
    simulate_weeks = models.EpidemicSimulator.simulate_weeks

    def record_design(self, thetas, gen, replicates=1):
        design.append(np.array(thetas))
        return simulate_batch(self, thetas, gen, replicates)

    def record_predictive(self, thetas, gen, replicates=1):
        predictive.append(np.array(thetas))
        return simulate_weeks(self, thetas, gen, replicates)

    monkeypatch.setattr(models.EpidemicSimulator, "simulate_batch", record_design)
    monkeypatch.setattr(models.EpidemicSimulator, "simulate_weeks", record_predictive)
    pipeline.benchmark_epidemic(cfg, 3)

    box = np.array([(c.lo, c.hi) for c in prior_from_config(cfg).coords])
    for recorded in (design, predictive):
        thetas = np.vstack(recorded)
        assert np.all(thetas >= box[:, 0]) and np.all(thetas <= box[:, 1])


def test_epidemic_benchmark_is_the_same_at_any_cpu_count(monkeypatch):
    """Scenarios run in a loop on the calling thread, as does every
    posterior draw, in (h, j) order; predictive cells fan out over
    min(cells, CPUs) threads."""
    cfg = _tiny_epidemic_config()
    cfg.set("benchmark", "holdouts", 2)
    sample = quantile.AutoregressiveQuantileModel.sample
    calls = []

    def record_sample(self, y_obs, n, rng):
        calls.append((threading.get_ident(), rng.stream_id))
        return sample(self, y_obs, n, rng)

    monkeypatch.setattr(quantile.AutoregressiveQuantileModel, "sample", record_sample)
    results = {}
    for cpus, pools in ((1, []), (4, [4])):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        calls.clear()
        spy = _PoolSpy(monkeypatch, models, "ThreadPoolExecutor")
        results[cpus] = pipeline.benchmark_epidemic(cfg, 3)
        assert spy.workers == pools  # the 10 predictive cells
        root = RngStream(3)
        assert calls == [
            (threading.get_ident(), root.child(f"sample-{h}-{j}").stream_id)
            for h in results[cpus].holdout_ids
            for j in range(len(models.EPIDEMIC_QUANTILE_PROBS))
        ]
    one, four = results[1], results[4]
    assert one.holdout_ids == four.holdout_ids and len(one.holdout_ids) == 2
    assert one.coverage_rows == four.coverage_rows
    assert one.box_violation_rate == four.box_violation_rate
    assert one.box_violation_by_coord.tobytes() == four.box_violation_by_coord.tobytes()
    for h in one.holdout_ids:
        want, got = one.holdout_tables[h], four.holdout_tables[h]
        assert list(want) == list(got)
        for key in want:
            assert np.asarray(want[key]).tobytes() == np.asarray(got[key]).tobytes()


def test_epidemic_report_is_recomputed_from_its_parts(monkeypatch):
    """Each coverage row counts the weeks its holdout table's observed
    level lies in [lo, hi], and the pooled row sums them; the box violation
    rates count the posterior draws outside the [prior] box plus [0, 1]."""
    cfg = _tiny_epidemic_config()
    cfg.set("benchmark", "holdouts", 2)
    sample = quantile.AutoregressiveQuantileModel.sample
    draws = []

    def record_sample(self, y_obs, n, rng):
        out = sample(self, y_obs, n, rng)
        draws.append(out.copy())
        return out

    monkeypatch.setattr(quantile.AutoregressiveQuantileModel, "sample", record_sample)
    result = pipeline.benchmark_epidemic(cfg, 3)

    rows = []
    for h in result.holdout_ids:
        cols = result.holdout_tables[h]
        for a in models.EPIDEMIC_QUANTILE_PROBS:
            obs = cols[f"obs_q{a:g}"]
            covered = (obs >= cols[f"lo_q{a:g}"]) & (obs <= cols[f"hi_q{a:g}"])
            rows.append(
                [h, float(a), int(covered.sum()), len(obs), float(covered.mean())]
            )
    hits, weeks = sum(r[2] for r in rows), sum(r[3] for r in rows)
    rows.append(["all", "nan", hits, weeks, hits / weeks])
    assert result.coverage_rows == rows
    assert [list(map(type, r)) for r in result.coverage_rows] == [
        list(map(type, r)) for r in rows
    ]
    assert result.coverage == hits / weeks

    box = [(c.lo, c.hi) for c in prior_from_config(cfg).coords] + [(0.0, 1.0)]
    lo, hi = np.array(box).T
    pooled = np.concatenate(draws)
    assert len(draws) == 2 * len(models.EPIDEMIC_QUANTILE_PROBS)
    outside = (pooled < lo) | (pooled > hi)
    rate = int(np.any(outside, axis=1).sum()) / len(pooled)
    assert type(result.box_violation_rate) is float
    assert result.box_violation_rate == rate
    by_coord = outside.sum(axis=0) / len(pooled)
    assert result.box_violation_by_coord.tobytes() == by_coord.tobytes()


def test_epidemic_benchmark_rejects_prior_outside_simulator_range():
    cfg = RunConfig.from_file(CONFIG_DIR / "epidemic.ini")
    cfg.set("prior", "theta", NARROW_PRIOR.replace("uniform(2,4)", "uniform(0.5,4)"))
    with pytest.raises(ConfigError, match=r"\[prior\] theta: theta2"):
        pipeline.benchmark_epidemic(cfg, 3)


def test_row_quantile_matches_numpy_quantile():
    gen = np.random.default_rng(72)
    # Integer counts with ties, as the predictive check sees them, and
    # levels at both ends, at exact order statistics and in between.
    counts = gen.integers(0, 40, size=(9, 100))
    levels = np.array([0.0, 1.0, 0.5, 0.25, 1 / 99, 0.999999, 1e-12, 0.3, 0.73])
    for rows in (np.sort(counts, axis=1), np.sort(gen.normal(size=(9, 100)), axis=1)):
        got = pipeline._row_quantile(rows, levels)
        for i in range(rows.shape[0]):
            want = np.quantile(rows[i], levels[i], method="linear")
            assert got[i].tobytes() == np.float64(want).tobytes()
    single = pipeline._row_quantile(np.array([[3.0], [5.0]]), np.array([0.0, 1.0]))
    assert np.array_equal(single, [3.0, 5.0])


def test_benchmark_normal_abc_rows_match_gbc_abc(tmp_path):
    # Both read [abc] the same way: same budget default, same summary and
    # standardization, so the same acceptance count at every epsilon.
    path = tmp_path / "run.ini"
    path.write_text(TINY_NORMAL)
    cfg = RunConfig.from_file(path)
    result = pipeline.benchmark_normal(cfg, 7)
    bench_counts = [row[2] for row in result.rows if row[0] == "abc"]

    # The benchmark's y_obs: [simulator] at theta_true, its "y-obs" stream.
    y_obs = models.NormalLocationSimulator(noise_var=1.0, n_obs=6).simulate(
        np.array([3.0]), RngStream(7).child("y-obs").generator
    )
    (tmp_path / "y.csv").write_text(",".join(fmt_value(v) for v in y_obs) + "\n")
    out = tmp_path / "abc"
    argv = ["abc", "--config", str(path), "--out", str(out),
            "--y-obs", str(tmp_path / "y.csv")]
    assert cli.main(argv) == 0
    header, *lines = (out / "abc_sweep.csv").read_text().splitlines()
    assert header == "epsilon,n_proposals,n_accepted,acceptance_rate"
    sweep = np.loadtxt(lines, delimiter=",", ndmin=2)
    assert list(sweep[:, 1]) == [100_000, 100_000]
    assert bench_counts == [int(n) for n in sweep[:, 2]]


def test_benchmark_normal_rejects_meanvar_fiducial_before_training(
    tmp_path, monkeypatch, capsys
):
    path = tmp_path / "run.ini"
    path.write_text(TINY_NORMAL + "model = normal-meanvar\n")

    def no_training(*args, **kwargs):
        raise AssertionError("the benchmark built a table before checking [fiducial]")

    monkeypatch.setattr(pipeline, "build_table", no_training)
    argv = ["benchmark-normal", "--config", str(path), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert "[fiducial] model = location" in capsys.readouterr().err


def test_benchmark_normal_reports_a_fiducial_run_with_no_acceptances(tmp_path):
    # [fiducial] epsilon = 0 rejects every draw: a failed row and a named
    # failure, not an error, and no Kolmogorov test of zero draws.
    path = tmp_path / "run.ini"
    path.write_text(TINY_NORMAL + "epsilon = 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = pipeline.benchmark_normal(RunConfig.from_file(path), 7)
    assert result.rows[-1][:5] == ["fiducial", "nan", 0, 0.0, "nan"]
    assert fmt_value(result.rows[-1][7]) == "nan"
    assert result.rows[-1][-1] == "no"
    assert "fiducial: no acceptances" in result.failures


def test_benchmark_normal_reports_its_crossing_rate(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_text(TINY_NORMAL)
    result = pipeline.benchmark_normal(RunConfig.from_file(path), 7)
    assert 0.0 <= result.crossing_rate <= 1.0
    # A share of the default grid's adjacent pairs.
    pairs = result.crossing_rate * (len(pipeline.DEFAULT_TAU_GRID) - 1)
    assert abs(pairs - round(pairs)) < 1e-9
    cli.main(["benchmark-normal", "--config", str(path), "--out", str(tmp_path / "out")])
    assert (f"quantile-net crossing rate {result.crossing_rate:.4f} "
            in capsys.readouterr().out)


# ---------------------------------------------------------------------------
# Chain training in worker processes.

CHAIN_CONFIG = """\
[network]
psi_hidden = 8
feature_dim = 8
n_cos = 4
g_hidden = 8

[optimizer]
epochs = 3
batch_size = 32
"""


def _chain_inputs(d, text=CHAIN_CONFIG):
    gen = RngStream(51).generator
    thetas = gen.normal(size=(90, d))
    ys = thetas @ gen.normal(size=(d, 4)) + 0.3 * gen.normal(size=(90, 4))
    table = models.ReferenceTable(
        thetas=thetas, ys=ys, seed=51, simulator="normal-location"
    )
    return RunConfig.from_text(text), table, fit_linear_summary(table)


def _diverging_chain_inputs():
    """``_chain_inputs(3)`` with the last theta column, after the summary is
    fitted, set to finite values whose sums overflow: nets 0 and 1 train,
    net 2 diverges."""
    cfg, table, summary = _chain_inputs(3)
    thetas = table.thetas.copy()
    thetas[:, 2] = huge_targets(table.n_rows, seed=52)
    table = models.ReferenceTable(
        thetas=thetas, ys=table.ys, seed=table.seed, simulator=table.simulator
    )
    return cfg, table, summary


def _checkpoint_bytes(ckpt, path):
    save_checkpoint(path, ckpt)
    return path.read_bytes()


@pytest.mark.parametrize("cpus, pools", [(1, []), (4, [3])])
def test_train_chain_matches_a_serial_loop_at_any_worker_count(
    monkeypatch, tmp_path, cpus, pools
):
    cfg, table, summary = _chain_inputs(3)
    net_spec = network_spec_from_config(cfg)
    opt_spec = optimizer_spec_from_config(cfg)
    serial = [
        train_iqn(table, summary, k, net_spec, opt_spec,
                  RngStream(8).child(f"train-{k}"))
        for k in range(3)
    ]
    want = Checkpoint(summary=summary, nets=[net for net, _ in serial],
                      table_seed=table.seed, config_hash=cfg.config_hash())
    want_trace = np.column_stack([losses for _, losses in serial])

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    spy = _PoolSpy(monkeypatch)
    ckpt, trace = pipeline.train_chain(cfg, table, summary, 8)
    assert spy.workers == pools
    assert trace.shape == (3, 3) and trace.tobytes() == want_trace.tobytes()
    assert (_checkpoint_bytes(ckpt, tmp_path / "pool.gbcq")
            == _checkpoint_bytes(want, tmp_path / "serial.gbcq"))


def test_train_chain_reraises_a_worker_divergence(monkeypatch):
    # The last net diverges while the first two train, so the error comes
    # from a worker after others have returned.
    cfg, table, summary = _diverging_chain_inputs()
    net_spec = network_spec_from_config(cfg)
    opt_spec = optimizer_spec_from_config(cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(2):
            train_iqn(table, summary, k, net_spec, opt_spec,
                      RngStream(8).child(f"train-{k}"))
        with pytest.raises(TrainingDivergence) as serial:
            train_iqn(table, summary, 2, net_spec, opt_spec,
                      RngStream(8).child("train-2"))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        spy = _PoolSpy(monkeypatch)
        with pytest.raises(TrainingDivergence) as pooled:
            pipeline.train_chain(cfg, table, summary, 8)
    assert spy.workers == [2]
    assert str(pooled.value) == str(serial.value)
    assert "quantile training" in str(pooled.value)
    assert pooled.value.epoch == serial.value.epoch == 0


def test_cpu_count_falls_back_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert models.cpu_count() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert models.cpu_count() == 1


def test_one_parameter_chain_starts_no_worker(monkeypatch):
    cfg, table, summary = _chain_inputs(1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-net chain started a worker pool")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", no_pool)
    ckpt, trace = pipeline.train_chain(cfg, table, summary, 8)
    assert len(ckpt.nets) == 1 and trace.shape == (3, 1)
    assert np.all(np.isfinite(trace))
