"""Command-line interface: exit codes, artifacts, reproducibility."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gbc import cli
from gbc.checkpoint import Checkpoint, save_checkpoint
from gbc.models import NormalLocationSimulator, read_table_binary
from gbc.nets import FeedForwardNet
from gbc.quantile import CosineEmbedding, ImplicitQuantileNet
from gbc.rng import RngStream
from gbc.summaries import SummaryMap
from quantile_helpers import write_netless_checkpoint

SMOKE_CONFIG = """\
[run]
seed = 5
simulator = normal-location
table_rows = 60

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
epochs = 4
batch_size = 32
"""


def run_cli(*argv, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "gbc.cli", *argv],
        capture_output=True, text=True, env=full_env,
    )


@pytest.fixture()
def smoke(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(SMOKE_CONFIG)
    return cfg, tmp_path


def test_gen_table_writes_readable_table(smoke):
    cfg, tmp = smoke
    out = tmp / "out"
    proc = run_cli("gen-table", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "wrote 60 rows" in proc.stdout
    table = read_table_binary(out / "table.gbct")
    assert table.n_rows == 60
    assert table.seed == 5
    assert table.simulator == "normal-location"


def test_gen_table_reruns_are_byte_identical(smoke):
    cfg, tmp = smoke
    a, b = tmp / "a", tmp / "b"
    assert run_cli("gen-table", "--config", str(cfg), "--out", str(a)).returncode == 0
    assert run_cli("gen-table", "--config", str(cfg), "--out", str(b)).returncode == 0
    assert (a / "table.gbct").read_bytes() == (b / "table.gbct").read_bytes()


def test_seed_override_changes_the_table(smoke):
    cfg, tmp = smoke
    a, b = tmp / "a", tmp / "b"
    run_cli("gen-table", "--config", str(cfg), "--out", str(a), "--seed", "1")
    run_cli("gen-table", "--config", str(cfg), "--out", str(b), "--seed", "2")
    assert (a / "table.gbct").read_bytes() != (b / "table.gbct").read_bytes()


def test_unknown_simulator_is_config_error(smoke):
    cfg, tmp = smoke
    text = cfg.read_text().replace("normal-location", "weather")
    cfg.write_text(text)
    proc = run_cli("gen-table", "--config", str(cfg), "--out", str(tmp / "out"))
    assert proc.returncode == 2
    assert "config error" in proc.stderr
    assert "weather" in proc.stderr
    assert "normal-location" in proc.stderr  # lists what is available


def test_missing_config_key_is_config_error(smoke):
    cfg, tmp = smoke
    cfg.write_text(cfg.read_text().replace("table_rows = 60\n", ""))
    proc = run_cli("gen-table", "--config", str(cfg), "--out", str(tmp / "out"))
    assert proc.returncode == 2
    assert "table_rows" in proc.stderr


@pytest.mark.parametrize(
    "command, edits, key",
    [
        ("gen-table", [("= normal-location", "= epidemic"),
                       ("n_obs = 6", "population = 1e5")], "[simulator] population"),
        ("fiducial", [("[prior]", "[fiducial]\nepsilon = loose\n\n[prior]")],
         "[fiducial] epsilon"),
        ("train", [("kind = linear", "kind = network\nbatch_size = 0")],
         "[summary] batch_size"),
        ("train", [("kind = linear", "kind = network\nlr = 0")], "[summary] lr"),
        ("train", [("kind = linear", "kind = network\nepochs = 0")],
         "[summary] epochs"),
        ("train", [("kind = linear", "kind = network\nhidden = 8,0")],
         "[summary] hidden"),
        ("train", [("psi_hidden = 8", "psi_hidden = 0")], "[network] psi_hidden"),
        ("train", [("feature_dim = 8", "feature_dim = 0")], "[network] feature_dim"),
        ("train", [("n_cos = 4", "n_cos = -3")], "[network] n_cos"),
        ("train", [("g_hidden = 8", "g_hidden = 8,0")], "[network] g_hidden"),
        ("fiducial", [("[prior]", "[fiducial]\nepsilon = nan\n\n[prior]")],
         "[fiducial] epsilon"),
        ("fiducial", [("[prior]", "[fiducial]\nbudget = -5\n\n[prior]")],
         "[fiducial] budget"),
        ("gen-table", [("noise_var = 1.0", "noise_var = nan")],
         "[simulator] noise_var"),
        ("gen-table", [("= normal-location", "= epidemic"), ("n_obs = 6", "contact = inf")],
         "[simulator] contact"),
        ("gen-table", [("normal(0,2)", "normal(nan,2)")], "[prior] theta"),
        ("gen-table", [("normal(0,2)", "normal(0,inf)")], "[prior] theta"),
        # Every net trains with Adam on a fixed schedule, so a config that
        # still chooses an optimizer, momentum or schedule is rejected, even
        # where its value is what training does anyway.
        ("train", [("[optimizer]", "[optimizer]\nmethod = adam")], "[optimizer] method"),
        ("train", [("[optimizer]", "[optimizer]\nmomentum = 0.9")],
         "[optimizer] momentum"),
        ("train", [("[optimizer]", "[optimizer]\nlr_schedule = step")],
         "[optimizer] lr_schedule"),
        ("train", [("[optimizer]", "[optimizer]\naverage_tail = 0.2")],
         "[optimizer] average_tail"),
        ("train", [("kind = linear", "kind = network\noptimizer = adam")],
         "[summary] optimizer"),
        ("train", [("kind = linear", "kind = network\nmomentum = 0.9")],
         "[summary] momentum"),
        # A reference table is always .gbct, so any table_format is rejected,
        # the value the shipped configs used to pin included.
        ("gen-table", [("table_rows = 60", "table_rows = 60\ntable_format = binary")],
         "[run] table_format"),
    ],
    ids=["integer-population", "fiducial-epsilon", "summary-batch-size",
         "summary-lr", "summary-epochs", "summary-hidden", "psi-hidden",
         "feature-dim", "n-cos", "g-hidden", "fiducial-epsilon-nan",
         "fiducial-budget", "noise-var-nan", "contact-inf", "prior-nan-mean",
         "prior-inf-variance", "optimizer-method", "optimizer-momentum",
         "optimizer-lr-schedule", "optimizer-average-tail", "summary-optimizer",
         "summary-momentum", "table-format"],
)
def test_bad_config_value_is_config_error(smoke, command, edits, key):
    cfg, tmp = smoke
    out = tmp / "out"
    assert run_cli("gen-table", "--config", str(cfg), "--out", str(out)).returncode == 0
    text = cfg.read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    cfg.write_text(text)
    y_obs = tmp / "y.csv"
    y_obs.write_text("1.5\n")
    extra = ["--y-obs", str(y_obs)] if command == "fiducial" else []
    proc = run_cli(command, "--config", str(cfg), "--out", str(out), *extra)
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr
    assert key in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "edit, key",
    [(("[optimizer]", "[optimizer]\nmethod = adam"), "[optimizer] method"),
     (("[summary]\nkind = linear", "[summary]\nkind = network\nmomentum = 0.9"),
      "[summary] momentum"),
     (("psi_hidden = 8", "psi_hidden = 0"), "[network] psi_hidden")],
    ids=["optimizer-method", "summary-momentum", "psi-hidden"],
)
def test_train_checks_its_settings_before_fitting(smoke, monkeypatch, capsys, edit, key):
    """A bad or removed training key fails before the summary net is fitted,
    not after it."""
    cfg, tmp = smoke
    out = tmp / "out"
    assert cli.main(["gen-table", "--config", str(cfg), "--out", str(out)]) == 0
    assert edit[0] in cfg.read_text()
    cfg.write_text(cfg.read_text().replace(*edit))

    def no_fit(*args, **kwargs):
        raise AssertionError("fitted before the settings were checked")

    monkeypatch.setattr(cli, "fit_summary", no_fit)
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err


@pytest.mark.parametrize(
    "setting, key",
    [("budget = 0", "[abc] budget"), ("epsilons = 1,-1", "[abc] epsilons"),
     ("epsilons =", "[abc] epsilons")],
    ids=["zero-budget", "negative-epsilon", "no-epsilons"],
)
def test_bad_abc_setting_is_config_error(smoke, setting, key):
    cfg, tmp = smoke
    cfg.write_text(cfg.read_text() + f"\n[abc]\n{setting}\n")
    y_obs = tmp / "y.csv"
    y_obs.write_text(",".join(["0.5"] * 6) + "\n")
    proc = run_cli("abc", "--config", str(cfg), "--out", str(tmp / "out"), "--y-obs", str(y_obs))
    assert proc.returncode == 2, proc.stderr
    assert key in proc.stderr
    assert "Traceback" not in proc.stderr


def test_missing_table_is_data_error(smoke):
    cfg, tmp = smoke
    proc = run_cli("train", "--config", str(cfg), "--out", str(tmp / "out"))
    assert proc.returncode == 3
    assert "data error" in proc.stderr
    assert "not found" in proc.stderr


@pytest.mark.parametrize(
    "command, value", [("gen-table", "csv"), ("train", "binary"), ("train", "csv")]
)
def test_table_format_is_rejected_before_a_table_is_built_or_read(
    smoke, monkeypatch, capsys, command, value
):
    cfg, tmp = smoke
    out = tmp / "out"
    assert cli.main(["gen-table", "--config", str(cfg), "--out", str(out)]) == 0
    cfg.write_text(cfg.read_text().replace(
        "table_rows = 60", f"table_rows = 60\ntable_format = {value}"))

    def no_table(*args, **kwargs):
        raise AssertionError("touched a table before the config was checked")

    monkeypatch.setattr(cli, "build_table", no_table)
    monkeypatch.setattr(cli, "read_table_binary", no_table)
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "[run] table_format" in err


def test_gen_table_refuses_a_csv_table_path(smoke, monkeypatch, capsys):
    """``gen-table`` writes only ``.gbct`` tables; a ``--table`` path that
    names a CSV file exits 2 before any table is built."""
    cfg, tmp = smoke
    table = tmp / "X.csv"

    def no_table(*args, **kwargs):
        raise AssertionError("built a table for a CSV path")

    monkeypatch.setattr(cli, "build_table", no_table)
    argv = ["gen-table", "--config", str(cfg), "--out", str(tmp / "out")]
    assert cli.main(argv + ["--table", str(table)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"--table {table}" in err
    assert "gbct" in err
    assert not table.exists()


def test_old_csv_table_is_data_error(smoke):
    """A table in the CSV layout earlier versions could write is not a
    ``.gbct`` file: ``train`` rejects it by its magic, with no traceback."""
    cfg, tmp = smoke
    table = tmp / "old.csv"
    table.write_text("2,1,6,5,normal-location\n0,1,2,3,4,5,6\n7,8,9,10,11,12,13\n")
    proc = run_cli(
        "train", "--config", str(cfg), "--out", str(tmp / "out"), "--table", str(table)
    )
    assert proc.returncode == 3, proc.stderr
    assert f"data error: {table} is not a reference table file (bad magic)" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_train_then_sample_full_cycle(smoke):
    cfg, tmp = smoke
    out = tmp / "out"
    assert run_cli("gen-table", "--config", str(cfg), "--out", str(out)).returncode == 0
    proc = run_cli("train", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "model.gbcq").exists()
    # loss trace has one row per epoch plus the header
    lines = (out / "loss_trace.csv").read_text().splitlines()
    assert lines[0] == "epoch,pinball_0"
    assert len(lines) == 1 + 4

    y_obs = tmp / "y.csv"
    y_obs.write_text(",".join(["0.5"] * 6) + "\n")
    proc = run_cli(
        "sample", "--config", str(cfg), "--out", str(out),
        "--y-obs", str(y_obs), "--draws", "25",
    )
    assert proc.returncode == 0, proc.stderr
    rows = (out / "samples.csv").read_text().splitlines()
    assert rows[0] == "theta_1"
    assert len(rows) == 26
    draws = np.array([float(v) for v in rows[1:]])
    assert np.all(np.isfinite(draws))


def test_train_reruns_write_identical_model(smoke):
    cfg, tmp = smoke
    a, b = tmp / "a", tmp / "b"
    for out in (a, b):
        assert run_cli("gen-table", "--config", str(cfg), "--out", str(out)).returncode == 0
        assert run_cli("train", "--config", str(cfg), "--out", str(out)).returncode == 0
    assert (a / "model.gbcq").read_bytes() == (b / "model.gbcq").read_bytes()
    assert (a / "loss_trace.csv").read_bytes() == (b / "loss_trace.csv").read_bytes()


def test_sample_zero_draws_writes_header_only(smoke):
    cfg, tmp = smoke
    out = tmp / "out"
    run_cli("gen-table", "--config", str(cfg), "--out", str(out))
    run_cli("train", "--config", str(cfg), "--out", str(out))
    y_obs = tmp / "y.csv"
    y_obs.write_text(",".join(["0.0"] * 6) + "\n")
    proc = run_cli(
        "sample", "--config", str(cfg), "--out", str(out),
        "--y-obs", str(y_obs), "--draws", "0",
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "samples.csv").read_text() == "theta_1\n"


def test_sample_rejects_zero_net_checkpoint(smoke):
    """A checkpoint holding a summary map but no quantile net is not a
    trained chain: loading it is a data error that names the file."""
    cfg, tmp = smoke
    summary = SummaryMap(
        kind="linear", matrix=np.full((1, 6), 1 / 6), intercept=np.zeros(1)
    )
    path = tmp / "summary.gbcq"
    write_netless_checkpoint(path, summary, table_seed=5)
    y_obs = tmp / "y.csv"
    y_obs.write_text(",".join(["0.0"] * 6) + "\n")
    proc = run_cli(
        "sample", "--config", str(cfg), "--out", str(tmp / "out"),
        "--checkpoint", str(path), "--y-obs", str(y_obs),
    )
    assert proc.returncode == 3, proc.stderr
    assert "data error" in proc.stderr and str(path) in proc.stderr
    assert "no quantile nets" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp / "out" / "samples.csv").exists()


def test_abc_smoke_writes_sweep_and_draws(smoke):
    cfg, tmp = smoke
    out = tmp / "out"
    cfg.write_text(
        cfg.read_text()
        + "\n[abc]\nepsilons = 2,1\nbudget = 2000\nblock_size = 512\n"
    )
    y_obs = tmp / "y.csv"
    y_obs.write_text(",".join(["0.5"] * 6) + "\n")
    proc = run_cli("abc", "--config", str(cfg), "--out", str(out), "--y-obs", str(y_obs))
    assert proc.returncode == 0, proc.stderr
    sweep = (out / "abc_sweep.csv").read_text().splitlines()
    assert sweep[0] == "epsilon,n_proposals,n_accepted,acceptance_rate"
    assert len(sweep) == 3
    assert (out / "abc_draws.csv").exists()


def test_fiducial_smoke_location_model(smoke):
    cfg, tmp = smoke
    out = tmp / "out"
    cfg.write_text(cfg.read_text() + "\n[fiducial]\nmodel = location\nbudget = 40\n")
    y_obs = tmp / "y.csv"
    y_obs.write_text("1.5\n")
    proc = run_cli(
        "fiducial", "--config", str(cfg), "--out", str(out), "--y-obs", str(y_obs)
    )
    assert proc.returncode == 0, proc.stderr
    assert "accepted 40 of 40" in proc.stdout
    rows = (out / "fiducial_draws.csv").read_text().splitlines()
    assert rows[0] == "theta_1"
    assert len(rows) == 41


def test_fiducial_meanvar_model_writes_mean_and_variance(smoke):
    cfg, tmp = smoke
    out = tmp / "out"
    cfg.write_text(
        cfg.read_text() + "\n[fiducial]\nmodel = normal-meanvar\nbudget = 30\n"
    )
    y_obs = tmp / "y.csv"
    y_obs.write_text("1.5,2.0,0.5,3.1,2.2,1.0\n")
    proc = run_cli(
        "fiducial", "--config", str(cfg), "--out", str(out), "--y-obs", str(y_obs)
    )
    assert proc.returncode == 0, proc.stderr
    assert "accepted 30 of 30" in proc.stdout
    rows = (out / "fiducial_draws.csv").read_text().splitlines()
    assert rows[0] == "mu,sigma_sq"
    draws = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    assert draws.shape == (30, 2)
    assert np.all(draws[:, 1] > 0.0)

    y_obs.write_text("1.5\n")
    proc = run_cli(
        "fiducial", "--config", str(cfg), "--out", str(out), "--y-obs", str(y_obs)
    )
    assert proc.returncode == 3
    assert "at least 2 observations" in proc.stderr


def test_fiducial_location_model_uses_the_row_mean(smoke):
    # A 100-value row and a one-value row holding its mean give the same draws.
    cfg, tmp = smoke
    cfg.write_text(cfg.read_text() + "\n[fiducial]\nmodel = location\nbudget = 40\n")
    values = RngStream(6).generator.normal(2.3, 3.0, size=100)
    rows = {"many": ",".join(repr(float(v)) for v in values),
            "mean": repr(float(np.mean(values)))}
    draws = {}
    for name, row in rows.items():
        (tmp / f"{name}.csv").write_text(row + "\n")
        out = tmp / name
        proc = run_cli(
            "fiducial", "--config", str(cfg), "--out", str(out),
            "--y-obs", str(tmp / f"{name}.csv"),
        )
        assert proc.returncode == 0, proc.stderr
        draws[name] = (out / "fiducial_draws.csv").read_bytes()
    assert draws["many"] == draws["mean"]


def test_threads_is_rejected_where_unused(smoke):
    # No command takes a thread count: table simulation uses every CPU the
    # process may run on, and its bytes do not depend on how many.
    cfg, tmp = smoke
    for command in ("gen-table", "benchmark-normal", "sample"):
        proc = run_cli(
            command, "--config", str(cfg), "--out", str(tmp), "--threads", "2"
        )
        assert proc.returncode == 2
        assert "--threads" in proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["abc", "gen-table"])
def test_prior_of_the_wrong_dimension_is_config_error(
    smoke, monkeypatch, capsys, command
):
    """A prior with more coordinates than the simulator takes is rejected
    before anything is simulated, by ``abc`` as by ``gen-table``."""
    cfg, tmp = smoke

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the prior was checked")

    monkeypatch.setattr(NormalLocationSimulator, "simulate_batch", no_simulation)
    cfg.write_text(cfg.read_text().replace("normal(0,2)", "normal(0,5) normal(0,5)"))
    y_obs = tmp / "y.csv"
    y_obs.write_text(",".join(["0.5"] * 6) + "\n")
    argv = [command, "--config", str(cfg), "--out", str(tmp / "out")]
    if command == "abc":
        argv += ["--y-obs", str(y_obs)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "prior has 2 coordinates" in err
    assert not (tmp / "out" / "abc_draws.csv").exists()


@pytest.mark.parametrize(
    "command, edit, key",
    [
        ("benchmark-normal", "\n[sampling]\ntau_grid = 0.2,0.1\n", "[sampling] tau_grid"),
        ("benchmark-normal", "\n[sampling]\ntau_grid = 0.5,1.0\n", "[sampling] tau_grid"),
        ("benchmark-normal", "\n[sampling]\nn_draws = 0\n", "[sampling] n_draws"),
        ("benchmark-epidemic", ("replicates = 100", "replicates = 1"),
         "[benchmark] replicates"),
    ],
    ids=["tau-grid-decreasing", "tau-grid-at-one", "zero-draws", "one-replicate"],
)
def test_bad_benchmark_setting_is_config_error(smoke, command, edit, key):
    cfg, tmp = smoke
    if command == "benchmark-epidemic":
        epidemic = Path(__file__).parents[1] / "configs" / "epidemic.ini"
        cfg.write_text(epidemic.read_text().replace(*edit))
    else:
        cfg.write_text(cfg.read_text() + edit)
    proc = run_cli(command, "--config", str(cfg), "--out", str(tmp / "out"))
    assert proc.returncode == 2, proc.stderr
    assert key in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "command, section, key, value",
    [
        ("benchmark-normal", "sampling", "tau_grid", "0.1,nan,0.9"),
        ("benchmark-normal", "abc", "epsilons", "1,nan"),
        ("abc", "abc", "epsilons", "1,nan"),
    ],
    ids=["tau-grid", "benchmark-epsilons", "abc-epsilons"],
)
def test_nan_setting_is_config_error_before_any_simulation(
    smoke, monkeypatch, capsys, command, section, key, value
):
    """A NaN passes a negative-form range check; each of these is rejected
    before a table row or ABC proposal is simulated."""
    cfg, tmp = smoke
    cfg.write_text(cfg.read_text() + f"\n[{section}]\n{key} = {value}\n")
    y_obs = tmp / "y.csv"
    y_obs.write_text(",".join(["0.5"] * 6) + "\n")

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the settings were checked")

    monkeypatch.setattr(NormalLocationSimulator, "simulate_batch", no_simulation)
    argv = [command, "--config", str(cfg), "--out", str(tmp / "out")]
    if command == "abc":
        argv += ["--y-obs", str(y_obs)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"[{section}] {key}" in err


def test_abc_simulator_failure_is_data_error(tmp_path, capsys):
    """A prior that reaches outside the simulator's range fails in the ABC
    proposal pool as it does in table generation: exit 3, no traceback."""
    epidemic = Path(__file__).parents[1] / "configs" / "epidemic.ini"
    text = epidemic.read_text()
    assert "uniform(1,20)" in text
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        text.replace("uniform(1,20)", "uniform(0.5,20)") + "\n[abc]\nbudget = 500\n"
    )
    y_obs = tmp_path / "y.csv"
    y_obs.write_text(",".join(["3"] * 56) + "\n")
    argv = ["abc", "--config", str(cfg), "--out", str(tmp_path / "out"),
            "--y-obs", str(y_obs)]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error") and "theta2 outside scenario range" in err


@pytest.mark.parametrize("draws, why", [("-1", "0 or more"), ("ten", "an integer")])
def test_bad_draw_count_is_a_usage_error(smoke, draws, why):
    cfg, tmp = smoke
    proc = run_cli("sample", "--config", str(cfg), "--out", str(tmp), "--draws", draws)
    assert proc.returncode == 2
    assert f"argument --draws: must be {why}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "nets, why", [("0", "1 or more"), ("-3", "1 or more"), ("ten", "an integer")]
)
def test_bad_net_count_is_a_usage_error(nets, why):
    proc = run_cli("gradcheck", "--nets", nets)
    assert proc.returncode == 2
    assert f"argument --nets: must be {why}" in proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr


def test_gradcheck_passes_and_reports(smoke):
    proc = run_cli("gradcheck", "--nets", "5", "--seed", "3")
    assert proc.returncode == 0
    assert "max relative gradient error over 5 nets" in proc.stdout


def test_gradcheck_takes_no_config():
    proc = run_cli("gradcheck", "--config", "x")
    assert proc.returncode == 2
    assert "--config" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_command_without_config_is_config_error():
    proc = run_cli("gen-table")
    assert proc.returncode == 2
    assert "--config" in proc.stderr


@pytest.mark.parametrize(
    "command, value", [("sample", "nan"), ("abc", "inf"), ("fiducial", "nan")]
)
def test_non_finite_y_obs_is_data_error(smoke, command, value):
    cfg, tmp = smoke
    out = tmp / "out"
    if command == "sample":
        assert run_cli("gen-table", "--config", str(cfg), "--out", str(out)).returncode == 0
        assert run_cli("train", "--config", str(cfg), "--out", str(out)).returncode == 0
    y_obs = tmp / "y.csv"
    y_obs.write_text(f"0.5,0.5,{value},0.5,0.5,0.5\n")
    proc = run_cli(
        command, "--config", str(cfg), "--out", str(out), "--y-obs", str(y_obs)
    )
    assert proc.returncode == 3, proc.stderr
    assert "data error" in proc.stderr and str(y_obs) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not list(out.glob("*draws.csv")) and not (out / "samples.csv").exists()


@pytest.mark.parametrize(
    "text, message",
    [("0.5,0.5,x,0.5,0.5,0.5\n", "cannot parse"),
     ("0.5,0.5,0.5\n0.5,0.5\n", "cannot parse"),
     (None, "cannot read")],
    ids=["non-numeric", "ragged", "missing"],
)
def test_malformed_y_obs_is_data_error(smoke, text, message):
    """The ``--y-obs`` reader is the one CSV reader left: a file it cannot
    read or parse is a data error that names the file."""
    cfg, tmp = smoke
    y_obs = tmp / "y.csv"
    if text is not None:
        y_obs.write_text(text)
    proc = run_cli(
        "abc", "--config", str(cfg), "--out", str(tmp / "out"), "--y-obs", str(y_obs)
    )
    assert proc.returncode == 3, proc.stderr
    assert f"data error: {message} {y_obs}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_y_obs_must_be_single_row(smoke):
    cfg, tmp = smoke
    out = tmp / "out"
    run_cli("gen-table", "--config", str(cfg), "--out", str(out))
    run_cli("train", "--config", str(cfg), "--out", str(out))
    y_obs = tmp / "y.csv"
    y_obs.write_text("1,2,3,4,5,6\n7,8,9,10,11,12\n")
    proc = run_cli(
        "sample", "--config", str(cfg), "--out", str(out), "--y-obs", str(y_obs)
    )
    assert proc.returncode == 3
    assert "single observation row" in proc.stderr


@pytest.mark.parametrize(
    "psi_dims, m, message",
    [([1, 8, 4], 3, "psi output 4, embedding width 3"),
     ([2, 8, 3], 3, "the chain gives it 1")],
    ids=["widths", "conditioning"],
)
def test_sample_rejects_checkpoint_whose_dims_do_not_fit(smoke, psi_dims, m, message):
    cfg, tmp = smoke
    rng = RngStream(8)
    summary = SummaryMap(
        kind="linear", matrix=np.full((1, 6), 1 / 6), intercept=np.zeros(1)
    )
    net = ImplicitQuantileNet(
        psi=FeedForwardNet.create(psi_dims, rng.child("psi")),
        phi=CosineEmbedding.create(4, m, rng.child("phi")),
        g=FeedForwardNet.create([3, 8, 1], rng.child("g")),
        cond_mean=np.zeros(psi_dims[0]),
        cond_sd=np.ones(psi_dims[0]),
        target_mean=0.0,
        target_sd=1.0,
    )
    path = tmp / "model.gbcq"
    save_checkpoint(path, Checkpoint(summary=summary, nets=[net], table_seed=5))
    y_obs = tmp / "y.csv"
    y_obs.write_text(",".join(["0.5"] * 6) + "\n")
    proc = run_cli(
        "sample", "--config", str(cfg), "--out", str(tmp / "out"),
        "--checkpoint", str(path), "--y-obs", str(y_obs),
    )
    assert proc.returncode == 3, proc.stderr
    assert "data error" in proc.stderr and message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["sample", "abc"])
def test_y_obs_of_wrong_length_is_data_error(smoke, command):
    cfg, tmp = smoke
    out = tmp / "out"
    run_cli("gen-table", "--config", str(cfg), "--out", str(out))
    assert run_cli("train", "--config", str(cfg), "--out", str(out)).returncode == 0
    y_obs = tmp / "y.csv"
    y_obs.write_text("1,2,3,4,5\n")
    proc = run_cli(
        command, "--config", str(cfg), "--out", str(out), "--y-obs", str(y_obs)
    )
    assert proc.returncode == 3, proc.stderr
    assert "data error" in proc.stderr
    assert "holds 5 values" in proc.stderr and "takes 6" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_linear_summary_error_is_labelled_in_sample(smoke):
    cfg, tmp = smoke
    out = tmp / "out"
    run_cli("gen-table", "--config", str(cfg), "--out", str(out))
    proc = run_cli("train", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "summary in-sample mse: " in proc.stdout
    assert "holdout" not in proc.stdout


def test_documented_subcommands_match_the_parser():
    """README's subcommand table and the cli module docstring list exactly
    the subcommands ``build_parser`` accepts."""
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    commands = set(sub.choices)
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = re.search(r"^\| Subcommand \|.*?\n\n", readme, re.M | re.S).group(0)
    assert set(re.findall(r"^\| `([a-z-]+)` \|", table, re.M)) == commands
    listed = re.search(r"Subcommands: (.*?)\.", cli.__doc__, re.S).group(1)
    assert {name.strip() for name in listed.split(",")} == commands
