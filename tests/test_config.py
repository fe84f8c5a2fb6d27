"""Config parsing, canonical serialization, prior grammar."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import gbc
from gbc import cli, config, pipeline
from gbc.config import (
    RunConfig,
    network_spec_from_config,
    optimizer_spec_from_config,
    parse_prior,
    prior_from_config,
    simulator_from_config,
)
from gbc.errors import ConfigError
from gbc.models import NormalCoord, UniformCoord

SAMPLE = """
[run]
seed = 42
table_rows = 100

[prior]
theta = normal(0,5)

[simulator]
kind = normal-location
noise_var = 10
n_obs = 100

[optimizer]
lr = 1e-3
epochs = 20
"""


def test_round_trip_through_canonical_text():
    cfg = RunConfig.from_text(SAMPLE)
    again = RunConfig.from_text(cfg.canonical_text())
    assert again.sections == cfg.sections
    assert again.config_hash() == cfg.config_hash()


def test_canonical_text_is_order_independent():
    a = RunConfig.from_text("[b]\ny = 2\nx = 1\n[a]\nk = v\n")
    b = RunConfig.from_text("[a]\nk = v\n[b]\nx = 1\ny = 2\n")
    assert a.canonical_text() == b.canonical_text()
    assert a.config_hash() == b.config_hash()


def test_hash_changes_with_any_value():
    cfg = RunConfig.from_text(SAMPLE)
    base = cfg.config_hash()
    cfg.set("run", "seed", 43)
    assert cfg.config_hash() != base
    assert len(base) == 32


def _write_config(cfg, path):
    """Write ``cfg`` as its canonical text, which ``RunConfig.from_file``
    reads back."""
    Path(path).write_text(cfg.canonical_text(), encoding="utf-8", newline="\n")


def test_file_round_trip(tmp_path):
    cfg = RunConfig.from_text(SAMPLE)
    path = tmp_path / "run.ini"
    _write_config(cfg, path)
    back = RunConfig.from_file(path)
    assert back.sections == cfg.sections


def test_missing_file_and_bad_syntax(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        RunConfig.from_file("/nonexistent/nowhere.ini")
    with pytest.raises(ConfigError, match="cannot parse"):
        RunConfig.from_text("not a section header\n")
    bad = tmp_path / "bad.ini"
    bad.write_text("not a section header\n")
    with pytest.raises(ConfigError, match=r"cannot parse config file .*bad\.ini"):
        RunConfig.from_file(bad)
    bad.write_bytes(b"[run]\nseed = \xff\n")
    with pytest.raises(ConfigError, match=r"cannot read config file .*bad\.ini"):
        RunConfig.from_file(bad)


def test_typed_access_and_errors():
    cfg = RunConfig.from_text(SAMPLE)
    assert cfg.get_int("run", "seed") == 42
    assert cfg.get_float("simulator", "noise_var") == 10.0
    assert cfg.get_str("simulator", "kind") == "normal-location"
    assert cfg.get_int("run", "missing", 7) == 7
    with pytest.raises(ConfigError, match=r"\[run\] nope"):
        cfg.raw("run", "nope")
    with pytest.raises(ConfigError, match="integer"):
        cfg.get_int("simulator", "kind")
    with pytest.raises(ConfigError, match="number"):
        cfg.get_float("simulator", "kind")


def test_bool_and_list_parsing():
    cfg = RunConfig.from_text(
        "[a]\nflag = yes\noff = 0\nxs = 1, 2.5, -3\nns = 4,5,6\nbad = maybe\n"
    )
    assert cfg.get_bool("a", "flag") is True
    assert cfg.get_bool("a", "off") is False
    assert cfg.get_floats("a", "xs") == (1.0, 2.5, -3.0)
    assert cfg.get_ints("a", "ns") == (4, 5, 6)
    with pytest.raises(ConfigError, match="boolean"):
        cfg.get_bool("a", "bad")
    with pytest.raises(ConfigError, match="numbers"):
        cfg.get_floats("a", "bad")
    with pytest.raises(ConfigError, match="integers"):
        cfg.get_ints("a", "xs")


def test_parse_prior_single_and_product():
    p = parse_prior("normal(0,5)")
    assert p.dim == 1
    assert isinstance(p.coords[0], NormalCoord)
    assert p.coords[0].mean == 0.0
    assert p.coords[0].var == 5.0  # second argument is a variance
    q = parse_prior("uniform(3e-5, 8e-5) uniform(1,20) normal(-1, 2)")
    assert q.dim == 3
    assert isinstance(q.coords[0], UniformCoord)
    assert q.coords[0].lo == pytest.approx(3e-5)
    assert isinstance(q.coords[2], NormalCoord)
    assert q.coords[2].mean == -1.0


def test_parse_prior_rejects_garbage():
    for text in ("", "gamma(1,2)", "normal(0,5) extra", "normal(0)", "normal(a,b)"):
        with pytest.raises(ConfigError):
            parse_prior(text)


def test_prior_from_config_and_sampling():
    cfg = RunConfig.from_text(SAMPLE)
    prior = prior_from_config(cfg)
    from gbc.rng import RngStream

    draws = prior.sample(RngStream(1).generator, 50_000)
    assert draws.shape == (50_000, 1)
    assert abs(draws.var() - 5.0) < 0.2  # variance reading of normal(0,5)


def test_network_spec_defaults_and_overrides():
    cfg = RunConfig.from_text(SAMPLE)
    spec = network_spec_from_config(cfg)
    assert spec.psi_hidden == (64, 64)
    assert spec.feature_dim == 64
    cfg.set("network", "psi_hidden", "32,16")
    cfg.set("network", "n_cos", 8)
    spec = network_spec_from_config(cfg)
    assert spec.psi_hidden == (32, 16)
    assert spec.n_cos == 8


def test_optimizer_spec_validation():
    cfg = RunConfig.from_text(SAMPLE)
    spec = optimizer_spec_from_config(cfg)
    assert (spec.lr, spec.epochs, spec.batch_size) == (1e-3, 20, 128)
    # [summary] reads the same keys with its own epoch default.
    assert optimizer_spec_from_config(cfg, "summary").epochs == 200
    cfg.set("summary", "epochs", 7)
    assert optimizer_spec_from_config(cfg, "summary").epochs == 7
    assert optimizer_spec_from_config(cfg).epochs == 20
    cfg.set("optimizer", "epochs", 0)
    with pytest.raises(ConfigError, match=r"\[optimizer\] epochs.*positive"):
        optimizer_spec_from_config(cfg)
    cfg.set("optimizer", "epochs", 10)
    for lr in ("nan", "inf", "-1e-3"):
        cfg.set("summary", "lr", lr)
        with pytest.raises(ConfigError, match=r"\[summary\] lr"):
            optimizer_spec_from_config(cfg, "summary")
    cfg.set("optimizer", "lr_schedule", "step")
    cfg.set("optimizer", "average_tail", 0.2)
    with pytest.raises(ConfigError, match=r"\[optimizer\] lr_schedule, "
                       r"\[optimizer\] average_tail"):
        optimizer_spec_from_config(cfg)


@pytest.mark.parametrize(
    "run, section, key, value",
    [
        ("benchmark_normal", "sampling", "tau_grid", "0.1,0.1"),
        ("benchmark_normal", "sampling", "tau_grid", "0,0.5"),
        ("benchmark_normal", "sampling", "tau_grid", ""),
        ("benchmark_normal", "sampling", "n_draws", "-5"),
        ("benchmark_epidemic", "benchmark", "replicates", "1"),
        ("benchmark_epidemic", "benchmark", "holdouts", "0"),
        ("benchmark_epidemic", "benchmark", "holdouts", "-1"),
        ("benchmark_epidemic", "benchmark", "posterior_draws", "0"),
        ("benchmark_epidemic", "benchmark", "predictive_replicates", "0"),
        ("benchmark_epidemic", "benchmark", "coverage_floor", "nan"),
        ("benchmark_epidemic", "benchmark", "coverage_floor", "1.5"),
        ("benchmark_normal", "benchmark", "theta_true", "nan"),
        ("benchmark_normal", "benchmark", "theta_true", "-inf"),
        ("benchmark_normal", "fiducial", "epsilon", "nan"),
        ("benchmark_normal", "simulator", "noise_var", "nan"),
        ("benchmark_normal", "prior", "theta", "normal(nan,5)"),
        ("benchmark_normal", "prior", "theta", "normal(0,inf)"),
        ("benchmark_normal", "optimizer", "method", "adam"),
        ("benchmark_normal", "optimizer", "epochs", "0"),
        ("benchmark_epidemic", "optimizer", "lr_schedule", "step"),
        ("benchmark_epidemic", "summary", "momentum", "0.9"),
        ("benchmark_epidemic", "summary", "lr", "nan"),
        ("benchmark_epidemic", "network", "psi_hidden", "0"),
    ],
)
def test_benchmark_settings_are_checked_before_any_table(
    monkeypatch, run, section, key, value
):
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built before the settings were checked")

    monkeypatch.setattr(pipeline, "build_table", no_table)
    monkeypatch.setattr(pipeline, "lhs_sample", no_table)
    config = "normal.ini" if run == "benchmark_normal" else "epidemic.ini"
    cfg = RunConfig.from_file(Path(__file__).parents[1] / "configs" / config)
    cfg.set(section, key, value)
    with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key}")):
        getattr(pipeline, run)(cfg, seed=0)


def _config_reads():
    """(section, key) -> the ``file:line`` of every ``cfg.get_*("section",
    "key", ...)`` call in the package. The one reader that takes its section
    as an argument, ``optimizer_spec_from_config``, counts once for each
    section it serves."""
    readers = {}
    for path in sorted(Path(gbc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr.startswith("get_")
                and len(node.args) >= 2
            ):
                continue
            site = f"{path.name}:{node.lineno}"
            section, key = node.args[:2]
            assert isinstance(key, ast.Constant), f"{site} reads a computed key"
            if isinstance(section, ast.Constant):
                sections = [section.value]
            else:
                assert path.name == "config.py" and ast.unparse(section) == "section", (
                    f"{site} reads a computed section"
                )
                sections = list(config._DEFAULT_EPOCHS)
            for name in sections:
                readers.setdefault((name, key.value), []).append(site)
    assert ("run", "simulator") in readers  # the scan sees the reads
    assert ("summary", "lr") in readers and ("optimizer", "lr") in readers
    return readers


def test_each_config_key_is_read_once():
    """Every config read in the package names a different key, so each key
    has one reader and one default."""
    repeated = {k: v for k, v in _config_reads().items() if len(v) > 1}
    assert not repeated, f"config keys read in more than one place: {repeated}"


def test_readme_documents_every_config_key():
    """README's Configuration section has one bullet per ``[section]``, and
    that bullet names every key the package reads from the section."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    text = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    bullets = {
        m.group(1): m.group(2)
        for m in re.finditer(r"^- `\[(\w+)\]`(.*?)(?=^- `\[|\Z)", text, re.M | re.S)
    }
    missing = [
        f"[{section}] {key}"
        for section, key in sorted(_config_reads())
        if not re.search(rf"`{key}[`\s=]", bullets.get(section, ""))
    ]
    assert not missing, f"README Configuration does not name: {missing}"


# Each shipped config, the commands that accept it, and the values that cut
# it down to a toy run. The keys stay; only their values shrink.
SHIPPED_RUNS = {
    "normal.ini": (
        ["gen-table", "train", "sample", "abc", "fiducial", "benchmark-normal"],
        {("run", "table_rows"): 200, ("optimizer", "epochs"): 2,
         ("sampling", "n_draws"): 100, ("abc", "budget"): 2000,
         ("fiducial", "budget"): 50},
    ),
    "epidemic.ini": (
        ["gen-table", "train", "sample", "benchmark-epidemic"],
        {("run", "table_rows"): 40, ("summary", "epochs"): 2,
         ("optimizer", "epochs"): 2, ("benchmark", "scenarios"): 12,
         ("benchmark", "replicates"): 10, ("benchmark", "holdouts"): 2,
         ("benchmark", "posterior_draws"): 10,
         ("benchmark", "predictive_replicates"): 5},
    ),
}


@pytest.mark.parametrize("config", sorted(SHIPPED_RUNS))
def test_every_shipped_config_key_is_read_by_a_command(
    tmp_path, monkeypatch, config
):
    """Run each command that accepts a shipped config on a cut-down copy of
    it, recording every (section, key) read through RunConfig: a shipped key
    that no command reads configures nothing."""
    path = Path(__file__).parents[1] / "configs" / config
    shipped, cfg = RunConfig.from_file(path), RunConfig.from_file(path)
    commands, cut_down = SHIPPED_RUNS[config]
    for (section, key), value in cut_down.items():
        assert shipped.has(section, key)
        cfg.set(section, key, value)
    cfg.set("run", "out_dir", tmp_path / "out")
    _write_config(cfg, tmp_path / config)
    y_obs = tmp_path / "y.csv"
    y_obs.write_text(",".join(["3.0"] * simulator_from_config(cfg).y_dim))

    reads = set()
    raw = RunConfig.raw

    def recording_raw(self, section, key, default=None):
        reads.add((section, key))
        return raw(self, section, key, default)

    monkeypatch.setattr(RunConfig, "raw", recording_raw)
    for command in commands:
        argv = [command, "--config", str(tmp_path / config)]
        if command in ("sample", "abc", "fiducial"):
            argv += ["--y-obs", str(y_obs)]
        assert cli.main(argv) in (0, 4), command  # 4: toy-size thresholds
    unread = [
        f"[{section}] {key}"
        for section, keys in shipped.sections.items()
        for key in keys
        if (section, key) not in reads
    ]
    assert not unread, f"{config} sets keys no command reads: {unread}"
