"""Pipeline studies: what the epidemic benchmark reads from its config and
how its predictive check reduces replicate curves."""

from pathlib import Path

import numpy as np
import pytest

from gbc import models, pipeline
from gbc.config import RunConfig
from gbc.errors import ConfigError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# A box strictly inside the simulator's validity domain on every coordinate.
NARROW_PRIOR = (
    "uniform(4e-5,5e-5) uniform(2,4) uniform(3,5) uniform(0.2,0.3) uniform(6e-5,7e-5)"
)


def test_epidemic_benchmark_stays_in_prior_box(monkeypatch):
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

    design, predictive = [], []
    simulate_batch = models.EpidemicSimulator.simulate_batch
    simulate_unchecked = pipeline._simulate_unchecked

    def record_design(self, thetas, gen):
        design.append(np.array(thetas))
        return simulate_batch(self, thetas, gen)

    def record_predictive(simulator, thetas, gen):
        predictive.append(np.array(thetas))
        return simulate_unchecked(simulator, thetas, gen)

    monkeypatch.setattr(models.EpidemicSimulator, "simulate_batch", record_design)
    monkeypatch.setattr(pipeline, "_simulate_unchecked", record_predictive)
    pipeline.benchmark_epidemic(cfg, 3)

    box = np.array(
        [(c.lo, c.hi) for c in pipeline.prior_from_config(cfg).coords]
    )
    for recorded in (design, predictive):
        thetas = np.vstack(recorded)
        assert np.all(thetas >= box[:, 0]) and np.all(thetas <= box[:, 1])


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
