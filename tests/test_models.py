"""Simulators, reference tables, quantile trajectories, file round-trips."""

import numpy as np
import pytest

from gbc.errors import ConfigError, DataError
from gbc.models import (
    EPIDEMIC_RANGES,
    EpidemicSimulator,
    NormalCoord,
    NormalLocationSimulator,
    PriorSpec,
    ReferenceTable,
    UniformCoord,
    _epidemic_batch,
    generate_reference_table,
    make_simulator,
    quantile_index_replicates,
    read_table_binary,
    write_table_binary,
)
from gbc.rng import RngStream


def _simulate_normal(theta, noise_var, n, rng):
    return NormalLocationSimulator(noise_var, n).simulate([theta], rng.generator)


def _simulate_epidemic(theta, pop, weeks, rng):
    sim = EpidemicSimulator(population=pop, weeks=weeks)
    return sim.simulate_batch(np.reshape(theta, (1, -1)), rng.generator)[0]


@pytest.mark.parametrize(
    "rows, n_obs", [(1, 1), (1, 100), (7, 3), (333, 57), (4096, 100)]
)
def test_normal_batch_equals_broadcast_normal_draws(rows, n_obs):
    """simulate_batch scales and shifts standard normals in place; the
    broadcast ``gen.normal`` call it replaced is the oracle, bit for bit."""
    sim = NormalLocationSimulator(noise_var=2.5, n_obs=n_obs)
    thetas = RngStream(3).generator.normal(0.0, 5.0, size=(rows, 1))
    gen, oracle = RngStream(4).generator, RngStream(4).generator
    got = sim.simulate_batch(thetas, gen)
    want = oracle.normal(loc=thetas[:, :1], scale=np.sqrt(2.5), size=(rows, n_obs))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert gen.random() == oracle.random()  # the same draws were consumed


def test_normal_normal_rejects_bad_variance():
    with pytest.raises(ConfigError):
        _simulate_normal(0.0, noise_var=0.0, n=5, rng=RngStream(1))
    with pytest.raises(ConfigError):
        _simulate_normal(0.0, noise_var=-2.0, n=5, rng=RngStream(1))


def test_normal_normal_sample_mean_clt_bound():
    # theta=3, variance 10, n=10000: the sample mean lies within
    # 4 standard errors of 3 (seed-checked, standard error sqrt(10/n)).
    y = _simulate_normal(3.0, noise_var=10.0, n=10_000, rng=RngStream(7))
    assert abs(np.mean(y) - 3.0) < 4.0 * np.sqrt(10.0 / 10_000)


def test_normal_normal_fixed_seed_reproduces():
    a = _simulate_normal(1.0, 2.0, 100, RngStream(12))
    b = _simulate_normal(1.0, 2.0, 100, RngStream(12))
    assert np.array_equal(a, b)


def test_epidemic_zero_transmission_flat_curve():
    # theta1 = 0 is outside the scenario box the simulator accepts; the
    # unchecked dynamics take the boundary case, where nobody new is ever
    # infected.
    theta = np.array([[0.0, 5.0, 4.0, 0.5, 5e-5]])
    curve = _epidemic_batch(theta, 1000, 20, RngStream(3).generator, 0.5)[0]
    assert np.all(curve == 5.0)


def test_epidemic_curve_invariants():
    gen = RngStream(9).generator
    lows = np.array([r[0] for r in EPIDEMIC_RANGES])
    highs = np.array([r[1] for r in EPIDEMIC_RANGES])
    for i in range(10):
        theta = lows + (highs - lows) * gen.uniform(size=5)
        curve = _simulate_epidemic(theta, pop=100_000, weeks=56, rng=RngStream(100 + i))
        assert curve.shape == (56,)
        assert np.all(np.diff(curve) >= 0.0)  # cumulative
        assert curve[0] >= theta[1]  # starts at/above initial infected
        assert curve[-1] <= 100_000  # bounded by population
        assert np.all(curve == np.floor(curve))  # integer counts


def _reference_epidemic_batch(thetas, pop, weeks, gen, contact):
    """The chain-binomial computed week by week from theta, with nothing
    hoisted out of the loop."""
    t1, t2, t3, t4, t5 = (thetas[:, k] for k in range(5))
    contact_eff = contact * (1.0 - 0.5 * t5 / 8e-5)
    susceptible = pop - np.minimum(np.ceil(t2), pop).astype(np.int64)
    active = cum = np.minimum(np.ceil(t2), pop).astype(np.int64)
    curves = np.empty((thetas.shape[0], weeks))
    for week in range(1, weeks + 1):
        t1_eff = np.where(week >= np.ceil(t3), t1 * (1.0 - t4), t1)
        p_inf = np.clip(-np.expm1(contact_eff * active * np.log1p(-t1_eff)), 0.0, 1.0)
        active = gen.binomial(susceptible, p_inf)
        susceptible = susceptible - active
        cum = cum + active
        curves[:, week - 1] = cum
    return curves


def test_epidemic_batch_matches_the_week_by_week_reference():
    gen = RngStream(14).generator
    lows = np.array([r[0] for r in EPIDEMIC_RANGES])
    highs = np.array([r[1] for r in EPIDEMIC_RANGES])
    thetas = np.repeat(lows + (highs - lows) * gen.uniform(size=(40, 5)), 25, axis=0)
    got = _epidemic_batch(thetas, 100_000, 56, RngStream(15).generator, 0.5)
    want = _reference_epidemic_batch(thetas, 100_000, 56, RngStream(15).generator, 0.5)
    assert got.tobytes() == want.tobytes()
    assert want[:, -1].max() > 10 * want[:, 0].max()  # the epidemics grow


@pytest.mark.parametrize("rows, replicates", [(3, 1), (3, 4), (1, 100)],
                         ids=["3x1", "3x4", "scenario-1x100"])
def test_epidemic_replicate_grid_matches_the_tiled_reference(rows, replicates):
    # R runs of each of B rows on one (B, R) grid draw what B*R rows of
    # np.repeat-tiled parameters draw, row b*R + r being run r of row b.
    gen = RngStream(16).generator
    lows = np.array([r[0] for r in EPIDEMIC_RANGES])
    highs = np.array([r[1] for r in EPIDEMIC_RANGES])
    thetas = lows + (highs - lows) * gen.uniform(size=(rows, 5))
    got = _epidemic_batch(thetas, 100_000, 56, RngStream(17).generator, 0.5,
                          replicates=replicates)
    tiled = np.repeat(thetas, replicates, axis=0)
    want = _reference_epidemic_batch(tiled, 100_000, 56, RngStream(17).generator, 0.5)
    assert got.shape == (rows * replicates, 56)
    assert got.tobytes() == want.tobytes()
    sim = EpidemicSimulator(population=100_000, weeks=56)
    weekly = [cum.copy() for cum in
              sim.simulate_weeks(thetas, RngStream(17).generator, replicates)]
    assert weekly[0].shape == (rows, replicates)
    assert np.array_equal(np.stack(weekly, axis=-1).reshape(-1, 56), want)


def test_epidemic_strict_range_check():
    with pytest.raises(ValueError, match="theta1"):
        _simulate_epidemic([1e-6, 5, 4, 0.5, 5e-5], pop=1000, weeks=5, rng=RngStream(0))


def test_epidemic_more_transmission_more_cases():
    # Monotonicity in theta1 on average: compare low vs high transmission.
    lo_final = []
    hi_final = []
    for i in range(30):
        lo = _simulate_epidemic([3e-5, 10, 10, 0.1, 8e-5], 100_000, 56, RngStream(i))
        hi = _simulate_epidemic([8e-5, 10, 10, 0.1, 3e-5], 100_000, 56, RngStream(i))
        lo_final.append(lo[-1])
        hi_final.append(hi[-1])
    assert np.mean(hi_final) > 10 * np.mean(lo_final)


def test_make_simulator_unknown_name_lists_registry():
    with pytest.raises(ConfigError, match="normal-location"):
        make_simulator("does-not-exist", {})


def test_reference_table_shape_and_determinism():
    prior = PriorSpec((NormalCoord(0.0, 5.0),))
    sim = NormalLocationSimulator(noise_var=10.0, n_obs=20)
    t1 = generate_reference_table(prior, sim, 100, RngStream(5))
    t2 = generate_reference_table(prior, sim, 100, RngStream(5))
    assert t1.thetas.shape == (100, 1)
    assert t1.ys.shape == (100, 20)
    assert np.array_equal(t1.thetas, t2.thetas)
    assert np.array_equal(t1.ys, t2.ys)


def test_reference_table_thread_invariance():
    prior = PriorSpec((UniformCoord(0.0, 1.0),))
    sim = NormalLocationSimulator(noise_var=1.0, n_obs=4)
    serial = generate_reference_table(prior, sim, 1000, RngStream(8), block_size=128)
    threaded = generate_reference_table(
        prior, sim, 1000, RngStream(8), block_size=128, threads=4
    )
    assert np.array_equal(serial.thetas, threaded.thetas)
    assert np.array_equal(serial.ys, threaded.ys)


def test_reference_table_fills_blocks_in_place():
    # Blocks written into the preallocated table, serially or threaded,
    # give the bytes of simulating every block and stacking them.
    prior = PriorSpec((NormalCoord(0.0, 2.0), UniformCoord(1.0, 3.0)))
    sim = NormalLocationSimulator(noise_var=1.0, n_obs=5)
    rng = RngStream(9)
    blocks = []
    for b in range(4):
        gen = rng.child(b).generator
        thetas = prior.sample(gen, min(300, 1000 - 300 * b))
        blocks.append((thetas, sim.simulate_batch(thetas, gen)))
    want_thetas = np.vstack([t for t, _ in blocks])
    want_ys = np.vstack([y for _, y in blocks])
    for threads in (1, 2):
        table = generate_reference_table(prior, sim, 1000, rng, block_size=300, threads=threads)
        assert table.thetas.tobytes() == want_thetas.tobytes()
        assert table.ys.tobytes() == want_ys.tobytes()


@pytest.mark.parametrize("threads", [1, 2])
def test_simulator_of_wrong_shape_is_data_error(threads):
    class ShortRowSim:
        name = "short-rows"
        y_dim = 4

        def simulate_batch(self, thetas, gen):
            return gen.normal(size=(thetas.shape[0], 1))  # broadcastable to y_dim

    prior = PriorSpec((NormalCoord(0.0, 1.0),))
    with pytest.raises(DataError, match="shape"):
        generate_reference_table(
            prior, ShortRowSim(), 50, RngStream(3), block_size=20, threads=threads
        )


def test_single_row_table():
    prior = PriorSpec((NormalCoord(1.0, 1.0),))
    sim = NormalLocationSimulator(noise_var=1.0, n_obs=3)
    t = generate_reference_table(prior, sim, 1, RngStream(2))
    assert t.n_rows == 1


def test_posterior_mean_slope_across_table():
    # For the conjugate pair, E[theta | ybar] is linear in ybar with slope
    # n*prior_var / (noise_var + n*prior_var); check by regression over a
    # large table.
    prior = PriorSpec((NormalCoord(0.0, 5.0),))
    sim = NormalLocationSimulator(noise_var=10.0, n_obs=25)
    t = generate_reference_table(prior, sim, 50_000, RngStream(13))
    ybar = t.ys.mean(axis=1)
    slope = np.cov(t.thetas[:, 0], ybar)[0, 1] / np.var(ybar)
    expected = 25 * 5.0 / (10.0 + 25 * 5.0)
    assert abs(slope - expected) < 0.01


def test_non_finite_rows_rejected():
    with pytest.raises(DataError):
        ReferenceTable(
            thetas=np.array([[np.inf]]), ys=np.array([[1.0]]),
            seed=0, simulator="x",
        )


def test_quantile_trajectories_of_known_replicates():
    # Replicates 1..100 as constant curves: the pointwise median of the
    # linear-interpolation order statistics is 50.5.
    curves = np.tile(np.arange(1.0, 101.0)[:, None], (1, 4))
    traj = quantile_index_replicates(curves, (0.05, 0.5, 0.95))
    assert traj.shape == (3, 4)
    assert np.allclose(traj[1], 50.5)
    # Trajectories are ordered by level at every week.
    assert np.all(np.diff(traj, axis=0) >= 0.0)


def test_quantile_trajectories_validation():
    with pytest.raises(ValueError):
        quantile_index_replicates(np.ones((1, 5)))  # one replicate
    with pytest.raises(ValueError):
        quantile_index_replicates(np.ones((10, 5)), probs=(0.5, 0.5))
    with pytest.raises(ValueError):
        quantile_index_replicates(np.ones((10, 5)), probs=(0.0, 0.5))
    with pytest.raises(ValueError):
        quantile_index_replicates(np.ones((10, 5)), probs=(0.1, np.nan, 0.9))


def _small_table():
    prior = PriorSpec((NormalCoord(0.0, 2.0), UniformCoord(1.0, 3.0)))
    sim = NormalLocationSimulator(noise_var=1.0, n_obs=6)

    class TwoParamSim:
        name = "normal-location"
        theta_dim = 2
        y_dim = 6
        noise_var = 1.0
        n_obs = 6

        def simulate_batch(self, thetas, gen):
            return gen.normal(loc=thetas[:, :1], scale=1.0, size=(thetas.shape[0], 6))

    return generate_reference_table(prior, TwoParamSim(), 37, RngStream(21))


def test_binary_round_trip_is_lossless(tmp_path):
    table = _small_table()
    path = tmp_path / "table.gbct"
    write_table_binary(path, table)
    back = read_table_binary(path)
    assert np.array_equal(back.thetas, table.thetas)
    assert np.array_equal(back.ys, table.ys)
    assert back.seed == table.seed
    assert back.simulator == table.simulator


def test_binary_write_is_bit_identical(tmp_path):
    table = _small_table()
    p1, p2 = tmp_path / "a.gbct", tmp_path / "b.gbct"
    write_table_binary(p1, table)
    write_table_binary(p2, table)
    assert p1.read_bytes() == p2.read_bytes()


def test_binary_bad_magic_is_structured_error(tmp_path):
    path = tmp_path / "bad_magic.gbct"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(DataError, match="magic"):
        read_table_binary(path)


def test_binary_bad_version_is_structured_error(tmp_path):
    table = _small_table()
    path = tmp_path / "bad_version.gbct"
    write_table_binary(path, table)
    blob = bytearray(path.read_bytes())
    blob[4] = 99  # bump the version field
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="version"):
        read_table_binary(path)


def test_binary_truncated_prefixes_are_data_errors(tmp_path):
    path = tmp_path / "table.gbct"
    write_table_binary(path, _small_table())
    blob = path.read_bytes()
    cut = tmp_path / "cut.gbct"
    for size in range(len(blob)):
        cut.write_bytes(blob[:size])
        with pytest.raises(DataError):
            read_table_binary(cut)


def test_prior_spec_box_and_describe():
    prior = PriorSpec((UniformCoord(0.0, 1.0), NormalCoord(2.0, 3.0)))
    box = prior.box()
    assert box[0] == (0.0, 1.0)
    assert box[1] is None
