"""Forward simulators and reference-table generation.

A reference table is N rows of (theta, y) with theta drawn from the prior
and y simulated at that theta — the training corpus for summaries and
quantile networks. Tables are generated in row blocks, each block on its own
child stream, so output is bit-identical no matter how many worker threads
run (and regenerable from seed + config alone). :func:`map_blocks` is the one
thread fan-out of the package: the reference table, the ABC proposal pool and
the epidemic benchmark's predictive cells all run through it, each block on
its own stream and writing only its own rows.

Tables are written, read and checked for finiteness in blocks of
``formats.ROW_BLOCK`` rows, so no stage holds a second copy of a table.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .formats import ROW_BLOCK, BinaryReader, BinaryWriter
from .quantile import checked_tau_grid

# Parameter box for the epidemic scenario coordinates theta1..theta5:
# per-contact transmission probability, initial infected, intervention week,
# intervention efficacy, travel-reduction driver.
EPIDEMIC_RANGES = (
    (3e-5, 8e-5),
    (1.0, 20.0),
    (2.0, 10.0),
    (0.1, 0.8),
    (3e-5, 8e-5),
)

EPIDEMIC_QUANTILE_PROBS = (0.05, 0.275, 0.5, 0.725, 0.95)


@dataclass(frozen=True)
class UniformCoord:
    lo: float
    hi: float

    def __post_init__(self):
        if not -np.inf < self.lo < self.hi < np.inf:
            raise ConfigError(
                f"uniform prior needs finite lo < hi, got [{self.lo}, {self.hi}]"
            )

    def sample(self, gen, size):
        return gen.uniform(self.lo, self.hi, size=size)


@dataclass(frozen=True)
class NormalCoord:
    mean: float
    var: float

    def __post_init__(self):
        if not (abs(self.mean) < np.inf and 0 < self.var < np.inf):
            raise ConfigError(
                "normal prior needs a finite mean and a finite variance > 0, "
                f"got normal({self.mean}, {self.var})"
            )

    def sample(self, gen, size):
        return gen.normal(self.mean, np.sqrt(self.var), size=size)


@dataclass(frozen=True)
class PriorSpec:
    """Independent per-coordinate prior: uniform(lo, hi) or normal(mean, var)."""

    coords: tuple

    def __post_init__(self):
        if not self.coords:
            raise ConfigError("prior needs at least one coordinate")
        object.__setattr__(self, "coords", tuple(self.coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def sample(self, gen, size) -> np.ndarray:
        cols = [c.sample(gen, size) for c in self.coords]
        return np.column_stack(cols)

    def box(self):
        """(lo, hi) per coordinate where bounded; None for normal coordinates."""
        out = []
        for c in self.coords:
            out.append((c.lo, c.hi) if isinstance(c, UniformCoord) else None)
        return out


class NormalLocationSimulator:
    """y_1..y_n i.i.d. N(theta, noise_var) given scalar theta."""

    name = "normal-location"

    def __init__(self, noise_var, n_obs):
        if not 0 < noise_var < np.inf:
            raise ConfigError(
                f"[simulator] noise_var must be positive and finite, got {noise_var}"
            )
        if n_obs < 1:
            raise ConfigError("n_obs must be at least 1")
        self.noise_var = float(noise_var)
        self.n_obs = int(n_obs)

    @property
    def theta_dim(self):
        return 1

    @property
    def y_dim(self):
        return self.n_obs

    def simulate(self, theta, gen):
        return gen.normal(float(theta[0]), np.sqrt(self.noise_var), size=self.n_obs)

    def simulate_batch(self, thetas, gen):
        # Bit for bit gen.normal(loc=thetas[:, :1], scale=..., size=...): that
        # also draws z in C order and returns loc + scale * z, but broadcasts
        # loc and scale per element, which is slower.
        thetas = np.asarray(thetas, dtype=np.float64)
        ys = gen.standard_normal((thetas.shape[0], self.n_obs))
        ys *= np.sqrt(self.noise_var)
        ys += thetas[:, :1]
        return ys


def _epidemic_weeks(thetas, pop, weeks, gen, contact, replicates=1):
    """Vectorized chain-binomial over B parameter rows, R = ``replicates``
    runs of each, one week at a time.

    Yields the (B, R) int64 cumulative counts of each week in turn. The
    per-row constants are (B, 1) columns, so a row's R runs share them;
    the binomial draws see the same (n, p) values, in the same C order, as
    a (B*R,)-row run of ``np.repeat(thetas, R, axis=0)``. The array is
    updated in place when the next week is drawn, so a consumer that keeps
    it must copy it.
    """
    t1, t2, t3, t4, t5 = (thetas[:, k : k + 1] for k in range(5))
    contact_eff = contact * (1.0 - 0.5 * t5 / 8e-5)
    intervene_week = np.ceil(t3)
    # log(1 - t1_eff) before and after the intervention; each week picks one.
    log_keep_before = np.log1p(-t1)
    log_keep_after = np.log1p(-(t1 * (1.0 - t4)))
    # ceil keeps the curve's starting value at or above theta2 even when
    # theta2 is not a whole number.
    init = np.minimum(np.ceil(t2), pop).astype(np.int64)
    shape = (thetas.shape[0], replicates)
    susceptible = np.broadcast_to(pop - init, shape).copy()
    active = np.broadcast_to(init, shape).copy()
    cum = active.copy()
    p_inf = np.empty(shape)
    for week in range(1, weeks + 1):
        log_keep = np.where(week >= intervene_week, log_keep_after, log_keep_before)
        # Infection probability per susceptible this week, one minus the
        # escape probability exp(contact_eff * active * log_keep).
        np.multiply(contact_eff, active, out=p_inf)
        np.multiply(p_inf, log_keep, out=p_inf)
        np.expm1(p_inf, out=p_inf)
        np.negative(p_inf, out=p_inf)
        np.clip(p_inf, 0.0, 1.0, out=p_inf)
        new = gen.binomial(susceptible, p_inf)
        susceptible -= new
        cum += new
        active = new
        yield cum


def _epidemic_batch(thetas, pop, weeks, gen, contact, replicates=1):
    """The (B*R, weeks) cumulative curves of :func:`_epidemic_weeks`; row
    b*R + r is replicate r of parameter row b."""
    curves = np.empty((thetas.shape[0], replicates, weeks), dtype=np.float64)
    weekly = _epidemic_weeks(thetas, pop, weeks, gen, contact, replicates)
    for week, cum in enumerate(weekly):
        curves[:, :, week] = cum
    return curves.reshape(-1, weeks)


class EpidemicSimulator:
    """Chain-binomial epidemic over a fixed horizon; y is the cumulative curve.

    Each week, every susceptible independently escapes infection with
    probability (1 - t1_eff)^(contact_eff * I_t) where I_t is the count
    infected in the previous week. From week ceil(theta3) onward the
    transmission probability theta1 is scaled by (1 - theta4); reduced
    travel scales the contact factor by (1 - 0.5 * theta5 / 8e-5). Curves
    are non-decreasing integer counts starting at or above the initial
    infected count and capped at the population. Theta must lie in
    EPIDEMIC_RANGES.
    """

    name = "epidemic"

    def __init__(self, population=100_000, weeks=56, contact=0.5):
        if population < 1 or weeks < 1:
            raise ConfigError("population and weeks must be positive")
        if not abs(contact) < np.inf:
            raise ConfigError(f"[simulator] contact must be finite, got {contact}")
        self.population = int(population)
        self.weeks = int(weeks)
        self.contact = float(contact)

    @property
    def theta_dim(self):
        return 5

    @property
    def y_dim(self):
        return self.weeks

    def simulate_batch(self, thetas, gen, replicates=1):
        """The (B*R, weeks) curves of R = ``replicates`` runs of each row
        (see :func:`_epidemic_batch`)."""
        thetas = np.asarray(thetas, dtype=np.float64)
        self.validate(thetas)
        return _epidemic_batch(
            thetas, self.population, self.weeks, gen, self.contact, replicates
        )

    def simulate_weeks(self, thetas, gen, replicates=1):
        """Validate ``thetas``, then stream each week's (B, R) cumulative
        counts of R = ``replicates`` runs of each row (see
        :func:`_epidemic_weeks`)."""
        thetas = np.asarray(thetas, dtype=np.float64)
        self.validate(thetas)
        return _epidemic_weeks(
            thetas, self.population, self.weeks, gen, self.contact, replicates
        )

    def validate(self, thetas):
        """Raise ValueError unless every row is a 5-parameter scenario inside
        EPIDEMIC_RANGES."""
        if thetas.shape[1] != 5:
            raise ValueError("epidemic scenarios have exactly 5 parameters")
        for k, (lo, hi) in enumerate(EPIDEMIC_RANGES):
            col = thetas[:, k]
            if np.any(col < lo) or np.any(col > hi):
                raise ValueError(f"theta{k + 1} outside scenario range [{lo}, {hi}]")


SIMULATOR_NAMES = ("normal-location", "epidemic")


def make_simulator(name, params):
    """Build a registered simulator from a flat parameter mapping, the
    ``[simulator]`` section of a run config."""
    from .config import RunConfig  # config imports this module

    cfg = RunConfig(sections={"simulator": dict(params)})
    if name == "normal-location":
        return NormalLocationSimulator(
            noise_var=cfg.get_float("simulator", "noise_var", 1.0),
            n_obs=cfg.get_int("simulator", "n_obs", 100),
        )
    if name == "epidemic":
        return EpidemicSimulator(
            population=cfg.get_int("simulator", "population", 100_000),
            weeks=cfg.get_int("simulator", "weeks", 56),
            contact=cfg.get_float("simulator", "contact", 0.5),
        )
    raise ConfigError(
        f"unknown simulator {name!r}; registered simulators: "
        + ", ".join(SIMULATOR_NAMES)
    )


@dataclass
class ReferenceTable:
    """N rows of (theta, y): theta from the prior, y simulated at theta."""

    thetas: np.ndarray  # (N, d)
    ys: np.ndarray  # (N, n)
    seed: int
    simulator: str

    def __post_init__(self):
        self.thetas = np.ascontiguousarray(self.thetas, dtype=np.float64)
        self.ys = np.ascontiguousarray(self.ys, dtype=np.float64)
        if self.thetas.ndim != 2 or self.ys.ndim != 2:
            raise ValueError("table arrays must be 2-D")
        if self.thetas.shape[0] != self.ys.shape[0]:
            raise ValueError("theta and y row counts differ")
        for start in range(0, self.thetas.shape[0], ROW_BLOCK):
            rows = slice(start, start + ROW_BLOCK)
            for part in (self.thetas[rows], self.ys[rows]):
                if not np.isfinite(part).all():
                    raise DataError("reference table contains non-finite values")

    @property
    def n_rows(self):
        return self.thetas.shape[0]

    @property
    def theta_dim(self):
        return self.thetas.shape[1]

    @property
    def y_dim(self):
        return self.ys.shape[1]


def cpu_count():
    """CPUs this process may run on: its affinity set where the platform has
    one (Linux), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_blocks(fn, n, threads):
    """``[fn(0), ..., fn(n - 1)]`` on up to ``min(n, threads)`` threads.

    With one thread the calls run in order on the calling thread. Otherwise
    a pool opened for this call runs them and is shut down before it
    returns, so no pool thread is left alive when ``train_chain`` forks. A
    failing block raises as from a serial loop: results are read in block
    order, so the first failing block's exception is the one raised, and the
    blocks not yet started are cancelled. Each ``fn(b)`` must write only its
    own outputs. The threads overlap inside NumPy's random and array
    kernels, which release the interpreter lock.
    """
    workers = min(n, threads)
    if workers <= 1:
        return [fn(b) for b in range(n)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n)))


def simulate_block(prior, simulator, rng, b, start, stop):
    """Rows [start, stop) of a simulated table, as block ``b``: prior draws
    on ``rng.child(b)`` and the simulator's rows at them, in that order on
    that stream. Returns ``(thetas, ys)``; a simulator that fails or a
    block of the wrong shape ends in DataError."""
    gen = rng.child(b).generator
    theta_block = prior.sample(gen, stop - start)
    try:
        y_block = simulator.simulate_batch(theta_block, gen)
    except Exception as exc:
        raise DataError(
            f"simulator {simulator.name!r} failed in rows [{start}, {stop}): {exc}"
        ) from exc
    for name, block, width in (("prior", theta_block, prior.dim),
                               (f"simulator {simulator.name!r}", y_block,
                                simulator.y_dim)):
        want = (stop - start, width)
        if np.shape(block) != want:
            raise DataError(
                f"{name} returned shape {np.shape(block)} for rows "
                f"[{start}, {stop}), expected {want}"
            )
    return theta_block, y_block


def generate_reference_table(
    prior, simulator, n_rows, rng, block_size=4096, threads=1
) -> ReferenceTable:
    """Simulate an N-row reference table from prior x simulator.

    Rows are produced in blocks of ``block_size``; block b draws from
    ``rng.child(b)`` and writes its own rows of the preallocated table, so
    the result does not depend on ``threads``.
    """
    if n_rows < 1:
        raise ValueError("need at least one table row")
    n_blocks = (n_rows + block_size - 1) // block_size
    thetas = np.empty((n_rows, prior.dim))
    ys = np.empty((n_rows, simulator.y_dim))

    def run_block(b):
        start = b * block_size
        stop = min(n_rows, start + block_size)
        thetas[start:stop], ys[start:stop] = simulate_block(
            prior, simulator, rng, b, start, stop
        )

    map_blocks(run_block, n_blocks, threads)
    return ReferenceTable(
        thetas=thetas,
        ys=ys,
        seed=rng.seed,
        simulator=simulator.name,
    )


def quantile_index_replicates(curves, probs=EPIDEMIC_QUANTILE_PROBS):
    """Reduce replicate curves to pointwise empirical quantile trajectories:
    one row per prob (linear-interpolation order statistics, applied per
    week). Quantile trajectories are non-decreasing in the prob at every
    week. ``probs`` are checked as ``checked_tau_grid`` checks a grid.
    """
    curves = np.asarray(curves, dtype=np.float64)
    if curves.ndim != 2 or curves.shape[0] == 0:
        raise ValueError("need a non-empty (replicates x weeks) array")
    if curves.shape[0] < 2:
        raise ValueError("need at least two replicates")
    return np.quantile(curves, checked_tau_grid(probs), axis=0, method="linear")


# ---------------------------------------------------------------------------
# Persistence: magic "GBCT", version, u32 N, d, n, u64 seed, u16-prefixed
# UTF-8 simulator name, then the rows as a float64 row-major payload. The
# payload is written and read ROW_BLOCK rows at a time, straight from and into
# the table's own theta and y arrays.

_GBCT_MAGIC = b"GBCT"
_GBCT_VERSION = 1


def write_table_binary(path, table: ReferenceTable) -> None:
    name = table.simulator.encode("utf-8")
    with open(path, "wb") as fh:
        w = BinaryWriter(fh, _GBCT_MAGIC, _GBCT_VERSION)
        w.pack(
            "IIIQH", table.n_rows, table.theta_dim, table.y_dim, table.seed, len(name)
        )
        w.raw(name)
        w.rows(table.thetas, table.ys)


def read_table_binary(path) -> ReferenceTable:
    with BinaryReader(path, _GBCT_MAGIC, _GBCT_VERSION, "reference table") as r:
        n_rows, d, n, seed, name_len = r.unpack("IIIQH")
        try:
            simulator = r.raw(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: simulator name is not UTF-8: {exc}") from exc
        thetas, ys = r.rows(n_rows, d, n)
        r.finish()
    return ReferenceTable(thetas=thetas, ys=ys, seed=seed, simulator=simulator)
