"""The benchmark's workloads.

Each workload is a closed loop: one process runs its stages back to back,
through the same public gbc calls the CLI subcommands make. A workload has
three parts:

- ``setup`` parses the config and builds what the timed body needs;
- ``run`` is the timed body, one ``stages(...)`` block per stage;
- ``verify`` checks the outputs and returns rates, accuracy values, digests
  and the per-layer values the workload measures itself. It runs untimed and
  untraced.

Accuracy thresholds are the ones ``benchmark_normal`` and the epidemic
config use. They are calibrated at each config's pinned seed, so they are
gated only there (see README.md); everywhere else they are reported.
"""

from __future__ import annotations

import hashlib
import math
import os
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
from scipy import stats

from gbc import baselines, checkpoint, models, pipeline, quantile
from gbc.analytic import NormalNormalModel, conjugate_posterior
from gbc.config import (
    RunConfig,
    optimizer_spec_from_config,
    prior_from_config,
    simulator_params,
)
from gbc.rng import RngStream
from gbc.summaries import SummaryMap


class Stages:
    """Wall time per named stage of one timed body."""

    def __init__(self):
        self.seconds = {}

    @contextmanager
    def __call__(self, name):
        start = perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + perf_counter() - start


@dataclass
class Verdict:
    """What ``verify`` found for one pass of the timed body."""

    checks: list = field(default_factory=list)  # (name, ok, gated, detail)
    rates: dict = field(default_factory=dict)  # end-to-end and informational
    accuracy: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)  # per-layer values not from spans

    def check(self, name, ok, detail="", gated=True):
        self.checks.append((name, bool(ok), gated, detail))


@contextmanager
def probe(owner, attr, record):
    """Call ``record(args, result, seconds)`` after every ``owner.attr`` call."""
    original = getattr(owner, attr)

    def timed(*args, **kwargs):
        start = perf_counter()
        result = original(*args, **kwargs)
        record(args, result, perf_counter() - start)
        return result

    setattr(owner, attr, timed)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def table_digest(table, work):
    path = work / "digest-table.gbct"
    models.write_table_binary(path, table)
    try:
        return sha256_file(path)
    finally:
        path.unlink()


def same_bits(a, b):
    """Bit-for-bit equality of two float64 arrays, without copying them."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def same_table(a, b):
    return (same_bits(a.thetas, b.thetas) and same_bits(a.ys, b.ys)
            and (a.seed, a.simulator) == (b.seed, b.simulator))


def loss_trace_digest(traces, work):
    """Digest of the loss trace written as ``gbc train`` writes loss_trace.csv."""
    path = work / "digest-loss_trace.csv"
    pipeline.write_csv(
        path,
        ["epoch"] + [f"pinball_{k}" for k in range(traces.shape[1])],
        [[i, *traces[i]] for i in range(traces.shape[0])],
    )
    try:
        return sha256_file(path)
    finally:
        path.unlink()


class Watch:
    """Times gbc calls inside a timed body without tracing it: every
    posterior ``sample`` call and every ``train_chain`` call, with what the
    latter returned.

    Both rates divide the work of every watched call by the time of those
    calls, so each averages over all the stretches of machine speed it ran
    in (see README.md).
    """

    def __init__(self):
        self.samples = []  # (draws, seconds) per sample call
        self.trainings = []  # (table, checkpoint, loss traces, seconds) per train_chain call

    def __enter__(self):
        def on_sample(args, result, seconds):
            self.samples.append((result.shape[0], seconds))

        def on_train(args, result, seconds):
            self.trainings.append((args[1], *result, seconds))

        self._probes = ExitStack()
        self._probes.enter_context(
            probe(quantile.AutoregressiveQuantileModel, "sample", on_sample)
        )
        self._probes.enter_context(probe(pipeline, "train_chain", on_train))
        return self

    def __exit__(self, *exc):
        return self._probes.__exit__(*exc)

    @property
    def trained(self):
        """(table, checkpoint, loss traces) of the last ``train_chain`` call."""
        return self.trainings[-1][:3]

    def train_steps_per_s(self, cfg):
        """IQN minibatch steps over ``train_chain`` time. The loss trace has
        one row per epoch and one column per net."""
        batch = optimizer_spec_from_config(cfg).batch_size
        steps = sum(traces.size * math.ceil(table.n_rows / batch)
                    for table, _, traces, _ in self.trainings)
        return steps / sum(seconds for *_, seconds in self.trainings)

    def sample_draws_per_s(self):
        return sum(d for d, _ in self.samples) / sum(s for _, s in self.samples)


def load_config(root, name, overrides):
    cfg = RunConfig.from_file(root / "configs" / name)
    for (section, key), value in overrides.items():
        cfg.set(section, key, value)
    return cfg


@dataclass
class NormalInputs:
    simulator: object
    prior: object
    y_obs: np.ndarray
    posterior: object


def normal_inputs(cfg, seed):
    """y_obs and its exact posterior, built as ``benchmark_normal`` builds them."""
    prior = prior_from_config(cfg)
    simulator = models.make_simulator(cfg.get_str("run", "simulator"), simulator_params(cfg))
    theta_true = cfg.get_float("benchmark", "theta_true", 3.0)
    y_obs = simulator.simulate(np.array([theta_true]), RngStream(seed).child("y-obs").generator)
    posterior = conjugate_posterior(
        NormalNormalModel(
            prior_mean=prior.coords[0].mean,
            prior_var=prior.coords[0].var,
            noise_var=simulator.noise_var,
            y=tuple(y_obs),
        )
    )
    return NormalInputs(simulator, prior, y_obs, posterior)


@dataclass
class State:
    cfg: RunConfig
    seed: int
    gated: bool  # accuracy thresholds apply: pinned seed at full size
    work: object
    extra: dict = field(default_factory=dict)
    setup_watch: Watch | None = None  # watched all set-ups of the run


class NormalTrain:
    """Training-bound: the quantile chain on ``normal.ini`` with fewer epochs.

    At 1.1-1.6 ms per minibatch step, training is about 90% of the wall
    time, so any change to ``nets`` or ``quantile`` training shows in full.
    """

    name = "normal-train"
    config = "normal.ini"
    epochs = 60
    sample_repeats = 20  # one 10^4-draw call takes tens of ms

    def setup(self, root, work, seed, tiny):
        overrides = {("optimizer", "epochs"): 2 if tiny else self.epochs}
        if tiny:
            overrides[("run", "table_rows")] = 600
        cfg = load_config(root, self.config, overrides)
        seed = cfg.get_int("run", "seed") if seed is None else seed
        state = State(cfg, seed, not tiny and seed == cfg.get_int("run", "seed"), work)
        state.extra["inputs"] = normal_inputs(cfg, seed)
        state.extra["n_draws"] = 500 if tiny else cfg.get_int("sampling", "n_draws", 10_000)
        return state

    def run(self, st, stages):
        cfg, seed, inputs = st.cfg, st.seed, st.extra["inputs"]
        path = st.work / "model.gbcq"
        with Watch() as watch:
            with stages("build_table"):
                table = pipeline.build_table(cfg, seed)
            with stages("fit_summary"):
                summary, _, _ = pipeline.fit_summary(cfg, table, seed)
            with stages("train_chain"):
                ckpt, traces = pipeline.train_chain(cfg, table, summary, seed)
            with stages("checkpoint"):
                checkpoint.save_checkpoint(path, ckpt)
                model = checkpoint.load_checkpoint(path).model()
            with stages("quantile_curve"):
                curve, crossing = quantile.posterior_quantile_curve(
                    model, inputs.y_obs, cfg.get_floats("sampling", "tau_grid")
                )
            with stages("sample"):
                for _ in range(self.sample_repeats):
                    draws = model.sample(
                        inputs.y_obs, st.extra["n_draws"], RngStream(seed).child("net-sample")
                    )
        return dict(table=table, ckpt=ckpt, traces=traces, path=path,
                    curve=curve, crossing=crossing, draws=draws, watch=watch)

    def verify(self, st, out, stages):
        v = Verdict()
        inputs, post = st.extra["inputs"], st.extra["inputs"].posterior
        sigma = post.sd
        in_memory = out["ckpt"].model().sample(
            inputs.y_obs, st.extra["n_draws"], RngStream(st.seed).child("net-sample")
        )
        v.check("reloaded_draws_equal", np.array_equal(in_memory, out["draws"]),
                "draws from the reloaded model.gbcq equal the in-memory draws")
        v.check("loss_trace_finite", np.all(np.isfinite(out["traces"])))
        w1 = baselines.w1_distance(out["draws"][:, 0], post.quantile)
        limit = pipeline.NET_W1_SIGMA * sigma
        v.check("net_w1", w1 < limit, f"W1 {w1:.4g} < {limit:.4g}", gated=st.gated)
        grid = np.asarray(st.cfg.get_floats("sampling", "tau_grid"))
        qerr = float(np.max(np.abs(out["curve"] - post.quantile(grid))))
        v.accuracy["net_w1_sigma"] = w1 / sigma
        # Reported, never gated: the 0.15 sigma limit is tuned for 2000 epochs.
        v.accuracy["net_max_qerr_sigma"] = qerr / sigma
        v.digests["table"] = table_digest(out["table"], st.work)
        v.digests["model"] = sha256_file(out["path"])
        v.digests["loss_trace"] = loss_trace_digest(out["traces"], st.work)
        v.rates["train_steps_per_s"] = out["watch"].train_steps_per_s(st.cfg)
        v.rates["sample_draws_per_s"] = out["watch"].sample_draws_per_s()
        v.layer["quantile.crossing_rate"] = out["crossing"]
        return v


def _location_G(u, th):
    return np.array([th[0] + u])


def _normal_u(gen):
    return float(gen.normal())


class NormalBaselines:
    """No backward pass or optimizer step in the timed body: table
    generation and I/O, the ABC sweep, then 20 rounds of one fiducial call
    at a twentieth of its budget and one forward-only sampling call of
    5,000 draws, from a checkpoint trained during set-up."""

    name = "normal-baselines"
    config = "normal.ini"
    table_rows = 200_000
    sampler_epochs = 10  # enough training for a steady train_steps_per_s
    # The fiducial loop is per draw, so its budget splits into equal calls.
    # Alternating them with the sample calls spreads the sample calls over
    # the pass, so that their time is not bound to one slow stretch of a
    # shared machine. Each call has its own stream.
    rounds = 20

    def setup(self, root, work, seed, tiny):
        cfg = load_config(root, self.config, {})
        pinned = cfg.get_int("run", "seed")
        seed = pinned if seed is None else seed
        st = State(cfg, seed, not tiny and seed == pinned, work)
        st.extra["inputs"] = normal_inputs(cfg, seed)
        st.extra["threads"] = min(2, len(os.sched_getaffinity(0)))
        st.extra["table_cfg"] = load_config(
            root, self.config, {("run", "table_rows"): 5000 if tiny else self.table_rows}
        )
        st.extra["abc_budget"] = 5000 if tiny else cfg.get_int("abc", "budget")
        st.extra["fiducial_budget"] = 50 if tiny else cfg.get_int("fiducial", "budget")
        st.extra["n_draws"] = 100 if tiny else 5_000

        sampler_cfg = load_config(root, self.config, {
            ("optimizer", "epochs"): 2 if tiny else self.sampler_epochs,
            ("run", "table_rows"): 600 if tiny else cfg.get_int("run", "table_rows"),
        })
        table = pipeline.build_table(sampler_cfg, seed)
        summary, _, _ = pipeline.fit_summary(sampler_cfg, table, seed)
        ckpt, traces = pipeline.train_chain(sampler_cfg, table, summary, seed)
        st.extra["sampler_cfg"] = sampler_cfg
        st.extra["sampler"] = work / "sampler.gbcq"
        st.extra["sampler_traces"] = traces
        checkpoint.save_checkpoint(st.extra["sampler"], ckpt)
        return st

    def run(self, st, stages):
        seed, inputs, root = st.seed, st.extra["inputs"], RngStream(st.seed)
        path = st.work / "table.gbct"
        with stages("gen_table"):
            table = pipeline.build_table(st.extra["table_cfg"], seed, threads=st.extra["threads"])
        with stages("table_io"):
            models.write_table_binary(path, table)
            back = models.read_table_binary(path)
        n_obs = inputs.simulator.n_obs
        mean_map = SummaryMap(
            kind="linear", matrix=np.full((1, n_obs), 1.0 / n_obs), intercept=np.zeros(1)
        )
        abc_cfg = baselines.AbcConfig(
            epsilon=0.0, summary=mean_map, standardize=st.cfg.get_bool("abc", "standardize")
        )
        with stages("abc"):
            sweep = baselines.abc_epsilon_sweep(
                inputs.simulator, inputs.prior, inputs.y_obs, abc_cfg,
                st.cfg.get_floats("abc", "epsilons"), st.extra["abc_budget"],
                root.child("abc"), block_size=st.cfg.get_int("abc", "block_size"),
            )
        y_bar = float(np.mean(inputs.y_obs))
        with stages("load"):
            model = checkpoint.load_checkpoint(st.extra["sampler"]).model()
        fid, draws = [], []
        with Watch() as watch:
            for i in range(self.rounds):
                with stages("fiducial"):
                    fid.append(baselines.fiducial_rejection(
                        G=_location_G, sample_u=_normal_u, y_obs=np.array([y_bar]),
                        epsilon=math.inf, budget=st.extra["fiducial_budget"] // self.rounds,
                        rng=root.child(f"fiducial-{i}"),
                        theta_bounds=[(y_bar - 12.0, y_bar + 12.0)],
                    ))
                with stages("sample"):
                    draws.append(model.sample(
                        inputs.y_obs, st.extra["n_draws"], root.child(f"sample-{i}")
                    ))
        return dict(table=table, back=back, path=path, sweep=sweep, fid=fid,
                    y_bar=y_bar, model=model, draws=np.vstack(draws), watch=watch)

    def verify(self, st, out, stages):
        v = Verdict()
        table, back = out.pop("table"), out.pop("back")
        v.check("gbct_round_trip_exact", same_table(back, table))
        del back
        v.digests["table"] = sha256_file(out["path"])
        out["path"].unlink()
        if "single" not in st.extra:
            # The 1-thread table is the same at every pass, so it is built
            # once, at the first; later passes compare digests.
            start = perf_counter()
            single = pipeline.build_table(st.extra["table_cfg"], st.seed, threads=1)
            single_s = perf_counter() - start
            st.extra["single"] = (table_digest(single, st.work), single_s)
            del single
        single_digest, single_s = st.extra["single"]
        threads = st.extra["threads"]
        v.check("thread_tables_equal", single_digest == v.digests["table"],
                f"table at {threads} threads equals the 1-thread table")
        v.layer["models.table_scaling_eff"] = single_s / stages.seconds["gen_table"] / threads

        post = st.extra["inputs"].posterior
        sigma = post.sd
        sweep = sorted(out["sweep"], key=lambda r: r.epsilon)
        counts = [r.n_accepted for r in sweep]
        v.check("abc_counts_monotone", counts == sorted(counts),
                f"accepted counts by increasing epsilon {counts}")
        final = sweep[0]
        w1 = (baselines.w1_distance(final.thetas[:, 0], post.quantile)
              if final.n_accepted else math.inf)
        limit = pipeline.ABC_FINAL_W1_SIGMA * sigma
        v.check("abc_final_w1", w1 < limit, f"W1 {w1:.4g} < {limit:.4g}", gated=st.gated)
        skipped = sum(f.n_skipped for f in out["fid"])
        v.check("fiducial_no_skips", skipped == 0, f"{skipped} skipped")
        fid_thetas = np.vstack([f.thetas for f in out["fid"]])[:, 0]
        ks_p = float(stats.kstest(fid_thetas, "norm", args=(out["y_bar"], 1.0)).pvalue)
        v.check("fiducial_ks", ks_p > pipeline.KS_SIGNIFICANCE,
                f"p {ks_p:.4g} > {pipeline.KS_SIGNIFICANCE}", gated=st.gated)
        v.check("sample_draws_finite", np.all(np.isfinite(out["draws"])))
        v.accuracy["abc_final_w1_sigma"] = w1 / sigma
        v.accuracy["fiducial_ks_p"] = ks_p
        v.digests["model"] = sha256_file(st.extra["sampler"])
        v.digests["loss_trace"] = loss_trace_digest(st.extra["sampler_traces"], st.work)

        s = stages.seconds
        # The set-up training is the only training this workload does.
        v.rates["train_steps_per_s"] = st.setup_watch.train_steps_per_s(st.extra["sampler_cfg"])
        v.rates["sample_draws_per_s"] = out["watch"].sample_draws_per_s()
        v.rates["table_rows_per_s"] = table.n_rows / s["gen_table"]
        v.rates["abc_proposals_per_s"] = st.extra["abc_budget"] / s["abc"]
        v.rates["fiducial_draws_per_s"] = st.extra["fiducial_budget"] / s["fiducial"]
        _, v.layer["quantile.crossing_rate"] = quantile.posterior_quantile_curve(
            out["model"], st.extra["inputs"].y_obs, st.cfg.get_floats("sampling", "tau_grid")
        )
        return v


class EpidemicStudy:
    """``benchmark_epidemic`` on ``epidemic.ini``, unchanged: the only d > 1
    chain, network summary and epidemic simulator. Training six nets on a
    485-row table is per-step overhead; the predictive check makes thousands
    of small ``_epidemic_batch`` calls."""

    name = "epidemic-study"
    config = "epidemic.ini"

    def setup(self, root, work, seed, tiny):
        overrides = {}
        if tiny:
            overrides = {
                ("benchmark", "scenarios"): 12, ("benchmark", "replicates"): 10,
                ("benchmark", "holdouts"): 2, ("benchmark", "posterior_draws"): 10,
                ("benchmark", "predictive_replicates"): 5,
                ("summary", "epochs"): 2, ("optimizer", "epochs"): 2,
            }
        cfg = load_config(root, self.config, overrides)
        pinned = cfg.get_int("run", "seed")
        seed = pinned if seed is None else seed
        return State(cfg, seed, not tiny and seed == pinned, work)

    def run(self, st, stages):
        with Watch() as watch, stages("benchmark_epidemic"):
            result = pipeline.benchmark_epidemic(st.cfg, st.seed)
        return dict(result=result, watch=watch)

    def verify(self, st, out, stages):
        v = Verdict()
        result, watch = out["result"], out["watch"]
        table, ckpt, traces = watch.trained
        floor = st.cfg.get_float("benchmark", "coverage_floor")
        v.check("coverage_floor", result.coverage >= floor,
                f"coverage {result.coverage:.4g} >= {floor}", gated=st.gated)
        v.check("loss_trace_finite", np.all(np.isfinite(traces)))
        ordered = all(
            np.all(cols[f"lo_q{a:g}"] <= cols[f"med_q{a:g}"])
            and np.all(cols[f"med_q{a:g}"] <= cols[f"hi_q{a:g}"])
            for cols in result.holdout_tables.values()
            for a in models.EPIDEMIC_QUANTILE_PROBS
        )
        v.check("predictive_bands_ordered", ordered, "lo <= median <= hi every week")
        path = st.work / "model.gbcq"
        checkpoint.save_checkpoint(path, ckpt)
        reloaded = checkpoint.load_checkpoint(path).model()
        y_obs = table.ys[0]
        n = st.cfg.get_int("benchmark", "posterior_draws")
        same = np.array_equal(
            ckpt.model().sample(y_obs, n, RngStream(st.seed).child("verify")),
            reloaded.sample(y_obs, n, RngStream(st.seed).child("verify")),
        )
        v.check("reloaded_draws_equal", same, "reloaded model.gbcq samples as in memory")
        v.accuracy["coverage"] = result.coverage
        v.accuracy["box_violation_rate"] = result.box_violation_rate
        v.digests["table"] = table_digest(table, st.work)
        v.digests["model"] = sha256_file(path)
        v.digests["loss_trace"] = loss_trace_digest(traces, st.work)
        path.unlink()
        v.rates["train_steps_per_s"] = watch.train_steps_per_s(st.cfg)
        v.rates["sample_draws_per_s"] = watch.sample_draws_per_s()
        grid = np.asarray(pipeline.DEFAULT_TAU_GRID)
        v.layer["quantile.crossing_rate"] = float(np.mean([
            np.mean(np.diff(net.quantile_values(net.cond_mean, grid)) < 0.0)
            for net in ckpt.nets
        ]))
        return v


WORKLOADS = {w.name: w for w in (NormalTrain(), NormalBaselines(), EpidemicStudy())}
