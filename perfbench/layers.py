"""The gbc calls a traced run wraps, and the per-layer metrics derived from
their spans. A layer is a gbc module; metric names start with it.

Methods are wrapped on their class. A module-level function is wrapped under
the name its caller looks up: ``pipeline`` imports ``train_iqn`` and friends
into its own namespace, so those are patched there. ``models._epidemic_batch``
is the one private name wrapped, because the epidemic predictive loop calls it
directly instead of going through ``simulate_batch``.
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np

from gbc import baselines, checkpoint, models, nets, pipeline, quantile, rng, summaries
from spans import self_times_ns


def _rows(x):
    return int(x.shape[0]) if np.ndim(x) == 2 else 1


def _matmul_flops(net, rows):
    """Multiply-add FLOPs of one forward pass, from the layer shapes."""
    return 2 * rows * sum(lay.weight.shape[0] * lay.weight.shape[1] for lay in net.layers)


def _forward_counts(args, kwargs, result):
    net, x = args[0], args[1]
    rows = _rows(x)
    return {"rows": rows, "flops": _matmul_flops(net, rows)}


def _backward_counts(args, kwargs, result):
    net, (records, _squeeze) = args[0], args[1]
    # Two products per layer: the weight gradient and the input gradient.
    return {"flops": 2 * _matmul_flops(net, records[0][0].shape[0])}


def install(tracer):
    """Wrap every traced gbc call; undo with ``tracer.uninstall()``."""
    net = nets.FeedForwardNet
    tracer.wrap(net, "forward", "nets.forward", _forward_counts)
    # forward() is forward_cached() with the cache dropped; its inner call is
    # counted as part of the forward span, not as a training-style pass.
    tracer.wrap(net, "forward_cached", "nets.forward_cached", _forward_counts,
                absorbed_by=("nets.forward",))
    tracer.wrap(net, "backward", "nets.backward", _backward_counts)
    tracer.wrap(nets.Adam, "step", "nets.adam_step")

    tracer.wrap(quantile.CosineEmbedding, "basis", "quantile.cosine_basis")
    tracer.wrap(pipeline, "train_iqn", "quantile.train_iqn")
    tracer.wrap(quantile.AutoregressiveQuantileModel, "sample", "quantile.sample",
                lambda a, k, r: {"draws": int(r.shape[0])})

    tracer.wrap(pipeline, "fit_posterior_mean_net", "summaries.fit_posterior_mean_net")
    for module in (summaries, quantile, baselines, pipeline):
        tracer.wrap(module, "apply_summary", "summaries.apply_summary",
                    lambda a, k, r: {"rows": _rows(a[1])})

    tracer.wrap(pipeline, "generate_reference_table", "models.generate_reference_table",
                lambda a, k, r: {"rows": r.n_rows})
    for sim in (models.NormalLocationSimulator, models.EpidemicSimulator):
        tracer.wrap(sim, "simulate_batch", "models.simulate_batch",
                    lambda a, k, r: {"rows": int(r.shape[0])})
    tracer.wrap(models, "_epidemic_batch", "models.epidemic_batch",
                lambda a, k, r: {"rows": int(r.shape[0])})
    tracer.wrap(models, "write_table_binary", "models.write_table",
                lambda a, k, r: {"bytes": os.path.getsize(a[0])})
    tracer.wrap(models, "read_table_binary", "models.read_table")

    tracer.wrap(baselines, "abc_epsilon_sweep", "baselines.abc_epsilon_sweep",
                lambda a, k, r: {"proposals": r[-1].n_proposals,
                                 "accepted": r[-1].n_accepted})
    tracer.wrap(baselines, "fiducial_rejection", "baselines.fiducial",
                lambda a, k, r: {"draws": r.n_draws, "accepted": r.n_accepted,
                                 "skipped": r.n_skipped})
    tracer.wrap(baselines, "golden_section", "baselines.golden_section")

    tracer.wrap(checkpoint, "save_checkpoint", "checkpoint.save",
                lambda a, k, r: {"bytes": os.path.getsize(a[0])})
    tracer.wrap(checkpoint, "load_checkpoint", "checkpoint.load")

    # Stage spans: they carry no metric of their own but keep their loop
    # overhead out of the self time of the stage that calls them.
    for stage in ("build_table", "fit_summary", "train_chain"):
        tracer.wrap(pipeline, stage, f"pipeline.{stage}")
    tracer.wrap(pipeline, "benchmark_epidemic", "pipeline.benchmark_epidemic")

    tracer.count(rng.RngStream, "child", "rng.child")


# (metric, span name, aggregate) read straight off the span totals.
_SPAN_METRICS = [
    ("nets.forward_cached.calls", "nets.forward_cached", "calls"),
    ("nets.forward_cached.rows", "nets.forward_cached", "rows"),
    ("nets.forward_cached.self_s", "nets.forward_cached", "self_s"),
    ("nets.backward.calls", "nets.backward", "calls"),
    ("nets.backward.self_s", "nets.backward", "self_s"),
    ("nets.adam_step.calls", "nets.adam_step", "calls"),
    ("nets.adam_step.self_s", "nets.adam_step", "self_s"),
    ("nets.forward.calls", "nets.forward", "calls"),
    ("nets.forward.rows", "nets.forward", "rows"),
    ("nets.forward.self_s", "nets.forward", "self_s"),
    ("quantile.cosine_basis.calls", "quantile.cosine_basis", "calls"),
    ("quantile.cosine_basis.self_s", "quantile.cosine_basis", "self_s"),
    ("quantile.train_iqn.calls", "quantile.train_iqn", "calls"),
    ("quantile.train_iqn.self_s", "quantile.train_iqn", "self_s"),
    ("quantile.sample.calls", "quantile.sample", "calls"),
    ("quantile.sample.draws", "quantile.sample", "draws"),
    ("quantile.sample.self_s", "quantile.sample", "self_s"),
    ("summaries.fit_posterior_mean_net.self_s", "summaries.fit_posterior_mean_net", "self_s"),
    ("summaries.apply_summary.calls", "summaries.apply_summary", "calls"),
    ("summaries.apply_summary.rows", "summaries.apply_summary", "rows"),
    ("summaries.apply_summary.self_s", "summaries.apply_summary", "self_s"),
    ("models.generate_reference_table.rows", "models.generate_reference_table", "rows"),
    ("models.generate_reference_table.self_s", "models.generate_reference_table", "self_s"),
    ("models.simulate_batch.calls", "models.simulate_batch", "calls"),
    ("models.simulate_batch.rows", "models.simulate_batch", "rows"),
    ("models.simulate_batch.self_s", "models.simulate_batch", "self_s"),
    ("models.table_io.bytes", "models.write_table", "bytes"),
    ("models.table_io.write_s", "models.write_table", "total_s"),
    ("models.table_io.read_s", "models.read_table", "total_s"),
    ("models.epidemic_batch.calls", "models.epidemic_batch", "calls"),
    ("models.epidemic_batch.rows", "models.epidemic_batch", "rows"),
    ("models.epidemic_batch.self_s", "models.epidemic_batch", "self_s"),
    ("baselines.abc_epsilon_sweep.proposals", "baselines.abc_epsilon_sweep", "proposals"),
    ("baselines.abc_epsilon_sweep.self_s", "baselines.abc_epsilon_sweep", "self_s"),
    ("baselines.golden_section.calls", "baselines.golden_section", "calls"),
    ("baselines.golden_section.self_s", "baselines.golden_section", "self_s"),
    ("baselines.fiducial.skipped", "baselines.fiducial", "skipped"),
    ("checkpoint.save.bytes", "checkpoint.save", "bytes"),
    ("checkpoint.save.self_s", "checkpoint.save", "self_s"),
    ("checkpoint.load.self_s", "checkpoint.load", "self_s"),
    ("pipeline.benchmark_epidemic.self_s", "pipeline.benchmark_epidemic", "self_s"),
]

# Metrics the workload measures itself rather than reading off spans.
EXTRA_METRICS = ("quantile.crossing_rate", "models.table_scaling_eff", "trace.overhead_s")


def span_totals(spans):
    """Per span name: calls, total and self seconds, summed counts, and the
    number of optimizer steps taken directly inside it."""
    totals = defaultdict(lambda: defaultdict(float))
    for span, self_ns in zip(spans, self_times_ns(spans)):
        agg = totals[span.name]
        agg["calls"] += 1
        agg["total_s"] += (span.end - span.start) / 1e9
        agg["self_s"] += self_ns / 1e9
        for key, value in (span.counts or {}).items():
            agg[key] += value
        if span.name == "nets.adam_step" and span.parent is not None:
            totals[span.parent.name]["steps"] += 1
    return totals


def layer_metrics(spans, counts, extra):
    """Every per-layer metric for one traced pass, 0 where a layer did not run."""
    totals = span_totals(spans)

    def get(span, key):
        return totals[span][key] if span in totals else 0.0

    out = {metric: get(span, key) for metric, span, key in _SPAN_METRICS}
    out["quantile.train_iqn.steps"] = get("quantile.train_iqn", "steps")
    out["summaries.fit_posterior_mean_net.steps"] = get(
        "summaries.fit_posterior_mean_net", "steps"
    )
    flops = sum(get(s, "flops") for s in ("nets.forward", "nets.forward_cached", "nets.backward"))
    busy = sum(get(s, "self_s") for s in ("nets.forward", "nets.forward_cached", "nets.backward"))
    out["nets.achieved_gflops"] = flops / busy / 1e9 if busy else 0.0
    calls = get("models.epidemic_batch", "calls")
    out["models.epidemic_batch.rows_per_call"] = (
        get("models.epidemic_batch", "rows") / calls if calls else 0.0
    )
    proposals = get("baselines.abc_epsilon_sweep", "proposals")
    out["baselines.abc_epsilon_sweep.accept_ratio"] = (
        get("baselines.abc_epsilon_sweep", "accepted") / proposals if proposals else 0.0
    )
    draws = get("baselines.fiducial", "draws")
    out["baselines.fiducial.accept_ratio"] = (
        get("baselines.fiducial", "accepted") / draws if draws else 0.0
    )
    out["rng.child.calls"] = counts.get("rng.child", 0)
    for name in EXTRA_METRICS:
        out[name] = extra.get(name, 0.0)
    return out


def self_time_shares(spans, wall_s):
    """(span name, self seconds, share of wall) sorted by self time."""
    totals = span_totals(spans)
    rows = [(name, agg["self_s"], agg["self_s"] / wall_s) for name, agg in totals.items()]
    return sorted(rows, key=lambda r: -r[1])
