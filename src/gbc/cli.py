"""Command-line front end.

Subcommands: gen-table, fit-summary, train, sample, abc, fiducial,
benchmark-normal, benchmark-epidemic, gradcheck. Every command is a pure
function of its config file and inputs: identical invocations write
byte-identical outputs. Exit codes: 0 success, 2 config error, 3 data
error, 4 benchmark/acceptance failure.
"""

from __future__ import annotations

import os

# Pin BLAS pools to one thread before numpy loads: reductions then have a
# fixed summation order, which the byte-identical-rerun guarantee needs.
for _var in (
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "OMP_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")

import argparse
import sys
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import RunConfig, prior_and_simulator
from .errors import ConfigError, DataError, GbcError
from .formats import fmt_value, read_csv, write_csv
from .models import (
    read_table_binary,
    read_table_csv,
    write_table_binary,
    write_table_csv,
)
from .nets import run_gradient_check
from .pipeline import (
    COVERAGE_HEADER,
    FIDUCIAL_HEADERS,
    NORMAL_REPORT_HEADER,
    abc_stage,
    benchmark_epidemic,
    benchmark_normal,
    build_table,
    check_training_settings,
    fiducial_model,
    fiducial_stage,
    fit_summary,
    holdout_csv_rows,
    run_seed,
    train_chain,
)
from .rng import RngStream

GRADCHECK_TOLERANCE = 1e-5


def _out_dir(args, cfg: RunConfig) -> Path:
    out = args.out or cfg.get_str("run", "out_dir", "out")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _table_path(args, cfg: RunConfig, out: Path) -> Path:
    if getattr(args, "table", None):
        return Path(args.table)
    fmt = cfg.get_choice("run", "table_format", ("binary", "csv"), "binary")
    return out / ("table.csv" if fmt == "csv" else "table.gbct")


def _read_table(path: Path):
    if not path.exists():
        raise DataError(f"reference table not found: {path}")
    if path.suffix == ".csv":
        return read_table_csv(path)
    return read_table_binary(path)


def _read_y_obs(args, size=None) -> np.ndarray:
    """The single observation row of the ``--y-obs`` CSV file; ``size``
    values if given."""
    if not args.y_obs:
        raise ConfigError(f"{args.command} needs --y-obs FILE")
    data = read_csv(args.y_obs)
    if data.shape[0] != 1:
        raise DataError(
            f"{args.y_obs} holds {data.shape[0]} rows; expected a single "
            "observation row"
        )
    if size is not None and data.shape[1] != size:
        raise DataError(
            f"{args.y_obs} holds {data.shape[1]} values; the model takes {size}"
        )
    if not np.isfinite(data).all():
        raise DataError(f"{args.y_obs} holds a value that is not a finite number")
    return data[0]


def _write_summary_losses(out: Path, losses) -> None:
    if losses is not None:
        write_csv(out / "summary_loss.csv", ["epoch", "mse"], enumerate(losses))


def _verdict(result, passed) -> int:
    """Print a benchmark's failures and return its exit code."""
    for line in result.failures:
        print(f"FAIL {line}")
    if result.failures:
        return 4
    print(passed)
    return 0


def _summary_mse_label(summary) -> str:
    # A linear summary is fitted on every row, so its error is in-sample.
    return "in-sample mse" if summary.kind == "linear" else "holdout mse"


def cmd_gen_table(args, cfg, seed, out) -> int:
    path = _table_path(args, cfg, out)
    table = build_table(cfg, seed)
    if path.suffix == ".csv":
        write_table_csv(path, table)
    else:
        write_table_binary(path, table)
    print(f"wrote {table.n_rows} rows to {path}")
    return 0


def cmd_fit_summary(args, cfg, seed, out) -> int:
    table = _read_table(_table_path(args, cfg, out))
    summary, losses, mse = fit_summary(cfg, table, seed)
    ckpt = Checkpoint(
        summary=summary, nets=[], table_seed=table.seed,
        config_hash=cfg.config_hash(),
    )
    path = out / "summary.gbcq"
    save_checkpoint(path, ckpt)
    _write_summary_losses(out, losses)
    print(f"wrote summary checkpoint to {path}")
    print(f"{_summary_mse_label(summary)}: {fmt_value(mse)}")
    return 0


def cmd_train(args, cfg, seed, out) -> int:
    check_training_settings(cfg)
    table = _read_table(_table_path(args, cfg, out))
    summary, summary_losses, mse = fit_summary(cfg, table, seed)
    ckpt, traces = train_chain(cfg, table, summary, seed)
    path = out / "model.gbcq"
    save_checkpoint(path, ckpt)
    _write_summary_losses(out, summary_losses)
    write_csv(
        out / "loss_trace.csv",
        ["epoch"] + [f"pinball_{k}" for k in range(traces.shape[1])],
        [[i, *traces[i]] for i in range(traces.shape[0])],
    )
    print(f"wrote model checkpoint to {path}")
    print(f"summary {_summary_mse_label(summary)}: {fmt_value(mse)}")
    print(
        "final pinball losses: "
        + ", ".join(fmt_value(v) for v in traces[-1])
    )
    return 0


def cmd_sample(args, cfg, seed, out) -> int:
    ckpt_path = Path(args.checkpoint) if args.checkpoint else out / "model.gbcq"
    if not ckpt_path.exists():
        raise DataError(f"checkpoint not found: {ckpt_path}")
    ckpt = load_checkpoint(ckpt_path)
    if not ckpt.nets:
        raise DataError(f"{ckpt_path} holds only a summary map, not a trained chain")
    y_obs = _read_y_obs(args, ckpt.summary.in_dim)
    model = ckpt.model()
    draws = model.sample(y_obs, args.draws, RngStream(seed).child("sample"))
    path = out / "samples.csv"
    write_csv(
        path,
        [f"theta_{k + 1}" for k in range(model.dim)],
        draws.tolist(),
    )
    print(f"wrote {draws.shape[0]} posterior draws to {path}")
    return 0


def cmd_abc(args, cfg, seed, out) -> int:
    prior, simulator = prior_and_simulator(cfg)
    y_obs = _read_y_obs(args, simulator.y_dim)
    sweep = abc_stage(cfg, simulator, prior)(y_obs, RngStream(seed).child("abc"))
    write_csv(
        out / "abc_sweep.csv",
        ["epsilon", "n_proposals", "n_accepted", "acceptance_rate"],
        [[r.epsilon, r.n_proposals, r.n_accepted, r.acceptance_rate] for r in sweep],
    )
    final = sweep[-1]
    write_csv(
        out / "abc_draws.csv",
        [f"theta_{k + 1}" for k in range(prior.dim)],
        final.thetas.tolist(),
    )
    for r in sweep:
        if r.diagnostic:
            print(r.diagnostic)
    print(
        f"wrote sweep to {out / 'abc_sweep.csv'}; final epsilon "
        f"{final.epsilon} accepted {final.n_accepted} draws"
    )
    return 0


def cmd_fiducial(args, cfg, seed, out) -> int:
    result = fiducial_stage(cfg)(_read_y_obs(args), RngStream(seed).child("fiducial"))
    header = FIDUCIAL_HEADERS[fiducial_model(cfg)]
    write_csv(out / "fiducial_draws.csv", header, result.thetas.tolist())
    print(
        f"accepted {result.n_accepted} of {result.n_draws} draws "
        f"({result.n_skipped} skipped); wrote {out / 'fiducial_draws.csv'}"
    )
    return 0


def cmd_benchmark_normal(args, cfg, seed, out) -> int:
    result = benchmark_normal(cfg, seed)
    write_csv(out / "benchmark_normal.csv", NORMAL_REPORT_HEADER, result.rows)
    write_csv(
        out / "posterior.csv",
        ["posterior_mean", "posterior_sd", "y_bar"],
        [[result.posterior_mean, result.posterior_sd, result.y_bar]],
    )
    print(f"quantile-net crossing rate {result.crossing_rate:.4f} "
          f"(adjacent tau-grid pairs out of order before rearrangement)")
    print(f"wrote report to {out / 'benchmark_normal.csv'}")
    return _verdict(result, "all benchmark thresholds met")


def cmd_benchmark_epidemic(args, cfg, seed, out) -> int:
    result = benchmark_epidemic(cfg, seed)
    for h in result.holdout_ids:
        header, rows = holdout_csv_rows(result.holdout_tables[h])
        write_csv(out / f"holdout_{h}.csv", header, rows)
    write_csv(out / "coverage.csv", COVERAGE_HEADER, result.coverage_rows)
    print(
        f"coverage {result.coverage:.3f} over "
        f"{len(result.holdout_ids)} holdout scenarios; "
        f"box violation rate {result.box_violation_rate:.4f} "
        f"(per coordinate: "
        + " ".join(f"{r:.4f}" for r in result.box_violation_by_coord)
        + ")"
    )
    return _verdict(result, "coverage floor met")


def cmd_gradcheck(args) -> int:
    worst = run_gradient_check(args.nets, RngStream(args.seed).child("gradcheck"))
    print(f"max relative gradient error over {args.nets} nets: {worst:.3e}")
    if worst >= GRADCHECK_TOLERANCE:
        print(f"FAIL exceeds tolerance {GRADCHECK_TOLERANCE:g}")
        return 4
    return 0


def _draw_count(text):
    """argparse type of ``--draws``: an integer >= 0 (else exit 2)."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if count < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {count}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbc",
        description=(
            "Generative Bayesian computation: simulate reference tables, "
            "train quantile-network posteriors, and cross-check them against "
            "rejection baselines and closed forms."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="run configuration file (INI)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the output directory")

    p = sub.add_parser("gen-table", help="simulate a reference table")
    common(p)
    p.add_argument("--table", help="output table path (overrides config)")
    p.set_defaults(fn=cmd_gen_table)

    p = sub.add_parser("fit-summary", help="fit the summary statistic map")
    common(p)
    p.add_argument("--table", help="reference table path")
    p.set_defaults(fn=cmd_fit_summary)

    p = sub.add_parser("train", help="fit summary and train the quantile chain")
    common(p)
    p.add_argument("--table", help="reference table path")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("sample", help="draw from a trained posterior")
    common(p)
    p.add_argument("--checkpoint", help="model checkpoint (default out/model.gbcq)")
    p.add_argument("--y-obs", help="observed data CSV (single row)")
    p.add_argument("--draws", type=_draw_count, default=1000, help="number of draws")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("abc", help="ABC rejection with an epsilon sweep")
    common(p)
    p.add_argument("--y-obs", help="observed data CSV (single row)")
    p.set_defaults(fn=cmd_abc)

    p = sub.add_parser("fiducial", help="fiducial rejection sampling")
    common(p)
    p.add_argument("--y-obs", help="observed data CSV (single row)")
    p.set_defaults(fn=cmd_fiducial)

    p = sub.add_parser(
        "benchmark-normal",
        help="compare net, ABC, and fiducial against the conjugate closed form",
    )
    common(p)
    p.set_defaults(fn=cmd_benchmark_normal)

    p = sub.add_parser(
        "benchmark-epidemic",
        help="holdout coverage study on the epidemic surrogate",
    )
    common(p)
    p.set_defaults(fn=cmd_benchmark_epidemic)

    p = sub.add_parser("gradcheck", help="verify gradients on random nets")
    p.add_argument("--seed", type=int, default=0, help="random-net seed")
    p.add_argument("--nets", type=int, default=100, help="number of random nets")
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gradcheck":  # the one command without a config
            return cmd_gradcheck(args)
        if not args.config:
            raise ConfigError("this command needs --config PATH")
        cfg = RunConfig.from_file(args.config)
        return args.fn(args, cfg, run_seed(cfg, args.seed), _out_dir(args, cfg))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except GbcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
