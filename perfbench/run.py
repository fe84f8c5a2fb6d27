"""Run one gbc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload normal-train --seed 10 --seconds 36 --trace 0

Run from the root of a source checkout (``src/gbc`` and ``configs/`` next to
``BENCHMARK.json``). ``--trace 0`` prints the end-to-end metrics declared in
BENCHMARK.json; ``--trace 1`` runs each pass of the timed body once untraced
and once traced and prints the per-layer metrics. Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record (and, when
traced, the spans) goes to ``perfbench/out/``. ``--workload all`` runs every
workload in turn, each in its own process.
"""

from __future__ import annotations

import os

# Pin BLAS pools before numpy loads: thread counts change reduction order and
# with it the bytes of trained checkpoints.
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
for _var in PINNED_THREADS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("normal-train", "normal-baselines", "epidemic-study")
SETUP_REPEATS = 3
# Times the benchmark's imports in a fresh interpreter; argv holds sys.path entries.
IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:]
start = time.perf_counter()
import numpy, gbc, layers, workloads, spans
print(time.perf_counter() - start)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, help="workload seed (default: the config's [run] seed)")
    p.add_argument("--seconds", type=float, default=36.0,
                   help="measure for about this long; at least one pass runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every size to seconds of work (the benchmark's own tests)")
    return p.parse_args(argv)


def run_all(args):
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        if args.tiny:
            cmd.append("--tiny")
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        **{var: os.environ[var] for var in PINNED_THREADS},
        "seed": seed,
    }


def fresh_import_s(src):
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src), str(HERE)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout.split()[-1])


def run_pass(workload, state, tracer):
    """One pass of the timed body, then its (untimed, untraced) checks."""
    from layers import install, layer_metrics
    from workloads import Stages

    stages = Stages()
    if tracer is not None:
        install(tracer)
    start = perf_counter()
    try:
        out = workload.run(state, stages)
    finally:
        wall = perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    verdict = workload.verify(state, out, stages)
    layer = layer_metrics(tracer.spans, tracer.counts, verdict.layer) if tracer else None
    return {"wall": wall, "stages": stages.seconds, "verdict": verdict, "layer": layer,
            "tracer": tracer}


def measure(workload, args, src, import_s):
    """Set up three times, then run passes of the timed body until
    ``args.seconds`` would be exceeded by one more."""
    from spans import Tracer
    from workloads import Watch

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        # Imports happen once per process, so the other set-ups time them in
        # a fresh interpreter.
        setups = []
        with Watch() as setup_watch:
            for k in range(SETUP_REPEATS):
                imports = import_s if k == 0 else fresh_import_s(src)
                start = perf_counter()
                state = workload.setup(ROOT, work, args.seed, args.tiny)
                setups.append(imports + perf_counter() - start)
        state.setup_watch = setup_watch

        passes, traced = [], []
        loop_start = perf_counter()
        while True:
            passes.append(run_pass(workload, state, None))
            if len(passes) == 1:
                # High-water mark through set-up and one pass, so that it does
                # not depend on how many passes fit in the run.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if args.trace:
                traced.append(run_pass(workload, state, Tracer()))
            elapsed = perf_counter() - loop_start
            if elapsed * (1 + 1 / len(passes)) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return state, setups, passes, traced, peak_rss_mb


def all_checks(passes, traced):
    """Every check of every pass, plus: each pass repeats the first pass's
    artifacts, and a traced pass repeats the untraced one's."""
    checks = [c for p in passes + traced for c in p["verdict"].checks]
    first = passes[0]["verdict"].digests
    for p in passes[1:] + traced:
        label = "traced_digests_equal" if p["tracer"] else "repeat_digests_equal"
        checks.append((label, p["verdict"].digests == first, True,
                       "table, model and loss-trace digests match the first pass"))
    return checks


def print_report(args, state, env, passes, traced, end_to_end, rates, metrics, checks,
                 units):
    print(f"perfbench workload={args.workload} seed={state.seed} trace={args.trace} "
          f"size={'tiny' if args.tiny else 'full'} passes={len(passes)}+{len(traced)} traced")
    print("env " + " ".join(f"{k}={v!r}" if isinstance(v, str) else f"{k}={v}"
                            for k, v in env.items()))
    print("stages " + " ".join(f"{k}={v:.4f}s" for k, v in passes[-1]["stages"].items()))
    for name, value in end_to_end.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    for name, value in rates.items():
        if name not in end_to_end:
            print(f"info {name} {value:.6g} 1/s")
    if traced:
        from layers import self_time_shares

        print("self-time shares of the traced wall (top 12):")
        spans, wall = traced[-1]["tracer"].spans, traced[-1]["wall"]
        for name, self_s, share in self_time_shares(spans, wall)[:12]:
            print(f"  {name:40s} {self_s:9.4f} s {100 * share:5.1f}%")
        for name, m in metrics.items():
            print(f"layer {name} {m['value']:.6g} {m['unit']}")
    tally = {}
    for name, ok, gated, detail in checks:
        passed, total, _, _ = tally.get(name, (0, 0, gated, ""))
        tally[name] = (passed + ok, total + 1, gated, detail)
    for name, (passed, total, gated, detail) in tally.items():
        status = "PASS" if passed == total else "FAIL"
        gate = "" if gated else " (reported, not gated at this seed and size)"
        print(f"check {name} {status} {passed}/{total}{gate} {detail}")
    for name, value in passes[-1]["verdict"].accuracy.items():
        print(f"accuracy {name} {value:.6g}")
    for name, value in passes[0]["verdict"].digests.items():
        print(f"digest {name} sha256:{value}")


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "gbc" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"perfbench: {ROOT} is not a gbc source checkout (no src/gbc or configs/)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    t0 = perf_counter()
    import numpy  # noqa: F401
    import gbc
    import layers  # noqa: F401  (imports every traced gbc module)
    import spans
    import workloads
    import_s = perf_counter() - t0
    if Path(gbc.__file__).resolve().parent != (src / "gbc").resolve():
        print(f"perfbench: imported gbc from {gbc.__file__}, not from {src}", file=sys.stderr)
        return 2

    state, setups, passes, traced, peak_rss_mb = measure(
        workloads.WORKLOADS[args.workload], args, src, import_s
    )
    checks = all_checks(passes, traced)
    gated = [c for c in checks if c[2]]
    failed = sum(1 for c in gated if not c[1])

    # Medians over the passes, as set-up is the median of its repeats.
    rates = {key: statistics.median(p["verdict"].rates[key] for p in passes)
             for key in passes[0]["verdict"].rates}
    wall_s = statistics.median(p["wall"] for p in passes)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "train_steps_per_s": rates["train_steps_per_s"],
        "sample_draws_per_s": rates["sample_draws_per_s"],
        "peak_rss_mb": peak_rss_mb,
    }
    per_layer = {}
    if traced:
        per_layer = {n: statistics.median(p["layer"][n] for p in traced)
                     for n in traced[0]["layer"]}
        per_layer["trace.overhead_s"] = statistics.median(p["wall"] for p in traced) - wall_s

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}
    values = per_layer if args.trace else end_to_end
    if set(values) != set(units):
        print(f"perfbench: emitted metrics {sorted(set(values) ^ set(units))} "
              f"do not match BENCHMARK.json {section}", file=sys.stderr)
        return 3
    metrics = {}
    for name, value in values.items():
        value = float(value)
        if units[name] == "count" and value.is_integer():
            value = int(value)
        metrics[name] = {"value": value, "unit": units[name]}

    env = environment(state.seed)
    e2e_units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    print_report(args, state, env, passes, traced, end_to_end, rates, metrics, checks,
                 e2e_units)
    print(f"check_fail_rate {failed / len(gated):.6g} ({failed} of {len(gated)} gated checks)")

    record = {
        "workload": args.workload, "seed": state.seed, "trace": args.trace, "tiny": args.tiny,
        "env": env, "setup_repeats_s": setups,
        "passes": [{"wall_s": p["wall"], "stages_s": p["stages"]} for p in passes],
        "traced_passes": [{"wall_s": p["wall"], "stages_s": p["stages"]} for p in traced],
        "end_to_end": end_to_end, "rates": rates, "per_layer": per_layer,
        "checks": [list(c) for c in checks], "check_fail_rate": failed / len(gated),
        "accuracy": passes[-1]["verdict"].accuracy, "digests": passes[0]["verdict"].digests,
    }
    stem = f"{args.workload}-seed{state.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if traced:
        (OUT / f"{stem}-spans.json").write_text(
            json.dumps(spans.spans_table(traced[-1]["tracer"].spans)), encoding="utf-8"
        )
    print(json.dumps({"correct": failed == 0, "attempted": len(gated), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
