"""Tests for the benchmark's own code: span self time, the tracer's wrapping,
declared metric names, and a tiny-size run of every workload.

    python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Span, Tracer, covered_ns, self_times_ns  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_time_of_nested_spans():
    root = Span("root", None, 0, 100)
    a = Span("a", root, 10, 40)
    b = Span("b", root, 30, 100)  # overlaps a and ends at its parent's end
    grandchild = Span("g", a, 15, 20)
    assert self_times_ns([root, a, b, grandchild]) == [10, 25, 70, 5]


def test_child_spanning_its_whole_parent_leaves_no_self_time():
    parent = Span("p", None, 5, 50)
    child = Span("c", parent, 5, 50)
    assert self_times_ns([parent, child]) == [0, 45]


def test_covered_ns_merges_and_clips():
    assert covered_ns([(30, 40), (0, 10), (5, 20)], 2, 35) == 18 + 5
    assert covered_ns([], 0, 10) == 0


class _Net:
    def forward(self, x):
        return self.forward_cached(x)

    def forward_cached(self, x):
        return x

    def outer(self, x):
        return self.forward(x) + self.forward_cached(x)


def test_tracer_records_parents_absorbs_and_restores():
    originals = (_Net.outer, _Net.forward, _Net.forward_cached)
    tracer = Tracer()
    tracer.wrap(_Net, "outer", "outer")
    tracer.wrap(_Net, "forward", "fwd", lambda a, k, r: {"rows": r})
    tracer.wrap(_Net, "forward_cached", "fc", absorbed_by=("fwd",))
    try:
        assert _Net().outer(3) == 6
    finally:
        tracer.uninstall()
    got = [(s.name, s.parent.name if s.parent else None) for s in tracer.spans]
    assert got == [("outer", None), ("fwd", "outer"), ("fc", "outer")]
    assert tracer.spans[1].counts == {"rows": 3}
    assert all(s.start <= s.end for s in tracer.spans)
    assert (_Net.outer, _Net.forward, _Net.forward_cached) == originals


def test_worker_thread_spans_are_parented_to_the_call_that_started_them():
    class Pool:
        def run(self):
            worker = threading.Thread(target=self.work)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()

        def work(self):
            pass

    tracer = Tracer()
    tracer.wrap(Pool, "run", "run")
    tracer.wrap(Pool, "work", "work")
    tracer.count(Pool, "work", "work-calls")
    try:
        Pool().run()
    finally:
        tracer.uninstall()
    run, work = tracer.spans
    assert work.parent is run
    assert tracer.counts["work-calls"] == 1


def test_declared_names_are_valid_and_unique():
    names = [w["name"] for w in DECLARED["workloads"]]
    names += [m["name"] for key in ("end_to_end", "per_layer") for m in DECLARED[key]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in DECLARED["end_to_end"])


def _run(args, cwd, timeout):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_tiny_run_emits_every_declared_metric(workload, trace):
    proc = _run(["--workload", workload, "--seconds", "1", "--trace", str(trace), "--tiny"],
                ROOT, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]
    section = DECLARED["per_layer" if trace else "end_to_end"]
    declared = {m["name"]: m["unit"] for m in section}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(NAME.fullmatch(n) for n in result["metrics"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "normal-train", "--seed", "1", "--seconds", "1", "--trace", "0"],
                tmp_path, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
