"""What ``src/gbc`` keeps: code that a command or the benchmark runs."""

import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import gbc
from gbc import baselines, pipeline, quantile, rng

PACKAGE = Path(gbc.__file__).parent
PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _module_level_definitions():
    """name -> ``file:line`` of every module-level function and class."""
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = f"{path.name}:{node.lineno}"
    return defined


def _names_used_in_package():
    """Every name the package's code loads or looks up as an attribute. An
    import, a docstring or a comment is not a use."""
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_module_level_definition_has_a_caller_outside_the_tests():
    """A function or class that no code in the package uses and that the
    benchmark harness does not name is test-only code; it belongs in
    ``tests/`` (test oracles live in ``tests/oracles.py``)."""
    defined = _module_level_definitions()
    assert "benchmark_normal" in defined  # the scan sees the package
    used = _names_used_in_package()
    harness = "\n".join(
        p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py"))
    )
    unused = {
        name: where
        for name, where in defined.items()
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", harness)
    }
    assert not unused, f"defined in src/gbc but run only by tests: {unused}"


def test_only_feed_forward_net_defines_backward():
    """The dense layer's backward pass is written once: no class in the
    package other than ``FeedForwardNet`` defines ``backward`` (the cosine
    embedding inherits it)."""
    owners = sorted(
        f"{path.name}:{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                and f.name == "backward" for f in node.body)
    )
    assert owners == ["nets.py:FeedForwardNet"]


def test_no_module_reads_a_summary_matrix_or_intercept():
    """A linear summary is a one-layer identity net: ``matrix`` and
    ``intercept`` only build it, and no code in the package reads either
    back as an attribute (``SummaryMap`` does not store them)."""
    reads = sorted(
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("matrix", "intercept")
    )
    assert not reads, f"reads of .matrix or .intercept: {reads}"


def _bound_imports(tree):
    """(bound name, line) of every import in a module but ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _harness_reads(monkeypatch):
    """(owner, name) of every gbc attribute the benchmark harness reads: the
    ``module.name`` attributes its code loads off the gbc modules it
    imports, the names it imports from gbc modules, and the (module or
    class, name) targets its tracer wraps."""
    reads = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.module == "gbc":
                for alias in node.names:
                    module = importlib.import_module(f"gbc.{alias.name}")
                    modules[alias.asname or alias.name] = module
            elif (node.module or "").startswith("gbc."):
                module = importlib.import_module(node.module)
                reads += [(module, alias.name) for alias in node.names]
        reads += [
            (modules[node.value.id], node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ]

    class Recorder:
        def wrap(self, target, name, *args, **kwargs):
            reads.append((target, name))

        count = wrap

    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("layers").install(Recorder())
    return reads


def test_every_name_the_benchmark_harness_reads_exists(monkeypatch):
    """Deleting or renaming a gbc function, class or method that the
    harness calls or wraps fails here, not first in a benchmark run."""
    reads = _harness_reads(monkeypatch)
    # Each kind of read is seen: a module attribute the workloads call, an
    # imported name, a traced module function and a traced method.
    for owner, name in (
        (pipeline, "fit_summary"),
        (rng, "RngStream"),
        (baselines, "golden_section"),
        (quantile.CosineEmbedding, "basis"),
    ):
        assert (owner, name) in reads
    missing = sorted(
        f"{owner.__name__}.{name}" for owner, name in reads if not hasattr(owner, name)
    )
    assert not missing, f"read by the benchmark harness but not defined: {missing}"


def test_every_import_in_the_package_is_used(monkeypatch):
    """A module uses every name it imports, unless the benchmark harness
    reads that name off the module (``pipeline.write_csv``)."""
    reads = {
        (owner.__name__.rpartition(".")[2], name)
        for owner, name in _harness_reads(monkeypatch)
        if isinstance(owner, types.ModuleType)
    }
    assert ("pipeline", "apply_summary") in reads  # the tracer's names are seen
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in _bound_imports(tree)
            if name not in loaded and (path.stem, name) not in reads
        ]
    assert not unused, f"imported but unused: {unused}"


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    """Only ``benchmark_normal`` uses scipy.stats; loading it with the CLI
    would add its import time and memory to every command."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, gbc.cli; print(sorted(sys.modules))"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "'scipy.stats'" not in proc.stdout
