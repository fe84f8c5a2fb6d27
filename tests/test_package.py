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


def _bound_imports(tree):
    """(bound name, line) of every import in a module but ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _harness_module_reads(monkeypatch):
    """(module, name) pairs the benchmark harness reads off gbc modules: the
    ``module.name`` attributes its code loads and the names its tracer
    looks up on a module to wrap them."""
    reads = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                reads.add((node.value.id, node.attr))

    class Recorder:
        def wrap(self, target, name, *args, **kwargs):
            if isinstance(target, types.ModuleType):
                reads.add((target.__name__.rpartition(".")[2], name))

        count = wrap

    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("layers").install(Recorder())
    return reads


def test_every_import_in_the_package_is_used(monkeypatch):
    """A module uses every name it imports, unless the benchmark harness
    reads that name off the module (``pipeline.write_csv``)."""
    reads = _harness_module_reads(monkeypatch)
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
