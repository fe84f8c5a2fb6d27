"""What ``src/gbc`` keeps: code that a command or the benchmark runs."""

import ast
import re
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
