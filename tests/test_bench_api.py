"""The benchmark scripts under ``bench/`` run against the package as it is:
every name they import from ``twistkit``, and every attribute they read off
an imported ``twistkit`` module, must exist.  The scripts are parsed, not
run, so this guard costs no benchmark time."""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
SCRIPTS = sorted(BENCH.glob("*.py"))


def _twistkit_names(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) for every name imported from a ``twistkit`` module and
    every attribute read off a local name bound to one."""
    bound = {}  # local name -> dotted module path it may stand for
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "twistkit":
                    local = alias.asname or "twistkit"
                    bound[local] = alias.name if alias.asname else "twistkit"
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
            if node.module.partition(".")[0] == "twistkit":
                for alias in node.names:
                    names.add((node.module, alias.name))
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
        ):
            names.add((bound[node.value.id], node.attr))
    return names


def _exists(module: str, name: str) -> bool:
    try:
        owner = importlib.import_module(module)
    except ModuleNotFoundError:
        return True  # a function or class of the package, not a module
    if hasattr(owner, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")  # a submodule not yet imported
    except ModuleNotFoundError:
        return False
    return True


def _missing(names) -> list[str]:
    return [f"{module}.{name}" for module, name in sorted(names) if not _exists(module, name)]


def test_bench_scripts_are_found():
    assert {path.name for path in SCRIPTS} >= {"run.py", "construct_fp.py", "verify_q.py", "sweep_f2.py"}


@pytest.mark.parametrize("script", SCRIPTS, ids=[path.name for path in SCRIPTS])
def test_bench_script_names_exist(script):
    names = _twistkit_names(ast.parse(script.read_text(encoding="utf-8"), str(script)))
    assert not _missing(names), f"{script.name}: {', '.join(_missing(names))}"


def test_scan_catches_a_missing_name(monkeypatch):
    """The scan reads attributes off imported modules: hiding one that
    ``construct_fp.py`` calls is reported."""
    linalg = importlib.import_module("twistkit.linalg")
    script = BENCH / "construct_fp.py"
    names = _twistkit_names(ast.parse(script.read_text(encoding="utf-8")))
    assert ("twistkit.linalg", "algmat_mul") in names
    monkeypatch.delattr(linalg, "algmat_mul")
    assert _missing(names) == ["twistkit.linalg.algmat_mul"]
