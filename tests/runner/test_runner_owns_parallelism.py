"""The runner owns parallelism.

Runner workers are daemonic processes, and a daemonic process may not
start children.  An experiment that opens its own process pool works
when called directly and dies under ``python -m repro.runner``, so
these tests drive a real registry entry through the real worker pool
and keep process-spawning imports out of the experiment harnesses.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro import experiments
from repro.runner import run_suite

EXPERIMENTS_DIR = Path(experiments.__file__).resolve().parent
SPAWNING_MODULES = ("multiprocessing", "concurrent.futures")


def _imported_modules(path: Path) -> "list[str]":
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.append(node.module)
    return names


def _spawns(module: str) -> bool:
    return any(module == banned or module.startswith(banned + ".")
               for banned in SPAWNING_MODULES)


def test_fig11_quick_entry_runs_inside_a_runner_worker():
    run = run_suite(["fig11"], jobs=2)
    outcome = run.outcomes["fig11"]
    assert outcome.status == "ok", outcome.error
    assert outcome.attempts == 1


def test_no_experiment_module_imports_multiprocessing():
    modules = sorted(EXPERIMENTS_DIR.rglob("*.py"))
    assert EXPERIMENTS_DIR / "fig11.py" in modules
    offenders = [f"{path.relative_to(EXPERIMENTS_DIR)}: {module}"
                 for path in modules
                 for module in _imported_modules(path) if _spawns(module)]
    assert offenders == [], (
        "experiments must not spawn processes; the runner "
        "parallelises across experiments: " + ", ".join(offenders))
