"""The names the benchmark harness in ``bench/`` reaches into the package by.

``bench/spans.py`` skips a wrapped name that no longer exists, so a rename
would read as 0 calls rather than fail; these tests make it fail here.
The harness files are read, never edited.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from frechet_flow import app

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(dotted):
    module_name, *path = dotted.split(".")
    target = importlib.import_module(f"frechet_flow.{module_name}")
    for attr in path:
        target = getattr(target, attr)
    return target


@pytest.mark.parametrize("span", load_bench_module("spans").SPANS)
def test_every_traced_span_resolves(span):
    assert callable(resolve(span))


def test_solve_result_keeps_what_the_run_solve_observer_reads():
    names = {field.name for field in dataclasses.fields(app.SolveResult)}
    assert {"files", "residual_profiles", "diagnostics"} <= names


def test_setup_probe_calls_bind_to_the_package():
    tree = ast.parse((BENCH / "setup_probe.py").read_text())
    calls = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in {"app", "config", "operators", "spectral"}):
            name = f"{node.func.value.id}.{node.func.attr}"
            calls.add(name)
            inspect.signature(resolve(name)).bind(
                *node.args, **{keyword.arg: None for keyword in node.keywords}
            )
    assert {"app.build_symbol", "app.build_initial_field"} <= calls
    assert list(inspect.signature(app.build_symbol).parameters) == ["config"]
    assert list(inspect.signature(app.build_initial_field).parameters) == ["config", "grid"]
