"""Tests of the benchmark harness itself.

Run from the repository root: ``python3 -m pytest -q bench/tests``.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "bench")
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [BENCH, SRC]

import checks  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Workload, prepare  # noqa: E402

CHILD_ENV = dict(os.environ, PYTHONPATH=SRC, FRECHET_FLOW_THREADS="1")

SMALL = {
    "forward": Workload("small-fwd", "solve", 0, (2, 4, 8), (0.01, 0.5)),
    "backward": Workload("small-bwd", "solve", 3, (2, 4, 8), (-2.0, -0.15), "csv, fl2l"),
}


def _solve_in(prepared, monkeypatch) -> int:
    from frechet_flow import cli

    monkeypatch.chdir(prepared.workdir)
    return cli.main(prepared.cli_args("out"))


def _reference(prepared):
    w = prepared.workload
    return checks.reference_profiles(prepared.init_values, w.grid, w.times)


@pytest.mark.parametrize("name", ["solve-fwd-2d", "solve-bwd-2d"])
def test_two_seeds_change_only_the_init_samples(name, tmp_path):
    a = prepare(WORKLOADS[name], 1, str(tmp_path / "a"))
    b = prepare(WORKLOADS[name], 2, str(tmp_path / "b"))
    assert (tmp_path / "a" / "run.cfg").read_bytes() == (tmp_path / "b" / "run.cfg").read_bytes()
    field_a = (tmp_path / "a" / "init.fl2l").read_bytes()
    field_b = (tmp_path / "b" / "init.fl2l").read_bytes()
    assert len(field_a) == len(field_b)
    assert field_a[:17] == field_b[:17]          # same header, so the same grid
    assert field_a[17:] != field_b[17:]
    assert a.cli_args("out") == b.cli_args("out")
    assert a.setup_args() == b.setup_args()
    prepare(WORKLOADS[name], 1, str(tmp_path / "c"))
    assert (tmp_path / "c" / "init.fl2l").read_bytes() == field_a


def test_verify_seed_reaches_only_the_seed_argument(tmp_path):
    a = prepare(WORKLOADS["verify"], 1, str(tmp_path / "a")).cli_args("out")
    b = prepare(WORKLOADS["verify"], 2, str(tmp_path / "b")).cli_args("out")
    assert [x for x, y in zip(a, b) if x != y] == ["1"]


@pytest.mark.parametrize("kind", ["forward", "backward"])
def test_solve_outputs_pass_and_corruption_fails(kind, tmp_path, monkeypatch):
    prepared = prepare(SMALL[kind], 5, str(tmp_path))
    code = _solve_in(prepared, monkeypatch)
    reference = _reference(prepared)
    out = str(tmp_path / "out")
    expected = prepared.workload.expected_exit
    J = prepared.workload.grid[1]
    assert code == expected
    assert checks.check_solve(out, code, expected, reference, J) == []
    if kind == "backward":
        assert any(v is None for profile in reference.values() for v in profile)

    # a wrong exit code alone is a failure
    assert checks.check_solve(out, 4, expected, reference, J)

    # one multiplier row off by a relative 1e-9 is a failure
    path = tmp_path / "out" / "trajectory_multiplier.csv"
    original = path.read_text()
    lines = original.splitlines()
    t, j, value = lines[1].split(",")
    lines[1] = f"{t},{j},{float(value) * (1 + 1e-9):.17g}"
    path.write_text("\n".join(lines) + "\n")
    assert checks.check_solve(out, code, expected, reference, J)

    # a missing row is a failure
    path.write_text("\n".join(original.splitlines()[:-1]) + "\n")
    assert checks.check_solve(out, code, expected, reference, J)
    path.write_text(original)

    # a series row moved beyond its certified bound is a failure
    path = tmp_path / "out" / "trajectory_series.csv"
    lines = path.read_text().splitlines()
    t, j, value = lines[1].split(",")
    lines[1] = f"{t},{j},{float(value) * (1 + 1e-6):.17g}"
    path.write_text("\n".join(lines) + "\n")
    assert checks.check_solve(out, code, expected, reference, J)


def test_ulp_level_change_still_passes(tmp_path, monkeypatch):
    prepared = prepare(SMALL["forward"], 6, str(tmp_path))
    code = _solve_in(prepared, monkeypatch)
    path = tmp_path / "out" / "trajectory_multiplier.csv"
    lines = path.read_text().splitlines()
    for k in range(1, len(lines)):
        t, j, value = lines[k].split(",")
        lines[k] = f"{t},{j},{float(value) * (1 + 1e-14):.17g}"
    path.write_text("\n".join(lines) + "\n")
    assert checks.check_solve(str(tmp_path / "out"), code, 0, _reference(prepared), 4) == []


def test_verify_check_needs_every_suite_and_the_exit_code():
    passing = "\n".join(f"{s:<12} PASS  (0.01 s)" for s in checks.VERIFY_SUITES)
    assert checks.check_verify(passing, 0, 0) == []
    assert checks.check_verify(passing, 4, 0)
    assert checks.check_verify(passing.replace("config       PASS", "config       FAIL"), 0, 0)


def test_self_time_of_nested_and_repeated_spans():
    recorded = [
        ["outer", 0.0, 10.0, -1],
        ["inner", 1.0, 3.0, 0],
        ["inner", 4.0, 7.0, 0],
        ["leaf", 5.0, 6.0, 2],
        ["outer", 20.0, 21.0, -1],
    ]
    totals = spans.span_totals(recorded)
    assert totals["outer"] == {"calls": 2, "total_s": 11.0, "self_s": 6.0}
    assert totals["inner"] == {"calls": 2, "total_s": 5.0, "self_s": 4.0}
    assert totals["leaf"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def test_recorder_builds_the_span_tree_and_survives_exceptions():
    ticks = iter(range(100))
    recorder = spans.Recorder(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    def boom():
        raise ValueError

    leaf_t = recorder.wrap("leaf", leaf)
    boom_t = recorder.wrap("boom", boom)

    def outer():
        leaf_t()
        leaf_t()
        with pytest.raises(ValueError):
            boom_t()

    recorder.wrap("outer", outer)()
    names = [(s[0], s[3]) for s in recorder.spans]
    assert names == [("outer", -1), ("leaf", 0), ("leaf", 0), ("boom", 0)]
    assert recorder.stack == []
    totals = spans.span_totals(recorder.spans)
    assert totals["outer"]["self_s"] == totals["outer"]["total_s"] - 3.0


def test_missing_span_reads_zero():
    summary = {"spans": {}, "counters": {}, "margin_min": None}
    values = layers.layer_values(summary, 2.0, 1.0)
    assert set(values) == {name for name, *_ in layers.LAYER_METRICS}
    assert values["spectral.seminorm.calls"] == 0
    assert values["trace.overhead_ratio"] == 1.0


def test_workloads_and_layer_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)
    assert benchmark["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, _ in layers.LAYER_METRICS
    ]


_BINDINGS = """
import importlib, sys
sys.path.insert(0, {bench!r})
import spans
import frechet_flow.app as app
del app.heat_scan
originals = {{}}
for span in spans.SPANS:
    module, *path = span.split(".")
    target = getattr(importlib.import_module("frechet_flow." + module), path[0], None)
    if len(path) == 1 and callable(target) and not isinstance(target, type):
        originals[span] = target
wrapped = spans.install(spans.Recorder())
assert "app.heat_scan" not in wrapped, wrapped
for name, module in list(sys.modules.items()):
    if name.startswith("frechet_flow"):
        for attr, value in vars(module).items():
            for span, original in originals.items():
                assert value is not original, (name, attr, span)
print("ok", len(wrapped))
"""


def test_install_rebinds_every_import_and_skips_deleted_names():
    result = subprocess.run(
        [sys.executable, "-c", _BINDINGS.format(bench=BENCH)],
        env=CHILD_ENV, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("ok")


@pytest.mark.parametrize(
    "name, span, flagged_ratio",
    [
        ("solve-fwd-2d", "spectral.saturated_product", 0.0),
        ("solve-bwd-2d", "spectral.saturated_product", 1.0),
        ("verify", "translation.certify_membership", None),
    ],
)
def test_traced_workload_records_its_layer(name, span, flagged_ratio, tmp_path):
    prepared = prepare(WORKLOADS[name], 3, str(tmp_path))
    summary_path = str(tmp_path / "spans.json")
    result = subprocess.run(
        [sys.executable, os.path.join(BENCH, "spans.py"), summary_path, "--",
         *prepared.cli_args("out")],
        cwd=str(tmp_path), env=dict(CHILD_ENV, TMPDIR=str(tmp_path)),
        capture_output=True, text=True, timeout=170,
    )
    assert result.returncode == prepared.workload.expected_exit, result.stderr
    with open(summary_path) as handle:
        summary = json.load(handle)
    assert summary["spans"][span]["calls"] >= 1
    values = layers.layer_values(summary, 1.0, 1.0)
    if flagged_ratio is not None:
        assert values["spectral.saturated_product.flagged_ratio"] == flagged_ratio


def test_compare_verdicts():
    import compare

    base = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
    assert compare.verdict(base, [v * 1.5 for v in base], 0.25, True) == "regression"
    assert compare.verdict(base, [v * 0.5 for v in base], 0.25, True) == "gain"
    assert compare.verdict(base, list(base), 0.25, True) == "same"
    assert compare.verdict([1.0, 2.0, 1.0, 2.0], [1.0, 2.0, 1.0, 2.0], 0.25, True) == "unresolved"
