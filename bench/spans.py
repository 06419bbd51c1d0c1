"""Span recording around calls into each frechet_flow module.

The traced child process (``python bench/spans.py OUT.json -- <cli args>``)
wraps the public functions and classes named in ``SPANS``, rebinds every
module-level name that refers to them (``app``, ``evolution``, ``cli`` ...
bind ``seminorm_profile`` and friends at import time), runs
``frechet_flow.cli.main`` and writes the recorded spans and counters as JSON.
A name that no longer exists is skipped, so it reads as 0 calls.

Self time of a span is its duration minus the durations of its direct child
spans; calls run on one thread, so child spans never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time
from collections import defaultdict

# Wrapped names: "module.function", "module.Class" (the constructor) or
# "module.Class.method".  Every suite in `verify.SUITES` is wrapped as well.
SPANS = (
    "cli.main",
    "config.config_from_text",
    "symbols.parse_symbol",
    "symbols.PolynomialSymbol.eval_grid",
    "operators.MultiplierOperator",
    "operators.MultiplierOperator.seminorm",
    "spectral.SpectralField",
    "spectral.seminorm_profile",
    "spectral.seminorm",
    "spectral.saturated_product",
    "evolution.exp_multiplier",
    "evolution.exp_series",
    "fieldio.read_field",
    "fieldio.write_field",
    "app.build_initial_field",
    "app.run_solve",
    "app.heat_scan",
    "translation.certify_membership",
    "translation.translate_detailed",
    "invariance.decide_l2",
    "invariance.find_growth_witness",
    "invariance.l2_blowup_construction",
)

class Recorder:
    """Spans as ``[name, start, end, parent_index]`` plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.stack: list = []
        self.counters: dict = defaultdict(float)
        self.margin_min = math.inf

    def wrap(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if observe is not None:
                try:
                    observe(self, result)
                except (AttributeError, TypeError, ValueError):
                    self.counters["trace.observer_errors"] += 1
            return result

        return traced


def span_totals(spans) -> dict:
    """Per name: ``{"calls", "total_s", "self_s"}`` from recorded spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict = {}
    for index, (name, start, end, _) in enumerate(spans):
        entry = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[index]
    return totals


def _observe_saturated_product(recorder, result):
    if isinstance(result, tuple) and len(result) == 2 and result[1]:
        recorder.counters["saturated_product.flagged"] += 1


def _observe_exp_series(recorder, result):
    field, diagnostics = result
    stage_doublings = int(diagnostics.stages).bit_length() - 1
    recorder.counters["exp_series.node_passes"] += (
        (diagnostics.terms + stage_doublings) * field.grid.node_count
    )


def _observe_run_solve(recorder, result):
    for path in getattr(result, "files", ()):
        recorder.counters["app.output_bytes"] += os.path.getsize(path)
    residuals = getattr(result, "residual_profiles", None) or ()
    for residual, diagnostics in zip(residuals, result.diagnostics):
        for res, bound in zip(residual, diagnostics.bounds()):
            if res > 0.0 and math.isfinite(bound / res):
                recorder.margin_min = min(recorder.margin_min, float(bound / res))


OBSERVERS = {
    "spectral.saturated_product": _observe_saturated_product,
    "evolution.exp_series": _observe_exp_series,
    "app.run_solve": _observe_run_solve,
}


def _rebind(original, wrapper):
    """Point every frechet_flow module-level name bound to ``original`` at ``wrapper``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("frechet_flow"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(recorder: Recorder) -> list:
    """Wrap every name in ``SPANS`` and each verify suite; returns the names wrapped."""
    importlib.import_module("frechet_flow.cli")
    wrapped = []
    for span in SPANS:
        module_name, *path = span.split(".")
        try:
            module = importlib.import_module(f"frechet_flow.{module_name}")
        except ImportError:
            continue
        target = getattr(module, path[0], None)
        if target is None:
            continue
        observe = OBSERVERS.get(span)
        if len(path) == 2:
            method = getattr(target, path[1], None)
            if method is None:
                continue
            setattr(target, path[1], recorder.wrap(span, method, observe))
        elif isinstance(target, type):
            target.__init__ = recorder.wrap(span, target.__init__, observe)
        else:
            _rebind(target, recorder.wrap(span, target, observe))
        wrapped.append(span)
    suites = getattr(importlib.import_module("frechet_flow.verify"), "SUITES", {})
    for name, suite in suites.items():
        suites[name] = recorder.wrap(f"verify.suite.{name}", suite)
        wrapped.append(f"verify.suite.{name}")
    return wrapped


def summary(recorder: Recorder, wrapped) -> dict:
    return {
        "wrapped": list(wrapped),
        "spans": span_totals(recorder.spans),
        "counters": dict(recorder.counters),
        "margin_min": recorder.margin_min if math.isfinite(recorder.margin_min) else None,
    }


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: spans.py OUT.json -- <frechet_flow cli arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    recorder = Recorder()
    wrapped = install(recorder)
    cli = importlib.import_module("frechet_flow.cli")
    try:
        code = cli.main(cli_args)
    finally:
        with open(out_path, "w") as handle:
            json.dump(summary(recorder, wrapped), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
