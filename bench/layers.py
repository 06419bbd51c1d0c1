"""Per-layer metrics of the traced run and the end-to-end metric each should move.

A name ending in ``.calls``, ``.self_s`` or ``.total_s``/``.s`` reads the
span of the same prefix (see ``spans.SPANS``); a span that was never
recorded reads 0.  The remaining names are counters kept at the span
boundaries.
"""

from __future__ import annotations

SOLVES_RUN = "run_s on solve-fwd-2d and solve-bwd-2d"
SOLVES_RSS = "peak_rss_mb and run_s on solve-fwd-2d and solve-bwd-2d"
IO_SETUP = "run_s on solve-bwd-2d; setup_s on solve-fwd-2d and solve-bwd-2d"
VERIFY_RUN = "run_s on verify only"
REDUCTIONS = "run_s on solve-fwd-2d; little on solve-bwd-2d; none on verify"
SATURATION = "run_s on solve-fwd-2d (ratio 0); none on solve-bwd-2d (ratio 1)"
SELF_CHECK = "none; checks the trace itself"

# (metric, unit, better, what it should move)
LAYER_METRICS = (
    ("spectral.seminorm_profile.calls", "count", "lower", REDUCTIONS),
    ("spectral.seminorm_profile.self_s", "s", "lower", REDUCTIONS),
    ("spectral.seminorm.calls", "count", "lower", REDUCTIONS),
    ("spectral.seminorm.self_s", "s", "lower", REDUCTIONS),
    ("operators.MultiplierOperator.seminorm.calls", "count", "lower", REDUCTIONS),
    ("operators.MultiplierOperator.seminorm.self_s", "s", "lower", REDUCTIONS),
    ("spectral.saturated_product.calls", "count", "lower", SATURATION),
    ("spectral.saturated_product.self_s", "s", "lower", SATURATION),
    ("spectral.saturated_product.flagged_ratio", "ratio", "lower", SATURATION),
    ("evolution.exp_series.calls", "count", "lower", SOLVES_RUN),
    ("evolution.exp_series.self_s", "s", "lower", SOLVES_RUN),
    ("evolution.exp_series.node_passes", "count", "lower", SOLVES_RUN),
    ("evolution.exp_multiplier.self_s", "s", "lower", SOLVES_RUN),
    ("evolution.certificate_margin_min", "ratio", "higher", SOLVES_RUN),
    ("spectral.SpectralField.calls", "count", "lower", SOLVES_RSS),
    ("spectral.SpectralField.self_s", "s", "lower", SOLVES_RSS),
    ("app.run_solve.self_s", "s", "lower", SOLVES_RSS),
    ("app.output_bytes", "bytes", "lower", SOLVES_RSS),
    ("fieldio.write_field.calls", "count", "lower", IO_SETUP),
    ("fieldio.write_field.self_s", "s", "lower", IO_SETUP),
    ("fieldio.read_field.self_s", "s", "lower", IO_SETUP),
    ("app.build_initial_field.self_s", "s", "lower", IO_SETUP),
    ("operators.MultiplierOperator.self_s", "s", "lower", IO_SETUP),
    ("symbols.PolynomialSymbol.eval_grid.self_s", "s", "lower", IO_SETUP),
    ("symbols.parse_symbol.self_s", "s", "lower", IO_SETUP),
    ("config.config_from_text.self_s", "s", "lower", IO_SETUP),
    ("translation.certify_membership.calls", "count", "lower", VERIFY_RUN),
    ("translation.certify_membership.self_s", "s", "lower", VERIFY_RUN),
    ("translation.translate_detailed.self_s", "s", "lower", VERIFY_RUN),
    ("invariance.decide_l2.self_s", "s", "lower", VERIFY_RUN),
    ("invariance.find_growth_witness.self_s", "s", "lower", VERIFY_RUN),
    ("invariance.l2_blowup_construction.self_s", "s", "lower", VERIFY_RUN),
    ("app.heat_scan.self_s", "s", "lower", VERIFY_RUN),
    ("verify.suite.spectral.s", "s", "lower", VERIFY_RUN),
    ("verify.suite.symbols.s", "s", "lower", VERIFY_RUN),
    ("verify.suite.operators.s", "s", "lower", VERIFY_RUN),
    ("verify.suite.evolution.s", "s", "lower", VERIFY_RUN),
    ("verify.suite.invariance.s", "s", "lower", VERIFY_RUN),
    ("verify.suite.translation.s", "s", "lower", VERIFY_RUN),
    ("verify.suite.config.s", "s", "lower", VERIFY_RUN),
    ("cli.main.total_s", "s", "lower", SELF_CHECK),
    ("trace.overhead_ratio", "ratio", "lower", SELF_CHECK),
)

_SPAN_FIELDS = ((".calls", "calls"), (".self_s", "self_s"), (".total_s", "total_s"),
                (".s", "total_s"))


def layer_values(summary: dict, traced_wall_s: float, run_s: float) -> dict:
    """Value of every metric in ``LAYER_METRICS`` from a traced-run summary."""
    spans, counters = summary["spans"], summary["counters"]
    saturated_calls = spans.get("spectral.saturated_product", {}).get("calls", 0)
    special = {
        "spectral.saturated_product.flagged_ratio":
            counters.get("saturated_product.flagged", 0) / saturated_calls
            if saturated_calls else 0.0,
        "evolution.exp_series.node_passes": counters.get("exp_series.node_passes", 0),
        "evolution.certificate_margin_min": summary.get("margin_min") or 0.0,
        "app.output_bytes": counters.get("app.output_bytes", 0),
        "trace.overhead_ratio": traced_wall_s / run_s - 1.0,
    }
    values = {}
    for name, _, _, _ in LAYER_METRICS:
        if name in special:
            values[name] = special[name]
            continue
        for suffix, field in _SPAN_FIELDS:
            if name.endswith(suffix):
                values[name] = spans.get(name[: -len(suffix)], {}).get(field, 0)
                break
    return values
