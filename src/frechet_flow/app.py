"""Batch runs: config-driven evolution and the heat regularity scan.

`run_solve` evolves a configured initial spectrum through the requested
times with the closed-form multiplier, the certified series, or both (in
which case the per-ball residual profile is checked against the series
certificates).  It consumes `evolution.evolve`, the one evolution loop, and
writes its files through the writers in `fieldio`.  `heat_scan` tabulates
the weighted spectral integrals that make the forward/backward regularity
contrast of the heat flow visible as data: for t > 0 the rows converge as
the truncation radius grows, for t < 0 they blow up and saturate at the
overflow limit, flagged.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import RunConfig, format_config
from .evolution import SeriesDiagnostics, evolve
from .fieldio import field_to_csv, read_field, write_csv, write_field, write_metadata
from .operators import MultiplierOperator
from .spectral import (
    NODE_BUDGET,
    OVERFLOW_EXPONENT,
    OVERFLOW_LIMIT,
    FrequencyGrid,
    SpectralField,
    _difference_profile,
    delta,
    gaussian_hat,
    ones,
    seminorm_profile,
)
from .symbols import diffop_to_symbol, parse_diffop_coefficients, parse_symbol, to_polynomial


@dataclass(frozen=True)
class HeatScanRow:
    t: float
    M: int
    R: float
    value: float
    overflow: bool


def heat_scan(ts, Ms, Rs, quad_step: float = 1.0 / 64.0) -> list[HeatScanRow]:
    """Tabulate ``integral_{|xi| <= R} e^{-2t(1+4pi^2 xi^2)} (1+|xi|)^{2M} dxi``.

    Midpoint quadrature with a fixed global step, so rows at increasing R
    are nested and the values are nondecreasing in R.  Rows whose integrand
    exceeds the overflow limit anywhere saturate at that limit and are
    flagged rather than returned as infinities.  Times must be finite, each
    2M a finite float, radii finite and positive, and the quadrature nodes
    within ``NODE_BUDGET``.
    """
    ts = [float(t) for t in ts]
    if not all(map(math.isfinite, ts)):
        raise ValueError(f"times must be finite, got {ts!r}")
    Rs = sorted(float(R) for R in Rs)
    if not Rs:
        raise ValueError("at least one truncation radius is required")
    if not all(math.isfinite(R) and R > 0 for R in Rs):
        raise ValueError(f"truncation radii must be finite and positive, got {Rs!r}")
    Ms = [int(M) for M in Ms]
    for M in Ms:
        try:
            finite = math.isfinite(2.0 * M)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"a weight exponent M of {len(str(abs(M)))} digits: "
                             "2M is not a finite float")
    r_max = Rs[-1]
    count = int(math.ceil(2.0 * r_max / quad_step))
    if count > NODE_BUDGET:
        raise ValueError(f"radius {r_max:g} needs {count} quadrature nodes, above {NODE_BUDGET}")
    midpoints = -r_max + (np.arange(count) + 0.5) * quad_step
    abs_mid = np.abs(midpoints)
    rows = []
    for t in ts:
        exponent = -2.0 * float(t) * (1.0 + 4.0 * math.pi**2 * midpoints**2)
        for M in Ms:
            log_integrand = exponent + 2.0 * M * np.log1p(abs_mid)
            for R in Rs:
                mask = abs_mid <= R
                if np.any(log_integrand[mask] > OVERFLOW_EXPONENT):
                    rows.append(
                        HeatScanRow(t=float(t), M=M, R=R, value=OVERFLOW_LIMIT,
                                    overflow=True)
                    )
                    continue
                value = float(np.sum(np.exp(log_integrand[mask])) * quad_step)
                rows.append(
                    HeatScanRow(t=float(t), M=M, R=R, value=value, overflow=False)
                )
    return rows


def build_symbol(config: RunConfig):
    if config.symbol_text is not None:
        return to_polynomial(parse_symbol(config.symbol_text, config.n))
    coeffs = parse_diffop_coefficients(config.diffop)
    return diffop_to_symbol(coeffs, convention=config.convention, n=config.n)


def build_initial_field(config: RunConfig, grid: FrequencyGrid) -> SpectralField:
    spec = config.init
    if spec == "ones":
        return ones(grid)
    if spec == "gaussian-hat":
        return gaussian_hat(grid)
    if spec.startswith("delta@"):
        return delta(grid, float(spec[6:]))
    if spec.startswith("file:"):
        field = read_field(spec[5:])
        if field.grid != grid:
            raise ValueError(
                f"field file grid {field.grid} does not match configured grid {grid}"
            )
        return field
    raise ValueError(f"unknown init field {spec!r}")


@dataclass
class SolveResult:
    config: RunConfig
    grid: FrequencyGrid
    times: tuple
    initial_profile: np.ndarray
    profiles: dict                      # method -> list of per-time profiles
    diagnostics: list                   # per-time SeriesDiagnostics or None
    residual_profiles: Optional[list]   # method="both": per-time profiles
    residuals_certified: bool
    backward_gain_ok: bool
    overflow: bool
    files: list


def run_solve(config: RunConfig, out_dir: Optional[str] = None) -> SolveResult:
    """Execute a configured run and write its CSV and metadata files."""
    grid = FrequencyGrid(config.n, config.J, config.inv_h)
    symbol = build_symbol(config)
    op = MultiplierOperator(symbol, grid, label=config.symbol_spec())
    u0 = build_initial_field(config, grid)
    times = tuple(sorted(set(float(t) for t in config.times)))

    # Each time's fields are dropped once its profiles are taken, unless a
    # field output needs them (the last method's field, written below).
    keep_fields = out_dir is not None and bool(
        {"fl2l", "field-csv"} & set(config.formats)
    )
    profiles: dict = {}
    kept_fields: list = []
    diagnostics: list = []
    residual_profiles = [] if config.method == "both" else None
    residuals_certified = True
    overflow = False
    for _, evolved, diag in evolve(op, times, u0, config.method, config.tol):
        diagnostics.append(diag)
        for name, field in evolved.items():
            profiles.setdefault(name, []).append(seminorm_profile(field))
            overflow = overflow or field.overflow
        if residual_profiles is not None:
            residual = _difference_profile(evolved["series"], evolved["multiplier"])
            residual_profiles.append(residual)
            if not np.all(residual <= diag.bounds()):
                residuals_certified = False
        if keep_fields:
            kept_fields.append(field)
        # the generator builds the next time's fields while these names
        # still hold this time's: release them first
        del evolved, field
    methods = tuple(profiles)

    initial_profile = seminorm_profile(u0)
    backward_gain_ok = True
    for k, t in enumerate(times):
        if t < 0:
            # every multiplier factor has magnitude at least e^{|t|} when the
            # real symbol part is at most -1, so the top seminorm must gain
            # at least that factor; recorded for backward runs
            method = "multiplier" if "multiplier" in methods else "series"
            gain_target = math.exp(abs(t))
            if initial_profile[-1] > 0:
                gain = profiles[method][k][-1] / initial_profile[-1]
                if gain < gain_target and _symbol_real_part_below(op, -1.0):
                    backward_gain_ok = False

    files = []
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for name in methods:
            suffix = "" if len(methods) == 1 else f"_{name}"
            trajectory_path = os.path.join(out_dir, f"trajectory{suffix}.csv")
            write_csv(trajectory_path, ["t", "j", "seminorm"],
                      ([t, j, value] for t, profile in zip(times, profiles[name])
                       for j, value in enumerate(profile, start=1)))
            files.append(trajectory_path)
        if residual_profiles is not None:
            residual_path = os.path.join(out_dir, "residuals.csv")
            write_csv(residual_path, ["t", "j", "residual", "certified_bound"],
                      ([t, j, residual, bound]
                       for t, profile, diag in zip(times, residual_profiles, diagnostics)
                       for j, (residual, bound) in enumerate(zip(profile, diag.bounds()),
                                                             start=1)))
            files.append(residual_path)
        for k, field in enumerate(kept_fields):
            stem = f"field_t{k:03d}"
            if "fl2l" in config.formats:
                path = os.path.join(out_dir, stem + ".fl2l")
                write_field(path, field)
                files.append(path)
            if "field-csv" in config.formats:
                path = os.path.join(out_dir, stem + ".csv")
                field_to_csv(path, field)
                files.append(path)
        metadata_path = os.path.join(out_dir, "run_metadata.txt")
        write_metadata(metadata_path, metadata_lines(config, times, diagnostics, overflow,
                                                     residuals_certified, backward_gain_ok))
        files.append(metadata_path)

    return SolveResult(
        config=config,
        grid=grid,
        times=times,
        initial_profile=initial_profile,
        profiles=profiles,
        diagnostics=diagnostics,
        residual_profiles=residual_profiles,
        residuals_certified=residuals_certified,
        backward_gain_ok=backward_gain_ok,
        overflow=overflow,
        files=files,
    )


def _symbol_real_part_below(op: MultiplierOperator, level: float) -> bool:
    return bool(np.all(op.levels()[0].real <= level))


def metadata_lines(config, times, diagnostics, overflow, residuals_certified,
                   backward_gain_ok) -> list:
    lines = ["# effective configuration", format_config(config).rstrip(), ""]
    lines.append("# run summary")
    lines.append(f"times = {', '.join(f'{t:.17g}' for t in times)}")
    lines.append(f"overflow_flagged = {int(overflow)}")
    lines.append(f"residuals_certified = {int(residuals_certified)}")
    lines.append(f"backward_gain_ok = {int(backward_gain_ok)}")
    lines.append("# the series metric truncates at j = J; the omitted tail is below 2^-J")
    for k, diag in enumerate(diagnostics):
        if isinstance(diag, SeriesDiagnostics):
            lines.append(
                f"series[{k}]: t = {diag.t:.17g}, stages = {diag.stages}, "
                f"terms = {diag.terms}, worst_rate = {diag.rate:.6g}"
            )
            bounds = ", ".join(f"{b:.3e}" for b in diag.bounds())
            lines.append(f"series[{k}] certified bounds per j: {bounds}")
    return lines
