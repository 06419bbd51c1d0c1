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

from .bounds import safe_exp
from .config import RunConfig, format_config, parse_init
from .evolution import SeriesDiagnostics, evolve
from .fieldio import field_to_csv, read_field, write_csv, write_field, write_metadata
from .operators import MultiplierOperator
from .spectral import (
    NODE_BUDGET,
    OVERFLOW_EXPONENT,
    OVERFLOW_LIMIT,
    FrequencyGrid,
    SpectralField,
    delta,
    gaussian_hat,
    ones,
    seminorm_profile,
)
from .symbols import diffop_to_symbol, parse_diffop_coefficients, parse_symbol


@dataclass(frozen=True)
class HeatScanRow:
    t: float
    M: int
    R: float
    value: float
    overflow: bool


# Step of `heat_scan`'s midpoint quadrature.
HEAT_SCAN_STEP = 1.0 / 64.0


def heat_scan(ts, Ms, Rs) -> list[HeatScanRow]:
    """Tabulate ``integral_{|xi| <= R} e^{-2t(1+4pi^2 xi^2)} (1+|xi|)^{2M} dxi``.

    Midpoint quadrature with the fixed global step ``HEAT_SCAN_STEP``, so
    rows at increasing R are nested and the values are nondecreasing in R.
    Rows whose integrand exceeds the overflow limit anywhere saturate at
    that limit and are flagged rather than returned as infinities.  Times
    must be finite, each M an integer whose 2M is a finite float, radii
    finite and positive, and the quadrature nodes within ``NODE_BUDGET``.
    """
    ts = [float(t) for t in ts]
    if not all(map(math.isfinite, ts)):
        raise ValueError(f"times must be finite, got {ts!r}")
    Rs = sorted(float(R) for R in Rs)
    if not Rs:
        raise ValueError("at least one truncation radius is required")
    if not all(math.isfinite(R) and R > 0 for R in Rs):
        raise ValueError(f"truncation radii must be finite and positive, got {Rs!r}")
    if not all(isinstance(M, (int, np.integer)) for M in Ms):
        raise ValueError(f"weight exponents M must be integers, got {Ms!r}")
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
    count = float(np.ceil(2.0 * r_max / HEAT_SCAN_STEP))  # a float, so inf is refused too
    if count > NODE_BUDGET:
        raise ValueError(f"radius {r_max:g} needs {count:.6g} quadrature nodes, "
                         f"above {NODE_BUDGET}")
    midpoints = -r_max + (np.arange(int(count)) + 0.5) * HEAT_SCAN_STEP
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
                value = float(np.sum(np.exp(log_integrand[mask])) * HEAT_SCAN_STEP)
                rows.append(
                    HeatScanRow(t=float(t), M=M, R=R, value=value, overflow=False)
                )
    return rows


def build_symbol(config: RunConfig):
    if config.symbol_text is not None:
        return parse_symbol(config.symbol_text, config.n)
    coeffs = parse_diffop_coefficients(config.diffop)
    return diffop_to_symbol(coeffs, convention=config.convention, n=config.n)


def build_initial_field(config: RunConfig, grid: FrequencyGrid) -> SpectralField:
    kind, argument = parse_init(config.init)
    if kind == "delta":
        return delta(grid, argument)
    if kind == "file":
        field = read_field(argument)
        if field.grid != grid:
            raise ValueError(
                f"field file grid {field.grid} does not match configured grid {grid}"
            )
        return field
    return ones(grid) if kind == "ones" else gaussian_hat(grid)


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


def run_solve(config: RunConfig, out_dir: str) -> SolveResult:
    """Execute a configured run and write its CSV and metadata files.

    The run consumes `evolve`, which builds the initial field's shell
    field (`ShellField`) once, with its ball profile, and yields each
    time's `Product`: one `saturated_product` pass of its flow factors,
    which holds every profile the run reports.  The grid-ordered initial
    samples are released before the first pass.  The run asks `evolve` to
    keep the last method's field only when it writes a field output
    (``fl2l``, ``field-csv``); a pass that keeps no field and cannot
    saturate reduces over the levels alone.  A kept field is written as
    soon as its time's pass completes, so one time's field is held at a
    time.  Those files take their names as the run's last step: a run that
    raises removes them, and the directories it created for them that are
    then empty.
    """
    grid = FrequencyGrid(config.n, config.J, config.inv_h)
    symbol = build_symbol(config)
    op = MultiplierOperator(symbol, grid, label=config.symbol_spec())
    # the level table's temporaries are gone before the initial field and
    # its shell-ordered copy are both alive
    op.levels()
    u0 = build_initial_field(config, grid)
    times = tuple(sorted(set(float(t) for t in config.times)))
    fields = _FieldFiles(out_dir, config.formats)
    steps = evolve(op, times, u0, config.method, config.tol, keep=bool(fields.formats))
    initial_profile = seminorm_profile(u0)  # formed with u0's shell field
    del u0  # the passes read the shell field only

    profiles: dict = {}
    diagnostics: list = []
    residual_profiles = [] if config.method == "both" else None
    residuals_certified = True
    overflow = False
    try:
        # a plain loop: enumerate's result tuple would hold this time's
        # product while the generator forms the next time's
        for _, product, diag in steps:
            k = len(diagnostics)
            diagnostics.append(diag)
            for name, profile in product.profiles.items():
                profiles.setdefault(name, []).append(profile)
                overflow = overflow or product.overflow[name]
            if product.residual is not None:
                residual_profiles.append(product.residual)
                if not np.all(product.residual <= diag.bounds()):
                    residuals_certified = False
            if product.field is not None:
                fields.write(k, product.field)
            # the next time's factors and field are formed while this name
            # still holds this time's product: release it first
            del product
        methods = tuple(profiles)

        # every multiplier factor has magnitude at least e^{|t|} when the
        # real symbol part is at most -1, so the top seminorm must gain at
        # least that factor; recorded for backward runs
        method = "multiplier" if "multiplier" in methods else "series"
        gain_short = False
        for k, t in enumerate(times):
            if t < 0 and initial_profile[-1] > 0:
                gain = profiles[method][k][-1] / initial_profile[-1]
                gain_short = gain_short or gain < safe_exp(abs(t))
        backward_gain_ok = not (gain_short and np.all(op.levels()[0].real <= -1.0))

        os.makedirs(out_dir, exist_ok=True)
        files = []
        t_column = np.repeat(times, grid.J)
        j_column = np.tile(np.arange(1, grid.J + 1), len(times))
        for name in methods:
            suffix = "" if len(methods) == 1 else f"_{name}"
            trajectory_path = os.path.join(out_dir, f"trajectory{suffix}.csv")
            write_csv(trajectory_path, ["t", "j", "seminorm"],
                      [t_column, j_column, np.ravel(profiles[name])])
            files.append(trajectory_path)
        if residual_profiles is not None:
            residual_path = os.path.join(out_dir, "residuals.csv")
            write_csv(residual_path, ["t", "j", "residual", "certified_bound"],
                      [t_column, j_column, np.ravel(residual_profiles),
                       np.ravel([diag.bounds() for diag in diagnostics])])
            files.append(residual_path)
        metadata_path = os.path.join(out_dir, "run_metadata.txt")
        write_metadata(metadata_path, metadata_lines(config, times, diagnostics, overflow,
                                                     residuals_certified, backward_gain_ok))
        # the field files take their names last, once nothing else can fail
        files += fields.commit()
        files.append(metadata_path)
    except BaseException:
        fields.discard()
        raise

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


# Suffix of a field file until its run succeeds.
_PENDING = ".pending"


class _FieldFiles:
    """A solve's per-time field files: ``field_tKKK.fl2l`` and ``field_tKKK.csv``.

    Each is written under its name plus `_PENDING` and takes its name in
    `commit`; `discard` removes what was written and the directories made
    for it, so a failed run leaves what it found.
    """

    def __init__(self, out_dir: str, formats):
        self.out_dir = out_dir
        self.formats = [name for name in ("fl2l", "field-csv") if name in formats]
        self.paths: list = []   # final names, in the order written
        self.created: list = []  # directories made for them, deepest first

    def write(self, k: int, field: SpectralField):
        if not self.paths:
            path = os.path.abspath(self.out_dir)
            while not os.path.isdir(path):
                self.created.append(path)
                path = os.path.dirname(path)
            os.makedirs(self.out_dir, exist_ok=True)
        stem = os.path.join(self.out_dir, f"field_t{k:03d}")
        if "fl2l" in self.formats:
            write_field(self._pending(stem + ".fl2l"), field)
        if "field-csv" in self.formats:
            field_to_csv(self._pending(stem + ".csv"), field)

    def _pending(self, path: str) -> str:
        self.paths.append(path)
        return path + _PENDING

    def commit(self) -> list:
        for path in self.paths:
            os.replace(path + _PENDING, path)
        return self.paths

    def discard(self):
        for path in self.paths:
            if os.path.exists(path + _PENDING):
                os.remove(path + _PENDING)
        for directory in self.created:
            if os.path.isdir(directory) and not os.listdir(directory):
                os.rmdir(directory)


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
