"""The exponential flow ``e^{tA}`` with certified truncation diagnostics.

Every flow here is of a `MultiplierOperator`, the operator of a
polynomial symbol on one grid, and every function takes that operator, so
a caller sees each level table it builds; a field on another grid is
refused with ``ValueError``.  Two independent constructions are provided
and cross-checked everywhere:

* `exp_multiplier` — the closed form: nodewise multiplication by
  ``e^{t a(xi)}``, exact up to the scalar exponential.  Nodes whose real
  exponent exceeds 709 saturate at that magnitude and flag the result
  instead of overflowing; the blow-up itself is the interesting output.

* `exp_series` — the truncated power series of the generator.  Because the
  per-ball rates ``|t| p_j^X(A)`` reach the thousands on realistic grids, a
  single truncated sum is hopeless in double precision (its largest term is
  ``e^rate``).  The series is therefore evaluated in certified stages: the
  time step is halved ``s`` times until the worst rate is at most
  ``STAGE_RATE_LIMIT``, one truncated Taylor stage is evaluated there, and
  the stage is composed ``2^s`` times through the group law.  Per ball j the
  a-priori error bound of this scheme is

      stages * tail_j * (growth_j + tail_j)^(stages - 1) * p_j(u),

  where ``tail_j`` is the scalar series tail at the stage rate and
  ``growth_j`` the exact ball-j norm of one exact stage.  For decaying or
  neutral evolution the bound stays below the requested tolerance; for
  expanding evolution it carries the genuine exponential amplification (and
  may be infinite), which is reported honestly rather than hidden.
  `series_factor` builds every time's certificate, t = 0 included, with
  one per-ball loop; at t = 0 every rate is 0 and every stage growth 1,
  so each bound is 0 and the factor is the identity.

Both flow factors are functions of the symbol value alone, so both kernels
run once per distinct symbol value (the operator's level table,
`MultiplierOperator.levels`), not once per grid node: `multiplier_factor`
and `series_factor` build them as `LevelFactor`s, and `saturated_product`
gathers them onto the nodes.  Each value is the same elementwise operation
on the same input bits, so the results are bitwise those of a per-node
evaluation.

`evolve` is the one evolution loop over times: it yields each time's
factors (and the series certificate) in turn, and `app.run_solve` forms
each time's profiles, residual and written field from them in one
`saturated_product` pass over the initial field's `ShellField`.  The loop
reads only the initial field's ball profile, so it holds no field.
`exp_multiplier` and `exp_series` are the same factors applied to one
field, for callers that keep it; each call builds its own shell field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import VALID_METHODS
from .operators import MultiplierOperator
from .spectral import (
    OVERFLOW_EXPONENT,
    LevelFactor,
    ShellField,
    SpectralField,
    embed,
    project,
    restrict,
    saturated_product,
    seminorm,
    seminorm_profile,
    shell_reductions,
)

# Scale the time step until |t| p_J^X(A) / 2^s is at most this.
STAGE_RATE_LIMIT = 4.0

# Per-stage truncation orders beyond this indicate an unusable tolerance.
TERM_CAP = 512

LN2 = math.log(2.0)


class SeriesTruncationError(ValueError):
    """The requested tolerance needs more series terms than the cap allows."""


def scalar_tail_log(rate: float, terms: int) -> float:
    """Natural log of an upper bound for ``sum_{n > terms} rate^n / n!``.

    Uses the first omitted term times a geometric majorant when the term
    ratio is below one, and the crude bound ``e^rate`` otherwise.
    """
    if rate <= 0.0:
        return -math.inf
    if terms + 2 <= rate:
        return rate
    log_term = (terms + 1) * math.log(rate) - math.lgamma(terms + 2)
    return log_term - math.log1p(-rate / (terms + 2))


def choose_terms(rate: float, log_threshold: float) -> int:
    """Smallest truncation order, at most ``TERM_CAP``, whose tail bound is below the threshold."""
    for terms in range(TERM_CAP + 1):
        if scalar_tail_log(rate, terms) <= log_threshold:
            return terms
    raise SeriesTruncationError(
        f"rate {rate:.3g} needs more than {TERM_CAP} terms to reach "
        f"log-threshold {log_threshold:.3g}"
    )


def _check_time(t) -> None:
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")


def _check_grid(op: MultiplierOperator, u: SpectralField) -> None:
    if op.grid != u.grid:
        raise ValueError("operator grid does not match field grid")


def exp_multiplier(op: MultiplierOperator, t: float, u: SpectralField) -> SpectralField:
    """Closed-form evolution: nodewise product with ``e^{t a(xi)}``.

    Samples whose evolved magnitude would exceed ``e^709`` are saturated at
    that magnitude (phase kept) and the result is flagged, as is any node
    carrying data whose bare factor exceeds that range.
    """
    _check_time(t)
    _check_grid(op, u)
    return _evolved(multiplier_factor(op, t), u, op)


def multiplier_factor(op: MultiplierOperator, t: float) -> Optional[LevelFactor]:
    """The closed form's factor ``e^{t a}`` per level; None (the identity) at t = 0."""
    if t == 0.0:
        return None
    # a real part that overflows reads +-inf, which the saturation policy handles
    with np.errstate(over="ignore"):
        z = t * op.levels()[0]
    return LevelFactor(z.real, np.exp(1j * z.imag), flags_blown=True)


def _evolved(factor: Optional[LevelFactor], u: SpectralField,
             op: MultiplierOperator) -> SpectralField:
    """The field of one flow's factor on u; u's own samples for the identity (None)."""
    if factor is None:
        return SpectralField._adopt(u.grid, u.values, u.overflow)
    product, _ = saturated_product({"flow": factor}, ShellField(u, op.levels()[1]), keep="flow")
    return product.field


@dataclass(frozen=True)
class LevelCertificate:
    """Per-ball a-priori accuracy certificate of one series evaluation."""

    j: int
    rate: float            # |t| p_j^X(A)
    terms: int             # minimal stage truncation order for this ball
    tail: float            # scalar stage tail bound at that order (e^scalar_tail_log)
    stage_growth: float    # exact ball norm of one exact stage
    bound: float           # certified bound on p_j(series - exact); may be inf
    field_seminorm: float  # p_j(u)


@dataclass(frozen=True)
class SeriesDiagnostics:
    """Certificate attached to every `exp_series` result.

    ``terms`` is the executed per-stage truncation order and ``rate`` the
    worst rate, both those of the top ball's certificate (the worst ball,
    so its order dominates every per-ball requirement).  Each level
    carries the bound of the scheme had it been tuned for that ball alone;
    the executed run uses at least as many terms, so the bound is valid for
    it.  When every stage growth is at most one, each bound is below the
    requested tolerance.
    """

    t: float
    tol: float
    stages: int
    levels: tuple

    @property
    def terms(self) -> int:
        return self.levels[-1].terms

    @property
    def rate(self) -> float:
        return self.levels[-1].rate

    def bounds(self) -> np.ndarray:
        return np.array([level.bound for level in self.levels])


def _stage_growth(op: MultiplierOperator, t_stage: float) -> list:
    """Exact ball operator norms of the exact stage map: max |e^{t' a}| per ball.

    Rounding is monotone, so ``t' * max Re a`` (``t' * min Re a`` for
    t' < 0) equals the node maximum of ``t' * Re a`` bitwise.
    """
    lower, upper = op.real_part_range()
    peaks = t_stage * (upper if t_stage >= 0 else lower)
    return [math.exp(peak) if peak <= 700.0 else math.inf for peak in peaks.tolist()]


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def exp_series(op: MultiplierOperator, t: float, u: SpectralField, tol: float = 1e-8):
    """Evolve by the truncated, staged power series of the generator.

    Returns ``(field, diagnostics)``.  The truncation order is chosen so
    the scalar tail at the worst-ball stage rate falls below
    ``tol / ((1 + p_J(u)) * stages)``; the diagnostics carry per-ball
    certified bounds (see the module docstring for their form).  Stage
    magnitudes above ``e^709`` saturate there and flag the result, exactly
    matching the closed-form path.
    """
    _check_time(t)
    _check_grid(op, u)
    factor, diagnostics = series_factor(op, t, seminorm_profile(u), tol)
    return _evolved(factor, u, op), diagnostics


def series_factor(op: MultiplierOperator, t: float, profile, tol: float):
    """The staged series' factor per level and its certificate, for `exp_series` and `evolve`.

    ``profile`` is the ball profile ``(p_1(u), ..., p_J(u))`` of the field
    it is applied to, the only thing of u the certificate reads.  Returns
    ``(factor, diagnostics)``; the factor is None (the identity) at t = 0,
    where the certificate takes every rate 0 and every stage growth 1
    without reading the operator.  A worst rate ``|t| max|a|`` or, at a
    nonzero rate, a p_J(u) that is not finite leaves no tolerance
    reachable: `SeriesTruncationError`.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    J = op.grid.J
    if t == 0.0:
        s, rates, growths = 0, [0.0] * J, [1.0] * J
    else:
        with np.errstate(over="ignore"):
            rates = (abs(t) * op._profile()).tolist()
        worst = rates[-1]
        if not math.isfinite(worst):
            raise SeriesTruncationError(
                f"the worst rate |t| max|a| = {worst:g} is not finite at t = {t:g}, "
                "so no series stage count exists")
        s = 0 if worst <= STAGE_RATE_LIMIT else math.ceil(math.log2(worst / STAGE_RATE_LIMIT))
        growths = _stage_growth(op, t / (1 << s))
    stages = 1 << s
    if rates[-1] > 0.0 and not math.isfinite(profile[-1]):
        raise SeriesTruncationError(
            f"p_J(u) = {profile[-1]:g} is not finite, so no series truncation "
            f"reaches tol = {tol:g} at t = {t:g}")
    log_threshold = math.log(tol) - math.log1p(profile[-1]) - s * LN2

    # from the top ball down, so a tolerance out of reach is reported at
    # the worst rate, the one the executed stage uses
    levels = []
    for j in range(J, 0, -1):
        stage_rate = rates[j - 1] / stages
        level_terms = choose_terms(stage_rate, log_threshold)
        log_tail = scalar_tail_log(stage_rate, level_terms)
        growth = growths[j - 1]
        pj_u = float(profile[j - 1])
        if pj_u == 0.0 or log_tail == -math.inf:
            bound = 0.0
        else:
            log_growth_plus = np.logaddexp(
                math.log(growth) if growth > 0 else -math.inf, log_tail
            )
            log_bound = (
                s * LN2 + log_tail + (stages - 1) * log_growth_plus + math.log(pj_u)
            )
            bound = _safe_exp(float(log_bound))
        levels.append(
            LevelCertificate(
                j=j,
                rate=rates[j - 1],
                terms=level_terms,
                tail=_safe_exp(log_tail),
                stage_growth=growth,
                bound=bound,
                field_seminorm=pj_u,
            )
        )
    diagnostics = SeriesDiagnostics(t=t, tol=tol, stages=stages, levels=tuple(levels[::-1]))
    if t == 0.0:
        return None, diagnostics

    # One truncated Taylor stage at t/stages, evaluated by Horner.  For a
    # multiplier the iterated application u_n = (t'/n) A u_{n-1} acts
    # nodewise, so the stage is the scalar polynomial of t' a(xi): it is
    # evaluated once per distinct symbol value and gathered onto the nodes
    # by `saturated_product`.
    x = (t / stages) * op.levels()[0]
    acc = np.ones_like(x)
    for n in range(diagnostics.terms, 0, -1):
        acc = 1.0 + acc * (x / n)

    # Compose the stage 2^s times through the group law.  Tracking the
    # magnitude logarithmically keeps expanding directions exact up to the
    # saturation policy instead of overflowing.
    magnitude = np.abs(acc)
    with np.errstate(divide="ignore"):
        log_magnitude = np.where(magnitude > 0.0, np.log(magnitude), -np.inf)
    phase = np.where(magnitude > 0.0, acc / np.where(magnitude > 0.0, magnitude, 1.0), 1.0)
    for _ in range(s):
        phase = phase * phase
    return LevelFactor(log_magnitude * stages, phase), diagnostics


def verify_group_law(op: MultiplierOperator, s: float, t: float,
                     u: SpectralField) -> np.ndarray:
    """Seminorm profile of ``e^{sA}(e^{tA}u) - e^{(s+t)A}u`` (closed form)."""
    composed = exp_multiplier(op, s, exp_multiplier(op, t, u))
    direct = exp_multiplier(op, s + t, u)
    return seminorm_profile(composed - direct)


def uniform_continuity_gap(op: MultiplierOperator, t: float, j: int):
    """Return ``(lhs, rhs)`` with lhs the exact ball-j norm of ``e^{tA} - I``
    and rhs the rate bound ``e^{t p_j^X(A)} - 1``; lhs never exceeds rhs."""
    if t < 0:
        raise ValueError("the continuity gap is stated for t >= 0")
    j = op.grid.check_ball_index(j)
    levels, inverse = op.levels()
    # per level, so levels only outside ball j are evaluated too
    with np.errstate(over="ignore", invalid="ignore"):
        z = t * levels
        gap = np.abs(np.exp(np.minimum(z.real, OVERFLOW_EXPONENT) + 1j * z.imag) - 1.0)
    (peaks,) = shell_reductions(op.grid, inverse, [(np.maximum, gap)])
    lhs = float(np.max(peaks[:j]))
    rhs = _safe_exp(t * op.seminorm(j)) - 1.0
    return lhs, rhs


def generator_residual(op: MultiplierOperator, t: float, u: SpectralField, j: int) -> float:
    """``p_j((e^{tA}u - u)/t - Au)``; first order in t as t -> 0."""
    _check_time(t)
    if t == 0.0:
        raise ValueError("the difference quotient needs t != 0")
    evolved = exp_multiplier(op, t, u)
    quotient = (evolved - u) * (1.0 / t)
    return seminorm(quotient - op.apply(u), j)


def generator_residual_bound(op: MultiplierOperator, t: float, u: SpectralField,
                             j: int) -> float:
    """Closed-form bound ``((e^{|t| r} - 1)/|t| - r) p_j(u)``, r = p_j^X(A)."""
    _check_grid(op, u)
    r = op.seminorm(j)
    scale = (_safe_exp(abs(t) * r) - 1.0) / abs(t) - r
    return scale * seminorm(u, j)


@dataclass(frozen=True)
class DiagramCheck:
    """Outcome of the quotient-diagram commutativity checks at level j."""

    j: int
    projection_commutes: bool   # sigma_j(Au) == A_j sigma_j(u)
    restriction_commutes: bool  # pi_j(A_{j+1} sigma_{j+1}(u)) == A_j sigma_j(u)
    witness: Optional[tuple]

    @property
    def passed(self) -> bool:
        return self.projection_commutes and self.restriction_commutes


def verify_quotient_diagrams(op, u: SpectralField, j: int) -> DiagramCheck:
    """Check, bitwise, that the operator commutes with the quotient maps.

    ``A_j`` acts on the ball-j quotient by zero-extension, application and
    projection.  Multipliers commute exactly (both sides multiply the same
    stored samples); operators that move mass across ball boundaries fail
    with a concrete witness node.
    """
    grid = u.grid
    if not 1 <= j < grid.J:
        raise ValueError(f"diagram checks need 1 <= j < J = {grid.J}")
    sigma_au = project(op.apply(u), j)
    a_sigma = project(op.apply(embed(project(u, j), grid)), j)
    proj_ok = np.array_equal(sigma_au.values, a_sigma.values)

    upper = project(op.apply(embed(project(u, j + 1), grid)), j + 1)
    restricted = restrict(upper, j)
    restr_ok = np.array_equal(restricted.values, a_sigma.values)

    witness = None
    if not proj_ok:
        bad = np.nonzero(sigma_au.values != a_sigma.values)[0]
        witness = tuple(float(x) for x in sigma_au.points()[bad[0]])
    elif not restr_ok:
        bad = np.nonzero(restricted.values != a_sigma.values)[0]
        witness = tuple(float(x) for x in restricted.points()[bad[0]])
    return DiagramCheck(
        j=j,
        projection_commutes=proj_ok,
        restriction_commutes=restr_ok,
        witness=witness,
    )


def evolve(op: MultiplierOperator, times, u0: SpectralField, method: str = "multiplier",
           tol: float = 1e-8):
    """The flow factors of ``u0``'s trajectory ``t -> e^{tA} u0``, one time at a time.

    ``method`` is ``"multiplier"``, ``"series"`` or ``"both"``.  Every time
    must be finite; times and method are checked here, before any kernel
    runs.  Returns a generator of ``(t, factors, diagnostics)``:
    ``factors`` maps each method name to its `LevelFactor` at t
    (multiplier first; None at t = 0), and ``diagnostics`` is the series'
    `SeriesDiagnostics`, or ``None`` without the series.  The fields are
    one `saturated_product` pass of the factors on ``u0``'s `ShellField`
    (over the level index ``op.levels()[1]``), so a consumer holds one time
    at a time.  ``u0``'s ball profile is read here, and the generator holds
    it, not ``u0``.
    """
    if method not in VALID_METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {VALID_METHODS}")
    times = [float(t) for t in times]
    for t in times:
        _check_time(t)
    _check_grid(op, u0)
    return _trajectory(op, times, seminorm_profile(u0), method, tol)


def _trajectory(op, times, profile, method, tol):
    for t in times:
        factors = {}
        diagnostics = None
        if method != "series":
            factors["multiplier"] = multiplier_factor(op, t)
        if method != "multiplier":
            factors["series"], diagnostics = series_factor(op, t, profile, tol)
        yield t, factors, diagnostics
