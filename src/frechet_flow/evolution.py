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
  so each bound is 0 and the factor is the identity.  The scalar tails
  come from `bounds`, which `translation`'s Taylor sums share.

Both flow factors are functions of the symbol value alone, so both kernels
run once per distinct symbol value (the operator's level table,
`MultiplierOperator.levels`), not once per grid node: `multiplier_factor`
and `series_factor` build them as `LevelFactor`s, and `saturated_product`
gathers them onto the nodes.  Each value is the same elementwise operation
on the same input bits, so the results are bitwise those of a per-node
evaluation.  On a real table, every level finite with imaginary part +0,
both factors are formed in float64 (`_real_levels`): the closed form is
``t Re a`` with phase 1, and the series runs Horner in real arithmetic
and casts its stage to complex before the log/phase split.  Complex
Horner keeps an imaginary part of +0 there, so the bits are the same; a
real stage that overflows, where the complex one reads NaN, is redone in
complex.

`evolve` is the one path from flow factors to fields: it builds the
initial field's `ShellField` once, which forms the field's ball profile,
and yields each time's `Product`, one `saturated_product` pass of that
time's factors (and the series certificate beside it).  The caller says
whether a pass keeps a field (``keep``): a kept field's pass walks the
nodes, and a pass that keeps none and cannot saturate reduces over the
levels alone.  `app.run_solve` keeps a field only when it writes one.
`exp_multiplier` and `exp_series` are one-time calls of `evolve` that keep
the field and return it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import (
    SeriesTruncationError,
    check_finite,
    check_tolerance,
    choose_terms,
    safe_exp,
    safe_expm1,
    scalar_tail_log,
)
from .config import VALID_METHODS
from .operators import MultiplierOperator
from .spectral import (
    OVERFLOW_EXPONENT,
    LevelFactor,
    ShellField,
    SpectralField,
    project,
    saturated_product,
    seminorm,
    seminorm_profile,
)

# Scale the time step until |t| p_J^X(A) / 2^s is at most this.
STAGE_RATE_LIMIT = 4.0

LN2 = math.log(2.0)


def _check_quotient_time(t) -> None:
    check_finite(t, "time")
    if t == 0.0:
        raise ValueError("the difference quotient needs t != 0")


def _check_grid(op: MultiplierOperator, u: SpectralField) -> None:
    if op.grid != u.grid:
        raise ValueError("operator grid does not match field grid")


def exp_multiplier(op: MultiplierOperator, t: float, u: SpectralField) -> SpectralField:
    """Closed-form evolution: nodewise product with ``e^{t a(xi)}``.

    Samples whose evolved magnitude would exceed ``e^709`` are saturated at
    that magnitude (phase kept) and the result is flagged, as is any node
    carrying data whose bare factor exceeds that range.  One time of
    `evolve`, which builds u's shell field and keeps the field.
    """
    ((_, product, _),) = evolve(op, [t], u, keep=True)
    return product.field


def multiplier_factor(op: MultiplierOperator, t: float) -> Optional[LevelFactor]:
    """The closed form's factor ``e^{t a}`` per level; None (the identity) at t = 0.

    A real part of ``t a`` that overflows reads +-inf, which the saturation
    policy handles; an imaginary part that overflows leaves no phase, and
    is refused with ``ValueError``.
    """
    if t == 0.0:
        return None
    real = _real_levels(op)
    if real is not None:
        # t Re a is the real part of t a, and e^(i t Im a) is 1 + 0j
        with np.errstate(over="ignore"):
            return LevelFactor(t * real, np.ones(real.size, np.complex128), flags_blown=True)
    z = _scaled_levels(op, t)
    # a copy, so the factor does not keep z's imaginary parts alive
    return LevelFactor(z.real.copy(), np.exp(1j * z.imag), flags_blown=True)


def _real_levels(op: MultiplierOperator) -> Optional[np.ndarray]:
    """The levels' real parts when every level is finite with imaginary part +0, else None.

    On such a table a flow factor formed in float64 keeps the bits of the
    complex one.  A -0 imaginary part, which only a raw level table can
    hold, would flip the sign of a zero ``t Re a``; a NaN or inf level
    would leave the complex phase undefined.  Both take the complex path.
    """
    levels = op.levels()[0]
    if levels.imag.view(np.uint64).any() or not np.isfinite(levels.real).all():
        return None
    return levels.real


def _scaled_levels(op: MultiplierOperator, t: float) -> np.ndarray:
    """``t a`` per level; a real part that overflows reads +-inf, an imaginary
    part that overflows to +-inf leaves no phase and is refused with
    ``ValueError``.  A NaN level, which only a raw level table can hold, is
    passed through."""
    with np.errstate(over="ignore"):
        z = t * op.levels()[0]
    if np.isinf(z.imag).any():
        raise ValueError(f"t * Im a is not finite at t = {t:g}, so e^(t a) has no phase")
    return z


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
    t' < 0) equals the node maximum of ``t' * Re a`` bitwise.  `series_factor`
    chooses the stage count so that ``|t' Re a| <= |t'| p_J^X <=
    STAGE_RATE_LIMIT``, so each exponent is at most about 4 and its
    exponential is finite.
    """
    lower, upper = op.real_part_range()
    peaks = t_stage * (upper if t_stage >= 0 else lower)
    return [math.exp(peak) for peak in peaks.tolist()]


def exp_series(op: MultiplierOperator, t: float, u: SpectralField, tol: float = 1e-8):
    """Evolve by the truncated, staged power series of the generator.

    Returns ``(field, diagnostics)``.  The truncation order is chosen so
    the scalar tail at the worst-ball stage rate falls below
    ``tol / ((1 + p_J(u)) * stages)``; the diagnostics carry per-ball
    certified bounds (see the module docstring for their form).  Stage
    magnitudes above ``e^709`` saturate there and flag the result, exactly
    matching the closed-form path.  One time of `evolve`, which builds u's
    shell field and keeps the field.
    """
    ((_, product, diagnostics),) = evolve(op, [t], u, "series", tol, keep=True)
    return product.field, diagnostics


def series_factor(op: MultiplierOperator, t: float, profile, tol: float):
    """The staged series' factor per level and its certificate, for `evolve`.

    ``profile`` is the ball profile ``(p_1(u), ..., p_J(u))`` of the field
    it is applied to, the only thing of u the certificate reads.  Returns
    ``(factor, diagnostics)``; the factor is None (the identity) at t = 0,
    where the certificate takes every rate 0 and every stage growth 1
    without reading the operator.  A worst rate ``|t| max|a|`` or, at a
    nonzero rate, a p_J(u) that is not finite leaves no tolerance
    reachable: `SeriesTruncationError`.
    """
    check_tolerance(tol)
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
            bound = safe_exp(float(log_bound))
        levels.append(
            LevelCertificate(
                j=j,
                rate=rates[j - 1],
                terms=level_terms,
                tail=safe_exp(log_tail),
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
    # by `saturated_product`.  numpy divides a complex by n as by n + 0j,
    # ``(re + im 0) fl(1/n)``, so a product by ``1/n`` keeps the bits (a zero
    # part's sign aside, which the added 1 clears) and needs no division.
    # On a real table (`_real_levels`) Horner runs in float64: there each
    # added 1 leaves the complex accumulator an imaginary part of +0, so each
    # real part is the float64 product minus a signed zero, which only a
    # zero product's sign can feel, and the next 1 absorbs that.  A real
    # stage that overflows reads inf where the complex one reads NaN, so it
    # is redone in complex, which also raises the complex loop's warnings.
    real = _real_levels(op)
    acc = None
    if real is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            acc = _horner_stage((t / stages) * real, diagnostics.terms)
        acc = acc.astype(np.complex128) if np.isfinite(acc).all() else None
    if acc is None:
        acc = _horner_stage((t / stages) * op.levels()[0], diagnostics.terms)

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


def _horner_stage(x: np.ndarray, terms: int) -> np.ndarray:
    """``sum_{n <= terms} x^n / n!`` per entry by Horner, in x's dtype.

    Each step is ``1 + acc (x / n)``, its operands in that order, formed in
    one buffer, so the loop holds three arrays of x's size.
    """
    acc, term = np.ones_like(x), np.empty_like(x)
    for n in range(terms, 0, -1):
        np.multiply(x, 1.0 / n, out=term)
        np.multiply(acc, term, out=term)
        acc, term = np.add(1.0, term, out=term), acc
    return acc


def verify_group_law(op: MultiplierOperator, s: float, t: float,
                     u: SpectralField) -> np.ndarray:
    """Seminorm profile of ``e^{sA}(e^{tA}u) - e^{(s+t)A}u`` (closed form)."""
    composed = exp_multiplier(op, s, exp_multiplier(op, t, u))
    direct = exp_multiplier(op, s + t, u)
    return seminorm_profile(composed - direct)


def uniform_continuity_gap(op: MultiplierOperator, t: float, j: int):
    """Return ``(lhs, rhs)`` with lhs the exact ball-j norm of ``e^{tA} - I``
    and rhs the rate bound ``e^{t p_j^X(A)} - 1``; lhs <= rhs * (1 + 2^-50).
    Neither side cancels at small t: with ``x = min(t Re a, 709)`` and
    ``y = t Im a``, lhs is ``hypot(expm1(x) cos y - 2 sin^2(y/2), e^x sin y)``
    and rhs an expm1.  A t at which ``t Im a`` is not finite is refused with
    ``ValueError``, as in `multiplier_factor`."""
    check_finite(t, "time")
    if t < 0:
        raise ValueError("the continuity gap is stated for t >= 0")
    j = op.grid.check_ball_index(j)
    # every level is scaled, so a time is refused as in the closed form;
    # ball j's levels, the first level_offsets()[j], are reduced
    z = _scaled_levels(op, t)[: op.level_offsets()[j]]
    x, y = np.minimum(z.real, OVERFLOW_EXPONENT), z.imag
    gap = np.hypot(np.expm1(x) * np.cos(y) - 2.0 * np.sin(0.5 * y) ** 2, np.exp(x) * np.sin(y))
    lhs = float(np.max(gap))
    rhs = safe_expm1(t * op.seminorm(j))
    return lhs, rhs


def generator_residual(op: MultiplierOperator, t: float, u: SpectralField, j: int) -> float:
    """``p_j((e^{tA}u - u)/t - Au)``; first order in t as t -> 0."""
    _check_quotient_time(t)
    evolved = exp_multiplier(op, t, u)
    quotient = (evolved - u) * (1.0 / t)
    return seminorm(quotient - op.apply(u), j)


def generator_residual_bound(op: MultiplierOperator, t: float, u: SpectralField,
                             j: int) -> float:
    """Closed-form bound ``((e^{|t| r} - 1)/|t| - r) p_j(u)``, r = p_j^X(A)."""
    _check_quotient_time(t)
    _check_grid(op, u)
    r = op.seminorm(j)
    scale = (safe_exp(abs(t) * r) - 1.0) / abs(t) - r
    return scale * seminorm(u, j)


@dataclass(frozen=True)
class DiagramCheck:
    """Outcome of the quotient-diagram commutativity checks at level j.

    ``A_j = sigma_j A`` acts on the ball-j quotient, whose element is the
    field vanishing outside ball j, and ``pi_j = sigma_j`` restricts the
    ball-(j + 1) quotient to it.
    """

    j: int
    projection_commutes: bool   # sigma_j(Au) == A_j sigma_j(u)
    restriction_commutes: bool  # pi_j(A_{j+1} sigma_{j+1}(u)) == A_j sigma_j(u)
    witness: Optional[tuple]

    @property
    def passed(self) -> bool:
        return self.projection_commutes and self.restriction_commutes


def verify_quotient_diagrams(op, u: SpectralField, j: int) -> DiagramCheck:
    """Check, bitwise, that the operator commutes with the quotient maps.

    ``A_j`` acts on the ball-j quotient by application and projection: a
    quotient element is already the field that vanishes outside ball j.
    Multipliers commute exactly (both sides multiply the same stored
    samples); operators that move mass across ball boundaries fail with a
    concrete witness node, the first differing node in row-major order.
    """
    grid = u.grid
    if not 1 <= j < grid.J:
        raise ValueError(f"diagram checks need 1 <= j < J = {grid.J}")
    sigma_au = project(op.apply(u), j).values
    a_sigma = project(op.apply(project(u, j)), j).values
    restricted = project(op.apply(project(u, j + 1)), j).values
    proj_ok = np.array_equal(sigma_au, a_sigma)
    restr_ok = np.array_equal(restricted, a_sigma)

    witness = None
    if not (proj_ok and restr_ok):
        # both sides vanish outside ball j, so a differing node lies inside it
        bad = np.flatnonzero((sigma_au if not proj_ok else restricted) != a_sigma)[0]
        witness = tuple(float(x) for x in grid.node_points()[bad])
    return DiagramCheck(
        j=j,
        projection_commutes=proj_ok,
        restriction_commutes=restr_ok,
        witness=witness,
    )


def evolve(op: MultiplierOperator, times, u0: SpectralField, method: str = "multiplier",
           tol: float = 1e-8, keep: bool = False):
    """``u0``'s trajectory ``t -> e^{tA} u0``, one time at a time.

    ``method`` is ``"multiplier"``, ``"series"`` or ``"both"``.  Every time
    must be finite; times, method and ``tol`` are checked here, before any
    kernel runs.  Then ``u0``'s `ShellField` is built over the operator's
    shell-ordered level index ``op.levels()[1]``, as it is held, and its
    shell ranges ``op.level_offsets()``; building it gathers ``u0``'s
    samples and forms ``u0``'s ball profile.  The generator holds the shell
    field and that profile, not ``u0``, so a caller may release ``u0``
    before the first time.  Returns a generator of ``(t, product, diagnostics)``:
    ``product`` is the `Product` of one `saturated_product` pass of the
    time's flow factors (multiplier first) over the shell field, and
    ``diagnostics`` the series' `SeriesDiagnostics`, or ``None`` without
    the series.  With ``keep`` the pass keeps the last method's field
    (``product.field``); without, a pass that cannot saturate reduces over
    the levels alone.  The generator releases a time's factors and product
    before it forms the next time's, so a consumer that does the same holds
    one time at a time.
    """
    if method not in VALID_METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {VALID_METHODS}")
    times = [float(t) for t in times]
    for t in times:
        check_finite(t, "time")
    check_tolerance(tol)
    _check_grid(op, u0)
    source = ShellField(u0, op.levels()[1], op.level_offsets())
    return _trajectory(op, times, source, seminorm_profile(u0), method, tol, keep)


def _trajectory(op, times, source, profile, method, tol, keep):
    for t in times:
        # this rebinding releases the last time's factors before any kernel runs
        factors = {}
        diagnostics = None
        if method != "series":
            factors["multiplier"] = multiplier_factor(op, t)
        if method != "multiplier":
            factors["series"], diagnostics = series_factor(op, t, profile, tol)
        product, _ = saturated_product(factors, source, keep=list(factors)[-1] if keep else None)
        yield t, product, diagnostics
        del product
