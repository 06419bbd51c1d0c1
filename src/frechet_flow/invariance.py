"""Decision procedures for subspace invariance under ``e^{t a(D)}``.

Two subspaces of the ambient distribution space admit sharp criteria in
terms of the polynomial symbol alone:

* compactly supported distributions (one dimension): by
  Paley-Wiener-Schwartz, invariant for every t != 0 exactly when the
  degree is at most 1 and Re a_1 = 0 (constants and translations).
  `find_growth_witness` decides this from the stored coefficients and
  otherwise returns the rays along which ``Re(t a(z))`` outgrows every
  exponential type.  `decide_eprime` keeps the paper's rule as stated:
  order 1 with purely imaginary leading coefficient, or order 4k with
  negative real leading part.

* square-integrable functions: invariant at time t > 0 exactly when
  ``sup_xi e^{t Re a(xi)}`` is finite, i.e. when the real part of the
  symbol is bounded above.  That is decided exactly, in one dimension,
  from the real-part polynomial; a symbol in two dimensions is refused
  rather than sampled.  When the criterion fails,
  `l2_blowup_construction` assembles the explicit disjoint-ball function
  whose evolved mass majorises the divergent series ``sum 1/(2N)`` while
  its own mass stays below ``sum 2^-N < 1``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import check_finite
from .spectral import OVERFLOW_EXPONENT
from .symbols import PolynomialSymbol, horner, real_critical_points

INVARIANT = "Invariant"
NOT_INVARIANT = "NotInvariant"


def real_part_coefficients(poly: PolynomialSymbol) -> np.ndarray:
    """Dense real coefficients of ``xi -> Re a(xi)`` for a 1-D symbol.

    Read from ``poly.dense`` without trailing zeros; `horner` evaluates them
    in real arithmetic.
    """
    if poly.n != 1:
        raise ValueError("real-part decomposition is implemented for n = 1")
    out = poly.dense.real
    while out.size > 1 and out[-1] == 0.0:
        out = out[:-1]
    return out


# ---------------------------------------------------------------------------
# Compactly supported distributions (order / leading-coefficient test)


@dataclass(frozen=True)
class EprimeDecision:
    verdict: str
    rule: str  # "m1-imaginary", "m4k-negative", "otherwise"
    order: int
    leading: complex


def decide_eprime(poly: PolynomialSymbol) -> EprimeDecision:
    """The paper's compact-support rule as stated (n = 1).

    Pure inspection of ``(m, a_m)``: Invariant iff m = 1 with Re a_m = 0,
    or m = 4k with Re a_m < 0; the zero symbol reads as m = 0 with
    a_0 = 0.  The exact rule is `find_growth_witness`; the two differ at
    m = 4k >= 4 with Re a_m < 0 and at constants with Re a_0 >= 0.
    """
    if poly.n != 1:
        raise ValueError("the compact-support criterion is stated for n = 1")
    m = poly.order
    lead = poly.coefficient((m,))
    if m == 1 and lead.real == 0.0:
        verdict, rule = INVARIANT, "m1-imaginary"
    elif m % 4 == 0 and lead.real < 0.0:
        verdict, rule = INVARIANT, "m4k-negative"
    else:
        verdict, rule = NOT_INVARIANT, "otherwise"
    return EprimeDecision(verdict=verdict, rule=rule, order=m, leading=lead)


# ---------------------------------------------------------------------------
# Square-integrable functions (boundedness of the real part)


@dataclass(frozen=True)
class L2Decision:
    verdict: str
    method: str  # "exact-1d"
    sup_estimate: float
    caveats: tuple = ()


def _decide_bounded_above_1d(poly: PolynomialSymbol) -> tuple[bool, float, tuple]:
    """Exact: Re a bounded above iff its degree is 0 or even with negative lead."""
    re = real_part_coefficients(poly)
    degree = re.size - 1
    if degree == 0:
        return True, float(re[0]), ("constant real part",)
    lead = float(re[-1])
    bounded = degree % 2 == 0 and lead < 0.0
    if bounded:
        candidates = np.concatenate(([0.0], real_critical_points(re)))
        sup = max(horner(re, [candidates]).tolist())
        return True, sup, ()
    odd = ("odd-degree real part: unbounded above along one frequency direction only; "
           "the boundedness criterion fails there",)
    return False, math.inf, odd if degree % 2 == 1 else ()


def sampled_sphere_maxima(poly: PolynomialSymbol) -> np.ndarray:
    """`check-l2`'s probes: the max of Re a on the sphere ``|xi| = 2^k``, k = 0..20 (n = 1).

    The real part is evaluated in real arithmetic, so a probe that
    overflows reads ``+-inf``, never ``nan``.
    """
    radii = np.ldexp(1.0, np.arange(21))
    with np.errstate(over="ignore"):
        right, left = horner(real_part_coefficients(poly), [np.stack([radii, -radii])])
    return np.maximum(right, left)


def decide_l2(poly: PolynomialSymbol, t: float = 1.0) -> L2Decision:
    """Decide invariance of square-integrable functions at time t >= 0 (n = 1).

    At t = 0 the flow is the identity.  For t > 0 the criterion is that
    the real part of the symbol is bounded above, decided exactly from the
    real-part polynomial.  ``sup_estimate`` is sup Re a at every t.
    """
    if poly.n != 1:
        raise ValueError("the square-integrable criterion is decided for n = 1")
    check_finite(t, "time")
    if t < 0:
        raise ValueError("the invariance criterion is stated for t >= 0")
    bounded, sup, caveats = _decide_bounded_above_1d(poly)
    if t == 0.0:
        return L2Decision(verdict=INVARIANT, method="exact-1d", sup_estimate=sup,
                          caveats=("t = 0: identity flow",))
    return L2Decision(verdict=INVARIANT if bounded else NOT_INVARIANT, method="exact-1d",
                      sup_estimate=sup, caveats=caveats)


# ---------------------------------------------------------------------------
# Complex growth witnesses (one dimension)


@dataclass(frozen=True)
class GrowthWitness:
    """Rays ``arg z = theta`` along which ``Re(t a(z))`` grows without bound.

    ``order`` is the leading order m; along ``forward`` the growth is for
    t > 0, along ``backward`` for t < 0.
    """

    order: int
    forward: float
    backward: float


def find_growth_witness(poly: PolynomialSymbol) -> Optional[GrowthWitness]:
    """The exact compact-support rule: None exactly when E'(R) is invariant.

    By Paley-Wiener-Schwartz, e^{t a(D)} with t != 0 keeps E'(R) iff
    e^{t a(z)} is entire of exponential type with polynomial growth on the
    real line, that is iff deg a <= 1 and Re a_1 = 0.  Otherwise, for
    m >= 2 the rays ``-arg(a_m)/m`` and ``-arg(a_m)/m + pi/m`` carry
    ``Re(t a_m z^m) = |t a_m| r^m``, which beats every ``B r + N log r``;
    for m = 1 they are the real half-axes where ``Re(t a_1) x = |t Re a_1| r``,
    growth that is not polynomial.  Both tests read stored floats exactly.
    """
    if poly.n != 1:
        raise ValueError("the compact-support criterion is stated for n = 1")
    m = poly.order
    lead = poly.coefficient((m,))
    if m >= 2:
        forward = 0.0 - cmath.phase(lead) / m  # never -0.0
        return GrowthWitness(order=m, forward=forward, backward=forward + math.pi / m)
    if m == 1 and lead.real != 0.0:
        forward = 0.0 if lead.real > 0.0 else math.pi
        return GrowthWitness(order=1, forward=forward, backward=math.pi - forward)
    return None


# ---------------------------------------------------------------------------
# Explicit blow-up construction for a failed boundedness criterion


@dataclass(frozen=True)
class BlowupConstruction:
    """Partial data of the disjoint-ball blow-up function.

    ``evolved_mass[k]`` is the quadrature of ``e^{2 t Re a} |f|^2`` over the
    first k+1 balls; it dominates ``lower_bounds[k] = sum_{N<=k+1} 1/(2N)``
    and grows without bound.  ``own_mass[k]`` is the corresponding partial
    mass of f itself, below one for every budget.
    """

    centers: tuple
    radii: tuple
    evolved_mass: np.ndarray
    own_mass: np.ndarray
    lower_bounds: np.ndarray


def l2_blowup_construction(poly: PolynomialSymbol, t: float, budget: int) -> BlowupConstruction:
    """Assemble the disjoint-ball function certifying loss of invariance.

    Requires ``decide_l2(poly, t)`` to be NotInvariant.  Ball N is centred
    where ``e^{2 t Re a} = 2^N / N`` (found by bisection along the growth
    direction) with radius shrunk until the factor stays above
    ``2^N / (2N)`` on the whole ball; the piece of f there carries mass
    ``2^-N``, so the evolved quadrature of ball N is at least ``1/(2N)``.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    decision = decide_l2(poly, t)  # refuses n = 2
    if decision.verdict != NOT_INVARIANT:
        raise ValueError(
            f"blow-up construction needs a NotInvariant decision, got {decision.verdict}"
        )
    re = real_part_coefficients(poly)
    # Re a grows towards +inf, or towards -inf for an odd degree with a negative lead
    direction = -1.0 if re.size % 2 == 0 and re[-1] < 0 else 1.0

    def log_factor(xi):
        return 2.0 * t * horner(re, [xi])

    centers = []
    radii = []
    evolved = []
    own = []
    position = 0.0
    for N in range(1, budget + 1):
        target = N * math.log(2.0) - math.log(N)
        # next center clears the previous ball even at the maximal radius 1/2
        low = position + (radii[-1] if radii else 0.0) + 0.75
        high = max(low + 1.0, 1.0)
        while log_factor(direction * high) < target:
            high *= 2.0
            if high > 1e12:
                raise RuntimeError("could not locate the blow-up center")
        if log_factor(direction * low) >= target:
            center = low
        else:
            a, b = low, high
            for _ in range(200):
                mid = 0.5 * (a + b)
                if log_factor(direction * mid) >= target:
                    b = mid
                else:
                    a = mid
            center = b
        radius = 0.5
        floor = target - math.log(2.0)  # 2^N/(2N)
        probe = np.linspace(-1.0, 1.0, 41)
        while True:
            points = direction * (center + radius * probe * direction)
            values = log_factor(points)
            if np.min(values) >= floor:
                break
            radius *= 0.5
            if radius < 1e-12:
                raise RuntimeError("could not certify a ball radius")
        # midpoint quadrature of e^{2 t Re a} over the ball, normalised by
        # the ball measure.  The mean factor is assembled around its peak
        # exponent so the huge (but finite) values the construction forces
        # at far-out balls never overflow; the peak itself is clamped at
        # the saturation magnitude.
        quad = 400
        step = 2.0 * radius / quad
        xs = direction * center + (np.arange(quad) + 0.5) * step - radius
        logs = log_factor(xs)
        peak = min(float(np.max(logs)), OVERFLOW_EXPONENT)
        mean_factor = math.exp(peak) * float(np.mean(np.exp(np.minimum(logs, peak) - peak)))
        evolved.append((2.0**-N) * mean_factor)
        own.append(2.0**-N)
        centers.append(direction * center)
        radii.append(radius)
        position = center
    return BlowupConstruction(
        centers=tuple(centers),
        radii=tuple(radii),
        evolved_mass=np.cumsum(evolved),
        own_mass=np.cumsum(own),
        lower_bounds=np.cumsum([1.0 / (2.0 * N) for N in range(1, budget + 1)]),
    )


# ---------------------------------------------------------------------------
# Random symbol corpus used by the cross-checks


def random_polynomial_symbol(rng: np.random.Generator) -> PolynomialSymbol:
    """Random 1-D symbol of degree at most 6, coefficients uniform in [-2, 2] + [-2, 2]i."""
    degree = int(rng.integers(0, 7))
    coeffs = {}
    for k in range(degree + 1):
        re, im = rng.uniform(-2.0, 2.0, size=2)
        coeffs[(k,)] = complex(re, im)
    lead = coeffs[(degree,)]
    if abs(lead) < 0.25:
        coeffs[(degree,)] = complex(
            math.copysign(0.25, lead.real or 1.0), lead.imag
        )
    return PolynomialSymbol(1, coeffs)


def corpus_symbol(rng: np.random.Generator) -> PolynomialSymbol:
    """Random 1-D symbol whose growth behaviour is numerically decisive.

    Rejection-samples `random_polynomial_symbol` until the maximum of Re a
    over ``[-64, 64]`` leaves a clear margin on the matching side of the
    exact verdict, so that a seminorm-growth surrogate at radius 64
    separates the two verdicts.
    """
    xs = np.linspace(-64.0, 64.0, 1025)
    while True:
        poly = random_polynomial_symbol(rng)
        re = real_part_coefficients(poly)
        grid_max = float(np.max(horner(re, [xs])))
        verdict = decide_l2(poly, 1.0).verdict
        if verdict == INVARIANT and grid_max <= 5.0:
            return poly
        if verdict == NOT_INVARIANT and grid_max >= 25.0:
            return poly
