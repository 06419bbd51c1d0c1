"""Decision procedures for subspace invariance under ``e^{t a(D)}``.

Two subspaces of the ambient distribution space admit sharp criteria in
terms of the polynomial symbol alone:

* compactly supported distributions (one dimension): invariant for all
  t >= 0 exactly when either the order m equals 1 with purely imaginary
  leading coefficient, or m is a multiple of four with strictly negative
  real leading part.  The complementary cases admit complex growth
  witnesses ``Re a(z) > c |Im z|`` that this module searches for.

* square-integrable functions: invariant at time t > 0 exactly when
  ``sup_xi e^{t Re a(xi)}`` is finite, i.e. when the real part of the
  symbol is bounded above.  In one dimension that is decided exactly from
  the real-part polynomial; in higher dimensions it is sampled on dyadic
  spheres with an explicit Undetermined verdict.  When the criterion
  fails, `l2_blowup_construction` assembles the explicit disjoint-ball
  function whose evolved mass majorises the divergent series
  ``sum 1/(2N)`` while its own mass stays below ``sum 2^-N < 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .spectral import OVERFLOW_EXPONENT
from .symbols import PolynomialSymbol, horner

# |Re a_m| below this counts as zero in the order-1 branch; exact-zero
# inputs (coefficients written as pure imaginary literals) bypass it.
LEADING_REAL_TOLERANCE = 1e-12

INVARIANT = "Invariant"
NOT_INVARIANT = "NotInvariant"
UNDETERMINED = "Undetermined"


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
    caveats: tuple = ()


def decide_eprime(poly: PolynomialSymbol) -> EprimeDecision:
    """Decide invariance of compactly supported distributions (n = 1).

    Pure inspection of ``(m, a_m)``: Invariant iff m = 1 with Re a_m = 0,
    or m = 4k with Re a_m < 0.  The zero symbol is treated as order 0 with
    vanishing coefficient and flagged.  The order-0 branch follows the same
    ``4k`` rule (Re a_0 < 0) even though constant symbols multiply spectra
    by an entire scalar and preserve supports regardless of sign; a caveat
    records that the implemented criterion is stricter than that
    observation.
    """
    if poly.n != 1:
        raise ValueError("the compact-support criterion is stated for n = 1")
    caveats = []
    if poly.is_zero:
        caveats.append("zero-symbol: order undefined, treated as m=0 with a_0=0")
        return EprimeDecision(
            verdict=NOT_INVARIANT, rule="otherwise", order=0, leading=0j,
            caveats=tuple(caveats),
        )
    m = poly.order
    lead = poly.coefficient((m,))
    re_lead = lead.real
    re_is_zero = re_lead == 0.0 or abs(re_lead) < LEADING_REAL_TOLERANCE
    if m == 1 and re_is_zero:
        return EprimeDecision(
            verdict=INVARIANT, rule="m1-imaginary", order=m, leading=lead,
            caveats=tuple(caveats),
        )
    if m % 4 == 0 and re_lead < 0.0:
        if m == 0:
            caveats.append(
                "constant-symbol branch implemented as stated; constants "
                "preserve supports for any sign of the real part"
            )
        else:
            # along the diagonal direction (1+i)/sqrt(2) the real part of
            # z^{4k} is negative, so a negative leading coefficient makes
            # Re(a_m z^m) grow like +|z|^m there; the growth-witness
            # criterion therefore contradicts this branch of the rule
            caveats.append(
                "order-4k branch implemented as stated; growth witnesses "
                "along diagonal complex directions exist for every "
                "threshold (see find_growth_witness)"
            )
        return EprimeDecision(
            verdict=INVARIANT, rule="m4k-negative", order=m, leading=lead,
            caveats=tuple(caveats),
        )
    if m == 0:
        caveats.append(
            "constant-symbol branch implemented as stated; constants "
            "preserve supports for any sign of the real part"
        )
    return EprimeDecision(
        verdict=NOT_INVARIANT, rule="otherwise", order=m, leading=lead,
        caveats=tuple(caveats),
    )


# ---------------------------------------------------------------------------
# Square-integrable functions (boundedness of the real part)


@dataclass(frozen=True)
class L2Decision:
    verdict: str
    method: str  # "exact-1d" or "sampled"
    sup_estimate: float
    probes: tuple = ()
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
        roots = np.polynomial.polynomial.polyroots(np.polynomial.polynomial.polyder(re))
        candidates = [0.0] + [float(r.real) for r in roots if abs(r.imag) < 1e-9]
        sup = max(horner(re, [np.array(candidates)]).tolist())
        return True, sup, ()
    caveats = []
    if degree % 2 == 1:
        caveats.append(
            "odd-degree real part: unbounded above along one frequency "
            "direction only; the boundedness criterion fails there"
        )
    return False, math.inf, tuple(caveats)


def sampled_sphere_maxima(poly: PolynomialSymbol) -> np.ndarray:
    """Max of Re a over the sphere of radius 2^k, k = 0..20 (64 angles in 2-D)."""
    radii = np.ldexp(1.0, np.arange(21))
    # a probe of a high degree may overflow to inf; the real part in real
    # arithmetic stays at +-inf where the complex product gives inf * 0 = nan
    with np.errstate(over="ignore", invalid="ignore"):
        if poly.n == 1:
            values = horner(real_part_coefficients(poly), [np.stack([radii, -radii])])
        else:
            angles = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
            cos, sin = np.cos(angles), np.sin(angles)
            values = poly.eval([radii * cos[:, None], radii * sin[:, None]]).real
            # a nan probe is evaluated again along its ray w: the coefficient of
            # r^d is sum_{|alpha| = d} Re(a_alpha) w^alpha
            ray, radius = np.nonzero(np.isnan(values))
            coefficients = np.zeros((ray.size, sum(poly.dense.shape) - 1))
            for a1, row in enumerate(poly.dense.real):
                coefficients[:, a1 : a1 + row.size] += (
                    cos[ray, None] ** a1 * row * sin[ray, None] ** np.arange(row.size))
            values[ray, radius] = horner(coefficients, [radii[radius]])
    return _first_max(values)


def _first_max(rows: np.ndarray) -> np.ndarray:
    """Python's ``max`` down the rows: a later row wins only where it is greater."""
    best = rows[0]
    for row in rows[1:]:
        best = np.where(row > best, row, best)
    return best


def _decide_sampled(poly: PolynomialSymbol) -> tuple[str, float, tuple]:
    maxima = sampled_sphere_maxima(poly)
    tail = maxima[10:]
    if np.all(tail <= 0.0):
        # Nonpositive real part at all large sampled radii: the sufficient
        # large-|xi| sign condition holds on the probe set.
        return INVARIANT, float(np.max(maxima)), tuple(maxima)
    # a probe that overflows reads inf, which no flat tail ends in
    if math.isfinite(tail[-1]) and abs(tail[-1] - tail[0]) <= 1e-9 * (1.0 + abs(tail[-1])):
        return INVARIANT, float(np.max(maxima)), tuple(maxima)
    # a tail that overflows whole reads inf throughout, and inf > inf is false
    if np.all(tail[1:] >= tail[:-1]) and (tail[-1] == math.inf
                                          or tail[-1] > max(4.0 * abs(tail[0]), 1.0)):
        return NOT_INVARIANT, math.inf, tuple(maxima)
    return UNDETERMINED, float(np.max(maxima)), tuple(maxima)


def decide_l2(poly: PolynomialSymbol, t: float = 1.0, method: str = "auto") -> L2Decision:
    """Decide invariance of square-integrable functions at time t >= 0.

    At t = 0 the flow is the identity.  For t > 0 the criterion is that
    the real part of the symbol is bounded above: decided exactly in one
    dimension, sampled on dyadic spheres otherwise (``method="sampled"``
    forces the probe path in one dimension too, for cross-validation).
    """
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    if t < 0:
        raise ValueError("the invariance criterion is stated for t >= 0")
    if t == 0.0:
        return L2Decision(
            verdict=INVARIANT, method="exact-1d" if poly.n == 1 else "sampled",
            sup_estimate=1.0, caveats=("t = 0: identity flow",),
        )
    if poly.n == 1 and method != "sampled":
        bounded, sup, caveats = _decide_bounded_above_1d(poly)
        return L2Decision(
            verdict=INVARIANT if bounded else NOT_INVARIANT,
            method="exact-1d",
            sup_estimate=sup,
            caveats=caveats,
        )
    verdict, sup, probes = _decide_sampled(poly)
    return L2Decision(verdict=verdict, method="sampled", sup_estimate=sup, probes=probes)


# ---------------------------------------------------------------------------
# Complex growth witnesses (one dimension)


@dataclass(frozen=True)
class GrowthWitness:
    z: complex
    real_part: float
    threshold: float  # c |Im z|
    branch: str       # "upper" or "lower"

    def holds(self, poly: PolynomialSymbol) -> bool:
        return poly.eval([self.z]).real > self.threshold


@dataclass(frozen=True)
class WitnessSearch:
    witness: Optional[GrowthWitness]
    probes: tuple  # (z, Re a(z), c|Im z|) rows actually inspected

    @property
    def found(self) -> bool:
        return self.witness is not None


def find_growth_witness(poly: PolynomialSymbol, c: float, r_max: float = 1e4) -> WitnessSearch:
    """Search ``1 <= |z| <= r_max`` for a point with ``Re a(z) > c |Im z|``; ``r_max >= 1``.

    The criterion is asymptotic, so a hit only counts when it survives
    doubling the point twice along its own ray (small-radius pockets of
    positive real part are not growth).  Both half-planes are scanned and
    the branch of a hit is reported; order-1 symbols with purely imaginary
    leading coefficient satisfy the refined bound
    ``Re a(z) <= 2 pi |a_1| |Im z|``, so they yield witnesses for small c
    but none once c clears that slope.  An empty search is consistency
    evidence, not a proof.
    """
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"the threshold c must be finite and positive, got {c!r}")
    if not math.isfinite(r_max):
        raise ValueError(f"the search radius r_max must be finite, got {r_max!r}")
    if r_max < 1:
        raise ValueError(f"the search radius r_max must be at least 1, got {r_max!r}")
    if poly.n != 1:
        raise ValueError("witness search is implemented for n = 1")
    # at r_max close to 1 the 60 steps repeat radii; each is probed once
    # (sorted like np.unique, whose first call imports numpy.ma: 1.5 MB)
    radii = np.array(sorted(set(np.geomspace(1.0, float(r_max), 60).tolist())))[:, None]
    angles = np.linspace(0.0, 2 * math.pi, 48, endpoint=False)
    eta = radii * np.sin(angles)
    z = np.empty(eta.shape, dtype=np.complex128)
    z.real, z.imag = radii * np.cos(angles), eta
    z = z[eta != 0.0]  # row-major: by radius, then by angle
    thresholds = c * np.abs(z.imag)
    # a probe whose value overflows compares as inf or nan; a hit counts
    # only if it survives doubling the point twice along its ray
    with np.errstate(over="ignore", invalid="ignore"):
        values = poly.eval([z]).real
        hits = values > thresholds
        for scale in (2, 4):
            hits &= poly.eval([scale * z]).real > c * np.abs((scale * z).imag)
    probes = tuple(zip(z.tolist(), values.tolist(), thresholds.tolist()))
    best = None
    if hits.any():
        point, value, threshold = probes[int(np.argmax(hits))]
        best = GrowthWitness(z=point, real_part=value, threshold=threshold,
                             branch="upper" if point.imag > 0 else "lower")
    return WitnessSearch(witness=best, probes=probes)


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


def _growth_direction(poly: PolynomialSymbol) -> float:
    re = real_part_coefficients(poly)
    degree = re.size - 1
    lead = float(re[-1])
    if degree % 2 == 1:
        return 1.0 if lead > 0 else -1.0
    return 1.0


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
    if poly.n != 1:
        raise ValueError("the blow-up construction is implemented for n = 1")
    decision = decide_l2(poly, t)
    if decision.verdict != NOT_INVARIANT:
        raise ValueError(
            f"blow-up construction needs a NotInvariant decision, got {decision.verdict}"
        )
    direction = _growth_direction(poly)

    re = real_part_coefficients(poly)

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
