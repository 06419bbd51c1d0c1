"""Taylor translation of very smooth functions on the line.

A function enters through an exact derivative oracle ``(n, x) -> f^(n)(x)``
(recurrences for the built-ins, no numerical differentiation).  Membership
in the geometric-derivative class — some M with
``sup_n sup_{|x|<=j} |M^-n f^(n+m)(x)|`` finite — is audited up to a finite
order by `certify_membership`, which also reports whether the conventional
constant ``M = 2j`` for the Gaussian survives the audit (it does not once
the checked order is large; the empirical minimal M is reported instead).

For certified functions the exponential of d/dx acts by the Taylor series
``sum t^n f^(n)(s) / n!`` and equals translation: `translate` evaluates the
partial sum with a certified stopping rule and agrees with ``f(s + t)`` up
to the requested tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .evolution import scalar_tail_log

RATIO_CAP = 10.0
LADDER_TOP = 1 << 20
SUP_GRID_STEP = 1e-3
MAX_TERMS = 500
TABLE_BLOCK_ENTRIES = 1 << 15  # angle-table entries per column block

# 2 pi = _TWO_PI_HEAD + _TWO_PI_TAIL + (less than 4e-22).  The head has 18
# significant bits, so ``turns * _TWO_PI_HEAD`` is exact below 2^35 turns.
_TWO_PI_HEAD = 6.283172607421875
_TWO_PI_TAIL = 1.2699757711476926e-05


class CertificateError(ValueError):
    """Translation was requested for a function without a usable certificate."""


@dataclass(frozen=True)
class SmoothExpFunction:
    """Smooth function given by an exact derivative-table oracle.

    ``table(x, K)`` returns the array of derivatives ``f^(n)(x)`` for
    n = 0..K over the points x, shape ``(K+1, len(x))``.  The n = 0 row is
    the function itself.  ``vanishing_order`` marks oracles whose
    derivatives are identically zero from that order on (polynomials), so
    Taylor tails can be certified as exactly zero.
    """

    label: str
    table: Callable[[np.ndarray, int], np.ndarray]
    vanishing_order: Optional[int] = None

    def derivative(self, n: int, x) -> np.ndarray | float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        values = self.table(x, n)[n]
        return float(values[0]) if values.size == 1 else values

    def __call__(self, x):
        return self.derivative(0, x)


def gaussian() -> SmoothExpFunction:
    """``exp(-x^2)`` with its two-term derivative recurrence."""

    def table(x: np.ndarray, max_order: int) -> np.ndarray:
        out = np.empty((max_order + 1, x.size))
        out[0] = np.exp(-(x**2))
        if max_order >= 1:
            out[1] = -2.0 * x * out[0]
        for n in range(1, max_order):
            out[n + 1] = -2.0 * x * out[n] - 2.0 * n * out[n - 1]
        return out

    return SmoothExpFunction(label="gaussian", table=table)


def fast_growth() -> SmoothExpFunction:
    """A smooth function whose derivatives grow super-geometrically.

    The lacunary series ``sum_k e^-k cos(k^4 x)`` converges in every
    derivative (the weights beat any polynomial in k), yet the n-th
    derivative sup grows like ``(4n)^{4n} e^{-4n}`` — factorial-type Gevrey
    growth that no geometric rate can dominate.  Derivatives are summed
    exactly from the closed form ``e^-k k^{4n} cos(k^4 x + n pi/2)``; terms
    beyond the double-precision exponent range are dropped (they would
    only make the audited sups larger).

    The table is two matrix products.  The quarter turn is exact:
    ``cos(theta + n pi/2)`` is ``cos, -sin, -cos, sin`` for n = 0, 1, 2, 3
    mod 4, so the even orders are a signed weight matrix
    ``W[n, k] = e^-k k^{4n}`` times ``cos(k^4 x)`` and the odd orders the
    same times ``sin(k^4 x)``, taken over column blocks of x so that each
    angle table stays small.  The argument ``k^4 x`` (up to about 1e10 on
    the audited windows) is still rounded, by up to about ``eps k^4 |x|``,
    and that dominates the error: each order is accurate to about
    ``eps sum_k W[n, k] (k^4 |x| + n pi/2 + 1)``, not to its own ulp.
    Whole turns are taken off each rounded angle first (Cody-Waite, with
    2 pi in two parts), since cos and sin are several times faster on
    ``[-pi, pi]``; below 2^35 turns this adds less than 1e-5 of the
    argument's own rounding, and beyond that at most as much again.
    """

    def table(x: np.ndarray, max_order: int) -> np.ndarray:
        ks = np.arange(1.0, max(64.0, 8.0 * (max_order + 1)))
        orders = np.arange(max_order + 1)
        log_terms = -ks + 4.0 * orders[:, None] * np.log(ks)
        weights = np.exp(np.where(log_terms <= 700.0, log_terms, -np.inf))
        weights *= np.array([1.0, -1.0, -1.0, 1.0])[orders % 4, None]
        even, odd = weights[0::2], weights[1::2]
        powers = ks**4
        out = np.empty((max_order + 1, x.size))
        width = max(1, TABLE_BLOCK_ENTRIES // ks.size)
        for start in range(0, x.size, width):
            cols = slice(start, start + width)
            angles = np.multiply.outer(powers, x[cols])
            turns = np.rint(angles * (0.5 / math.pi))
            angles -= turns * _TWO_PI_HEAD
            angles -= turns * _TWO_PI_TAIL
            out[0::2, cols] = even @ np.cos(angles)
            out[1::2, cols] = odd @ np.sin(angles, out=angles)
        return out

    return SmoothExpFunction(label="lacunary-fast-growth", table=table)


def polynomial(coefficients) -> SmoothExpFunction:
    """Polynomial with the given ascending coefficients; finite Taylor."""
    coeffs = np.asarray(coefficients, dtype=float)
    degree = coeffs.size - 1

    def table(x: np.ndarray, max_order: int) -> np.ndarray:
        out = np.zeros((max_order + 1, x.size))
        current = coeffs
        for n in range(max_order + 1):
            if current.size:
                out[n] = np.polynomial.polynomial.polyval(x, current)
                current = np.polynomial.polynomial.polyder(current)
            else:
                break
        return out

    return SmoothExpFunction(
        label=f"poly(degree={degree})", table=table, vanishing_order=degree + 1
    )


def poly_times_gaussian(coefficients) -> SmoothExpFunction:
    """``p(x) exp(-x^2)`` via the Leibniz rule on the two exact tables."""
    poly = polynomial(coefficients)
    gauss = gaussian()

    def table(x: np.ndarray, max_order: int) -> np.ndarray:
        pt = poly.table(x, max_order)
        gt = gauss.table(x, max_order)
        out = np.zeros((max_order + 1, x.size))
        for n in range(max_order + 1):
            for k in range(n + 1):
                out[n] += math.comb(n, k) * pt[k] * gt[n - k]
        return out

    return SmoothExpFunction(label="poly*gaussian", table=table)


def cinf_seminorm(phi: SmoothExpFunction, m: int, j: int, step: float = SUP_GRID_STEP) -> float:
    """Sup of ``|f^(m)|`` over ``[-j, j]``, approximated on a step grid."""
    if step <= 0:
        raise ValueError("grid step must be positive")
    count = max(2, int(round(2 * j / step)) + 1)
    xs = np.linspace(-float(j), float(j), count)
    return float(np.max(np.abs(phi.table(xs, m)[m])))


@dataclass(frozen=True)
class ExpCertificate:
    """Audit of geometric derivative growth up to order ``max_order``.

    Ratios are measured relative to the function's own order-m scale
    ``1 + sup |f^(m)|`` so that a plain large function is not punished:
    ``ratio(M) = max_n sup |f^(n+m)| / ((1 + sup|f^(m)|) M^n)``.
    ``minimal_m`` is the smallest integer rate keeping that ratio at or
    below the cap; ``failed`` marks functions for which no rate up to 2^20
    works.  ``bound_constant`` is the resulting explicit constant C with
    ``sup |f^(n+m)| <= C M^n`` on the checked orders.  The audit covers
    finitely many orders and is evidence, not a proof.
    """

    m: int
    j: int
    max_order: int
    minimal_m: Optional[int]
    observed_ratio: float
    scale: float
    conventional_m: int
    conventional_ratio: float
    conventional_passes: bool
    vanishing_order: Optional[int] = None

    @property
    def failed(self) -> bool:
        return self.minimal_m is None

    @property
    def bound_constant(self) -> float:
        return self.observed_ratio * self.scale


def _log_ratio(log_sups: np.ndarray, rate: float) -> float:
    n = np.arange(log_sups.size)
    return float(np.max(log_sups - n * math.log(rate)))


def certify_membership(
    phi: SmoothExpFunction,
    m: int,
    j: int,
    max_order: int,
    ratio_cap: float = RATIO_CAP,
    step: float = SUP_GRID_STEP,
) -> ExpCertificate:
    """Search the doubling ladder for the smallest usable growth rate.

    Computes ``s_n = sup_{|x|<=j} |f^(n+m)(x)|`` for n up to ``max_order``,
    then the smallest ladder value M with ``max_n s_n / M^n <= ratio_cap``,
    refined to the minimal integer.  The conventional Gaussian constant
    ``M = 2j`` is evaluated and reported alongside.
    """
    if max_order < 1:
        raise ValueError("the audit needs max_order >= 1")
    count = max(2, int(round(2 * j / step)) + 1)
    xs = np.linspace(-float(j), float(j), count)
    full = phi.table(xs, max_order + m)
    sups = np.max(np.abs(full[m : m + max_order + 1]), axis=1)
    scale = 1.0 + float(sups[0])
    with np.errstate(divide="ignore"):
        log_sups = np.where(sups > 0.0, np.log(sups), -np.inf) - math.log(scale)
    log_cap = math.log(ratio_cap)

    ladder = None
    rate = 1
    while rate <= LADDER_TOP:
        if _log_ratio(log_sups, float(rate)) <= log_cap:
            ladder = rate
            break
        rate *= 2
    conventional = max(1, 2 * j)
    conventional_log = _log_ratio(log_sups, float(conventional))
    if ladder is None:
        return ExpCertificate(
            m=m, j=j, max_order=max_order, minimal_m=None,
            observed_ratio=math.inf, scale=scale,
            conventional_m=conventional,
            conventional_ratio=_safe_exp(conventional_log),
            conventional_passes=conventional_log <= log_cap,
            vanishing_order=phi.vanishing_order,
        )
    low, high = ladder // 2, ladder  # smallest integer rate in (low, high]
    while high - low > 1:
        mid = (low + high) // 2
        if mid >= 1 and _log_ratio(log_sups, float(mid)) <= log_cap:
            high = mid
        else:
            low = mid
    minimal = max(1, high)
    return ExpCertificate(
        m=m, j=j, max_order=max_order, minimal_m=minimal,
        observed_ratio=_safe_exp(_log_ratio(log_sups, float(minimal))),
        scale=scale,
        conventional_m=conventional,
        conventional_ratio=_safe_exp(conventional_log),
        conventional_passes=conventional_log <= log_cap,
        vanishing_order=phi.vanishing_order,
    )


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class TranslationResult:
    value: float
    terms: int
    tail_bound: float


def translate_detailed(
    phi: SmoothExpFunction,
    t: float,
    s: float,
    tol: float = 1e-8,
    certificate: Optional[ExpCertificate] = None,
) -> TranslationResult:
    """Partial Taylor sum of ``f`` at s with certified truncation.

    Terms are accumulated until both the running term magnitude and the
    certified tail bound at rate ``|t| M`` fall below the tolerance (a tail
    that is exactly zero — past a polynomial's degree, or at t = 0 — stops
    immediately).  The result satisfies
    ``|value - f(s + t)| <= tol`` up to oracle roundoff.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if certificate is None:
        window = int(math.ceil(abs(s) + abs(t))) + 1
        certificate = certify_membership(phi, 0, window, max_order=40)
    if certificate.failed:
        raise CertificateError(
            f"{phi.label} carries no usable growth certificate; translation "
            "by the series is not certified"
        )
    rate = abs(t) * certificate.minimal_m
    ratio = max(certificate.bound_constant, 1.0)
    vanish = phi.vanishing_order

    block = 64
    derivs = phi.table(np.array([float(s)]), block)[:, 0]
    total = 0.0
    coeff = 1.0  # t^n / n!
    last_term = math.inf
    n = 0
    while True:
        if vanish is not None and n >= vanish:
            return TranslationResult(value=total, terms=n, tail_bound=0.0)
        if t == 0.0 and n >= 1:
            return TranslationResult(value=total, terms=n, tail_bound=0.0)
        if n >= 1:
            log_tail = scalar_tail_log(rate, n - 1) + math.log(ratio)
            tail = _safe_exp(log_tail)
            if tail <= 0.5 * tol and abs(last_term) <= 0.5 * tol:
                return TranslationResult(value=total, terms=n, tail_bound=tail)
        if n > MAX_TERMS:
            raise CertificateError(
                f"translation did not converge within {MAX_TERMS} terms "
                f"(rate {rate:.3g})"
            )
        if n >= derivs.size:
            block *= 2
            derivs = phi.table(np.array([float(s)]), block)[:, 0]
        last_term = coeff * derivs[n]
        total += last_term
        n += 1
        coeff *= t / n


def translate(
    phi: SmoothExpFunction,
    t: float,
    s: float,
    tol: float = 1e-8,
    certificate: Optional[ExpCertificate] = None,
) -> float:
    return translate_detailed(phi, t, s, tol, certificate).value


def shifted(
    phi: SmoothExpFunction,
    offset: float,
    certificate: Optional[ExpCertificate] = None,
    tol: float = 1e-12,
) -> SmoothExpFunction:
    """The translated function, realised through the series itself.

    Each derivative of the shifted function is computed as the Taylor
    translation of the corresponding derivative of ``phi``, so nesting
    `translate` over this oracle exercises the group law genuinely rather
    than by shifting the argument.
    """
    if certificate is None:
        window = int(math.ceil(abs(offset))) + 3
        certificate = certify_membership(phi, 0, window, max_order=40)
    if certificate.failed:
        raise CertificateError(f"{phi.label} carries no usable growth certificate")
    rate = abs(offset) * certificate.minimal_m
    ratio = max(certificate.bound_constant, 1.0)
    log_target = math.log(0.5 * tol) - math.log(ratio)
    terms = 1
    while scalar_tail_log(rate, terms - 1) > log_target and terms < MAX_TERMS:
        terms += 1

    def table(x: np.ndarray, max_order: int) -> np.ndarray:
        top = max_order + terms
        if phi.vanishing_order is not None:
            top = min(top, max(phi.vanishing_order, max_order) + 1)
        base = phi.table(x, top)
        weights = np.array(
            [offset**k / math.factorial(k) for k in range(top - max_order + 1)]
        )
        out = np.zeros((max_order + 1, x.size))
        for n in range(max_order + 1):
            rows = base[n : n + weights.size]
            out[n] = weights[: rows.shape[0]] @ rows
        return out

    return SmoothExpFunction(
        label=f"{phi.label} shifted by {offset}",
        table=table,
        vanishing_order=phi.vanishing_order,
    )
