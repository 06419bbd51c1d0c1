"""Taylor translation of very smooth functions on the line.

A function enters through an exact derivative oracle ``(n, x) -> f^(n)(x)``
(recurrences for the built-ins, no numerical differentiation).  Membership
in the geometric-derivative class — some M with
``sup_n sup_{|x|<=j} |M^-n f^(n+m)(x)|`` finite — is audited up to a finite
order by `certify_membership`, which also reports whether the conventional
constant ``M = 2j`` for the Gaussian survives the audit (it does not once
the checked order is large; the empirical minimal M is reported instead).
The audit holds one column block of at most `AUDIT_BLOCK_ENTRIES` entries
of the derivative table at a time and folds the per-order maxima of the
blocks together (`_order_sups`): the ``translate --samples=-40:40:0.5``
audit of 3,444,041 entries peaks at 32 MB of process RSS where the whole
table took 84 MB.

For certified functions the exponential of d/dx acts by the Taylor series
``sum t^n f^(n)(s) / n!`` and equals translation: `translate_detailed`
audits the certificate once for an array of samples s, then sums the
series at all of them as arrays, a block of `SAMPLE_BLOCK` samples at a
time with a certified stopping rule per sample, to compare with ``f(s + t)``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bounds import check_finite, check_tolerance, choose_terms, safe_exp, scalar_tail_log
from .spectral import NODE_BUDGET

RATIO_CAP = 10.0
LADDER_TOP = 1 << 20
SUP_GRID_STEP = 1e-3
MAX_TERMS = 500
# samples per oracle table, so that orders 0..512 (regrown past MAX_TERMS) fit the budget
SAMPLE_BLOCK = NODE_BUDGET // 513
TABLE_BLOCK_ENTRIES = 1 << 15  # angle-table entries per column block
AUDIT_BLOCK_ENTRIES = 1 << 16  # derivative-table entries per column block of the audit

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
    """``exp(-x^2)`` with its two-term derivative recurrence.

    The derivatives grow like ``sqrt(n!) 2^(n/2)``, so from some order on
    (270 at x = 0, 269 at x = 0.5) they leave the double range.  At each
    point the first order that is not finite and every later one are
    returned as ``inf``: a magnitude beyond the range, never a value to
    compute with.  So each point's column is that of its table alone.
    """

    def table(x: np.ndarray, max_order: int) -> np.ndarray:
        out = np.empty((max_order + 1, x.size))
        out[0] = np.exp(-(x**2))
        if max_order >= 1:
            out[1] = -2.0 * x * out[0]
        # orders past the range overflow here and are marked inf below
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(1, max_order):
                out[n + 1] = -2.0 * x * out[n] - 2.0 * n * out[n - 1]
        return _inf_past_the_range(out)

    return SmoothExpFunction(label="gaussian", table=table)


def _inf_past_the_range(table: np.ndarray) -> np.ndarray:
    """Set each point's first order that is not finite, and all later ones, to inf."""
    finite = np.isfinite(table)
    if not finite.all():
        table[np.logical_or.accumulate(~finite, axis=0)] = np.inf
    return table


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
        with np.errstate(over="ignore", invalid="ignore"):  # the audit refuses inf and nan
            for n in range(min(max_order, degree) + 1):
                out[n] = np.polynomial.polynomial.polyval(x, current)
                current = np.polynomial.polynomial.polyder(current)
        return out

    return SmoothExpFunction(
        label=f"poly(degree={degree})", table=table, vanishing_order=degree + 1
    )


def _sup_grid(j, top_order: int) -> np.ndarray:
    """The points of ``[-j, j]`` at step ``SUP_GRID_STEP``, refused first (counted in
    floats) when a table of orders 0..top_order over them passes the budget.  The
    audit holds one column block of that table at a time, so the budget bounds
    its work, not its memory."""
    count = max(2.0, float(np.rint(2.0 * j / SUP_GRID_STEP)) + 1.0)
    entries = count * (top_order + 1)
    if entries > NODE_BUDGET:
        raise ValueError(
            f"the audit of [-{j:.6g}, {j:.6g}] at step {SUP_GRID_STEP:g} up to order {top_order} "
            f"needs a table of {entries:.6g} entries, above the budget {NODE_BUDGET}"
        )
    return np.linspace(-float(j), float(j), int(count))


def _order_sups(phi: SmoothExpFunction, m, j, orders: int) -> np.ndarray:
    """``sup |f^(n)|`` over the sup grid of ``[-j, j]`` for n = m..m+orders.

    An order m that is not an integer >= 0 and a window j that is not a
    finite number >= 0 are refused with ``ValueError`` before any table is
    built.  The oracle's table is built one column block of at most
    ``AUDIT_BLOCK_ENTRIES`` entries at a time and its per-order maxima are
    folded together; maxima are exact, so for oracles that compute each
    column on its own the sups equal those of the whole table bit for bit.
    """
    if not isinstance(m, numbers.Integral) or m < 0:
        raise ValueError(f"the audit order m must be an integer >= 0, got {m!r}")
    if not (isinstance(j, numbers.Real) and math.isfinite(j) and j >= 0):
        raise ValueError(f"the audit window j must be a finite number >= 0, got {j!r}")
    top = m + orders
    xs = _sup_grid(j, top)
    width = max(1, AUDIT_BLOCK_ENTRIES // (top + 1))
    sups = np.zeros(orders + 1)
    for start in range(0, xs.size, width):
        block_sups = np.max(np.abs(phi.table(xs[start : start + width], top)[m:]), axis=1)
        np.maximum(sups, block_sups, out=sups)
    return sups


def cinf_seminorm(phi: SmoothExpFunction, m: int, j: int) -> float:
    """Sup of ``|f^(m)|`` over ``[-j, j]``, approximated on a grid of step ``SUP_GRID_STEP``."""
    return float(_order_sups(phi, m, j, 0)[0])


@dataclass(frozen=True)
class ExpCertificate:
    """Audit of geometric derivative growth up to order ``max_order``.

    Ratios are measured relative to the function's own order-m scale
    ``1 + sup |f^(m)|`` so that a plain large function is not punished:
    ``ratio(M) = max_n sup |f^(n+m)| / ((1 + sup|f^(m)|) M^n)``.
    ``minimal_m`` is the smallest integer rate keeping that ratio at or
    below ``RATIO_CAP``; ``failed`` marks functions for which no rate up to 2^20
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


def certify_membership(phi: SmoothExpFunction, m: int, j: int, max_order: int) -> ExpCertificate:
    """Search the doubling ladder for the smallest usable growth rate.

    Computes ``s_n = sup_{|x|<=j} |f^(n+m)(x)|`` for n up to ``max_order`` on
    a grid of step ``SUP_GRID_STEP``, refuses a non-finite s_0 with
    `CertificateError`, then finds the smallest ladder value M with
    ``max_n s_n / M^n <= RATIO_CAP``, refined to the minimal integer.  The
    conventional Gaussian constant ``M = 2j`` is evaluated and reported
    alongside.  The sups come from `_order_sups`, which holds one column
    block of ``AUDIT_BLOCK_ENTRIES`` table entries at a time, never the
    whole table.  An order m that is not an integer >= 0 and a window j that
    is not a finite number >= 0 are refused with ``ValueError``, and so is a
    derivative table of more than ``NODE_BUDGET`` entries (samples times
    orders), before the oracle runs: the budget bounds the audit's work.  j
    may be a float until then, and is an integer from there on.
    """
    if max_order < 1:
        raise ValueError("the audit needs max_order >= 1")
    sups = _order_sups(phi, m, j, max_order)
    j = int(j)
    scale = 1.0 + float(sups[0])
    if not math.isfinite(scale):
        raise CertificateError(f"{phi.label} is not finite on the audit window (order {m})")
    with np.errstate(divide="ignore"):
        log_sups = np.where(sups > 0.0, np.log(sups), -np.inf) - math.log(scale)
    log_cap = math.log(RATIO_CAP)

    ladder = 1
    while ladder <= LADDER_TOP and _log_ratio(log_sups, float(ladder)) > log_cap:
        ladder *= 2
    minimal, observed = None, math.inf
    if ladder <= LADDER_TOP:
        low, high = ladder // 2, ladder  # smallest integer rate in (low, high]
        while high - low > 1:
            mid = (low + high) // 2
            if mid >= 1 and _log_ratio(log_sups, float(mid)) <= log_cap:
                high = mid
            else:
                low = mid
        minimal = max(1, high)
        observed = safe_exp(_log_ratio(log_sups, float(minimal)))
    conventional = max(1, 2 * j)
    conventional_log = _log_ratio(log_sups, float(conventional))
    return ExpCertificate(
        m=m, j=j, max_order=max_order, minimal_m=minimal, observed_ratio=observed,
        scale=scale, conventional_m=conventional,
        conventional_ratio=safe_exp(conventional_log),
        conventional_passes=conventional_log <= log_cap, vanishing_order=phi.vanishing_order,
    )


@dataclass(frozen=True)
class TranslationResult:
    """Sums, term counts and tail bounds per sample, and their one certificate."""

    values: np.ndarray
    terms: np.ndarray
    tail_bounds: np.ndarray
    certificate: ExpCertificate


def _certified_rate(phi: SmoothExpFunction, t: float, window):
    """The certificate on ``[-window, window]``, the rate ``|t| M`` and ``max(C, 1)``."""
    certificate = certify_membership(phi, 0, window, max_order=40)
    if certificate.failed:
        raise CertificateError(f"{phi.label} carries no usable growth certificate; "
                               "translation by the series is not certified")
    return certificate, abs(t) * certificate.minimal_m, max(certificate.bound_constant, 1.0)


def translate_detailed(
    phi: SmoothExpFunction, t: float, samples, tol: float = 1e-8
) -> TranslationResult:
    """Partial Taylor sums of ``f`` at each sample s of a 1-D array.

    The certificate is audited once, on ``[-j, j]`` with
    ``j = ceil(max |s| + |t|) + 1``.  At each sample, terms are added until
    both the last term and the certified tail bound at rate ``|t| M`` are
    at most tol / 2 in magnitude (an exactly zero tail — past a
    polynomial's degree, or at t = 0 — stops at once).  Summed as arrays
    over blocks of `SAMPLE_BLOCK` samples, each sample adds the same terms
    in the same order as a one-sample loop.  The audit covers finitely many
    orders, so a sum can miss ``f(s + t)`` by more than tol.  A non-finite
    t, sample or reach ``max |s| + |t|``, an empty sample array and a
    tolerance that is not a positive finite number are refused with
    `ValueError`.
    """
    check_tolerance(tol)
    check_finite(t, "t")
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("samples must not be empty")
    bad = samples.size - np.count_nonzero(np.isfinite(samples))
    if bad:
        raise ValueError(f"samples must be finite, got {bad} non-finite of {samples.size}")
    reach = float(np.max(np.abs(samples))) + abs(t)
    check_finite(reach, "max |s| + |t|")
    certificate, rate, ratio = _certified_rate(phi, t, float(np.ceil(reach)) + 1.0)
    vanish = phi.vanishing_order
    values, tails = np.empty(samples.size), np.empty(samples.size)
    terms = np.empty(samples.size, dtype=np.int64)
    for start in range(0, samples.size, SAMPLE_BLOCK):
        # the samples still summing, their sums, and their oracle table,
        # grown to twice its orders when the sums reach its end
        cols = np.arange(start, min(start + SAMPLE_BLOCK, samples.size))
        total, coeff, n = np.zeros(cols.size), 1.0, 0  # coeff = t^n / n!
        order = 64
        derivs = phi.table(samples[cols], order)
        while True:
            done = None
            if (vanish is not None and n >= vanish) or (t == 0.0 and n >= 1):
                done, tail = np.ones(cols.size, dtype=bool), 0.0
            elif n >= 1:
                tail = safe_exp(scalar_tail_log(rate, n - 1) + math.log(ratio))
                if tail <= 0.5 * tol:
                    done = np.abs(last) <= 0.5 * tol
            if done is not None and done.any():
                hit = cols[done]
                values[hit], terms[hit], tails[hit] = total[done], n, tail
                if done.all():
                    break
                keep = ~done
                cols, total, last, derivs = cols[keep], total[keep], last[keep], derivs[:, keep]
            if n > order:
                order *= 2
                derivs = phi.table(samples[cols], order)
            # an order beyond the double range (inf in the table) cannot be
            # summed, so neither this partial sum nor any later one converges
            if n > MAX_TERMS or not np.isfinite(derivs[n]).all():
                raise CertificateError(f"translation did not converge within {MAX_TERMS} "
                                       f"terms (rate {rate:.3g})")
            last = coeff * derivs[n]
            total += last
            n += 1
            coeff *= t / n
    return TranslationResult(values, terms, tails, certificate)


def shifted(phi: SmoothExpFunction, offset: float) -> SmoothExpFunction:
    """The translated function, realised through the series itself.

    Each derivative of the shifted function is computed as the Taylor
    translation of the corresponding derivative of ``phi``, so nesting
    `translate_detailed` over this oracle exercises the group law genuinely
    rather than by shifting the argument.  Each is summed to one order past
    the first whose certified tail is below ``1e-12 / 2``; an order past
    `bounds.TERM_CAP` raises `SeriesTruncationError`.
    """
    check_finite(offset, "offset")
    _, rate, ratio = _certified_rate(phi, offset, int(math.ceil(abs(offset))) + 3)
    log_target = math.log(0.5 * 1e-12) - math.log(ratio)
    terms = choose_terms(rate, log_target) + 1
    taylor = np.array([offset**k / math.factorial(k) for k in range(terms + 1)])

    def table(x: np.ndarray, max_order: int) -> np.ndarray:
        top = max_order + terms
        if phi.vanishing_order is not None:
            top = min(top, max(phi.vanishing_order, max_order) + 1)
        base = phi.table(x, top)
        weights = taylor[: top - max_order + 1]
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
