"""Scalar bounds shared by the package's two exponential series.

The staged series of ``a(D)`` in `evolution` and the Taylor sums of d/dx in
`translation` both truncate an exponential series and certify the omitted
tail by the same scalar bound; both read it here, with the safe
exponentials that turn an overflow into inf and the refusals of a time or
tolerance that is not a finite number.  The module imports only `math`.
"""

from __future__ import annotations

import math

# Per-stage truncation orders beyond this indicate an unusable tolerance.
TERM_CAP = 512


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


def check_finite(value, name: str) -> None:
    """Refuse a number that is not finite with a ``ValueError`` that names it."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def check_tolerance(tol) -> None:
    """Refuse a tolerance that is not a positive finite number."""
    check_finite(tol, "tolerance")
    if tol <= 0:
        raise ValueError("tolerance must be positive")


def safe_exp(x: float) -> float:
    """``e^x``, or inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def safe_expm1(x: float) -> float:
    """``e^x - 1`` without cancellation at small x, or inf where it overflows."""
    try:
        return math.expm1(x)
    except OverflowError:
        return math.inf
