import math

import mpmath as mp
import numpy as np
import pytest

from frechet_flow import (
    certify_membership,
    cinf_seminorm,
    gaussian,
    polynomial,
    translate,
    translate_detailed,
)
from frechet_flow.translation import (
    TABLE_BLOCK_ENTRIES,
    CertificateError,
    fast_growth,
    poly_times_gaussian,
    shifted,
)

CUBIC = [0.0, 0.0, 0.0, 1.0]
EPS = np.finfo(float).eps


def lacunary_terms(max_order):
    """The frequencies k and weights ``W[n, k] = e^-k k^{4n}`` (0 past e^700)."""
    ks = np.arange(1.0, max(64.0, 8.0 * (max_order + 1)))
    log_terms = -ks + 4.0 * np.arange(max_order + 1)[:, None] * np.log(ks)
    return ks, np.exp(np.where(log_terms <= 700.0, log_terms, -np.inf))


def lacunary_loop_table(x, max_order):
    """Reference: one ``np.cos`` per (order, frequency) pair, summed in k order."""
    out = np.zeros((max_order + 1, x.size))
    ks = np.arange(1.0, max(64.0, 8.0 * (max_order + 1)))
    log_k = np.log(ks)
    for n in range(max_order + 1):
        log_terms = -ks + 4.0 * n * log_k
        keep = log_terms <= 700.0
        for k, lt in zip(ks[keep], log_terms[keep]):
            out[n] += math.exp(lt) * np.cos(k**4 * x + n * math.pi / 2.0)
    return out


def argument_rounding_scale(x, max_order):
    """``sum_k W[n, k] (k^4 |x| + n pi/2 + 1)``: eps times this bounds the
    rounding of each table entry, dominated by that of the argument k^4 x."""
    ks, weights = lacunary_terms(max_order)
    offsets = np.arange(max_order + 1) * math.pi / 2.0 + 1.0
    return weights @ np.multiply.outer(ks**4, np.abs(x)) + (weights.sum(axis=1) * offsets)[:, None]


def hermite_sups_oracle(m, j, max_order, points=801):
    """Independent pure-python sups of the gaussian derivatives on [-j, j]."""
    xs = [(-j + 2 * j * k / (points - 1)) for k in range(points)]
    sups = []
    for x in xs:
        d_prev = math.exp(-x * x)
        d_cur = -2 * x * d_prev
        row = [d_prev, d_cur]
        for n in range(1, max_order + m + 1):
            d_next = -2 * x * d_cur - 2 * n * d_prev
            row.append(d_next)
            d_prev, d_cur = d_cur, d_next
        sups.append(row)
    out = []
    for n in range(m, m + max_order + 1):
        out.append(max(abs(row[n]) for row in sups))
    return out


def test_gaussian_sup_values():
    assert cinf_seminorm(gaussian(), 0, 2) == pytest.approx(1.0, abs=1e-9)
    with mp.workdps(30):
        expected = float(mp.sqrt(2 / mp.e))
    assert cinf_seminorm(gaussian(), 1, 2) == pytest.approx(expected, abs=1e-5)
    assert expected == pytest.approx(0.8578, abs=5e-5)


def test_zero_function_sup_is_zero():
    zero = polynomial([0.0])
    for m, j in ((0, 1), (2, 3)):
        assert cinf_seminorm(zero, m, j) == 0.0


def test_sup_grid_refinement_is_stable():
    # halving the sampling step moves the built-ins' sups by less than 1e-6
    for phi in (gaussian(), polynomial(CUBIC), poly_times_gaussian([1.0, 0.5])):
        for m, j in ((0, 2), (1, 2), (3, 1)):
            coarse = cinf_seminorm(phi, m, j, step=1e-3)
            fine = cinf_seminorm(phi, m, j, step=5e-4)
            assert abs(fine - coarse) < 1e-6 * (1.0 + abs(fine))


def test_gaussian_certificate_at_order_forty():
    cert = certify_membership(gaussian(), 0, 1, 40)
    assert not cert.failed
    assert cert.observed_ratio <= 10.0
    assert cert.conventional_m == 2
    # the conventional rate 2j collapses under the audit: the derivative
    # sups grow faster than 2^n; checked against an independent recurrence
    sups = hermite_sups_oracle(0, 1, 40)
    scale = 1.0 + sups[0]
    ratio_at_two = max(s / (scale * 2.0**n) for n, s in enumerate(sups))
    assert ratio_at_two > 10.0
    assert not cert.conventional_passes
    # minimality: one integer below the reported rate the ratio breaks the cap
    below = max(s / (scale * float(cert.minimal_m - 1) ** n) for n, s in enumerate(sups))
    assert below > 10.0
    at = max(s / (scale * float(cert.minimal_m) ** n) for n, s in enumerate(sups))
    assert at <= 10.0 * (1 + 1e-6)


def test_polynomial_certificate_is_trivial():
    # derivatives vanish beyond the degree: on [-2, 2] the sups are
    # (8, 12, 12, 6, 0, ...), within the cap of the function's own scale
    # already at rate 1
    cert = certify_membership(polynomial(CUBIC), 0, 2, 20)
    assert not cert.failed
    assert cert.minimal_m == 1
    assert cert.observed_ratio <= 10.0
    assert cert.vanishing_order == 4


def test_fast_growth_certificate_fails():
    cert = certify_membership(fast_growth(), 0, 1, 40)
    assert cert.failed
    with pytest.raises(CertificateError):
        translate(fast_growth(), 0.5, 0.0)


def test_fast_growth_table_matches_the_per_term_loop():
    x = np.random.default_rng(2024).uniform(-2.0, 2.0, 64)
    new = fast_growth().table(x, 40)
    ref = lacunary_loop_table(x, 40)
    assert np.all(np.abs(new - ref) <= 2 * EPS * argument_rounding_scale(x, 40))


def test_fast_growth_table_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    x = np.array([-1.9, -0.37, 0.0, 0.5, 1.25, 25.0])  # 25: past 2^35 turns
    orders = [0, 1, 5, 17, 40]
    table = fast_growth().table(x, 40)
    scale = argument_rounding_scale(x, 40)
    ks, weights = lacunary_terms(40)
    with mpmath.workdps(60):
        half_pi = mpmath.pi / 2
        for n in orders:
            kept = [int(k) for k, w in zip(ks, weights[n]) if w > 0.0]
            for col, point in enumerate(x):
                xp = mpmath.mpf(float(point))  # the double itself, exactly
                exact = mpmath.fsum(
                    mpmath.exp(-k + 4 * n * mpmath.log(k)) * mpmath.cos(k**4 * xp + n * half_pi)
                    for k in kept
                )
                assert abs(table[n, col] - float(exact)) <= 2 * EPS * scale[n, col]


def test_fast_growth_table_is_independent_of_the_column_blocks():
    ks, weights = lacunary_terms(40)
    width = TABLE_BLOCK_ENTRIES // ks.size
    x = np.random.default_rng(7).uniform(-2.0, 2.0, 3 * width + 5)
    whole = fast_growth().table(x, 40)
    tolerance = 8 * EPS * weights.sum(axis=1)[:, None]
    for size in (1, width, width + 1):
        part = fast_growth().table(x[:size], 40)
        assert np.all(np.abs(part - whole[:, :size]) <= tolerance)


@pytest.mark.parametrize(
    "j, conventional_m, reference_ratio",
    # the per-term loop (`lacunary_loop_table`) gives these ratios, and
    # minimal_m None; rerunning it takes several seconds
    [(1, 2, 2.710543175913211e272), (2, 4, 2.4652246574196475e260)],
)
def test_fast_growth_certificate_matches_the_loop(j, conventional_m, reference_ratio):
    cert = certify_membership(fast_growth(), 0, j, 40)
    assert cert.failed
    assert cert.conventional_m == conventional_m
    assert not cert.conventional_passes
    assert cert.conventional_ratio == pytest.approx(reference_ratio, rel=1e-6)


def test_translate_time_zero_is_one_term():
    detail = translate_detailed(gaussian(), 0.0, 0.7, 1e-10)
    assert detail.value == gaussian()(0.7)
    assert detail.terms == 1
    assert detail.tail_bound == 0.0


def test_translate_gaussian_half_step():
    value = translate(gaussian(), 0.5, 0.0, 1e-10)
    with mp.workdps(30):
        expected = float(mp.e ** mp.mpf("-0.25"))
    assert value == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(0.7788008, abs=1e-7)


def test_translate_cubic_exact_in_four_terms():
    detail = translate_detailed(polynomial(CUBIC), 1.0, 1.0, 1e-10)
    assert detail.value == 8.0
    assert detail.terms == 4
    assert detail.tail_bound == 0.0


def test_translation_identity_over_the_window(rng):
    phi = gaussian()
    cert = certify_membership(phi, 0, 4, 40)
    for t in (-1.0, -0.3, 0.25, 1.0):
        for s in (-2.0, -0.7, 0.0, 1.3, 2.0):
            value = translate(phi, t, s, 1e-8, cert)
            assert abs(value - phi(s + t)) <= 1e-7


def test_translation_identity_for_poly_times_gaussian():
    phi = poly_times_gaussian([1.0, 1.0])
    cert = certify_membership(phi, 0, 3, 40)
    for t, s in ((0.5, 0.0), (-0.4, 1.0)):
        assert abs(translate(phi, t, s, 1e-8, cert) - phi(s + t)) <= 1e-6


def test_translation_group_law_via_nested_series(rng):
    phi = gaussian()
    for _ in range(20):
        t, v, s = rng.uniform(-0.8, 0.8, size=3)
        direct = translate(phi, t + v, s, 1e-9)
        nested = translate(shifted(phi, v), t, s, 1e-9)
        assert abs(direct - nested) <= 1e-7


def test_derivative_oracle_consistent_with_finite_differences(rng):
    phi = gaussian()
    for n in range(6):
        x = float(rng.uniform(-1.5, 1.5))
        errors = []
        for step in (1e-3, 5e-4):
            fd = (phi.derivative(n, x + step) - phi.derivative(n, x - step)) / (
                2 * step
            )
            errors.append(abs(fd - phi.derivative(n + 1, x)))
        # second order: halving the step cuts the error by about four
        if errors[0] > 1e-12:
            assert errors[1] <= errors[0] / 2.5


def test_poly_times_gaussian_leibniz_table():
    phi = poly_times_gaussian([0.0, 1.0])  # x * exp(-x^2)
    x = 0.3
    direct = phi.derivative(1, x)
    expected = math.exp(-x * x) * (1 - 2 * x * x)
    assert direct == pytest.approx(expected, rel=1e-12)


def test_translate_requires_positive_tolerance():
    with pytest.raises(ValueError):
        translate(gaussian(), 0.5, 0.0, 0.0)
