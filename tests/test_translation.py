import math
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frechet_flow import translation
from frechet_flow.bounds import safe_exp, scalar_tail_log
from frechet_flow.translation import (
    MAX_TERMS,
    SAMPLE_BLOCK,
    SUP_GRID_STEP,
    TABLE_BLOCK_ENTRIES,
    CertificateError,
    SmoothExpFunction,
    certify_membership,
    cinf_seminorm,
    fast_growth,
    gaussian,
    polynomial,
    shifted,
    translate_detailed,
)

CUBIC = [0.0, 0.0, 0.0, 1.0]
EPS = np.finfo(float).eps


def translate_at(phi, t, s, tol=1e-8):
    """The partial sum at the one sample s."""
    return translate_detailed(phi, t, [s], tol).values[0]


def scalar_translate(phi, t, s, tol, certificate):
    """Reference: the one-sample loop, ``(value, terms, tail_bound)`` at s.

    Its own oracle table at s alone, grown to twice its orders when the
    sum reaches its end; each term is checked and added in Python.
    """
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
            return total, n, 0.0
        if t == 0.0 and n >= 1:
            return total, n, 0.0
        if n >= 1:
            tail = safe_exp(scalar_tail_log(rate, n - 1) + math.log(ratio))
            if tail <= 0.5 * tol and abs(last_term) <= 0.5 * tol:
                return total, n, tail
        if n >= derivs.size:
            block *= 2
            derivs = phi.table(np.array([float(s)]), block)[:, 0]
        if n > MAX_TERMS or not math.isfinite(derivs[n]):
            raise CertificateError(
                f"translation did not converge within {MAX_TERMS} terms "
                f"(rate {rate:.3g})"
            )
        last_term = coeff * derivs[n]
        total += last_term
        n += 1
        coeff *= t / n


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def assert_sums_like_the_scalar_loop(phi, t, samples, tol=1e-8, block=SAMPLE_BLOCK):
    """The array path, with sample blocks of ``block``, against the
    one-sample loop under the certificate of the window ceil(max|s| + |t|) + 1.

    Returns the array path's result, or the error that both raise.
    """
    window = math.ceil(max(abs(s) for s in samples) + abs(t)) + 1
    certificate = certify_membership(phi, 0, window, 40)
    reference, errors = [], set()
    for s in samples:
        try:
            reference.append(scalar_translate(phi, t, s, tol, certificate))
        except CertificateError as error:
            errors.add(str(error))
    with mock.patch.object(translation, "SAMPLE_BLOCK", block):
        if errors:
            with pytest.raises(CertificateError) as raised:
                translate_detailed(phi, t, samples, tol)
            assert str(raised.value) in errors
            return raised.value
        result = translate_detailed(phi, t, samples, tol)
    assert result.certificate == certificate
    values, terms, tails = zip(*reference)
    assert bits(result.values) == bits(values)
    assert result.terms.tolist() == list(terms)
    assert bits(result.tail_bounds) == bits(tails)
    return result


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
    for phi in (gaussian(), polynomial(CUBIC)):
        for m, j in ((0, 2), (1, 2), (3, 1)):
            coarse = cinf_seminorm(phi, m, j)
            xs = np.linspace(-j, j, int(round(2 * j / (0.5 * SUP_GRID_STEP))) + 1)
            fine = float(np.max(np.abs(phi.table(xs, m)[m])))
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
    error = assert_sums_like_the_scalar_loop(fast_growth(), 0.5, [0.0])
    assert "no usable growth certificate" in str(error)


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
    detail = translate_detailed(gaussian(), 0.0, [0.7], 1e-10)
    assert detail.values[0] == gaussian()(0.7)
    assert detail.terms[0] == 1
    assert detail.tail_bounds[0] == 0.0


def test_translate_gaussian_half_step():
    value = translate_at(gaussian(), 0.5, 0.0, 1e-10)
    with mp.workdps(30):
        expected = float(mp.e ** mp.mpf("-0.25"))
    assert value == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(0.7788008, abs=1e-7)


def test_translate_cubic_exact_in_four_terms():
    detail = translate_detailed(polynomial(CUBIC), 1.0, [1.0], 1e-10)
    assert detail.values[0] == 8.0
    assert detail.terms[0] == 4
    assert detail.tail_bounds[0] == 0.0


def test_translation_identity_over_the_window(rng):
    phi = gaussian()
    samples = np.array([-2.0, -0.7, 0.0, 1.3, 2.0])
    for t in (-1.0, -0.3, 0.25, 1.0):
        result = translate_detailed(phi, t, samples, 1e-8)
        assert result.certificate.j == 4
        assert np.all(np.abs(result.values - phi(samples + t)) <= 1e-7)


def test_translation_group_law_via_nested_series(rng):
    phi = gaussian()
    for _ in range(20):
        t, v, s = rng.uniform(-0.8, 0.8, size=3)
        direct = translate_at(phi, t + v, s, 1e-9)
        nested = translate_at(shifted(phi, v), t, s, 1e-9)
        assert abs(direct - nested) <= 1e-7


@pytest.mark.parametrize("offset", [math.inf, -math.inf, math.nan])
def test_shifted_refuses_a_non_finite_offset(offset):
    with pytest.raises(ValueError, match="offset must be finite"):
        shifted(gaussian(), offset)


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


def test_translate_requires_positive_tolerance():
    with pytest.raises(ValueError):
        translate_at(gaussian(), 0.5, 0.0, 0.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_translate_refuses_a_tolerance_that_is_not_finite(tol):
    with pytest.raises(ValueError) as err:
        translate_at(gaussian(), 0.5, 0.0, tol)
    assert str(err.value) == f"tolerance must be finite, got {tol!r}"


def test_translate_refuses_an_empty_sample_array():
    with pytest.raises(ValueError) as err:
        translate_detailed(gaussian(), 0.5, [])
    assert str(err.value) == "samples must not be empty"


@pytest.mark.parametrize(
    "t, samples, message",
    [
        (math.nan, [0.0], "t must be finite, got nan"),
        (math.inf, [0.0], "t must be finite, got inf"),
        (-math.inf, [0.0], "t must be finite, got -inf"),
        (1.0, [math.nan], "samples must be finite, got 1 non-finite of 1"),
        (1.0, [0.0, math.inf, -math.inf], "samples must be finite, got 2 non-finite of 3"),
        # each is finite, but the reach that sets the audit window overflows
        (1e308, [1e308], "max |s| + |t| must be finite, got inf"),
        (-1e308, [0.0, -1e308], "max |s| + |t| must be finite, got inf"),
    ],
)
def test_translate_refuses_a_non_finite_time_or_sample_before_the_audit(t, samples, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("the input reached the audit")

    with mock.patch.object(translation, "certify_membership", unreachable):
        with pytest.raises(ValueError) as err:
            translate_detailed(gaussian(), t, samples)
    assert str(err.value) == message


def unreachable_oracle(x, max_order):
    raise AssertionError("the oracle must not run")


def test_certify_membership_refuses_an_oversized_table_before_evaluating():
    phi = SmoothExpFunction(label="unused", table=unreachable_oracle)
    # 2001 samples on [-1, 1]: orders 0..2096 make 4,196,097 entries, above
    # the budget of 2^22 = 4,194,304; orders 0..2095 make 4,194,096
    with pytest.raises(ValueError, match="budget"):
        certify_membership(phi, 0, 1, 2096)
    with pytest.raises(AssertionError, match="must not run"):
        certify_membership(phi, 0, 1, 2095)


@pytest.mark.parametrize("audit", [
    lambda phi, m, j: certify_membership(phi, m, j, 40),
    lambda phi, m, j: cinf_seminorm(phi, m, j),
], ids=["certify_membership", "cinf_seminorm"])
@pytest.mark.parametrize("m, j, message", [
    (-1, 2, "the audit order m must be an integer >= 0, got -1"),
    (1.5, 2, "the audit order m must be an integer >= 0, got 1.5"),
    (0, -2, "the audit window j must be a finite number >= 0, got -2"),
    (0, math.nan, "the audit window j must be a finite number >= 0, got nan"),
    (0, math.inf, "the audit window j must be a finite number >= 0, got inf"),
], ids=["m=-1", "m=1.5", "j=-2", "j=nan", "j=inf"])
def test_the_audit_refuses_a_bad_order_or_window_before_any_table(audit, m, j, message):
    phi = SmoothExpFunction(label="unused", table=unreachable_oracle)
    with pytest.raises(ValueError) as err:
        audit(phi, m, j)
    assert str(err.value) == message


def window_of(count):
    """The window j whose sup grid has ``count`` points."""
    j = (count - 1) * SUP_GRID_STEP / 2
    assert translation._sup_grid(j, 0).size == count
    return j


STREAMED = [
    *((name, phi, m, 40, blocks) for name, phi in (
        ("gaussian", gaussian()), ("cubic", polynomial(CUBIC)),
        ("poly", polynomial([1.0, -2.0, 0.5, 3.0])), ("shifted", shifted(gaussian(), 0.37)))
      for m in (0, 1) for blocks in (2.0, 2.5, 0.5)),
    # orders from about 270 on read inf
    *(("gaussian", gaussian(), m, 300, None) for m in (0, 1)),
]


@pytest.mark.parametrize("name, phi, m, max_order, blocks", STREAMED,
                         ids=[f"{case[0]}-m{case[2]}-K{case[3]}-{case[4]}" for case in STREAMED])
def test_the_streamed_sups_equal_those_of_the_whole_table_bit_for_bit(
        monkeypatch, name, phi, m, max_order, blocks):
    # blocks 2.0: two whole column blocks; 2.5: one point past them; 0.5: within one
    width = translation.AUDIT_BLOCK_ENTRIES // (m + max_order + 1)
    j = 1 if blocks is None else window_of({2.0: 2 * width, 2.5: 2 * width + 1,
                                            0.5: width // 2}[blocks])
    xs = translation._sup_grid(j, m + max_order)
    whole = np.max(np.abs(phi.table(xs, m + max_order)[m:]), axis=1)
    streamed = translation._order_sups(phi, m, j, max_order)
    assert streamed.tobytes() == whole.tobytes()
    assert cinf_seminorm(phi, m, j) == np.max(np.abs(phi.table(xs, m)[m]))
    certificate = certify_membership(phi, m, j, max_order)
    monkeypatch.setattr(translation, "AUDIT_BLOCK_ENTRIES", 1 << 62)  # one block: the whole table
    assert certify_membership(phi, m, j, max_order) == certificate


def test_a_polynomial_past_the_double_range_on_its_window_is_refused_without_warnings():
    # f(x) = 1e308 (1 + x) overflows for x above 0.8; the suite turns a
    # RuntimeWarning into an error
    phi = polynomial([1e308, 1e308])
    with pytest.raises(CertificateError, match="not finite on the audit window"):
        translate_detailed(phi, 1.0, np.array([-2.0, 0.5, 2.0]))
    with pytest.raises(CertificateError, match="not finite"):
        certify_membership(phi, 0, 1, 40)


def gaussian_recurrence(x, max_order):
    """The derivative recurrence in Python floats, up to its first overflow."""
    out = [math.exp(-x * x), -2.0 * x * math.exp(-x * x)]
    for n in range(1, max_order):
        value = -2.0 * x * out[n] - 2.0 * n * out[n - 1]
        if not math.isfinite(value):
            break
        out.append(value)
    return out


def test_gaussian_orders_past_the_double_range_are_inf():
    xs = np.array([0.0, 0.5, 3.0])
    table = gaussian().table(xs, 400)
    firsts = []
    for column, x in enumerate(xs):
        reference = gaussian_recurrence(float(x), 400)
        first = len(reference)
        assert 250 < first < 400
        assert table[:first, column].tolist() == reference
        assert np.all(table[first:, column] == np.inf)
        firsts.append(first)
    # each point leaves the double range at its own order
    assert firsts[:2] == [270, 269]


@settings(max_examples=40, deadline=None)
@given(
    xs=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=6),
    order=st.integers(0, 400),
)
def test_each_gaussian_column_is_the_table_of_its_point_alone(xs, order):
    table = gaussian().table(np.array(xs), order)
    for column, x in enumerate(xs):
        alone = gaussian().table(np.array([x]), order)[:, 0]
        assert bits(table[:, column]) == bits(alone)


def test_translation_stops_at_an_order_past_the_double_range():
    # the rate 40 * 6 needs more terms than the Gaussian has finite orders;
    # the window is ceil(0 + 40) + 1 = 41
    error = assert_sums_like_the_scalar_loop(gaussian(), 40.0, [0.0])
    assert "did not converge within 500 terms" in str(error)


POLY = polynomial([1.0, -2.0, 0.5, 3.0])


@pytest.mark.parametrize(
    "phi, t, samples, regrows",
    [
        (gaussian(), 0.5, np.linspace(-2.0, 2.0, 41), False),
        (gaussian(), -2.5, np.linspace(-1.0, 1.0, 9), False),
        (gaussian(), 0.0, [-0.7, 0.0, 1.5], False),
        # t = 3 needs more than 64 orders, so the table is rebuilt at 128
        (gaussian(), 3.0, np.linspace(-2.0, 2.0, 9), True),
        (gaussian(), -4.0, np.linspace(-2.0, 2.0, 9), True),
        (polynomial(CUBIC), 1.5, np.linspace(-2.0, 2.0, 17), False),
        (POLY, -0.75, np.linspace(-1.0, 1.0, 9), False),
    ],
)
@pytest.mark.parametrize("block", [1, 4, SAMPLE_BLOCK])
def test_the_array_path_sums_each_sample_as_the_scalar_loop(phi, t, samples, regrows, block):
    result = assert_sums_like_the_scalar_loop(phi, t, list(samples), block=block)
    assert (result.terms.max() > 65) == regrows


@settings(max_examples=40, deadline=None)
@given(
    phi=st.sampled_from([gaussian(), polynomial(CUBIC), POLY]),
    t=st.sampled_from([0.0, 0.5, -0.5, 2.5, -2.5, 3.0]) | st.floats(-3.0, 3.0),
    samples=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=10),
    block=st.integers(1, 4),
    tol=st.sampled_from([1e-8, 1e-12]),
)
def test_the_array_path_equals_the_scalar_loop_bitwise(phi, t, samples, block, tol):
    assert_sums_like_the_scalar_loop(phi, t, samples, tol, block)
