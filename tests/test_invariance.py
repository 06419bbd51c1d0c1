import math
import warnings

import numpy as np
import pytest

from frechet_flow import (
    FrequencyGrid,
    MultiplierOperator,
    SpectralField,
    decide_eprime,
    decide_l2,
    diffop_to_symbol,
    exp_multiplier,
    find_growth_witness,
    heat_symbol,
    l2_blowup_construction,
    seminorm,
    to_polynomial,
)
from frechet_flow.invariance import (
    INVARIANT,
    NOT_INVARIANT,
    UNDETERMINED,
    corpus_symbol,
    random_polynomial_symbol,
    real_part_coefficients,
    sampled_sphere_maxima,
)
from frechet_flow.symbols import PolynomialSymbol, parse_symbol

PI = math.pi

D_DX = diffop_to_symbol({(1,): 1.0}, "partial")          # symbol 2 pi i xi
MINUS_D4 = diffop_to_symbol({(4,): -1.0}, "partial")     # symbol -16 pi^4 xi^4
D2 = diffop_to_symbol({(2,): 1.0}, "partial")            # symbol -4 pi^2 xi^2
I_D_DX = diffop_to_symbol({(1,): 1j}, "partial")         # symbol -2 pi xi
BACKWARD_HEAT = to_polynomial(parse_symbol("1+4*pi^2*xi^2"))


# ---------------------------------------------------------------------------
# compact-support decisions


def test_ddx_is_invariant_first_order_imaginary():
    decision = decide_eprime(D_DX)
    assert decision.verdict == INVARIANT
    assert decision.rule == "m1-imaginary"
    assert decision.order == 1


def test_fourth_derivative_is_invariant():
    decision = decide_eprime(MINUS_D4)
    assert decision.verdict == INVARIANT
    assert decision.rule == "m4k-negative"
    assert decision.leading == pytest.approx(-16 * PI**4, rel=1e-12)
    # the rule is followed as stated, but the decision flags that diagonal
    # complex directions carry genuine growth witnesses for this branch
    assert any("order-4k" in c for c in decision.caveats)


def test_fourth_derivative_growth_witness_on_the_diagonal():
    # Re z^4 = xi^4 - 6 xi^2 eta^2 + eta^4 is -4 s^4 at xi = eta = s, so a
    # negative leading coefficient grows like +|z|^4 along the diagonal and
    # defeats every linear threshold
    for c in (1.0, 100.0):
        search = find_growth_witness(MINUS_D4, c)
        assert search.found
        assert search.witness.holds(MINUS_D4)


def test_second_derivative_is_not_invariant():
    decision = decide_eprime(D2)
    assert decision.verdict == NOT_INVARIANT
    assert decision.rule == "otherwise"
    assert decision.order == 2


def test_zero_symbol_is_flagged():
    decision = decide_eprime(PolynomialSymbol(1, {}))
    assert decision.verdict == NOT_INVARIANT
    assert any("zero-symbol" in c for c in decision.caveats)


def test_constant_symbol_branch_carries_caveat():
    negative = decide_eprime(to_polynomial(parse_symbol("-2")))
    assert negative.verdict == INVARIANT
    assert any("constant" in c for c in negative.caveats)
    positive = decide_eprime(to_polynomial(parse_symbol("2")))
    assert positive.verdict == NOT_INVARIANT


def test_eprime_decision_is_scaling_invariant(rng):
    for _ in range(20):
        poly = random_polynomial_symbol(rng)
        scale = float(rng.uniform(0.1, 10.0))
        scaled = PolynomialSymbol(1, {a: scale * c for a, c in poly.coeffs.items()})
        assert decide_eprime(poly).verdict == decide_eprime(scaled).verdict


def test_multiplying_by_i_flips_first_order_verdict():
    rotated = PolynomialSymbol(1, {a: 1j * c for a, c in D_DX.coeffs.items()})
    assert decide_eprime(D_DX).verdict == INVARIANT
    assert decide_eprime(rotated).verdict == NOT_INVARIANT


# ---------------------------------------------------------------------------
# square-integrable decisions


def test_heat_symbol_leaves_l2_invariant():
    decision = decide_l2(heat_symbol(), 1.0)
    assert decision.verdict == INVARIANT
    assert decision.method == "exact-1d"
    assert decision.sup_estimate == pytest.approx(-1.0)


def test_backward_heat_symbol_is_not_invariant():
    assert decide_l2(BACKWARD_HEAT, 0.5).verdict == NOT_INVARIANT


def test_constant_symbol_is_invariant_for_each_time():
    for t in (0.0, 0.5, 3.0):
        decision = decide_l2(to_polynomial(parse_symbol("5+3*i")), t)
        assert decision.verdict == INVARIANT


def test_time_zero_is_identity():
    assert decide_l2(BACKWARD_HEAT, 0.0).verdict == INVARIANT


def test_i_ddx_discrepancy_is_flagged():
    # symbol -2 pi xi: first order with real part unbounded above along one
    # direction; the boundedness criterion fails and the decision carries
    # the documented odd-degree caveat
    assert real_part_coefficients(I_D_DX)[1] == pytest.approx(-2 * PI)
    decision = decide_l2(I_D_DX, 1.0)
    assert decision.verdict == NOT_INVARIANT
    assert any("odd-degree" in c for c in decision.caveats)


def test_sampled_decision_on_overflowing_probes_has_no_warnings():
    # xi^300 overflows to inf from the radius 2^4 probe on: inf - inf is NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        decision = decide_l2(to_polynomial(parse_symbol("xi^300", 1)), method="sampled")
    assert decision.sup_estimate == math.inf and math.isinf(decision.probes[-1])


def test_overflowing_2d_probes_read_the_real_part_along_their_ray():
    # the complex Horner product turns these probes into inf * 0 = nan
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        decision = decide_l2(to_polynomial(parse_symbol("-xi1^70-xi2^70", 2)))
    assert math.isfinite(decision.sup_estimate)
    assert not any(math.isnan(probe) for probe in decision.probes)
    assert decision.probes[-1] == -math.inf
    assert decision.verdict == INVARIANT


@pytest.mark.parametrize("symbol, n, method", [
    ("xi1^70-xi2^70", 2, "auto"), ("xi1^71", 2, "auto"), ("xi^70", 1, "sampled"),
    ("xi^300", 1, "sampled"), ("xi1^300", 2, "auto")])
def test_probes_overflowing_to_inf_are_not_a_flat_tail(symbol, n, method):
    # inf - x = inf passes the spread test against 1e-9 * (1 + inf)
    decision = decide_l2(to_polynomial(parse_symbol(symbol, n)), method=method)
    assert decision.verdict == NOT_INVARIANT
    assert decision.probes[-1] == math.inf


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        decide_l2(heat_symbol(), -1.0)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_non_finite_time_rejected(t):
    with pytest.raises(ValueError, match="finite"):
        decide_l2(heat_symbol(), t)


def test_exact_agrees_with_sampled_on_random_corpus(rng):
    for _ in range(50):
        poly = random_polynomial_symbol(rng)
        exact = decide_l2(poly, 1.0)
        sampled = decide_l2(poly, 1.0, method="sampled")
        assert exact.method == "exact-1d"
        assert sampled.method == "sampled"
        if sampled.verdict != UNDETERMINED:
            assert sampled.verdict == exact.verdict


def test_verdicts_match_wide_grid_growth_surrogate(rng):
    wide = FrequencyGrid(1, 64, 4)
    tail = SpectralField(wide, (1.0 / (1.0 + np.abs(wide.axis))).astype(complex))
    base = seminorm(tail, wide.J)
    for _ in range(25):
        poly = corpus_symbol(rng)
        verdict = decide_l2(poly, 1.0).verdict
        grown = exp_multiplier(MultiplierOperator(poly, wide), 1.0, tail)
        growth = seminorm(grown, wide.J) / base
        assert (growth > 1e6) == (verdict == NOT_INVARIANT)


# ---------------------------------------------------------------------------
# growth witnesses


def test_second_derivative_witness_on_imaginary_axis():
    search = find_growth_witness(D2, 10.0)
    assert search.found
    witness = search.witness
    assert witness.holds(D2)
    # on the imaginary axis the symbol value is +4 pi^2 eta^2
    z = witness.z
    assert D2.eval([z]).real > 10.0 * abs(z.imag)


def test_ddx_witness_exists_below_slope_two_pi():
    # Re(2 pi i z) = -2 pi Im z exceeds c |Im z| on the lower half-plane
    # whenever c < 2 pi, and never once c clears that slope
    search = find_growth_witness(D_DX, 1.0)
    assert search.found
    assert search.witness.branch == "lower"
    assert search.witness.holds(D_DX)
    assert not find_growth_witness(D_DX, 7.0).found


@pytest.mark.parametrize("text", ["(1+2*i)*xi^5-3*xi^2+i*xi", "-xi^4+2*xi"])
def test_witness_search_is_the_point_by_point_scan(text):
    poly = to_polynomial(parse_symbol(text))
    c = 1.0
    search = find_growth_witness(poly, c, r_max=100.0)
    radii = np.geomspace(1.0, 100.0, 60)
    angles = np.linspace(0.0, 2 * PI, 48, endpoint=False)
    cos, sin = np.cos(angles), np.sin(angles)

    def exceeds(z):
        return poly.eval([z]).real > c * abs(z.imag)

    probes, first = [], None
    for r in radii:
        for k in range(angles.size):
            z = complex(r * cos[k], r * sin[k])
            if z.imag == 0.0:
                continue
            probes.append((z, poly.eval([z]).real, c * abs(z.imag)))
            if first is None and exceeds(z) and exceeds(2 * z) and exceeds(4 * z):
                first = probes[-1]
    assert search.probes == tuple(probes)
    assert first is not None and search.witness.z == first[0]
    assert (search.witness.real_part, search.witness.threshold) == first[1:]


def test_witness_search_probes_each_point_once():
    # at r_max = 1 all 60 radii are 1; at 1 + 1e-15 there are 6 distinct ones
    second = diffop_to_symbol({(2,): 1.0}, "partial")
    points = [z for z, _, _ in find_growth_witness(second, 1.0, r_max=1.0).probes]
    assert len(points) == len(set(points)) == 47
    points = [z for z, _, _ in find_growth_witness(second, 1.0, r_max=1.0 + 1e-15).probes]
    assert len(points) == len(set(points))


def test_sphere_maxima_are_the_point_by_point_scan():
    poly = to_polynomial(parse_symbol("(1+2*i)*xi^5-3*xi^2+i*xi"))
    re = real_part_coefficients(poly)

    def real_part(x):  # the real-part Horner loop
        acc = 0.0
        for coefficient in re[::-1]:
            acc = acc * x + coefficient
        return acc

    assert sampled_sphere_maxima(poly)[:9].tolist() == [
        max(real_part(2.0**k), real_part(-(2.0**k))) for k in range(9)]
    poly = to_polynomial(parse_symbol("-(xi1^2+xi2^2)^2+3*xi1*xi2+i*xi2^3", 2))
    angles = np.linspace(0.0, 2 * PI, 64, endpoint=False)
    cos, sin = np.cos(angles), np.sin(angles)
    assert sampled_sphere_maxima(poly)[:9].tolist() == [
        max(poly.eval([2.0**k * cos[a], 2.0**k * sin[a]]).real for a in range(64))
        for k in range(9)]


def test_zero_symbol_has_no_witness():
    search = find_growth_witness(PolynomialSymbol(1, {}), 1.0, r_max=100.0)
    assert not search.found
    assert search.probes


# ---------------------------------------------------------------------------
# blow-up construction


def test_blowup_requires_not_invariant():
    with pytest.raises(ValueError):
        l2_blowup_construction(heat_symbol(), 0.5, 4)


def test_blowup_partial_sums_dominate_half_harmonic():
    blow = l2_blowup_construction(BACKWARD_HEAT, 0.5, 8)
    half_harmonic = np.cumsum([1.0 / (2 * N) for N in range(1, 9)])
    assert np.allclose(blow.lower_bounds, half_harmonic)
    assert blow.lower_bounds[-1] == pytest.approx(1.3589, abs=1e-4)
    assert np.all(blow.evolved_mass >= blow.lower_bounds)
    assert blow.evolved_mass[0] >= 0.5


def test_blowup_mass_stays_below_one():
    blow = l2_blowup_construction(BACKWARD_HEAT, 0.5, 8)
    assert blow.own_mass[-1] == pytest.approx(sum(2.0**-N for N in range(1, 9)))
    assert blow.own_mass[-1] < 1.0


def test_blowup_sums_increase_and_cross_two():
    blow = l2_blowup_construction(BACKWARD_HEAT, 0.5, 30)
    assert np.all(np.diff(blow.evolved_mass) > 0)
    assert blow.evolved_mass[-1] > 2.0
    crossing = int(np.argmax(blow.evolved_mass > 2.0)) + 1
    assert crossing <= 30
    assert blow.own_mass[-1] < 1.0


def test_blowup_balls_are_disjoint():
    blow = l2_blowup_construction(BACKWARD_HEAT, 0.5, 10)
    centers = np.abs(np.array(blow.centers))
    radii = np.array(blow.radii)
    for k in range(len(centers) - 1):
        assert centers[k] + radii[k] < centers[k + 1] - radii[k + 1]
