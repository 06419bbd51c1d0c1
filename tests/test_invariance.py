import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frechet_flow.cli import main
from frechet_flow.evolution import exp_multiplier
from frechet_flow.invariance import (
    INVARIANT,
    NOT_INVARIANT,
    GrowthWitness,
    corpus_symbol,
    decide_eprime,
    decide_l2,
    find_growth_witness,
    l2_blowup_construction,
    random_polynomial_symbol,
    real_part_coefficients,
    sampled_sphere_maxima,
)
from frechet_flow.operators import MultiplierOperator, ReflectionOperator, continuum_seminorm_bound
from frechet_flow.spectral import FrequencyGrid, SpectralField, seminorm
from frechet_flow.symbols import (
    PolynomialSymbol,
    diffop_to_symbol,
    heat_symbol,
    horner,
    parse_symbol,
)

PI = math.pi

D_DX = diffop_to_symbol({(1,): 1.0}, "partial")          # symbol 2 pi i xi
MINUS_D4 = diffop_to_symbol({(4,): -1.0}, "partial")     # symbol -16 pi^4 xi^4
D2 = diffop_to_symbol({(2,): 1.0}, "partial")            # symbol -4 pi^2 xi^2
I_D_DX = diffop_to_symbol({(1,): 1j}, "partial")         # symbol -2 pi xi
BACKWARD_HEAT = parse_symbol("1+4*pi^2*xi^2")


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


def test_fourth_derivative_growth_witness_on_the_diagonal():
    # Re z^4 = xi^4 - 6 xi^2 eta^2 + eta^4 is -4 s^4 at xi = -eta = s, so a
    # negative leading coefficient grows like +|z|^4 along the diagonal for
    # t > 0, and along the real axis for t < 0
    witness = find_growth_witness(MINUS_D4)
    assert witness == GrowthWitness(order=4, forward=-PI / 4, backward=0.0)


def test_second_derivative_is_not_invariant():
    decision = decide_eprime(D2)
    assert decision.verdict == NOT_INVARIANT
    assert decision.rule == "otherwise"
    assert decision.order == 2


def check_eprime_lines(text, tmp_path, capsys):
    assert main(["check-eprime", f"--symbol={text}", "--out", str(tmp_path)]) == 0
    return capsys.readouterr().out.splitlines()


def test_zero_symbol_is_flagged(tmp_path, capsys):
    # the paper's rule reads the zero symbol as m = 0 with a_0 = 0; its flow
    # is the identity, so the exact rule disagrees and a note says so
    decision = decide_eprime(PolynomialSymbol(1, {}))
    assert (decision.verdict, decision.order, decision.leading) == (NOT_INVARIANT, 0, 0j)
    assert check_eprime_lines("0", tmp_path, capsys)[-1].startswith("note: ")


def test_constant_symbol_branch_carries_caveat(tmp_path, capsys):
    # the paper's constant branch is its 4k rule at m = 0; constants keep
    # supports for either sign, and the note marks where the rules part
    negative = decide_eprime(parse_symbol("-2"))
    assert negative.verdict == INVARIANT
    assert not any(line.startswith("note: ")
                   for line in check_eprime_lines("-2", tmp_path, capsys))
    positive = decide_eprime(parse_symbol("2"))
    assert positive.verdict == NOT_INVARIANT
    assert check_eprime_lines("2", tmp_path, capsys)[-1] == (
        "note: the paper rule differs from the exact rule; a constant symbol multiplies "
        "by the scalar e^{t a_0}, which keeps every support")


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
        decision = decide_l2(parse_symbol("5+3*i"), t)
        assert decision.verdict == INVARIANT


def test_time_zero_is_identity():
    assert decide_l2(BACKWARD_HEAT, 0.0).verdict == INVARIANT


def test_time_zero_reports_the_sup_of_the_real_part_as_other_times_do():
    for poly, sup in ((heat_symbol(), -1.0), (BACKWARD_HEAT, math.inf)):
        at_zero = decide_l2(poly, 0.0)
        assert (at_zero.verdict, at_zero.caveats) == (INVARIANT, ("t = 0: identity flow",))
        assert at_zero.sup_estimate == decide_l2(poly, 1e-300).sup_estimate == sup


def test_i_ddx_discrepancy_is_flagged():
    # symbol -2 pi xi: first order with real part unbounded above along one
    # direction; the boundedness criterion fails and the decision carries
    # the documented odd-degree caveat
    assert real_part_coefficients(I_D_DX)[1] == pytest.approx(-2 * PI)
    decision = decide_l2(I_D_DX, 1.0)
    assert decision.verdict == NOT_INVARIANT
    assert any("odd-degree" in c for c in decision.caveats)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sup_of_large_coefficients_keeps_its_critical_point():
    # the derivative of -1e308 xi^2 overflows; the sup 2.5e307 sits at xi = 1/2
    decision = decide_l2(parse_symbol("-1e308*xi^2+1e308*xi"), 1.0)
    assert decision.verdict == INVARIANT
    assert decision.sup_estimate == pytest.approx(2.5e307, rel=1e-12)


def test_overflowing_probe_table_has_no_warnings_and_ends_at_inf():
    # xi^300 overflows to inf from the radius 2^4 probe on
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        maxima = sampled_sphere_maxima(parse_symbol("xi^300", 1))
    assert not np.isnan(maxima).any() and maxima[-1] == math.inf


@pytest.mark.parametrize("symbol", ["xi^70", "xi^300"])
def test_symbols_whose_probes_overflow_are_not_invariant(symbol):
    decision = decide_l2(parse_symbol(symbol, 1))
    assert (decision.verdict, decision.method) == (NOT_INVARIANT, "exact-1d")
    assert decision.sup_estimate == math.inf


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        decide_l2(heat_symbol(), -1.0)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_non_finite_time_rejected(t):
    with pytest.raises(ValueError, match="finite"):
        decide_l2(heat_symbol(), t)


HEAT_2D = parse_symbol("-(1+4*pi^2*(xi1^2+xi2^2))", 2)


@pytest.mark.parametrize("refused", [
    lambda: decide_l2(HEAT_2D, 1.0),
    lambda: decide_l2(HEAT_2D, 0.0),
    lambda: sampled_sphere_maxima(HEAT_2D),
    lambda: continuum_seminorm_bound(HEAT_2D, 2),
    lambda: ReflectionOperator(FrequencyGrid(2, 2, 4)),
], ids=["decide_l2", "decide_l2-time-zero", "sampled_sphere_maxima",
        "continuum_seminorm_bound", "ReflectionOperator"])
def test_two_dimensional_calls_are_refused_in_one_line(refused):
    with pytest.raises(ValueError, match="n = 1") as error:
        refused()
    assert "\n" not in str(error.value)


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
    # the symbol -4 pi^2 xi^2 is +4 pi^2 eta^2 on the imaginary axis
    assert find_growth_witness(D2) == GrowthWitness(order=2, forward=-PI / 2, backward=0.0)


def test_first_order_witness_is_a_real_half_axis():
    # Re(t a(x)) = -2 pi t x grows on x < 0 for t > 0, on x > 0 for t < 0
    assert find_growth_witness(I_D_DX) == GrowthWitness(order=1, forward=PI, backward=0.0)
    assert find_growth_witness(parse_symbol("xi+5*i")) == GrowthWitness(
        order=1, forward=0.0, backward=PI)


def test_witness_needs_one_dimension():
    with pytest.raises(ValueError, match="n = 1"):
        find_growth_witness(parse_symbol("xi1^2", 2))


DEGREE_AT_MOST_ONE = [parse_symbol(text) for text in (
    "3", "-2", "0", "1-2*i", "2*pi*i*xi", "3-i*xi", "-2*pi*xi", "xi", "(1+i)*xi-2")]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), picked=st.sampled_from([None, *DEGREE_AT_MOST_ONE]),
       t=st.sampled_from([1.0, -1.0]).flatmap(
           lambda sign: st.floats(1e-3, 1e3).map(lambda size: sign * size)))
def test_witness_rays_grow_like_the_leading_term(seed, picked, t):
    rng = np.random.default_rng(seed)
    poly = random_polynomial_symbol(rng) if picked is None else picked
    a = poly.dense
    witness = find_growth_witness(poly)
    if witness is None:
        # a_0 + i b z: Re(t a(z)) = t Re a_0 - t b Im z
        assert poly.order <= 1 and poly.coefficient((1,)).real == 0.0
        radii = np.ldexp(1.0, rng.integers(-10, 31, 64))
        z = radii * np.exp(1j * rng.uniform(0.0, 2 * PI, 64))
        bound = abs(t * a[0].real) + abs(t * poly.coefficient((1,)).imag) * np.abs(z.imag)
        assert np.all((t * poly.eval([z])).real <= bound * (1 + 1e-12))
        return
    m = witness.order
    growth = abs(t) * (abs(a[m]) if m >= 2 else abs(a[1].real))
    theta = witness.forward if t > 0 else witness.backward
    last = None
    for k in range(10, 31):
        r = 2.0**k
        z = complex(r * math.cos(theta), r * math.sin(theta))
        value = (t * poly.eval([z])).real
        if not math.isfinite(value):
            break
        # the terms below the leading one, and Im a_1 off the real axis for m = 1
        rest = abs(t) * (sum(abs(c) * r**j for j, c in enumerate(a[:m]))
                         + (abs(a[1].imag * z.imag) if m == 1 else 0.0))
        last = value / (growth * r**m)
        assert abs(last - 1.0) <= rest / (growth * r**m) + 1e-9
    assert last is not None and abs(last - 1.0) < 1e-3


def test_sphere_maxima_are_the_point_by_point_scan():
    poly = parse_symbol("(1+2*i)*xi^5-3*xi^2+i*xi")
    re = real_part_coefficients(poly)

    def real_part(x):  # the real-part Horner loop
        acc = 0.0
        for coefficient in re[::-1]:
            acc = acc * x + coefficient
        return acc

    assert sampled_sphere_maxima(poly)[:9].tolist() == [
        max(real_part(2.0**k), real_part(-(2.0**k))) for k in range(9)]


def test_zero_symbol_has_no_witness():
    assert find_growth_witness(PolynomialSymbol(1, {})) is None


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


@pytest.mark.parametrize("text, t, bisected", [("xi", 0.01, 7), ("-xi^3+2", 0.01, 1)])
def test_blowup_centers_are_the_first_points_where_the_factor_reaches_its_target(
        text, t, bisected):
    """A center is the first point, at least 0.75 past the previous ball, where
    ``e^{2t Re a} >= 2^N/N``: there, or where the bisection stops, so a point 1e-9
    before a bisected center falls short of it."""
    poly = parse_symbol(text)
    re = real_part_coefficients(poly)
    blow = l2_blowup_construction(poly, t, 8)
    direction = math.copysign(1.0, blow.centers[0])

    def log_factor(xi):
        return 2.0 * t * float(horner(re, [xi]))  # the construction's own evaluation

    found = 0
    low = 0.75
    for N, (center, radius) in enumerate(zip(blow.centers, blow.radii), start=1):
        target = N * math.log(2.0) - math.log(N)
        assert log_factor(center) >= target
        if abs(center) != low:
            assert abs(center) > low
            assert log_factor(center - direction * 1e-9) < target
            found += 1
        low = abs(center) + radius + 0.75
    assert found == bisected
    assert np.all(blow.evolved_mass >= blow.lower_bounds)
    assert np.all(blow.own_mass < 1.0)


def test_blowup_balls_are_disjoint():
    blow = l2_blowup_construction(BACKWARD_HEAT, 0.5, 10)
    centers = np.abs(np.array(blow.centers))
    radii = np.array(blow.radii)
    for k in range(len(centers) - 1):
        assert centers[k] + radii[k] < centers[k + 1] - radii[k + 1]
