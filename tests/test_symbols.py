import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frechet_flow import (
    FrequencyGrid,
    PolynomialSymbol,
    SymbolSyntaxError,
    audit_order,
    diffop_to_symbol,
    evaluate,
    heat_symbol,
    parse_symbol,
    to_polynomial,
)
from frechet_flow.symbols import SymbolError, horner, parse_diffop_coefficients

PI = math.pi


def test_parse_heat_symbol_structure():
    poly = to_polynomial(parse_symbol("-(1+4*pi^2*xi^2)"))
    assert poly.order == 2
    assert poly.coefficient((0,)) == -1.0
    assert poly.coefficient((2,)) == pytest.approx(-4 * PI**2, rel=1e-15)
    assert poly.coefficient((1,)) == 0


def test_parse_transport_symbol():
    poly = to_polynomial(parse_symbol("2*pi*i*xi"))
    assert poly.order == 1
    assert poly.coefficient((1,)) == pytest.approx(2j * PI, rel=1e-15)


def test_parse_constant():
    poly = to_polynomial(parse_symbol("3"))
    assert poly.coeffs == {(0,): 3.0 + 0j}
    assert poly.order == 0


def test_parse_rejects_non_integer_exponent():
    with pytest.raises(SymbolSyntaxError) as err:
        parse_symbol("xi^(1/2)")
    assert "non-integer exponent" in str(err.value)
    assert err.value.offset == 2
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("xi^0.5")


@pytest.mark.parametrize("text, message", [
    ("xi^xi", "exponent must be a constant"),
    ("xi^(2+xi1)", "unknown identifier"),
    ("xi^(1/(1-1))", "division by zero in constant"),
    ("xi^(0^-1)", "exponent out of range"),
    ("xi^(10^400)", "exponent out of range"),
])
def test_parse_rejects_bad_exponents_at_the_caret(text, message):
    with pytest.raises(SymbolSyntaxError) as err:
        parse_symbol(text)
    assert message in str(err.value)
    assert err.value.offset == (6 if message == "unknown identifier" else 2)


def test_parse_folds_constant_exponents():
    assert parse_symbol("xi^(2^2-1/2*2)").root.exponent == 3
    assert parse_symbol("xi^-(-2)").root.exponent == 2


def expand_stepwise(text):
    """The coefficients of a constant power as `_poly_mul` forms them, one product at a time."""
    base, exponent = text.rsplit("^", 1)
    power = {(0,): 1.0 + 0j}
    factor = to_polynomial(parse_symbol(base)).coeffs
    for _ in range(int(exponent)):
        power = {(0,): 0j + power[(0,)] * factor.get((0,), 0j)}
        if power[(0,)] == 0:
            return {}
    return power


@pytest.mark.parametrize("text", ["pi^2", "(1+2*i)^3", "(-0.0*i+1)^2", "0^3", "pi^0"])
def test_constant_squares_and_cubes_keep_the_product_bits(text):
    coeffs = to_polynomial(parse_symbol(text)).coeffs
    expected = expand_stepwise(text)
    assert list(coeffs) == list(expected)
    for alpha, c in coeffs.items():
        assert np.array([c]).view(np.uint64).tolist() == \
            np.array([expected[alpha]]).view(np.uint64).tolist()


def test_large_constant_powers_take_log2_products():
    assert to_polynomial(parse_symbol("(xi-xi)^100000000")).coeffs == {}
    assert to_polynomial(parse_symbol("0^100000000*xi")).coeffs == {}
    assert to_polynomial(parse_symbol("i^100000001*xi")).coeffs == {(1,): 1j}
    assert to_polynomial(parse_symbol("(-1)^100000001*xi")).coeffs == {(1,): -1.0}
    assert to_polynomial(parse_symbol("2^1000*xi")).coeffs == {(1,): complex(2.0**1000)}
    assert to_polynomial(parse_symbol("0.5^100000000*xi")).coeffs == {}
    assert to_polynomial(parse_symbol("(1/2)^-1000")).coeffs == {(0,): complex(2.0**1000)}
    for text in ("2^100000000", "2^1024", "(1/2)^-2000*xi", "(1+i)^2100"):
        with pytest.raises(SymbolError, match="a constant power overflows"):
            to_polynomial(parse_symbol(text))
    with pytest.raises(SymbolError, match="zero raised to a negative exponent"):
        to_polynomial(parse_symbol("(xi-xi)^-3"))


def test_parse_rejects_unknown_identifier():
    with pytest.raises(SymbolSyntaxError) as err:
        parse_symbol("1+zeta")
    assert "unknown identifier" in str(err.value)
    assert err.value.offset == 2


def test_parse_rejects_division_by_variable():
    with pytest.raises(SymbolSyntaxError) as err:
        parse_symbol("1/xi")
    assert "non-constant" in str(err.value)
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("xi/(1+xi)")


def test_parse_syntax_errors_carry_offsets():
    with pytest.raises(SymbolSyntaxError) as err:
        parse_symbol("2*")
    assert err.value.offset == 2
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("")
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("(1+xi")
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("1 $ 2")


def test_two_dimensional_variables():
    expr = parse_symbol("xi1^2+xi2^2", n=2)
    assert evaluate(expr, [3.0, 4.0]) == pytest.approx(25.0)
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("xi3", n=2)
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("xi1", n=1)


def test_unary_minus_and_precedence():
    assert evaluate(parse_symbol("-xi^2"), [3.0]) == pytest.approx(-9.0)
    assert evaluate(parse_symbol("2+3*4"), [0.0]) == pytest.approx(14.0)
    assert evaluate(parse_symbol("2*xi^3"), [2.0]) == pytest.approx(16.0)
    assert evaluate(parse_symbol("2^3^2"), [0.0]) == pytest.approx(512.0)


def test_eval_heat_symbol_values():
    poly = heat_symbol()
    assert poly.eval([0.0]) == -1.0
    assert poly.eval([1.0 / (2 * PI)]) == pytest.approx(-2.0, rel=1e-14)
    assert PolynomialSymbol(1, {}).eval([7.0]) == 0


def test_eval_takes_scalar_or_array_coordinates():
    poly = to_polynomial(parse_symbol("xi1^2*xi2 - i*xi2^3", 2))
    value = poly.eval([1.5, -2.0])
    assert type(value) is complex and value == pytest.approx(-4.5 + 8j)
    x1, x2 = np.array([[1.5], [0.5]]), np.array([-2.0, 1.0, 3.0])
    table = poly.eval([x1, x2])
    assert table.shape == (2, 3) and table[0, 0] == value
    assert np.array_equal(poly.eval_grid(x1.ravel(), x2), table)
    assert heat_symbol().eval(0.0) == -1.0


def test_horner_keeps_real_coefficients_in_real_arithmetic():
    # 1 - 3 xi + 2 xi^2
    values = horner(np.array([1.0, -3.0, 2.0]), [np.array([0.0, 1.0, 2.0, -1.0])])
    assert values.dtype == np.float64
    assert values.tolist() == [1.0, 0.0, 3.0, 6.0]


COMPONENT = st.one_of(st.floats(-1e3, 1e3),
                      st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1.5]))


@st.composite
def symbol_on_a_grid(draw):
    """A grid of a spacing 1/inv_h, often not a power of two, and a polynomial
    whose axes each take even exponents only, or any."""
    n = draw(st.sampled_from([1, 2]))
    grid = FrequencyGrid(n, draw(st.integers(1, 2)), draw(st.sampled_from([1, 3, 4, 5, 6])))
    exponents = [st.sampled_from([0, 2, 4, 6]) if draw(st.booleans()) else st.integers(0, 7)
                 for _ in range(n)]
    terms = draw(st.lists(st.tuples(*exponents), min_size=1, max_size=6))
    coeffs = {alpha: complex(draw(COMPONENT), draw(COMPONENT)) for alpha in terms}
    return grid, PolynomialSymbol(n, coeffs)


@settings(max_examples=60, deadline=None)
@given(case=symbol_on_a_grid())
def test_eval_at_each_node_is_eval_grid_bitwise(case):
    grid, poly = case
    # the grid's own axis plus signed zeros and subnormal coordinates
    axis = np.concatenate([grid.axis, [-0.0, 5e-324, -5e-324]])
    table = poly.eval_grid(*(axis,) * grid.n)
    pointwise = np.array([poly.eval([axis[k] for k in index])
                          for index in np.ndindex(table.shape)]).reshape(table.shape)
    assert np.array_equal(table.view(np.uint64), pointwise.view(np.uint64))


def test_polynomials_past_the_dense_budget_are_refused():
    from frechet_flow.symbols import _EXPANSION_TERM_BUDGET

    assert PolynomialSymbol(1, {(_EXPANSION_TERM_BUDGET - 1,): 1}).dense.size == 20000
    for symbol in (lambda: PolynomialSymbol(1, {(_EXPANSION_TERM_BUDGET,): 1}),
                   lambda: PolynomialSymbol(2, {(200, 99): 1}),  # 201 * 100 entries
                   lambda: to_polynomial(parse_symbol("xi^1000000000")),
                   lambda: to_polynomial(parse_symbol("(xi1*xi2)^150", 2)),
                   lambda: diffop_to_symbol({(10**9,): 1.0}, convention="partial")):
        with pytest.raises(SymbolError, match="above the budget of 20000"):
            symbol()


def test_eval_dimension_mismatch():
    with pytest.raises(SymbolError):
        heat_symbol().eval([1.0, 2.0])


def test_expansion_agrees_with_tree_on_random_points(rng):
    texts = [
        "-(1+4*pi^2*xi^2)",
        "2*pi*i*xi",
        "(xi+1)*(xi-1)*(xi+i)",
        "(1+xi)^4/16 - xi^2",
        "3",
    ]
    for text in texts:
        expr = parse_symbol(text)
        poly = to_polynomial(expr)
        for _ in range(100):
            xi = rng.uniform(-10, 10)
            tree = evaluate(expr, [xi])
            dense = poly.eval([xi])
            assert abs(tree - dense) <= 1e-10 * (1.0 + abs(tree))


def test_pi_and_i_parse_to_numbers():
    from frechet_flow.symbols import BinOp, Num

    assert parse_symbol("pi").root == Num(complex(PI))
    assert parse_symbol("i").root == Num(1j)
    assert parse_symbol("pi*i").root == BinOp("*", Num(complex(PI)), Num(1j))


def test_to_polynomial_takes_a_tree_or_a_polynomial_not_text():
    heat = heat_symbol()
    assert to_polynomial(heat) is heat
    for text in ("xi", "xi1+xi2"):
        with pytest.raises(TypeError, match="not an expression tree or a polynomial"):
            to_polynomial(text)
    assert to_polynomial(parse_symbol("xi1+xi2", 2)).coeffs == {(1, 0): 1.0, (0, 1): 1.0}


def test_to_polynomial_rejects_non_polynomial_trees():
    from frechet_flow.symbols import BinOp, Num, SymbolExpr, Var

    bad = SymbolExpr(root=BinOp("/", Num(1.0 + 0j), Var(0)), n=1)
    with pytest.raises(SymbolError):
        to_polynomial(bad)


def test_diffop_partial_convention_order_one():
    poly = diffop_to_symbol({(1,): 1.0}, convention="partial")
    assert poly.coefficient((1,)) == 2j * PI


def test_diffop_partial_convention_order_four():
    poly = diffop_to_symbol({(4,): -1.0}, convention="partial")
    assert poly.coefficient((4,)) == pytest.approx(-16 * PI**4, rel=1e-15)


def test_diffop_d_convention_is_identity():
    poly = diffop_to_symbol({(2,): 5.0}, convention="d")
    assert poly.coefficient((2,)) == 5.0


def test_diffop_partial_matches_repeated_multiplication_exactly():
    # independent oracle: multiply the factor out one order at a time
    for order in range(7):
        factor = 1 + 0j
        for _ in range(order):
            factor = factor * (2j * PI)
        poly = diffop_to_symbol({(order,): 1.0}, convention="partial")
        assert poly.coefficient((order,)) == factor


def test_parse_diffop_coefficient_lists():
    coeffs = parse_diffop_coefficients("1:0,1;0:2")
    assert coeffs == {(1,): 1j, (0,): 2.0 + 0j}
    with pytest.raises(SymbolError):
        parse_diffop_coefficients("x:1")
    with pytest.raises(SymbolError):
        parse_diffop_coefficients("")


def test_audit_order_heat_symbol_passes_at_its_order():
    report = audit_order(heat_symbol(), 2)
    assert report.passed
    assert report.entries[0].alpha == (0,)
    assert report.entries[0].constant <= 4 * PI**2 + 1


def test_audit_order_heat_symbol_fails_below_its_order():
    report = audit_order(heat_symbol(), 1)
    assert not report.passed


def test_audit_order_constant_symbol():
    poly = PolynomialSymbol(1, {(0,): 3 + 4j})
    report = audit_order(poly, 0)
    assert report.passed
    assert report.entries[0].alpha == (0,)
    assert report.entries[0].constant == pytest.approx(5.0, rel=1e-12)


def test_derivative_of_polynomial_symbol():
    poly = heat_symbol()
    d2 = poly.derivative((2,))
    assert d2.coeffs == {(0,): pytest.approx(-8 * PI**2)}
    assert poly.derivative((3,)).coeffs == {}
