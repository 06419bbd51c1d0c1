import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frechet_flow.spectral import FrequencyGrid
from frechet_flow.symbols import (
    PolynomialSymbol,
    SymbolError,
    SymbolSyntaxError,
    _constant_power,
    _poly_add,
    _poly_mul,
    diffop_to_symbol,
    heat_symbol,
    horner,
    in_symbol_class,
    parse_diffop_coefficients,
    parse_symbol,
)

PI = math.pi


def test_parse_heat_symbol_structure():
    poly = parse_symbol("-(1+4*pi^2*xi^2)")
    assert poly.order == 2
    assert poly.coefficient((0,)) == -1.0
    assert poly.coefficient((2,)) == pytest.approx(-4 * PI**2, rel=1e-15)
    assert poly.coefficient((1,)) == 0


def test_parse_transport_symbol():
    poly = parse_symbol("2*pi*i*xi")
    assert poly.order == 1
    assert poly.coefficient((1,)) == pytest.approx(2j * PI, rel=1e-15)


def test_parse_constant():
    poly = parse_symbol("3")
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
    ("xi^(0^-1)", "exponent out of range: 0.0 to a negative or complex power"),
    ("xi^(10^400)", "exponent out of range: complex exponentiation"),
    # (1e-200)^2 underflows to 0, so its inverse has no finite value
    ("xi^((1e-200)^-2)", "exponent out of range: 0.0 to a negative or complex power"),
    # 1e308*10 overflows to inf, and inf - inf is nan
    ("xi^(1e308*10)", "exponent out of range: not finite"),
    ("xi^(1e308*10-1e308*10)", "exponent out of range: not finite"),
])
def test_parse_rejects_bad_exponents_at_the_caret(text, message):
    with pytest.raises(SymbolSyntaxError) as err:
        parse_symbol(text)
    assert message in str(err.value)
    assert err.value.offset == (6 if message == "unknown identifier" else 2)


def test_with_several_faults_the_first_one_read_is_named():
    with pytest.raises(SymbolError, match="a constant power overflows"):
        parse_symbol("2^10000*xi+")
    with pytest.raises(SymbolSyntaxError, match="exponent must be a constant") as err:
        parse_symbol("xi^(xi^-1)")
    assert err.value.offset == 2


def nested(depth):
    return "(" * depth + "xi" + ")" * depth


@pytest.mark.parametrize("text, offset", [
    (nested(101), 100),
    (nested(199), 100),
    ("-" * 3000 + "xi", 100),
    ("2^" * 101 + "2", 201),
    ("(-" * 50 + "(xi" + ")" * 51, 100),
], ids=["101-parentheses", "199-parentheses", "3000-minus-signs", "101-exponents",
        "parentheses-and-minus-signs"])
def test_parse_refuses_nesting_past_the_limit_at_the_offending_token(text, offset):
    with pytest.raises(SymbolSyntaxError, match="nesting deeper than 100 levels") as err:
        parse_symbol(text)
    assert err.value.offset == offset


def test_parse_accepts_nesting_up_to_the_limit():
    assert parse_symbol(nested(100)).coeffs == {(1,): 1.0}
    assert parse_symbol("-" * 100 + "xi").coeffs == {(1,): 1.0}


def test_long_chains_take_no_stack_frame_per_term():
    chain = "+".join(["xi"] * 1201)
    poly = parse_symbol(chain)
    assert poly.coeffs == {(1,): 1201.0}
    assert repr(poly) == "PolynomialSymbol(n=1, coeffs={(1,): (1201+0j)})"
    assert poly == parse_symbol(chain) and hash(poly) == hash(parse_symbol(chain))
    assert parse_symbol("*".join(["xi"] * 1500) + "/2" * 1000).coeffs == {
        (1500,): 2.0**-1000}
    assert parse_symbol("xi^(" + "+".join(["1"] * 3000) + ")").order == 3000
    assert parse_symbol("xi/(" + "-".join(["1"] * 3000) + ")").coeffs == {
        (1,): -1.0 / 2998}


def test_parse_folds_constant_exponents():
    assert parse_symbol("xi^(2^2-1/2*2)").coeffs == {(3,): 1.0}
    assert parse_symbol("xi^-(-2)").coeffs == {(2,): 1.0}
    # an exponent's constant powers are squared out exactly, past 100 too
    assert parse_symbol("xi^((-1)^102)").coeffs == {(1,): 1.0}
    assert parse_symbol("xi^(i^104)").coeffs == {(1,): 1.0}


def expand_stepwise(text):
    """The coefficients of a constant power as `_poly_mul` forms them, one product at a time."""
    base, exponent = text.rsplit("^", 1)
    power = {(0,): 1.0 + 0j}
    factor = parse_symbol(base).coeffs
    for _ in range(int(exponent)):
        power = {(0,): 0j + power[(0,)] * factor.get((0,), 0j)}
        if power[(0,)] == 0:
            return {}
    return power


@pytest.mark.parametrize("text", ["pi^2", "(1+2*i)^3", "(-0.0*i+1)^2", "0^3", "pi^0"])
def test_constant_squares_and_cubes_keep_the_product_bits(text):
    coeffs = parse_symbol(text).coeffs
    expected = expand_stepwise(text)
    assert list(coeffs) == list(expected)
    for alpha, c in coeffs.items():
        assert np.array([c]).view(np.uint64).tolist() == \
            np.array([expected[alpha]]).view(np.uint64).tolist()


def test_large_constant_powers_take_log2_products():
    assert parse_symbol("(xi-xi)^100000000").coeffs == {}
    assert parse_symbol("0^100000000*xi").coeffs == {}
    assert parse_symbol("i^100000001*xi").coeffs == {(1,): 1j}
    assert parse_symbol("(-1)^100000001*xi").coeffs == {(1,): -1.0}
    assert parse_symbol("2^1000*xi").coeffs == {(1,): complex(2.0**1000)}
    assert parse_symbol("0.5^100000000*xi").coeffs == {}
    assert parse_symbol("(1/2)^-1000").coeffs == {(0,): complex(2.0**1000)}
    for text in ("2^100000000", "2^1024", "(1/2)^-2000*xi", "(1+i)^2100", "(1e-200)^-2"):
        with pytest.raises(SymbolError, match="a constant power overflows"):
            parse_symbol(text)
    with pytest.raises(SymbolError, match="zero raised to a negative exponent"):
        parse_symbol("(xi-xi)^-3")


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
    assert parse_symbol("xi1^2+xi2^2", n=2).eval([3.0, 4.0]) == 25.0
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("xi3", n=2)
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("xi1", n=1)


def test_unary_minus_and_precedence():
    assert parse_symbol("-xi^2").coeffs == {(2,): -1.0}
    assert parse_symbol("2+3*4").coeffs == {(0,): 14.0}
    assert parse_symbol("2*xi^3").coeffs == {(3,): 2.0}
    assert parse_symbol("2^3^2").coeffs == {(0,): 512.0}


def test_eval_heat_symbol_values():
    poly = heat_symbol()
    assert poly.eval([0.0]) == -1.0
    assert poly.eval([1.0 / (2 * PI)]) == pytest.approx(-2.0, rel=1e-14)
    assert PolynomialSymbol(1, {}).eval([7.0]) == 0


def test_eval_takes_scalar_or_array_coordinates():
    poly = parse_symbol("xi1^2*xi2 - i*xi2^3", 2)
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
                   lambda: parse_symbol("xi^1000000000"),
                   lambda: parse_symbol("(xi1*xi2)^150", 2),
                   lambda: diffop_to_symbol({(10**9,): 1.0}, convention="partial")):
        with pytest.raises(SymbolError, match="above the budget of 20000"):
            symbol()


def test_eval_dimension_mismatch():
    with pytest.raises(SymbolError):
        heat_symbol().eval([1.0, 2.0])


class Coefficients(dict):
    """A coefficient map whose operators fold as the parser does, so that
    Python's own parser can read symbol text (``^`` as ``**``) into a reference
    for `parse_symbol`; ``zero`` is the multi-index of the constant term."""

    def __init__(self, coeffs, zero):
        super().__init__(coeffs)
        self.zero = zero

    def constant(self, what):
        if set(self) - {self.zero}:
            raise SymbolError(f"a non-constant {what}")
        return self.get(self.zero, 0j)

    def __add__(self, other):
        return Coefficients(_poly_add(self, other, 1), self.zero)

    def __sub__(self, other):
        return Coefficients(_poly_add(self, other, -1), self.zero)

    def __mul__(self, other):
        return Coefficients(_poly_mul(self, other), self.zero)

    def __truediv__(self, other):
        divisor = other.constant("divisor")
        if divisor == 0:
            raise SymbolError("division by zero")
        return Coefficients({alpha: c / divisor for alpha, c in self.items()}, self.zero)

    def __neg__(self):
        return Coefficients({alpha: -c for alpha, c in self.items()}, self.zero)

    def __pow__(self, other):
        exponent = other.constant("exponent")
        if exponent.imag != 0 or exponent.real % 1 != 0:  # nan and inf included
            raise SymbolError("not an integer exponent")
        exponent = int(exponent.real)
        if not set(self) - {self.zero}:
            power = _constant_power(self.get(self.zero, 0j), exponent)
            return Coefficients({self.zero: power} if power != 0 else {}, self.zero)
        if exponent < 0:
            raise SymbolError("a negative power of a non-constant expression")
        out = Coefficients({self.zero: 1.0 + 0j}, self.zero)
        for _ in range(exponent):
            out = out * self
        return out


TOKEN = re.compile(r"(?P<name>[a-z]\w*)|(?P<number>(\d+\.?\d*|\.\d+)(e[+-]?\d+)?)")


def read_by_python(text, n):
    """The `PolynomialSymbol` of ``text`` read by Python's parser; ValueError if refused."""
    zero = (0,) * n
    axes = {"xi": 0} if n == 1 else {"xi1": 0, "xi2": 1}
    leaves = []

    def leaf(match):
        name = match.group("name")
        if name in axes:
            coeffs = {tuple(int(k == axes[name]) for k in range(n)): 1.0 + 0j}
        else:
            value = {"pi": complex(math.pi), "i": 1j}.get(name)
            value = complex(float(match.group("number"))) if value is None else value
            coeffs = {zero: value} if value != 0 else {}
        leaves.append(Coefficients(coeffs, zero))
        return f"leaves[{len(leaves) - 1}]"

    python_text = TOKEN.sub(leaf, text).replace("^", "**")
    return PolynomialSymbol(n, eval(python_text, {"leaves": leaves}))


NUMBERS = ["0", "1", "2", "3", "7", "10", "0.5", "1.5", "0.1", "2.5e-3", "1e2", "1e200"]
# constant exponents: integers, folded integers, and some that are refused
EXPONENTS = st.sampled_from(["0", "1", "2", "3", "-1", "-(2)", "-(-2)", "2^0", "(1+1)",
                             "(2^2-1)", "(6/3)", "(0.5*4)", "(i^2)", "(1/2)", "(1/0)"])


@st.composite
def grammar_texts(draw, names, depth=4):
    """Symbol text over numbers, ``names``, ``+ - * /``, ``^`` with constant
    exponents, unary minus and parentheses; divisors are constant texts."""
    form = draw(st.sampled_from(["binary", "leaf", "binary", "quotient", "minus",
                                 "parentheses", "power"])) if depth else "leaf"
    if form == "leaf":
        atom = draw(st.sampled_from(names) | st.sampled_from(NUMBERS))
        return f"{atom}^{draw(EXPONENTS)}" if draw(st.booleans()) else atom
    sub = grammar_texts(names, depth - 1)
    if form == "binary":
        return draw(sub) + draw(st.sampled_from("+-*")) + draw(sub)
    if form == "quotient":
        return draw(sub) + "/" + draw(grammar_texts(["pi", "i"], depth - 1))
    if form == "minus":
        return "-" + draw(sub)
    if form == "parentheses":
        return f"({draw(sub)})"
    return f"({draw(sub)})^{draw(EXPONENTS)}"


@st.composite
def symbol_texts(draw):
    n = draw(st.sampled_from([1, 2]))
    return n, draw(grammar_texts((["xi"] if n == 1 else ["xi1", "xi2"]) + ["pi", "i"]))


def exact(poly):
    return {alpha: (c.real.hex(), c.imag.hex()) for alpha, c in poly.coeffs.items()}


@settings(max_examples=300, deadline=None)
@given(case=symbol_texts())
def test_parse_matches_python_reading_the_text_bit_for_bit(case):
    n, text = case
    try:
        expected = read_by_python(text, n)
    except ValueError:
        with pytest.raises(ValueError):
            parse_symbol(text, n)
        return
    assert exact(parse_symbol(text, n)) == exact(expected)


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


@pytest.mark.parametrize("text, message", [
    ("0:1;0:2", "coefficient entry '0:2' repeats derivative order 0"),
    ("2:-1;2:-3;0:5", "coefficient entry '2:-3' repeats derivative order 2"),
    ("1:1; 01:2", "coefficient entry '01:2' repeats derivative order 1"),
    ("2:1,0,7", "malformed coefficient entry '2:1,0,7'"),
    ("0:1;2:1,0,", "malformed coefficient entry '2:1,0,'"),
])
def test_a_coefficient_list_that_would_drop_input_is_refused(text, message):
    with pytest.raises(SymbolError, match=f"^{re.escape(message)}$"):
        parse_diffop_coefficients(text)


def test_the_heat_symbol_is_in_s2_and_not_in_s1():
    assert in_symbol_class(heat_symbol(), 2)
    assert not in_symbol_class(heat_symbol(), 1)


def test_a_tiny_cubic_is_not_in_s2():
    # a sampled audit with an absolute slack passed this cubic
    cubic = parse_symbol("1e-20*xi^3")
    assert not in_symbol_class(cubic, 2)
    assert in_symbol_class(cubic, 3)


def test_symbol_classes_in_two_dimensions():
    heat = parse_symbol("-(1+4*pi^2*(xi1^2+xi2^2))", 2)
    assert in_symbol_class(heat, 2) and not in_symbol_class(heat, 1)
    # the order is the largest total degree, xi1 * xi2^2 here
    mixed = parse_symbol("xi1*xi2^2 + 5*xi1^2", 2)
    assert in_symbol_class(mixed, 3) and not in_symbol_class(mixed, 2.5)


def test_constant_and_zero_symbols():
    constant = PolynomialSymbol(1, {(0,): 3 + 4j})
    assert in_symbol_class(constant, 0) and not in_symbol_class(constant, -1)
    zero = PolynomialSymbol(2, {})
    assert in_symbol_class(zero, 0) and in_symbol_class(zero, -7)
