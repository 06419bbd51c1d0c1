"""Symbols of constant-coefficient operators: parsing, expansion, audits.

The input mini-language covers complex polynomial symbols ``a(xi)``:
literals, ``pi``, ``i``, variables ``xi`` (1-D) or ``xi1``, ``xi2`` (2-D),
the operators ``+ - * / ^`` and parentheses.  ``^`` binds tightest and its
exponent must be a constant integer; division is only allowed by constant
subexpressions.  Text takes one path to a symbol: `parse_symbol(text, n)`
reads it at dimension n into a `SymbolExpr` (``pi`` and ``i`` become
numbers), and `to_polynomial` expands that tree into the `PolynomialSymbol`
every operator is built from.  The tree keeps only what is read: `evaluate`
reads it as the reference for the expansion.  The Fourier convention is
``e^{-2 pi i x xi}``: a classical derivative d/dx therefore carries the
symbol ``2*pi*i*xi``, and coefficient lists written against plain partial
derivatives are converted by the factor ``(2 pi i)^{|alpha|}`` per order
(`diffop_to_symbol`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

TWO_PI_I = 2j * math.pi


class SymbolSyntaxError(ValueError):
    """Parse failure; carries the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class SymbolError(ValueError):
    """Semantically invalid symbol (non-polynomial, bad division, ...)."""


# ---------------------------------------------------------------------------
# Expression trees


@dataclass(frozen=True)
class Num:
    value: complex


@dataclass(frozen=True)
class Var:
    axis: int  # 0-based


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * /
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


Node = Union[Num, Var, Neg, BinOp, Pow]


@dataclass(frozen=True)
class SymbolExpr:
    """Parsed expression tree together with its dimension."""

    root: Node
    n: int


# ---------------------------------------------------------------------------
# Lexer / parser (recursive descent, standard precedence)

_OPS = set("+-*/^()")


def _tokenize(text: str):
    tokens = []
    pos = 0
    size = len(text)
    while pos < size:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _OPS:
            tokens.append(("op", ch, pos))
            pos += 1
            continue
        if ch.isdigit() or ch == ".":
            start = pos
            while pos < size and (text[pos].isdigit() or text[pos] == "."):
                pos += 1
            if pos < size and text[pos] in "eE":
                mark = pos
                pos += 1
                if pos < size and text[pos] in "+-":
                    pos += 1
                if pos < size and text[pos].isdigit():
                    while pos < size and text[pos].isdigit():
                        pos += 1
                else:
                    pos = mark  # bare 'e' is not part of the number
            lexeme = text[start:pos]
            try:
                value = float(lexeme)
            except ValueError:
                raise SymbolSyntaxError(f"malformed number {lexeme!r}", start)
            tokens.append(("num", value, start))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < size and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            tokens.append(("ident", text[start:pos], start))
            continue
        raise SymbolSyntaxError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", size))
    return tokens


class _Parser:
    def __init__(self, tokens, n: int):
        self.tokens = tokens
        self.pos = 0
        self.n = n

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise SymbolSyntaxError(f"expected {op!r}", offset)
        self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise SymbolSyntaxError(f"unexpected trailing input {value!r}", offset)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = BinOp(value, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.unary()
                if value == "/" and _contains_variable(rhs):
                    raise SymbolSyntaxError(
                        "division by a non-constant expression", offset
                    )
                node = BinOp(value, node, rhs)
            else:
                return node

    def unary(self) -> Node:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, value, offset = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            exp_node = self.unary()  # right-associative via recursion in unary
            if _contains_variable(exp_node):
                raise SymbolSyntaxError("exponent must be a constant", offset)
            try:
                exponent = _eval_node(exp_node, ())
            except SymbolError:
                raise SymbolSyntaxError("division by zero in constant", offset)
            except (ZeroDivisionError, OverflowError) as error:  # 0^-1, 10^400
                raise SymbolSyntaxError(f"exponent out of range: {error}", offset)
            if exponent.imag != 0 or exponent.real != int(exponent.real):
                raise SymbolSyntaxError("non-integer exponent", offset)
            return Pow(base, int(exponent.real))
        return base

    def atom(self) -> Node:
        kind, value, offset = self.advance()
        if kind == "num":
            return Num(complex(value))
        if kind == "ident":
            if value == "pi":
                return Num(complex(math.pi))
            if value == "i":
                return Num(1j)
            axis = self._variable_axis(value)
            if axis is not None:
                return Var(axis)
            raise SymbolSyntaxError(f"unknown identifier {value!r}", offset)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise SymbolSyntaxError(f"unexpected token {value!r}", offset)

    def _variable_axis(self, name: str):
        if self.n == 1:
            return 0 if name == "xi" else None
        if name.startswith("xi") and name[2:].isdigit():
            axis = int(name[2:]) - 1
            if 0 <= axis < self.n:
                return axis
        return None


def _contains_variable(node: Node) -> bool:
    if isinstance(node, Var):
        return True
    if isinstance(node, Neg):
        return _contains_variable(node.arg)
    if isinstance(node, Pow):
        return _contains_variable(node.base)
    if isinstance(node, BinOp):
        return _contains_variable(node.left) or _contains_variable(node.right)
    return False


def parse_symbol(text: str, n: int = 1) -> SymbolExpr:
    """Parse the mini-language into an expression tree.

    Raises :class:`SymbolSyntaxError` with a byte offset on malformed
    input, unknown identifiers and non-integer exponents.
    """
    if n not in (1, 2):
        raise SymbolError(f"dimension must be 1 or 2, got {n}")
    if not text or not text.strip():
        raise SymbolSyntaxError("empty symbol text", 0)
    root = _Parser(_tokenize(text), n).parse()
    return SymbolExpr(root=root, n=n)


# ---------------------------------------------------------------------------
# Polynomial form


# Most terms an expansion may hold, and most entries of a dense coefficient array.
_EXPANSION_TERM_BUDGET = 20000


def horner(coefficients: np.ndarray, coords) -> np.ndarray:
    """``sum_alpha coefficients[alpha] x^alpha`` at broadcastable coordinates.

    Horner's rule in the last coordinate over rows that are themselves
    Horner polynomials in the others; for two coordinates, Horner in
    ``xi2`` over Horner-in-``xi1`` rows.  Only products and sums are
    formed, so the result is bitwise even in a coordinate that enters
    through even powers only, and per axis the rounding error is that of
    Horner's rule, the ``gamma_2d`` bound for degree d (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2002, section 5.1).  Real
    coefficients at real coordinates stay in real arithmetic.
    """
    *inner, last = coords
    acc = coefficients.dtype.type(0)
    for row in np.moveaxis(coefficients, -1, 0)[::-1]:
        acc = acc * last + (horner(row, inner) if inner else row)
    return acc


def _real_critical_points(coefficients: np.ndarray) -> np.ndarray:
    """Real critical points of a 1-D polynomial: of p for real coefficients, of |p|^2 for complex.

    The coefficients are first scaled by the exact power of two that brings
    the largest part below 1, so neither the derivative nor the square
    overflows; the critical points stay where they are.  A root whose
    imaginary part is below 1e-9 counts as real.
    """
    P = np.polynomial.polynomial
    top = max(np.max(np.abs(coefficients.real)), np.max(np.abs(coefficients.imag)))
    exponent = math.frexp(top)[1]
    re, im = np.ldexp(coefficients.real, -exponent), np.ldexp(coefficients.imag, -exponent)
    if np.iscomplexobj(coefficients):
        re = P.polyadd(P.polymul(re, re), P.polymul(im, im))
    roots = P.polyroots(P.polyder(re))
    return roots.real[np.abs(roots.imag) < 1e-9]


def _check_degrees(degrees) -> tuple:
    """The dense coefficient shape for these per-axis degrees, within the budget."""
    shape = tuple(d + 1 for d in degrees)
    if math.prod(shape) > _EXPANSION_TERM_BUDGET:
        raise SymbolError(
            f"degrees {tuple(degrees)} need {math.prod(shape)} dense "
            f"coefficients, above the budget of {_EXPANSION_TERM_BUDGET}"
        )
    return shape


def _degrees(alphas, n: int) -> list:
    return [max((alpha[k] for alpha in alphas), default=0) for k in range(n)]


@dataclass(frozen=True)
class PolynomialSymbol:
    """Coefficient map ``alpha -> a_alpha`` over multi-indices of length n.

    ``dense`` holds the same coefficients as a read-only complex array
    indexed by ``alpha``; a symbol whose array would exceed
    ``_EXPANSION_TERM_BUDGET`` entries, or with a coefficient that is not
    finite, is refused.
    """

    n: int
    coeffs: dict
    dense: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cleaned = {}
        for alpha, c in self.coeffs.items():
            alpha = tuple(int(a) for a in (alpha if isinstance(alpha, tuple) else (alpha,)))
            if len(alpha) != self.n or any(a < 0 for a in alpha):
                raise SymbolError(f"bad multi-index {alpha} for dimension {self.n}")
            c = complex(c)
            if c != 0:
                cleaned[alpha] = cleaned.get(alpha, 0) + c
        coeffs = {a: c for a, c in cleaned.items() if c != 0}
        for alpha, c in coeffs.items():
            if not cmath.isfinite(c):
                raise SymbolError(f"the coefficient of multi-index {alpha} is not finite: {c}")
        dense = np.zeros(_check_degrees(_degrees(coeffs, self.n)), dtype=np.complex128)
        for alpha, c in coeffs.items():
            dense[alpha] = c
        dense.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "dense", dense)

    @property
    def order(self) -> int:
        """Largest |alpha| with nonzero coefficient (0 for the zero symbol)."""
        if not self.coeffs:
            return 0
        return max(sum(alpha) for alpha in self.coeffs)

    def coefficient(self, alpha) -> complex:
        alpha = tuple(alpha) if isinstance(alpha, tuple) else (alpha,)
        return self.coeffs.get(alpha, 0j)

    def derivative(self, alpha) -> "PolynomialSymbol":
        alpha = tuple(alpha) if isinstance(alpha, tuple) else (alpha,)
        out = {}
        for beta, c in self.coeffs.items():
            factor = 1.0
            shifted = []
            for b, a in zip(beta, alpha):
                if b < a:
                    factor = 0.0
                    break
                for step in range(a):
                    factor *= b - step
                shifted.append(b - a)
            if factor:
                out[tuple(shifted)] = c * factor
        return PolynomialSymbol(self.n, out)

    def eval(self, point):
        """``a`` at a point by `horner`; its coordinates may be broadcastable arrays.

        A point of scalars gives a complex, array coordinates a complex array.
        """
        coords = [np.asarray(x) for x in ((point,) if np.isscalar(point) else point)]
        if len(coords) != self.n:
            raise SymbolError(f"point dimension {len(coords)} != {self.n}")
        value = horner(self.dense, coords)
        return complex(value) if np.ndim(value) == 0 else value

    def eval_grid(self, *axes) -> np.ndarray:
        """`eval` on the product grid of the coordinate arrays ``axes``."""
        if len(axes) != self.n:
            raise SymbolError(f"expected {self.n} coordinate arrays")
        return self.eval([np.asarray(axis).reshape((-1,) + (1,) * (self.n - 1 - k))
                          for k, axis in enumerate(axes)])


def evaluate(symbol, point) -> complex:
    """Evaluate a polynomial symbol or an expression tree at a point."""
    if isinstance(symbol, PolynomialSymbol):
        return symbol.eval(point)
    if isinstance(symbol, SymbolExpr):
        point = np.atleast_1d(np.asarray(point, dtype=complex))
        if point.size != symbol.n:
            raise SymbolError(f"point dimension {point.size} != {symbol.n}")
        return _eval_node(symbol.root, point)
    raise TypeError(f"not a symbol: {symbol!r}")


def _eval_node(node: Node, point) -> complex:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return complex(point[node.axis])
    if isinstance(node, Neg):
        return -_eval_node(node.arg, point)
    if isinstance(node, Pow):
        return _eval_node(node.base, point) ** node.exponent
    left = _eval_node(node.left, point)
    right = _eval_node(node.right, point)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if right == 0:
        raise SymbolError("division by zero")
    return left / right


def to_polynomial(symbol) -> PolynomialSymbol:
    """Expand an expression tree into its coefficient map; a polynomial is returned as is.

    Text is refused with `TypeError`: it goes through `parse_symbol`,
    which fixes its dimension.  Division is only accepted when the
    expanded divisor is a nonzero constant; negative powers of variables
    are rejected.
    """
    if isinstance(symbol, PolynomialSymbol):
        return symbol
    if not isinstance(symbol, SymbolExpr):
        raise TypeError(f"not an expression tree or a polynomial symbol: {symbol!r}")
    coeffs = _expand(symbol.root, symbol.n)
    return PolynomialSymbol(symbol.n, coeffs)


def _expand(node: Node, n: int) -> dict:
    zero_index = (0,) * n
    if isinstance(node, Num):
        return {zero_index: node.value} if node.value != 0 else {}
    if isinstance(node, Var):
        alpha = tuple(1 if k == node.axis else 0 for k in range(n))
        return {alpha: 1.0 + 0j}
    if isinstance(node, Neg):
        return {a: -c for a, c in _expand(node.arg, n).items()}
    if isinstance(node, Pow):
        base = _expand(node.base, n)
        if not set(base) - {zero_index}:  # a constant, zero included
            power = _constant_power(base.get(zero_index, 0j), node.exponent)
            return {zero_index: power} if power != 0 else {}
        if node.exponent < 0:
            raise SymbolError("negative exponent of a non-constant expression")
        out = {zero_index: 1.0 + 0j}
        _check_degrees([node.exponent * d for d in _degrees(base, n)])
        for _ in range(node.exponent):
            out = _poly_mul(out, base)
        return out
    left = _expand(node.left, n)
    right = _expand(node.right, n)
    if node.op == "+":
        return _poly_add(left, right, 1)
    if node.op == "-":
        return _poly_add(left, right, -1)
    if node.op == "*":
        return _poly_mul(left, right)
    if set(right) - {zero_index}:
        raise SymbolError("division by a non-constant expression")
    value = right.get(zero_index, 0j)
    if value == 0:
        raise SymbolError("division by zero")
    return {a: c / value for a, c in left.items()}


def _constant_power(value: complex, exponent: int) -> complex:
    """``value ** exponent`` for a constant; `SymbolError` if it is not finite.

    A non-negative exponent goes by repeated squaring, so a power costs at
    most about 2 log2(exponent) products and stays exact where its factors
    are (``i``, ``-1``, powers of two).  Each product onto the power is
    added to ``0j`` as `_poly_mul` adds it, so signed zeros come out as
    they do there, and a square or cube has the bits of its stepwise
    product.  A negative exponent takes Python's complex power.
    """
    if exponent < 0:
        if value == 0:
            raise SymbolError("zero raised to a negative exponent")
        try:
            power = value**exponent
        except OverflowError:
            power = complex(math.inf)
    else:
        power, square = 1.0 + 0j, value
        while exponent:
            if exponent & 1:
                power = 0j + power * square
            exponent >>= 1
            if exponent:
                square *= square
    if not cmath.isfinite(power):
        raise SymbolError("a constant power overflows")
    return power


def _poly_add(a: dict, b: dict, sign: int) -> dict:
    out = dict(a)
    for alpha, c in b.items():
        out[alpha] = out.get(alpha, 0j) + sign * c
    return {alpha: c for alpha, c in out.items() if c != 0}


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for alpha, ca in a.items():
        for beta, cb in b.items():
            gamma = tuple(x + y for x, y in zip(alpha, beta))
            out[gamma] = out.get(gamma, 0j) + ca * cb
    if len(out) > _EXPANSION_TERM_BUDGET:
        raise SymbolError("expansion exceeds the term budget")
    return {alpha: c for alpha, c in out.items() if c != 0}


# ---------------------------------------------------------------------------
# Differential-operator coefficient lists


def diffop_to_symbol(coeffs: dict, convention: str = "d", n: int = 1) -> PolynomialSymbol:
    """Symbol of a constant-coefficient differential operator.

    ``convention="d"`` reads the coefficients against the scaled derivative
    D = (2 pi i)^-1 d/dx, whose symbol of order alpha is xi^alpha, so the
    map is the identity.  ``convention="partial"`` reads them against plain
    partial derivatives and multiplies each coefficient by
    ``(2 pi i)^{|alpha|}``.
    """
    if convention not in ("d", "partial"):
        raise SymbolError(f"convention must be 'd' or 'partial', got {convention!r}")
    coeffs = {(alpha if isinstance(alpha, tuple) else (alpha,)): c
              for alpha, c in coeffs.items()}
    for alpha in coeffs:
        if len(alpha) != n:
            raise SymbolError(f"multi-index {alpha} does not match dimension {n}")
    _check_degrees(_degrees(coeffs, n))
    out = {}
    for alpha, c in coeffs.items():
        factor = 1.0 + 0j
        if convention == "partial":
            # one multiplication per derivative order, so the factor is the
            # literal product of |alpha| copies of 2 pi i
            for _ in range(sum(alpha)):
                factor = factor * TWO_PI_I
        out[alpha] = complex(c) * factor
    return PolynomialSymbol(n, out)


def parse_diffop_coefficients(text: str) -> dict:
    """Parse a 1-D CLI coefficient list ``alpha:re,im;alpha:re,im;...``."""
    out = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            alpha_text, value_text = chunk.split(":")
            parts = value_text.split(",")
            re = float(parts[0])
            im = float(parts[1]) if len(parts) > 1 else 0.0
            alpha = int(alpha_text)
        except (ValueError, IndexError):
            raise SymbolError(f"malformed coefficient entry {chunk!r}")
        if alpha < 0:
            raise SymbolError(f"negative derivative order {alpha}")
        out[(alpha,)] = complex(re, im)
    if not out:
        raise SymbolError("empty coefficient list")
    return out


# ---------------------------------------------------------------------------
# Symbol-class order audit


@dataclass(frozen=True)
class OrderAuditEntry:
    alpha: tuple
    constant: float
    stable: bool


@dataclass(frozen=True)
class SymbolOrderReport:
    """Sampled audit of the estimates |d^alpha a| <= c_alpha (1+|xi|)^(m-|alpha|).

    This is a heuristic check, not a proof: each constant is the supremum of
    the ratio over the sample set, and `stable` records whether doubling the
    sample radius left it essentially unchanged.
    """

    order: int
    entries: tuple

    @property
    def passed(self) -> bool:
        return all(entry.stable for entry in self.entries)


def default_audit_points(n: int) -> np.ndarray:
    """The order audit's sample set: 40 radii from 1e-2 to 64 (on 16 angles in 2-D) and 0."""
    radii = np.geomspace(1e-2, 64.0, 40)
    if n == 1:
        pts = np.concatenate([[0.0], radii, -radii])
        return pts[:, None]
    angles = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
    ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    pts = (radii[:, None, None] * ring[None, :, :]).reshape(-1, 2)
    return np.concatenate([np.zeros((1, 2)), pts], axis=0)


def _ratio_sup(poly: PolynomialSymbol, alpha, m: int, points: np.ndarray) -> float:
    values = poly.derivative(alpha).eval(points.T)
    weights = (1.0 + np.linalg.norm(points, axis=1)) ** (m - sum(alpha))
    return float(np.fmax.reduce(np.abs(values) / weights, initial=0.0))


def _multi_indices(n: int, up_to: int):
    if n == 1:
        for a in range(up_to + 1):
            yield (a,)
    else:
        for a1 in range(up_to + 1):
            for a2 in range(up_to + 1 - a1):
                yield (a1, a2)


def audit_order(poly: PolynomialSymbol, m: int) -> SymbolOrderReport:
    """Sample the order-m symbol estimates and test radius stability.

    The sample set is `default_audit_points`.  Passes when every ratio
    supremum over it grows by at most a quarter under doubling of the
    sample radius; a claimed order below the true polynomial degree makes
    some ratio grow linearly and fail.
    """
    points = default_audit_points(poly.n)
    doubled = 2.0 * points
    entries = []
    for alpha in _multi_indices(poly.n, poly.order):
        sup = _ratio_sup(poly, alpha, m, points)
        sup2 = _ratio_sup(poly, alpha, m, doubled)
        stable = sup2 <= sup * 1.25 + 1e-12
        entries.append(OrderAuditEntry(alpha=alpha, constant=max(sup, sup2), stable=stable))
    return SymbolOrderReport(order=m, entries=tuple(entries))


# Convenient fixed symbols used across the package and its tests.
HEAT_SYMBOL_TEXT = "-(1+4*pi^2*xi^2)"
TRANSPORT_SYMBOL_TEXT = "2*pi*i*xi"


def heat_symbol() -> PolynomialSymbol:
    """Symbol of -(1 - Laplacian) in one dimension."""
    return to_polynomial(parse_symbol(HEAT_SYMBOL_TEXT))


def transport_symbol() -> PolynomialSymbol:
    """Symbol of d/dx in one dimension (purely imaginary)."""
    return to_polynomial(parse_symbol(TRANSPORT_SYMBOL_TEXT))
