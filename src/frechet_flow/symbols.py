"""Symbols of constant-coefficient operators: parsing, expansion, audits.

The input mini-language covers complex polynomial symbols ``a(xi)``:
literals, ``pi``, ``i``, variables ``xi`` (1-D) or ``xi1``, ``xi2`` (2-D),
the operators ``+ - * / ^`` and parentheses.  ``^`` binds tightest and its
exponent must be a constant integer; division is only allowed by constant
subexpressions.  Text takes one path to a symbol: `parse_symbol(text, n)`
reads it at dimension n and folds each subexpression into its coefficient
map as it goes, so it returns the `PolynomialSymbol` every operator is
built from.  The Fourier convention is ``e^{-2 pi i x xi}``: a classical
derivative d/dx therefore carries the symbol ``2*pi*i*xi``, and
coefficient lists written against plain partial derivatives are converted
by the factor ``(2 pi i)^{|alpha|}`` per order (`diffop_to_symbol`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

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
# Lexer / parser (recursive descent, standard precedence)

_OPS = set("+-*/^()")

# Most parentheses, unary minus signs and ``^`` exponents open at once (up to six frames each)
_NESTING_LIMIT = 100


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


# The faults of a constant exponent's arithmetic, as the refusal at its caret names them
_EXPONENT_FAULTS = {
    "division by zero": "division by zero in constant",
    "a constant power overflows": "exponent out of range: complex exponentiation",
    "a constant power overflows: its inverse underflows to 0":
        "exponent out of range: 0.0 to a negative or complex power",
    "zero raised to a negative exponent":
        "exponent out of range: 0.0 to a negative or complex power",
}


class _Parser:
    """Folds each subexpression into its coefficient map ``alpha -> c`` as it
    reads it; ``variables`` counts the variable tokens read so far."""

    def __init__(self, tokens, n: int):
        self.tokens = tokens
        self.pos = 0
        self.n = n
        self.zero = (0,) * n
        self.depth = 0
        self.variables = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def nested(self, parse, offset: int) -> dict:
        """``parse()`` one nesting level deeper, refused past `_NESTING_LIMIT` at ``offset``."""
        if self.depth == _NESTING_LIMIT:
            raise SymbolSyntaxError(f"nesting deeper than {_NESTING_LIMIT} levels of "
                                    "parentheses, unary minus and exponents", offset)
        self.depth += 1
        out = parse()
        self.depth -= 1
        return out

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise SymbolSyntaxError(f"expected {op!r}", offset)
        self.advance()

    def parse(self) -> dict:
        out = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise SymbolSyntaxError(f"unexpected trailing input {value!r}", offset)
        return out

    def expr(self) -> dict:
        out = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                out = _poly_add(out, self.term(), 1 if value == "+" else -1)
            else:
                return out

    def term(self) -> dict:
        out = self.unary()
        while True:
            kind, value, offset = self.peek()
            if kind != "op" or value not in "*/":
                return out
            self.advance()
            seen = self.variables
            rhs = self.unary()
            if value == "*":
                out = _poly_mul(out, rhs)
                continue
            if self.variables > seen:
                raise SymbolSyntaxError("division by a non-constant expression", offset)
            divisor = rhs.get(self.zero, 0j)
            if divisor == 0:
                raise SymbolError("division by zero")
            out = {alpha: c / divisor for alpha, c in out.items()}

    def unary(self) -> dict:
        kind, value, offset = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return {alpha: -c for alpha, c in self.nested(self.unary, offset).items()}
        return self.power()

    def power(self) -> dict:
        base = self.atom()
        kind, value, offset = self.peek()
        if kind != "op" or value != "^":
            return base
        self.advance()
        seen = self.variables
        try:
            folded = self.nested(self.unary, offset)  # right-associative via unary
        except SymbolError as error:
            if self.variables > seen:
                raise SymbolSyntaxError("exponent must be a constant", offset)
            raise SymbolSyntaxError(_EXPONENT_FAULTS[str(error)], offset)
        if self.variables > seen:
            raise SymbolSyntaxError("exponent must be a constant", offset)
        exponent = folded.get(self.zero, 0j)
        if not cmath.isfinite(exponent):
            raise SymbolSyntaxError("exponent out of range: not finite", offset)
        if exponent.imag != 0 or exponent.real != int(exponent.real):
            raise SymbolSyntaxError("non-integer exponent", offset)
        exponent = int(exponent.real)
        if not set(base) - {self.zero}:  # a constant, zero included
            power = _constant_power(base.get(self.zero, 0j), exponent)
            return {self.zero: power} if power != 0 else {}
        if exponent < 0:
            raise SymbolError("negative exponent of a non-constant expression")
        _check_degrees([exponent * d for d in _degrees(base, self.n)])
        out = {self.zero: 1.0 + 0j}
        for _ in range(exponent):
            out = _poly_mul(out, base)
        return out

    def atom(self) -> dict:
        kind, value, offset = self.advance()
        if kind == "num":
            return {self.zero: complex(value)} if value != 0 else {}
        if kind == "ident":
            if value == "pi":
                return {self.zero: complex(math.pi)}
            if value == "i":
                return {self.zero: 1j}
            axis = self._variable_axis(value)
            if axis is not None:
                self.variables += 1
                return {tuple(1 if k == axis else 0 for k in range(self.n)): 1.0 + 0j}
            raise SymbolSyntaxError(f"unknown identifier {value!r}", offset)
        if kind == "op" and value == "(":
            out = self.nested(self.expr, offset)
            self.expect_op(")")
            return out
        raise SymbolSyntaxError(f"unexpected token {value!r}", offset)

    def _variable_axis(self, name: str):
        if self.n == 1:
            return 0 if name == "xi" else None
        if name.startswith("xi") and name[2:].isdigit():
            axis = int(name[2:]) - 1
            if 0 <= axis < self.n:
                return axis
        return None


def parse_symbol(text: str, n: int = 1) -> PolynomialSymbol:
    """Read the mini-language at dimension n into its polynomial symbol.

    Raises :class:`SymbolSyntaxError` with a byte offset on malformed
    input, unknown identifiers, variable divisors and exponents, and
    exponents that are not finite integers; :class:`SymbolError` on a
    division by zero, a negative power of a non-constant expression, a
    constant power that overflows, a coefficient that is not finite and a
    degree past the dense budget.  With several faults, the first one read
    is named.
    """
    if n not in (1, 2):
        raise SymbolError(f"dimension must be 1 or 2, got {n}")
    if not text or not text.strip():
        raise SymbolSyntaxError("empty symbol text", 0)
    return PolynomialSymbol(n, _Parser(_tokenize(text), n).parse())


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


def real_critical_points(coefficients: np.ndarray) -> np.ndarray:
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

    def __hash__(self):  # the generated hash would hash the coefficient dict
        return hash((self.n, frozenset(self.coeffs.items())))

    @property
    def order(self) -> int:
        """Largest |alpha| with nonzero coefficient (0 for the zero symbol)."""
        if not self.coeffs:
            return 0
        return max(sum(alpha) for alpha in self.coeffs)

    def coefficient(self, alpha) -> complex:
        alpha = tuple(alpha) if isinstance(alpha, tuple) else (alpha,)
        return self.coeffs.get(alpha, 0j)

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
        except ZeroDivisionError:  # 1e-200^-2: the power it inverts underflows to 0
            raise SymbolError("a constant power overflows: its inverse underflows to 0")
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
    """Parse a 1-D CLI coefficient list ``alpha:re,im;alpha:re;...``, each order once."""
    out = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            alpha_text, value_text = chunk.split(":")
            # a third field stays in im_text, which float refuses
            re_text, comma, im_text = value_text.partition(",")
            value = complex(float(re_text), float(im_text) if comma else 0.0)
            alpha = int(alpha_text)
        except ValueError:
            raise SymbolError(f"malformed coefficient entry {chunk!r}")
        if alpha < 0:
            raise SymbolError(f"negative derivative order {alpha}")
        if (alpha,) in out:
            raise SymbolError(f"coefficient entry {chunk!r} repeats derivative order {alpha}")
        out[(alpha,)] = value
    if not out:
        raise SymbolError("empty coefficient list")
    return out


# ---------------------------------------------------------------------------
# Symbol classes


def in_symbol_class(poly: PolynomialSymbol, m: float) -> bool:
    """Whether the symbol lies in the class S^m: ``|d^alpha a| <= c_alpha (1+|xi|)^(m-|alpha|)``.

    Exact, in any dimension: a derivative of order |alpha| of a polynomial of
    degree d has degree at most ``d - |alpha|``, so every estimate holds when
    ``d <= m``; when ``d > m`` the top homogeneous part is nonzero in some
    direction, along which ``|a|`` grows like ``|xi|^d``, so the estimate for
    alpha = 0 fails.  The zero symbol is in every class.
    """
    return not poly.coeffs or poly.order <= m


# Convenient fixed symbols used across the package and its tests.
HEAT_SYMBOL_TEXT = "-(1+4*pi^2*xi^2)"
TRANSPORT_SYMBOL_TEXT = "2*pi*i*xi"


def heat_symbol() -> PolynomialSymbol:
    """Symbol of -(1 - Laplacian) in one dimension."""
    return parse_symbol(HEAT_SYMBOL_TEXT)


def transport_symbol() -> PolynomialSymbol:
    """Symbol of d/dx in one dimension (purely imaginary)."""
    return parse_symbol(TRANSPORT_SYMBOL_TEXT)
