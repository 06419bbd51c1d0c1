"""Operators on spectral fields and their per-ball seminorm calculus.

A constant-coefficient operator acts on the Fourier side as pointwise
multiplication by its symbol.  For such a multiplier the ball-j operator
seminorm ``sup { p_j(Au) : p_j(u) = 1 }`` is exactly the node maximum of
``|a|`` over ball j (the weighted-l2 structure makes the sup attained by a
unit sample at the argmax node), which turns the abstract inequalities
``p_j(Au) <= p_j^X(A) p_j(u)`` and ``p_j^X(A^k) <= p_j^X(A)^k`` into
identities that can be checked exactly.

Operators that are not multipliers plug in through the same ``apply``
contract; their compatibility with the seminorm family is then audited on
samples rather than computed (see `check_strong_compatibility`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .spectral import (
    FrequencyGrid,
    GridError,
    SpectralField,
    _frozen,
    mask_outside,
    random_field,
    seminorm,
    shell_reductions,
)
from .symbols import PolynomialSymbol, SymbolError, _real_critical_points


class MultiplierOperator:
    """Action of a symbol ``a`` as nodewise multiplication on fields.

    The operator is immutable and built from a `PolynomialSymbol` (text
    goes through `symbols.parse_symbol` and `symbols.to_polynomial` first).
    Its one grid-sized table is `levels`: the distinct symbol values and
    each node's index into them, built on first use, never here, by the
    polynomial's Horner routine (`eval_grid`); where an axis enters the
    symbol through even powers only, of any degree, the table is built on
    the half (or quarter) grid up to ``xi_k = 0`` and mirrored.  A symbol
    that is not finite on the grid is refused when the table is built.
    `power` raises its base's levels to the k-th power and keeps the base's
    ``inverse``, so a power's table may list one value more than once (as
    ``a`` and ``-a`` do when squared).  The per-ball quantities,
    max |a| (`seminorm`) and the range of ``Re a`` (`real_part_range`), come
    from one pass over the shells that reads the table; it runs on first use
    and its result is kept.  `apply` and `power` read the table too, and
    ``values``, the symbol on every node, is gathered from it on each access.
    """

    def __init__(self, poly: PolynomialSymbol, grid: FrequencyGrid, label: str | None = None):
        if not isinstance(poly, PolynomialSymbol):
            raise TypeError(f"a multiplier is built from a PolynomialSymbol, not {poly!r}")
        if poly.n != grid.n:
            raise GridError(f"symbol dimension {poly.n} != grid dimension {grid.n}")
        self._init(grid, poly, label, None)

    @classmethod
    def _from_table(cls, grid: FrequencyGrid, levels, inverse, label: str | None = None):
        """An operator whose `levels` table is ``(levels, inverse)``, both read-only."""
        op = cls.__new__(cls)
        op._init(grid, None, label, (levels, inverse))
        return op

    def _init(self, grid, poly, label, table):
        self.grid = grid
        self.label = label
        self._poly = poly
        self._extremes = None
        self._levels = table

    @property
    def values(self) -> np.ndarray:
        """The symbol on every node (read-only), gathered from `levels`."""
        levels, inverse = self.levels()
        return _frozen(levels[inverse])

    def apply(self, u: SpectralField) -> SpectralField:
        if u.grid != self.grid:
            raise GridError(f"field grid {u.grid} does not match operator grid {self.grid}")
        return SpectralField._adopt(self.grid, self.values * u.values, u.overflow)

    def seminorm(self, j: int) -> float:
        """Exact discrete operator seminorm: node maximum of |a| on ball j."""
        j = self.grid.check_ball_index(j)
        return float(self._profile()[j - 1])

    def _profile(self) -> np.ndarray:
        """All ball seminorms ``(p_1^X, ..., p_J^X)``, computed once (read-only)."""
        return self._ball_extremes()[0]

    def real_part_range(self) -> tuple[np.ndarray, np.ndarray]:
        """Per ball j, the node minimum and maximum of ``Re a``, computed once."""
        return self._ball_extremes()[1:]

    def _ball_extremes(self) -> tuple:
        """Per ball j: max |a|, min Re a and max Re a, from one `shell_reductions` pass, once."""
        if self._extremes is None:
            levels, inverse = self.levels()
            real = levels.real
            peaks, lowest, highest = shell_reductions(
                self.grid, inverse,
                [(np.maximum, np.abs(levels)), (np.minimum, real), (np.maximum, real)])
            self._extremes = (_frozen(np.maximum.accumulate(peaks)),
                              _frozen(np.minimum.accumulate(lowest)),
                              _frozen(np.maximum.accumulate(highest)))
        return self._extremes

    def levels(self) -> tuple[np.ndarray, np.ndarray]:
        """The bitwise-distinct symbol values and each node's index into them.

        Returns ``(levels, inverse)``, computed once (read-only): ``levels``
        holds the distinct values in order of first appearance in row-major
        node order (a hash collision may list one twice, and so may a
        `power`, where two levels can share their k-th power; two values
        are never merged), and the grid-shaped int32 ``inverse`` satisfies
        ``levels[inverse] == values`` bitwise.  A function of the symbol
        value alone, such as the flow factor ``e^{t a}``, can then be
        evaluated once per level and gathered.  The table costs 4 bytes per
        node plus 16 per level.
        """
        if self._levels is None:
            self._levels = _polynomial_levels(self._poly, self.grid)
        return self._levels

    def seminorm_argmax(self, j: int) -> tuple[int, ...]:
        """Index of a node attaining the ball-j operator seminorm."""
        mask = self.grid.ball_mask(j)
        magnitudes = np.where(mask, np.abs(self.values), -1.0)
        return np.unravel_index(int(np.argmax(magnitudes)), self.grid.shape)

    def power(self, k: int) -> "MultiplierOperator":
        """The k-fold composition: each level multiplied by itself k - 1 times.

        The power keeps this operator's ``inverse``; its symbol on every node
        is that of k - 1 repeated nodewise products, bitwise.
        """
        if k < 1:
            raise ValueError("power needs k >= 1")
        base, inverse = self.levels()
        levels = base
        for _ in range(k - 1):
            levels = levels * base
        return MultiplierOperator._from_table(self.grid, _frozen(levels), inverse,
                                              label=f"{self.label}^{k}")

    def __repr__(self):
        return f"MultiplierOperator({self.label or self._poly!r}, {self.grid!r})"


# Odd, so multiplication by it permutes uint64.  The key
# ``real ^ rotate(imag * _KEY_MULTIPLIER, 32)`` is therefore injective
# whenever either part of the symbol is constant (a real or an imaginary
# symbol); the rotation keeps ``a`` and ``-a`` apart (without it their sign
# bits cancel).
_KEY_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)
_HALF_WORD = np.uint64(32)


def _level_table(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(levels, inverse)`` of `MultiplierOperator.levels`.

    One uint64 key mixed from the real and imaginary bit patterns is sorted;
    adjacent entries then form one level when all their bits agree.  The
    grouping compares bits, never keys, so a key collision can only split a
    level (every part carries the same value) and never merges two values;
    +0.0 and -0.0 stay apart.
    """
    bits = values.reshape(-1).view(np.uint64).reshape(-1, 2)
    real_bits, imag_bits = bits[:, 0], bits[:, 1]
    mixed = imag_bits * _KEY_MULTIPLIER
    mixed = (mixed << _HALF_WORD) | (mixed >> _HALF_WORD)
    order = np.argsort(real_bits ^ mixed)
    real_bits, imag_bits = real_bits[order], imag_bits[order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = (real_bits[1:] != real_bits[:-1]) | (imag_bits[1:] != imag_bits[:-1])
    # every node of a level gets the level's label; the labels count the
    # levels in order of their first node
    group = np.cumsum(starts, dtype=np.int32) - 1
    first = np.minimum.reduceat(order, np.flatnonzero(starts))
    rank = np.argsort(first)
    label = np.empty(rank.size, dtype=np.int32)
    label[rank] = np.arange(rank.size, dtype=np.int32)
    inverse = np.empty(order.size, dtype=np.int32)
    inverse[order] = label[group]
    return _frozen(values.reshape(-1)[first[rank]]), _frozen(inverse.reshape(values.shape))


def _polynomial_levels(poly: PolynomialSymbol, grid: FrequencyGrid):
    """`_level_table` of a polynomial symbol, built on as few nodes as its parity allows.

    `PolynomialSymbol.eval_grid` is bitwise even in ``xi_k`` when every
    exponent of ``xi_k`` is even: its Horner scheme only multiplies and
    adds, which commute with negation.  Such an axis is evaluated on its
    first ``J inv_h + 1`` nodes only, up to ``xi_k = 0``, and the table's
    ``inverse`` is mirrored.  Every node's value also sits at a node of that
    corner that comes no later in row-major order, so the corner's first
    appearances are the full grid's and ``levels`` is unchanged.  A table
    with a value that is not finite, one that overflows in Horner's rule or
    the ``nan`` of the ``inf * 0`` it then forms, is refused with
    `SymbolError`.
    """
    lim = grid.J * grid.inv_h
    even = [all(alpha[k] % 2 == 0 for alpha in poly.coeffs) for k in range(grid.n)]
    axes = [grid.axis[: lim + 1] if mirrored else grid.axis for mirrored in even]
    with np.errstate(over="ignore", invalid="ignore"):
        values = poly.eval_grid(*axes)
    levels, inverse = _level_table(np.ascontiguousarray(values))
    finite = np.isfinite(levels)
    if not finite.all():
        raise SymbolError(
            f"the symbol is not finite on the grid's extent [-{grid.J}, {grid.J}]^{grid.n}: "
            f"{levels.size - np.count_nonzero(finite)} of its {levels.size} distinct values "
            "overflow")
    for k, mirrored in enumerate(even):
        if mirrored:
            tail = np.flip(inverse, axis=k)[(slice(None),) * k + (slice(1, None),)]
            inverse = np.concatenate([inverse, tail], axis=k)
    return levels, _frozen(inverse)


class ReflectionOperator:
    """Synthetic non-local operator ``(Ru)(xi) = u(-2 xi)``.

    The scale -2 pulls samples from outside a ball into it, so it violates
    kernel preservation and serves as the canonical failure case for the
    compatibility audit and the quotient-diagram checks.
    """

    def __init__(self, grid: FrequencyGrid):
        self.grid = grid
        lim = grid.J * grid.inv_h
        source = grid.axis_index * -2
        in_range = np.abs(source) <= lim
        gather = np.clip(source + lim, 0, 2 * lim)
        self._gather = gather
        self._in_range = in_range
        self.label = "reflection(scale=-2)"

    def apply(self, u: SpectralField) -> SpectralField:
        if u.grid != self.grid:
            raise GridError("field grid does not match operator grid")
        if self.grid.n == 1:
            values = np.where(self._in_range, u.values[self._gather], 0.0)
        else:
            values = np.where(
                self._in_range[:, None] & self._in_range[None, :],
                u.values[np.ix_(self._gather, self._gather)],
                0.0,
            )
        return SpectralField._adopt(self.grid, values, u.overflow)

    def __repr__(self):
        return f"ReflectionOperator({self.grid!r})"


def continuum_seminorm_bound(poly: PolynomialSymbol, j: int) -> float:
    """The continuum bound ``sup_{|xi| <= j} |a(xi)|`` for a polynomial symbol.

    In one dimension the maximum of ``|a|^2`` is located by a critical-point
    search (roots of the derivative of a real polynomial); in two dimensions
    it is sampled at 4096 points, 64 angles on each of 64 rings.  The
    discrete operator seminorm never exceeds it.
    """
    if poly.n == 1:
        points = _real_critical_points(poly.dense)
        candidates = [-float(j), float(j), 0.0] + points[np.abs(points) <= j].tolist()
        values = poly.eval([np.array(candidates)])
    else:
        radii = np.linspace(0.0, float(j), 64)[:, None]
        angles = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
        values = poly.eval([radii * np.cos(angles), radii * np.sin(angles)])
    return float(np.fmax.reduce(np.abs(values), axis=None, initial=0.0))


# ---------------------------------------------------------------------------
# Strong-compatibility audit


@dataclass(frozen=True)
class CompatibilityRow:
    j: int
    operator_seminorm: float
    seminorm_is_exact: bool
    kernel_preserved: bool
    bound_holds: bool
    witness: Optional[SpectralField]

    @property
    def passed(self) -> bool:
        return self.kernel_preserved and self.bound_holds


@dataclass(frozen=True)
class CompatibilityReport:
    rows: tuple

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)


def compatibility_samples(grid: FrequencyGrid, rng: np.random.Generator) -> list[SpectralField]:
    """Delta fields at every node plus 8 random fields."""
    fields = []
    values = np.zeros(grid.shape, dtype=np.complex128)
    for index in np.ndindex(grid.shape):
        values[index] = 1.0
        fields.append(SpectralField(grid, values))  # copies, so values is reused
        values[index] = 0.0
    fields.extend(random_field(grid, rng) for _ in range(8))
    return fields


def check_strong_compatibility(op, samples: Sequence[SpectralField]) -> CompatibilityReport:
    """Audit the two strong-compatibility requirements on a sample set.

    Per ball j the audit checks (i) kernel preservation: samples zeroed
    inside ball j map to fields with ball-j seminorm exactly zero, and
    (ii) the bound ``p_j(Au) <= p_j^X p_j(u)`` on every sample, where
    ``p_j^X`` is exact for multipliers and otherwise the sampled supremum
    of the ratio, up to a relative slack of 1e-12.  Failures carry a
    concrete witness field.  Each sample's image is formed once, and its
    ball profile with it.
    """
    if not samples:
        raise ValueError("sample set must be nonempty")
    grid = samples[0].grid
    exact = isinstance(op, MultiplierOperator)
    images = [op.apply(u) for u in samples]
    rows = []
    for j in range(1, grid.J + 1):
        witness = None
        kernel_ok = True
        for u in samples:
            outside = mask_outside(u, j)
            image = op.apply(outside)
            if seminorm(image, j) != 0.0:
                kernel_ok = False
                witness = outside
                break
        if exact:
            pjx = op.seminorm(j)
        else:
            ratios = []
            for u, image in zip(samples, images):
                pj_u = seminorm(u, j)
                if pj_u > 0:
                    ratios.append(seminorm(image, j) / pj_u)
            pjx = max(ratios) if ratios else 0.0
        bound_ok = True
        for u, image in zip(samples, images):
            lhs = seminorm(image, j)
            rhs = pjx * seminorm(u, j)
            if lhs > rhs * (1.0 + 1e-12) + 1e-300:
                bound_ok = False
                if witness is None:
                    witness = u
                break
        rows.append(
            CompatibilityRow(
                j=j,
                operator_seminorm=pjx,
                seminorm_is_exact=exact,
                kernel_preserved=kernel_ok,
                bound_holds=bound_ok,
                witness=witness,
            )
        )
    return CompatibilityReport(rows=tuple(rows))


def verify_power_bound(op: MultiplierOperator, k: int, j: int) -> tuple[float, float]:
    """Return (p_j^X(A^k), p_j^X(A)^k); for multipliers the two coincide."""
    if k < 1:
        raise ValueError("power bound needs k >= 1")
    lhs = op.power(k).seminorm(j)
    rhs = op.seminorm(j) ** k
    return lhs, rhs


def sharpness_field(op: MultiplierOperator, j: int) -> SpectralField:
    """Unit sample attaining ``p_j(Au) = p_j^X(A) p_j(u)`` exactly."""
    values = np.zeros(op.grid.shape, dtype=np.complex128)
    values[op.seminorm_argmax(j)] = 1.0
    return SpectralField._adopt(op.grid, values)
