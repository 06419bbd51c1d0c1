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

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .spectral import (
    FrequencyGrid,
    GridError,
    SpectralField,
    frozen,
    mask_outside,
    random_field,
    seminorm,
    shell_numbers,
)
from .symbols import PolynomialSymbol, SymbolError, real_critical_points


class MultiplierOperator:
    """Action of a symbol ``a`` as nodewise multiplication on fields.

    The operator is immutable and built from a `PolynomialSymbol` (text
    goes through `symbols.parse_symbol`, which returns one).
    Its one per-node array is the level index of `levels`: the distinct
    pairs (symbol value, shell), numbered shell by shell, and each node's
    index into them in shell order (`ShellIndex.order`), built on first use,
    never here, by the polynomial's Horner routine (`eval_grid`); where an
    axis enters the symbol through even powers only, of any degree, the
    table is built on the half (or quarter) grid up to ``xi_k = 0`` and
    mirrored.  `level_offsets` gives each shell's range of levels.  A symbol
    that is not finite on the grid is refused when the table is built.
    `power` raises its base's levels to the k-th power and keeps the base's
    index and ranges, so a power's table may list one value more than once
    in a shell (as ``a`` and ``-a`` do when squared).  The per-ball
    quantities, max |a| (`seminorm`) and the range of ``Re a``
    (`real_part_range`), reduce each shell's range of levels, so they read
    no node; they are computed on first use and kept.  `apply` and
    `seminorm_argmax` read ``values``, the symbol on every node in grid
    order, which is scattered from the table on each access; no solve
    reads it.
    """

    def __init__(self, poly: PolynomialSymbol, grid: FrequencyGrid, label: str | None = None):
        if not isinstance(poly, PolynomialSymbol):
            raise TypeError(f"a multiplier is built from a PolynomialSymbol, not {poly!r}")
        if poly.n != grid.n:
            raise GridError(f"symbol dimension {poly.n} != grid dimension {grid.n}")
        self._init(grid, poly, label, None)

    @classmethod
    def _from_table(cls, grid: FrequencyGrid, levels, index, offsets,
                    label: str | None = None):
        """An operator whose table is ``(levels, index)`` with shell ranges ``offsets``,
        all read-only, ``index`` in shell order (see `levels` and `level_offsets`)."""
        op = cls.__new__(cls)
        op._init(grid, None, label, (levels, index, offsets))
        return op

    def _init(self, grid, poly, label, table):
        self.grid = grid
        self.label = label
        self._poly = poly
        self._extremes = None
        self._levels = self._offsets = None
        if table is not None:
            self._levels, self._offsets = table[:2], table[2]

    @property
    def values(self) -> np.ndarray:
        """The symbol on every node (read-only), scattered from `levels` in shell order."""
        levels, index = self.levels()
        values = np.empty(self.grid.node_count, dtype=np.complex128)
        values[self.grid.shells().order] = levels[index]
        return frozen(values.reshape(self.grid.shape))

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
        """Per ball j: max |a|, min Re a and max Re a, from each shell's range of levels, once.

        Ball j's levels are ``levels[:level_offsets[j]]``, and every shell
        has one, so each is a reduction per shell and a running extreme.
        """
        if self._extremes is None:
            levels, offsets = self.levels()[0], self.level_offsets()
            J = self.grid.J
            inside, starts = levels[: offsets[J]], offsets[:J]
            self._extremes = (
                frozen(np.maximum.accumulate(np.maximum.reduceat(np.abs(inside), starts))),
                frozen(np.minimum.accumulate(np.minimum.reduceat(inside.real, starts))),
                frozen(np.maximum.accumulate(np.maximum.reduceat(inside.real, starts))))
        return self._extremes

    def levels(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct pairs (symbol value, shell) and each node's index into them.

        Returns ``(levels, index)``, computed once (read-only): a level is
        a bitwise-distinct symbol value on one shell (J + 1 for the nodes
        outside ball J), and ``levels`` holds each level's value, shell by
        shell, and within a shell in order of first appearance in row-major
        node order.  So one value may be listed once per shell it meets, and
        a hash collision may list it twice within a shell, as may a
        `power`, where two levels can share their k-th power; two values are
        never merged.  The flat int32 ``index`` is in the order of
        `ShellIndex.order` (ball J shell by shell, then the nodes outside
        ball J), the order in which `ShellField` and every pass read it:
        ``levels[index] == values.ravel()[order]`` bitwise, and the entries
        of shell j's nodes (its range of `ShellIndex.offsets`) name levels
        of its range of `level_offsets`.  A function of the symbol value
        alone, such as the flow factor ``e^{t a}``, can then be evaluated
        once per level and gathered, and a sum over the nodes of a ball of
        such a function times a field reduces over the field's weights per
        level (`ShellField.level_weights`).  The table costs 4 bytes per
        node plus 16 per level.
        """
        if self._levels is None:
            levels, index, self._offsets = _polynomial_levels(self._poly, self.grid)
            self._levels = (levels, index)
        return self._levels

    def level_offsets(self) -> np.ndarray:
        """Each shell's range of `levels`: shell j's are ``offsets[j - 1]:offsets[j]``.

        J + 2 offsets (read-only), from ``offsets[0] = 0`` to the number of
        levels; shell J + 1 holds the nodes outside ball J, so ball j's
        levels are the first ``offsets[j]``.  Built with the table.
        """
        self.levels()
        return self._offsets

    def seminorm_argmax(self, j: int) -> tuple[int, ...]:
        """Index of a node attaining the ball-j operator seminorm."""
        mask = self.grid.ball_mask(j)
        magnitudes = np.where(mask, np.abs(self.values), -1.0)
        return np.unravel_index(int(np.argmax(magnitudes)), self.grid.shape)

    def power(self, k: int) -> "MultiplierOperator":
        """The k-fold composition: each level multiplied by itself k - 1 times.

        k is an integer >= 1.  The power keeps this operator's level index
        and `level_offsets`; its symbol on every node is that of k - 1
        repeated nodewise products, bitwise.
        """
        if not (isinstance(k, (int, np.integer)) and k >= 1):
            raise ValueError(f"power needs an integer k >= 1, got {k!r}")
        base, index = self.levels()
        levels = base
        for _ in range(k - 1):
            levels = levels * base
        return MultiplierOperator._from_table(self.grid, frozen(levels), index,
                                              self.level_offsets(), label=f"{self.label}^{k}")

    def __repr__(self):
        return f"MultiplierOperator({self.label or self._poly!r}, {self.grid!r})"


# Odd, so multiplication by it permutes uint64.  The key
# ``real ^ rotate(imag * _KEY_MULTIPLIER, 32) ^ shell * _SHELL_MULTIPLIER``
# is therefore injective on one shell whenever either part of the symbol is
# constant (a real or an imaginary symbol); the rotation keeps ``a`` and
# ``-a`` apart (without it their sign bits cancel).
_KEY_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)
_SHELL_MULTIPLIER = np.uint64(0xC2B2AE3D27D4EB4F)
_HALF_WORD = np.uint64(32)


def _level_table(values: np.ndarray, shell: np.ndarray, J: int) -> tuple:
    """``(levels, inverse, offsets)``: `MultiplierOperator.levels`, its index in grid order, and
    `level_offsets`.

    ``shell`` is the shell of each node of ``values`` (1..J + 1), and the
    ``values``-shaped int32 ``inverse`` names each node's level.  One
    uint64 key mixed from the real and imaginary bit patterns and the shell
    is sorted; adjacent entries then form one level when all their bits and
    their shells agree.  The grouping compares bits and shells, never keys,
    so a key collision can only split a level (every part carries the same
    value on the same shell) and never merges two values; +0.0 and -0.0
    stay apart.  The levels are numbered by shell, then by first node.
    """
    bits = values.reshape(-1).view(np.uint64).reshape(-1, 2)
    real_bits, imag_bits = bits[:, 0], bits[:, 1]
    shell = shell.reshape(-1)
    key = imag_bits * _KEY_MULTIPLIER
    key = (key << _HALF_WORD) | (key >> _HALF_WORD)
    key ^= real_bits
    key ^= shell * _SHELL_MULTIPLIER
    order = np.argsort(key)
    del key
    real_bits, imag_bits, shell = real_bits[order], imag_bits[order], shell[order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = ((real_bits[1:] != real_bits[:-1]) | (imag_bits[1:] != imag_bits[:-1])
                  | (shell[1:] != shell[:-1]))
    del real_bits, imag_bits
    # every node of a level gets the level's label; the labels count the
    # levels by shell, then in order of their first node
    group = np.cumsum(starts, dtype=np.int32) - 1
    starts = np.flatnonzero(starts)
    first = np.minimum.reduceat(order, starts)
    level_shell = shell[starts]
    rank = np.argsort((level_shell.astype(np.int64) << 32) | first)
    label = np.empty(rank.size, dtype=np.int32)
    label[rank] = np.arange(rank.size, dtype=np.int32)
    inverse = np.empty(order.size, dtype=np.int32)
    inverse[order] = label[group]
    offsets = np.cumsum(np.bincount(level_shell, minlength=J + 2))
    return (frozen(values.reshape(-1)[first[rank]]), frozen(inverse.reshape(values.shape)),
            frozen(offsets))


def _polynomial_levels(poly: PolynomialSymbol, grid: FrequencyGrid):
    """`MultiplierOperator.levels` and `level_offsets` of a polynomial symbol, built on as few
    nodes as its parity allows.

    `PolynomialSymbol.eval_grid` is bitwise even in ``xi_k`` when every
    exponent of ``xi_k`` is even: its Horner scheme only multiplies and
    adds, which commute with negation.  Such an axis is evaluated on its
    first ``J inv_h + 1`` nodes only, up to ``xi_k = 0``, and the
    `_level_table`'s ``inverse`` is mirrored.  Shells are mirror-symmetric
    too, so every node's (value, shell) also sits at a node of that corner
    that comes no later in row-major order: the corner's first appearances
    are the full grid's, and ``levels`` and the offsets are unchanged.  The
    corner's shells come from its integer axes (`shell_numbers`).  The
    mirrored ``inverse`` is then gathered through the grid's shell order a
    block of `ShellIndex.blocks` at a time, and only that shell-ordered
    index is kept.  The shell index is built between the two, after the
    evaluation's temporaries are released and before the mirrored index
    exists, which gives the lowest peak.  A table with a value that is not
    finite, one that overflows in Horner's rule or the ``nan`` of the
    ``inf * 0`` it then forms, is refused with `SymbolError`, which counts
    distinct values, not levels.
    """
    lim = grid.J * grid.inv_h
    even = [all(alpha[k] % 2 == 0 for alpha in poly.coeffs) for k in range(grid.n)]
    index_axes = [grid.axis_index[: lim + 1] if mirrored else grid.axis_index
                  for mirrored in even]
    with np.errstate(over="ignore", invalid="ignore"):
        values = poly.eval_grid(*(index / float(grid.inv_h) for index in index_axes))
    shell = shell_numbers(grid.J, grid.inv_h, *index_axes)
    levels, inverse, offsets = _level_table(np.ascontiguousarray(values), shell, grid.J)
    del values, shell
    if not np.isfinite(levels).all():
        distinct = np.unique(levels.view(np.uint64).reshape(-1, 2), axis=0)
        finite = np.isfinite(distinct.view(np.complex128))
        raise SymbolError(
            f"the symbol is not finite on the grid's extent [-{grid.J}, {grid.J}]^{grid.n}: "
            f"{finite.size - np.count_nonzero(finite)} of its {finite.size} distinct values "
            "overflow")
    shells = grid.shells()
    for k, mirrored in enumerate(even):
        if mirrored:
            tail = np.flip(inverse, axis=k)[(slice(None),) * k + (slice(1, None),)]
            inverse = np.concatenate([inverse, tail], axis=k)
    inverse = inverse.reshape(-1)
    index = np.empty(inverse.size, dtype=np.int32)
    for block, _ in shells.blocks(outside=True):
        np.take(inverse, shells.order[block], out=index[block], mode="clip")
    return levels, frozen(index), offsets


class ReflectionOperator:
    """Synthetic non-local operator ``(Ru)(xi) = u(-2 xi)``.

    The scale -2 pulls samples from outside a ball into it, so it violates
    kernel preservation and serves as the canonical failure case for the
    compatibility audit and the quotient-diagram checks.
    """

    def __init__(self, grid: FrequencyGrid):
        if grid.n != 1:
            raise GridError("the reflection operator is implemented for n = 1")
        self.grid = grid
        lim = grid.J * grid.inv_h
        source = grid.axis_index * -2
        self._gather = np.clip(source + lim, 0, 2 * lim)
        self._in_range = np.abs(source) <= lim
        self.label = "reflection(scale=-2)"

    def apply(self, u: SpectralField) -> SpectralField:
        if u.grid != self.grid:
            raise GridError("field grid does not match operator grid")
        values = np.where(self._in_range, u.values[self._gather], 0.0)
        return SpectralField._adopt(self.grid, values, u.overflow)

    def __repr__(self):
        return f"ReflectionOperator({self.grid!r})"


def continuum_seminorm_bound(poly: PolynomialSymbol, j: int) -> float:
    """The continuum bound ``sup_{|xi| <= j} |a(xi)|`` for a 1-D polynomial symbol.

    The maximum of ``|a|^2`` is located by a critical-point search (roots
    of the derivative of a real polynomial).  The discrete operator
    seminorm never exceeds it.
    """
    if poly.n != 1:
        raise ValueError("the continuum seminorm bound is computed for n = 1")
    if not 0 <= j < np.inf:  # NaN fails both comparisons
        raise ValueError(f"radius must be finite and nonnegative, got {j!r}")
    points = real_critical_points(poly.dense)
    candidates = [-float(j), float(j), 0.0] + points[np.abs(points) <= j].tolist()
    values = poly.eval([np.array(candidates)])
    return float(np.fmax.reduce(np.abs(values), initial=0.0))


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
    """Return (p_j^X(A^k), p_j^X(A)^k); for multipliers the two coincide.

    ``k`` is checked by `MultiplierOperator.power`."""
    lhs = op.power(k).seminorm(j)
    rhs = op.seminorm(j) ** k
    return lhs, rhs


def sharpness_field(op: MultiplierOperator, j: int) -> SpectralField:
    """Unit sample attaining ``p_j(Au) = p_j^X(A) p_j(u)`` exactly."""
    values = np.zeros(op.grid.shape, dtype=np.complex128)
    values[op.seminorm_argmax(j)] = 1.0
    return SpectralField._adopt(op.grid, values)
