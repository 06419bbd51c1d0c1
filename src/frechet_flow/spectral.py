"""Discrete frequency-side model of locally square-integrable spectra.

Fields live on a uniform grid over the square ``[-J, J]^n`` of frequency
space (n = 1 or 2).  The nested Euclidean balls ``B[0, j]``, ``1 <= j <= J``,
carry the seminorm family: ``seminorm(u, j)`` is the weighted l2 norm of the
samples inside ball j, a midpoint quadrature of the integral of ``|u|^2``
over the ball.  The family is nondecreasing in j and induces the standard
series metric ``sum 2^-j q_j / (1 + q_j)`` (truncated at j = J; the omitted
tail is below ``2^-J``).

Ball membership is decided in exact integer arithmetic on the node indices,
so boundary nodes with ``|xi| = j`` are always included.  A node's shell is
the smallest j with ``|xi| <= j`` (`shell_numbers`), and shell order lists
the nodes by shell, row-major within a shell, the nodes outside ball J
last (`ShellIndex`, built in closed form from the rows and shared by equal
grids).  It is the one order of a field in memory: a `SpectralField` holds
its samples flat in shell order, so ball j is the prefix ``[:offsets[j]]``
and the ball-j quotient element, the field that vanishes outside ball j,
keeps that prefix and zeroes the rest (`project`).  Grid (row-major) order
is met only at the edges: ``.fl2l`` files and field CSVs are row-major on
disk and are converted a block of rows at a time (`ShellIndex.rows`), the
constructor takes grid-shaped values, and ``values`` scatters them back.

Every per-ball quantity is one pass over the blocks of whole shells of
`ShellIndex.blocks`, each a contiguous range of samples, with one
reduction per shell and then a scan over the J shells (running maxima, or
for the seminorms the scaled sums of squares of LAPACK ``dlassq``).  It is
computed once per immutable field and kept with it, as are the field's
peak, polar form and weights per level of an operator.

`saturated_product` forms one time of a flow, or of two flows side by
side, from a field and an operator's level index, which is in shell order
too.  A pass that keeps a field, or whose flows can saturate, walks the
blocks and holds a grid-sized result only for the kept flow; one that
keeps no field and cannot saturate reads no node: since ``|f u|^2`` sums to
``|f_l|^2 sum |u|^2`` over the nodes of level l, each profile reduces the
field's weights per level.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Refuse grids whose node count would make dense complex storage unreasonable.
NODE_BUDGET = 1 << 22

# Magnitudes above exp(709) are saturated and flagged instead of overflowing.
OVERFLOW_EXPONENT = 709.0
OVERFLOW_LIMIT = float(np.exp(OVERFLOW_EXPONENT))

# Smallest power-of-two exponent used to scale a sum of squares; 2^1021 is
# still finite, so shells of subnormal samples scale up exactly.
_MIN_SCALE_EXPONENT = -1021

# Nodes a block of `ShellIndex.blocks` holds: whole shells up to this many
# (a larger shell is a block alone), about 1.5 MB of samples and magnitudes.
_BLOCK_NODES = 1 << 16


class GridError(ValueError):
    """Invalid grid parameters or incompatible grids."""


class FrequencyGrid:
    """Uniform sampling of ``[-J, J]^n`` with spacing ``h = 1/inv_h``.

    Nodes are ``h * k`` for integer vectors k with ``|h k|_inf <= J``; in
    particular every node with Euclidean norm <= J is present.  Two grids
    are compatible for arithmetic iff (n, J, inv_h) coincide.
    """

    def __init__(self, n: int, J: int, inv_h: int):
        if n not in (1, 2):
            raise GridError(f"dimension must be 1 or 2, got {n}")
        if not (isinstance(J, (int, np.integer)) and J >= 1):
            raise GridError(f"ball radius J must be a positive integer, got {J!r}")
        if not (isinstance(inv_h, (int, np.integer)) and inv_h >= 1):
            raise GridError(f"1/h must be a positive integer, got {inv_h!r}")
        side = 2 * J * inv_h + 1
        if side**n > NODE_BUDGET:
            raise GridError(
                f"grid would hold {side**n} nodes, above the budget {NODE_BUDGET}"
            )
        self.n = int(n)
        self.J = int(J)
        self.inv_h = int(inv_h)
        self.axis_index = np.arange(-J * inv_h, J * inv_h + 1, dtype=np.int64)
        self.axis = self.axis_index / float(inv_h)

    @property
    def h(self) -> float:
        return 1.0 / self.inv_h

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.axis_index.size,) * self.n

    @property
    def node_count(self) -> int:
        return self.axis_index.size**self.n

    @property
    def cell_volume(self) -> float:
        return self.h**self.n

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FrequencyGrid)
            and (self.n, self.J, self.inv_h) == (other.n, other.J, other.inv_h)
        )

    def __hash__(self):
        return hash((self.n, self.J, self.inv_h))

    def __repr__(self):
        return f"FrequencyGrid(n={self.n}, J={self.J}, inv_h={self.inv_h})"

    def check_ball_index(self, j: int) -> int:
        if not (isinstance(j, (int, np.integer)) and 1 <= j <= self.J):
            raise GridError(f"ball index must satisfy 1 <= j <= {self.J}, got {j!r}")
        return int(j)

    def shells(self) -> "ShellIndex":
        """The shell index of this grid, built on first use and shared by equal grids."""
        return _shell_index(self.n, self.J, self.inv_h)

    def coordinates(self, nodes: slice) -> list:
        """Per axis, the coordinates of the nodes of a range of flat (row-major) indices."""
        flat = np.arange(nodes.start, nodes.stop)
        return [self.axis[k] for k in (np.divmod(flat, self.axis.size) if self.n == 2 else [flat])]

    def nearest_node(self, point) -> tuple[int, ...]:
        point = np.atleast_1d(np.asarray(point, dtype=float))
        if point.size != self.n:
            raise GridError(f"point has dimension {point.size}, grid has {self.n}")
        if not np.all(np.isfinite(point)):
            raise GridError(f"point {point.tolist()} is not finite")
        # clipped to the box first, so a far point neither overflows nor wraps
        lim = self.J * self.inv_h
        idx = np.rint(np.clip(point, -self.J, self.J) * self.inv_h).astype(np.int64)
        return tuple(int(k) + lim for k in idx)


@dataclass(frozen=True, eq=False)
class ShellIndex:
    """Nodes of a grid grouped by shell ``j - 1 < |xi| <= j`` (shell 1 holds ``xi = 0``).

    In shell order shell j takes places ``offsets[j - 1]:offsets[j]``, ball
    j the first ``offsets[j]`` and the nodes outside ball J the rest.  No
    shell 1..J is empty: the axis node at ``|xi| = j`` lies in shell j.
    ``parameters`` are the grid's ``(n, J, inv_h)``.  `rows` converts
    between grid and shell order; the permutation itself, `order`, is built
    only for callers that ask for it.
    """

    offsets: np.ndarray
    parameters: tuple
    node_count: int

    @functools.cached_property
    def order(self) -> np.ndarray:
        """Each place's flat (row-major) node index, int32, read-only, built on first use."""
        order = np.empty(self.node_count, dtype=np.int32)
        for nodes, positions in self.rows():
            order[positions] = np.arange(nodes.start, nodes.stop, dtype=np.int32)
        return frozen(order)

    def blocks(self, outside: bool = False):
        """``(block, offsets)`` for blocks of whole shells covering shells 1..J, in order.

        A block holds as many whole shells as fit in `_BLOCK_NODES` nodes,
        and at least one; ``block`` is its range of places in shell order as
        a slice, and ``offsets`` the shell boundaries in that range.  With
        ``outside`` the nodes outside ball J follow, `_BLOCK_NODES` at a
        time, with ``offsets`` None.
        """
        ends = self.offsets
        first = 0
        while first < ends.size - 1:
            fit = int(np.searchsorted(ends, ends[first] + _BLOCK_NODES, side="right")) - 1
            last = max(first + 1, fit)
            offsets = ends[first : last + 1]
            yield slice(int(offsets[0]), int(offsets[-1])), offsets - offsets[0]
            first = last
        if outside:
            for start in range(int(self.offsets[-1]), self.node_count, _BLOCK_NODES):
                yield slice(start, min(start + _BLOCK_NODES, self.node_count)), None

    def rows(self):
        """``(nodes, positions)`` for blocks of whole rows, in row-major order: ``nodes``
        is a block's range of flat indices as a slice, of at most `_BLOCK_NODES` (a 1-D
        grid's one row is cut), and ``positions`` their places in shell order, in closed
        form (`_row_runs`): ``order[positions] == arange(nodes.start, nodes.stop)``."""
        return _row_positions(*self.parameters, self.offsets)


def _row_runs(n: int, J: int, inv_h: int):
    """``(nodes, left, right)`` per block of whole rows: the block's range of flat
    indices, and per row and shell j = 1..J + 1 the count of its nodes with ``k2 < 0``
    and with ``k2 >= 0``.  With e_j the number of columns ``k2 >= 0`` of row k1 in ball
    j, the exact ``isqrt((j inv_h)^2 - k1^2) + 1`` (0 where the row misses the ball,
    and for j = 0), and ``p_j = max(e_j - 1, 0)``, shell j's nodes are the two runs
    ``-p_j <= k2 < -p_{j-1}`` and ``e_{j-1} <= k2 < e_j``.  A 1-D grid is the row k1 = 0.
    """
    lim = J * inv_h
    side = 2 * lim + 1
    rows = np.arange(-lim, lim + 1, dtype=np.int64) if n == 2 else np.zeros(1, dtype=np.int64)
    per_block = max(1, _BLOCK_NODES // side)
    radii2 = (np.arange(1, J + 1, dtype=np.int64) * inv_h) ** 2
    for first in range(0, rows.size, per_block):
        k1 = rows[first : first + per_block, None]
        room = radii2 - k1**2
        root = np.sqrt(np.maximum(room, 0)).astype(np.int64)
        # the float root is within one of the integer root; these make it exact
        root -= root * root > room
        root += (root + 1) * (root + 1) <= room
        ends = np.zeros((k1.size, J + 2), dtype=np.int64)
        ends[:, 1 : J + 1] = np.where(room >= 0, root + 1, 0)
        ends[:, J + 1] = lim + 1
        yield (slice(first * side, (first + k1.size) * side),
               np.diff(np.maximum(ends - 1, 0), axis=1), np.diff(ends, axis=1))


def _row_positions(n: int, J: int, inv_h: int, offsets: np.ndarray):
    """`ShellIndex.rows` of the grid ``(n, J, inv_h)`` whose shell index has ``offsets``.

    Shell j's nodes in a row follow its nodes in the rows before, so a
    running count per shell places each row's runs (`_row_runs`), which in
    row-major order are the left runs from shell J + 1 in, then the right
    runs out.
    """
    free = np.array(offsets, dtype=np.int64)  # the next place of shell j is free[j - 1]
    for nodes, left, right in _row_runs(n, J, inv_h):
        counts = left + right
        base = free + np.cumsum(counts, axis=0) - counts
        free += counts.sum(axis=0)
        lengths = np.concatenate([left[:, ::-1], right], axis=1).ravel()
        places = np.concatenate([base[:, ::-1], base + left], axis=1).ravel()
        starts = nodes.start + np.cumsum(lengths) - lengths
        shift = places - starts  # a run's places minus its flat indices
        for start in range(nodes.start, nodes.stop, _BLOCK_NODES):
            stop = min(start + _BLOCK_NODES, nodes.stop)
            first = int(np.searchsorted(starts, start, side="right")) - 1
            last = int(np.searchsorted(starts, stop, side="left"))
            taken = (np.minimum(starts[first:last] + lengths[first:last], stop)
                     - np.maximum(starts[first:last], start))
            yield slice(start, stop), np.repeat(shift[first:last], taken) + np.arange(start, stop)


@functools.lru_cache(maxsize=4)
def _shell_index(n: int, J: int, inv_h: int) -> ShellIndex:
    # Keyed by the grid parameters, so no grid instance is kept alive; an entry
    # holds 4 bytes per node only once a caller asks for `ShellIndex.order`.
    counts = sum((left + right).sum(axis=0) for _, left, right in _row_runs(n, J, inv_h))
    offsets = frozen(np.concatenate(([0], np.cumsum(counts[:J]))))
    return ShellIndex(offsets=offsets, parameters=(n, J, inv_h),
                      node_count=(2 * J * inv_h + 1) ** n)


def shell_numbers(J: int, inv_h: int, *index_axes) -> np.ndarray:
    """The shell of each node of the product grid of integer index axes (J + 1 outside ball J).

    Node k's shell is the smallest j >= 1 with ``|k|^2 <= (j inv_h)^2``,
    found by an exact integer search over the J squared radii; its dtype is
    the smallest unsigned type that holds J + 1.
    """
    squares = [np.asarray(axis, dtype=np.int64) ** 2 for axis in index_axes]
    r2 = squares[0] if len(squares) == 1 else squares[0][:, None] + squares[1][None, :]
    radii2 = (np.arange(1, J + 1, dtype=np.int64) * inv_h) ** 2
    return (np.searchsorted(radii2, r2) + 1).astype(np.min_scalar_type(J + 1))


class SpectralField:
    """Complex samples of a spectrum on a :class:`FrequencyGrid`, held in shell order.

    ``samples`` is flat and read-only, in shell order (see `ShellIndex`).
    The public constructor copies grid-shaped, row-major values into shell
    order; results built inside the package take ownership of fresh
    shell-ordered arrays (`_adopt`).  Every construction checks the samples
    for non-finite values.  ``values`` scatters the samples back into grid
    order on each access, for callers on small grids; no solve reads it.
    ``overflow`` marks fields produced by a saturated evolution; only then
    may samples sit at the saturation magnitude.  The ball profile behind
    `seminorm_profile`, the `peak`, the `polar` form and the `level_weights`
    are built on first use and kept with the field; a field kept by
    `saturated_product` comes with its profile.
    """

    __slots__ = ("grid", "samples", "overflow", "_profile", "_peak", "_polar", "_weights")

    def __init__(self, grid: FrequencyGrid, values, overflow: bool = False):
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != grid.shape:
            raise GridError(
                f"values shape {values.shape} does not match grid shape {grid.shape}"
            )
        self._own(grid, values.reshape(-1)[grid.shells().order], overflow)

    @classmethod
    def _adopt(cls, grid: FrequencyGrid, samples: np.ndarray, overflow: bool = False,
               checked: bool = False):
        """A field owning ``samples``, a fresh flat complex128 array in shell order; with
        ``checked`` the caller has found them finite (or the field flagged)."""
        field = cls.__new__(cls)
        field._own(grid, samples, overflow, checked)
        return field

    def _own(self, grid: FrequencyGrid, samples: np.ndarray, overflow: bool,
             checked: bool = False):
        if not (overflow or checked) and not np.all(np.isfinite(samples)):
            raise ValueError("non-finite samples in an unflagged field")
        self.grid = grid
        self.samples = frozen(samples)
        self.overflow = bool(overflow)
        self._profile = self._peak = self._polar = self._weights = None

    @property
    def values(self) -> np.ndarray:
        """The samples in grid (row-major) order, grid-shaped and read-only, scattered anew."""
        values = np.empty(self.grid.node_count, dtype=np.complex128)
        for nodes, positions in self.grid.shells().rows():
            values[nodes] = self.samples[positions]
        return frozen(values.reshape(self.grid.shape))

    def _ball_profile(self) -> tuple:
        """``(p_1(u), ..., p_J(u))``, computed once, with the `peak`."""
        if self._profile is None:
            self.peak()
        return self._profile

    def peak(self) -> float:
        """``max |u|`` (NaN if a sample is NaN), computed once by one pass over the blocks
        of `ShellIndex.blocks`, which forms the ball profile too unless the field has it:
        each block's magnitudes are reduced shell by shell, and the shells then combined
        in order."""
        if self._peak is None:
            parts, peaks = [], []
            for block, offsets in self.grid.shells().blocks(outside=True):
                magnitudes = np.abs(self.samples[block])
                if offsets is None or self._profile is not None:
                    peaks.append(np.max(magnitudes))
                else:
                    parts.append(_scaled_sums(magnitudes, offsets))
                    peaks.append(np.max(parts[-1][0]))
            if self._profile is None:
                self._profile = tuple(_combine_parts(parts, self.grid.cell_volume))
            self._peak = float(np.max(peaks))
        return self._peak

    def polar(self) -> tuple[np.ndarray, np.ndarray]:
        """``(log |u|, u / |u|)`` in shell order, computed once (read-only).

        Where ``|u| = 0`` (or u is NaN) they are ``-inf`` and 0.  The phase
        comes from ``angle``, so it stays exact for subnormal samples.  They
        are formed a block at a time, with no grid-sized temporary; 24 bytes
        per node.
        """
        if self._polar is None:
            log_magnitude = np.empty(self.samples.size)
            phase = np.empty(self.samples.size, dtype=np.complex128)
            for block, _ in self.grid.shells().blocks(outside=True):
                samples = self.samples[block]
                magnitude = np.abs(samples)
                nonzero = magnitude > 0.0
                with np.errstate(divide="ignore"):
                    log_magnitude[block] = np.where(nonzero, np.log(magnitude), -np.inf)
                phase[block] = np.where(nonzero, np.exp(1j * np.angle(samples)), 0.0)
            self._polar = (frozen(log_magnitude), frozen(phase))
        return self._polar

    def level_weights(self, index: np.ndarray,
                      level_offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per level of ball J, the `_scaled_sums` of ``|u|`` over its nodes, computed once.

        ``index`` and ``level_offsets`` are an operator's level index and
        shell ranges (`MultiplierOperator.levels`); the weights are kept for
        the last pair asked for.  Returns ``(peak, exponent, weight)`` per
        level (read-only): ``max |u|``, the exponent e of the scale ``2^e``
        and ``W = sum (|u| 2^-e)^2``, so a factor f_l on level l adds
        ``(|f_l| 2^e)^2 W`` to a squared seminorm.  The scale is per level:
        a level's nodes share its factor, so none is lost to underflow beside
        a larger one that a factor shrinks more.  A block of whole shells is
        a contiguous range of levels, so its magnitudes are sorted by level
        (a radix sort where the levels fit 16 bits) and summed a level at a
        time, pairwise as `_scaled_sums` sums a shell.
        """
        cached = self._weights
        if cached is None or cached[0] is not index or cached[1] is not level_offsets:
            ball = int(level_offsets[self.grid.J])
            weights = np.empty(ball), np.empty(ball, dtype=np.int16), np.empty(ball)
            first = 0  # shells before the block
            for block, shell_offsets in self.grid.shells().blocks():
                last = first + shell_offsets.size - 1
                low, high = int(level_offsets[first]), int(level_offsets[last])
                local = index[block] - low
                by_level = np.argsort(local.astype(np.uint16) if high - low <= 1 << 16 else local,
                                      kind="stable")
                starts = np.zeros(high - low + 1, dtype=np.intp)
                np.cumsum(np.bincount(local, minlength=high - low), out=starts[1:])
                sums = _scaled_sums(np.abs(self.samples[block])[by_level], starts)
                for column, part in zip(weights, sums):
                    column[low:high] = part
                first = last
            self._weights = (index, level_offsets, tuple(map(frozen, weights)))
        return self._weights[2]

    def _check_compatible(self, other: "SpectralField"):
        if self.grid != other.grid:
            raise GridError(f"incompatible grids: {self.grid} vs {other.grid}")

    # Overflow to inf or nan is not warned about: `_own` rejects the
    # non-finite result of an unflagged field with a ValueError.
    def __add__(self, other):
        self._check_compatible(other)
        with np.errstate(over="ignore", invalid="ignore"):
            samples = self.samples + other.samples
        return SpectralField._adopt(self.grid, samples, self.overflow or other.overflow)

    def __sub__(self, other):
        self._check_compatible(other)
        with np.errstate(over="ignore", invalid="ignore"):
            samples = self.samples - other.samples
        return SpectralField._adopt(self.grid, samples, self.overflow or other.overflow)

    def __mul__(self, scalar):
        with np.errstate(over="ignore", invalid="ignore"):
            samples = self.samples * complex(scalar)
        return SpectralField._adopt(self.grid, samples, self.overflow)

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralField._adopt(self.grid, -self.samples, self.overflow)

    def __repr__(self):
        return f"SpectralField({self.grid!r}, overflow={self.overflow})"


def ones(grid: FrequencyGrid) -> SpectralField:
    return SpectralField._adopt(grid, np.ones(grid.node_count, dtype=np.complex128))


def gaussian_hat(grid: FrequencyGrid) -> SpectralField:
    """``exp(-|xi|^2)``, formed a block of rows at a time, with no grid-sized radii."""
    samples = np.empty(grid.node_count, dtype=np.complex128)
    for nodes, positions in grid.shells().rows():
        xi = grid.coordinates(nodes)
        r2 = xi[0] ** 2 if grid.n == 1 else xi[0] ** 2 + xi[1] ** 2
        values = np.zeros(r2.size, dtype=np.complex128)
        np.exp(np.negative(r2, out=r2), out=values.real)
        samples[positions] = values
    return SpectralField._adopt(grid, samples)


def delta(grid: FrequencyGrid, at=0.0) -> SpectralField:
    """Unit sample at the node nearest to ``at``, zero elsewhere."""
    node = int(np.ravel_multi_index(grid.nearest_node(at), grid.shape))
    samples = np.zeros(grid.node_count, dtype=np.complex128)
    for nodes, positions in grid.shells().rows():
        if node < nodes.stop:
            samples[positions[node - nodes.start]] = 1.0
            break
    return SpectralField._adopt(grid, samples)


def random_field(grid: FrequencyGrid, rng: np.random.Generator) -> SpectralField:
    """Standard normal real and imaginary parts, drawn in grid order as ever."""
    re = rng.standard_normal(grid.node_count)
    im = rng.standard_normal(grid.node_count)
    samples = np.empty(grid.node_count, dtype=np.complex128)
    for nodes, positions in grid.shells().rows():
        samples[positions] = re[nodes] + 1j * im[nodes]
    return SpectralField._adopt(grid, samples)


def seminorm(u: SpectralField, j: int) -> float:
    """Weighted l2 norm of the samples inside ball j.

    Midpoint quadrature: ``sqrt(h^n * sum_{|xi| <= j} |u(xi)|^2)``, boundary
    nodes included.  For the constant-one field in 1-D the square equals
    ``2 j + h``, so the quadrature gap to the exact integral is exactly h.
    The value is entry j of `seminorm_profile`: the first call on a field
    computes its whole profile, and every later call reads it.
    """
    j = u.grid.check_ball_index(j)
    return u._ball_profile()[j - 1]


def seminorm_profile(u: SpectralField) -> np.ndarray:
    """All ball seminorms ``(p_1, ..., p_J)``; nondecreasing in j.

    The profile is computed once per field and kept with it; each call
    returns a fresh array.
    """
    return np.array(u._ball_profile())


def _combine_parts(parts, weight: float) -> list:
    """`_combine_norms` of the per-block `_scaled_sums` of consecutive shells."""
    if len(parts) > 1:
        parts = [tuple(np.concatenate(columns) for columns in zip(*parts))]
    return _combine_norms(*parts[0], weight)


def _scaled_sums(magnitudes: np.ndarray, offsets: np.ndarray) -> tuple:
    """Per group: its peak, the exponent e of its scale ``2^e``, and its scaled sum of squares.

    Group g is ``magnitudes[offsets[g]:offsets[g + 1]]`` and must not be
    empty; ``magnitudes`` is overwritten.  ``2^e`` is at or above the
    group's peak, and the sum is taken in units of ``4^e``, as in LAPACK
    ``dlassq``, so no square exceeds 1.  A group with an inf or NaN peak
    keeps the scale 1, and its sum, which may overflow, is never read.

    Each magnitude m is scaled by ``ldexp(m, -e)``, the correctly rounded
    ``m 2^-e``: the bits of the one product by ``2^-e``, also where
    ``2^-e`` is subnormal (e = 1023 and 1024, peaks near `OVERFLOW_LIMIT`
    and DBL_MAX), without a subnormal operand, which would make a product
    many times slower (Anderson, *Algorithm 978: Safe Scaling in the Level 1
    BLAS*, 2017).  The per-node exponents are int16, so the scaling holds
    2 bytes per node beside the magnitudes.
    """
    starts = offsets[:-1]
    peaks = np.maximum.reduceat(magnitudes, starts)
    exponents = _scale_exponents(peaks)
    np.ldexp(magnitudes, np.repeat(-exponents, np.diff(offsets)), out=magnitudes)
    with np.errstate(over="ignore"):
        sums = np.add.reduceat(np.square(magnitudes, out=magnitudes), starts)
    return peaks, exponents, sums


def _scale_exponents(peaks: np.ndarray) -> np.ndarray:
    """Per group, the exponent e of the scale ``2^e`` of `_scaled_sums` (int16): at or above
    its peak, and at least -1021, so groups of subnormal samples scale up exactly."""
    return np.maximum(np.frexp(peaks)[1], _MIN_SCALE_EXPONENT).astype(np.int16)


def _combine_norms(peaks, exponents, sums, weight: float) -> list:
    """``sqrt(weight * sum of squares)`` over the first 1, 2, ... groups of `_scaled_sums`.

    The groups are combined in order, the running total kept in units of
    the largest scale so far.  Every scale is a power of two, so scaling
    and rescaling are exact.  Hence a huge sample in a later group cannot
    underflow an earlier one, rounding is monotone from one group to the
    next (the norms are nondecreasing by construction), and an inf or NaN
    sample makes its group's norm and every later one infinite.
    """
    norms = []
    top, total = _MIN_SCALE_EXPONENT, 0.0
    for peak, exponent, group_total in zip(peaks.tolist(), exponents.tolist(), sums.tolist()):
        if not peak < math.inf:
            break
        if peak > 0.0:
            if exponent > top:
                total = math.ldexp(total, 2 * (top - exponent)) + group_total
                top = exponent
            else:
                total += math.ldexp(group_total, 2 * (exponent - top))
        try:
            norms.append(math.ldexp(math.sqrt(weight * total), top))
        except OverflowError:  # the seminorm of a saturated field may be inf
            norms.append(math.inf)
    return norms + [math.inf] * (peaks.size - len(norms))


def metric(u: SpectralField, v: SpectralField) -> float:
    """Series metric ``sum_{j<=J} 2^-j q_j/(1+q_j)`` of the difference.

    The series is truncated at the grid radius J; the omitted tail is
    bounded by ``2^-J``.  Values lie in ``[0, 1 - 2^-J]``.
    """
    u._check_compatible(v)
    q = seminorm_profile(u - v)
    ratio = np.where(np.isinf(q), 1.0, q / (1.0 + q))
    weights = 0.5 ** np.arange(1, u.grid.J + 1)
    return float(np.sum(weights * ratio))


def project(u: SpectralField, j: int) -> SpectralField:
    """Canonical projection onto the ball-j quotient ``X / ker p_j``.

    A coset has exactly one member that vanishes outside ball j, and this
    returns it: u's samples, bit for bit, inside ball j and 0 outside, with
    u's overflow flag.  In shell order that keeps the prefix of ball j and
    zeroes the rest.  So ``seminorm(project(u, j), i) == seminorm(u, i)``
    for every ``i <= j``, and restriction to ball ``i <= j`` is
    ``project(., i)``.
    """
    end = int(u.grid.shells().offsets[u.grid.check_ball_index(j)])
    samples = np.zeros(u.grid.node_count, dtype=np.complex128)
    samples[:end] = u.samples[:end]
    return SpectralField._adopt(u.grid, samples, u.overflow, checked=True)


def mask_outside(u: SpectralField, j: int) -> SpectralField:
    """Zero the samples inside ball j (a prefix); the result has ``seminorm(., j) == 0``."""
    samples = u.samples.copy()
    samples[: int(u.grid.shells().offsets[u.grid.check_ball_index(j)])] = 0.0
    return SpectralField._adopt(u.grid, samples, u.overflow)


@dataclass(frozen=True, eq=False)
class LevelFactor:
    """One flow's factor at one time, ``exp(log_magnitude) * phase`` per level.

    Level k is the operator's k-th distinct symbol value, and a node takes
    the factor of its level (see `MultiplierOperator.levels`).  With
    ``flags_blown``, a node carrying data whose bare factor exceeds
    ``exp(709)`` flags the result even where its product is representable:
    the closed form's policy.
    """

    log_magnitude: np.ndarray
    phase: np.ndarray
    flags_blown: bool = False


@dataclass(frozen=True, eq=False)
class Product:
    """One `saturated_product` pass: per flow name, what a solve reads of a time."""

    profiles: dict                  # name -> ball profile (p_1, ..., p_J)
    overflow: dict                  # name -> whether the name's result is flagged
    residual: Optional[np.ndarray]  # two flows: the profile of their difference
    field: Optional[SpectralField]  # the kept flow's result, or None


def frozen(values: np.ndarray) -> np.ndarray:
    """``values``, made read-only."""
    values.setflags(write=False)
    return values


def saturated_product(factors: dict, u: SpectralField, index: np.ndarray,
                      level_offsets: np.ndarray, keep=None):
    """Multiply each flow's factor onto a field, saturating, in one pass.

    ``factors`` maps flow names to a `LevelFactor`, or to None for the
    identity (t = 0, whose samples are ``u``'s, bitwise); ``index`` and
    ``level_offsets`` are the operator's level index and shell ranges
    (`MultiplierOperator.levels`), read as they are held.  Returns
    ``(product, flagged)``: the `Product` holds each flow's ball profile
    and overflow flag, the profile of the two flows' difference when there
    are two, and the field of flow ``keep`` (its profile cached with it);
    ``flagged`` says whether a flow saturated a node.  No other grid-sized
    array is formed.

    The pass walks the blocks of `ShellIndex.blocks`, each a contiguous
    range of ``u``'s samples and of the index, and writes the kept flow in
    the same order.  Wherever the factor and product magnitudes are both
    representable the plain product is used (a factor of exactly one keeps
    each value, though not always the sign of a zero part: numpy gives
    (1+0j)(-0-1j) = +0-1j), its factor formed once per level.  Elsewhere
    the value is assembled from ``u``'s `SpectralField.polar` form and its
    magnitude clamped at ``exp(709)``; such nodes flag the flow.  Because
    the clamped value depends only on the product's log magnitude and
    phase, any two evolution paths that agree on those agree exactly on
    saturated nodes.

    Whether a flow, or one block of it, can saturate at all is decided by
    one bound on its largest factor and ``u.peak()`` (with a margin of 1 for
    the rounding of the logarithms).  The nodes outside ball J carry no
    profile, so they are visited only when a flow is kept or can saturate.
    An unflagged flow with a non-finite sample is rejected with ``ValueError``, as
    `SpectralField` rejects it, so the kept field is not checked again: a
    flow that cannot saturate is checked once per level (a finite factor
    times a finite sample is finite below the bound), one that can is
    checked block by block.

    A pass that keeps no field, on an unflagged ``u``, where every flow is a
    factor that cannot saturate and is finite, reads no node: it reduces
    each shell's range of levels of ``u``'s `SpectralField.level_weights`
    (`_level_sums`), and ``flagged`` is False.  Its profiles differ from the
    node pass's in rounding only, since ``|f_l| |u|`` stands for the
    rounded ``|f_l u|`` and the sums are taken in another order: by at
    most 2.6 eps relative over 11,000 random cases (`tests/test_shells.py`
    bounds it by 8).  The residual is formed from ``f_a - f_b`` per level,
    without the rounding of the two products: it moved by at most 0.8 eps
    times the flows' profile (bounded by 4).
    """
    grid = u.grid
    with np.errstate(divide="ignore"):
        log_peak = float(np.log(u.peak()))
    flows = {name: _FlowPass(factor, log_peak, check=not u.overflow)
             for name, factor in factors.items()}
    if keep is None and not u.overflow and all(
            flow.factor is not None and flow.representable and flow.finite
            for flow in flows.values()):
        return _level_product(flows, u, index, level_offsets), False
    kept = None if keep is None else np.empty(grid.node_count, dtype=np.complex128)
    two_flows = len(flows) == 2
    differences = []
    for block, offsets in grid.shells().blocks(outside=True):
        # numpy gathers through intp indices about half again as fast as int32
        levels = index[block].astype(np.intp)
        # outside ball J a flow that is not kept matters only if it can flag
        block_values = {name: flow.apply(u, block, levels) for name, flow in flows.items()
                        if offsets is not None or name == keep or not flow.representable}
        if offsets is not None:
            for name, flow in flows.items():
                flow.parts.append(_scaled_sums(np.abs(block_values[name]), offsets))
        if kept is not None:
            kept[block] = block_values[keep]
        if two_flows and offsets is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                difference = np.abs(np.subtract(*block_values.values()))
            differences.append(_scaled_sums(difference, offsets))

    weight = grid.cell_volume
    profiles = {name: np.array(_combine_parts(flow.parts, weight)) for name, flow in flows.items()}
    overflow = {name: flow.overflow(u) for name, flow in flows.items()}
    field = None
    if kept is not None:
        field = SpectralField._adopt(grid, kept, overflow[keep], checked=True)
        field._profile = tuple(profiles[keep].tolist())
    product = Product(
        profiles=profiles,
        overflow=overflow,
        residual=np.array(_combine_parts(differences, weight)) if two_flows else None,
        field=field,
    )
    return product, any(flow.flagged for flow in flows.values())


def _level_product(flows: dict, u: SpectralField, index: np.ndarray,
                   offsets: np.ndarray) -> Product:
    """The `Product` of flows that keep no field and cannot saturate, from u's weights per
    level of ``index``, whose shell ranges are ``offsets``."""
    grid = u.grid
    weights = u.level_weights(index, offsets)
    ball = int(offsets[grid.J])
    values = [flow.level_values[:ball] for flow in flows.values()]

    def profile(magnitudes):
        return np.array(_combine_norms(*_level_sums(magnitudes, weights, offsets),
                                       grid.cell_volume))

    return Product(
        profiles={name: profile(np.abs(level_values))
                  for name, level_values in zip(flows, values)},
        overflow={name: flow.overflow(u) for name, flow in flows.items()},
        residual=profile(np.abs(np.subtract(*values))) if len(values) == 2 else None,
        field=None,
    )


def _level_sums(magnitudes, weights, offsets) -> tuple:
    """`_scaled_sums` of shells 1..J of the field ``f u``, with ``|f| = magnitudes`` per level.

    ``weights`` are u's `SpectralField.level_weights` over the J + 2
    ``offsets``.  Per shell j, the peak is the largest ``|f_l|``
    times the level's peak of ``|u|``, e its scale exponent, and the sum
    ``sum_l (|f_l| 2^(e_l - e))^2 W_l`` over the shell's levels.  Each
    ``|f_l| 2^(e_l - e)`` is below 2 (below 2^53 where u is subnormal on the
    level), formed by an exact ``ldexp`` where it is normal; a level with no
    data adds nothing, however large its factor.
    """
    peaks_u, exponents_u, weights_u = weights
    J = offsets.size - 2
    starts = offsets[:J]
    peaks = np.maximum.reduceat(magnitudes * peaks_u, starts)
    exponents = _scale_exponents(peaks)
    shifts = exponents_u - np.repeat(exponents, np.diff(offsets[: J + 1]))
    scaled = np.ldexp(np.where(peaks_u > 0.0, magnitudes, 0.0), shifts)
    sums = np.add.reduceat(np.square(scaled, out=scaled) * weights_u, starts)
    return peaks, exponents, sums


class _FlowPass:
    """One flow's state through the blocks of a `saturated_product` pass."""

    def __init__(self, factor: Optional[LevelFactor], log_peak: float, check: bool):
        self.factor = factor
        self.log_peak = log_peak
        self.parts = []
        self.flagged = self.blown = False
        self.representable = True
        # whether the samples are finite: decided per level for a flow that
        # cannot saturate, and looked for block by block (`check`) otherwise
        self.finite = True
        self.check = False
        if factor is not None:
            self.representable = self._representable(np.max(factor.log_magnitude))
            with np.errstate(over="ignore", invalid="ignore"):
                self.level_values = (np.exp(factor.log_magnitude) * factor.phase).astype(
                    np.complex128, copy=False)
            if check and self.representable:
                self.finite = bool(np.all(np.isfinite(self.level_values)))
            self.check = check and not self.representable

    def _representable(self, factor_log) -> bool:
        factor_log = float(factor_log)
        return (factor_log <= OVERFLOW_EXPONENT
                and factor_log + self.log_peak <= OVERFLOW_EXPONENT - 1.0)

    def apply(self, u: SpectralField, block: slice, levels: np.ndarray) -> np.ndarray:
        """The flow's samples on a block of ``u``, whose level index is ``levels`` (intp)."""
        samples = u.samples[block]
        if self.factor is None:
            return samples
        clamped, assembled = (None, None) if self.representable else self._saturate(
            u, block, levels)
        if isinstance(clamped, slice):  # every node clamps
            values = assembled
        else:
            # overflowing factors and products are overwritten by the clamped values
            with np.errstate(over="ignore", invalid="ignore"):
                values = self.level_values[levels]
                np.multiply(values, samples, out=values)
            if clamped is not None:
                values[clamped] = assembled
        if self.check and self.finite and not self.flagged:
            self.finite = bool(np.all(np.isfinite(values)))
        return values

    def _saturate(self, u: SpectralField, block: slice, levels):
        """``(clamped, values)``: the block's nodes that are not representable (a slice if
        all are, None if none can be), assembled in log-magnitude/phase form."""
        node_log = self.factor.log_magnitude[levels]
        if self._representable(np.max(node_log)):
            return None, None
        log_u, u_phase = (part[block] for part in u.polar())
        if self.factor.flags_blown and not self.blown:
            # log |u| > -inf exactly where |u| > 0
            self.blown = bool(np.any((node_log > OVERFLOW_EXPONENT) & (log_u > -np.inf)))
        with np.errstate(invalid="ignore"):  # inf + -inf: a NaN log, clamped below
            total_log = node_log + log_u
        # NaN in either log is clamped, as `not (a <= 709 and b <= 709)` would
        clamped = ~(np.maximum(node_log, total_log) <= OVERFLOW_EXPONENT)
        # a whole clamped block is read through views, not fancy indexing
        clamped = slice(None) if clamped.all() else np.flatnonzero(clamped)
        # the clamped nodes' arrays are formed with the block's released
        del node_log
        total_log = total_log[clamped]
        saturated = total_log > OVERFLOW_EXPONENT
        self.flagged = self.flagged or bool(np.any(saturated))
        # exp(709) is OVERFLOW_LIMIT bit for bit, so only the rest needs exp
        # (a NaN log keeps exp's NaN)
        assembled = np.full(total_log.size, OVERFLOW_LIMIT)
        below = ~saturated
        assembled[below] = np.exp(total_log[below])
        del total_log, saturated, below
        assembled = assembled * self.factor.phase[levels[clamped]]
        return clamped, assembled * u_phase[clamped]

    def overflow(self, u: SpectralField) -> bool:
        if not (u.overflow or self.flagged or self.finite):
            raise ValueError("non-finite samples in an unflagged field")
        return u.overflow or self.flagged or self.blown
