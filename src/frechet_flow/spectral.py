"""Discrete frequency-side model of locally square-integrable spectra.

Fields live on a uniform grid over the square ``[-J, J]^n`` of frequency
space (n = 1 or 2).  The nested Euclidean balls ``B[0, j]``, ``1 <= j <= J``,
carry the seminorm family: ``seminorm(u, j)`` is the weighted l2 norm of the
samples inside ball j, a midpoint quadrature of the integral of ``|u|^2``
over the ball.  The family is nondecreasing in j and induces the standard
series metric ``sum 2^-j q_j / (1 + q_j)`` (truncated at j = J; the omitted
tail is below ``2^-J``).

Ball membership is decided in exact integer arithmetic on the node indices,
so boundary nodes with ``|xi| = j`` are always included and restriction maps
copy samples bitwise.  Every node carries its shell number, the smallest j
with ``|xi| <= j``, so ball j is the union of shells 1..j.  The grid's
`ShellIndex` (built on first use, shared by equal grids) lists the nodes of
ball J sorted by shell; every per-ball quantity is then one gathered pass
over the nodes with one reduction per shell, followed by a scan over the J
shells (running maxima, or for the seminorms the scaled sums of squares of
LAPACK ``dlassq`` combined shell by shell).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Refuse grids whose node count would make dense complex storage unreasonable.
NODE_BUDGET = 1 << 22

# Magnitudes above exp(709) are saturated and flagged instead of overflowing.
OVERFLOW_EXPONENT = 709.0
OVERFLOW_LIMIT = float(np.exp(OVERFLOW_EXPONENT))

# Smallest power-of-two exponent used to scale a sum of squares; 2^1021 is
# still finite, so shells of subnormal samples scale up exactly.
_MIN_SCALE_EXPONENT = -1021


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
        if n == 1:
            self._radius2_index = self.axis_index**2
        else:
            self._radius2_index = (
                self.axis_index[:, None] ** 2 + self.axis_index[None, :] ** 2
            )

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

    def ball_mask(self, j: int) -> np.ndarray:
        """Boolean mask of nodes with Euclidean norm <= j (ties included)."""
        j = self.check_ball_index(j)
        return self.shells().shell <= j

    def node_points(self) -> np.ndarray:
        """Node coordinates in row-major order, shape (node_count, n)."""
        if self.n == 1:
            return self.axis[:, None]
        g1, g2 = np.meshgrid(self.axis, self.axis, indexing="ij")
        return np.stack([g1.ravel(), g2.ravel()], axis=1)

    def index_arrays(self) -> tuple[np.ndarray, ...]:
        """Integer node index along each axis, broadcast to grid shape."""
        if self.n == 1:
            return (self.axis_index,)
        return (
            np.broadcast_to(self.axis_index[:, None], self.shape),
            np.broadcast_to(self.axis_index[None, :], self.shape),
        )

    def nearest_node(self, point) -> tuple[int, ...]:
        point = np.atleast_1d(np.asarray(point, dtype=float))
        if point.size != self.n:
            raise GridError(f"point has dimension {point.size}, grid has {self.n}")
        lim = self.J * self.inv_h
        idx = np.clip(np.rint(point * self.inv_h).astype(np.int64), -lim, lim)
        return tuple(int(k) + lim for k in idx)


def make_grid(n: int, J: int, h: float) -> FrequencyGrid:
    """Build the grid covering ``[-J, J]^n`` with spacing h (1/h integer)."""
    inv = 1.0 / float(h) if h > 0 else 0.0
    if not (h > 0 and abs(inv - round(inv)) <= 1e-9 * max(1.0, inv)):
        raise GridError(f"spacing h must satisfy 1/h integer, got h={h!r}")
    return FrequencyGrid(n, J, int(round(inv)))


@dataclass(frozen=True, eq=False)
class ShellIndex:
    """Nodes of a grid grouped by shell ``j - 1 < |xi| <= j`` (shell 1 holds ``xi = 0``).

    ``shell`` is the grid-shaped shell number of every node (J + 1 outside
    ball J), ``order`` the flat indices of the nodes of ball J sorted by
    shell and row-major within a shell, and shell j is
    ``order[offsets[j - 1]:offsets[j]]``.  No shell 1..J is empty: the axis
    node at ``|xi| = j`` lies in shell j.
    """

    shell: np.ndarray
    order: np.ndarray
    offsets: np.ndarray

    def gather(self, values, j: int) -> np.ndarray:
        """Samples of ball j as a flat array grouped by shell."""
        return np.ravel(values)[self.order[: self.offsets[j]]]

    def reduce(self, ufunc, values) -> np.ndarray:
        """``ufunc`` reduction of ``values`` over each of the shells 1..J."""
        return ufunc.reduceat(self.gather(values, self.offsets.size - 1), self.offsets[:-1])


@functools.lru_cache(maxsize=4)
def _shell_index(n: int, J: int, inv_h: int) -> ShellIndex:
    # Keyed by the grid parameters, so no grid instance is kept alive; an
    # entry holds one byte per node (shell) and four per node of ball J
    # (order), about 20 MB at the node budget.
    # shell = smallest j with r2 <= (j inv_h)^2, i.e. max(1, ceil(|k| / inv_h)),
    # found by an exact integer search over the J squared radii
    grid = FrequencyGrid(n, J, inv_h)
    radii2 = (np.arange(1, J + 1, dtype=np.int64) * inv_h) ** 2
    shell = np.searchsorted(radii2, grid._radius2_index) + 1
    shell = shell.astype(np.min_scalar_type(J + 1))
    shell.setflags(write=False)
    counts = np.bincount(shell.ravel(), minlength=J + 1)
    offsets = np.cumsum(counts[: J + 1])
    # NODE_BUDGET is 2^22, so every flat index fits in int32
    order = np.argsort(shell.ravel(), kind="stable")[: offsets[-1]].astype(np.int32)
    offsets.setflags(write=False)
    order.setflags(write=False)
    return ShellIndex(shell=shell, order=order, offsets=offsets)


class SpectralField:
    """Complex samples of a spectrum on a :class:`FrequencyGrid`.

    Values are immutable after construction.  ``overflow`` marks fields
    produced by a saturated evolution; only then may samples sit at the
    saturation magnitude.
    """

    __slots__ = ("grid", "values", "overflow")

    def __init__(self, grid: FrequencyGrid, values, overflow: bool = False):
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != grid.shape:
            raise GridError(
                f"values shape {values.shape} does not match grid shape {grid.shape}"
            )
        if not overflow and not np.all(np.isfinite(values)):
            raise ValueError("non-finite samples in an unflagged field")
        values = values.copy()
        values.setflags(write=False)
        self.grid = grid
        self.values = values
        self.overflow = bool(overflow)

    def _check_compatible(self, other: "SpectralField"):
        if self.grid != other.grid:
            raise GridError(f"incompatible grids: {self.grid} vs {other.grid}")

    def __add__(self, other):
        self._check_compatible(other)
        return SpectralField(
            self.grid, self.values + other.values, self.overflow or other.overflow
        )

    def __sub__(self, other):
        self._check_compatible(other)
        return SpectralField(
            self.grid, self.values - other.values, self.overflow or other.overflow
        )

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.values * complex(scalar), self.overflow)

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralField(self.grid, -self.values, self.overflow)

    def __repr__(self):
        return f"SpectralField({self.grid!r}, overflow={self.overflow})"


def ones(grid: FrequencyGrid) -> SpectralField:
    return SpectralField(grid, np.ones(grid.shape, dtype=np.complex128))


def zero(grid: FrequencyGrid) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.shape, dtype=np.complex128))


def gaussian_hat(grid: FrequencyGrid) -> SpectralField:
    if grid.n == 1:
        r2 = grid.axis**2
    else:
        r2 = grid.axis[:, None] ** 2 + grid.axis[None, :] ** 2
    return SpectralField(grid, np.exp(-r2).astype(np.complex128))


def delta(grid: FrequencyGrid, at=0.0) -> SpectralField:
    """Unit sample at the node nearest to ``at``, zero elsewhere."""
    values = np.zeros(grid.shape, dtype=np.complex128)
    values[grid.nearest_node(at)] = 1.0
    return SpectralField(grid, values)


def random_field(grid: FrequencyGrid, rng: np.random.Generator) -> SpectralField:
    re = rng.standard_normal(grid.shape)
    im = rng.standard_normal(grid.shape)
    return SpectralField(grid, re + 1j * im)


def seminorm(u: SpectralField, j: int) -> float:
    """Weighted l2 norm of the samples inside ball j.

    Midpoint quadrature: ``sqrt(h^n * sum_{|xi| <= j} |u(xi)|^2)``, boundary
    nodes included.  For the constant-one field in 1-D the square equals
    ``2 j + h``, so the quadrature gap to the exact integral is exactly h.
    The value is entry j of `seminorm_profile`.
    """
    j = u.grid.check_ball_index(j)
    return _ball_seminorms(u, j)[-1]


def seminorm_profile(u: SpectralField) -> np.ndarray:
    """All ball seminorms ``(p_1, ..., p_J)``; nondecreasing in j."""
    return np.array(_ball_seminorms(u, u.grid.J))


def _ball_seminorms(u: SpectralField, j: int) -> list:
    """``[p_1(u), ..., p_j(u)]`` from one pass over the nodes of ball j."""
    index = u.grid.shells()
    magnitudes = index.gather(np.abs(u.values), j)
    return _cumulative_norms(magnitudes, index.offsets[: j + 1], u.grid.cell_volume)


def _cumulative_norms(magnitudes: np.ndarray, offsets: np.ndarray, weight: float) -> list:
    """``sqrt(weight * sum of squares)`` over the first 1, 2, ... groups.

    Group g is ``magnitudes[offsets[g]:offsets[g + 1]]`` and must not be
    empty; ``magnitudes`` is overwritten.  A scaled sum of squares as in
    LAPACK ``dlassq``: each group is summed in units of ``4^e`` with ``2^e``
    at or above its peak, and the groups are combined in order, the running
    total kept in units of the largest such scale so far.  Every scale is a
    power of two, so scaling and rescaling are exact.  Hence no square
    exceeds 1, a huge sample in a later group cannot underflow an earlier
    one, rounding is monotone from one group to the next (the norms are
    nondecreasing by construction), and an inf or NaN sample makes its
    group's norm and every later one infinite.
    """
    starts = offsets[:-1]
    peaks = np.maximum.reduceat(magnitudes, starts)
    exponents = np.clip(np.frexp(peaks)[1], _MIN_SCALE_EXPONENT, None)
    magnitudes *= np.repeat(np.ldexp(1.0, -exponents), np.diff(offsets))
    sums = np.add.reduceat(np.square(magnitudes, out=magnitudes), starts)
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
    return norms + [math.inf] * (starts.size - len(norms))


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


@dataclass(frozen=True)
class QuotientElement:
    """Restriction of a field to ball j, with its quotient norm.

    ``coords`` holds the integer node indices (units of h) in row-major
    order and ``values`` the corresponding samples; ``norm`` equals the
    ball-j quadrature of those samples.
    """

    n: int
    inv_h: int
    j: int
    coords: np.ndarray
    values: np.ndarray
    norm: float

    def __post_init__(self):
        self.coords.setflags(write=False)
        self.values.setflags(write=False)

    def points(self) -> np.ndarray:
        return self.coords / float(self.inv_h)


def project(u: SpectralField, j: int) -> QuotientElement:
    """Canonical projection onto the ball-j quotient (samples restricted)."""
    j = u.grid.check_ball_index(j)
    mask = u.grid.ball_mask(j)
    idx = u.grid.index_arrays()
    coords = np.stack([axis[mask] for axis in idx], axis=1)
    return QuotientElement(
        n=u.grid.n,
        inv_h=u.grid.inv_h,
        j=j,
        coords=coords,
        values=u.values[mask].copy(),
        norm=seminorm(u, j),
    )


def restrict(q: QuotientElement, j: int) -> QuotientElement:
    """Restriction map from the ball-``q.j`` quotient to ball j <= q.j.

    Samples are copied bitwise, so restriction composes exactly with
    projection: ``restrict(project(u, j+1), j) == project(u, j)``.  The
    norm is a power-of-two-scaled sum of squares, finite wherever the
    seminorm is, and within a few ulp of ``project(u, j).norm`` (the sum
    runs in node order rather than shell by shell).
    """
    if not 1 <= j <= q.j:
        raise GridError(f"restriction needs 1 <= j <= {q.j}, got {j}")
    inside = np.sum(q.coords**2, axis=1) <= (j * q.inv_h) ** 2
    values = q.values[inside].copy()
    weight = (1.0 / q.inv_h) ** q.n
    norm = _cumulative_norms(np.abs(values), np.array([0, values.size]), weight)[0]
    return QuotientElement(
        n=q.n, inv_h=q.inv_h, j=int(j), coords=q.coords[inside].copy(),
        values=values, norm=norm,
    )


def embed(q: QuotientElement, grid: FrequencyGrid) -> SpectralField:
    """Extend a quotient element by zero to a full-grid field."""
    if q.n != grid.n or q.inv_h != grid.inv_h or q.j > grid.J:
        raise GridError("quotient element does not fit the grid")
    values = np.zeros(grid.shape, dtype=np.complex128)
    lim = grid.J * grid.inv_h
    pos = tuple((q.coords[:, k] + lim) for k in range(grid.n))
    values[pos] = q.values
    return SpectralField(grid, values)


def mask_outside(u: SpectralField, j: int) -> SpectralField:
    """Zero the samples inside ball j; the result has ``seminorm(., j) == 0``."""
    mask = u.grid.ball_mask(j)
    return SpectralField(u.grid, np.where(mask, 0.0, u.values), u.overflow)


def saturated_product(log_magnitude, phase, u: SpectralField):
    """Multiply ``exp(log_magnitude) * phase`` onto a field, saturating.

    Wherever the factor and product magnitudes are both representable the
    plain product is used (so a factor of exactly one is the identity,
    bitwise).  Elsewhere the value is assembled in log-magnitude/phase form
    and its magnitude clamped at ``exp(709)``; such nodes flag the result.
    Because the clamped value depends only on the product's log magnitude
    and phase, any two evolution paths that agree on those agree exactly on
    saturated nodes.  When every node is representable, which one bound on
    the largest factor and the largest sample decides (with a margin of 1
    for the rounding of the logarithms), the plain product is all there is.
    """
    u_magnitude = np.abs(u.values)
    factor_log = np.max(log_magnitude)
    with np.errstate(divide="ignore"):
        product_log = factor_log + np.log(np.max(u_magnitude))
    if factor_log <= OVERFLOW_EXPONENT and product_log <= OVERFLOW_EXPONENT - 1.0:
        values = (np.exp(log_magnitude) * phase) * u.values
        return SpectralField(u.grid, values, u.overflow), False
    with np.errstate(divide="ignore"):
        log_u = np.where(u_magnitude > 0.0, np.log(u_magnitude), -np.inf)
    total_log = log_magnitude + log_u
    direct_ok = (log_magnitude <= OVERFLOW_EXPONENT) & (total_log <= OVERFLOW_EXPONENT)
    # phase extraction via angle: robust down to subnormal samples
    u_phase = np.where(u_magnitude > 0.0, np.exp(1j * np.angle(u.values)), 0.0)
    values = np.exp(np.minimum(total_log, OVERFLOW_EXPONENT)) * phase * u_phase
    factor = np.exp(np.where(direct_ok, log_magnitude, 0.0)) * phase
    with np.errstate(invalid="ignore"):  # inf samples off direct_ok give NaN
        values[direct_ok] = (factor * u.values)[direct_ok]
    saturated = total_log > OVERFLOW_EXPONENT
    flagged = bool(np.any(saturated))
    return SpectralField(u.grid, values, u.overflow or flagged), flagged
