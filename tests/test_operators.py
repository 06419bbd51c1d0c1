import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frechet_flow.operators import (
    MultiplierOperator,
    ReflectionOperator,
    _level_table,
    check_strong_compatibility,
    compatibility_samples,
    continuum_seminorm_bound,
    sharpness_field,
    verify_power_bound,
)
from frechet_flow.spectral import (
    FrequencyGrid,
    mask_outside,
    ones,
    random_field,
    seminorm,
    shell_numbers,
)
from frechet_flow.symbols import (
    PolynomialSymbol,
    SymbolError,
    diffop_to_symbol,
    heat_symbol,
    parse_symbol,
    transport_symbol,
)

from oracle import ball_mask, random_polynomial, symbol_values

PI = math.pi
REL = 1e-12
ONE = PolynomialSymbol(1, {(0,): 1.0})


@pytest.fixture
def heat_op(grid):
    return MultiplierOperator(heat_symbol(), grid)


def test_apply_zero_symbol_gives_zero_field(grid, rng):
    op = MultiplierOperator(parse_symbol("0*xi"), grid)
    out = op.apply(random_field(grid, rng))
    assert np.all(out.values == 0)


def test_apply_unit_symbol_is_identity(grid, rng):
    op = MultiplierOperator(ONE, grid)
    u = random_field(grid, rng)
    assert np.array_equal(op.apply(u).values, u.values)


def test_apply_heat_symbol_at_origin(grid, heat_op):
    out = heat_op.apply(ones(grid))
    center = grid.nearest_node(0.0)
    assert out.values[center] == -1.0


def test_cached_values_match_pointwise_evaluation(grid, heat_op):
    poly = heat_symbol()
    for k in (0, 100, 256, 512):
        assert symbol_values(heat_op)[k] == pytest.approx(
            poly.eval([grid.axis[k]]), rel=1e-14
        )


def test_operator_seminorm_values(grid, heat_op):
    assert heat_op.seminorm(1) == pytest.approx(1 + 4 * PI**2, rel=REL)
    transport = MultiplierOperator(transport_symbol(), grid)
    assert transport.seminorm(2) == pytest.approx(4 * PI, rel=REL)
    ident = MultiplierOperator(ONE, grid)
    for j in range(1, grid.J + 1):
        assert ident.seminorm(j) == 1.0


def test_operator_seminorm_is_nondecreasing(grid, heat_op):
    values = np.array([heat_op.seminorm(j) for j in range(1, grid.J + 1)])
    assert values.shape == (grid.J,)
    assert np.all(np.diff(values) >= 0)


def test_seminorm_bound_on_random_fields(grid, heat_op, rng):
    for _ in range(200):
        u = random_field(grid, rng)
        for j in (1, 4, 8):
            lhs = seminorm(heat_op.apply(u), j)
            rhs = heat_op.seminorm(j) * seminorm(u, j)
            assert lhs <= rhs * (1 + REL)


def test_bound_sharpness_attained_by_delta_field(grid, heat_op):
    for j in (1, 3, 8):
        u = sharpness_field(heat_op, j)
        lhs = seminorm(heat_op.apply(u), j)
        rhs = heat_op.seminorm(j) * seminorm(u, j)
        assert lhs == pytest.approx(rhs, rel=REL)


def test_power_bound_heat_square(grid, heat_op):
    lhs, rhs = verify_power_bound(heat_op, 2, 1)
    assert lhs <= rhs * (1 + REL)
    assert lhs == pytest.approx((1 + 4 * PI**2) ** 2, rel=1e-9)
    assert rhs == pytest.approx((1 + 4 * PI**2) ** 2, rel=1e-9)


def test_power_bound_identity(grid):
    for k in (1, 2, 5):
        assert verify_power_bound(MultiplierOperator(ONE, grid), k, 3) == (1.0, 1.0)


@pytest.mark.parametrize("n, text", [
    (1, "-(1+4*pi^2*xi^2)"), (1, "2*pi*i*xi"),
    (2, "-(1+4*pi^2*(xi1^2+xi2^2))"), (2, "2*pi*i*xi1 + xi2^3"),
])
def test_the_power_bound_is_the_max_of_the_repeated_nodewise_product(n, text):
    grid = FrequencyGrid(n, 8, 32) if n == 1 else FrequencyGrid(n, 4, 16)
    op = MultiplierOperator(parse_symbol(text, n), grid)
    values = symbol_values(op)
    expected = values
    for k in range(1, 5):
        for j in range(1, grid.J + 1):
            lhs, rhs = verify_power_bound(op, k, j)
            # both are finite and nonnegative, so equal floats have equal bits
            assert lhs == np.max(np.abs(expected[ball_mask(grid, j)]))
            assert rhs == op.seminorm(j) ** k
        expected = expected * values
    for j in range(1, grid.J + 1):
        # of the nodes that attain the seminorm, the first in row-major order
        first = np.argmax(np.where(ball_mask(grid, j), np.abs(values), -1.0))
        assert op.seminorm_argmax(j) == np.unravel_index(first, grid.shape)


@pytest.mark.parametrize("k", [0, -1, 2.0, 1.5, "2", None])
def test_a_power_that_is_not_an_integer_of_at_least_one_is_refused_in_one_line(grid, heat_op,
                                                                               k):
    message = f"power needs an integer k >= 1, got {k!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        verify_power_bound(heat_op, k, 1)


def test_power_bound_transport_cube(grid):
    op = MultiplierOperator(transport_symbol(), grid)
    lhs, rhs = verify_power_bound(op, 3, 1)
    assert lhs == pytest.approx(8 * PI**3, rel=1e-9)
    assert lhs <= rhs * (1 + REL)


def test_multipliers_commute(grid, heat_op, rng):
    transport = MultiplierOperator(transport_symbol(), grid)
    u = random_field(grid, rng)
    ab = heat_op.apply(transport.apply(u)).values
    ba = transport.apply(heat_op.apply(u)).values
    assert np.max(np.abs(ab - ba)) <= 1e-15 * np.max(np.abs(ab))


def test_multiplier_passes_compatibility_audit(small_grid, rng):
    op = MultiplierOperator(heat_symbol(), small_grid)
    report = check_strong_compatibility(op, compatibility_samples(small_grid, rng))
    assert report.passed
    for row in report.rows:
        assert row.seminorm_is_exact
        assert row.operator_seminorm == op.seminorm(row.j)


def test_identity_compatibility_seminorm_is_one(small_grid, rng):
    report = check_strong_compatibility(
        MultiplierOperator(ONE, small_grid), compatibility_samples(small_grid, rng)
    )
    assert report.passed
    assert all(row.operator_seminorm == 1.0 for row in report.rows)


def test_reflection_fails_compatibility_with_witness(small_grid, rng):
    op = ReflectionOperator(small_grid)
    report = check_strong_compatibility(op, compatibility_samples(small_grid, rng))
    assert not report.passed
    witnesses = [row for row in report.rows if row.witness is not None]
    assert witnesses
    row = witnesses[0]
    # the witness really does break kernel preservation: it vanishes inside
    # ball j yet its image does not
    w = row.witness
    assert seminorm(w, row.j) == 0.0
    assert seminorm(op.apply(w), row.j) > 0.0


def per_ball_audit(op, samples):
    """The compatibility audit written out ball by ball, every image formed
    again where it is read; returns the rows and the kernel test's applies."""
    rows, kernel_applies = [], 0
    exact = isinstance(op, MultiplierOperator)
    for j in range(1, samples[0].grid.J + 1):
        witness, kernel_ok = None, True
        for u in samples:
            outside = mask_outside(u, j)
            kernel_applies += 1
            if seminorm(op.apply(outside), j) != 0.0:
                witness, kernel_ok = outside, False
                break
        if exact:
            pjx = op.seminorm(j)
        else:
            pjx = max([seminorm(op.apply(u), j) / seminorm(u, j)
                       for u in samples if seminorm(u, j) > 0], default=0.0)
        bound_ok = True
        for u in samples:
            if seminorm(op.apply(u), j) > pjx * seminorm(u, j) * (1.0 + 1e-12) + 1e-300:
                bound_ok = False
                witness = u if witness is None else witness
                break
        rows.append((j, pjx, exact, kernel_ok, bound_ok, witness))
    return rows, kernel_applies


@pytest.mark.parametrize("make", [lambda grid: MultiplierOperator(heat_symbol(), grid),
                                  ReflectionOperator], ids=["multiplier", "reflection"])
def test_compatibility_audit_forms_each_image_once(make, rng):
    grid = FrequencyGrid(1, 4, 4)
    samples = compatibility_samples(grid, rng)
    op = make(grid)
    expected, kernel_applies = per_ball_audit(op, samples)
    applied = []
    apply = op.apply

    def counted(u):
        applied.append(u)
        return apply(u)

    op.apply = counted
    report = check_strong_compatibility(op, samples)
    assert len(applied) == len(samples) + kernel_applies
    assert all(image is u for image, u in zip(applied, samples))
    for row, (j, pjx, exact, kernel_ok, bound_ok, witness) in zip(report.rows, expected):
        assert (row.j, row.operator_seminorm, row.seminorm_is_exact, row.kernel_preserved,
                row.bound_holds) == (j, pjx, exact, kernel_ok, bound_ok)
        assert (row.witness is None) == (witness is None)
        if witness is not None:
            assert np.array_equal(bits(row.witness.values), bits(witness.values))
    assert len(report.rows) == len(expected) == grid.J


def test_kernel_preservation_is_exact_for_multipliers(grid, heat_op, rng):
    u = random_field(grid, rng)
    for j in (1, 4, 7):
        outside = mask_outside(u, j)
        assert seminorm(heat_op.apply(outside), j) == 0.0


def test_reflection_moves_mass_inward(small_grid):
    # (Ru)(xi) = u(-2 xi): a sample at xi = 2 is read at xi = -1
    from frechet_flow.spectral import delta

    u = delta(small_grid, 2.0)
    image = ReflectionOperator(small_grid).apply(u)
    nonzero = np.nonzero(image.values)[0]
    assert list(small_grid.axis[nonzero]) == [-1.0]


def test_continuum_bound_dominates_discrete_seminorm(grid, heat_op):
    for j in (1, 4, 8):
        bound = continuum_seminorm_bound(heat_symbol(), j)
        assert heat_op.seminorm(j) <= bound * (1 + 1e-9)
    # a symbol whose modulus peaks strictly inside ball 2 (at xi = sqrt(2),
    # value 4) but on the boundary of ball 3 (at xi = 3, value 45)
    wiggle = parse_symbol("xi^2*(4-xi^2)")
    op = MultiplierOperator(wiggle, grid)
    for j, peak in ((2, 4.0), (3, 45.0)):
        bound = continuum_seminorm_bound(wiggle, j)
        assert op.seminorm(j) <= bound * (1 + 1e-9)
        assert bound == pytest.approx(peak, rel=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_continuum_bound_of_large_coefficients_keeps_its_critical_points():
    # the square of 1e200 xi^2 overflows, so the search runs on coefficients
    # scaled by an exact power of two and evaluates the symbol as given
    assert continuum_seminorm_bound(parse_symbol("-1e200*xi^2+1e200*xi"),
                                    1) == 2e200
    # xi - xi^3 peaks inside ball 1, at xi = 1/sqrt(3)
    small = continuum_seminorm_bound(parse_symbol("xi-xi^3"), 1)
    assert small == pytest.approx(2 / (3 * math.sqrt(3)), rel=1e-12)
    assert continuum_seminorm_bound(parse_symbol("2^664*(xi-xi^3)"),
                                    1) == math.ldexp(small, 664)


@pytest.mark.parametrize("radius", [math.nan, math.inf, -3, -0.5])
def test_continuum_bound_refuses_a_negative_or_non_finite_radius(radius):
    with pytest.raises(ValueError, match="radius must be finite and nonnegative"):
        continuum_seminorm_bound(heat_symbol(), radius)


def test_grid_mismatch_raises(grid, heat_op):
    other = FrequencyGrid(1, 8, 16)
    with pytest.raises(Exception):
        heat_op.apply(ones(other))


def test_two_dimensional_multiplier(rng):
    from frechet_flow.symbols import parse_symbol

    grid2 = FrequencyGrid(2, 2, 4)
    op = MultiplierOperator(
        parse_symbol("-(1+4*pi^2*(xi1^2+xi2^2))", n=2), grid2
    )
    assert op.seminorm(1) == pytest.approx(1 + 4 * PI**2, rel=REL)
    u = random_field(grid2, rng)
    for j in (1, 2):
        lhs = seminorm(op.apply(u), j)
        assert lhs <= op.seminorm(j) * seminorm(u, j) * (1 + REL)


def test_an_operator_is_built_from_a_polynomial_only():
    grid = FrequencyGrid(2, 2, 2)
    text = "xi1+xi2"
    op = MultiplierOperator(parse_symbol(text, 2), grid, label=text)
    assert symbol_values(op)[grid.nearest_node([1.0, 0.5])] == 1.5
    assert repr(op) == f"MultiplierOperator('xi1+xi2', {grid!r})"
    with pytest.raises(TypeError, match="built from a PolynomialSymbol"):
        MultiplierOperator(text, grid)


def test_an_expression_over_the_expansion_budget_is_refused():
    from frechet_flow.symbols import _EXPANSION_TERM_BUDGET

    # 151 * 151 terms in the product of the two expanded factors
    assert 151 * 151 > _EXPANSION_TERM_BUDGET
    with pytest.raises(SymbolError, match="term budget"):
        parse_symbol("(1+xi1)^150*(1+xi2)^150", 2)


# a few values of every kind, so that arrays drawn from them repeat values
EXTREME_COMPONENT = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-320, 1.5,
                     1e300, -1e300, 8.9e307, -8.9e307]),
    st.floats(-1e3, 1e3),
)


@st.composite
def values_on_a_grid(draw):
    n = draw(st.sampled_from([1, 2]))
    grid = FrequencyGrid(n, draw(st.integers(1, 2)), draw(st.integers(1, 3)))
    parts = st.tuples(EXTREME_COMPONENT, EXTREME_COMPONENT)
    pairs = draw(st.lists(parts, min_size=grid.node_count, max_size=grid.node_count))
    return grid, np.array([complex(*pair) for pair in pairs]).reshape(grid.shape)


@settings(max_examples=60, deadline=None)
@given(case=values_on_a_grid())
def test_the_level_table_of_any_values_is_the_reference(case):
    grid, v = case
    levels, inverse, offsets = _level_table(v, node_shells(grid), grid.J)
    assert np.array_equal(bits(levels[inverse]), bits(v))
    assert_reference_table(levels, shell_ordered(inverse, grid), offsets, v, grid)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2]), J=st.integers(1, 3), inv_h=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_an_operator_reads_its_one_table(n, J, inv_h, seed):
    rng = np.random.default_rng(seed)
    grid = FrequencyGrid(n, J, inv_h)
    op = MultiplierOperator(random_polynomial(rng, n), grid)
    v = symbol_values(op)
    u = random_field(grid, rng)
    assert np.array_equal(bits(op.apply(u).values), bits(v * u.values))
    lower, upper = op.real_part_range()
    for j in range(1, grid.J + 1):
        mask = ball_mask(grid, j)
        assert op.seminorm(j) == np.max(np.abs(v[mask]))
        assert lower[j - 1] == np.min(v.real[mask])
        assert upper[j - 1] == np.max(v.real[mask])


@st.composite
def polynomials_on_a_grid(draw):
    """A polynomial of real, complex and signed-zero coefficient parts, some axes entering
    through even powers only (the mirrored table build), and a grid of its dimension."""
    n = draw(st.sampled_from([1, 2]))
    grid = FrequencyGrid(n, draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    exponent = st.integers(0, 5)
    axes = [exponent.map(lambda a: a - a % 2) if even else exponent
            for even in draw(st.lists(st.booleans(), min_size=n, max_size=n))]
    real = draw(st.booleans())
    part = st.tuples(EXTREME_COMPONENT, st.just(0.0) if real else EXTREME_COMPONENT)
    terms = draw(st.lists(st.tuples(st.tuples(*axes), part), min_size=1, max_size=5))
    return grid, PolynomialSymbol(n, {alpha: complex(*c) for alpha, c in terms})


@settings(max_examples=200, deadline=None)
@given(case=polynomials_on_a_grid())
def test_a_level_table_is_finite_and_holds_no_negative_zero_imaginary_part(case):
    """What `evolution._real_levels` relies on: a level's imaginary part that reads 0 is +0."""
    grid, poly = case
    try:
        levels = MultiplierOperator(poly, grid).levels()[0]
    except SymbolError:
        return
    assert np.isfinite(levels).all()
    assert not np.signbit(levels.imag[levels.imag == 0.0]).any()


# ---------------------------------------------------------------------------
# level table of distinct symbol values

NO_REPEAT_2D = "-(1+xi1^2+3*xi2^2) + i*(xi1 + 0.37*xi2^3)"


def bits(values):
    """Bit patterns of complex samples, two uint64 words per value."""
    return np.ascontiguousarray(values, dtype=np.complex128).view(np.uint64)


def node_shells(grid):
    """Each node's shell number, grid-shaped (J + 1 outside ball J)."""
    return shell_numbers(grid.J, grid.inv_h, *[grid.axis_index] * grid.n)


def shell_ordered(values, grid):
    """A grid-ordered array put in the order of the grid's shell index."""
    return np.ravel(values)[grid.shells().order]


def first_appearances(values, shell, J):
    """Reference level table ``(levels, inverse, offsets)``: one pass in node order keyed
    by (bit pattern, shell), then the levels numbered by shell and by first node."""
    flat, shells = np.ravel(values), np.ravel(shell)
    label, firsts, node_levels = {}, [], []
    for node, ((re, im), s) in enumerate(zip(bits(flat).reshape(-1, 2), shells)):
        key = (int(re), int(im), int(s))
        if key not in label:
            label[key] = len(label)
            firsts.append(node)
        node_levels.append(label[key])
    order = sorted(range(len(firsts)), key=lambda level: (shells[firsts[level]], firsts[level]))
    renumber = np.empty(len(order), dtype=int)
    renumber[order] = np.arange(len(order))
    offsets = np.cumsum(np.bincount(shells[[firsts[level] for level in order]].astype(int),
                                    minlength=J + 2))
    return (flat[[firsts[level] for level in order]],
            renumber[node_levels].reshape(np.shape(values)), offsets)


def assert_reference_table(levels, index, offsets, values, grid):
    """The table, its index in shell order, is the reference's gathered through the shell
    order, bit for bit, and each shell's range holds its own nodes' levels, every one of
    them."""
    expected_levels, expected_inverse, expected_offsets = first_appearances(
        values, node_shells(grid), grid.J)
    assert index.shape == (grid.node_count,) and index.dtype == np.int32
    assert np.array_equal(bits(levels), bits(expected_levels))
    assert np.array_equal(index, shell_ordered(expected_inverse, grid))
    assert np.array_equal(offsets, expected_offsets) and offsets.size == grid.J + 2
    bounds = np.append(grid.shells().offsets, grid.node_count)
    for j in range(1, grid.J + 2):
        assert np.array_equal(np.unique(index[bounds[j - 1]:bounds[j]]),
                              np.arange(offsets[j - 1], offsets[j]))


def test_levels_round_trip_by_bit_pattern_and_keep_signed_zeros_apart():
    grid = FrequencyGrid(1, 3, 2)
    zeros = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)]
    values = np.array(zeros + [1.5, 0.0, -0.0, 1.5, 2 - 1j] + zeros, dtype=complex)
    levels, inverse, offsets = _level_table(values, node_shells(grid), grid.J)
    assert inverse.dtype == np.int32 and inverse.shape == grid.shape
    assert np.array_equal(bits(levels[inverse]), bits(values))
    assert_reference_table(levels, shell_ordered(inverse, grid), offsets, values, grid)
    # shell 1: 1.5, +0, -0 and 2 - i; shells 2 and 3: the four signed zeros each
    assert offsets.tolist() == [0, 4, 8, 12, 12]


@pytest.mark.parametrize("n, text", [(1, "-(1+4*pi^2*xi^2)"), (1, "2*pi*i*xi"),
                                     (2, "-(1+4*pi^2*(xi1^2+xi2^2))"), (2, "2*pi*i*xi1")])
def test_levels_match_the_reference_table(n, text):
    grid = FrequencyGrid(n, 4, 8)
    op = MultiplierOperator(parse_symbol(text, n), grid)
    assert_reference_table(*op.levels(), op.level_offsets(), symbol_values(op), grid)


def test_levels_of_a_symbol_without_repeated_values():
    grid = FrequencyGrid(2, 4, 8)
    op = MultiplierOperator(parse_symbol(NO_REPEAT_2D, 2), grid)
    levels, index = op.levels()
    assert levels.size == grid.node_count
    # one level per node, numbered as the shell index orders the nodes
    shells = grid.shells()
    assert np.array_equal(index, np.arange(grid.node_count))
    assert np.array_equal(op.level_offsets()[: grid.J + 1], shells.offsets)
    assert np.array_equal(bits(levels[index]), bits(symbol_values(op).ravel()[shells.order]))


def test_a_radial_symbol_keeps_one_level_per_value_and_a_linear_one_splits_by_shell():
    grid = FrequencyGrid(2, 8, 32)
    counts = {}
    for text in ("-(1+4*pi^2*(xi1^2+xi2^2))", "2*pi*i*xi1"):
        op = MultiplierOperator(parse_symbol(text, 2), grid)
        levels = op.levels()[0]
        distinct = np.unique(bits(levels).reshape(-1, 2), axis=0).shape[0]
        counts[text] = (distinct, levels.size)
    # every value of the radial symbol lies in one shell; a column of xi1
    # meets every shell from its own outwards
    assert counts["-(1+4*pi^2*(xi1^2+xi2^2))"] == (26023, 26023)
    distinct, levels = counts["2*pi*i*xi1"]
    assert distinct == 2 * grid.J * grid.inv_h + 1 and levels > 4 * distinct


def test_key_collisions_split_levels_but_never_merge_values():
    from frechet_flow.operators import _KEY_MULTIPLIER

    def key(real_bits, imag_bits):
        mixed = (imag_bits * int(_KEY_MULTIPLIER)) % 2**64
        return real_bits ^ ((mixed << 32 | mixed >> 32) % 2**64)

    # two different values with one key, interleaved over the nodes of one shell
    first = complex(1.25, 3.0)
    a_real, a_imag = (int(w) for w in bits(first))
    b_imag = int(bits(complex(0.0, -7.5))[1])
    b_real = key(a_real, a_imag) ^ key(0, b_imag)
    second = np.array([b_real, b_imag], dtype=np.uint64).view(np.complex128)[0]
    assert key(b_real, b_imag) == key(a_real, a_imag) and bits(second)[0] != a_real
    grid = FrequencyGrid(1, 1, 4)
    values = np.array([first, second] * 4 + [first], dtype=complex)
    levels, inverse, offsets = _level_table(values, node_shells(grid), grid.J)
    assert np.array_equal(bits(levels[inverse]), bits(values))
    assert levels.size >= 2 and offsets[1] == levels.size


def test_constructor_leaves_the_level_table_unbuilt(grid):
    op = MultiplierOperator(heat_symbol(), grid)
    assert op._levels is None and op._offsets is None
    table = op.levels()
    assert op.levels() is table
    assert not table[0].flags.writeable and not table[1].flags.writeable
    assert op.level_offsets() is op.level_offsets()
    assert not op.level_offsets().flags.writeable


@pytest.mark.parametrize("n, text", [(1, "-xi^400"), (1, "xi^400*(1+i)"), (2, "xi1^400+xi2")])
def test_a_symbol_that_is_not_finite_on_the_grid_is_refused(n, text):
    # 8^400 overflows, and Horner's rule then forms inf * 0 = nan at xi = 0;
    # the suite's error::RuntimeWarning filter fails on any warning on the way
    grid = FrequencyGrid(n, 8, 4)
    op = MultiplierOperator(parse_symbol(text, n), grid)
    with pytest.raises(SymbolError, match=r"not finite on the grid's extent \[-8, 8\]\^" + str(n)):
        op.levels()
    with pytest.raises(SymbolError, match="distinct values overflow"):
        op.seminorm(1)
    # the same symbol is finite on a grid it does not overflow on
    assert np.isfinite(symbol_values(MultiplierOperator(op._poly, FrequencyGrid(n, 2, 4)))).all()


# ---------------------------------------------------------------------------
# the table of a polynomial symbol, built on the corner of its even axes

COMPONENT = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 5e-324, -1.5]))


@st.composite
def polynomial_on_a_grid(draw):
    """A grid and a polynomial whose axes each take even exponents only, or any."""
    n = draw(st.sampled_from([1, 2]))
    grid = FrequencyGrid(n, draw(st.integers(1, 3)), draw(st.integers(1, 6)))
    exponents = [st.sampled_from([0, 2, 4, 6]) if draw(st.booleans()) else st.integers(0, 5)
                 for _ in range(n)]
    terms = draw(st.lists(st.tuples(*exponents), min_size=1, max_size=5))
    coeffs = {alpha: complex(draw(COMPONENT), draw(COMPONENT)) for alpha in terms}
    return grid, PolynomialSymbol(n, coeffs)


@settings(max_examples=80, deadline=None)
@given(case=polynomial_on_a_grid())
def test_polynomial_levels_are_the_full_grid_evaluation_bitwise(case):
    grid, poly = case
    expected = poly.eval_grid(*(grid.axis,) * grid.n)
    op = MultiplierOperator(poly, grid)
    assert np.array_equal(bits(symbol_values(op)), bits(expected))
    assert_reference_table(*op.levels(), op.level_offsets(), expected, grid)


@pytest.mark.parametrize("text, corner", [
    ("-(1+4*pi^2*(xi1^2+xi2^2))", (True, True)),
    ("2*pi*i*xi1", (False, True)),
    ("1+xi1^2*xi2^3", (True, False)),
    ("xi1^4+xi2^2", (True, True)),
    ("xi1^4*xi2^6", (True, True)),
    ("-(1+4*pi^2*(xi1^2+xi2^2)) + 2*pi*i*(xi1+2*xi2)", (False, False)),
])
def test_even_axes_are_evaluated_up_to_zero_only(monkeypatch, text, corner):
    grid = FrequencyGrid(2, 3, 4)
    shapes = []
    evaluate = PolynomialSymbol.eval_grid

    def recorded(self, *axes):
        shapes.append(tuple(axis.size for axis in axes))
        return evaluate(self, *axes)

    monkeypatch.setattr(PolynomialSymbol, "eval_grid", recorded)
    MultiplierOperator(parse_symbol(text, 2), grid).levels()
    side = grid.shape[0]
    assert shapes == [tuple(side // 2 + 1 if half else side for half in corner)]


@pytest.mark.parametrize("source", ["polynomial", "diffop"])
def test_a_polynomial_operator_keeps_no_grid_sized_complex_array(source):
    grid = FrequencyGrid(2, 8, 32)
    # the 2-D heat symbol, as text and as the coefficients of -1 + d1^2 + d2^2
    symbol = {"polynomial": parse_symbol("-(1+4*pi^2*(xi1^2+xi2^2))", 2),
              "diffop": diffop_to_symbol({(0, 0): -1.0, (2, 0): 1.0, (0, 2): 1.0},
                                         convention="partial", n=2)}[source]
    op = MultiplierOperator(symbol, grid)
    op.levels()
    op.seminorm(grid.J)
    op.real_part_range()

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (tuple, list)):
            for item in value:
                yield from arrays(item)

    per_node = [array for value in vars(op).values() for array in arrays(value)
                if array.size >= grid.node_count]
    index = op.levels()[1]
    assert len(per_node) == 1 and per_node[0] is index
    assert index.shape == (grid.node_count,) and index.dtype == np.int32
