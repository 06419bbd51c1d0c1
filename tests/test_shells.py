"""The shell index and the per-ball reductions built on it.

Every per-ball quantity is checked against the masked formula it replaces:
one boolean mask per ball and one reduction over the masked samples.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frechet_flow.config import config_from_text
from frechet_flow.evolution import (
    STAGE_RATE_LIMIT,
    _stage_growth,
    exp_multiplier,
    exp_series,
    multiplier_factor,
    series_factor,
    uniform_continuity_gap,
)
from frechet_flow.operators import MultiplierOperator, _level_table
from frechet_flow.spectral import (
    OVERFLOW_EXPONENT,
    OVERFLOW_LIMIT,
    FrequencyGrid,
    LevelFactor,
    ShellField,
    SpectralField,
    project,
    random_field,
    saturated_product,
    seminorm,
    seminorm_profile,
    shell_numbers,
)
from frechet_flow.symbols import heat_symbol, parse_symbol, transport_symbol

HEAT_2D = "-(1+4*pi^2*(xi1^2+xi2^2))"

GRIDS = [
    FrequencyGrid(1, 8, 1),
    FrequencyGrid(1, 8, 3),
    FrequencyGrid(1, 8, 32),
    FrequencyGrid(1, 4, 63),
    FrequencyGrid(2, 6, 1),
    FrequencyGrid(2, 5, 3),
    FrequencyGrid(2, 4, 32),
    FrequencyGrid(2, 2, 63),
]


def radius2_index(grid):
    """Squared integer node radius ``|k|^2``, grid-shaped."""
    squares = grid.axis_index**2
    return squares if grid.n == 1 else squares[:, None] + squares[None, :]


def node_shells(grid):
    """Each node's shell number, grid-shaped (J + 1 outside ball J)."""
    return shell_numbers(grid.J, grid.inv_h, *[grid.axis_index] * grid.n)


def masked(grid, j):
    return radius2_index(grid) <= (j * grid.inv_h) ** 2


def masked_seminorm(u, j):
    magnitudes = np.abs(u.values[masked(u.grid, j)])
    peak = float(np.max(magnitudes))
    if peak == 0.0:
        return 0.0
    return float(peak * np.sqrt(u.grid.cell_volume * np.sum((magnitudes / peak) ** 2)))


@pytest.mark.parametrize("grid", GRIDS, ids=repr)
def test_shell_membership_is_the_exact_ball_membership(grid):
    shells = grid.shells()
    for j in range(1, grid.J + 1):
        ball = masked(grid, j)
        assert np.array_equal(node_shells(grid) <= j, ball)
        assert np.array_equal(grid.ball_mask(j), ball)
        members = shells.order[shells.offsets[j - 1]:shells.offsets[j]]
        inner = masked(grid, j - 1) if j > 1 else np.zeros(grid.shape, dtype=bool)
        assert np.array_equal(members, np.flatnonzero(ball & ~inner))
    assert shells.offsets[-1] == int(masked(grid, grid.J).sum())


@pytest.mark.parametrize("grid", GRIDS, ids=repr)
def test_boundary_nodes_belong_to_their_ball(grid):
    lim = grid.J * grid.inv_h
    for j in range(1, grid.J + 1):
        k = j * grid.inv_h
        on_axis = (lim + k,) + (lim,) * (grid.n - 1)
        assert node_shells(grid)[on_axis] == j
        if grid.n == 2 and j % 5 == 0:
            # |xi| = j exactly at (3j/5, 4j/5)
            corner = (lim + 3 * k // 5, lim + 4 * k // 5)
            assert node_shells(grid)[corner] == j


def test_shell_index_is_shared_by_equal_grids():
    assert FrequencyGrid(2, 4, 8).shells() is FrequencyGrid(2, 4, 8).shells()


@pytest.mark.parametrize("grid", GRIDS, ids=repr)
def test_profile_matches_the_masked_formula_within_4_ulp(grid, rng):
    for _ in range(3):
        scale = 10.0 ** rng.uniform(-200, 200)
        u = random_field(grid, rng) * scale
        profile = seminorm_profile(u)
        expected = np.array([masked_seminorm(u, j) for j in range(1, grid.J + 1)])
        assert np.all(np.abs(profile - expected) <= 4 * np.spacing(expected))
        assert np.all(np.diff(profile) >= 0.0)
        for j in range(1, grid.J + 1):
            assert seminorm(u, j) == profile[j - 1]


def test_profile_is_nondecreasing_across_magnitude_ranges(rng):
    grid = FrequencyGrid(2, 8, 8)
    radius = np.sqrt(radius2_index(grid)) / grid.inv_h
    for _ in range(20):
        decay = rng.uniform(-60, 60)
        values = random_field(grid, rng).values * np.exp(decay * radius)
        profile = seminorm_profile(SpectralField(grid, values))
        assert np.all(np.diff(profile) >= 0.0)


def test_huge_sample_outside_ball_1_leaves_p1_unchanged(rng):
    grid = FrequencyGrid(2, 4, 8)
    u = random_field(grid, rng)
    values = np.array(u.values)
    values[grid.nearest_node([3.0, 0.0])] = 1e300
    p = seminorm_profile(SpectralField(grid, values))
    assert p[0] == seminorm(u, 1)
    assert p[2] == pytest.approx(1e300 * grid.h, rel=1e-12)


@pytest.mark.parametrize("scale", [1.0, 1e300])  # 1e300: squares overflow beside the inf
def test_inf_sample_in_a_flagged_field_leaves_inner_balls_finite(rng, scale):
    grid = FrequencyGrid(1, 8, 32)
    u = random_field(grid, rng) * scale
    values = np.array(u.values)
    values[grid.nearest_node(2.5)] = np.inf
    p = seminorm_profile(SpectralField(grid, values, overflow=True))
    assert np.array_equal(p[:2], seminorm_profile(u)[:2])
    assert np.all(np.isinf(p[2:]))


def test_saturated_scale_does_not_underflow_inner_balls():
    grid = FrequencyGrid(1, 4, 4)
    values = np.full(grid.shape, 1e-300, dtype=complex)
    values[grid.nearest_node(3.0)] = 1e300
    p = seminorm_profile(SpectralField(grid, values))
    assert p[0] == pytest.approx(1e-300 * math.sqrt(9 * grid.h), rel=1e-15)


@settings(max_examples=40, deadline=None)
@given(grid=st.sampled_from(GRIDS), seed=st.integers(0, 2**32 - 1),
       base=st.sampled_from(["random", "ones"]), scale=st.sampled_from([1.0, 1e180, 1e-300]),
       spike=st.booleans())
# one 1e200 sample at |xi| = 1.5: an unscaled sum of squares overflows
@example(grid=FrequencyGrid(1, 4, 4), seed=0, base="ones", scale=1.0, spike=True)
@example(grid=FrequencyGrid(1, 8, 3), seed=1, base="random", scale=1e180, spike=False)
@example(grid=FrequencyGrid(2, 5, 3), seed=2, base="random", scale=1e180, spike=False)
def test_restriction_of_projection_is_the_projection_bit_for_bit(grid, seed, base, scale, spike):
    if base == "ones":
        values = np.ones(grid.shape, dtype=complex)
    else:
        values = random_field(grid, np.random.default_rng(seed)).values.copy()
    values *= scale
    if spike:
        values[grid.nearest_node((1.5,) + (0.0,) * (grid.n - 1))] = 1e200
    u = SpectralField(grid, values)
    for j in range(1, grid.J):
        direct = project(u, j)
        via = project(project(u, j + 1), j)
        assert same_bits(via.values, direct.values)
        assert same_bits(seminorm(via, j), seminorm(u, j))


@pytest.mark.parametrize("grid", GRIDS, ids=repr)
def test_blocks_cover_the_shells_in_order(grid):
    index = grid.shells()
    inside = list(index.blocks())
    covered = np.concatenate([np.arange(block.start, block.stop) for block, _ in inside])
    assert np.array_equal(covered, np.arange(index.offsets[-1]))
    ends = np.concatenate([block.start + offsets[1:] for block, offsets in inside])
    assert np.array_equal(ends, index.offsets[1:])
    assert all(offsets[0] == 0 for _, offsets in inside)
    outside = list(index.blocks(outside=True))[len(inside):]
    assert all(offsets is None for _, offsets in outside)
    assert sum(block.stop - block.start for block, _ in outside) == (
        grid.node_count - index.offsets[-1])


def signed_zero_nan_operator(grid, rng):
    """An operator from a table whose levels include +0.0, -0.0 and a NaN in shell 3."""
    values = np.array(random_field(grid, rng).values)
    flat = values.reshape(-1)
    order, offsets = grid.shells().order, grid.shells().offsets
    # no zero is an extreme of a ball, where the sign of a tie would hang on the order
    flat[order[0]], flat[order[2]] = complex(-1.0, 2.0), complex(1.0, -2.0)
    flat[order[1]] = 0.0
    flat[order[offsets[1] + 1]] = complex(-0.0, -0.0)
    flat[order[offsets[1] + 2]] = complex(-0.0, 0.0)
    flat[order[offsets[2]]] = complex(np.nan, 1.0)
    return operator_from_values(grid, values)


def operator_from_values(grid, values):
    """The operator whose symbol on the grid's nodes is ``values``, from its raw table."""
    levels, inverse, offsets = _level_table(values, node_shells(grid), grid.J)
    return MultiplierOperator._from_table(grid, levels, shell_ordered(inverse, grid), offsets)


def shell_ordered(values, grid):
    """A grid-ordered array put in the order of the grid's shell index."""
    return np.ravel(values)[grid.shells().order]


def traversal_operators(grid, rng):
    if grid.n == 1:
        symbols = [heat_symbol(), transport_symbol(), parse_symbol("1+xi^3")]
    else:
        # even in both axes, in xi1 only, and in neither
        symbols = [parse_symbol(text, 2) for text in (
            HEAT_2D, "-(xi1^4+4*pi^2*xi2^2)+i*xi2^3", "1+xi1^3*xi2")]
    ops = [MultiplierOperator(symbol, grid) for symbol in symbols]
    return ops + [signed_zero_nan_operator(grid, rng)]


@pytest.mark.parametrize("grid", GRIDS, ids=repr)
def test_operator_profile_and_stage_growth_equal_the_masked_max(grid, rng):
    for op in traversal_operators(grid, rng):
        values = op.values
        lower, upper = op.real_part_range()
        for j in range(1, grid.J + 1):
            mask = masked(grid, j)
            assert same_bits(op.seminorm(j), np.max(np.abs(values)[mask]))
            assert same_bits(lower[j - 1], np.min(values.real[mask]))
            assert same_bits(upper[j - 1], np.max(values.real[mask]))
            for t in (0.0, 1e-3, 0.3, 5.0):
                z = t * values[mask]
                x, y = np.minimum(z.real, OVERFLOW_EXPONENT), z.imag
                gap = np.hypot(np.expm1(x) * np.cos(y) - 2.0 * np.sin(0.5 * y) ** 2,
                               np.exp(x) * np.sin(y))
                assert same_bits(uniform_continuity_gap(op, t, j)[0], np.max(gap))
        # stage times as `series_factor` takes them, |t| max |a| <= STAGE_RATE_LIMIT
        rate = np.nanmax(np.abs(values)[masked(grid, grid.J)])
        for t in (0.3, -0.3, 1e-3, -7.0):
            t = min(t, STAGE_RATE_LIMIT / rate) if t > 0 else max(t, -STAGE_RATE_LIMIT / rate)
            growth = _stage_growth(op, t)
            for j in range(1, grid.J + 1):
                peak = float(np.max((t * values.real)[masked(grid, j)]))
                assert same_bits(growth[j - 1], math.exp(peak))


def test_per_ball_operator_quantities_traverse_no_node(monkeypatch, rng):
    import frechet_flow.spectral as spectral

    grid = FrequencyGrid(2, 4, 8)
    ops = traversal_operators(grid, rng)
    for op in ops:  # a polynomial table is put in shell order as it is built
        op.levels()

    def no_traversal(*args):
        raise AssertionError("a per-ball operator quantity walked the shell index")

    monkeypatch.setattr(spectral.FrequencyGrid, "shells", no_traversal)
    for op in ops:
        levels, _ = op.levels()
        op._levels = (levels, None)  # the node index is not read either
        for j in range(1, grid.J + 1):
            op.seminorm(j)
            uniform_continuity_gap(op, 0.3, j)
        op.real_part_range()
        _stage_growth(op, -0.5)


def test_seminorm_reads_the_profile_of_its_field(monkeypatch, rng):
    import frechet_flow.spectral as spectral

    grid = FrequencyGrid(2, 4, 8)
    u = random_field(grid, rng)
    calls = []
    reduce = spectral._ball_seminorms

    def counted(field):
        calls.append(field)
        return reduce(field)

    monkeypatch.setattr(spectral, "_ball_seminorms", counted)
    seminorms = [seminorm(u, j) for j in range(1, grid.J + 1)]
    assert seminorm_profile(u).tolist() == seminorms
    assert calls == [u]


def identity_inverse(grid):
    """Grid-shaped level index of a factor given node by node: node k is level k."""
    return np.arange(grid.node_count).reshape(grid.shape)


def node_levels(grid):
    """``(levels, level_offsets)`` of a `ShellField` in which each node is its own level,
    the levels numbered in shell order."""
    return np.arange(grid.node_count, dtype=np.int32), np.append(grid.shells().offsets,
                                                                 grid.node_count)


def node_field(u, inverse, *per_level):
    """u's `ShellField` over `node_levels`, and each array given per level of the
    grid-shaped ``inverse`` spread over the nodes, in shell order."""
    nodes = shell_ordered(inverse, u.grid)
    return [ShellField(u, *node_levels(u.grid))] + [array[nodes] for array in per_level]


def one_flow(log_magnitude, phase, u, inverse=None):
    """`saturated_product` of one flow, keeping its field: ``(field, flagged)``.

    ``u`` is a field and ``inverse`` names each node's level of the factor
    (grid-shaped), or ``u`` is a `ShellField` and ``inverse`` is omitted.
    """
    source = u
    if inverse is not None:
        source, log_magnitude, phase = node_field(u, inverse, log_magnitude, phase)
    product, flagged = saturated_product(
        {"flow": LevelFactor(log_magnitude, phase)}, source, keep="flow"
    )
    return product.field, flagged


def full_path(log_magnitude, phase, u):
    """`saturated_product` on u, forced through its saturating path.

    One extra node saturates, so the whole grid takes the full path; every
    other node's value does not depend on it.
    """
    index = (0,) * u.grid.n
    log_magnitude = np.array(log_magnitude)
    log_magnitude[index] = 2 * OVERFLOW_EXPONENT
    values = np.array(u.values)
    values[index] = 1.0
    result, _ = one_flow(
        log_magnitude.ravel(), np.ravel(phase), SpectralField(u.grid, values),
        identity_inverse(u.grid),
    )
    others = np.ones(u.grid.shape, dtype=bool)
    others[index] = False
    return result.values, others


@pytest.mark.parametrize("n", [1, 2])
def test_direct_product_branch_matches_the_full_path_bitwise(n, rng):
    grid = FrequencyGrid(n, 3, 4)
    for total in np.linspace(707.0, 710.0, 61):
        log_magnitude = rng.uniform(total - 12.0, total - 2.0, size=grid.shape)
        phase = np.exp(1j * rng.uniform(-np.pi, np.pi, size=grid.shape))
        u = random_field(grid, rng)
        # put the largest total log magnitude at exactly `total`
        peak = np.unravel_index(np.argmax(np.abs(u.values)), grid.shape)
        log_magnitude[peak] = total - np.log(np.abs(u.values[peak]))
        result, flagged = one_flow(
            log_magnitude.ravel(), phase.ravel(), u, identity_inverse(grid)
        )
        expected, others = full_path(log_magnitude, phase, u)
        assert np.array_equal(result.values[others], expected[others])
        total_log = log_magnitude + np.log(np.abs(u.values))
        assert flagged == bool(np.any(total_log > OVERFLOW_EXPONENT))
        assert result.overflow == flagged


def test_unsaturated_product_skips_the_log_phase_passes(monkeypatch, rng):
    grid = FrequencyGrid(2, 3, 4)
    u = random_field(grid, rng)
    log_magnitude = rng.uniform(690.0, 700.0, size=grid.shape)
    expected, others = full_path(log_magnitude, np.ones(grid.shape), u)

    def no_angle(*args, **kwargs):
        raise AssertionError("the direct branch extracts no phase")

    monkeypatch.setattr(np, "angle", no_angle)
    result, flagged = one_flow(
        log_magnitude.ravel(), np.ones(grid.node_count), u, identity_inverse(grid)
    )
    assert not flagged
    assert np.array_equal(result.values[others], expected[others])


def test_direct_product_branch_guards_large_factors_on_small_data():
    grid = FrequencyGrid(1, 2, 4)
    values = np.zeros(grid.shape, dtype=complex)
    values[3] = 1e-320
    log_magnitude = np.full(grid.shape, 720.0)
    result, flagged = one_flow(
        log_magnitude.ravel(), np.ones(grid.node_count), SpectralField(grid, values),
        identity_inverse(grid),
    )
    expected, others = full_path(log_magnitude, np.ones(grid.shape), SpectralField(grid, values))
    assert np.all(np.isfinite(result.values))
    assert np.array_equal(result.values[others], expected[others])
    assert not flagged


def test_nan_and_inf_samples_take_the_full_path():
    grid = FrequencyGrid(1, 2, 4)
    values = np.ones(grid.shape, dtype=complex)
    values[2] = np.inf
    result, flagged = one_flow(
        np.zeros(grid.node_count), np.ones(grid.node_count),
        SpectralField(grid, values, overflow=True), identity_inverse(grid),
    )
    assert flagged and result.overflow
    assert abs(result.values[2]) == pytest.approx(math.exp(OVERFLOW_EXPONENT), rel=1e-12)


def reference_saturated_product(log_magnitude, phase, u, inverse):
    """The saturating path as it was before the field cached its polar form.

    Kept as the bitwise reference of `saturated_product`'s saturating path:
    every node is clamped in log-magnitude/phase form, and the direct nodes
    are then overwritten with the plain product.
    """
    u_magnitude = np.abs(u.values)
    with np.errstate(over="ignore", invalid="ignore"):
        factor = np.exp(log_magnitude) * phase
    log_magnitude = log_magnitude[inverse]
    with np.errstate(divide="ignore"):
        log_u = np.where(u_magnitude > 0.0, np.log(u_magnitude), -np.inf)
    total_log = log_magnitude + log_u
    direct_ok = (log_magnitude <= OVERFLOW_EXPONENT) & (total_log <= OVERFLOW_EXPONENT)
    u_phase = np.where(u_magnitude > 0.0, np.exp(1j * np.angle(u.values)), 0.0)
    values = np.exp(np.minimum(total_log, OVERFLOW_EXPONENT)) * phase[inverse] * u_phase
    values[direct_ok] = factor[inverse[direct_ok]] * u.values[direct_ok]
    flagged = bool(np.any(total_log > OVERFLOW_EXPONENT))
    return values, flagged


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def saturating_case(grid, rng, levels=37):
    """Per-level factors around the saturation edge and a shared level index."""
    log_magnitude = rng.uniform(-5.0, 2.0 * OVERFLOW_EXPONENT, size=levels)
    log_magnitude[:3] = [OVERFLOW_EXPONENT, OVERFLOW_EXPONENT + 1e-9, 2000.0]
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi, size=levels))
    phase[3] = 0.0  # an inf factor times a zero phase part
    inverse = rng.integers(0, levels, size=grid.shape).astype(np.int32)
    return log_magnitude, phase, inverse


@pytest.mark.parametrize("grid", [FrequencyGrid(1, 8, 8), FrequencyGrid(2, 3, 4)], ids=repr)
def test_saturating_path_equals_the_reference_bitwise(grid, rng):
    for case in range(6):
        log_magnitude, phase, inverse = saturating_case(grid, rng)
        values = random_field(grid, rng).values * 10.0 ** rng.uniform(-300, 300, grid.shape)
        flat = values.reshape(-1)
        flat[:4] = [0.0, -0.0j, 5e-324, 3e-310 - 5e-324j]  # zeros and subnormals
        overflow = case >= 3
        if overflow:  # a flagged field may carry non-finite samples
            flat[4:9] = [np.inf, -np.inf, complex(1.0, np.inf), np.nan, complex(np.nan, 1.0)]
        u = SpectralField(grid, values, overflow=overflow)
        expected, expected_flag = reference_saturated_product(log_magnitude, phase, u, inverse)
        result, flagged = one_flow(log_magnitude, phase, u, inverse)
        assert flagged == expected_flag
        assert result.overflow == (overflow or expected_flag)
        assert same_bits(result.values, expected)
        # the direct nodes and the clamped nodes both occur
        total_log = log_magnitude[inverse] + np.log(np.abs(values) + 1e-320)
        assert np.any(total_log > OVERFLOW_EXPONENT) and np.any(total_log < OVERFLOW_EXPONENT)


def test_saturating_path_on_heat_levels_equals_the_reference_bitwise(rng):
    grid = FrequencyGrid(2, 4, 8)
    op = MultiplierOperator(parse_symbol(HEAT_2D, 2), grid)
    levels, index = op.levels()
    inverse = np.empty(grid.node_count, dtype=np.int32)
    inverse[grid.shells().order] = index  # back to grid order
    u = random_field(grid, rng)
    source = ShellField(u, index, op.level_offsets())
    for t in (-2.0, -1.0, -0.6):
        z = t * levels
        phase = np.exp(1j * z.imag)
        expected, expected_flag = reference_saturated_product(z.real, phase, u,
                                                              inverse.reshape(grid.shape))
        result, flagged = one_flow(z.real, phase, source)
        assert flagged and expected_flag
        assert same_bits(result.values, expected)


def test_polar_form_is_built_once_per_field(monkeypatch, rng):
    grid = FrequencyGrid(2, 3, 4)
    u = random_field(grid, rng)
    calls = []
    angle = np.angle

    def counted(*args, **kwargs):
        calls.append(1)
        return angle(*args, **kwargs)

    monkeypatch.setattr(np, "angle", counted)
    log_magnitude, phase, inverse = saturating_case(grid, rng)
    source, log_magnitude, phase = node_field(u, inverse, log_magnitude, phase)
    first, _ = one_flow(log_magnitude, phase, source)
    # one angle per block of the shell index builds the polar form
    built = len(list(grid.shells().blocks(outside=True)))
    assert len(calls) == built
    for _ in range(3):
        again, flagged = one_flow(log_magnitude, phase, source)
        assert flagged and same_bits(again.values, first.values)
    assert len(calls) == built
    assert source.polar() is source.polar()
    # each closed-form call puts its field in shell order anew, polar form included
    op = MultiplierOperator(parse_symbol(HEAT_2D, 2), grid)
    exp_multiplier(op, -2.0, u)
    assert len(calls) == 2 * built


def test_shell_field_is_the_gather_through_the_shell_order(rng):
    grid = FrequencyGrid(2, 3, 4)
    u = random_field(grid, rng)
    op = MultiplierOperator(parse_symbol(HEAT_2D, 2), grid)
    source = ShellField(u, op.levels()[1], op.level_offsets())
    order = grid.shells().order
    assert same_bits(source.samples, u.values.ravel()[order])
    # the operator's level index is read as it is held, not copied
    assert source.levels is op.levels()[1] and source.level_offsets is op.level_offsets()
    assert source.peak == float(np.max(np.abs(u.values)))
    assert source.grid == grid and not source.overflow
    assert not source.samples.flags.writeable and not source.levels.flags.writeable
    # the gather forms u's profile, bit for bit the one seminorm_profile forms
    assert u._profile is not None
    assert same_bits(seminorm_profile(u), seminorm_profile(SpectralField(grid, u.values)))


def test_polar_form_marks_zero_and_nan_samples():
    grid = FrequencyGrid(1, 1, 2)
    values = np.array([0.0, -0.0, 5e-324j, np.nan, -2.0], dtype=complex)
    u = ShellField(SpectralField(grid, values, overflow=True), *node_levels(grid))
    assert math.isnan(u.peak) and u.overflow
    assert ShellField(SpectralField(grid, np.where(np.isnan(values), 0.0, values)),
                      *node_levels(grid)).peak == 2.0
    # back to grid order
    log_u, phase = (part[np.argsort(grid.shells().order)] for part in u.polar())
    assert log_u[:2].tolist() == [-np.inf, -np.inf] and log_u[3] == -np.inf
    assert phase[0] == phase[1] == phase[3] == 0.0
    assert np.allclose(phase[[2, 4]], [1j, -1.0], rtol=0.0, atol=1e-15)
    assert log_u[4] == math.log(2.0)
    assert not any(part.flags.writeable for part in u.polar())


def test_exp_series_profiles_its_field_once(monkeypatch, rng):
    import frechet_flow.spectral as spectral

    grid = FrequencyGrid(2, 4, 8)
    u = random_field(grid, rng)
    op = MultiplierOperator(parse_symbol(HEAT_2D, 2), grid)
    calls = []
    reduce = spectral._ball_seminorms

    def counted(field):
        calls.append(field)
        return reduce(field)

    monkeypatch.setattr(spectral, "_ball_seminorms", counted)
    # the first call's shell field forms u's profile as it gathers u, and
    # every later call reads it
    exp_series(op, 0.0, u)
    first = u._profile
    for t in (0.01, 0.1, -0.01, -1.0):
        exp_series(op, t, u)
    assert calls == [] and u._profile is first
    profile = seminorm_profile(u)
    profile[:] = 0.0  # a fresh array each time
    assert np.all(seminorm_profile(u) > 0.0)
    assert calls == []


def scaled_field(grid, rng, kind):
    """A random field of one magnitude class; "flagged" holds infinite samples."""
    values = random_field(grid, rng).values
    if kind == "subnormal":
        return SpectralField(grid, values * 1e-310)
    if kind == "near-overflow":
        # every sample at most exp(709), so a difference stays finite
        return SpectralField(grid, values * (math.exp(OVERFLOW_EXPONENT) / np.max(np.abs(values))))
    if kind == "flagged":
        values = values * 1e300
        chosen = rng.choice(grid.node_count, size=3, replace=False)
        values.reshape(-1)[chosen] = [complex(np.inf, 0.0), complex(-np.inf, 1.0),
                                      complex(2.0, np.inf)]
        return SpectralField(grid, values, overflow=True)
    return SpectralField(grid, values)


KINDS = ["random", "subnormal", "near-overflow", "flagged"]


def random_factor(rng, grid, kind):
    """A factor given node by node (`node_levels`): None (the identity), or log magnitudes
    that may saturate."""
    if kind == "identity":
        return None
    top = {"moderate": 5.0, "saturating": 2.0 * OVERFLOW_EXPONENT}[kind]
    log_magnitude = rng.uniform(-5.0, top, size=grid.node_count)
    return LevelFactor(log_magnitude, np.exp(1j * rng.uniform(-np.pi, np.pi, grid.node_count)))


@settings(max_examples=60, deadline=None)
@given(grid=st.sampled_from(GRIDS), seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS),
       factor_kinds=st.tuples(*[st.sampled_from(["identity", "moderate", "saturating"])] * 2))
def test_streamed_pass_reads_what_its_fields_give(grid, seed, kind, factor_kinds):
    """Each flow's profile and overflow, the residual and the kept field are bitwise
    those of the one-flow fields, a profile and a difference field."""
    rng = np.random.default_rng(seed)
    u = scaled_field(grid, rng, kind)
    factors = dict(zip(["a", "b"], (random_factor(rng, grid, k) for k in factor_kinds)))
    fields = {}
    source = ShellField(u, *node_levels(grid))
    for name, factor in factors.items():
        product, _ = saturated_product({name: factor}, source, keep=name)
        assert product.residual is None
        fields[name] = product.field
    product, flagged = saturated_product(factors, source, keep="b")
    assert same_bits(product.field.values, fields["b"].values)
    for name, field in fields.items():
        assert product.profiles[name].tolist() == seminorm_profile(
            SpectralField(grid, field.values, field.overflow)).tolist()
        assert product.overflow[name] == field.overflow
    assert product.residual.tolist() == seminorm_profile(fields["a"] - fields["b"]).tolist()
    if factors["b"] is None:
        assert same_bits(product.field.values, u.values)
    assert flagged == any(
        saturated_product({name: factor}, source)[1] for name, factor in factors.items())


def test_representable_flow_with_a_nan_phase_level_is_rejected(rng):
    grid = FrequencyGrid(2, 3, 4)
    u = random_field(grid, rng)
    op = MultiplierOperator(parse_symbol(HEAT_2D, 2), grid)
    levels, index = op.levels()
    phase = np.ones(levels.size, dtype=complex)
    phase[levels.size // 2] = complex(np.nan, 0.0)
    factor = LevelFactor(0.1 * levels.real, phase)
    source = ShellField(u, index, op.level_offsets())
    for keep in (None, "flow"):
        with pytest.raises(ValueError, match="non-finite samples"):
            saturated_product({"flow": factor}, source, keep=keep)
    # a flagged field may carry the NaN
    flagged = ShellField(SpectralField(grid, u.values, overflow=True), index,
                         op.level_offsets())
    product, _ = saturated_product({"flow": factor}, flagged, keep="flow")
    assert np.isnan(product.field.values).any()


def visited_ranges(monkeypatch):
    """The slices of shell order that each `saturated_product` flow reads, in call order."""
    import frechet_flow.spectral as spectral

    visited = []
    apply = spectral._FlowPass.apply

    def recorded(self, u, block, levels):
        visited.append(block)
        return apply(self, u, block, levels)

    monkeypatch.setattr(spectral._FlowPass, "apply", recorded)
    return visited


def test_pass_without_kept_or_saturating_flow_stays_in_ball_J(monkeypatch, rng):
    grid = FrequencyGrid(2, 4, 8)
    u = random_field(grid, rng)
    op = MultiplierOperator(parse_symbol(HEAT_2D, 2), grid)
    levels, index = op.levels()
    source = ShellField(u, index, op.level_offsets())
    ball_end = int(grid.shells().offsets[-1])
    representable = {"a": LevelFactor(0.01 * levels.real, np.ones(levels.size)), "b": None}
    visited = visited_ranges(monkeypatch)
    product, flagged = saturated_product(representable, source)
    assert visited and max(block.stop for block in visited) <= ball_end and not flagged
    # the same pass keeping a flow, or with a flow that can saturate, covers every node
    for factors, keep in ((representable, "a"), (representable, "b"),
                          ({"a": LevelFactor(-10.0 * levels.real, np.ones(levels.size))}, None)):
        visited.clear()
        saturated_product(factors, source, keep=keep)
        assert max(block.stop for block in visited) == grid.node_count
        assert sum(block.stop - block.start for block in visited) >= grid.node_count


@pytest.mark.parametrize("length", range(1, 65))
def test_exp_of_the_overflow_exponent_is_the_limit_bit_for_bit(length):
    assert same_bits(np.exp(np.full(length, OVERFLOW_EXPONENT)), np.full(length, OVERFLOW_LIMIT))


def test_nan_and_infinite_total_logs_keep_the_reference_bits():
    # +inf factors on zero samples give a NaN total log; -inf ones a zero factor
    grid = FrequencyGrid(1, 2, 4)
    log_magnitude = np.array([np.inf, -np.inf, 800.0, 0.0])
    phase = np.exp(1j * np.array([0.3, -1.2, 2.0, 0.5]))
    inverse = np.arange(grid.node_count, dtype=np.int32) % 4
    values = np.zeros(grid.shape, dtype=complex)
    values[1::3] = 1.5 - 0.5j
    u = SpectralField(grid, values, overflow=True)
    with np.errstate(invalid="ignore"):
        expected, expected_flag = reference_saturated_product(log_magnitude, phase, u, inverse)
    result, flagged = one_flow(log_magnitude, phase, u, inverse)
    assert flagged == expected_flag and np.isnan(expected).any()
    assert same_bits(result.values, expected)


def test_blocks_that_clamp_whole_in_part_or_not_at_all_keep_the_reference_bits(monkeypatch,
                                                                               rng):
    import frechet_flow.spectral as spectral

    # one block per shell: shell 1 can saturate but no node of it clamps,
    # shells 2-3 clamp whole, shells 4-5 in part and shells 6-8 cannot saturate
    monkeypatch.setattr(spectral, "_BLOCK_NODES", 16)
    grid = FrequencyGrid(1, 8, 8)
    nodes = np.arange(grid.node_count)
    shell = np.maximum(1, np.ceil(np.abs(nodes - 64) / 8))
    log_magnitude = np.select([shell == 1, shell <= 3, (shell <= 5) & (nodes % 2 == 0)],
                              [705.0, 800.0, 800.0], 0.0)
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi, grid.node_count))
    values = np.exp(1j * rng.uniform(-np.pi, np.pi, grid.shape)) * rng.uniform(0.5, 30.0,
                                                                               grid.shape)
    values[64] = 30.0  # log 30 = 3.4: 705 + 3.4 passes 708 but no total passes 709
    u = SpectralField(grid, values)
    inverse = nodes.astype(np.int32)
    saturate, kinds = spectral._FlowPass._saturate, []

    def recorded(self, u, block, levels):
        result = saturate(self, u, block, levels)
        clamped = result[0]
        kinds.append("none" if clamped is None else "whole" if isinstance(clamped, slice)
                     else f"{clamped.size} of {block.stop - block.start}")
        return result

    monkeypatch.setattr(spectral._FlowPass, "_saturate", recorded)
    expected, expected_flag = reference_saturated_product(log_magnitude, phase, u, inverse)
    result, flagged = one_flow(log_magnitude, phase, u, inverse)
    assert kinds == ["0 of 17", "whole", "whole", "8 of 16", "8 of 16", "none", "none", "none"]
    assert flagged and expected_flag
    assert same_bits(result.values, expected)


def one_multiply_scaled_sums(magnitudes, offsets):
    """`_scaled_sums` as it scaled each group by the one power ``2^-e``, even a subnormal one."""
    starts = offsets[:-1]
    peaks = np.maximum.reduceat(magnitudes, starts)
    exponents = np.maximum(np.frexp(peaks)[1], -1021)
    scaled = magnitudes * np.repeat(np.ldexp(1.0, -exponents), np.diff(offsets))
    with np.errstate(over="ignore"):
        sums = np.add.reduceat(np.square(scaled), starts)
    return peaks, exponents, sums


DBL_MAX = np.finfo(float).max
SPECIAL_MAGNITUDES = [0.0, 5e-324, 2.0**-1030, np.nextafter(2.0**-1022, 0.0), 2.0**-1022,
                      1.0, np.nextafter(OVERFLOW_LIMIT, 0.0), OVERFLOW_LIMIT,
                      np.nextafter(OVERFLOW_LIMIT, np.inf), 2.0**1023, DBL_MAX, np.inf, np.nan]
FRACTIONS = st.floats(0.5, 1.0, exclude_max=True)
# peaks from 2^-1074 to DBL_MAX, some with the frexp exponents either side of the split scale
GROUP_PEAKS = st.one_of(
    st.just(5e-324),
    st.builds(math.ldexp, FRACTIONS, st.integers(-1073, 1024)),
    st.builds(math.ldexp, FRACTIONS, st.sampled_from([-1021, 0, 1022, 1023, 1024])),
    st.sampled_from([OVERFLOW_LIMIT, DBL_MAX]),
)
# a member is a ratio to its group's peak (every binade below it) or a magnitude of its own
GROUP_MEMBERS = st.one_of(
    st.builds(math.ldexp, FRACTIONS, st.integers(-2100, 0)).map(lambda ratio: (ratio, None)),
    st.sampled_from(SPECIAL_MAGNITUDES).map(lambda value: (None, value)),
)


@settings(max_examples=300, deadline=None)
@given(groups=st.lists(st.tuples(GROUP_PEAKS, st.lists(GROUP_MEMBERS, max_size=6),
                                 st.integers(0, 6)), min_size=1, max_size=6))
def test_scaled_sums_keep_the_bits_of_the_one_multiply_scale(groups):
    from frechet_flow.spectral import _scaled_sums

    magnitudes, offsets = [], [0]
    for peak, members, position in groups:
        group = [peak * ratio if value is None else value for ratio, value in members]
        group.insert(min(position, len(group)), peak)
        magnitudes += group
        offsets.append(len(magnitudes))
    magnitudes, offsets = np.array(magnitudes), np.array(offsets)
    expected = one_multiply_scaled_sums(magnitudes, offsets)
    peaks, exponents, sums = _scaled_sums(magnitudes.copy(), offsets)
    assert same_bits(peaks, expected[0]) and same_bits(sums, expected[2])
    assert np.array_equal(exponents, expected[1])


# ---------------------------------------------------------------------------
# the pass over levels: a pass that keeps no field and cannot saturate

EPS = np.finfo(float).eps

LEVEL_SYMBOLS = {
    1: {"heat": "-(1+4*pi^2*xi^2)", "transport": "2*pi*i*xi",
        "mixed": "-(1+4*pi^2*xi^2)+2*pi*i*xi", "constant": "-2+3*i",
        "no-repeat": "-(1+xi^2) + i*(xi + 0.37*xi^3)"},
    2: {"heat": HEAT_2D, "transport": "2*pi*i*xi1",
        "mixed": HEAT_2D + "+2*pi*i*(xi1+2*xi2)", "constant": "-2+3*i",
        "no-repeat": "-(1+xi1^2+3*xi2^2) + i*(xi1 + 0.37*xi2^3)"},
}
LEVEL_GRIDS = [FrequencyGrid(1, 8, 4), FrequencyGrid(1, 4, 16), FrequencyGrid(1, 2, 8),
               FrequencyGrid(2, 4, 8), FrequencyGrid(2, 3, 5)]


def level_operator(grid, kind):
    if kind == "power":  # a power keeps its base's level index and shell ranges
        return MultiplierOperator(parse_symbol(LEVEL_SYMBOLS[grid.n]["mixed"], grid.n),
                                  grid).power(2)
    return MultiplierOperator(parse_symbol(LEVEL_SYMBOLS[grid.n][kind], grid.n), grid)


def shell_position(grid):
    """Each node's place in its shell ``j - 1 < |xi| <= j``: from 0 inside to 1 at ``|xi| = j``."""
    radius = np.sqrt(radius2_index(grid)) / grid.inv_h
    return 1.0 - (np.ceil(radius) - radius)


def level_field(grid, rng, kind):
    """A field of one kind; "dynamic" falls by 170 decades across each shell."""
    values = random_field(grid, rng).values.copy()
    if kind == "tiny":
        values *= 1e-300
    elif kind == "huge":
        values *= 1e250
    elif kind == "zeros":
        values[rng.random(grid.shape) < 0.5] = 0.0
    elif kind == "dynamic":
        values *= 10.0 ** (-170.0 * shell_position(grid))
    return SpectralField(grid, values)


def falling_field(grid):
    """1 on the inner eighth of each shell and 1e-170, below 2^-537, on the rest."""
    return SpectralField(grid, np.where(shell_position(grid) > 0.125, 1e-170, 1.0) + 0j)


def flow_factors(op, t, u, method):
    """Each method's factor at t, multiplier first, as `evolve` forms them for its pass."""
    factors = {}
    if method != "series":
        factors["multiplier"] = multiplier_factor(op, t)
    if method != "multiplier":
        factors["series"], _ = series_factor(op, t, seminorm_profile(u), 1e-8)
    return factors


def level_and_node_passes(op, u, t, method):
    """``(level pass, node pass, whether the first took the level path)`` of one time."""
    factors = flow_factors(op, t, u, method)
    source = ShellField(u, op.levels()[1], op.level_offsets())
    level, level_flagged = saturated_product(factors, source)
    node, _ = saturated_product(factors, source, keep=list(factors)[-1])  # a kept field
    return level, node, source._weights is not None and not level_flagged


def level_errors(level, node):
    """The largest profile error relative to the profile, and residual error relative
    to the flows' profile, in units of eps."""
    profile_error, residual_error = 0.0, 0.0
    for name, expected in node.profiles.items():
        got = level.profiles[name]
        assert np.all(np.isfinite(got)) and np.all(np.diff(got) >= 0.0)
        nonzero = expected > 0.0
        assert np.array_equal(got > 0.0, nonzero)
        if nonzero.any():
            profile_error = max(profile_error, float(np.max(
                np.abs(got - expected)[nonzero] / expected[nonzero])) / EPS)
    if node.residual is not None:
        scale = np.maximum(*node.profiles.values())
        gap = np.abs(level.residual - node.residual)
        residual_error = float(np.max(np.where(scale > 0.0, gap / np.where(
            scale > 0.0, scale, 1.0), gap))) / EPS
    return profile_error, residual_error


# backward heat on shell 2 of (1, 2, 8): the factor spans e^474 inside the shell, and
# u is 1e-170 where it is largest, so a scale per shell would lose those nodes
@example(grid=FrequencyGrid(1, 2, 8), symbol="heat", field="dynamic", t=-4.0,
         method="both", seed=0)
@example(grid=FrequencyGrid(2, 4, 8), symbol="heat", field="random", t=0.01, method="both",
         seed=1)
@example(grid=FrequencyGrid(2, 3, 5), symbol="power", field="huge", t=-1e-3,
         method="multiplier", seed=2)
@settings(max_examples=80, deadline=None)
@given(grid=st.sampled_from(LEVEL_GRIDS),
       symbol=st.sampled_from(["heat", "transport", "mixed", "constant", "no-repeat", "power"]),
       field=st.sampled_from(["random", "tiny", "huge", "zeros", "dynamic"]),
       t=st.builds(lambda sign, exponent: sign * 10.0 ** exponent,
                   st.sampled_from([1.0, -1.0]), st.floats(-4.0, 0.0)),
       method=st.sampled_from(["multiplier", "series", "both"]), seed=st.integers(0, 2**32 - 1))
def test_level_pass_matches_the_node_pass(grid, symbol, field, t, method, seed):
    """Profiles within 8 eps relative, the residual within 4 eps of the flows' profile."""
    op = level_operator(grid, symbol)
    u = level_field(grid, np.random.default_rng(seed), field)
    if symbol == "heat" and field == "dynamic" and t < 0:
        u = falling_field(grid)  # u falls across each shell as the backward factor rises
    level, node, took_levels = level_and_node_passes(op, u, t, method)
    if not took_levels:
        assert level.profiles.keys() == node.profiles.keys()
        return
    assert level.field is None and not any(level.overflow.values())
    profile_error, residual_error = level_errors(level, node)
    assert profile_error <= 8.0 and residual_error <= 4.0


def test_a_scale_per_level_keeps_nodes_a_shell_scale_would_lose():
    """Shell 2 of (1, 2, 8) under backward heat at t = -4: the factor rises from e^204 at
    |xi| = 1.125, where u is 1, to e^636 at |xi| = 2, where u is 1e-170, so the nodes
    where u is tiny carry e^40 times the rest of the seminorm."""
    grid = FrequencyGrid(1, 2, 8)
    op = level_operator(grid, "heat")
    u = falling_field(grid)
    level, node, took_levels = level_and_node_passes(op, u, -4.0, "multiplier")
    assert took_levels
    assert level_errors(level, node)[0] <= 8.0
    # the tiny samples are below 2^-537 of the shell's peak, yet decide p_2
    without = SpectralField(grid, np.where(u.values.real < 1.0, 0.0, u.values))
    assert node.profiles["multiplier"][1] > 1e15 * level_and_node_passes(
        op, without, -4.0, "multiplier")[1].profiles["multiplier"][1]


def test_level_weights_are_the_per_level_sums_of_squares(rng):
    grid = FrequencyGrid(2, 4, 8)
    op = level_operator(grid, "mixed")
    u = level_field(grid, rng, "huge")
    source = ShellField(u, op.levels()[1], op.level_offsets())
    peaks, exponents, weights = source.level_weights()
    assert source.level_weights()[0] is peaks
    assert not any(part.flags.writeable for part in (peaks, exponents, weights))
    index, shells = op.levels()[1], grid.shells()
    # in shell order, ball J's nodes come first
    inside = np.arange(grid.node_count) < shells.offsets[-1]
    samples = shell_ordered(u.values, grid)
    for level in rng.choice(peaks.size, size=40, replace=False):
        magnitudes = np.abs(samples[inside & (index == level)])
        assert peaks[level] == np.max(magnitudes)
        assert np.ldexp(0.5, exponents[level]) <= peaks[level] < np.ldexp(1.0, exponents[level])
        expected = np.sum(np.ldexp(magnitudes, -int(exponents[level])) ** 2)
        assert abs(weights[level] - expected) <= 4 * EPS * expected


def test_the_level_path_is_taken_only_where_no_node_is_needed(monkeypatch, rng):
    import frechet_flow.spectral as spectral

    grid = FrequencyGrid(2, 4, 8)
    op = level_operator(grid, "heat")
    u = random_field(grid, rng)
    taken = []
    level_product = spectral._level_product

    def recorded(flows, source):
        taken.append(flows)
        return level_product(flows, source)

    monkeypatch.setattr(spectral, "_level_product", recorded)

    def factors_at(t):
        return flow_factors(op, t, u, "both")

    def levels_taken(factors, field=u, keep=None):
        taken.clear()
        saturated_product(factors, ShellField(field, op.levels()[1], op.level_offsets()),
                          keep=keep)
        return bool(taken)

    assert levels_taken(factors_at(0.01))
    assert levels_taken({"multiplier": factors_at(0.01)["multiplier"]})
    # a kept flow, a flow that can saturate, a flagged input, t = 0
    assert not levels_taken(factors_at(0.01), keep="series")
    assert not levels_taken(factors_at(-1.0))
    assert not levels_taken(factors_at(0.01), field=SpectralField(grid, u.values, overflow=True))
    assert not levels_taken(factors_at(0.0))
    assert not levels_taken({"multiplier": factors_at(0.01)["multiplier"], "identity": None})


def test_a_solve_that_writes_no_field_builds_the_level_weights_once(monkeypatch, tmp_path):
    """The weights are built once per run, by its first level pass, and each time reads them."""
    import frechet_flow.app as app
    import frechet_flow.spectral as spectral

    built = []
    weights = spectral.ShellField.level_weights

    def recorded(self):
        built.append(self._weights is None)
        return weights(self)

    monkeypatch.setattr(spectral.ShellField, "level_weights", recorded)
    config = config_from_text(
        "[grid]\nn = 2\nJ = 4\ninv_h = 8\n"
        f"[symbol]\ntext = {HEAT_2D}\n"
        "[evolve]\ntimes = 0.001, 0.01, 0.1\nmethod = both\n"
        "[init]\nfield = gaussian-hat\n[output]\nformats = csv\n")
    result = app.run_solve(config, str(tmp_path / "out"))
    assert built == [True, False, False]
    assert result.residuals_certified and not result.overflow
