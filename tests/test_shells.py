"""The shell index and the per-ball reductions built on it.

Every per-ball quantity is checked against the masked formula it replaces:
one boolean mask per ball and one reduction over the masked samples.
"""

import math

import numpy as np
import pytest

from frechet_flow import (
    FrequencyGrid,
    MultiplierOperator,
    heat_symbol,
    operator_seminorm_profile,
    parse_symbol,
    project,
    random_field,
    restrict,
    seminorm,
    seminorm_profile,
    to_polynomial,
    transport_symbol,
)
from frechet_flow.evolution import _stage_growth
from frechet_flow.spectral import OVERFLOW_EXPONENT, SpectralField, saturated_product

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


def masked(grid, j):
    return grid._radius2_index <= (j * grid.inv_h) ** 2


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
        assert np.array_equal(shells.shell <= j, ball)
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
        assert grid.shells().shell[on_axis] == j
        if grid.n == 2 and j % 5 == 0:
            # |xi| = j exactly at (3j/5, 4j/5)
            corner = (lim + 3 * k // 5, lim + 4 * k // 5)
            assert grid.shells().shell[corner] == j


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
    radius = np.sqrt(grid._radius2_index) / grid.inv_h
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


def test_inf_sample_in_a_flagged_field_leaves_inner_balls_finite(rng):
    grid = FrequencyGrid(1, 8, 32)
    u = random_field(grid, rng)
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


def test_restriction_of_projection_is_bitwise_in_2d(rng):
    grid = FrequencyGrid(2, 5, 3)
    u = random_field(grid, rng)
    for j in range(1, grid.J):
        direct = project(u, j)
        via = restrict(project(u, j + 1), j)
        assert np.array_equal(direct.values, via.values)
        assert np.array_equal(direct.coords, via.coords)
        assert direct.norm == seminorm(u, j)


def test_restriction_norm_matches_the_projection_norm(rng):
    # one 1e200 sample at |xi| = 1.5: an unscaled sum of squares overflows
    grid = FrequencyGrid(1, 4, 4)
    values = np.ones(grid.shape, dtype=complex)
    values[grid.nearest_node(1.5)] = 1e200
    fields = [SpectralField(grid, values)]
    for g in (FrequencyGrid(1, 8, 3), FrequencyGrid(2, 5, 3)):
        fields += [random_field(g, rng), SpectralField(g, 1e180 * random_field(g, rng).values)]
    for u in fields:
        for j in range(1, u.grid.J):
            direct = project(u, j).norm
            via = restrict(project(u, j + 1), j).norm
            assert math.isfinite(via)
            assert abs(via - direct) <= 4 * math.ulp(direct)
    assert restrict(project(fields[0], 3), 2).norm == pytest.approx(5e199, rel=1e-15)


@pytest.mark.parametrize("grid", GRIDS, ids=repr)
def test_operator_profile_and_stage_growth_equal_the_masked_max(grid):
    if grid.n == 1:
        symbols = [heat_symbol(), transport_symbol(), to_polynomial("1+xi^3")]
    else:
        symbols = [parse_symbol(text, 2) for text in (HEAT_2D, "1+xi1^3*xi2")]
    for symbol in symbols:
        op = MultiplierOperator(symbol, grid)
        expected = [float(np.max(np.abs(op.values[masked(grid, j)])))
                    for j in range(1, grid.J + 1)]
        assert operator_seminorm_profile(op).tolist() == expected
        assert [op.seminorm(j) for j in range(1, grid.J + 1)] == expected
        for t in (0.3, -0.3, 1e-3, -7.0):
            growth = _stage_growth(op, t)
            for j in range(1, grid.J + 1):
                peak = float(np.max((t * op.values.real)[masked(grid, j)]))
                assert growth[j - 1] == (math.exp(peak) if peak <= 700.0 else math.inf)


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
    result, _ = saturated_product(log_magnitude, phase, SpectralField(u.grid, values))
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
        result, flagged = saturated_product(log_magnitude, phase, u)
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
    result, flagged = saturated_product(log_magnitude, np.ones(grid.shape), u)
    assert not flagged
    assert np.array_equal(result.values[others], expected[others])


def test_direct_product_branch_guards_large_factors_on_small_data():
    grid = FrequencyGrid(1, 2, 4)
    values = np.zeros(grid.shape, dtype=complex)
    values[3] = 1e-320
    log_magnitude = np.full(grid.shape, 720.0)
    result, flagged = saturated_product(log_magnitude, np.ones(grid.shape), SpectralField(grid, values))
    expected, others = full_path(log_magnitude, np.ones(grid.shape), SpectralField(grid, values))
    assert np.all(np.isfinite(result.values))
    assert np.array_equal(result.values[others], expected[others])
    assert not flagged


def test_nan_and_inf_samples_take_the_full_path():
    grid = FrequencyGrid(1, 2, 4)
    values = np.ones(grid.shape, dtype=complex)
    values[2] = np.inf
    result, flagged = saturated_product(
        np.zeros(grid.shape), np.ones(grid.shape), SpectralField(grid, values, overflow=True)
    )
    assert flagged and result.overflow
    assert abs(result.values[2]) == pytest.approx(math.exp(OVERFLOW_EXPONENT), rel=1e-12)
