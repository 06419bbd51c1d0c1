import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frechet_flow.spectral import (
    FrequencyGrid,
    GridError,
    SpectralField,
    delta,
    mask_outside,
    metric,
    ones,
    project,
    random_field,
    seminorm,
    seminorm_profile,
)

REL = 1e-12


def test_grid_node_counts():
    assert FrequencyGrid(1, 2, 2).node_count == 9
    assert FrequencyGrid(1, 8, 32).node_count == 513
    assert FrequencyGrid(2, 2, 1).node_count == 25


def test_grid_matches_explicit_enumeration():
    grid = FrequencyGrid(1, 2, 2)
    nodes = [k * 0.5 for k in range(-4, 5)]
    assert np.allclose(grid.axis, nodes)


def test_grid_rejects_no_balls_and_three_dimensions():
    with pytest.raises(GridError):
        FrequencyGrid(1, 0, 2)
    with pytest.raises(GridError):
        FrequencyGrid(3, 2, 2)


def test_grid_rejects_node_budget_overflow():
    with pytest.raises(GridError):
        FrequencyGrid(2, 1024, 1024)


def test_nearest_node_clips_far_points_and_rejects_non_finite_ones():
    grid = FrequencyGrid(2, 4, 8)  # 65 nodes per axis
    assert grid.nearest_node([0.5, -0.26]) == (36, 30)
    assert grid.nearest_node([1e300, -1e308]) == (64, 0)
    assert grid.nearest_node([4.02, -4.02]) == (64, 0)
    for point in ([math.nan, 0.0], [0.0, math.inf]):
        with pytest.raises(GridError, match="not finite"):
            grid.nearest_node(point)
    with pytest.raises(GridError, match="not finite"):
        delta(FrequencyGrid(1, 4, 8), math.nan)


def test_ball_membership_includes_boundary():
    grid = FrequencyGrid(1, 2, 2)
    mask = grid.ball_mask(1)
    # nodes at exactly |xi| = 1 are inside (tie rule), |xi| = 1.5 outside
    assert mask[list(grid.axis).index(-1.0)]
    assert mask[list(grid.axis).index(1.0)]
    assert not mask[list(grid.axis).index(1.5)]
    assert int(mask.sum()) == 5


def test_euclidean_ball_nodes_are_on_the_grid_2d():
    grid = FrequencyGrid(2, 2, 1)
    mask = grid.ball_mask(2)
    # (1, 1) has norm sqrt(2) <= 2; (2, 2) has norm > 2 and is excluded,
    # though it remains a grid node of the ambient square
    assert mask[3, 3]
    assert not mask[4, 4]


def test_seminorm_zero_field(grid):
    assert seminorm(SpectralField(grid, np.zeros(grid.shape)), 3) == 0.0


def test_seminorm_of_unit_field_closed_form(grid):
    # 129 nodes inside |xi| <= 2 each weighted by h: p_2^2 = 2*2 + h
    value = seminorm(ones(grid), 2)
    assert value == pytest.approx(math.sqrt(4.0 + grid.h), rel=1e-15)
    assert value == pytest.approx(2.0078, abs=5e-5)


def test_seminorm_quadrature_converges_to_exact_integral():
    gaps = []
    for inv_h in (32, 64, 128):
        g = FrequencyGrid(1, 8, inv_h)
        gaps.append(abs(seminorm(ones(g), 2) ** 2 - 4.0))
    assert gaps[0] == pytest.approx(1 / 32, rel=1e-12)
    assert gaps[1] == pytest.approx(gaps[0] / 2, rel=1e-12)
    assert gaps[2] == pytest.approx(gaps[1] / 2, rel=1e-12)


def test_seminorm_homogeneity_and_monotonicity(grid, rng):
    u = random_field(grid, rng)
    for j in range(1, grid.J):
        assert seminorm(u, j) <= seminorm(u, j + 1) + 1e-15
        assert seminorm(2.0 * u, j) == pytest.approx(2.0 * seminorm(u, j), rel=REL)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), j=st.integers(1, 4))
def test_seminorm_triangle_inequality(seed, j):
    g = FrequencyGrid(1, 4, 4)
    r = np.random.default_rng(seed)
    u, v = random_field(g, r), random_field(g, r)
    lhs = seminorm(u + v, j)
    assert lhs <= seminorm(u, j) + seminorm(v, j) + REL * (1.0 + lhs)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), scale=st.floats(0.0, 100.0))
def test_seminorm_absolute_homogeneity(seed, scale):
    g = FrequencyGrid(1, 4, 4)
    u = random_field(g, np.random.default_rng(seed))
    for j in (1, 3):
        assert seminorm(scale * u, j) == pytest.approx(
            scale * seminorm(u, j), rel=REL, abs=1e-300
        )


def test_seminorm_rejects_bad_ball_index(grid):
    with pytest.raises(GridError):
        seminorm(ones(grid), 0)
    with pytest.raises(GridError):
        seminorm(ones(grid), grid.J + 1)


def test_metric_identity_and_symmetry(grid, rng):
    u, v = random_field(grid, rng), random_field(grid, rng)
    assert metric(u, u) == 0.0
    assert metric(u, v) == pytest.approx(metric(v, u), rel=1e-15)
    assert 0.0 <= metric(u, v) <= 1.0 - 2.0**-grid.J


def test_metric_of_unit_profile_is_geometric_sum(grid):
    # a delta at the origin scaled by 1/sqrt(h) has every ball seminorm 1,
    # so each term of the series contributes 2^-j * 1/2
    u = delta(grid, 0.0) * (1.0 / math.sqrt(grid.h))
    assert np.allclose(seminorm_profile(u), 1.0)
    expected = 0.5 * (1.0 - 2.0**-grid.J)
    zero = SpectralField(grid, np.zeros(grid.shape))
    assert metric(u, zero) == pytest.approx(expected, rel=1e-14)


def test_metric_rejects_incompatible_grids(grid):
    other = FrequencyGrid(1, 8, 16)
    with pytest.raises(GridError):
        metric(ones(grid), ones(other))


def test_field_linear_axioms(grid, rng):
    u, v = random_field(grid, rng), random_field(grid, rng)
    w = (u + v) - v
    assert np.allclose(w.values, u.values, rtol=0, atol=1e-12)
    assert np.array_equal((-u).values, -u.values)
    with pytest.raises(ValueError):
        SpectralField(grid, np.full(grid.shape, np.nan, dtype=complex))


def test_field_values_are_immutable(grid):
    u = ones(grid)
    with pytest.raises(ValueError):
        u.values[0] = 3.0


def test_project_keeps_the_ball_and_zeroes_the_rest(grid, rng):
    u = random_field(grid, rng)
    for j in (1, 4, 8):
        q = project(u, j)
        mask = grid.ball_mask(j)
        assert isinstance(q, SpectralField) and q.grid == grid
        assert np.array_equal(q.values[mask], u.values[mask])
        assert np.all(q.values[~mask] == 0)
        assert seminorm(q, j) == seminorm(u, j)


def test_project_keeps_the_overflow_flag(grid, rng):
    u = SpectralField(grid, random_field(grid, rng).values, overflow=True)
    assert project(u, 3).overflow and not project(random_field(grid, rng), 3).overflow


def test_projection_restriction_diagram_is_bitwise(grid, rng):
    u = random_field(grid, rng)
    for j in range(1, grid.J):
        direct = project(u, j)
        via_restriction = project(project(u, j + 1), j)
        assert np.array_equal(direct.values, via_restriction.values)


def test_project_zero_field(grid):
    q = project(SpectralField(grid, np.zeros(grid.shape)), 5)
    assert seminorm(q, 5) == 0.0
    assert np.all(q.values == 0)


def test_separating_family_at_grid_resolution(grid, rng):
    # in one dimension ball J covers the whole grid, so a vanishing top
    # seminorm forces every sample to vanish
    u = random_field(grid, rng)
    assert seminorm(u, grid.J) > 0
    outside = mask_outside(u, grid.J)
    assert np.all(outside.values == 0)


def test_quadrature_fault_hook_changes_the_seminorm(grid):
    from frechet_flow.verify import suite_spectral

    clean = seminorm(ones(grid), 2)
    assert suite_spectral(np.random.default_rng(0)) == []
    failures = suite_spectral(np.random.default_rng(0), weight_factor=1.001)
    assert any("quadrature of the unit field" in f for f in failures)
    assert seminorm(ones(grid), 2) == clean


# ---------------------------------------------------------------------------
# field storage: ownership, read-only results and the .fl2l round trip


def test_constructor_copies_the_callers_array(grid, rng):
    values = random_field(grid, rng).values.copy()
    kept = values.copy()
    u = SpectralField(grid, values)
    values[:] = 7.0
    assert np.array_equal(u.values, kept)
    assert not u.values.flags.writeable


def test_compatibility_samples_are_distinct_deltas(small_grid, rng):
    from frechet_flow.operators import compatibility_samples

    samples = compatibility_samples(small_grid, rng)
    deltas = samples[: small_grid.node_count]
    for index, u in zip(np.ndindex(small_grid.shape), deltas):
        assert np.count_nonzero(u.values) == 1 and u.values[index] == 1.0


def test_internal_results_are_read_only(grid, rng, tmp_path):
    from frechet_flow.evolution import exp_multiplier, exp_series
    from frechet_flow.fieldio import read_field, write_field
    from frechet_flow.operators import MultiplierOperator
    from frechet_flow.spectral import LevelFactor, ShellField, saturated_product
    from frechet_flow.symbols import heat_symbol

    u, v = random_field(grid, rng), random_field(grid, rng)
    op = MultiplierOperator(heat_symbol(), grid)
    levels, index = op.levels()
    path = tmp_path / "u.fl2l"
    write_field(path, u)
    results = [
        u + v, u - v, 2.0 * u, u * 3j, -u, op.apply(u), mask_outside(u, 2),
        project(u, 3), read_field(path),
        exp_multiplier(op, 0.0, u), exp_series(op, 0.0, u)[0],
        exp_multiplier(op, 0.1, u), exp_multiplier(op, -1.0, u),
        saturated_product({"flow": LevelFactor(np.zeros(levels.size), np.ones(levels.size))},
                          ShellField(u, index, op.level_offsets()), keep="flow")[0].field,
        ones(grid), SpectralField(grid, np.zeros(grid.shape)), delta(grid),
        random_field(grid, rng),
    ]
    for field in results:
        assert field.values.dtype == np.complex128
        assert not field.values.flags.writeable
        with pytest.raises(ValueError):
            field.values[0] = 1.0


def test_adopted_results_still_reject_non_finite_samples(grid):
    huge = SpectralField(grid, np.full(grid.shape, 1e308, dtype=complex))
    flagged = SpectralField(grid, huge.values, overflow=True)
    # the results overflow: the check must see it, with no RuntimeWarning
    with pytest.raises(ValueError, match="non-finite"):
        huge + huge
    with pytest.raises(ValueError, match="non-finite"):
        huge - (-1.0) * huge
    with pytest.raises(ValueError, match="non-finite"):
        huge * 1e10
    assert np.all(np.isinf((flagged + huge).values.real))


def bits(values):
    return np.asarray(values).view(np.uint64)


def test_binary_round_trip_keeps_every_bit_pattern(tmp_path):
    from frechet_flow.fieldio import read_field, write_field

    grid = FrequencyGrid(1, 1, 2)
    values = np.array(
        [complex(1.0, -0.0), complex(-0.0, 2.0), complex(-0.0, -0.0), complex(0.0, -0.0),
         complex(5e-324, -5e-324)],
        dtype=complex,
    )
    first, second = tmp_path / "a.fl2l", tmp_path / "b.fl2l"
    write_field(first, SpectralField(grid, values))
    back = read_field(first)
    assert np.array_equal(bits(back.values), bits(values))
    write_field(second, back)
    assert first.read_bytes() == second.read_bytes()


def test_binary_writer_writes_the_bytes_of_the_samples(tmp_path):
    import struct

    from frechet_flow.fieldio import write_field

    grid = FrequencyGrid(1, 2, 2)
    patterns = [0x8000000000000000, 0x0000000000000000, 0x7FF0000000000000,
                0xFFF0000000000000, 0x7FF8000000000000, 0xFFF8000000000000,
                0x7FF8000000000123, 0x7FF0000000000001, 0xFFF4000000ABCDEF,
                0x0000000000000001, 0x3FF0000000000000, 0xBFF0000000000000]
    parts = np.array(patterns * 2, dtype=np.uint64)[: 2 * grid.node_count].view(np.float64)
    u = SpectralField(grid, parts.view(np.complex128), overflow=True)
    assert np.array_equal(bits(u.values).ravel(), parts.view(np.uint64))
    path = tmp_path / "a.fl2l"
    write_field(path, u)
    header = struct.pack("<4sIBII", b"FL2L", 1, grid.n, grid.J, grid.inv_h)
    assert path.read_bytes() == header + u.values.astype("<c16", copy=False).tobytes()


def test_binary_reader_names_the_body_sizes(tmp_path):
    from frechet_flow.fieldio import FieldFormatError, read_field, write_field

    grid = FrequencyGrid(1, 1, 2)
    path = tmp_path / "short.fl2l"
    write_field(path, ones(grid))
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(FieldFormatError, match="expected a body of 80 bytes .5 samples., found 77 bytes"):
        read_field(path)


def test_binary_reader_names_the_size_of_a_long_body(tmp_path):
    from frechet_flow.fieldio import FieldFormatError, read_field, write_field

    grid = FrequencyGrid(1, 1, 2)
    path = tmp_path / "long.fl2l"
    write_field(path, ones(grid))
    path.write_bytes(path.read_bytes() + b"\0" * 7)
    with pytest.raises(FieldFormatError, match="expected a body of 80 bytes .5 samples., found 87 bytes"):
        read_field(path)


def test_binary_reader_rejects_a_non_finite_sample_without_warnings(tmp_path):
    from frechet_flow.fieldio import read_field, write_field

    grid = FrequencyGrid(1, 1, 2)
    values = np.ones(grid.shape, dtype=complex)
    values[2] = complex(1.0, np.inf)
    path = tmp_path / "inf.fl2l"
    write_field(path, SpectralField(grid, values, overflow=True))
    with pytest.raises(ValueError, match="non-finite samples"):
        read_field(path)
