import math

import mpmath as mp
import numpy as np
import pytest

from frechet_flow import (
    FrequencyGrid,
    MultiplierOperator,
    ReflectionOperator,
    evolution,
    evolve,
    exp_multiplier,
    exp_series,
    generator_residual,
    generator_residual_bound,
    heat_symbol,
    ones,
    parse_symbol,
    random_field,
    seminorm,
    seminorm_profile,
    to_polynomial,
    transport_symbol,
    uniform_continuity_gap,
    verify_group_law,
    verify_quotient_diagrams,
)
from frechet_flow.evolution import SeriesTruncationError, choose_terms, scalar_tail
from frechet_flow.spectral import OVERFLOW_EXPONENT, LevelFactor, ShellField, saturated_product

PI = math.pi


# ---------------------------------------------------------------------------
# scalar tail machinery, checked against arbitrary-precision sums


def exact_tail(rate, terms):
    with mp.workdps(60):
        return float(mp.exp(rate) - sum(mp.mpf(rate) ** n / mp.factorial(n)
                                        for n in range(terms + 1)))


def test_scalar_tail_bound_dominates_exact_tail():
    for rate in (0.1, 1.0, 3.7):
        for terms in (5, 12, 20):
            truth = exact_tail(rate, terms)
            bound = scalar_tail(rate, terms)
            assert truth <= bound <= 4.0 * truth


def test_scalar_tail_at_rate_one_order_twelve():
    # e - sum_{n<=12} 1/n! = 1.72876...e-10; twelve terms therefore certify
    # any tolerance down to ~2e-10 at unit rate
    truth = exact_tail(1.0, 12)
    assert truth == pytest.approx(1.7288e-10, rel=1e-4)
    assert scalar_tail(1.0, 12) < 2e-10
    assert choose_terms(1.0, math.log(1e-8)) <= 12


def test_choose_terms_raises_beyond_cap():
    with pytest.raises(SeriesTruncationError):
        choose_terms(4.0, -3000.0)


# ---------------------------------------------------------------------------
# the two exponential constructions


def test_exp_multiplier_time_zero_is_identity(grid, rng):
    u = random_field(grid, rng)
    assert np.array_equal(exp_multiplier(heat_symbol(), 0.0, u).values, u.values)


def test_exp_multiplier_heat_factor_at_origin(grid):
    out = exp_multiplier(heat_symbol(), 1.0, ones(grid))
    center = grid.nearest_node(0.0)
    with mp.workdps(30):
        expected = float(mp.e**-1)
    assert out.values[center].real == pytest.approx(expected, rel=1e-14)
    assert out.values[center] == pytest.approx(0.367879, abs=1e-6)


def test_exp_multiplier_imaginary_symbol_preserves_modulus(grid, rng):
    u = random_field(grid, rng)
    for t in (-2.0, 0.3, 1.0):
        out = exp_multiplier(transport_symbol(), t, u)
        assert np.allclose(np.abs(out.values), np.abs(u.values), rtol=1e-12)
        assert not out.overflow


def test_exp_multiplier_flags_saturation(grid):
    out = exp_multiplier(heat_symbol(), -1.0, ones(grid))
    assert out.overflow
    assert np.all(np.isfinite(out.values))


def test_exp_series_time_zero(grid, rng):
    u = random_field(grid, rng)
    field, diag = exp_series(heat_symbol(), 0.0, u, 1e-8)
    assert np.array_equal(field.values, u.values)
    assert diag.terms == 0
    assert np.all(diag.bounds() == 0.0)


def test_exp_series_matches_multiplier_within_certificates(grid, rng):
    op = MultiplierOperator(heat_symbol(), grid)
    u = random_field(grid, rng)
    for t in (0.01, -0.01, 0.1, -0.1, 0.5, -0.5):
        series, diag = exp_series(op, t, u, 1e-8)
        closed = exp_multiplier(op, t, u)
        residual = seminorm_profile(series - closed)
        assert np.all(residual <= diag.bounds())


def test_exp_series_certificates_meet_tolerance_in_decay_directions(grid, rng):
    op = MultiplierOperator(heat_symbol(), grid)
    u = random_field(grid, rng)
    tol = 1e-8
    for t in (0.01, 0.1, 0.5):
        _, diag = exp_series(op, t, u, tol)
        assert all(level.stage_growth <= 1.0 for level in diag.levels)
        assert np.all(diag.bounds() <= tol)


def test_exp_series_rate_one_needs_at_most_twelve_terms(rng):
    # arrange |t| p_J^X(A) = 1 so no staging happens; with tol = 1e-8 the
    # twelve-term tail 1.7e-10 always suffices
    g = FrequencyGrid(1, 2, 4)
    op = MultiplierOperator(to_polynomial("xi"), g)
    t = 1.0 / op.seminorm(g.J)
    u = random_field(g, rng)
    _, diag = exp_series(op, t, u, 1e-8)
    assert diag.stages == 1
    assert diag.terms <= 12


def test_exp_series_on_two_dimensional_grid(rng):
    from frechet_flow import parse_symbol

    grid2 = FrequencyGrid(2, 2, 4)
    op = MultiplierOperator(
        to_polynomial(parse_symbol("-(1+4*pi^2*(xi1^2+xi2^2))", n=2)), grid2
    )
    u = random_field(grid2, rng)
    for t in (0.2, -0.2):
        series, diag = exp_series(op, t, u, 1e-8)
        closed = exp_multiplier(op, t, u)
        residual = seminorm_profile(series - closed)
        assert np.all(residual <= diag.bounds())


def test_exp_series_rejects_bad_tolerance(grid, rng):
    with pytest.raises(ValueError):
        exp_series(heat_symbol(), 0.1, random_field(grid, rng), 0.0)


# ---------------------------------------------------------------------------
# group law, continuity, generator


def test_group_law_zero_times(grid, rng):
    u = random_field(grid, rng)
    assert np.all(verify_group_law(heat_symbol(), 0.0, 0.0, u) == 0.0)


def test_group_law_heat_forward(grid, rng):
    u = random_field(grid, rng)
    residual = verify_group_law(heat_symbol(), 0.2, 0.3, u)
    assert np.all(residual < 1e-10 * (1.0 + seminorm_profile(u)))


def test_group_law_transport_full_square(grid, rng):
    u = random_field(grid, rng)
    for _ in range(10):
        s, t = rng.uniform(-1, 1, size=2)
        residual = verify_group_law(transport_symbol(), s, t, u)
        assert np.all(residual < 1e-10 * (1.0 + seminorm_profile(u)))


def test_group_inverse_recovers_field(grid, rng):
    u = random_field(grid, rng)
    back = exp_multiplier(
        transport_symbol(), -1.0, exp_multiplier(transport_symbol(), 1.0, u)
    )
    assert seminorm(back - u, grid.J) <= 1e-9 * seminorm(u, grid.J)
    # the heat flow needs a grid whose largest rate stays below the
    # saturation exponent, else the forward direction underflows
    small = FrequencyGrid(1, 3, 8)
    w = random_field(small, rng)
    back = exp_multiplier(heat_symbol(), -1.0, exp_multiplier(heat_symbol(), 1.0, w))
    assert seminorm(back - w, small.J) <= 1e-9 * seminorm(w, small.J)


def test_uniform_continuity_gap_zero_time(grid):
    op = MultiplierOperator(heat_symbol(), grid)
    assert uniform_continuity_gap(op, 0.0, 1) == (0.0, 0.0)


def test_uniform_continuity_gap_heat_closed_form(grid):
    op = MultiplierOperator(heat_symbol(), grid)
    lhs, rhs = uniform_continuity_gap(op, 0.01, 1)
    rate = 0.01 * (1 + 4 * PI**2)
    assert lhs == pytest.approx(1.0 - math.exp(-rate), rel=1e-12)
    assert rhs == pytest.approx(math.exp(rate) - 1.0, rel=1e-12)
    assert lhs < rhs


def test_uniform_continuity_gap_constant_symbol_is_tight(grid):
    op = MultiplierOperator(to_polynomial("3"), grid)
    for t in (0.1, 0.5):
        lhs, rhs = uniform_continuity_gap(op, t, 4)
        assert lhs == pytest.approx(rhs, rel=1e-14)


def test_generator_residual_zero_symbol(grid, rng):
    u = random_field(grid, rng)
    for t in (1e-2, 1e-3):
        assert generator_residual(to_polynomial("0*xi"), t, u, 3) == 0.0


def test_generator_residual_respects_closed_form_bound(grid):
    u = ones(grid)
    t = 1e-3
    residual = generator_residual(heat_symbol(), t, u, 1)
    bound = generator_residual_bound(heat_symbol(), t, u, 1)
    with mp.workdps(40):
        r = mp.mpf(1) + 4 * mp.pi**2
        expected_bound = float(((mp.e ** (t * r) - 1) / t - r))
    assert bound == pytest.approx(expected_bound * seminorm(u, 1), rel=1e-10)
    assert residual <= bound * (1 + 1e-12)


def test_generator_residual_first_order_in_time(grid, rng):
    u = random_field(grid, rng)
    r1 = generator_residual(heat_symbol(), 1e-3, u, 2)
    r2 = generator_residual(heat_symbol(), 1e-4, u, 2)
    assert 10 ** 0.8 <= r1 / r2 <= 10 ** 1.2


def test_generator_residual_rejects_zero_time(grid, rng):
    with pytest.raises(ValueError):
        generator_residual(heat_symbol(), 0.0, random_field(grid, rng), 1)


def test_group_growth_bounded_by_operator_rate(grid):
    # p_j^X(e^{tA}) <= e^{t p_j^X(A)} for the discrete flow, in log form
    # since the right side overflows doubles at the larger rates
    op = MultiplierOperator(heat_symbol(), grid)
    for t in np.arange(0.1, 1.05, 0.1):
        for j in (1, 4, 8):
            mask = grid.ball_mask(j)
            log_growth = float(np.max((t * op.values.real)[mask]))
            assert log_growth <= t * op.seminorm(j) + 1e-12


def test_flow_derivative_is_second_order_in_the_step(grid, rng):
    # centered difference of t -> e^{tA}u approaches A e^{tA}u at rate h^2
    op = MultiplierOperator(heat_symbol(), grid)
    u = random_field(grid, rng)
    t = 0.1
    target = op.apply(exp_multiplier(op, t, u))
    errors = []
    for h in (1e-2, 1e-3):
        diff = (exp_multiplier(op, t + h, u) - exp_multiplier(op, t - h, u)) * (
            1.0 / (2 * h)
        )
        errors.append(seminorm(diff - target, 1))
    ratio = errors[0] / errors[1]
    assert 50 <= ratio <= 200


# ---------------------------------------------------------------------------
# quotient diagrams


def test_quotient_diagrams_commute_bitwise_for_multipliers(grid, rng):
    op = MultiplierOperator(heat_symbol(), grid)
    for _ in range(20):
        u = random_field(grid, rng)
        for j in (1, 3, 7):
            check = verify_quotient_diagrams(op, u, j)
            assert check.passed


def test_quotient_diagrams_identity(grid, rng):
    check = verify_quotient_diagrams(MultiplierOperator("1", grid), random_field(grid, rng), 4)
    assert check.passed


def test_quotient_diagrams_reflection_fails_with_witness(grid, rng):
    op = ReflectionOperator(grid)
    check = verify_quotient_diagrams(op, random_field(grid, rng), 2)
    assert not check.passed
    assert check.witness is not None


# ---------------------------------------------------------------------------
# trajectories


@pytest.fixture
def kernel_calls(monkeypatch):
    """Names of the flow factor builders `evolve` calls, in call order."""
    calls = []
    for name in ("multiplier_factor", "series_factor"):
        def counted(*args, _kernel=getattr(evolution, name), _name=name, **kwargs):
            calls.append(_name)
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(evolution, name, counted)
    return calls


@pytest.mark.parametrize("times, method, message", [
    ((0.5, math.inf), "multiplier", "finite"),
    ((0.5, -math.inf), "series", "finite"),
    ((0.5, math.nan), "both", "finite"),
    ((0.1,), "euler", "unknown method"),
])
def test_evolve_rejects_bad_input_before_any_kernel(grid, rng, kernel_calls, times,
                                                     method, message):
    u = random_field(grid, rng)
    with pytest.raises(ValueError, match=message):
        evolve(heat_symbol(), times, u, method=method)
    assert kernel_calls == []


def test_evolve_both_methods_agree(grid, rng, kernel_calls):
    u = random_field(grid, rng)
    op = MultiplierOperator(heat_symbol(), grid)
    steps = evolve(op, (0.1, 0.4), u, method="both")
    assert kernel_calls == []  # nothing runs until the first time is asked for
    times = []
    for t, factors, diag in steps:
        times.append(t)
        assert kernel_calls[-2:] == ["multiplier_factor", "series_factor"]
        assert list(factors) == ["multiplier", "series"]
        product, flagged = saturated_product(factors, ShellField(u, op.levels()[1]),
                                             keep="multiplier")
        closed, (series, _) = exp_multiplier(op, t, u), exp_series(op, t, u)
        assert np.array_equal(product.field.values, closed.values) and not flagged
        assert product.residual.tolist() == seminorm_profile(series - closed).tolist()
        assert np.all(product.residual <= diag.bounds())
    assert times == [0.1, 0.4]
    ((t, factors, diag),) = evolve(op, (0.1,), u)
    assert list(factors) == ["multiplier"] and diag is None
    ((t, factors, diag),) = evolve(op, (0.1,), u, method="series")
    assert list(factors) == ["series"] and diag.t == 0.1
    ((t, factors, diag),) = evolve(op, (0.0,), u, method="both")
    assert factors == {"multiplier": None, "series": None} and diag.bounds().tolist() == [0.0] * 8


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_non_finite_times_are_rejected(grid, rng, t):
    u = random_field(grid, rng)
    op = MultiplierOperator(heat_symbol(), grid)
    with pytest.raises(ValueError, match="finite"):
        exp_multiplier(op, t, u)
    with pytest.raises(ValueError, match="finite"):
        exp_series(op, t, u)
    with pytest.raises(ValueError, match="finite"):
        evolve(op, [0.5, t], u)
    with pytest.raises(ValueError, match="finite"):
        evolve(op, [0.5, t], u, method="series")
    with pytest.raises(ValueError, match="finite"):
        generator_residual(op, t, u, 1)


@pytest.mark.parametrize("n, text", [(1, "2*pi*i*xi"), (2, "-(1+4*pi^2*(xi1^2+xi2^2))")])
def test_flows_accept_symbol_text(n, text, rng):
    grid = FrequencyGrid(n, 3, 4)
    u = random_field(grid, rng)
    op = MultiplierOperator(text, grid)
    polynomial = MultiplierOperator(to_polynomial(parse_symbol(text, n)), grid)
    closed = exp_multiplier(text, 0.25, u).values
    assert np.array_equal(closed, exp_multiplier(op, 0.25, u).values)
    assert np.allclose(closed, exp_multiplier(polynomial, 0.25, u).values, rtol=1e-12, atol=0)
    series, _ = exp_series(text, 0.25, u)
    assert np.array_equal(series.values, exp_series(op, 0.25, u)[0].values)


# ---------------------------------------------------------------------------
# flow factors evaluated once per distinct symbol value


def node_inverse(grid):
    """Level index of a factor given node by node: node k is level k."""
    return np.arange(grid.node_count).reshape(grid.shape)


def one_flow(factor, u):
    """The field of a factor given node by node."""
    product, _ = saturated_product({"flow": factor}, ShellField(u, node_inverse(u.grid)),
                                   keep="flow")
    return product.field


def exp_multiplier_on_nodes(op, t, u):
    """Reference closed form: the factor formed at every grid node."""
    z = (t * op.values).ravel()
    result = one_flow(LevelFactor(z.real, np.exp(1j * z.imag)), u)
    blown = (z.real > OVERFLOW_EXPONENT).reshape(u.grid.shape) & (np.abs(u.values) > 0)
    return result.values, result.overflow or bool(np.any(blown))


def exp_series_on_nodes(op, t, u, stages, terms):
    """Reference staged series: Horner, log/phase split and squarings at every node."""
    x = ((t / stages) * op.values).ravel()
    acc = np.ones_like(x)
    for n in range(terms, 0, -1):
        acc = 1.0 + acc * (x / n)
    magnitude = np.abs(acc)
    with np.errstate(divide="ignore"):
        log_magnitude = np.where(magnitude > 0.0, np.log(magnitude), -np.inf)
    phase = np.where(magnitude > 0.0, acc / np.where(magnitude > 0.0, magnitude, 1.0), 1.0)
    for _ in range(stages.bit_length() - 1):
        phase = phase * phase
    result = one_flow(LevelFactor(log_magnitude * stages, phase), u)
    return result.values, result.overflow


FLOW_SYMBOLS = [
    (1, "-(1+4*pi^2*xi^2)"),
    (1, "2*pi*i*xi"),
    (1, "-(1+xi^2) + i*(xi + 0.37*xi^3)"),
    (2, "-(1+4*pi^2*(xi1^2+xi2^2))"),
    (2, "2*pi*i*xi1"),
    (2, "-(1+xi1^2+3*xi2^2) + i*(xi1 + 0.37*xi2^3)"),
]


@pytest.mark.parametrize("n, text", FLOW_SYMBOLS)
@pytest.mark.parametrize("t", [0.05, 1.0, -0.01, -1.0])
def test_level_kernels_match_the_per_node_reference_bitwise(n, text, t, rng):
    grid = FrequencyGrid(n, 8, 8) if n == 1 else FrequencyGrid(2, 3, 8)
    op = MultiplierOperator(to_polynomial(parse_symbol(text, n)), grid)
    u = random_field(grid, rng)
    closed = exp_multiplier(op, t, u)
    expected, flagged = exp_multiplier_on_nodes(op, t, u)
    assert np.array_equal(closed.values.view(np.uint64), expected.view(np.uint64))
    assert closed.overflow == flagged
    series, diagnostics = exp_series(op, t, u)
    expected, flagged = exp_series_on_nodes(op, t, u, diagnostics.stages, diagnostics.terms)
    assert np.array_equal(series.values.view(np.uint64), expected.view(np.uint64))
    assert series.overflow == flagged


def test_backward_heat_reference_case_saturates():
    # the parametrised kernels above include saturating backward times
    grid = FrequencyGrid(1, 8, 8)
    op = MultiplierOperator(heat_symbol(), grid)
    assert exp_multiplier(op, -1.0, ones(grid)).overflow
    assert exp_series(op, -1.0, ones(grid))[0].overflow
