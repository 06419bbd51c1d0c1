import functools
import math
import warnings
import weakref

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frechet_flow import evolution
from frechet_flow.bounds import SeriesTruncationError, choose_terms, scalar_tail_log
from frechet_flow.evolution import (
    evolve,
    exp_multiplier,
    exp_series,
    generator_residual,
    generator_residual_bound,
    multiplier_factor,
    series_factor,
    uniform_continuity_gap,
    verify_group_law,
    verify_quotient_diagrams,
)
from frechet_flow.operators import MultiplierOperator, ReflectionOperator, _level_table
from frechet_flow.spectral import (
    OVERFLOW_EXPONENT,
    FrequencyGrid,
    LevelFactor,
    ShellField,
    SpectralField,
    ones,
    random_field,
    saturated_product,
    seminorm,
    seminorm_profile,
    shell_numbers,
)
from frechet_flow.symbols import (
    HEAT_SYMBOL_TEXT,
    TRANSPORT_SYMBOL_TEXT,
    heat_symbol,
    parse_symbol,
    transport_symbol,
)

from oracle import exact_tail, flow_error_profile

PI = math.pi


def heat_on(grid):
    return MultiplierOperator(heat_symbol(), grid)


def transport_on(grid):
    return MultiplierOperator(transport_symbol(), grid)


def operator_of(text, n, grid):
    return MultiplierOperator(parse_symbol(text, n), grid)


# ---------------------------------------------------------------------------
# scalar tail machinery, checked against arbitrary-precision sums


def test_scalar_tail_bound_dominates_exact_tail():
    for rate in (0.1, 1.0, 3.7):
        for terms in (5, 12, 20):
            truth = exact_tail(rate, terms)
            bound = math.exp(scalar_tail_log(rate, terms))
            assert truth <= bound <= 4.0 * truth


def test_scalar_tail_at_rate_one_order_twelve():
    # e - sum_{n<=12} 1/n! = 1.72876...e-10; twelve terms therefore certify
    # any tolerance down to ~2e-10 at unit rate
    truth = exact_tail(1.0, 12)
    assert truth == pytest.approx(1.7288e-10, rel=1e-4)
    assert math.exp(scalar_tail_log(1.0, 12)) < 2e-10
    assert choose_terms(1.0, math.log(1e-8)) <= 12


def test_choose_terms_raises_beyond_cap():
    with pytest.raises(SeriesTruncationError):
        choose_terms(4.0, -3000.0)
    # a ValueError, so the command line reports it in one line with exit 2
    with pytest.raises(ValueError, match="needs more than 512 terms"):
        choose_terms(4.0, -3000.0)


# ---------------------------------------------------------------------------
# the two exponential constructions


def test_exp_multiplier_time_zero_is_identity(grid, rng):
    u = random_field(grid, rng)
    assert np.array_equal(exp_multiplier(heat_on(grid), 0.0, u).values, u.values)


def test_exp_multiplier_heat_factor_at_origin(grid):
    out = exp_multiplier(heat_on(grid), 1.0, ones(grid))
    center = grid.nearest_node(0.0)
    with mp.workdps(30):
        expected = float(mp.e**-1)
    assert out.values[center].real == pytest.approx(expected, rel=1e-14)
    assert out.values[center] == pytest.approx(0.367879, abs=1e-6)


def test_exp_multiplier_imaginary_symbol_preserves_modulus(grid, rng):
    u = random_field(grid, rng)
    op = transport_on(grid)
    for t in (-2.0, 0.3, 1.0):
        out = exp_multiplier(op, t, u)
        assert np.allclose(np.abs(out.values), np.abs(u.values), rtol=1e-12)
        assert not out.overflow


def test_exp_multiplier_flags_saturation(grid):
    out = exp_multiplier(heat_on(grid), -1.0, ones(grid))
    assert out.overflow
    assert np.all(np.isfinite(out.values))


def test_exp_series_time_zero(grid, rng):
    u = random_field(grid, rng)
    field, diag = exp_series(heat_on(grid), 0.0, u, 1e-8)
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


@pytest.mark.parametrize("symbol, t", [
    (heat_symbol, 0.01), (heat_symbol, 0.5), (transport_symbol, 0.01),
    (transport_symbol, -0.01), (transport_symbol, 0.5), (transport_symbol, -0.5)])
def test_exp_series_error_against_the_exact_flow_is_within_its_certificate(
        grid, rng, symbol, t):
    # judged against the 60-digit flow of the stored data, not the closed form
    op = MultiplierOperator(symbol(), grid)
    u = random_field(grid, rng)
    series, diag = exp_series(op, t, u, 1e-8)
    assert np.all(flow_error_profile(op, t, u, series) <= diag.bounds())


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
    op = operator_of("xi", 1, g)
    t = 1.0 / op.seminorm(g.J)
    u = random_field(g, rng)
    _, diag = exp_series(op, t, u, 1e-8)
    assert diag.stages == 1
    assert diag.terms <= 12


def test_exp_series_on_two_dimensional_grid(rng):
    grid2 = FrequencyGrid(2, 2, 4)
    op = operator_of("-(1+4*pi^2*(xi1^2+xi2^2))", 2, grid2)
    u = random_field(grid2, rng)
    for t in (0.2, -0.2):
        series, diag = exp_series(op, t, u, 1e-8)
        closed = exp_multiplier(op, t, u)
        residual = seminorm_profile(series - closed)
        assert np.all(residual <= diag.bounds())


def test_exp_series_rejects_bad_tolerance(grid, rng):
    with pytest.raises(ValueError):
        exp_series(heat_on(grid), 0.1, random_field(grid, rng), 0.0)


# ---------------------------------------------------------------------------
# group law, continuity, generator


def test_group_law_zero_times(grid, rng):
    u = random_field(grid, rng)
    assert np.all(verify_group_law(heat_on(grid), 0.0, 0.0, u) == 0.0)


def test_group_law_heat_forward(grid, rng):
    u = random_field(grid, rng)
    residual = verify_group_law(heat_on(grid), 0.2, 0.3, u)
    assert np.all(residual < 1e-10 * (1.0 + seminorm_profile(u)))


def test_group_law_transport_full_square(grid, rng):
    u = random_field(grid, rng)
    op = transport_on(grid)
    for _ in range(10):
        s, t = rng.uniform(-1, 1, size=2)
        residual = verify_group_law(op, s, t, u)
        assert np.all(residual < 1e-10 * (1.0 + seminorm_profile(u)))


def test_group_inverse_recovers_field(grid, rng):
    u = random_field(grid, rng)
    op = transport_on(grid)
    back = exp_multiplier(op, -1.0, exp_multiplier(op, 1.0, u))
    assert seminorm(back - u, grid.J) <= 1e-9 * seminorm(u, grid.J)
    # the heat flow needs a grid whose largest rate stays below the
    # saturation exponent, else the forward direction underflows
    small = FrequencyGrid(1, 3, 8)
    w = random_field(small, rng)
    op = heat_on(small)
    back = exp_multiplier(op, -1.0, exp_multiplier(op, 1.0, w))
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
    op = operator_of("3", 1, grid)
    for t in (0.1, 0.5):
        lhs, rhs = uniform_continuity_gap(op, t, 4)
        assert lhs == pytest.approx(rhs, rel=1e-14)


@pytest.mark.parametrize("text", ["3", HEAT_SYMBOL_TEXT, TRANSPORT_SYMBOL_TEXT,
                                  f"{HEAT_SYMBOL_TEXT}+{TRANSPORT_SYMBOL_TEXT}", "xi^2", "1+i"])
def test_uniform_continuity_gap_holds_its_bound_down_to_tiny_times(grid, text):
    # both sides are free of cancellation, so neither rounds to 0 at small t;
    # where they are equal in exact arithmetic they differ by a few ulps
    op = operator_of(text, 1, grid)
    excess = []
    for t in np.geomspace(1e-300, 10.0, 400).tolist():
        for j in (1, 4, 8):
            lhs, rhs = uniform_continuity_gap(op, t, j)
            if not lhs <= rhs * (1.0 + 2.0**-50):
                excess.append((t, j, lhs, rhs))
    assert excess == []


def test_generator_residual_zero_symbol(grid, rng):
    u = random_field(grid, rng)
    op = operator_of("0*xi", 1, grid)
    for t in (1e-2, 1e-3):
        assert generator_residual(op, t, u, 3) == 0.0


def test_generator_residual_respects_closed_form_bound(grid):
    u = ones(grid)
    t = 1e-3
    op = heat_on(grid)
    residual = generator_residual(op, t, u, 1)
    bound = generator_residual_bound(op, t, u, 1)
    with mp.workdps(40):
        r = mp.mpf(1) + 4 * mp.pi**2
        expected_bound = float(((mp.e ** (t * r) - 1) / t - r))
    assert bound == pytest.approx(expected_bound * seminorm(u, 1), rel=1e-10)
    assert residual <= bound * (1 + 1e-12)


def test_generator_residual_first_order_in_time(grid, rng):
    u = random_field(grid, rng)
    op = heat_on(grid)
    r1 = generator_residual(op, 1e-3, u, 2)
    r2 = generator_residual(op, 1e-4, u, 2)
    assert 10 ** 0.8 <= r1 / r2 <= 10 ** 1.2


def test_generator_residual_rejects_zero_time(grid, rng):
    with pytest.raises(ValueError):
        generator_residual(heat_on(grid), 0.0, random_field(grid, rng), 1)


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
    check = verify_quotient_diagrams(operator_of("1", 1, grid), random_field(grid, rng), 4)
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
        evolve(heat_on(grid), times, u, method=method)
    assert kernel_calls == []


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf, -math.inf])
def test_a_tolerance_that_is_not_positive_and_finite_is_refused_at_the_call(grid, rng,
                                                                           kernel_calls, tol):
    u = random_field(grid, rng)
    op = heat_on(grid)
    for method in ("multiplier", "series", "both"):
        with pytest.raises(ValueError, match="tolerance must be"):
            evolve(op, (0.5,), u, method=method, tol=tol)
    assert kernel_calls == []
    for t in (0.0, 0.5):
        with pytest.raises(ValueError, match="tolerance must be"):
            series_factor(op, t, seminorm_profile(u), tol)
        with pytest.raises(ValueError, match="tolerance must be"):
            exp_series(op, t, u, tol)


def test_evolve_both_methods_agree(grid, rng, kernel_calls):
    u = random_field(grid, rng)
    op = MultiplierOperator(heat_symbol(), grid)
    steps = evolve(op, (0.1, 0.4), u, method="both", keep=True)
    assert kernel_calls == []  # nothing runs until the first time is asked for
    times = []
    for t, product, diag in steps:
        times.append(t)
        assert kernel_calls[-2:] == ["multiplier_factor", "series_factor"]
        assert list(product.profiles) == ["multiplier", "series"]
        closed, (series, _) = exp_multiplier(op, t, u), exp_series(op, t, u)
        # the kept field is the last method's
        assert np.array_equal(product.field.values, series.values)
        assert not any(product.overflow.values())
        assert product.profiles["multiplier"].tolist() == seminorm_profile(closed).tolist()
        assert product.residual.tolist() == seminorm_profile(series - closed).tolist()
        assert np.all(product.residual <= diag.bounds())
    assert times == [0.1, 0.4]
    ((t, product, diag),) = evolve(op, (0.1,), u)
    assert list(product.profiles) == ["multiplier"] and diag is None and product.field is None
    ((t, product, diag),) = evolve(op, (0.1,), u, method="series")
    assert list(product.profiles) == ["series"] and diag.t == 0.1
    # t = 0 is the identity for both methods
    ((t, product, diag),) = evolve(op, (0.0,), u, method="both", keep=True)
    assert np.array_equal(product.field.values, u.values) and not product.field.overflow
    for profile in product.profiles.values():
        assert profile.tolist() == seminorm_profile(u).tolist()
    assert product.residual.tolist() == [0.0] * 8 and diag.bounds().tolist() == [0.0] * 8


def test_evolve_reads_the_operators_level_index_without_a_copy(grid, rng, monkeypatch):
    u = random_field(grid, rng)
    op = MultiplierOperator(heat_symbol(), grid)
    sources = []
    product = evolution.saturated_product

    def recorded(factors, source, keep=None):
        sources.append(source)
        return product(factors, source, keep=keep)

    monkeypatch.setattr(evolution, "saturated_product", recorded)
    for keep in (False, True):
        list(evolve(op, (-0.1, 0.1), u, method="both", keep=keep))
    assert len(sources) == 4
    for source in sources:
        assert source.levels is op.levels()[1]
        assert source.level_offsets is op.level_offsets()


@pytest.mark.parametrize("method", ["multiplier", "series", "both"])
def test_evolve_holds_no_initial_field_and_one_time_at_a_time(grid, rng, monkeypatch, method):
    """``u0`` is released once `evolve` returns, and a time's factors and product
    before the next time's factors are formed."""
    u = random_field(grid, rng)
    op = MultiplierOperator(heat_symbol(), grid)
    initial = weakref.ref(u.values)
    earlier = []  # weak references to the factors and products of earlier times
    pending = []  # weak references to this time's factors

    def checked(kernel):
        def formed(*args, **kwargs):
            assert initial() is None, "the grid-ordered initial samples are alive"
            assert all(ref() is None for ref in earlier), "an earlier time is alive"
            result = kernel(*args, **kwargs)
            factor = result[0] if isinstance(result, tuple) else result
            pending.append(weakref.ref(factor))
            return result
        return formed

    for name in ("multiplier_factor", "series_factor"):
        monkeypatch.setattr(evolution, name, checked(getattr(evolution, name)))
    steps = evolve(op, (0.1, 0.2, 0.3), u, method=method, keep=True)
    del u
    for t, product, diag in steps:
        earlier.extend(pending + [weakref.ref(product), weakref.ref(product.field.values)])
        pending.clear()
        del product
    assert len(earlier) == 3 * (2 + (2 if method == "both" else 1))


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
    with pytest.raises(ValueError, match="finite"):
        generator_residual_bound(op, t, u, 1)
    with pytest.raises(ValueError, match="finite"):
        uniform_continuity_gap(op, t, 1)


def test_difference_quotients_refuse_t_zero(grid, rng):
    u = random_field(grid, rng)
    op = MultiplierOperator(heat_symbol(), grid)
    for call in (generator_residual, generator_residual_bound):
        with pytest.raises(ValueError, match="the difference quotient needs t != 0"):
            call(op, 0.0, u, 1)


def test_flows_take_the_operator_of_the_field_grid(grid, rng):
    u = random_field(grid, rng)
    op = heat_on(FrequencyGrid(1, 8, 16))
    for call in (lambda: exp_multiplier(op, 0.1, u), lambda: exp_series(op, 0.1, u),
                 lambda: evolve(op, [0.1], u), lambda: verify_group_law(op, 0.1, 0.2, u),
                 lambda: generator_residual(op, 0.1, u, 1),
                 lambda: generator_residual_bound(op, 0.1, u, 1)):
        with pytest.raises(ValueError, match="operator grid does not match field grid"):
            call()


# ---------------------------------------------------------------------------
# flow factors evaluated once per distinct symbol value


def one_flow(factor, u):
    """The field of a factor given node by node in grid order: each node is its own level,
    the levels numbered in shell order."""
    grid, shells = u.grid, u.grid.shells()
    source = ShellField(u, np.arange(grid.node_count, dtype=np.int32),
                        np.append(shells.offsets, grid.node_count))
    by_level = LevelFactor(factor.log_magnitude[shells.order], factor.phase[shells.order])
    product, _ = saturated_product({"flow": by_level}, source, keep="flow")
    return product.field


def exp_multiplier_on_nodes(op, t, u):
    """Reference closed form: the factor formed at every grid node."""
    z = (t * op.values).ravel()
    result = one_flow(LevelFactor(z.real, np.exp(1j * z.imag)), u)
    blown = (z.real > OVERFLOW_EXPONENT).reshape(u.grid.shape) & (np.abs(u.values) > 0)
    return result.values, result.overflow or bool(np.any(blown))


def stage_factor_by_division(values, t, stages, terms):
    """Reference staged series factor ``(log magnitude, phase)`` of each value.

    Horner's rule divides by n, as the series stage did before it took the
    product by ``1/n``; then the log/phase split and the squarings.
    """
    x = (t / stages) * values
    acc = np.ones_like(x)
    for n in range(terms, 0, -1):
        acc = 1.0 + acc * (x / n)
    return composed_stage(acc, stages)


def composed_stage(acc, stages):
    """A stage value's ``(log magnitude, phase)`` per level, composed ``stages`` times."""
    magnitude = np.abs(acc)
    with np.errstate(divide="ignore"):
        log_magnitude = np.where(magnitude > 0.0, np.log(magnitude), -np.inf)
    phase = np.where(magnitude > 0.0, acc / np.where(magnitude > 0.0, magnitude, 1.0), 1.0)
    for _ in range(stages.bit_length() - 1):
        phase = phase * phase
    return log_magnitude * stages, phase


def exp_series_on_nodes(op, t, u, stages, terms):
    """Reference staged series: Horner, log/phase split and squarings at every node."""
    log_magnitude, phase = stage_factor_by_division(op.values.ravel(), t, stages, terms)
    result = one_flow(LevelFactor(log_magnitude, phase), u)
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
    op = operator_of(text, n, grid)
    u = random_field(grid, rng)
    closed = exp_multiplier(op, t, u)
    expected, flagged = exp_multiplier_on_nodes(op, t, u)
    assert np.array_equal(closed.values.view(np.uint64), expected.view(np.uint64))
    assert closed.overflow == flagged
    series, diagnostics = exp_series(op, t, u)
    expected, flagged = exp_series_on_nodes(op, t, u, diagnostics.stages, diagnostics.terms)
    assert np.array_equal(series.values.view(np.uint64), expected.view(np.uint64))
    assert series.overflow == flagged


@settings(max_examples=100, deadline=None)
@given(exponent=st.floats(-8.0, 3.0), sign=st.sampled_from([1.0, -1.0]), real=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_stage_horner_keeps_the_bits_of_the_division(exponent, sign, real, seed):
    rng = np.random.default_rng(seed)
    grid = FrequencyGrid(1, 8, 8)
    values = np.empty(grid.node_count, dtype=np.complex128)
    values.real = rng.standard_normal(values.size) * 10.0 ** rng.uniform(-3, 3, values.size)
    if real:  # imaginary parts +0 and -0
        values.imag = np.copysign(0.0, rng.standard_normal(values.size))
    else:
        values.imag = rng.standard_normal(values.size) * 10.0 ** rng.uniform(-3, 3, values.size)
    op = raw_table_operator(values)
    levels = op.levels()[0]
    t = sign * 10.0 ** exponent
    profile = seminorm_profile(random_field(grid, rng))
    factor, diagnostics = series_factor(op, t, profile, 1e-8)
    log_magnitude, phase = stage_factor_by_division(levels, t, diagnostics.stages,
                                                    diagnostics.terms)
    assert np.array_equal(factor.log_magnitude.view(np.uint64), log_magnitude.view(np.uint64))
    assert np.array_equal(factor.phase.view(np.uint64), phase.view(np.uint64))


def test_backward_heat_reference_case_saturates():
    # the parametrised kernels above include saturating backward times
    grid = FrequencyGrid(1, 8, 8)
    op = MultiplierOperator(heat_symbol(), grid)
    assert exp_multiplier(op, -1.0, ones(grid)).overflow
    assert exp_series(op, -1.0, ones(grid))[0].overflow


# ---------------------------------------------------------------------------
# real symbols: flow factors formed in float64, bit for bit the complex ones


def complex_multiplier_factor(levels, t):
    """The closed form's ``(log magnitude, phase)`` per level in complex arithmetic."""
    with np.errstate(over="ignore"):
        z = t * levels
    return z.real.copy(), np.exp(1j * z.imag)


def complex_series_factor(levels, t, stages, terms):
    """The series stage by complex Horner with products by ``1/n``, composed."""
    x = (t / stages) * levels
    acc = np.ones_like(x)
    for n in range(terms, 0, -1):
        acc = 1.0 + acc * (x * (1.0 / n))
    return composed_stage(acc, stages)


def assert_factor_bits(factor, expected):
    assert factor.log_magnitude.dtype == np.float64 and factor.phase.dtype == np.complex128
    assert np.array_equal(factor.log_magnitude.view(np.uint64), expected[0].view(np.uint64))
    assert np.array_equal(factor.phase.view(np.uint64), expected[1].view(np.uint64))


def warned(call):
    """``call()`` and the messages of the warnings it raised, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, [str(warning.message) for warning in caught]


def assert_factors_keep_the_complex_bits(op, t):
    """Both flow factors of op at t, and their warnings, those of the complex formulas."""
    levels = op.levels()[0]
    factor, messages = warned(lambda: multiplier_factor(op, t))
    if t == 0.0:
        assert factor is None and not messages
    else:
        expected, expected_messages = warned(lambda: complex_multiplier_factor(levels, t))
        assert_factor_bits(factor, expected)
        assert messages == expected_messages
    profile = seminorm_profile(ones(op.grid))
    if not math.isfinite(abs(t) * op.seminorm(op.grid.J)):
        with pytest.raises(SeriesTruncationError, match="worst rate"):
            series_factor(op, t, profile, 1e-8)
        return
    (factor, diagnostics), messages = warned(lambda: series_factor(op, t, profile, 1e-8))
    if t == 0.0:
        assert factor is None and not messages
    else:
        expected, expected_messages = warned(lambda: complex_series_factor(
            levels, t, diagnostics.stages, diagnostics.terms))
        assert_factor_bits(factor, expected)
        assert messages == expected_messages


REAL_SYMBOLS = [
    (1, HEAT_SYMBOL_TEXT, (1, 8, 32)),
    (2, "-(1+4*pi^2*(xi1^2+xi2^2))", (2, 4, 8)),
    (2, "(xi1^2+xi2^2)^4", (2, 4, 4)),
    (2, "-(xi1^2+xi2^2)^4", (2, 4, 4)),
    (2, "xi1^2+xi2", (2, 4, 4)),           # a zero level
    (2, "-(xi1^2+xi2^2)^47", (2, 2, 2)),   # a real stage that overflows
]
FACTOR_TIMES = [0.0, -0.0, 1e-300, -1e-300, 1e-3, 0.5, 1.0, -1e-3, -1.0, 7.5, 1e300, -1e300]


@pytest.mark.parametrize("n, text, shape", REAL_SYMBOLS)
@pytest.mark.parametrize("t", FACTOR_TIMES)
def test_real_symbol_factors_keep_the_bits_of_the_complex_formulas(n, text, shape, t):
    op = operator_of(text, n, FrequencyGrid(*shape))
    assert evolution._real_levels(op) is not None
    assert_factors_keep_the_complex_bits(op, t)


def raw_table_operator(values):
    """The operator on (1, 8, 8) whose symbol on the nodes is ``values``, from its raw table."""
    grid = FrequencyGrid(1, 8, 8)
    shells = shell_numbers(grid.J, grid.inv_h, grid.axis_index)
    levels, inverse, offsets = _level_table(values, shells, grid.J)
    return MultiplierOperator._from_table(grid, levels, inverse[grid.shells().order], offsets)


@pytest.mark.parametrize("imag", ["-0", "one -0", "+0"])
@pytest.mark.parametrize("t", FACTOR_TIMES)
def test_a_raw_table_with_signed_zero_imaginary_parts_keeps_the_complex_bits(imag, t):
    rng = np.random.default_rng(7)
    grid = FrequencyGrid(1, 8, 8)
    values = np.empty(grid.node_count, dtype=np.complex128)
    values.real = rng.standard_normal(values.size) * 10.0 ** rng.uniform(-3, 3, values.size)
    values.real[::7], values.real[3::7] = 0.0, -0.0
    values.imag = -0.0 if imag == "-0" else 0.0
    if imag == "one -0":
        values.imag[5] = -0.0
    op = raw_table_operator(values)
    # a -0 imaginary part would flip the sign of a zero t Re a: the complex path
    assert (evolution._real_levels(op) is None) == (imag != "+0")
    assert_factors_keep_the_complex_bits(op, t)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("t", [1e-3, -1.0, 1e300])
def test_a_raw_table_with_a_level_that_is_not_finite_keeps_the_complex_bits(bad, t):
    # the series refuses such a table: its worst rate is not finite
    values = np.linspace(-3.0, 0.0, FrequencyGrid(1, 8, 8).node_count).astype(np.complex128)
    values[4] = bad
    op = raw_table_operator(values)
    assert evolution._real_levels(op) is None
    assert_factors_keep_the_complex_bits(op, t)


@pytest.fixture
def horner_dtypes(monkeypatch):
    """The dtype of each series stage Horner evaluates."""
    dtypes = []
    stage = evolution._horner_stage

    def recording(x, terms):
        dtypes.append(str(x.dtype))
        return stage(x, terms)

    monkeypatch.setattr(evolution, "_horner_stage", recording)
    return dtypes


@pytest.mark.parametrize("n, text, shape, dtypes", [
    (1, HEAT_SYMBOL_TEXT, (1, 8, 32), ["float64"]),
    (2, "-(1+4*pi^2*(xi1^2+xi2^2))", (2, 4, 8), ["float64"]),
    # levels outside ball J overflow the real stage: redone in complex
    (2, "-(xi1^2+xi2^2)^47", (2, 2, 2), ["float64", "complex128"]),
    (1, TRANSPORT_SYMBOL_TEXT, (1, 8, 32), ["complex128"]),
    (2, "2*pi*i*xi1", (2, 3, 8), ["complex128"]),
    (2, "-(1+xi1^2+3*xi2^2) + i*(xi1 + 0.37*xi2^3)", (2, 3, 8), ["complex128"]),
])
def test_real_symbols_take_the_float64_path(n, text, shape, dtypes, horner_dtypes):
    op = operator_of(text, n, FrequencyGrid(*shape))
    assert (evolution._real_levels(op) is not None) == (dtypes[0] == "float64")
    warned(lambda: series_factor(op, 1.0, seminorm_profile(ones(op.grid)), 1e-8))
    assert horner_dtypes == dtypes


@pytest.mark.xfail(strict=True, reason=(
    "the series flags a decaying flow as overflowing: its stage count comes from ball J's "
    "rate, so the levels outside ball J run at 16x that stage rate and their log magnitude "
    "reaches 789,590"))
def test_the_series_does_not_flag_a_decaying_flow_outside_ball_j():
    grid = FrequencyGrid(2, 4, 4)
    op = operator_of("-(xi1^2+xi2^2)^4", 2, grid)
    ((_, product, _),) = evolve(op, [1.0], ones(grid), "both")
    assert product.overflow == {"multiplier": False, "series": False}


# ---------------------------------------------------------------------------
# the series certificate: one construction at every time


def reference_certificate(op, t, profile, tol):
    """The certificate as the construction before its single loop built it:
    ``(t, tol, rate, stages, terms, levels)`` with a level per ball, each
    ``(j, rate, terms, tail, stage_growth, bound, field_seminorm)``."""
    grid = op.grid
    if t == 0.0:
        levels = tuple((j, 0.0, 0, 0.0, 1.0, 0.0, float(profile[j - 1]))
                       for j in range(1, grid.J + 1))
        return t, tol, 0.0, 1, 0, levels
    rates = np.abs(t) * op._profile()
    worst = float(rates[-1])
    s = 0 if worst <= 4.0 else math.ceil(math.log2(worst / 4.0))
    stages = 1 << s
    log_threshold = math.log(tol) - math.log1p(profile[-1]) - s * math.log(2.0)
    terms = choose_terms(worst / stages, log_threshold)
    lower, upper = op.real_part_range()
    peaks = (t / stages) * (upper if t / stages >= 0 else lower)
    growths = [math.exp(peak) if peak <= 700.0 else math.inf for peak in peaks.tolist()]
    levels = []
    for j in range(1, grid.J + 1):
        stage_rate = float(rates[j - 1]) / stages
        level_terms = choose_terms(stage_rate, log_threshold)
        log_tail = scalar_tail_log(stage_rate, level_terms)
        growth = growths[j - 1]
        pj_u = float(profile[j - 1])
        if pj_u == 0.0 or log_tail == -math.inf:
            bound = 0.0
        else:
            log_growth_plus = np.logaddexp(math.log(growth) if growth > 0 else -math.inf,
                                           log_tail)
            log_bound = (s * math.log(2.0) + log_tail + (stages - 1) * log_growth_plus
                         + math.log(pj_u))
            try:
                bound = math.exp(float(log_bound))
            except OverflowError:
                bound = math.inf
        try:
            tail = math.exp(scalar_tail_log(stage_rate, level_terms))
        except OverflowError:
            tail = math.inf
        levels.append((j, float(rates[j - 1]), level_terms, tail, growth, bound, pj_u))
    return t, tol, worst, stages, terms, tuple(levels)


def bit_fields(values):
    """Each float as its hex form, which tells -0.0 from 0.0, for a bitwise comparison."""
    return tuple(bit_fields(v) if isinstance(v, tuple) else
                 (v.hex() if isinstance(v, float) else v) for v in values)


@functools.cache
def certificate_operator(n, text):
    """The operator of one of `FLOW_SYMBOLS`, built once (operators are immutable)."""
    return operator_of(text, n, FrequencyGrid(1, 8, 8) if n == 1 else FrequencyGrid(2, 3, 8))


@settings(max_examples=150, deadline=None)
@given(symbol=st.sampled_from(FLOW_SYMBOLS),
       t=st.one_of(st.sampled_from([0.0, -0.0, 1e-8, -1e-8, 0.1, -0.5, 3.0]),
                   st.floats(-1e3, 1e3, allow_subnormal=False)),
       tol=st.sampled_from([1e-8, 1e-12, 1e-3]),
       seed=st.integers(0, 3))
def test_series_certificate_matches_the_reference_construction_bitwise(symbol, t, tol, seed):
    op = certificate_operator(*symbol)
    profile = seminorm_profile(random_field(op.grid, np.random.default_rng(seed)))
    factor, diag = series_factor(op, t, profile, tol)
    got = (diag.t, diag.tol, diag.rate, diag.stages, diag.terms,
           tuple((c.j, c.rate, c.terms, c.tail, c.stage_growth, c.bound, c.field_seminorm)
                 for c in diag.levels))
    assert bit_fields(got) == bit_fields(reference_certificate(op, t, profile, tol))
    assert diag.terms == diag.levels[-1].terms and diag.rate == diag.levels[-1].rate
    assert (factor is None) == (t == 0.0)


def test_the_time_zero_certificate_reads_no_operator_value():
    # max |a| overflows to inf on this grid although every value is finite;
    # 0 * inf would be nan, and the time-0 certificate never forms it
    op = operator_of("1.5e308*(1+i)", 1, FrequencyGrid(1, 2, 2))
    assert op.seminorm(1) == math.inf
    u = ones(op.grid)
    for t in (0.0, -0.0):
        field, diag = exp_series(op, t, u)
        assert field.values.tolist() == u.values.tolist()
        assert (diag.rate, diag.stages, diag.terms) == (0.0, 1, 0)
        assert [(c.rate, c.terms, c.tail, c.stage_growth, c.bound) for c in diag.levels] \
            == [(0.0, 0, 0.0, 1.0, 0.0)] * 2


@pytest.mark.parametrize("text, grid, t", [
    ("-(1+4*pi^2*xi^2)", FrequencyGrid(1, 8, 32), 1e306),
    ("1.5e308*(1+i)", FrequencyGrid(1, 2, 2), 0.1),
])
def test_a_worst_rate_that_overflows_names_it_as_the_cause(text, grid, t):
    # every symbol value is finite, but |t| max|a| overflows to inf
    op = operator_of(text, 1, grid)
    u = ones(grid)
    message = (r"the worst rate \|t\| max\|a\| = inf is not finite at t = "
               + f"{t:g}".replace("+", r"\+"))
    with pytest.raises(SeriesTruncationError, match=message):
        series_factor(op, t, seminorm_profile(u), 1e-8)
    for method in ("series", "both"):
        with pytest.raises(SeriesTruncationError, match=message):
            list(evolve(op, [t], u, method=method))


def test_a_phase_that_overflows_is_refused_naming_the_time(grid):
    # every level is finite and purely imaginary, but t Im a overflows to inf
    op = transport_on(grid)
    u = ones(grid)
    message = r"^t \* Im a is not finite at t = 1e\+308, so e\^\(t a\) has no phase$"
    with pytest.raises(ValueError, match=message):
        multiplier_factor(op, 1e308)
    with pytest.raises(ValueError, match=message):
        exp_multiplier(op, 1e308, u)
    for method in ("multiplier", "both"):
        with pytest.raises(ValueError, match=message):
            list(evolve(op, [1e308], u, method=method))
    # the continuity gap would read nan there
    with pytest.raises(ValueError, match=message):
        uniform_continuity_gap(op, 1e308, grid.J)
    # a real part that overflows is the saturation policy's, not refused
    factor = multiplier_factor(heat_on(grid), 1e306)
    assert np.isneginf(factor.log_magnitude).any() and np.all(factor.phase == 1.0)


def test_a_field_whose_top_seminorm_overflows_names_it_as_the_cause():
    grid = FrequencyGrid(1, 8, 4)
    u = SpectralField(grid, np.full(grid.shape, 1e308, dtype=complex))
    assert seminorm(u, grid.J) == math.inf
    op = heat_on(grid)
    for method in ("series", "both"):
        ((_, _, diag),) = evolve(op, [0.0], u, method=method)
        assert diag.bounds().tolist() == [0.0] * grid.J
        with pytest.raises(SeriesTruncationError, match=r"p_J\(u\) = inf is not finite"):
            list(evolve(op, [0.5], u, method=method))
    with pytest.raises(ValueError, match="no series truncation reaches tol = 1e-08 at t = 0.5"):
        exp_series(op, 0.5, u)
    # the closed form needs no truncation order
    assert np.isfinite(exp_multiplier(op, 0.5, u).values).all()
