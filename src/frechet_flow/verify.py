"""Self-contained property suites behind the ``verify`` CLI command.

Each suite re-checks the load-bearing identities and inequalities of one
module on deterministic random data and returns a list of failure
descriptions (empty means green).  The umbrella runner runs and times the
suites one after another, and is the surface the injected-fault self-test
drives: a quadrature weight factor other than one, passed to the spectral
suite's seminorms, must turn that suite red.  The config suite runs a
small solve through `app.run_solve`, so it exercises `evolution.evolve`
and the `fieldio` writers as the CLI does.
"""

from __future__ import annotations

import cmath
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import app, evolution, invariance, operators, spectral, symbols, translation
from .config import config_from_text, format_config
from .fieldio import read_field, write_field
from .spectral import FrequencyGrid, random_field, seminorm, seminorm_profile


def _grid() -> FrequencyGrid:
    return FrequencyGrid(1, 8, 32)


def suite_spectral(rng, weight_factor: float = 1.0) -> list[str]:
    failures = []

    def seminorm(u, j):
        # scaling the quadrature weight by f scales the seminorm by sqrt(f)
        return math.sqrt(weight_factor) * spectral.seminorm(u, j)

    counts = [
        (FrequencyGrid(1, 2, 2).node_count, 9),
        (FrequencyGrid(1, 8, 32).node_count, 513),
        (FrequencyGrid(2, 2, 1).node_count, 25),
    ]
    for got, expected in counts:
        if got != expected:
            failures.append(f"node count {got} != {expected}")
    grid = _grid()
    u = spectral.ones(grid)
    value = seminorm(u, 2)
    if abs(value**2 - (4.0 + grid.h)) > 1e-12:
        failures.append(f"quadrature of the unit field off: {value**2}")
    for j in range(1, grid.J):
        w = random_field(grid, rng)
        if seminorm(w, j) > seminorm(w, j + 1) + 1e-15:
            failures.append(f"seminorm not monotone at j={j}")
        v = random_field(grid, rng)
        lhs = seminorm(w + v, j)
        if lhs > seminorm(w, j) + seminorm(v, j) + 1e-12 * (1 + lhs):
            failures.append(f"triangle inequality fails at j={j}")
        if abs(seminorm(2.0 * w, j) - 2.0 * seminorm(w, j)) > 1e-12 * seminorm(w, j):
            failures.append(f"homogeneity fails at j={j}")
    for j in (1, 4, 8):
        gaps = []
        for inv_h in (16, 32):
            g = FrequencyGrid(1, 8, inv_h)
            gaps.append(abs(seminorm(spectral.ones(g), j) ** 2 - 2.0 * j))
        if abs(gaps[1] - 0.5 * gaps[0]) > 1e-12:
            failures.append(f"quadrature gap does not halve at j={j}: {gaps}")
    w = random_field(grid, rng)
    v = random_field(grid, rng)
    if spectral.metric(w, w) != 0.0:
        failures.append("metric(u, u) != 0")
    if abs(spectral.metric(w, v) - spectral.metric(v, w)) > 1e-15:
        failures.append("metric not symmetric")
    if not 0.0 <= spectral.metric(w, v) <= 1.0 - 2.0**-grid.J:
        failures.append("metric out of range")
    for j in range(1, grid.J):
        a = spectral.project(spectral.project(w, j + 1), j)
        b = spectral.project(w, j)
        if a.values.tobytes() != b.values.tobytes():
            failures.append(f"restriction does not commute bitwise at j={j}")
    return failures


def suite_symbols(rng) -> list[str]:
    failures = []
    heat = symbols.heat_symbol()
    if abs(heat.coefficient((0,)) + 1.0) > 0 or abs(
        heat.coefficient((2,)) + 4 * math.pi**2
    ) > 1e-12:
        failures.append("heat symbol coefficients wrong")
    if abs(heat.eval([0.0]) + 1.0) > 0:
        failures.append("heat symbol at 0 != -1")
    if abs(heat.eval([1.0 / (2 * math.pi)]) + 2.0) > 1e-12:
        failures.append("heat symbol at 1/(2pi) != -2")
    d1 = symbols.diffop_to_symbol({(1,): 1.0}, convention="partial")
    if abs(d1.coefficient((1,)) - 2j * math.pi) > 1e-15:
        failures.append("partial convention conversion wrong at order 1")
    d4 = symbols.diffop_to_symbol({(4,): -1.0}, convention="partial")
    if abs(d4.coefficient((4,)) + 16 * math.pi**4) > 1e-9:
        failures.append("partial convention conversion wrong at order 4")
    closed_forms = {
        "-(1+4*pi^2*xi^2)": lambda xi: -(1 + 4 * math.pi**2 * xi**2),
        "2*pi*i*xi": lambda xi: 2j * math.pi * xi,
        "3": lambda xi: 3.0,
        "(xi+1)*(xi-1)": lambda xi: xi**2 - 1,
    }
    for text, closed_form in closed_forms.items():
        poly = symbols.parse_symbol(text)
        for _ in range(20):
            xi = rng.uniform(-5, 5)
            exact = closed_form(xi)
            if abs(exact - poly.eval([xi])) > 1e-10 * (1 + abs(exact)):
                failures.append(f"parsed polynomial disagrees with its closed form on {text!r}")
                break
    if not symbols.in_symbol_class(heat, 2):
        failures.append("the heat symbol is not in S^2")
    if symbols.in_symbol_class(heat, 1):
        failures.append("the heat symbol is in S^1")
    return failures


def suite_operators(rng) -> list[str]:
    failures = []
    grid = _grid()
    heat_op = operators.MultiplierOperator(symbols.heat_symbol(), grid)
    if abs(heat_op.seminorm(1) - (1 + 4 * math.pi**2)) > 1e-12:
        failures.append("heat operator seminorm at j=1 wrong")
    transport = operators.MultiplierOperator(symbols.transport_symbol(), grid)
    if abs(transport.seminorm(2) - 4 * math.pi) > 1e-12:
        failures.append("transport operator seminorm at j=2 wrong")
    for _ in range(100):
        u = random_field(grid, rng)
        for j in (1, 4, 8):
            lhs = seminorm(heat_op.apply(u), j)
            rhs = heat_op.seminorm(j) * seminorm(u, j)
            if lhs > rhs * (1 + 1e-12):
                failures.append(f"operator bound violated at j={j}")
    for j in (1, 5, 8):
        sharp = operators.sharpness_field(heat_op, j)
        lhs = seminorm(heat_op.apply(sharp), j)
        rhs = heat_op.seminorm(j) * seminorm(sharp, j)
        if abs(lhs - rhs) > 1e-12 * rhs:
            failures.append(f"sharpness not attained at j={j}")
        lo, hi = operators.verify_power_bound(heat_op, 3, j)
        if lo > hi * (1 + 1e-12) or abs(lo - hi) > 1e-9 * hi:
            failures.append(f"power bound not tight at j={j}")
        bound = operators.continuum_seminorm_bound(symbols.heat_symbol(), j)
        if heat_op.seminorm(j) > bound * (1 + 1e-9):
            failures.append(f"discrete seminorm exceeds continuum bound at j={j}")
    u = random_field(grid, rng)
    ab = heat_op.apply(transport.apply(u))
    ba = transport.apply(heat_op.apply(u))
    scale = np.max(np.abs(ab.values))
    if np.max(np.abs(ab.values - ba.values)) > 1e-15 * scale:
        failures.append("multipliers do not commute")
    samples = operators.compatibility_samples(FrequencyGrid(1, 4, 4), rng)
    ok = operators.check_strong_compatibility(
        operators.MultiplierOperator(symbols.heat_symbol(), FrequencyGrid(1, 4, 4)),
        samples,
    )
    if not ok.passed:
        failures.append("multiplier fails the compatibility audit")
    bad = operators.check_strong_compatibility(
        operators.ReflectionOperator(FrequencyGrid(1, 4, 4)), samples
    )
    if bad.passed or all(row.witness is None for row in bad.rows):
        failures.append("reflection audit found no witness")
    return failures


def suite_evolution(rng) -> list[str]:
    failures = []
    grid = _grid()
    heat = symbols.heat_symbol()
    op = operators.MultiplierOperator(heat, grid)
    u = random_field(grid, rng)
    evolved, diag = evolution.exp_series(op, 0.0, u, 1e-8)
    if not np.array_equal(evolved.values, u.values) or diag.terms != 0:
        failures.append("series at t=0 is not the identity")
    for t in (0.01, -0.01, 0.5, -0.5):
        series, diag = evolution.exp_series(op, t, u, 1e-8)
        closed = evolution.exp_multiplier(op, t, u)
        residual = seminorm_profile(series - closed)
        if not np.all(residual <= diag.bounds()):
            failures.append(f"oracle equivalence violated at t={t}")
    transport = operators.MultiplierOperator(symbols.transport_symbol(), grid)
    for _ in range(5):
        s, t = rng.uniform(-1, 1, size=2)
        profile = evolution.verify_group_law(transport, s, t, u)
        if np.any(profile > 1e-10 * (1 + seminorm_profile(u))):
            failures.append(f"group law residual too large at ({s:.3f},{t:.3f})")
    small = FrequencyGrid(1, 3, 8)
    w = random_field(small, rng)
    small_op = operators.MultiplierOperator(heat, small)
    back = evolution.exp_multiplier(small_op, -1.0, evolution.exp_multiplier(small_op, 1.0, w))
    if seminorm(back - w, small.J) > 1e-9 * seminorm(w, small.J):
        failures.append("group inverse does not recover the field")
    for t in (0.001, 0.01, 0.1):
        for j in (1, 4, 8):
            lhs, rhs = evolution.uniform_continuity_gap(op, t, j)
            if lhs > rhs * (1 + 1e-12):
                failures.append(f"continuity gap violated at t={t}, j={j}")
    resid = {}
    for t in (1e-2, 1e-3, 1e-4):
        r = evolution.generator_residual(op, t, u, 1)
        bound = evolution.generator_residual_bound(op, t, u, 1)
        if r > bound * (1 + 1e-9):
            failures.append(f"generator residual above its bound at t={t}")
        resid[t] = r
    order = math.log(resid[1e-2] / resid[1e-4]) / math.log(100.0)
    if not 0.8 <= order <= 1.2:
        failures.append(f"generator residual order {order:.3f} not ~1")
    upper = op.real_part_range()[1]
    for t in (0.1, 0.5, 1.0):
        for j in (1, 8):
            if t * upper[j - 1] > t * op.seminorm(j) + 1e-12:
                failures.append(f"group growth exceeds exp(omega_j t) at t={t}, j={j}")
    for j in (1, 4, 7):
        check = evolution.verify_quotient_diagrams(op, u, j)
        if not check.passed:
            failures.append(f"multiplier quotient diagram fails at j={j}")
    bad = evolution.verify_quotient_diagrams(
        operators.ReflectionOperator(grid), u, 2
    )
    if bad.passed or bad.witness is None:
        failures.append("reflection quotient diagram produced no witness")
    return failures


def suite_invariance(rng) -> list[str]:
    failures = []
    table = [
        (symbols.diffop_to_symbol({(1,): 1.0}, "partial"), invariance.INVARIANT),
        (symbols.diffop_to_symbol({(4,): -1.0}, "partial"), invariance.INVARIANT),
        (symbols.diffop_to_symbol({(2,): 1.0}, "partial"), invariance.NOT_INVARIANT),
    ]
    for poly, expected in table:
        if invariance.decide_eprime(poly).verdict != expected:
            failures.append(f"compact-support verdict wrong for order {poly.order}")
    backward_heat = symbols.parse_symbol("1+4*pi^2*xi^2")
    l2_table = [
        (symbols.heat_symbol(), invariance.INVARIANT),
        (backward_heat, invariance.NOT_INVARIANT),
        (symbols.parse_symbol("5+3*i"), invariance.INVARIANT),
    ]
    for poly, expected in l2_table:
        if invariance.decide_l2(poly, 1.0).verdict != expected:
            failures.append(f"square-integrable verdict wrong for {poly.coeffs}")
    wide = FrequencyGrid(1, 64, 4)
    tail = spectral.SpectralField(wide, (1.0 / (1.0 + np.abs(wide.axis))).astype(complex))
    for _ in range(50):
        poly = invariance.corpus_symbol(rng)
        exact = invariance.decide_l2(poly, 1.0)
        if exact.verdict == invariance.INVARIANT:
            # the exact sup of the real part bounds every sphere probe
            top = float(np.max(invariance.sampled_sphere_maxima(poly)))
            if top > exact.sup_estimate + 1e-9 * (1.0 + abs(exact.sup_estimate)):
                failures.append(f"a sphere probe exceeds the exact sup on {poly.coeffs}")
        grown = evolution.exp_multiplier(operators.MultiplierOperator(poly, wide), 1.0, tail)
        growth = seminorm(grown, wide.J) / seminorm(tail, wide.J)
        if (growth > 1e6) != (exact.verdict == invariance.NOT_INVARIANT):
            failures.append(f"growth surrogate disagrees on {poly.coeffs}")
    second = symbols.diffop_to_symbol({(2,): 1.0}, "partial")
    witness = invariance.find_growth_witness(second)
    r = 2.0**20
    leading = abs(second.coefficient((2,))) * r * r
    if witness is None or witness.order != 2 or any(
            abs(sign * second.eval([cmath.rect(r, theta)]).real / leading - 1.0) > 1e-9
            for sign, theta in ((1.0, witness.forward), (-1.0, witness.backward))):
        failures.append("no order-2 growth witness for the second-derivative symbol")
    if invariance.find_growth_witness(table[0][0]) is not None:
        failures.append("a growth witness for the translation symbol")
    blow = invariance.l2_blowup_construction(backward_heat, 0.5, 8)
    if blow.evolved_mass[-1] < blow.lower_bounds[-1] or blow.own_mass[-1] >= 1.0:
        failures.append("blow-up construction bounds violated")
    return failures


def suite_translation(rng) -> list[str]:
    failures = []
    gauss = translation.gaussian()
    if abs(translation.cinf_seminorm(gauss, 0, 2) - 1.0) > 1e-9:
        failures.append("gaussian sup wrong")
    if abs(translation.cinf_seminorm(gauss, 1, 2) - math.sqrt(2 / math.e)) > 1e-5:
        failures.append("gaussian derivative sup wrong")
    cert = translation.certify_membership(gauss, 0, 1, 40)
    if cert.failed:
        failures.append("gaussian certificate failed")
    bad = translation.certify_membership(translation.fast_growth(), 0, 1, 40)
    if not bad.failed:
        failures.append("fast-growth oracle unexpectedly certified")
    value = translation.translate_detailed(gauss, 0.5, [0.0], 1e-10).values[0]
    if abs(value - math.exp(-0.25)) > 1e-8:
        failures.append("gaussian translation value wrong")
    cubic = translation.polynomial([0.0, 0.0, 0.0, 1.0])
    detail = translation.translate_detailed(cubic, 1.0, [1.0], 1e-10)
    if detail.values[0] != 8.0 or detail.terms[0] != 4:
        failures.append("cubic translation not exact in 4 terms")
    for _ in range(5):
        t, v, s = rng.uniform(-0.8, 0.8, size=3)
        direct = translation.translate_detailed(gauss, t + v, [s], 1e-9).values[0]
        nested = translation.translate_detailed(translation.shifted(gauss, v), t, [s],
                                                1e-9).values[0]
        if abs(direct - nested) > 1e-7:
            failures.append("translation group law fails")
            break
    for n in range(5):
        x = rng.uniform(-1.5, 1.5)
        for step in (1e-4, 5e-5):
            fd = (gauss.derivative(n, x + step) - gauss.derivative(n, x - step)) / (2 * step)
            exact = gauss.derivative(n + 1, x)
            if abs(fd - exact) > 1e-5 * (1 + abs(exact)):
                failures.append(f"derivative oracle inconsistent at order {n}")
    return failures


def suite_config(rng) -> list[str]:
    failures = []
    import tempfile

    text = (
        "[grid]\nn = 1\nJ = 4\ninv_h = 8\n[symbol]\ntext = -(1+4*pi^2*xi^2)\n"
        "[evolve]\ntimes = 0.1, 0.5\nmethod = both\ntol = 1e-8\n"
        "[init]\nfield = gaussian-hat\n[output]\ndirectory = out\n"
    )
    config = config_from_text(text)
    if config_from_text(format_config(config)) != config:
        failures.append("config round-trip not stable")
    try:
        config_from_text("[grid]\nn = x\n")
        failures.append("bad integer accepted")
    except Exception as error:
        if "line 2" not in str(error):
            failures.append("config error lost its line number")
    with tempfile.TemporaryDirectory() as workdir:
        result = app.run_solve(config, out_dir=workdir)
        if not result.residuals_certified:
            failures.append("series residuals exceed their certificates")
        if not os.path.exists(os.path.join(workdir, "run_metadata.txt")):
            failures.append("metadata sidecar missing")
        grid = FrequencyGrid(1, 4, 8)
        field = random_field(grid, rng)
        path = os.path.join(workdir, "probe.fl2l")
        write_field(path, field)
        back = read_field(path)
        if not np.array_equal(back.values, field.values):
            failures.append("binary field round-trip not bitwise")
    rows = app.heat_scan([0.1, -0.1], [0, 1], [1, 2, 4, 8, 16, 32, 64])
    forward = [r for r in rows if r.t > 0 and r.M == 0]
    if abs(forward[-1].value - forward[-2].value) > 1e-8 * forward[-1].value:
        failures.append("forward heat scan does not converge")
    backward = [r for r in rows if r.t < 0 and r.M == 1]
    if backward[-1].value / backward[0].value < 1e6:
        failures.append("backward heat scan does not blow up")
    return failures


SUITES = {
    "spectral": suite_spectral,
    "symbols": suite_symbols,
    "operators": suite_operators,
    "evolution": suite_evolution,
    "invariance": suite_invariance,
    "translation": suite_translation,
    "config": suite_config,
}


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    failures: tuple
    seconds: float


@dataclass(frozen=True)
class VerifyReport:
    results: tuple

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)


def run_verify(scopes=None, *, seed: int, weight_factor: float = 1.0) -> VerifyReport:
    """Run the selected suites (all by default) on data drawn from ``seed`` and
    collect results.

    ``weight_factor`` multiplies the quadrature weight of the spectral
    suite's seminorms; any value other than one is an injected fault.
    """
    names = list(SUITES) if not scopes else list(scopes)
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown verify scope {name!r}; choose from {list(SUITES)}")

    def run_one(name: str) -> SuiteResult:
        rng = np.random.default_rng(seed)
        start = time.perf_counter()
        args = (rng, weight_factor) if name == "spectral" else (rng,)
        try:
            failures = tuple(SUITES[name](*args))
        except Exception as error:  # a crash is a failure, not an abort
            failures = (f"exception: {error!r}",)
        return SuiteResult(
            name=name,
            passed=not failures,
            failures=failures,
            seconds=time.perf_counter() - start,
        )

    return VerifyReport(results=tuple(run_one(name) for name in names))
