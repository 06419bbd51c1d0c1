"""Command-line front door.

Subcommands: ``solve``, ``heat-demo``, ``check-l2``, ``check-eprime``,
``translate``, ``seminorms``, ``verify``.  Every command writes CSV output
plus a plain-text metadata sidecar into its ``--out`` directory and prints
a one-line summary.  Exit codes: 0 ok, 2 configuration error, 3 a result
carried the overflow flag, 4 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import re
import sys

import numpy as np

from . import app
from .bounds import check_finite
from .config import ConfigError, RunConfig, config_from_text
from .fieldio import write_csv, write_metadata
from .spectral import NODE_BUDGET, FrequencyGrid, seminorm_profile

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_OVERFLOW = 3
EXIT_VERIFY = 4


def _ensure_out(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write_metadata(out_dir: str, command: str, lines):
    write_metadata(os.path.join(out_dir, "metadata.txt"), [f"command = {command}", *lines])


def _symbol_from_args(args):
    if not (args.symbol or args.diffop):
        raise ConfigError("one of --symbol or --diffop is required")
    if args.symbol is not None and args.diffop is not None:
        raise ConfigError("give one of --symbol or --diffop, not both")
    return app.build_symbol(RunConfig(symbol_text=args.symbol or None, diffop=args.diffop,
                                      convention=args.convention))


def cmd_solve(args) -> int:
    with open(args.config) as handle:
        config = config_from_text(handle.read(), args.set)
    out_dir = args.out or config.output_directory
    result = app.run_solve(config, out_dir=out_dir)
    print(
        f"solve: {len(result.times)} times, method={config.method}, "
        f"overflow={int(result.overflow)}, files in {out_dir}"
    )
    if not result.residuals_certified:
        print("solve: series residuals exceeded their certificates", file=sys.stderr)
        return EXIT_VERIFY
    if result.overflow:
        return EXIT_OVERFLOW
    return EXIT_OK


def cmd_heat_demo(args) -> int:
    for t in args.t:
        check_finite(t, "--t")
    rows = app.heat_scan(args.t, args.M, args.R)
    out_dir = _ensure_out(args)
    t, M, R, value, overflow = zip(*map(dataclasses.astuple, rows))
    write_csv(os.path.join(out_dir, "heat_scan.csv"), ["t", "M", "R", "value", "overflow"],
              [t, M, R, value, np.array(overflow, dtype=int)])
    lines = [_heat_summary(t, M, [r for r in rows if r.t == t and r.M == M])
             for t in args.t for M in args.M]
    _write_metadata(out_dir, "heat-demo", lines)
    for line in lines:
        print(line)
    overflowed = any(r.overflow for r in rows)
    return EXIT_OVERFLOW if overflowed else EXIT_OK


def _heat_summary(t: float, M: int, chunk) -> str:
    """One line on how the scan rows of one (t, M) change as the radius grows."""
    first, last = chunk[0], chunk[-1]
    head = f"t={t:g} M={M}: "
    if len(chunk) == 1:
        return head + f"value {last.value:.6e} at the single radius R={last.R:g}"
    if t > 0:
        # every row is 0 when the integrand underflows everywhere
        rel = abs(last.value - chunk[-2].value) / last.value if last.value > 0 else 0.0
        text = f"converged, relative change {rel:.3e} over the last radius doubling"
    else:
        # 0 when the integrand underflows within the smallest radius (M < 0)
        ratio = last.value / first.value if first.value > 0 else math.inf
        text = f"grows by factor {ratio:.3e} from R={first.R:g} to R={last.R:g}"
    return head + text + (" (saturated)" if last.overflow else "")


def cmd_check_eprime(args) -> int:
    from . import invariance

    poly = _symbol_from_args(args)
    witness = invariance.find_growth_witness(poly)
    paper = invariance.decide_eprime(poly)
    columns = [[], [], []] if witness is None else [
        [1, -1], [witness.forward, witness.backward], [witness.order] * 2]
    out_dir = _ensure_out(args)
    write_csv(os.path.join(out_dir, "eprime_witness.csv"), ["t_sign", "theta", "order"],
              columns)
    exact = invariance.INVARIANT if witness is None else invariance.NOT_INVARIANT
    lines = [
        f"compact-support verdict: {exact} for every t != 0 (exact rule)",
        "growth witness: none" if witness is None else
        f"growth witness: order {witness.order}, ray arg z={witness.forward:.6g} for t > 0, "
        f"arg z={witness.backward:.6g} for t < 0",
        f"paper rule: {paper.verdict} "
        f"(rule {paper.rule}, m={paper.order}, a_m={paper.leading:.6g})",
    ]
    if paper.verdict != exact:
        lines.append(
            "note: the paper rule differs from the exact rule; "
            + ("Re(t a) grows like |t a_m| r^m along the witness rays, so e^{t a(z)} "
               "is not of exponential type" if witness is not None else
               "a constant symbol multiplies by the scalar e^{t a_0}, which keeps every "
               "support"))
    _write_metadata(out_dir, "check-eprime", lines)
    for line in lines:
        print(line)
    return EXIT_OK


def cmd_check_l2(args) -> int:
    from . import invariance

    check_finite(args.t, "--t")
    poly = _symbol_from_args(args)
    decision = invariance.decide_l2(poly, args.t)
    out_dir = _ensure_out(args)
    maxima = invariance.sampled_sphere_maxima(poly)
    k = np.arange(maxima.size)
    write_csv(os.path.join(out_dir, "l2_probes.csv"), ["k", "radius", "max_re_a"],
              [k, np.ldexp(1.0, k), maxima])
    summary = (
        f"square-integrable verdict at t={args.t:g}: {decision.verdict} "
        f"(method {decision.method}, sup estimate {decision.sup_estimate:.6g})"
    )
    lines = [summary] + [f"caveat: {c}" for c in decision.caveats]
    _write_metadata(out_dir, "check-l2", lines)
    for line in lines:
        print(line)
    return EXIT_OK


def _function_from_name(name: str):
    from . import translation

    if name == "gaussian":
        return translation.gaussian()
    if name == "cubic":
        return translation.polynomial([0.0, 0.0, 0.0, 1.0])
    if name.startswith("poly:"):
        try:
            coeffs = [float(part) for part in name[5:].split(",")]
        except ValueError:
            coeffs = []
        if not coeffs or not all(map(math.isfinite, coeffs)):
            raise ConfigError(f"--function poly: coefficients must be finite numbers, "
                              f"got {name!r}")
        return translation.polynomial(coeffs)
    raise ConfigError(f"unknown function {name!r}; use gaussian, cubic or poly:c0,c1,...")


def _parse_samples(spec: str) -> np.ndarray:
    try:
        start, stop, step = (float(part) for part in spec.split(":"))
    except ValueError:
        raise ConfigError(f"samples must look like start:stop:step, got {spec!r}")
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError(f"--samples bounds and step must be finite, got {spec!r}")
    if step <= 0 or stop < start:
        raise ConfigError(f"bad sample range {spec!r}")
    # a float count, so one that overflows to inf is refused too
    steps = (stop - start) / step
    if steps + 1.0 > NODE_BUDGET:
        raise ConfigError(f"--samples {spec!r} asks for {steps + 1.0:.6g} samples, "
                          f"above the budget {NODE_BUDGET}")
    # sample k is start + k*step, never past stop; stop itself is the last
    # sample when the step count is within 4 ulps of a whole number
    last = math.floor(steps + 4.0 * math.ulp(steps))
    samples = np.minimum(start + np.arange(last + 1) * step, stop)
    if last >= steps - 4.0 * math.ulp(steps):
        samples[-1] = stop
    return samples


def cmd_translate(args) -> int:
    from . import translation

    check_finite(args.t, "--t")
    check_finite(args.tol, "--tol")
    phi = _function_from_name(args.function)
    samples = _parse_samples(args.samples)
    result = translation.translate_detailed(phi, args.t, samples, args.tol)
    certificate = result.certificate
    direct = phi.table(samples + args.t, 0)[0]
    errors = np.abs(result.values - direct)
    worst = float(np.fmax.reduce(errors, initial=0.0))  # skips a NaN error
    missed = int(np.count_nonzero(~(errors <= args.tol)))  # counts a NaN error
    out_dir = _ensure_out(args)
    write_csv(os.path.join(out_dir, "translate.csv"), ["s", "series", "direct", "error"],
              [samples, result.values, direct, errors])
    lines = [
        f"function = {phi.label}",
        f"t = {args.t:.17g}",
        f"tol = {args.tol:.17g}",
        f"certificate: minimal M = {certificate.minimal_m}, "
        f"conventional 2j = {certificate.conventional_m} "
        f"passes = {certificate.conventional_passes}",
        f"worst |series - direct| = {worst:.3e}",
    ]
    _write_metadata(out_dir, "translate", lines)
    print(f"translate: {samples.size} samples, worst error {worst:.3e} "
          f"(certificate M={certificate.minimal_m})")
    if missed:
        print(f"translate: {missed} of {samples.size} samples miss tol = {args.tol:.3g}, "
              f"worst |series - direct| = {worst:.3e}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_seminorms(args) -> int:
    grid = FrequencyGrid(args.n, args.J, args.inv_h)
    config = RunConfig(n=args.n, J=args.J, inv_h=args.inv_h, init=args.init,
                       symbol_text="0")
    field = app.build_initial_field(config, grid)
    profile = seminorm_profile(field)
    out_dir = _ensure_out(args)
    write_csv(os.path.join(out_dir, "seminorms.csv"), ["j", "seminorm"],
              [np.arange(1, profile.size + 1), profile])
    _write_metadata(
        out_dir,
        "seminorms",
        [f"grid = {grid!r}", f"init = {args.init}"]
        + [f"p_{j} = {value:.17g}" for j, value in enumerate(profile, start=1)],
    )
    print("seminorm profile: " + ", ".join(f"{v:.6g}" for v in profile))
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_verify

    weight_factor = 1.0 + 1e-3 if args.inject_fault else 1.0
    report = run_verify(args.scope, seed=args.seed, weight_factor=weight_factor)
    for result in report.results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{result.name:<12} {status}  ({result.seconds:.2f} s)")
        for failure in result.failures:
            print(f"    {failure}")
    print("verify: " + ("all suites passed" if report.passed else "FAILURES above"))
    return EXIT_OK if report.passed else EXIT_VERIFY


def _refuse(message: str):
    """Every parser's argument-error hook: `main` reports it in one line."""
    raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frechet-flow",
        description="Spectral evolution under constant-coefficient symbols, "
        "seminorm calculus, and invariance decisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run a configured evolution")
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE")
    p.add_argument("--out", default=None, help="output directory (default: from config)")
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("heat-demo", help="weighted spectral integrals of the heat flow")
    p.add_argument("--t", type=float, nargs="+", default=[0.1, -0.1])
    p.add_argument("--M", type=int, nargs="+", default=[0, 1])
    p.add_argument("--R", type=float, nargs="+", default=[1, 2, 4, 8, 16, 32, 64])
    p.add_argument("--out", default="out")
    p.set_defaults(handler=cmd_heat_demo)

    for name, handler, extra in (
        ("check-eprime", cmd_check_eprime, "compact-support invariance"),
        ("check-l2", cmd_check_l2, "square-integrable invariance"),
    ):
        p = sub.add_parser(name, help=f"decide {extra}")
        p.add_argument("--symbol", default=None, help="symbol text, e.g. '2*pi*i*xi'")
        p.add_argument("--diffop", default=None, metavar="ALPHA:RE,IM;...")
        p.add_argument("--convention", choices=("d", "partial"), default="d")
        p.add_argument("--out", default="out")
        if name == "check-l2":
            p.add_argument("--t", type=float, default=1.0)
        p.set_defaults(handler=handler)

    p = sub.add_parser("translate", help="Taylor translation of a smooth function")
    p.add_argument("--function", default="gaussian")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--samples", default="-2:2:0.1", metavar="START:STOP:STEP")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", default="out")
    p.set_defaults(handler=cmd_translate)

    p = sub.add_parser("seminorms", help="seminorm profile of a built-in field")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--J", type=int, default=8)
    p.add_argument("--inv-h", dest="inv_h", type=int, default=32)
    p.add_argument("--init", default="ones")
    p.add_argument("--out", default="out")
    p.set_defaults(handler=cmd_seminorms)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--scope", action="append", default=None)
    p.add_argument("--inject-fault", action="store_true",
                   help="perturb the quadrature weight; verify must then fail")
    p.add_argument("--seed", type=int, default=20240801, help="seed of every suite's random data")
    p.set_defaults(handler=cmd_verify)

    for p in (parser, *sub.choices.values()):
        p.error = _refuse
        # argparse reads an argument that matches this as a negative number,
        # not an option; its own pattern has no exponent, so ``-1e-3`` was
        # read as an option
        p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
    return parser


def main(argv=None) -> int:
    # ConfigError, SymbolError, GridError and FieldFormatError are ValueErrors too
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint():
    sys.exit(main())
