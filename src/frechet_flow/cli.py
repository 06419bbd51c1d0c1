"""Command-line front door.

Subcommands: ``solve``, ``heat-demo``, ``check-l2``, ``check-eprime``,
``translate``, ``seminorms``, ``verify``.  Every command writes CSV output
plus a plain-text metadata sidecar into its ``--out`` directory and prints
a one-line summary.  Exit codes: 0 ok, 2 configuration error, 3 a result
carried the overflow flag, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

import numpy as np

from . import app, invariance, translation
from .config import ConfigError, apply_overrides, config_from_text
from .fieldio import FieldFormatError
from .spectral import FrequencyGrid, GridError, seminorm_profile
from .symbols import (
    SymbolError,
    SymbolSyntaxError,
    diffop_to_symbol,
    parse_diffop_coefficients,
    parse_symbol,
    to_polynomial,
)
from .verify import DEFAULT_SEED, SUITES, run_verify

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_OVERFLOW = 3
EXIT_VERIFY = 4


def _ensure_out(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write_metadata(out_dir: str, command: str, lines):
    path = os.path.join(out_dir, "metadata.txt")
    with open(path, "w") as handle:
        handle.write(f"command = {command}\n")
        for line in lines:
            handle.write(line + "\n")
    return path


def _symbol_from_args(args, n: int = 1):
    if getattr(args, "symbol", None):
        return to_polynomial(parse_symbol(args.symbol, n))
    if getattr(args, "diffop", None):
        coeffs = parse_diffop_coefficients(args.diffop)
        return diffop_to_symbol(coeffs, convention=args.convention, n=n)
    raise ConfigError("one of --symbol or --diffop is required")


def cmd_solve(args) -> int:
    with open(args.config) as handle:
        text = handle.read()
    if args.set:
        text = apply_overrides(text, args.set)
    config = config_from_text(text)
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
    out_dir = _ensure_out(args)
    rows = app.heat_scan(args.t, args.M, args.R)
    csv_path = os.path.join(out_dir, "heat_scan.csv")
    app.heat_scan_csv(csv_path, rows)
    lines = []
    for t in args.t:
        for M in args.M:
            chunk = [r for r in rows if r.t == t and r.M == M]
            first, last = chunk[0], chunk[-1]
            if t > 0:
                rel = abs(last.value - chunk[-2].value) / last.value
                lines.append(
                    f"t={t:g} M={M}: converged, relative change {rel:.3e} "
                    f"over the last radius doubling"
                )
            else:
                ratio = last.value / first.value
                lines.append(
                    f"t={t:g} M={M}: grows by factor {ratio:.3e} from R={first.R:g} "
                    f"to R={last.R:g}" + (" (saturated)" if last.overflow else "")
                )
    _write_metadata(out_dir, "heat-demo", lines)
    for line in lines:
        print(line)
    overflowed = any(r.overflow for r in rows)
    return EXIT_OVERFLOW if overflowed else EXIT_OK


def cmd_check_eprime(args) -> int:
    poly = _symbol_from_args(args)
    decision = invariance.decide_eprime(poly)
    out_dir = _ensure_out(args)
    search = invariance.find_growth_witness(poly, args.witness_c, args.rmax)
    csv_path = os.path.join(out_dir, "eprime_probes.csv")
    with open(csv_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["re_z", "im_z", "re_a", "threshold"])
        for z, value, threshold in search.probes:
            writer.writerow(
                [f"{z.real:.17g}", f"{z.imag:.17g}", f"{value:.17g}", f"{threshold:.17g}"]
            )
    lead = decision.leading
    summary = (
        f"compact-support verdict: {decision.verdict} "
        f"(rule {decision.rule}, m={decision.order}, a_m={lead:.6g})"
    )
    witness_line = (
        f"growth witness at z={search.witness.z:.6g} on the {search.witness.branch} "
        f"half-plane (threshold c={args.witness_c:g})"
        if search.found
        else f"no growth witness up to |z|={args.rmax:g} at c={args.witness_c:g} "
        "(consistent, not proven)"
    )
    lines = [summary, witness_line] + [f"caveat: {c}" for c in decision.caveats]
    _write_metadata(out_dir, "check-eprime", lines)
    print(summary)
    for line in lines[1:]:
        print(line)
    return EXIT_OK


def cmd_check_l2(args) -> int:
    poly = _symbol_from_args(args)
    decision = invariance.decide_l2(poly, args.t)
    out_dir = _ensure_out(args)
    maxima = invariance.sampled_sphere_maxima(poly)
    csv_path = os.path.join(out_dir, "l2_probes.csv")
    with open(csv_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["k", "radius", "max_re_a"])
        for k, value in enumerate(maxima):
            writer.writerow([k, f"{2.0**k:.17g}", f"{value:.17g}"])
    summary = (
        f"square-integrable verdict at t={args.t:g}: {decision.verdict} "
        f"(method {decision.method}, sup estimate {decision.sup_estimate:.6g})"
    )
    lines = [summary] + [f"caveat: {c}" for c in decision.caveats]
    _write_metadata(out_dir, "check-l2", lines)
    print(summary)
    for line in lines[1:]:
        print(line)
    return EXIT_OK


def _function_from_name(name: str):
    if name == "gaussian":
        return translation.gaussian()
    if name == "cubic":
        return translation.polynomial([0.0, 0.0, 0.0, 1.0])
    if name.startswith("poly:"):
        coeffs = [float(part) for part in name[5:].split(",")]
        return translation.polynomial(coeffs)
    raise ConfigError(f"unknown function {name!r}; use gaussian, cubic or poly:c0,c1,...")


def _check_finite(value: float, flag: str) -> None:
    if not math.isfinite(value):
        raise ConfigError(f"{flag} must be finite, got {value!r}")


def _parse_samples(spec: str) -> np.ndarray:
    try:
        start, stop, step = (float(part) for part in spec.split(":"))
    except ValueError:
        raise ConfigError(f"samples must look like start:stop:step, got {spec!r}")
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError(f"--samples bounds and step must be finite, got {spec!r}")
    if step <= 0 or stop < start:
        raise ConfigError(f"bad sample range {spec!r}")
    return np.arange(start, stop + 0.5 * step, step)


def cmd_translate(args) -> int:
    _check_finite(args.t, "--t")
    _check_finite(args.tol, "--tol")
    phi = _function_from_name(args.function)
    samples = _parse_samples(args.samples)
    out_dir = _ensure_out(args)
    window = int(math.ceil(np.max(np.abs(samples)) + abs(args.t))) + 1
    certificate = translation.certify_membership(phi, 0, window, max_order=40)
    rows = []
    worst = 0.0
    for s in samples:
        detail = translation.translate_detailed(phi, args.t, float(s), args.tol, certificate)
        direct = float(phi(s + args.t))
        error = abs(detail.value - direct)
        worst = max(worst, error)
        rows.append((float(s), detail.value, direct, error, detail.terms))
    csv_path = os.path.join(out_dir, "translate.csv")
    with open(csv_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["s", "series", "direct", "error"])
        for s, series, direct, error, _ in rows:
            writer.writerow(
                [f"{s:.17g}", f"{series:.17g}", f"{direct:.17g}", f"{error:.17g}"]
            )
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
    print(
        f"translate: {len(rows)} samples, worst error {worst:.3e} "
        f"(certificate M={certificate.minimal_m})"
    )
    return EXIT_OK


def cmd_seminorms(args) -> int:
    grid = FrequencyGrid(args.n, args.J, args.inv_h)
    from .config import RunConfig

    config = RunConfig(n=args.n, J=args.J, inv_h=args.inv_h, init=args.init,
                       symbol_text="0")
    field = app.build_initial_field(config, grid)
    profile = seminorm_profile(field)
    out_dir = _ensure_out(args)
    csv_path = os.path.join(out_dir, "seminorms.csv")
    with open(csv_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["j", "seminorm"])
        for j, value in enumerate(profile, start=1):
            writer.writerow([j, f"{value:.17g}"])
    _write_metadata(
        out_dir,
        "seminorms",
        [f"grid = {grid!r}", f"init = {args.init}"]
        + [f"p_{j} = {value:.17g}" for j, value in enumerate(profile, start=1)],
    )
    print("seminorm profile: " + ", ".join(f"{v:.6g}" for v in profile))
    return EXIT_OK


def cmd_verify(args) -> int:
    scopes = args.scope or None
    weight_factor = 1.0 + 1e-3 if args.inject_fault else 1.0
    report = run_verify(scopes, seed=args.seed, weight_factor=weight_factor)
    for result in report.results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{result.name:<12} {status}  ({result.seconds:.2f} s)")
        for failure in result.failures:
            print(f"    {failure}")
    print("verify: " + ("all suites passed" if report.passed else "FAILURES above"))
    return EXIT_OK if report.passed else EXIT_VERIFY


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
        if name == "check-eprime":
            p.add_argument("--witness-c", type=float, default=1.0)
            p.add_argument("--rmax", type=float, default=1e4)
        else:
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
    p.add_argument("--scope", action="append", choices=sorted(SUITES), default=None)
    p.add_argument("--inject-fault", action="store_true",
                   help="perturb the quadrature weight; verify must then fail")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (
        ConfigError,
        SymbolSyntaxError,
        SymbolError,
        GridError,
        FieldFormatError,
        FileNotFoundError,
        ValueError,
    ) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
