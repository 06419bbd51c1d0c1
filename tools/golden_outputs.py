#!/usr/bin/env python3
"""Run a fixed matrix of CLI cases in this process; write their outputs and digests.

    python3 tools/golden_outputs.py OUT_DIR [--bench-seeds 1 2 3]

Each case runs through ``cli.main`` of this checkout's ``src`` as a fresh
process would run it (`run_case`), in its own directory under OUT_DIR: its
inputs, the files it wrote (under ``out/``), ``stdout.txt`` (suite timings
masked), ``stderr.txt`` and ``exit_code.txt``.  ``OUT_DIR/digests.json``
holds each case's exit code, standard output and error and the SHA-256 of
each file in its directory, with the Python and numpy versions.
``tests/test_golden.py`` checks the matrix without ``--bench-seeds``
against a copy of that file, ``tests/golden_digests.json``.  The comments
in ``SOLVES``, ``SETS`` and ``OTHERS`` say what each case exercises;
``--bench-seeds`` adds the benchmark's solve workloads at those seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import platform
import re
import struct
import sys
import warnings

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

HEAT_1D = "-(1+4*pi^2*xi^2)"
HEAT_2D = "-(1+4*pi^2*(xi1^2+xi2^2))"

# even in xi1 through a quartic, odd in xi2 through a cubic
QUARTIC_CUBIC_2D = "-(xi1^4+4*pi^2*xi2^2)+i*xi2^3"
# complex coefficients of degree 5, so the witness probes are complex products
QUINTIC = "(1+2*i)*xi^5-3*xi^2+i*xi"

# the heat symbol as a coefficient list against plain partial derivatives
HEAT_DIFFOP = "2:1;0:-1"

# (name, n, J, inv_h, [symbol] entries, times, init[, method[, formats]]);
# "file" is a seeded random field and "file-1e308" a field of 1e308 at every
# node, the method is "both" and the formats "csv, fl2l, field-csv" unless given
SOLVES = [
    ("solve-1d-even", 1, 8, 32, "text = " + HEAT_1D, "0.001, 0.1, 1, -0.05", "gaussian-hat"),
    ("solve-1d-even-backward", 1, 4, 16, "text = " + HEAT_1D, "-0.5, -3", "ones"),
    ("solve-1d-odd", 1, 8, 32, "text = 2*pi*i*xi", "0.25, -1", "delta@0.5"),
    ("solve-1d-mixed", 1, 6, 16, "text = " + HEAT_1D + "+2*pi*i*xi", "0.01, 0.3", "file"),
    ("solve-2d-even", 2, 4, 16, "text = " + HEAT_2D, "0.001, 0.1, 1, -0.01", "file"),
    ("solve-2d-even-backward", 2, 3, 8, "text = " + HEAT_2D, "-0.2, -2", "ones"),
    ("solve-2d-half-even", 2, 4, 16, "text = 2*pi*i*xi1", "0.5, -2", "gaussian-hat"),
    ("solve-2d-mixed", 2, 3, 16, "text = " + HEAT_2D + "+2*pi*i*(xi1+2*xi2)", "0.01, -0.01",
     "file"),
    ("solve-2d-quartic-cubic", 2, 3, 16, "text = " + QUARTIC_CUBIC_2D, "0.01, 0.1, -0.01",
     "file"),
    ("solve-1d-diffop", 1, 6, 16, f"diffop = {HEAT_DIFFOP}\nconvention = partial",
     "0.01, 0.2, -0.1", "gaussian-hat"),
    ("solve-2d-time-zero", 2, 4, 16, "text = " + HEAT_2D, "0, 0.1, -2", "file"),
    ("solve-2d-multiplier", 2, 4, 16, "text = " + HEAT_2D + "+2*pi*i*xi1", "0.01, 0, -2",
     "file", "multiplier"),
    ("solve-2d-series", 2, 4, 16, "text = " + HEAT_2D + "+2*pi*i*xi1", "-2, 0, 0.01",
     "file", "series"),
    ("solve-1d-multiplier", 1, 4, 16, "text = " + HEAT_1D, "0, -3", "ones", "multiplier"),
    ("solve-1d-series", 1, 4, 16, "text = 2*pi*i*xi", "0, 0.25, -1", "delta@0.5", "series"),
    # at t = -1 only the corners outside ball 4 saturate; no field is written
    *((f"solve-2d-corners-saturate-{method}", 2, 4, 16, "text = " + HEAT_2D, "-1, -0.5",
       "file", method, "csv") for method in ("multiplier", "series", "both")),
    ("solve-2d-only-time-zero", 2, 4, 16, "text = " + HEAT_2D, "0", "file", "both",
     "csv, fl2l"),
    # 8^400 overflows, and Horner's rule then forms inf * 0 = nan at xi = 0
    ("solve-symbol-not-finite", 1, 8, 4, "text = -xi^400", "0.1", "ones"),
    # p_J(u) overflows to inf: the series tolerance is out of reach
    ("solve-seminorm-overflows", 1, 8, 4, "text = " + HEAT_1D, "0.5", "file-1e308"),
    # the worst rate |t| max|a| overflows to inf: no series stage count exists
    ("solve-rate-overflows", 1, 8, 32, "text = " + HEAT_1D, "1e306", "ones"),
    # t * Im a overflows to inf: the closed form's phase is lost
    ("solve-1d-transport-phase-overflows", 1, 8, 32, "text = 2*pi*i*xi", "1e308", "ones"),
    # ball 8 spans four pass blocks: at t = -2 every block after the first
    # clamps whole, at t = -0.5 one clamps on 300 of its 64,348 nodes
    ("solve-2d-backward-blocks-clamp", 2, 8, 32, "text = " + HEAT_2D, "-2, -0.5", "ones",
     "both", "csv, fl2l"),
    # no field is written and nothing saturates, so every pass reduces over
    # levels: xi1's values straddle shells, 1-D blocks hold many shells, and
    # a run of one flow has no residual
    ("solve-2d-mixed-levels", 2, 4, 16, "text = " + HEAT_2D + "+2*pi*i*xi1", "0.01, 0.1",
     "file", "both", "csv"),
    ("solve-1d-heat-levels", 1, 16, 64, "text = " + HEAT_1D, "0.001, 0.05", "gaussian-hat",
     "both", "csv"),
    ("solve-2d-multiplier-levels", 2, 4, 16, "text = " + HEAT_2D, "0.01, 0.5", "file",
     "multiplier", "csv"),
]

# (name, SOLVES case without a "file" init, lines left out of its config, --set
# overrides): the overrides replace entries of the file, add keys its sections
# leave out, and add sections it leaves out
SETS = [
    ("solve-set-replaces", "solve-1d-even-backward", (),
     ["evolve.method=series", "evolve.times=-0.5, 0.25", "init.field=gaussian-hat"]),
    ("solve-set-adds-keys", "solve-1d-odd",
     ("J = 8", "tol = 1e-8", "formats = csv, fl2l, field-csv"),
     ["grid.J=4", "evolve.tol=1e-10", "output.formats=csv, fl2l"]),
    ("solve-set-adds-sections", "solve-2d-half-even",
     ("[init]", "field = gaussian-hat", "[output]", "directory = out",
      "formats = csv, fl2l, field-csv"),
     ["init.field=ones", "output.formats=csv, field-csv"]),
]

OTHERS = [
    ("heat-demo", ["heat-demo", "--out", "out"]),
    # an M past int64, written as an exact integer
    ("heat-demo-huge-M", ["heat-demo", "--M", "0", "100000000000000000000", "--R", "1", "2",
                          "--t", "0.1", "--out", "out"]),
    ("check-l2", ["check-l2", "--symbol=" + HEAT_1D, "--t", "1.0", "--out", "out"]),
    ("check-l2-diffop", ["check-l2", "--diffop", HEAT_DIFFOP, "--convention", "partial",
                         "--t", "1.0", "--out", "out"]),
    ("check-l2-no-symbol", ["check-l2", "--out", "out"]),
    ("check-eprime-bad-diffop", ["check-eprime", "--diffop", "2:x", "--out", "out"]),
    ("check-eprime-bad-symbol", ["check-eprime", "--symbol", "xi^(1/2)", "--out", "out"]),
    ("check-eprime", ["check-eprime", "--diffop", "1:0,1", "--convention", "partial",
                      "--out", "out"]),
    ("check-eprime-quintic", ["check-eprime", "--symbol", QUINTIC, "--out", "out"]),
    # where the paper's rule and the exact rule part (order 4k, constants), and a translation
    ("check-eprime-quartic", ["check-eprime", "--symbol=-xi^4", "--out", "out"]),
    ("check-eprime-constant", ["check-eprime", "--symbol", "3", "--out", "out"]),
    ("check-eprime-zero", ["check-eprime", "--symbol", "0", "--out", "out"]),
    ("check-eprime-translation", ["check-eprime", "--symbol", "2*pi*i*xi", "--out", "out"]),
    # the derivative of the real part overflows; the sup 2.5e307 sits at xi = 1/2
    ("check-l2-large-coefficients", ["check-l2", "--symbol=-1e308*xi^2+1e308*xi",
                                     "--out", "out"]),
    ("check-l2-quintic", ["check-l2", "--symbol", QUINTIC, "--t", "1.0", "--out", "out"]),
    # the probes overflow to inf from radius 2^4 on
    ("check-l2-probes-overflow", ["check-l2", "--symbol=xi^300", "--out", "out"]),
    # past the parser's nesting limit of 100 levels
    ("check-l2-nested-too-deep", ["check-l2", "--symbol=" + "(" * 199 + "xi" + ")" * 199,
                                  "--out", "out"]),
    # symbol text with one fault each: the refusal's message, offset and exit code
    *((f"check-l2-refuses-{name}", ["check-l2", "--symbol=" + text, "--out", "out"])
      for name, text in (("divisor-xi", "1/xi"), ("divisor-cancelling-xi", "1/(xi-xi+1)"),
                         ("exponent-cancelling-xi", "xi^(xi-xi+2)"),
                         ("exponent-divides-by-zero", "xi^(1/(1-1))"),
                         ("division-by-zero", "1/(1-1)"),
                         ("coefficient-overflows", "(1e200*xi)^2"),
                         ("degree-past-budget", "xi^20000"))),
    # 1e308*10 overflows to inf: the exponent is not finite
    ("check-l2-exponent-not-finite", ["check-l2", "--symbol=xi^(1e308*10)", "--out", "out"]),
    ("check-l2-time-zero", ["check-l2", "--symbol=" + HEAT_1D, "--t", "0", "--out", "out"]),
    ("translate", ["translate", "--function", "gaussian", "--t", "0.5",
                   "--samples=-2:2:0.1", "--out", "out"]),
    # 10,001 samples: more than one block of translation.SAMPLE_BLOCK, and
    # rows of more than one block of the CSV writer
    ("translate-two-blocks", ["translate", "--t", "0.5", "--samples=-1:1:2e-4",
                              "--out", "out"]),
    # the audit window is 42: 84,001 points times orders 0..40 make 3,444,041
    # table entries, the widest audit in the matrix
    ("translate-wide-window", ["translate", "--t", "0.5", "--samples=-40:40:0.5",
                               "--out", "out"]),
    ("translate-time-zero", ["translate", "--t", "0", "--out", "out"]),
    # a negative time in exponent notation is a number, not an option
    ("translate-negative-exponent-time", ["translate", "--t", "-1e-3", "--out", "out"]),
    ("heat-demo-negative-exponent-time", ["heat-demo", "--t", "0.1", "-1e-2", "--out", "out"]),
    # the sums regrow their oracle tables past 64 orders and miss the tolerance
    ("translate-regrowth", ["translate", "--t", "3", "--samples=-2:2:0.5", "--out", "out"]),
    ("translate-cubic", ["translate", "--function", "cubic", "--t", "1.5",
                         "--samples=-2:2:0.25", "--out", "out"]),
    ("translate-poly", ["translate", "--function", "poly:1,-2,0.5,3", "--t=-0.75",
                        "--samples=-1:1:0.25", "--out", "out"]),
    # f(4) = 5e308 overflows on the audit window [-4, 4]
    ("translate-poly-not-finite", ["translate", "--function", "poly:1e308,1e308", "--t", "1",
                                   "--out", "out"]),
    ("seminorms-1d", ["seminorms", "--n", "1", "--J", "8", "--inv-h", "32", "--init",
                      "gaussian-hat", "--out", "out"]),
    ("seminorms-2d", ["seminorms", "--n", "2", "--J", "4", "--inv-h", "16", "--init",
                      "ones", "--out", "out"]),
    ("verify", ["verify"]),
]


def write_init_field(path, init, n, J, inv_h, seed):
    """A ``file`` or ``file-1e308`` init in the ``.fl2l`` layout, written without the package."""
    side = 2 * J * inv_h + 1
    if init == "file":
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((side,) * n) + 1j * rng.standard_normal((side,) * n)
    else:
        values = np.full((side,) * n, 1e308, dtype=complex)
    with open(path, "wb") as handle:
        handle.write(struct.pack("<4sIBII", b"FL2L", 1, n, J, inv_h))
        handle.write(values.astype("<c16").tobytes())


def solve_config(n, J, inv_h, symbol, times, init, method="both",
                 formats="csv, fl2l, field-csv") -> str:
    return (
        f"[grid]\nn = {n}\nJ = {J}\ninv_h = {inv_h}\n[symbol]\n{symbol}\n"
        f"[evolve]\ntimes = {times}\nmethod = {method}\ntol = 1e-8\n"
        f"[init]\nfield = {init}\n"
        f"[output]\ndirectory = out\nformats = {formats}\n"
    )


def set_config(base, left_out) -> str:
    """The config of SOLVES case ``base`` without the lines ``left_out``."""
    _, n, J, inv_h, symbol, times, init, *options = next(
        case for case in SOLVES if case[0] == base)
    text = solve_config(n, J, inv_h, symbol, times, init, *options)
    return "".join(line for line in text.splitlines(True) if line.strip() not in left_out)


def cases(out_dir, bench_seeds=()):
    """Write each case's inputs into its directory under ``out_dir``; yield the
    directory and the case's command-line arguments, in matrix order."""
    for seed, (name, n, J, inv_h, symbol, times, init, *options) in enumerate(SOLVES, start=1):
        case_dir = os.path.join(out_dir, name)
        os.makedirs(case_dir, exist_ok=True)
        if init.startswith("file"):
            write_init_field(os.path.join(case_dir, "init.fl2l"), init, n, J, inv_h, seed)
            init = "file:init.fl2l"
        with open(os.path.join(case_dir, "run.cfg"), "w") as handle:
            handle.write(solve_config(n, J, inv_h, symbol, times, init, *options))
        yield case_dir, ["solve", "--config", "run.cfg"]

    for name, base, left_out, overrides in SETS:
        case_dir = os.path.join(out_dir, name)
        os.makedirs(case_dir, exist_ok=True)
        with open(os.path.join(case_dir, "run.cfg"), "w") as handle:
            handle.write(set_config(base, left_out))
        yield case_dir, ["solve", "--config", "run.cfg",
                         *(arg for override in overrides for arg in ("--set", override))]

    for name, command in OTHERS:
        case_dir = os.path.join(out_dir, name)
        os.makedirs(case_dir, exist_ok=True)
        yield case_dir, command

    if bench_seeds:
        sys.path[:0] = [SRC, os.path.join(ROOT, "bench")]
        from workloads import WORKLOADS, prepare

        for workload in WORKLOADS.values():
            if workload.command != "solve":
                continue
            for seed in bench_seeds:
                case_dir = os.path.join(out_dir, f"{workload.name}-seed{seed}")
                prepared = prepare(workload, seed, case_dir)
                yield case_dir, prepared.cli_args("out")


def write_stdio(case_dir, stdout, stderr, code) -> None:
    """A run's ``stdout.txt`` (suite timings masked), ``stderr.txt`` and ``exit_code.txt``."""
    case = pathlib.Path(case_dir)
    (case / "stdout.txt").write_text(re.sub(r"\(\d+\.\d+ s\)", "(s)", stdout))
    (case / "stderr.txt").write_text(stderr)
    (case / "exit_code.txt").write_text(f"{code}\n")


def print_warning(message, category, filename, lineno, file=None, line=None):
    """Print to ``sys.stderr`` as a process does, also under a caller that records warnings."""
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def run_case(cli, case_dir, command) -> int:
    """``cli.main(command)`` in ``case_dir`` as a fresh process runs it; its exit
    code, written with its standard output and error (`write_stdio`).  Setting
    a fresh process's warning filters clears every once-per-location registry,
    so neither the caller's filters nor an earlier case changes what it prints.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(case_dir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(), np.errstate(all="warn", under="ignore"):
            warnings.resetwarnings()
            for category in (ResourceWarning, ImportWarning, PendingDeprecationWarning,
                             DeprecationWarning):
                warnings.simplefilter("ignore", category)
            warnings.filterwarnings("default", category=DeprecationWarning, module="__main__")
            warnings.showwarning = print_warning
            try:
                code = cli.main(command)
            except SystemExit as exit:  # -h and --help
                code = exit.code
    finally:
        os.chdir(cwd)
    write_stdio(case_dir, stdout.getvalue(), stderr.getvalue(), code)
    return code


def case_digest(case_dir) -> dict:
    """A run case's exit code, standard output and error, and the SHA-256 of each of its files."""
    case = pathlib.Path(case_dir)
    files = {path.relative_to(case).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
             for path in sorted(case.rglob("*")) if path.is_file()}
    return {"exit_code": int((case / "exit_code.txt").read_text()),
            "stdout": (case / "stdout.txt").read_text(),
            "stderr": (case / "stderr.txt").read_text(), "files": files}


def run_matrix(cli, out_dir, bench_seeds=()) -> dict:
    """Run every case through ``cli.main`` (`run_case`); the digests of all
    cases, in matrix order, and the Python and numpy versions."""
    digests = {}
    for case_dir, command in cases(out_dir, bench_seeds):
        code = run_case(cli, case_dir, command)
        print(f"{os.path.basename(case_dir)}: exit {code}")
        digests[os.path.basename(case_dir)] = case_digest(case_dir)
    return {"python": platform.python_version(), "numpy": np.__version__, "cases": digests}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir")
    parser.add_argument("--bench-seeds", type=int, nargs="*", default=[])
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    from frechet_flow import cli

    digests = run_matrix(cli, args.out_dir, args.bench_seeds)
    pathlib.Path(args.out_dir, "digests.json").write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
