#!/usr/bin/env python3
"""Write the outputs of a fixed matrix of CLI runs, to check byte-identity.

    python3 tools/golden_outputs.py OUT_DIR [--bench-seeds 1 2 3]

Every run is a fresh ``python -m frechet_flow`` process on the ``src`` of
the checkout this file sits in.  Each case gets its own directory under
OUT_DIR with its inputs, the files the command wrote (under ``out/``), its
standard output (``stdout.txt``, suite timings masked), its standard error
(``stderr.txt``) and its exit code (``exit_code.txt``).  Run it on two
checkouts and compare the two directories with ``diff -r``; a change that
keeps every output, error text included, shows no difference.

The matrix covers all seven commands, and ``solve`` with every output
format under symbols of each parity class, on 1-D and 2-D grids: even in
every axis, even in one axis only (also through a quartic, beside an odd
cubic), and even in none.  Solves run each method, and a few include the
time 0 (one has no other time and writes its field).  Three solves, one
per method, write no field and saturate only at nodes outside ball J.
Three more solves take ``--set`` overrides that replace entries of
their file, add keys its sections leave out and add sections it leaves
out.  One solve and one ``check-l2`` take their symbol as a
derivative-coefficient list, ``check-l2`` and ``check-eprime`` also run on
a complex symbol of degree 5, ``check-eprime`` runs on a quartic and two
constants, where the paper's rule and the exact rule differ, and on a
translation, ``check-l2`` runs on coefficients of 1e308, and a few cases
fail on a missing or malformed symbol.  Three solves fail with exit 2 and
one stderr line: ``-xi^400`` is not finite on its grid, a field of 1e308
at every node has a top seminorm that overflows, so no series truncation
reaches the tolerance, and at t = 1e306 the worst rate overflows.
``translate`` runs the Gaussian on a range of more than one sample
block, at t = 0 and at t = 3 (past 64 orders, and past its tolerance), and
a cubic and a ``poly:`` function.  ``--bench-seeds`` adds the solve workloads of
``bench/workloads.py`` at the given seeds, with their own inputs and grids
(up to about a million nodes).
"""

from __future__ import annotations

import argparse
import os
import re
import struct
import subprocess
import sys

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
    ("translate", ["translate", "--function", "gaussian", "--t", "0.5",
                   "--samples=-2:2:0.1", "--out", "out"]),
    # 10,001 samples: more than one block of translation.SAMPLE_BLOCK
    ("translate-two-blocks", ["translate", "--t", "0.5", "--samples=-1:1:2e-4",
                              "--out", "out"]),
    ("translate-time-zero", ["translate", "--t", "0", "--out", "out"]),
    # the sums regrow their oracle tables past 64 orders and miss the tolerance
    ("translate-regrowth", ["translate", "--t", "3", "--samples=-2:2:0.5", "--out", "out"]),
    ("translate-cubic", ["translate", "--function", "cubic", "--t", "1.5",
                         "--samples=-2:2:0.25", "--out", "out"]),
    ("translate-poly", ["translate", "--function", "poly:1,-2,0.5,3", "--t=-0.75",
                        "--samples=-1:1:0.25", "--out", "out"]),
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


def run(case_dir, args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-m", "frechet_flow", *args], cwd=case_dir,
                          env=env, capture_output=True, text=True)
    stdout = re.sub(r"\(\d+\.\d+ s\)", "(s)", proc.stdout)
    with open(os.path.join(case_dir, "stdout.txt"), "w") as handle:
        handle.write(stdout)
    with open(os.path.join(case_dir, "stderr.txt"), "w") as handle:
        handle.write(proc.stderr)
    with open(os.path.join(case_dir, "exit_code.txt"), "w") as handle:
        handle.write(f"{proc.returncode}\n")
    print(f"{os.path.basename(case_dir)}: exit {proc.returncode}")


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir")
    parser.add_argument("--bench-seeds", type=int, nargs="*", default=[])
    args = parser.parse_args(argv)
    os.makedirs(args.out_dir, exist_ok=True)

    for seed, (name, n, J, inv_h, symbol, times, init, *options) in enumerate(SOLVES, start=1):
        case_dir = os.path.join(args.out_dir, name)
        os.makedirs(case_dir, exist_ok=True)
        if init.startswith("file"):
            write_init_field(os.path.join(case_dir, "init.fl2l"), init, n, J, inv_h, seed)
            init = "file:init.fl2l"
        with open(os.path.join(case_dir, "run.cfg"), "w") as handle:
            handle.write(solve_config(n, J, inv_h, symbol, times, init, *options))
        run(case_dir, ["solve", "--config", "run.cfg"])

    for name, base, left_out, overrides in SETS:
        case_dir = os.path.join(args.out_dir, name)
        os.makedirs(case_dir, exist_ok=True)
        with open(os.path.join(case_dir, "run.cfg"), "w") as handle:
            handle.write(set_config(base, left_out))
        run(case_dir, ["solve", "--config", "run.cfg",
                       *(arg for override in overrides for arg in ("--set", override))])

    for name, command in OTHERS:
        case_dir = os.path.join(args.out_dir, name)
        os.makedirs(case_dir, exist_ok=True)
        run(case_dir, command)

    if args.bench_seeds:
        sys.path[:0] = [SRC, os.path.join(ROOT, "bench")]
        from workloads import WORKLOADS, prepare

        for workload in WORKLOADS.values():
            if workload.command != "solve":
                continue
            for seed in args.bench_seeds:
                case_dir = os.path.join(args.out_dir, f"{workload.name}-seed{seed}")
                prepared = prepare(workload, seed, case_dir)
                run(case_dir, prepared.cli_args("out"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
