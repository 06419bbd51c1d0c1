"""Output checks for one benchmark command; each returns a list of failures.

The multiplier trajectory is compared with this module's own numpy
closed form of ``p_j(e^{t a} u)`` for the heat symbol, written without
frechet_flow.  The series trajectory and the residual file are checked
against the certified bounds the program reports.  Tolerances allow for a
different summation order or term count, not for wrong numbers.
"""

from __future__ import annotations

import csv
import math
import os
import re

import numpy as np

# Relative tolerance of the multiplier trajectory against the reference.
MULTIPLIER_RTOL = 1e-12

# Balls whose largest evolved log-magnitude exceeds this are saturated (the
# program clamps at 709) and are not compared with the reference.
UNSATURATED_LOG_LIMIT = 700.0

# Rounding slack, in units of the larger seminorm, of |p_j(S) - p_j(M)| <= bound.
SERIES_SLACK = 8 * np.finfo(float).eps

VERIFY_SUITES = (
    "spectral", "symbols", "operators", "evolution", "invariance", "translation", "config",
)


def reference_profiles(values, grid, times) -> dict:
    """``{t: [(p_j or None if saturated) for j = 1..J]}`` for the heat symbol."""
    n, J, inv_h = grid
    index = np.arange(-J * inv_h, J * inv_h + 1, dtype=np.int64)
    r2 = index**2 if n == 1 else (index[:, None] ** 2 + index[None, :] ** 2).ravel()
    # shell[k] = smallest j - 1 with |xi_k| <= j, exactly, in integers; J is outside
    shell = np.searchsorted((np.arange(1, J + 1, dtype=np.int64) * inv_h) ** 2, r2)
    symbol = -(1.0 + 4.0 * math.pi**2 * (r2 / float(inv_h) ** 2))
    with np.errstate(divide="ignore"):
        log_u = np.log(np.abs(np.asarray(values).ravel()))
    weight = (1.0 / inv_h) ** n
    profiles = {}
    for t in times:
        log_v = t * symbol + log_u
        shell_max = np.full(J + 1, -np.inf)
        np.maximum.at(shell_max, shell, log_v)
        finite = np.isfinite(shell_max[shell])
        scaled = np.where(finite, np.exp(log_v - np.where(finite, shell_max[shell], 0.0)), 0.0)
        shell_sum = np.bincount(shell, weights=scaled**2, minlength=J + 1)
        profile = []
        for j in range(1, J + 1):
            peak = float(np.max(shell_max[:j]))
            if peak > UNSATURATED_LOG_LIMIT:
                profile.append(None)
                continue
            if peak == -math.inf:
                profile.append(0.0)
                continue
            total = sum(
                shell_sum[k] * math.exp(2.0 * (shell_max[k] - peak))
                for k in range(j) if shell_max[k] > -math.inf
            )
            profile.append(math.exp(peak) * math.sqrt(weight * total))
        profiles[float(t)] = profile
    return profiles


def _rows(path) -> list:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        return [row for row in reader]


def _by_key(rows, column: int) -> dict:
    return {(float(row[0]), int(row[1])): float(row[column]) for row in rows}


def check_solve(out_dir: str, exit_code: int, expected_exit: int, reference: dict,
                J: int) -> list:
    failures = []
    if exit_code != expected_exit:
        failures.append(f"exit code {exit_code}, expected {expected_exit}")
    keys = {(t, j) for t in reference for j in range(1, J + 1)}
    tables = {}
    for name, column in (("residuals", 2), ("residuals", 3),
                         ("trajectory_multiplier", 2), ("trajectory_series", 2)):
        try:
            rows = _rows(os.path.join(out_dir, f"{name}.csv"))
            table = tables[name, column] = _by_key(rows, column)
        except (OSError, ValueError, IndexError, StopIteration) as error:
            return failures + [f"{name}.csv unreadable: {error}"]
        if len(rows) != len(keys) or set(table) != keys:
            return failures + [f"{name}.csv rows do not cover every (t, j) once"]
    residual, bound = tables["residuals", 2], tables["residuals", 3]
    multiplier = tables["trajectory_multiplier", 2]
    series = tables["trajectory_series", 2]
    for key in sorted(keys):
        t, j = key
        if not residual[key] <= bound[key]:
            failures.append(f"t={t} j={j}: residual {residual[key]!r} > bound {bound[key]!r}")
        expected = reference[t][j - 1]
        got = multiplier[key]
        if expected is not None and not abs(got - expected) <= MULTIPLIER_RTOL * expected:
            failures.append(f"t={t} j={j}: multiplier {got!r}, reference {expected!r}")
        s, m = series[key], multiplier[key]
        if math.isinf(bound[key]) or (math.isinf(s) and s == m):
            continue
        if not abs(s - m) <= bound[key] + SERIES_SLACK * max(abs(s), abs(m)):
            failures.append(
                f"t={t} j={j}: series {s!r} off multiplier {m!r} beyond bound {bound[key]!r}"
            )
    return failures


def check_verify(stdout: str, exit_code: int, expected_exit: int) -> list:
    failures = []
    if exit_code != expected_exit:
        failures.append(f"exit code {exit_code}, expected {expected_exit}")
    for suite in VERIFY_SUITES:
        if not re.search(rf"^{suite}\s+PASS\b", stdout, re.MULTILINE):
            failures.append(f"suite {suite} did not print PASS")
    return failures
