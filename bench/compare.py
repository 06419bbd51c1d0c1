"""Compare two sets of benchmark results for one workload.

Each file holds the last stdout line of several ``bench/run.py`` runs, one
JSON object per line (``python3 bench/run.py ... | tail -1 >> base.jsonl``).

    python3 bench/compare.py base.jsonl change.jsonl

For every metric present in both files it prints each side's median and
quartiles, the change of the medians, and a verdict against the bound that
``BENCHMARK.json`` fixes for end-to-end metrics:

* ``regression``: the change's median is worse by more than the bound;
* ``unresolved``: the base's own quartile spread is wider than the bound;
* ``gain``: better by more than the base's quartile spread, in at least nine
  tenths of the runs paired in file order;
* ``same`` otherwise.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path) -> dict:
    """``{metric: [value per run]}``; runs that failed a check are rejected."""
    values: dict = {}
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            result = json.loads(line)
            if not result["correct"]:
                raise SystemExit(f"{path}: a run failed its checks: {line.strip()}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
    return values


def spread(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(base, change, bound, lower_is_better) -> str:
    sign = 1.0 if lower_is_better else -1.0
    b_med, c_med = statistics.median(base), statistics.median(change)
    worse = sign * (c_med - b_med) / abs(b_med) if b_med else 0.0
    q1, q3 = spread(base)
    if bound is not None and worse > bound:
        return "regression"
    if bound is not None and (q3 - q1) / abs(b_med) > bound:
        return "unresolved"
    wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    if sign * (b_med - c_med) > q3 - q1 and wins >= 0.9 * min(len(base), len(change)):
        return "gain"
    return "same"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    bounds = {m["name"]: m.get("bound") for m in declared["end_to_end"]}
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}
    base, change = load(argv[0]), load(argv[1])
    for name in sorted(set(base) & set(change)):
        b, c = base[name], change[name]
        b_med, c_med = statistics.median(b), statistics.median(c)
        (bq1, bq3), (cq1, cq3) = spread(b), spread(c)
        delta = (c_med - b_med) / abs(b_med) if b_med else 0.0
        print(f"{name}: base {b_med:.6g} [{bq1:.6g}, {bq3:.6g}] n={len(b)}, "
              f"change {c_med:.6g} [{cq1:.6g}, {cq3:.6g}] n={len(c)}, {delta:+.1%}, "
              f"{verdict(b, c, bounds.get(name), better.get(name, 'lower') == 'lower')}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
