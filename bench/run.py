"""Benchmark of the frechet_flow CLI: end-to-end time, set-up time and RSS.

Run from the root of a checkout:

    python3 bench/run.py --workload solve-fwd-2d --seed 1 --seconds 25 --trace 0

The harness is one single-threaded process.  It writes the workload's seeded
inputs into ``.bench_work/``, times set-up probes, then runs the workload's
command as fresh ``python -m frechet_flow`` processes, one after another,
until ``--seconds`` have passed (at least ``MIN_RUNS`` of them), checking
every command's outputs.  Peak RSS is each child's own ``ru_maxrss`` from
``os.wait4``.  With ``--trace 1`` one more process runs the command under
``spans.py`` and the per-layer metrics are printed instead of the end-to-end
ones.  The last line of standard output is the JSON result; a readable
summary goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS, prepare  # noqa: E402

SETUP_PROBES = 11
MIN_RUNS = 3
CHILD_TIMEOUT_S = 90


class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout


class Child:
    """One finished child process: exit code, wall seconds, own peak RSS."""

    def __init__(self, argv, cwd, env, log_stem):
        with open(log_stem + ".out", "wb") as out, open(log_stem + ".err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except ChildTimeout:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.alarm(0)
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        with open(log_stem + ".out") as handle:
            self.stdout = handle.read()
        with open(log_stem + ".err") as handle:
            self.stderr = handle.read()


class Runner:
    """Spawns and checks the children of one benchmark run."""

    def __init__(self, root, prepared):
        self.prepared = prepared
        self.workload = prepared.workload
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                [os.path.join(root, "src")] + ([os.environ["PYTHONPATH"]]
                                               if os.environ.get("PYTHONPATH") else [])
            ),
            FRECHET_FLOW_THREADS="1",
            TMPDIR=prepared.workdir,
        )
        self.reference = None
        if self.workload.command == "solve":
            self.reference = checks.reference_profiles(
                prepared.init_values, self.workload.grid, self.workload.times
            )
        self.attempted = 0
        self.failures: list = []

    def spawn(self, argv) -> Child:
        self.attempted += 1
        stem = os.path.join(self.prepared.workdir, f"child-{self.attempted}")
        return Child(argv, self.prepared.workdir, self.env, stem)

    def record(self, label, failures, child):
        if failures:
            tail = child.stderr.strip().splitlines()[-3:]
            self.failures.append((label, failures + tail))

    def probe_setup(self) -> float:
        child = self.spawn([sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"),
                            *self.prepared.setup_args()])
        self.record("setup probe", [] if child.exit_code == 0
                    else [f"exit code {child.exit_code}"], child)
        return child.wall_s

    def run_command(self, prefix, label) -> Child:
        out_dir = os.path.join(self.prepared.workdir, f"out-{self.attempted + 1}")
        child = self.spawn(prefix + self.prepared.cli_args(out_dir))
        if self.workload.command == "solve":
            failures = checks.check_solve(out_dir, child.exit_code, self.workload.expected_exit,
                                          self.reference, self.workload.grid[1])
        else:
            failures = checks.check_verify(child.stdout, child.exit_code,
                                           self.workload.expected_exit)
        self.record(label, failures, child)
        shutil.rmtree(out_dir, ignore_errors=True)
        return child


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def tail_line(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    rank = n - 10
    if rank < 1:
        return f"run_s tail: {n} samples, none with 10 beyond it; not reported"
    value = sorted(values)[rank - 1]
    return f"run_s tail: p{100.0 * rank / n:.1f} = {value:.4f} s ({n - rank} of {n} beyond it)"


def measure(runner: Runner, seconds: float, trace: bool) -> dict:
    python_m = [sys.executable, "-m", "frechet_flow"]
    setup = [runner.probe_setup() for _ in range(SETUP_PROBES)]
    runs = []
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_RUNS or time.perf_counter() < deadline:
        runs.append(runner.run_command(python_m, "command"))
    run_s = [child.wall_s for child in runs]
    rss = [child.rss_mb for child in runs]
    log = sys.stderr
    print(f"machine: {os.cpu_count()} cores, Python {platform.python_version()}, "
          f"numpy {numpy.__version__}", file=log)
    print(f"workload {runner.workload.name}: {len(runs)} runs", file=log)
    for name, values in (("run_s", run_s), ("setup_s", setup), ("peak_rss_mb", rss)):
        q1, q3 = quartiles(values)
        print(f"  {name}: median {statistics.median(values):.4f}, quartiles "
              f"{q1:.4f}..{q3:.4f}, n={len(values)}", file=log)
    print("  " + tail_line(run_s), file=log)
    if not trace:
        return {
            "run_s": (statistics.median(run_s), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
        }
    summary_path = os.path.join(runner.prepared.workdir, "spans.json")
    traced = runner.run_command([sys.executable, os.path.join(BENCH_DIR, "spans.py"),
                                  summary_path, "--"], "traced command")
    try:
        with open(summary_path) as handle:
            summary = json.load(handle)
    except (OSError, ValueError) as error:
        runner.record("traced command", [f"no span summary: {error}"], traced)
        summary = {"spans": {}, "counters": {}}
    values = layers.layer_values(summary, traced.wall_s, statistics.median(run_s))
    for name, unit, _, moves in layers.LAYER_METRICS:
        print(f"  {name} = {values[name]:.6g} {unit}  [should move: {moves}]", file=log)
    return {name: (values[name], unit) for name, unit, _, _ in layers.LAYER_METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "frechet_flow", "__init__.py")):
        print(f"error: no frechet_flow package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    signal.signal(signal.SIGALRM, _alarm)

    workdir = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        runner = Runner(root, prepare(WORKLOADS[args.workload], args.seed, workdir))
        metrics = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    for label, failures in runner.failures:
        print(f"FAILED {label}: " + "; ".join(failures[:5]), file=sys.stderr)
    failed = len(runner.failures)
    print(f"  fail_ratio: {failed}/{runner.attempted}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
