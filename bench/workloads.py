"""The benchmark's workloads and the inputs each one receives from a seed.

Every workload is one `python -m frechet_flow` command.  A solve workload
gets a config file ``run.cfg`` and a seeded random init field ``init.fl2l``
in its work directory; the config names the field by a relative path, so two
seeds differ only in the field's samples.  The verify workload passes the
seed to ``verify --seed``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

HEAT_SYMBOL = "-(1+4*pi^2*(xi1^2+xi2^2))"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                    # "solve" or "verify"
    expected_exit: int
    grid: tuple = ()                # (n, J, inv_h) for solve
    times: tuple = ()
    formats: str = "csv"

    def config_text(self) -> str:
        n, J, inv_h = self.grid
        return (
            f"[grid]\nn = {n}\nJ = {J}\ninv_h = {inv_h}\n"
            f"[symbol]\ntext = {HEAT_SYMBOL}\n"
            "[evolve]\ntimes = " + ", ".join(repr(t) for t in self.times) + "\n"
            "method = both\ntol = 1e-8\n"
            "[init]\nfield = file:init.fl2l\n"
            f"[output]\ndirectory = out\nformats = {self.formats}\n"
        )


# Why each workload was chosen is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="solve-fwd-2d",
            command="solve",
            expected_exit=0,
            grid=(2, 32, 16),
            times=(0.001, 0.01, 0.1, 1.0),
            formats="csv",
        ),
        Workload(
            name="solve-bwd-2d",
            command="solve",
            expected_exit=3,
            grid=(2, 8, 32),
            times=(-2.0, -1.0, -0.75, -0.5, -0.4, -0.3, -0.2, -0.15),
            formats="csv, fl2l",
        ),
        Workload(
            name="verify",
            command="verify",
            expected_exit=0,
        ),
    )
}


@dataclass(frozen=True)
class Prepared:
    """Inputs of one benchmark run, written into ``workdir``."""

    workload: Workload
    seed: int
    workdir: str
    init_values: object = None      # the init field's samples (solve only)

    def cli_args(self, out_dir: str) -> list:
        if self.workload.command == "solve":
            return ["solve", "--config", "run.cfg", "--out", out_dir]
        return ["verify", "--seed", str(self.seed)]

    def setup_args(self) -> list:
        """Arguments of `setup_probe.py` for this workload."""
        if self.workload.command == "solve":
            return ["solve", "run.cfg"]
        return ["import"]


def prepare(workload: Workload, seed: int, workdir: str) -> Prepared:
    """Write the workload's inputs for ``seed``; runs outside any timed region."""
    os.makedirs(workdir, exist_ok=True)
    if workload.command != "solve":
        return Prepared(workload, seed, workdir)
    from frechet_flow import fieldio, spectral

    grid = spectral.FrequencyGrid(*workload.grid)
    field = spectral.random_field(grid, np.random.default_rng(seed))
    fieldio.write_field(os.path.join(workdir, "init.fl2l"), field)
    with open(os.path.join(workdir, "run.cfg"), "w") as handle:
        handle.write(workload.config_text())
    return Prepared(workload, seed, workdir, init_values=np.array(field.values))
