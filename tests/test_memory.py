"""Memory held by a solve, counted in field sizes (16 bytes per node)."""

import tracemalloc

import numpy as np

from frechet_flow import FrequencyGrid, random_field
from frechet_flow.app import run_solve
from frechet_flow.config import config_from_text
from frechet_flow.fieldio import write_field
from frechet_flow.spectral import _shell_index


def test_solve_peaks_below_five_field_sizes(tmp_path):
    grid = FrequencyGrid(2, 8, 32)
    init = tmp_path / "init.fl2l"
    write_field(init, random_field(grid, np.random.default_rng(7)))
    config = config_from_text(
        "[grid]\nn = 2\nJ = 8\ninv_h = 32\n"
        "[symbol]\ntext = -(1+4*pi^2*(xi1^2+xi2^2))\n"
        "[evolve]\ntimes = 0.001, 0.01, 0.1, 1\nmethod = both\n"
        f"[init]\nfield = file:{init}\n"
        "[output]\nformats = csv\n"
    )
    _shell_index.cache_clear()  # the shell index is built inside the run, as in a fresh process
    tracemalloc.start()
    try:
        result = run_solve(config, out_dir=str(tmp_path / "out"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.residuals_certified
    assert peak <= 5.0 * 16 * grid.node_count
