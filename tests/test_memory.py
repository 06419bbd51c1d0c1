"""Memory held by a solve, counted in field sizes (16 bytes per node), and by
the translation audit, counted in bytes."""

import tracemalloc

import numpy as np
import pytest

from frechet_flow.app import run_solve
from frechet_flow.config import config_from_text
from frechet_flow.fieldio import write_field
from frechet_flow.operators import MultiplierOperator
from frechet_flow.spectral import FrequencyGrid, _shell_index, random_field
from frechet_flow.symbols import parse_symbol
from frechet_flow.translation import certify_membership, cinf_seminorm, gaussian

GRID = FrequencyGrid(2, 8, 32)
FIELD_SIZE = 16 * GRID.node_count


def traced_solve(tmp_path, times, formats):
    """``(result, traced peak in field sizes)`` of a heat solve on GRID from a fresh state."""
    tmp_path.mkdir(exist_ok=True)
    init = tmp_path / "init.fl2l"
    write_field(init, random_field(GRID, np.random.default_rng(7)))
    config = config_from_text(
        "[grid]\nn = 2\nJ = 8\ninv_h = 32\n"
        "[symbol]\ntext = -(1+4*pi^2*(xi1^2+xi2^2))\n"
        f"[evolve]\ntimes = {times}\nmethod = both\n"
        f"[init]\nfield = file:{init}\n"
        f"[output]\nformats = {formats}\n"
    )
    _shell_index.cache_clear()  # the shell index is built inside the run, as in a fresh process
    tracemalloc.start()
    try:
        result = run_solve(config, out_dir=str(tmp_path / "out"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / FIELD_SIZE


def test_solve_peaks_below_four_field_sizes(tmp_path):
    result, peak = traced_solve(tmp_path, "0.001, 0.01, 0.1, 1", "csv")
    assert result.residuals_certified
    assert peak <= 3.75


def test_solve_writing_fields_holds_one_time_at_a_time(tmp_path):
    """A saturating run that writes every time's field peaks as a one-time run does."""
    one_time, one_peak = traced_solve(tmp_path / "one", "-2", "csv, fl2l")
    times = "-2.0, -1.0, -0.75, -0.5, -0.4, -0.3, -0.2, -0.15"
    eight_times, eight_peak = traced_solve(tmp_path / "eight", times, "csv, fl2l")
    assert one_time.overflow and eight_times.overflow
    assert len([path for path in eight_times.files if path.endswith(".fl2l")]) == 8
    assert eight_peak <= one_peak + 0.25


def test_the_heat_level_table_peaks_below_one_and_a_fifth_field_sizes():
    """The table is built on the quarter grid with its shells from the integer axes and
    mirrored, and its index put in shell order through the grid's shell index, which
    is built once, between the evaluation and the mirror."""
    op = MultiplierOperator(parse_symbol("-(1+4*pi^2*(xi1^2+xi2^2))", 2), GRID)
    _shell_index.cache_clear()
    tracemalloc.start()
    try:
        op.levels()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * FIELD_SIZE
    assert _shell_index.cache_info().currsize == 1


@pytest.mark.parametrize("audit", [
    # 80,001 points times orders 0..40: a whole table would take 26 MB
    lambda: certify_membership(gaussian(), 0, 40, 40),
    lambda: cinf_seminorm(gaussian(), 1, 40),
], ids=["certify_membership", "cinf_seminorm"])
def test_the_translation_audit_holds_one_column_block(audit):
    tracemalloc.start()
    try:
        audit()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20
