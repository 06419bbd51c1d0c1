import math
import os

import numpy as np
import pytest

from frechet_flow import FrequencyGrid, random_field
from frechet_flow.app import build_initial_field, heat_scan, run_solve
from frechet_flow.cli import main
from frechet_flow.config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    config_from_text,
    format_config,
)
from frechet_flow.fieldio import FieldFormatError, field_to_csv, read_field, write_field

BASE_CONFIG = """\
[grid]
n = 1
J = 4
inv_h = 8
[symbol]
text = -(1+4*pi^2*xi^2)
[evolve]
times = 0.1, 1.0
method = multiplier
tol = 1e-8
[init]
field = ones
[output]
directory = out
"""


# ---------------------------------------------------------------------------
# configuration parsing


def test_config_parses_and_defaults():
    config = config_from_text(BASE_CONFIG)
    assert config.J == 4 and config.inv_h == 8
    assert config.times == (0.1, 1.0)
    assert config.method == "multiplier"
    assert config.init == "ones"


def test_config_errors_carry_line_numbers():
    with pytest.raises(ConfigError) as err:
        config_from_text("[grid]\nn = x\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ConfigError) as err:
        config_from_text(BASE_CONFIG.replace("method = multiplier", "method = euler"))
    assert "line 9" in str(err.value)
    with pytest.raises(ConfigError):
        config_from_text("n = 1\n")  # entry before any section
    with pytest.raises(ConfigError):
        config_from_text("[grid\nn = 1\n")
    with pytest.raises(ConfigError):
        config_from_text(BASE_CONFIG.replace("field = ones", "field = sawtooth"))
    with pytest.raises(ConfigError):
        config_from_text(BASE_CONFIG.replace("times = 0.1, 1.0", "times = 1e999"))
    with pytest.raises(ConfigError):
        config_from_text(BASE_CONFIG + "[mystery]\nkey = 1\n")


def test_config_requires_exactly_one_symbol_source():
    with pytest.raises(ConfigError):
        config_from_text(BASE_CONFIG.replace("text = -(1+4*pi^2*xi^2)", ""))
    both = BASE_CONFIG.replace(
        "text = -(1+4*pi^2*xi^2)", "text = xi\ndiffop = 1:0,1"
    )
    with pytest.raises(ConfigError):
        config_from_text(both)


def test_config_round_trip():
    config = config_from_text(BASE_CONFIG)
    assert config_from_text(format_config(config)) == config
    diffop = config_from_text(
        BASE_CONFIG.replace("text = -(1+4*pi^2*xi^2)", "diffop = 2:-1\nconvention = partial")
    )
    assert config_from_text(format_config(diffop)) == diffop


def test_overrides_rewrite_and_append():
    text = apply_overrides(BASE_CONFIG, ["evolve.method=both", "grid.J=6"])
    config = config_from_text(text)
    assert config.method == "both"
    assert config.J == 6
    text = apply_overrides(BASE_CONFIG, ["evolve.tol=1e-6"])
    assert config_from_text(text).tol == 1e-6
    with pytest.raises(ConfigError):
        apply_overrides(BASE_CONFIG, ["nonsense"])


# ---------------------------------------------------------------------------
# field serialisation


def test_binary_field_round_trip_is_bitwise(tmp_path, rng):
    for grid in (FrequencyGrid(1, 4, 8), FrequencyGrid(2, 2, 4)):
        u = random_field(grid, rng)
        path = tmp_path / f"field_{grid.n}.fl2l"
        write_field(path, u)
        back = read_field(path)
        assert back.grid == grid
        assert np.array_equal(back.values, u.values)


def test_binary_field_format_errors(tmp_path):
    path = tmp_path / "bad.fl2l"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FieldFormatError):
        read_field(path)
    path.write_bytes(b"FL2L")
    with pytest.raises(FieldFormatError):
        read_field(path)


def test_field_csv_export(tmp_path, rng):
    grid = FrequencyGrid(1, 2, 2)
    u = random_field(grid, rng)
    path = tmp_path / "field.csv"
    field_to_csv(path, u)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "xi_1,re,im"
    assert len(lines) == grid.node_count + 1


def test_init_field_from_file(tmp_path, rng):
    grid = FrequencyGrid(1, 4, 8)
    u = random_field(grid, rng)
    path = tmp_path / "init.fl2l"
    write_field(path, u)
    config = config_from_text(
        BASE_CONFIG.replace("field = ones", f"field = file:{path}")
    )
    loaded = build_initial_field(config, grid)
    assert np.array_equal(loaded.values, u.values)


def test_init_delta_field():
    grid = FrequencyGrid(1, 4, 8)
    config = config_from_text(BASE_CONFIG.replace("field = ones", "field = delta@0.5"))
    u = build_initial_field(config, grid)
    assert np.count_nonzero(u.values) == 1
    assert u.values[grid.nearest_node(0.5)] == 1.0


# ---------------------------------------------------------------------------
# solve runs


def test_solve_forward_heat_profiles_decay(tmp_path):
    config = config_from_text(BASE_CONFIG)
    result = run_solve(config, out_dir=str(tmp_path))
    p0 = result.initial_profile
    p_early = result.profiles["multiplier"][0]
    p_late = result.profiles["multiplier"][1]
    assert np.all(p_early < p0)
    assert np.all(p_late < p_early)
    assert not result.overflow
    path = os.path.join(str(tmp_path), "trajectory.csv")
    assert os.path.exists(path)
    with open(path) as handle:
        assert handle.readline().strip() == "t,j,seminorm"


def test_solve_time_zero_returns_input(tmp_path):
    config = config_from_text(BASE_CONFIG.replace("times = 0.1, 1.0", "times = 0.0"))
    result = run_solve(config, out_dir=str(tmp_path))
    assert np.array_equal(
        result.profiles["multiplier"][0], result.initial_profile
    )


def test_solve_both_methods_certify_residuals(tmp_path):
    config = config_from_text(
        apply_overrides(BASE_CONFIG, ["evolve.method=both", "init.field=gaussian-hat"])
    )
    result = run_solve(config, out_dir=str(tmp_path))
    assert result.residuals_certified
    assert os.path.exists(os.path.join(str(tmp_path), "residuals.csv"))


def test_solve_backward_heat_gains_without_saturation(tmp_path):
    # top rate on this grid is 1 + 4 pi^2 * 16 < 709, so t = -1 stays exact
    config = config_from_text(
        BASE_CONFIG.replace("times = 0.1, 1.0", "times = -1.0").replace(
            "field = ones", "field = gaussian-hat"
        )
    )
    result = run_solve(config, out_dir=str(tmp_path))
    gain = result.profiles["multiplier"][0][-1] / result.initial_profile[-1]
    assert gain >= math.exp(1.0)
    assert result.backward_gain_ok
    assert not result.overflow


def test_solve_backward_heat_saturates_at_larger_time(tmp_path):
    config = config_from_text(
        BASE_CONFIG.replace("times = 0.1, 1.0", "times = -2.0").replace(
            "field = ones", "field = gaussian-hat"
        )
    )
    result = run_solve(config, out_dir=str(tmp_path))
    gain = result.profiles["multiplier"][0][-1] / result.initial_profile[-1]
    assert gain >= math.exp(2.0)
    assert result.backward_gain_ok
    assert result.overflow


def test_solve_metadata_config_round_trips(tmp_path):
    config = config_from_text(BASE_CONFIG)
    run_solve(config, out_dir=str(tmp_path))
    text = (tmp_path / "run_metadata.txt").read_text()
    start = text.index("[grid]")
    end = text.index("# run summary")
    assert config_from_text(text[start:end]) == config


# ---------------------------------------------------------------------------
# heat scan


def test_heat_scan_forward_converges_in_radius():
    rows = [r for r in heat_scan([0.1], [0], [1, 2, 4, 8, 16, 32, 64])]
    values = [r.value for r in rows]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert abs(values[-1] - values[-2]) < 1e-8 * values[-1]
    assert not any(r.overflow for r in rows)


def test_heat_scan_backward_blows_up():
    rows = [r for r in heat_scan([-0.1], [1], [1, 2, 4, 8, 16, 32, 64])]
    assert rows[-1].value / rows[0].value > 1e6
    assert rows[-1].overflow


def test_heat_scan_monotone_in_weight():
    rows = heat_scan([0.1], [0, 1, 2], [4])
    values = {r.M: r.value for r in rows}
    assert values[0] < values[1] < values[2]


# ---------------------------------------------------------------------------
# command-line interface


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_cli_solve_ok(tmp_path, capsys):
    path = write_config(tmp_path, BASE_CONFIG)
    code = main(["solve", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 0
    assert "solve:" in capsys.readouterr().out


def test_cli_solve_bad_config_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, BASE_CONFIG.replace("n = 1", "n = seven"))
    assert main(["solve", "--config", path]) == 2
    assert "line" in capsys.readouterr().err


def test_cli_solve_overflow_exits_3(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG)
    code = main(
        ["solve", "--config", path, "--set", "evolve.times=-2.0",
         "--out", str(tmp_path / "out")]
    )
    assert code == 3


def test_cli_heat_demo(tmp_path, capsys):
    code = main(
        ["heat-demo", "--t", "0.1", "--M", "0", "--R", "1", "2", "4",
         "--out", str(tmp_path)]
    )
    assert code == 0
    assert (tmp_path / "heat_scan.csv").exists()
    assert (tmp_path / "metadata.txt").exists()
    # the shipped defaults include the backward scan, which saturates
    code = main(["heat-demo", "--out", str(tmp_path)])
    assert code == 3


def test_cli_check_eprime(tmp_path, capsys):
    code = main(
        ["check-eprime", "--diffop", "1:1", "--convention", "partial",
         "--out", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Invariant" in out
    assert (tmp_path / "eprime_probes.csv").exists()


def test_cli_check_l2(tmp_path, capsys):
    code = main(
        ["check-l2", "--symbol=-(1+4*pi^2*xi^2)", "--t", "1.0",
         "--out", str(tmp_path)]
    )
    assert code == 0
    assert "Invariant" in capsys.readouterr().out
    assert (tmp_path / "l2_probes.csv").exists()


def test_cli_check_l2_flags_one_sided_discrepancy(tmp_path, capsys):
    code = main(
        ["check-l2", "--diffop", "1:0,1", "--convention", "partial",
         "--out", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "NotInvariant" in out
    assert "odd-degree" in out


def test_cli_translate(tmp_path, capsys):
    code = main(
        ["translate", "--function", "gaussian", "--t", "0.5",
         "--samples=-2:2:0.5", "--out", str(tmp_path)]
    )
    assert code == 0
    lines = (tmp_path / "translate.csv").read_text().strip().splitlines()
    assert lines[0] == "s,series,direct,error"
    assert len(lines) == 10  # 9 samples plus header
    errors = [float(line.split(",")[3]) for line in lines[1:]]
    assert max(errors) <= 1e-7


@pytest.mark.parametrize(
    "extra, flag",
    [
        (["--t", "inf"], "--t"),
        (["--t", "nan"], "--t"),
        (["--t=-inf"], "--t"),
        (["--t", "0.5", "--tol", "inf"], "--tol"),
        (["--t", "0.5", "--tol", "nan"], "--tol"),
        (["--t", "0.5", "--tol=-inf"], "--tol"),
        (["--t", "0.5", "--samples=0:nan:0.5"], "--samples"),
        (["--t", "0.5", "--samples=-inf:1:0.5"], "--samples"),
        (["--t", "0.5", "--samples=0:inf:0.5"], "--samples"),
        (["--t", "0.5", "--samples=0:1:inf"], "--samples"),
    ],
)
def test_cli_translate_rejects_non_finite_input(tmp_path, capsys, extra, flag):
    assert main(["translate", *extra, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert flag in err[0] and "finite" in err[0]


def test_cli_seminorms(tmp_path, capsys):
    code = main(
        ["seminorms", "--n", "1", "--J", "4", "--inv-h", "8",
         "--init", "ones", "--out", str(tmp_path)]
    )
    assert code == 0
    lines = (tmp_path / "seminorms.csv").read_text().strip().splitlines()
    assert lines[0] == "j,seminorm"
    assert len(lines) == 5
    assert float(lines[1].split(",")[1]) == pytest.approx(math.sqrt(2.125))


def test_cli_bad_symbol_exits_2(tmp_path, capsys):
    assert main(["check-l2", "--symbol", "xi^(1/2)", "--out", str(tmp_path)]) == 2


def test_cli_verify_single_scope(tmp_path, capsys):
    assert main(["verify", "--scope", "spectral"]) == 0
    out = capsys.readouterr().out
    assert "spectral" in out and "PASS" in out


def test_cli_verify_injected_fault_fails(tmp_path, capsys):
    assert main(["verify", "--scope", "spectral", "--inject-fault"]) == 4
    assert "FAIL" in capsys.readouterr().out


def test_verify_weight_factor_reaches_only_its_own_run():
    from frechet_flow.spectral import ones, seminorm
    from frechet_flow.verify import run_verify

    grid = FrequencyGrid(1, 8, 32)
    clean = seminorm(ones(grid), 2)
    faulted = run_verify(["spectral", "symbols"], weight_factor=1.001)
    assert [r.passed for r in faulted.results] == [False, True]
    assert seminorm(ones(grid), 2) == clean
    assert run_verify(["spectral"]).passed


def test_run_config_symbol_spec_label():
    config = RunConfig(symbol_text="xi")
    assert config.symbol_spec() == "xi"
