import csv
import math
import os
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frechet_flow import app, evolution
from frechet_flow.app import build_initial_field, heat_scan, run_solve
from frechet_flow.cli import _parse_samples, main
from frechet_flow.config import ConfigError, RunConfig, config_from_text, format_config
from frechet_flow.fieldio import (
    _CSV_BLOCK,
    FieldFormatError,
    field_to_csv,
    read_field,
    write_csv,
    write_field,
)
from frechet_flow.spectral import FrequencyGrid, SpectralField, random_field, saturated_product

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
    config = config_from_text(BASE_CONFIG, ["evolve.method=both", "grid.J=6"])
    assert config.method == "both"
    assert config.J == 6
    assert config_from_text(BASE_CONFIG, ["evolve.tol=1e-6"]).tol == 1e-6
    # a key the file leaves out, in a section it leaves out
    config = config_from_text(BASE_CONFIG, ["output.formats=fl2l", "output.directory=o#1"])
    assert config.formats == ("fl2l",) and config.output_directory == "o#1"
    config = config_from_text(BASE_CONFIG.replace("[output]\ndirectory = out\n", ""),
                              ["output.formats=fl2l"])
    assert config.formats == ("fl2l",) and config.output_directory == "out"
    with pytest.raises(ConfigError, match="override must look like section.key=value"):
        config_from_text(BASE_CONFIG, ["nonsense"])


@pytest.mark.parametrize("override, message", [
    ("grid.n=x", "grid.n must be an integer, got 'x'"),
    ("evolv.method=series", "unknown section [evolv]"),
    ("evolve.tol=0", "evolve.tol must be positive, got 0.0"),
    ("init.field=delta@nan", "init delta location must be finite, got 'nan'"),
])
def test_an_override_error_names_the_override(override, message):
    with pytest.raises(ConfigError) as err:
        config_from_text(BASE_CONFIG, [override])
    assert str(err.value) == f"--set {override}: {message}"


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
    for grid in (FrequencyGrid(1, 2, 2), FrequencyGrid(2, 2, 2)):
        values = random_field(grid, rng).values.ravel().copy()
        values[:4] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(np.inf, -0.0),
                      complex(-np.inf, np.inf)]
        u = SpectralField(grid, values.reshape(grid.shape), overflow=True)
        path = tmp_path / f"field_{grid.n}.csv"
        field_to_csv(path, u)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join([f"xi_{k + 1}" for k in range(grid.n)] + ["re", "im"])
        assert len(lines) == grid.node_count + 1
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        # bit for bit: every coordinate, and both parts of every sample
        assert table.view(np.uint64).tolist() == np.column_stack(
            [grid.node_points(), values.real, values.imag]).view(np.uint64).tolist()


def reference_write_csv(path, header, rows):
    """The per-cell writer: a float cell ``%.17g``, any other as the csv module writes it."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(
            ["%.17g" % cell if isinstance(cell, (float, np.floating)) else cell
             for cell in row]
            for row in rows
        )


def test_write_csv_matches_a_formatted_csv_writer(tmp_path):
    floats = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 2.5e-310, 0.1,
              np.float64(-1e300), np.float64(1 / 3)]
    ints = [np.int64(-7), 0, 2**70]
    # the floats and the integers down a column, a text and a float cell across a row
    for name, header, columns in (("floats", ["a"], [floats]), ("ints", ["a"], [ints]),
                                  ("mixed", ["a", "b"], [["text"], [1.5]])):
        write_csv(tmp_path / f"{name}.csv", header, columns)
        reference_write_csv(tmp_path / f"old_{name}.csv", header, zip(*columns))
        assert (tmp_path / f"{name}.csv").read_bytes() == (
            tmp_path / f"old_{name}.csv").read_bytes()
    assert (tmp_path / "floats.csv").read_bytes().startswith(
        b"a\r\n-0\r\nnan\r\ninf\r\n-inf\r\n4.9406564584124654e-324\r\n")
    assert (tmp_path / "ints.csv").read_bytes() == b"a\r\n-7\r\n0\r\n1180591620717411303424\r\n"
    assert (tmp_path / "mixed.csv").read_bytes() == b"a,b\r\ntext,1.5\r\n"


# float64 bit patterns with every exponent: +-0 and subnormals at 0, inf and NaN at 2047
FLOAT_BITS = st.builds(lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
                       st.integers(0, 1), st.integers(0, 2047), st.integers(0, 2**52 - 1))
WRITER_COLUMNS = st.one_of(
    st.lists(FLOAT_BITS, min_size=1, max_size=16).map(
        lambda bits: np.array(bits, dtype=np.uint64).view(np.float64)),
    st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=16).map(
        lambda ints: np.array(ints, dtype=np.int64)),
    # integers past int64, beside small ones
    st.lists(st.one_of(st.integers(max_value=-2**63 - 1), st.integers(min_value=2**63),
                       st.integers(-9, 9)), min_size=1, max_size=16).map(
        lambda ints: np.array(ints, dtype=object)),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(WRITER_COLUMNS, min_size=1, max_size=4),
       st.sampled_from([0, 1, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1]), st.booleans())
# numpy reads the list [-1, 2**63] as floats
@example([np.array([-1, 2**63], dtype=object)], 2, True)
def test_write_csv_matches_the_per_cell_writer(tmp_path_factory, pools, count, as_lists):
    """Columns cycled from drawn cells to one row count, at the block edges, given
    as arrays or as lists of Python values."""
    directory = tmp_path_factory.mktemp("csv")
    columns = [np.resize(pool, count) for pool in pools]
    if as_lists:
        columns = [column.tolist() for column in columns]
    header = [f"c{k}" for k in range(len(columns))]
    write_csv(directory / "new.csv", header, columns)
    reference_write_csv(directory / "old.csv", header, zip(*columns))
    assert (directory / "new.csv").read_bytes() == (directory / "old.csv").read_bytes()


def test_write_csv_refuses_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError, match="unequal"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(3), [1, 2]])
    assert not (tmp_path / "t.csv").exists()


def test_a_solve_without_times_writes_a_header_only_residual_table(tmp_path):
    config = RunConfig(symbol_text="-(1+4*pi^2*xi^2)", J=4, inv_h=8, times=(), method="both")
    result = run_solve(config, out_dir=str(tmp_path))
    assert result.times == ()
    assert (tmp_path / "residuals.csv").read_bytes() == b"t,j,residual,certified_bound\r\n"


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
    config = config_from_text(BASE_CONFIG, ["evolve.method=both", "init.field=gaussian-hat"])
    result = run_solve(config, out_dir=str(tmp_path))
    assert result.residuals_certified
    assert os.path.exists(os.path.join(str(tmp_path), "residuals.csv"))


def test_solve_releases_each_time_before_the_next(tmp_path, monkeypatch):
    """While a time is evolved, no field of an earlier time is alive."""
    alive = []  # (t, weak reference to the samples of a pass's kept field)
    times = iter([0.1, 0.2, 0.3])

    def tracked(factors, u, **kwargs):
        t = next(times)
        assert all(ref() is None for when, ref in alive), (
            f"a field of an earlier time is alive while t = {t} is evolved"
        )
        product, flagged = saturated_product(factors, u, **kwargs)
        alive.append((t, weakref.ref(product.field.values)))
        return product, flagged

    monkeypatch.setattr(evolution, "saturated_product", tracked)
    config = config_from_text(BASE_CONFIG, ["evolve.method=both", "evolve.times=0.1, 0.2, 0.3",
                                            "output.formats=csv, fl2l"])
    result = run_solve(config, out_dir=str(tmp_path))
    assert len(alive) == 3 and result.residuals_certified
    assert sorted(os.listdir(tmp_path)) == [
        "field_t000.fl2l", "field_t001.fl2l", "field_t002.fl2l", "residuals.csv",
        "run_metadata.txt", "trajectory_multiplier.csv", "trajectory_series.csv",
    ]


@pytest.mark.parametrize("method", ["multiplier", "series", "both"])
@pytest.mark.parametrize("init", ["ones", "file"])
def test_solve_releases_the_grid_ordered_initial_field(tmp_path, monkeypatch, rng, method,
                                                        init):
    """The passes read the initial field in shell order; its grid-ordered samples are dead."""
    if init == "file":
        write_field(tmp_path / "init.fl2l", random_field(FrequencyGrid(1, 4, 8), rng))
        init = f"file:{tmp_path / 'init.fl2l'}"
    initial = []  # weak reference to the initial field's samples
    passes = []

    def built(config, grid):
        field = build_initial_field(config, grid)
        initial.append(weakref.ref(field.values))
        return field

    def tracked(*args, **kwargs):
        assert initial[0]() is None, "the grid-ordered initial samples are alive in a pass"
        passes.append(1)
        return saturated_product(*args, **kwargs)

    monkeypatch.setattr(app, "build_initial_field", built)
    monkeypatch.setattr(evolution, "saturated_product", tracked)
    config = config_from_text(BASE_CONFIG, [
        f"evolve.method={method}", "evolve.times=0, 0.1, -1", f"init.field={init}",
        "output.formats=csv, fl2l"])
    result = run_solve(config, out_dir=str(tmp_path / "out"))
    assert len(passes) == 3 and len(result.files) >= 5


def fail_at(monkeypatch, step):
    """Make a solve raise in its second time's pass, or when it writes its metadata."""
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        if step == "write_metadata" or len(calls) == 2:
            raise RuntimeError(f"{step} fails")
        return saturated_product(*args, **kwargs)

    # the passes are `evolve`'s, so a pass fails through the name it calls
    monkeypatch.setattr(evolution if step == "saturated_product" else app, step, failing)


def paths_under(root):
    return sorted(os.path.relpath(os.path.join(directory, name), root)
                  for directory, dirs, files in os.walk(root) for name in dirs + files)


FIELD_OUTPUTS = ["evolve.times=0.1, 0.2, 0.3", "output.formats=csv, fl2l, field-csv"]


# a failure at the metadata leaves the trajectory written before it, as it always has
@pytest.mark.parametrize("step, left", [
    ("saturated_product", []),
    ("write_metadata", ["made", "made/out", "made/out/trajectory.csv"]),
])
def test_failed_solve_removes_its_fields_and_the_directories_it_made(
        tmp_path, monkeypatch, step, left):
    fail_at(monkeypatch, step)
    config = config_from_text(BASE_CONFIG, FIELD_OUTPUTS)
    with pytest.raises(RuntimeError, match=f"{step} fails"):
        run_solve(config, out_dir=str(tmp_path / "made" / "out"))
    assert paths_under(tmp_path) == left


@pytest.mark.parametrize("step, left", [("saturated_product", []),
                                        ("write_metadata", ["trajectory.csv"])])
def test_failed_solve_leaves_an_existing_directory_as_it_found_it(
        tmp_path, monkeypatch, step, left):
    (tmp_path / "field_t000.fl2l").write_bytes(b"an earlier run")
    (tmp_path / "notes.txt").write_text("kept")
    fail_at(monkeypatch, step)
    config = config_from_text(BASE_CONFIG, FIELD_OUTPUTS)
    with pytest.raises(RuntimeError, match=f"{step} fails"):
        run_solve(config, out_dir=str(tmp_path))
    assert paths_under(tmp_path) == sorted(["field_t000.fl2l", "notes.txt"] + left)
    assert (tmp_path / "field_t000.fl2l").read_bytes() == b"an earlier run"


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


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_heat_scan_rejects_non_finite_times(t):
    with pytest.raises(ValueError, match="finite"):
        heat_scan([0.1, t], [0], [1, 2])


@pytest.mark.parametrize("M", [0.5, 1.0, math.inf, math.nan, "1"])
def test_heat_scan_refuses_a_weight_that_is_not_an_integer(M):
    with pytest.raises(ValueError, match="weight exponents M must be integers"):
        heat_scan([0.1], [0, M], [1])


def test_heat_scan_takes_numpy_integer_weights():
    assert heat_scan([0.1], [np.int64(1)], [1]) == heat_scan([0.1], [1], [1])


@pytest.mark.parametrize("M", [10**400, 10**308, -(10**308)])
def test_heat_scan_rejects_weights_whose_double_is_not_finite(M):
    with pytest.raises(ValueError, match="2M is not a finite float"):
        heat_scan([0.1], [0, M], [1, 2])


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


@pytest.mark.parametrize("command", [
    ["check-l2", "--symbol=" + "(" * 199 + "xi" + ")" * 199],
    ["check-eprime", "--symbol=" + "-" * 3000 + "xi"],
    ["solve", "--set", "symbol.text=" + "(" * 400 + "xi" + ")" * 400],
], ids=["check-l2", "check-eprime", "solve"])
def test_cli_deep_symbol_text_exits_2_in_one_line(tmp_path, capsys, command):
    if command[0] == "solve":
        command[1:1] = ["--config", write_config(tmp_path, BASE_CONFIG)]
    assert main([*command, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: nesting deeper than 100 levels of parentheses, unary minus and exponents "
        "(at offset 100)\n")


@pytest.mark.parametrize("command", [
    ["check-eprime", "--diffop", "0:1;0:2"],
    ["check-l2", "--diffop", "2:-1;2:-3;0:5"],
    ["check-l2", "--diffop", "2:1,0,7"],
    ["solve", "--set", "symbol.diffop=2:-1;2:-3"],
    ["solve", "--set", "symbol.diffop=2:1,0,7"],
])
def test_cli_diffop_that_would_drop_input_exits_2_in_one_line(tmp_path, capsys, command):
    if command[0] == "solve":
        text = BASE_CONFIG.replace("text = -(1+4*pi^2*xi^2)", "diffop = 2:-1\nconvention = partial")
        command[1:1] = ["--config", write_config(tmp_path, text)]
    assert main([*command, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "coefficient entry '" in err
    assert not (tmp_path / "out").exists()


def test_cli_solve_overflow_exits_3(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG)
    code = main(
        ["solve", "--config", path, "--set", "evolve.times=-2.0",
         "--out", str(tmp_path / "out")]
    )
    assert code == 3


@pytest.mark.parametrize("edits, overrides, message", [
    # [grid] loses its J, which the override adds back
    ([("J = 4\n", ""), ("field = ones", "field = bogus")], ["grid.J=4"],
     "line 11: unknown init field 'bogus'"),
    ([("method = multiplier", "methd = series")], [], "line 9: unknown key 'methd' in [evolve]"),
    ([], ["evolve.methd=series"], "--set evolve.methd=series: unknown key 'methd' in [evolve]"),
    ([("directory = out\n", "directory = out\n[mystery]\n")], [],
     "line 15: unknown section [mystery]"),
])
def test_cli_solve_reports_where_a_config_error_is(tmp_path, capsys, edits, overrides,
                                                    message):
    text = BASE_CONFIG
    for old, new in edits:
        text = text.replace(old, new)
    path = write_config(tmp_path, text)
    args = [arg for override in overrides for arg in ("--set", override)]
    assert main(["solve", "--config", path, *args, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


# -xi^2 has real part 0 at xi = 0, so the gain check does not bind; the heat symbol's
# does, and its saturated top seminorm overflows to inf, which meets e^|t| = inf
@pytest.mark.parametrize("symbol", ["-xi^2", "-(1+4*pi^2*xi^2)"])
@pytest.mark.parametrize("t", ["-1e300", "-800", "-709.7"])
def test_cli_solve_backward_past_the_range_of_exp(tmp_path, capsys, symbol, t):
    path = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    code = main(["solve", "--config", path, "--set", f"symbol.text={symbol}",
                 "--set", f"evolve.times={t}", "--set", "evolve.method=both",
                 "--out", str(out)])
    assert code == 3 and capsys.readouterr().err == ""
    metadata = (out / "run_metadata.txt").read_text().splitlines()
    assert f"times = {float(t):.17g}" in metadata
    assert "overflow_flagged = 1" in metadata and "backward_gain_ok = 1" in metadata


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
    assert (tmp_path / "eprime_witness.csv").exists()
    assert not (tmp_path / "eprime_probes.csv").exists()


@pytest.mark.parametrize("text, lines", [
    ("-xi^4", ["compact-support verdict: NotInvariant for every t != 0 (exact rule)",
               "growth witness: order 4, ray arg z=-0.785398 for t > 0, arg z=0 for t < 0",
               "paper rule: Invariant (rule m4k-negative, m=4, a_m=-1+0j)",
               "note: the paper rule differs from the exact rule; Re(t a) grows like "
               "|t a_m| r^m along the witness rays, so e^{t a(z)} is not of exponential type"]),
    ("-xi^8", ["compact-support verdict: NotInvariant for every t != 0 (exact rule)",
               "growth witness: order 8, ray arg z=-0.392699 for t > 0, arg z=0 for t < 0",
               "paper rule: Invariant (rule m4k-negative, m=8, a_m=-1+0j)",
               "note: the paper rule differs from the exact rule; Re(t a) grows like "
               "|t a_m| r^m along the witness rays, so e^{t a(z)} is not of exponential type"]),
    ("3", ["compact-support verdict: Invariant for every t != 0 (exact rule)",
           "growth witness: none",
           "paper rule: NotInvariant (rule otherwise, m=0, a_m=3+0j)",
           "note: the paper rule differs from the exact rule; a constant symbol multiplies "
           "by the scalar e^{t a_0}, which keeps every support"]),
    ("-2", ["compact-support verdict: Invariant for every t != 0 (exact rule)",
            "growth witness: none",
            "paper rule: Invariant (rule m4k-negative, m=0, a_m=-2+0j)"]),
    ("0", ["compact-support verdict: Invariant for every t != 0 (exact rule)",
           "growth witness: none",
           "paper rule: NotInvariant (rule otherwise, m=0, a_m=0+0j)",
           "note: the paper rule differs from the exact rule; a constant symbol multiplies "
           "by the scalar e^{t a_0}, which keeps every support"]),
    ("2*pi*i*xi", ["compact-support verdict: Invariant for every t != 0 (exact rule)",
                   "growth witness: none",
                   "paper rule: Invariant (rule m1-imaginary, m=1, a_m=0+6.28319j)"]),
    ("-2*pi*xi", ["compact-support verdict: NotInvariant for every t != 0 (exact rule)",
                  "growth witness: order 1, ray arg z=3.14159 for t > 0, arg z=0 for t < 0",
                  "paper rule: NotInvariant (rule otherwise, m=1, a_m=-6.28319+0j)"]),
])
def test_cli_check_eprime_prints_the_exact_and_the_paper_rule(tmp_path, capsys, text, lines):
    assert main(["check-eprime", f"--symbol={text}", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == lines
    assert (tmp_path / "metadata.txt").read_text().splitlines() == [
        "command = check-eprime", *lines]
    rows = (tmp_path / "eprime_witness.csv").read_text().splitlines()
    # an Invariant verdict comes with no witness ray, a NotInvariant one with two
    assert rows[0] == "t_sign,theta,order"
    assert len(rows) == (1 if lines[1] == "growth witness: none" else 3)


def test_cli_check_l2(tmp_path, capsys):
    code = main(
        ["check-l2", "--symbol=-(1+4*pi^2*xi^2)", "--t", "1.0",
         "--out", str(tmp_path)]
    )
    assert code == 0
    assert "Invariant" in capsys.readouterr().out
    assert (tmp_path / "l2_probes.csv").exists()


def test_cli_check_l2_finds_the_sup_of_large_coefficients(tmp_path, capsys):
    # the derivative of -1e308 xi^2 overflows; the sup 2.5e307 sits at xi = 1/2
    assert main(["check-l2", "--symbol=-1e308*xi^2+1e308*xi", "--out", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == ("square-integrable verdict at t=1: Invariant "
                   "(method exact-1d, sup estimate 2.5e+307)\n")


def test_cli_check_l2_flags_one_sided_discrepancy(tmp_path, capsys):
    code = main(
        ["check-l2", "--diffop", "1:0,1", "--convention", "partial",
         "--out", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "NotInvariant" in out
    assert "odd-degree" in out


@pytest.mark.parametrize("command", [["check-l2", "--symbol=-(1+4*pi^2*xi^2)"], ["heat-demo"]])
@pytest.mark.parametrize("t", ["inf", "nan", "-inf"])
def test_cli_non_finite_time_exits_2(tmp_path, capsys, command, t):
    assert main([*command, f"--t={t}", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "--t" in err[0] and "finite" in err[0]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, spaced, joined", [
    (["translate"], ["--t", "-1e-3"], ["--t=-0.001"]),
    (["translate"], ["--t", "-2.5E-1"], ["--t=-0.25"]),
    (["heat-demo", "--R", "1", "2"], ["--t", "0.1", "-1e-2"], ["--t", "0.1", "-0.01"]),
    (["heat-demo", "--R", "1", "2"], ["--t", "-.5e-1", "-2."], ["--t", "-0.05", "-2"]),
])
def test_cli_reads_a_negative_time_in_exponent_notation_as_a_number(tmp_path, capsys, command,
                                                                     spaced, joined):
    # argparse's own pattern has no exponent: it read -1e-3 as an option and exited 2
    outputs = []
    for times in (spaced, joined):
        out = tmp_path / str(len(outputs))
        code = main([*command, *times, "--out", str(out)])
        outputs.append((code, capsys.readouterr(),
                        {path.name: path.read_bytes() for path in out.iterdir()}))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] in (0, 3) and outputs[0][1].err == ""


def test_cli_check_l2_reaches_its_refusal_of_a_negative_time_in_exponent_notation(tmp_path,
                                                                                  capsys):
    assert main(["check-l2", "--symbol=-xi^2", "--t", "-1e-3", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: the invariance criterion is stated for t >= 0\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["translate", "--t", "-1e"], "argument --t: expected one argument"),
    (["translate", "--t", "-e3"], "argument --t: expected one argument"),
    (["heat-demo", "--t", "0.1", "-1e-2x"], "unrecognized arguments: -1e-2x"),
])
def test_cli_an_argument_that_is_no_number_stays_an_option(tmp_path, capsys, argv, message):
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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


@pytest.mark.parametrize(
    "extra, message",
    [
        # the samples are refused before np.arange is asked for them
        (["--samples", "0:5:1e-6"],
         "--samples '0:5:1e-6' asks for 5e+06 samples, above the budget 4194304"),
        (["--samples", "0:1:1e-320"], "--samples '0:1:1e-320' asks for inf samples"),
        (["--function", "poly:"], "--function poly: coefficients must be finite numbers"),
        (["--function", "poly:a"], "--function poly: coefficients must be finite numbers"),
        (["--function", "poly:nan"], "--function poly: coefficients must be finite numbers"),
        (["--function", "poly:1,1e400"], "--function poly: coefficients must be finite numbers"),
    ],
)
def test_cli_translate_rejects_bad_input_before_the_audit(tmp_path, capsys, monkeypatch,
                                                          extra, message):
    from frechet_flow import translation

    def unreachable(*args, **kwargs):
        raise AssertionError("the input reached the audit")

    monkeypatch.setattr(translation, "certify_membership", unreachable)
    assert main(["translate", "--t", "0.5", *extra, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and message in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spec, count", [
    ("-2:2:0.1", 41), ("-1:1:2e-4", 10001), ("0:1:0.3", 4), ("0:0.9:0.3", 4),
    ("1e16:1e16:1", 1), ("-3:5:1", 9)])
def test_samples_are_formed_one_at_a_time_and_never_pass_stop(spec, count):
    # np.arange adds its step up: -2:2:0.1 ended at 2.0000000000000036
    start, stop, step = map(float, spec.split(":"))
    samples = _parse_samples(spec)
    assert samples.size == count and samples.max() <= stop
    assert samples[:-1].tolist() == [start + k * step for k in range(count - 1)]
    # a step count within a few ulps of a whole number ends at stop itself
    last = start + (count - 1) * step
    assert samples[-1] == (stop if abs(last - stop) <= 4 * math.ulp(stop) else last)


def test_cli_translate_refuses_an_oversized_sup_grid(tmp_path, capsys):
    assert main(["translate", "--t", "1e4", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: the audit of [-10003, 10003] at step 0.001 up to order 40 needs a "
                   "table of 8.20246e+08 entries, above the budget 4194304"]
    assert not (tmp_path / "out").exists()


def test_cli_translate_exits_4_when_a_sample_misses_the_tolerance(tmp_path, capsys):
    # past about 50 terms the sums miss their tolerance (the audit stops at order 40)
    assert main(["translate", "--t", "4", "--samples=-2:2:0.5", "--out", str(tmp_path)]) == 4
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "translate: 1 of 9 samples miss tol = 1e-08, worst |series - direct| = 5.053e-01"]
    assert "worst |series - direct| = 5.053e-01" in (tmp_path / "metadata.txt").read_text()
    assert len((tmp_path / "translate.csv").read_text().splitlines()) == 10


def test_cli_translate_counts_a_nan_error_as_a_miss(tmp_path, capsys, monkeypatch):
    from frechet_flow import translation

    summed = translation.translate_detailed

    def with_nan(*args):
        result = summed(*args)
        result.values[0] = np.nan
        return result

    monkeypatch.setattr(translation, "translate_detailed", with_nan)
    assert main(["translate", "--t", "0.5", "--samples=-2:2:0.5", "--out", str(tmp_path)]) == 4
    # the worst error in the metadata skips the NaN, as the summary line does
    assert capsys.readouterr().err.splitlines() == [
        "translate: 1 of 9 samples miss tol = 1e-08, worst |series - direct| = 2.570e-13"]
    assert "worst |series - direct| = 2.570e-13" in (tmp_path / "metadata.txt").read_text()


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
    faulted = run_verify(["spectral", "symbols"], seed=20240801, weight_factor=1.001)
    assert [r.passed for r in faulted.results] == [False, True]
    assert seminorm(ones(grid), 2) == clean
    assert run_verify(["spectral"], seed=20240801).passed


def test_run_config_symbol_spec_label():
    config = RunConfig(symbol_text="xi")
    assert config.symbol_spec() == "xi"


# ---------------------------------------------------------------------------
# whole processes: an error exits 2 with one line on stderr and nothing else
# (the RuntimeWarning filter of the test session does not reach a child)


@pytest.mark.parametrize("method", ["multiplier", "series", "both"])
@pytest.mark.parametrize("times", ["0.1", "0"])
def test_cli_solve_refuses_a_symbol_not_finite_on_the_grid(tmp_path, capsys, method, times):
    # -xi^400 overflows past |xi| = 5.9 on [-8, 8], and Horner's rule then forms
    # inf * 0 = nan; the suite's error::RuntimeWarning filter fails on any warning
    path = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    code = main(["solve", "--config", path, "--set", "symbol.text=-xi^400",
                 "--set", "grid.J=8", "--set", "grid.inv_h=4", "--set", f"evolve.times={times}",
                 "--set", f"evolve.method={method}", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: the symbol is not finite on the grid's extent [-8, 8]^1: "
        "1 of its 25 distinct values overflow\n")
    assert not out.exists()


@pytest.mark.parametrize("method, code", [("multiplier", 0), ("series", 2), ("both", 2)])
def test_cli_solve_reports_an_unreachable_series_tolerance_in_one_line(tmp_path, capsys,
                                                                      method, code):
    # p_J(u) overflows to inf, so the log-threshold of the truncation is -inf
    grid = FrequencyGrid(1, 8, 4)
    init = tmp_path / "init.fl2l"
    write_field(init, SpectralField(grid, np.full(grid.shape, 1e308, dtype=complex)))
    path = write_config(tmp_path, BASE_CONFIG)
    assert main(["solve", "--config", path, "--set", "grid.J=8", "--set", "grid.inv_h=4",
                 "--set", "evolve.times=0.5", "--set", f"evolve.method={method}",
                 "--set", f"init.field=file:{init}", "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err == ("" if code == 0 else
        "error: p_J(u) = inf is not finite, so no series truncation reaches tol = 1e-08 "
        "at t = 0.5\n")


@pytest.mark.parametrize("symbol, J, inv_h, t, method, code", [
    ("-(1+4*pi^2*xi^2)", 8, 32, 1e306, "multiplier", 0),
    ("-(1+4*pi^2*xi^2)", 8, 32, 1e306, "series", 2),
    ("-(1+4*pi^2*xi^2)", 8, 32, 1e306, "both", 2),
    ("1.5e308*(1+i)", 2, 2, 0.1, "multiplier", 3),
    ("1.5e308*(1+i)", 2, 2, 0.1, "series", 2),
    ("1.5e308*(1+i)", 2, 2, 0.1, "both", 2),
])
def test_cli_solve_reports_a_worst_rate_that_overflows_in_one_line(tmp_path, capsys, symbol,
                                                                   J, inv_h, t, method, code):
    # every symbol value is finite, but |t| max|a| overflows to inf
    path = write_config(tmp_path, BASE_CONFIG)
    assert main(["solve", "--config", path, "--set", f"symbol.text={symbol}",
                 "--set", f"grid.J={J}", "--set", f"grid.inv_h={inv_h}",
                 "--set", f"evolve.times={t!r}", "--set", f"evolve.method={method}",
                 "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err == ("" if code != 2 else
        f"error: the worst rate |t| max|a| = inf is not finite at t = {t:g}, "
        "so no series stage count exists\n")


def python_process(args, cwd):
    """``python *args`` in a fresh interpreter that imports this checkout's package."""
    import subprocess
    import sys

    import frechet_flow

    src = os.path.dirname(os.path.dirname(os.path.abspath(frechet_flow.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def run_process(args, cwd):
    return python_process(["-m", "frechet_flow", *args], cwd)


def solve_with_init(tmp_path, body_edit):
    grid = FrequencyGrid(1, 4, 8)
    path = tmp_path / "init.fl2l"
    write_field(path, random_field(grid, np.random.default_rng(3)))
    path.write_bytes(body_edit(path.read_bytes()))
    config = BASE_CONFIG.replace("field = ones", f"field = file:{path}")
    (tmp_path / "run.cfg").write_text(config)
    return ["solve", "--config", "run.cfg", "--out", str(tmp_path / "out")]


def with_inf_sample(data):
    raw = bytearray(data)
    raw[-8:] = np.array([np.inf], dtype="<f8").tobytes()  # last imaginary part
    return bytes(raw)


@pytest.mark.parametrize(
    "case, message",
    [
        ("translate", "translation did not converge within 500 terms"),
        ("truncated", "expected a body of 1040 bytes (65 samples), found 1037 bytes"),
        ("non-finite", "non-finite samples"),
    ],
)
def test_cli_process_fails_cleanly(tmp_path, case, message):
    if case == "translate":
        args = ["translate", "--t", "40", "--out", str(tmp_path / "out")]
    elif case == "truncated":
        args = solve_with_init(tmp_path, lambda data: data[:-3])
    else:
        args = solve_with_init(tmp_path, with_inf_sample)
    done = run_process(args, tmp_path)
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]


@pytest.mark.parametrize(
    "args, message",
    [
        (["heat-demo", "--R", "inf"], "truncation radii must be finite and positive"),
        (["heat-demo", "--R", "nan"], "truncation radii must be finite and positive"),
        (["heat-demo", "--R", "0"], "truncation radii must be finite and positive"),
        (["heat-demo", "--R=-1"], "truncation radii must be finite and positive"),
        (["heat-demo", "--R", "1e6"], "quadrature nodes, above 4194304"),
        (["check-eprime"], "one of --symbol or --diffop is required"),
        (["check-eprime", "--symbol", "xi1^2"], "unknown identifier 'xi1'"),
        (["check-eprime", "--symbol", "1e308*10*xi"],
         "the coefficient of multi-index (1,) is not finite"),
        (["check-eprime", "--diffop", "2:inf"],
         "the coefficient of multi-index (2,) is not finite"),
        # a coefficient that is not finite is refused where the polynomial is built
        (["check-l2", "--symbol", "1e308*10*xi"],
         "the coefficient of multi-index (1,) is not finite"),
        (["check-l2", "--symbol", "(1e200*xi)^2"],
         "the coefficient of multi-index (2,) is not finite"),
        (["check-l2", "--diffop", "2:nan"], "the coefficient of multi-index (2,) is not finite"),
        (["heat-demo", "--M", "1" + "0" * 400], "2M is not a finite float"),
        # a dense coefficient array of 10^9 + 1 entries is refused before it is built
        (["check-l2", "--symbol", "xi^1000000000"], "above the budget of 20000"),
        (["check-eprime", "--diffop", "1000000000:1"], "above the budget of 20000"),
        (["check-eprime", "--diffop", "1000000000:1", "--convention", "partial"],
         "above the budget of 20000"),
        # constant powers are formed in about log2(exponent) products
        (["check-l2", "--symbol", "2^100000000"], "a constant power overflows"),
        (["check-l2", "--symbol=(1/2)^-2000*xi"], "a constant power overflows"),
        (["check-l2", "--symbol=-xi^2", "--diffop", "2:1"],
         "give one of --symbol or --diffop, not both"),
        (["check-eprime", "--symbol=-xi^2", "--diffop", "2:1"],
         "give one of --symbol or --diffop, not both"),
        (["seminorms", "--init", "delta@nan"], "init delta location must be finite, got 'nan'"),
        (["seminorms", "--init", "delta@1e400"],
         "init delta location must be finite, got '1e400'"),
        (["solve", "--config", "."], "Is a directory: '.'"),
        # sizes are compared in floats before any int conversion, and printed with %.6g
        (["heat-demo", "--R", "1e308"], "radius 1e+308 needs inf quadrature nodes, above"),
        (["heat-demo", "--R", "1e300"], "radius 1e+300 needs 1.28e+302 quadrature nodes, above"),
        (["translate", "--t", "1e308"], "up to order 40 needs a table of inf entries, above"),
        (["translate", "--t=-1e308"], "up to order 40 needs a table of inf entries, above"),
        (["translate", "--t", "1e300"], "up to order 40 needs a table of 8.2e+304 entries"),
        (["translate", "--t", "0.5", "--samples=-1e306:-1e306:1e300"],
         "the audit of [-1e+306, 1e+306] at step 0.001 up to order 40 needs a table of inf"),
    ],
)
def test_cli_process_rejects_bad_flags_in_one_line(tmp_path, args, message):
    done = run_process([*args, "--out", "out"], tmp_path)
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["heat-demo", "--t", "abc"], "error: argument --t: invalid float value: 'abc'"),
        (["solve"], "error: the following arguments are required: --config"),
        # the scope is checked once, by run_verify, before any suite runs
        (["verify", "--scope", "bogus"], "error: unknown verify scope 'bogus'; choose from ["),
        (["bogus"], "error: argument command: invalid choice: 'bogus' (choose from 'solve', "),
    ],
)
def test_cli_process_reports_an_argument_error_in_one_line(tmp_path, args, message):
    done = run_process(args, tmp_path)
    assert done.returncode == 2 and done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message)


def test_cli_process_still_prints_help(tmp_path):
    done = run_process(["heat-demo", "-h"], tmp_path)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.startswith("usage: frechet-flow heat-demo ")


LOADED_MODULES = """
import sys
import frechet_flow
print(*sorted(name for name in vars(frechet_flow) if not name.startswith("_")))
import frechet_flow.cli
print(*sorted(name for name in sys.modules if name.startswith("frechet_flow.")))
"""


def test_the_package_exports_nothing_and_the_cli_loads_no_unused_module(tmp_path):
    done = python_process(["-c", LOADED_MODULES], tmp_path)
    assert done.returncode == 0 and done.stderr == ""
    public, loaded = done.stdout.split("\n")[:2]
    assert public == ""
    # the commands that call these import them in their handlers
    assert {"frechet_flow.cli", "frechet_flow.app"} <= set(loaded.split())
    assert not {"frechet_flow.invariance", "frechet_flow.translation",
                "frechet_flow.verify"} & set(loaded.split())


TRANSLATION_MODULES = """
import sys
import frechet_flow.translation
print(*sorted(name for name in sys.modules if name.startswith("frechet_flow.")))
"""


def test_translation_loads_the_scalar_bounds_and_not_the_evolution_stack(tmp_path):
    done = python_process(["-c", TRANSLATION_MODULES], tmp_path)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.split() == ["frechet_flow.bounds", "frechet_flow.spectral",
                                   "frechet_flow.translation"]


@pytest.mark.parametrize(
    "args, lines",
    [
        # the sphere probes overflow at radius 2^20
        (["check-l2", "--symbol=-xi^70"],
         ["square-integrable verdict at t=1: Invariant (method exact-1d, sup estimate 0)"]),
        # the witness rays are read from a_150 alone
        (["check-eprime", "--symbol=(1+i)*xi^150-xi"],
         ["compact-support verdict: NotInvariant for every t != 0 (exact rule)",
          "growth witness: order 150, ray arg z=-0.00523599 for t > 0, "
          "arg z=0.015708 for t < 0",
          "paper rule: NotInvariant (rule otherwise, m=150, a_m=1+1j)"]),
        (["check-l2", "--symbol=(xi-xi)^100000000"],
         ["square-integrable verdict at t=1: Invariant (method exact-1d, sup estimate 0)",
          "caveat: constant real part"]),
    ],
)
def test_cli_process_decides_high_degree_symbols_without_warnings(tmp_path, args, lines):
    done = run_process([*args, "--out", "out"], tmp_path)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.splitlines() == lines


@pytest.mark.parametrize(
    "args, summary",
    [
        (["--R", "1"], "t=-0.1 M=1: value 1.663044e+03 at the single radius R=1"),
        (["--R", "1e-9", "2", "--t", "0.1"],
         "t=0.1 M=0: converged, relative change 1.000e+00 over the last radius doubling"),
        (["--R", "1e-9", "2", "--t=-0.1"],
         "t=-0.1 M=0: grows by factor inf from R=1e-09 to R=2"),
        (["--R", "1", "2", "--t", "1000"],
         "t=1000 M=1: converged, relative change 0.000e+00 over the last radius doubling"),
    ],
)
def test_cli_process_heat_demo_summarises_one_radius_and_zero_rows(tmp_path, args, summary):
    done = run_process(["heat-demo", *args, "--out", "out"], tmp_path)
    assert done.returncode == 0 and done.stderr == ""
    assert summary in done.stdout.splitlines()
    assert summary in (tmp_path / "out" / "metadata.txt").read_text().splitlines()


def test_cli_process_heat_demo_marks_saturated_forward_rows(tmp_path):
    done = run_process(["heat-demo", "--M", "1" + "0" * 300, "--out", "out"], tmp_path)
    assert done.returncode == 3 and done.stderr == ""
    lines = done.stdout.splitlines()
    assert lines[0].startswith("t=0.1 M=1000")
    assert lines[0].endswith(": converged, relative change 0.000e+00 over the last radius "
                             "doubling (saturated)")
    assert lines[1].endswith(": grows by factor 1.000e+00 from R=1 to R=64 (saturated)")


def test_config_rejects_an_unknown_output_format():
    for formats in ("csv", "csv, fl2l", "fl2l, field-csv", ""):
        text = BASE_CONFIG + f"formats = {formats}\n"
        assert config_from_text(text).formats == tuple(filter(None, formats.split(", ")))
    with pytest.raises(ConfigError) as err:
        config_from_text(BASE_CONFIG + "formats = csv, fl2\n")
    message = str(err.value)
    assert message.startswith("line 15: ") and "'fl2'" in message
    assert all(name in message for name in ("csv", "fl2l", "field-csv"))


def test_cli_process_rejects_an_unknown_output_format(tmp_path):
    (tmp_path / "run.cfg").write_text(BASE_CONFIG + "formats = csv, fl2\n")
    done = run_process(["solve", "--config", "run.cfg", "--out", "out"], tmp_path)
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: line 15: ") and "fl2l" in lines[0]
    assert not (tmp_path / "out").exists()
