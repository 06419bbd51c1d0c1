"""The names the benchmark harness in ``bench/`` reaches into the package by,
the case matrix of ``tools/golden_outputs.py``, the package's optional
parameters, each of which some call inside the package passes, its
public names, each of which some code inside the package reads, and its
writers: only ``fieldio`` opens a file to write, and no module imports
``csv``.  Only ``evolution`` builds a ``ShellField`` or calls
``saturated_product``.

``bench/spans.py`` skips a wrapped name that no longer exists, so a rename
would read as 0 calls rather than fail; these tests make it fail here.
The harness files are read, never edited.  A golden case whose name is
taken twice, whose config or overrides no longer parse or whose command is
no longer a subcommand would drop out of a byte-identity check without
notice.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from frechet_flow import app, cli
from frechet_flow.config import KEYS, config_from_text

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def load_module(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_bench_module(name):
    return load_module(BENCH / f"{name}.py", f"bench_{name}")


def resolve(dotted):
    module_name, *path = dotted.split(".")
    target = importlib.import_module(f"frechet_flow.{module_name}")
    for attr in path:
        target = getattr(target, attr)
    return target


@pytest.mark.parametrize("span", load_bench_module("spans").SPANS)
def test_every_traced_span_resolves(span):
    assert callable(resolve(span))


def test_solve_result_keeps_what_the_run_solve_observer_reads():
    names = {field.name for field in dataclasses.fields(app.SolveResult)}
    assert {"files", "residual_profiles", "diagnostics"} <= names


def test_setup_probe_calls_bind_to_the_package():
    tree = ast.parse((BENCH / "setup_probe.py").read_text())
    calls = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in {"app", "config", "operators", "spectral"}):
            name = f"{node.func.value.id}.{node.func.attr}"
            calls.add(name)
            inspect.signature(resolve(name)).bind(
                *node.args, **{keyword.arg: None for keyword in node.keywords}
            )
    assert {"app.build_symbol", "app.build_initial_field"} <= calls
    assert list(inspect.signature(app.build_symbol).parameters) == ["config"]
    assert list(inspect.signature(app.build_initial_field).parameters) == ["config", "grid"]


GOLDEN = load_module(ROOT / "tools" / "golden_outputs.py", "golden_outputs")


def test_golden_case_names_are_unique():
    names = ([case[0] for case in GOLDEN.SOLVES] + [case[0] for case in GOLDEN.SETS]
             + [name for name, _ in GOLDEN.OTHERS])
    assert len(names) == len(set(names))


def test_every_golden_solve_config_parses(tmp_path):
    for seed, (name, n, J, inv_h, symbol, times, init, *options) in enumerate(
            GOLDEN.SOLVES, start=1):
        if init.startswith("file"):
            path = tmp_path / f"{name}.fl2l"
            GOLDEN.write_init_field(path, init, n, J, inv_h, seed)
            init = f"file:{path}"
        config = config_from_text(
            GOLDEN.solve_config(n, J, inv_h, symbol, times, init, *options))
        assert (config.n, config.J, config.inv_h) == (n, J, inv_h), name


@pytest.mark.parametrize("name, base, left_out, overrides", GOLDEN.SETS,
                         ids=[case[0] for case in GOLDEN.SETS])
def test_every_golden_override_parses_and_applies(name, base, left_out, overrides):
    full = GOLDEN.set_config(base, ())
    text = GOLDEN.set_config(base, left_out)
    # each left-out line was in the config, so the case adds what it says it adds
    assert len(text.splitlines()) == len(full.splitlines()) - len(left_out)
    config = config_from_text(text, overrides)
    for override in overrides:
        target, value = override.split("=", 1)
        field, parse = KEYS[tuple(target.split("."))]
        assert getattr(config, field) == parse(value, target), (name, override)
        assert getattr(config_from_text(full), field) != getattr(config, field), override


@pytest.mark.parametrize("name, command", GOLDEN.OTHERS, ids=[name for name, _ in GOLDEN.OTHERS])
def test_every_golden_command_is_a_subcommand(name, command):
    assert cli.build_parser().parse_args(command).command == command[0]


# Optional parameters that no call inside the package passes, with the reason each stays.
UNPASSED_OPTIONS = {
    ("SpectralField", "overflow"): "tests build flagged inputs with it",
    ("suite_spectral", "weight_factor"): "run_verify passes it through an argument tuple",
    ("main", "argv"): "tests and the benchmark harness drive the CLI through it",
}


def optional_parameters(name, function, skip):
    """``(name, parameter, position)`` of each optional parameter of one def.

    ``position`` counts the call's positional arguments (past ``skip``
    bound ones, such as ``self``); it is None for a keyword-only parameter.
    """
    args = function.args.posonlyargs + function.args.args
    first = len(args) - len(function.args.defaults)
    for index, arg in enumerate(args[first:], start=first):
        yield name, arg.arg, index - skip
    for arg, default in zip(function.args.kwonlyargs, function.args.kw_defaults):
        if default is not None:
            yield name, arg.arg, None


def public_optional_parameters(tree):
    """Those of public functions, methods and constructors; a constructor goes by its class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield from optional_parameters(node.name, node, 0)
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (
                        item.name == "__init__" or not item.name.startswith("_")):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    name = node.name if item.name == "__init__" else item.name
                    yield from optional_parameters(name, item, 0 if static else 1)


def is_passed(call, parameter, position):
    """Whether the call passes the parameter; a starred argument counts for nothing."""
    if any(keyword.arg == parameter for keyword in call.keywords):
        return True
    starred = any(isinstance(arg, ast.Starred) for arg in call.args)
    return position is not None and not starred and len(call.args) > position


def test_every_optional_parameter_is_passed_inside_the_package():
    trees = [ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "frechet_flow").glob("*.py"))]
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(callee, []).append(node)
    options = [option for tree in trees for option in public_optional_parameters(tree)]
    unpassed = {(name, parameter) for name, parameter, position in options
                if not any(is_passed(call, parameter, position) for call in calls.get(name, []))}
    assert unpassed == set(UNPASSED_OPTIONS)


def open_modes(tree):
    """The mode of each ``open`` call: the text of a constant, else None (unknown)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)) == "open":
            mode = next((keyword.value for keyword in node.keywords if keyword.arg == "mode"),
                        node.args[1] if len(node.args) > 1 else ast.Constant("r"))
            yield mode.value if isinstance(mode, ast.Constant) else None


def test_only_fieldio_writes_files_and_no_module_imports_csv():
    """Every file the package writes goes through one module's writers."""
    writers, csv_importers = set(), set()
    for path in sorted((ROOT / "src" / "frechet_flow").glob("*.py")):
        tree = ast.parse(path.read_text())
        if any(mode is None or set(mode) & set("wax+") for mode in open_modes(tree)):
            writers.add(path.stem)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) and any(
                    alias.name.split(".")[0] == "csv" for alias in node.names):
                csv_importers.add(path.stem)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "csv":
                csv_importers.add(path.stem)
    assert writers == {"fieldio"}
    assert csv_importers == set()


def public_definitions(tree):
    """``(name, node, is_method)`` of each public top-level def and class, and
    of each public method or property of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item, True


def test_every_public_name_is_used_inside_the_package():
    """A method counts as used where some attribute of that name is read, a
    function or class where a bare name or an attribute of a package module is.

    The scan matches names, not types: a method sharing its name with a
    field read elsewhere (``bound``) passes.
    """
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "frechet_flow").glob("*.py"))}
    names, attributes, module_attributes = {}, {}, {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                names.setdefault(node.id, set()).add(node)
            elif isinstance(node, ast.Attribute):
                attributes.setdefault(node.attr, set()).add(node)
                if isinstance(node.value, ast.Name) and node.value.id in trees:
                    module_attributes.setdefault(node.attr, set()).add(node)
    unused = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for name, node, is_method in public_definitions(tree):
            uses = (attributes.get(node.name, set()) if is_method else
                    names.get(node.name, set()) | module_attributes.get(node.name, set()))
            if not uses - set(ast.walk(node)):
                unused.append(f"{module}.{name}")
    assert unused == []


def test_no_module_imports_a_private_name_of_another():
    """A name another module needs is public where it is defined."""
    imports = [f"{path.stem}: from {'.' * node.level}{node.module or ''} import {alias.name}"
               for path in sorted((ROOT / "src" / "frechet_flow").glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "")
                                                        .startswith("frechet_flow"))
               for alias in node.names if alias.name.startswith("_")]
    assert imports == []


def test_only_evolution_turns_flow_factors_into_fields():
    """`evolve` is the one place that builds a `ShellField` and runs `saturated_product`,
    so it alone knows whether a pass keeps a field."""
    names = {"saturated_product", "ShellField"}
    users = set()
    for path in sorted((ROOT / "src" / "frechet_flow").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "spectral":
                if names & {alias.name for alias in node.names}:
                    users.add(path.stem)
            elif isinstance(node, ast.Attribute) and node.attr in names:
                users.add(path.stem)
    assert users == {"evolution"}
