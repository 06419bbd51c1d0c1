#!/usr/bin/env python3
"""List the package statements that no case of the golden matrix executes.

    python3 tools/traffic.py OUT_DIR [--bench-seeds 1 2 3]

Runs the cases of ``tools/golden_outputs.py`` through its `run_case` in this
one process, under a ``sys.settrace`` line tracer, each in its own directory
under a fresh directory ``OUT_DIR/run-*`` that the run creates, so that what
an earlier run left in OUT_DIR changes no case.  Then prints, per module and
function of ``src/frechet_flow``, the statements no case executed,
docstrings excluded: the code no command reaches.  A statement counts as
executed when a line of its header ran: all of a simple statement's lines,
and a compound statement's lines up to its body, decorators included.  Consecutive unexecuted statements of one
function print as one line range.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import itertools
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import golden_outputs  # noqa: E402

PACKAGE = os.path.join(golden_outputs.SRC, "frechet_flow")


def line_tracer(hits):
    """A ``sys.settrace`` function adding ``(file, line)`` to ``hits`` for package frames."""

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE + os.sep) else None

    return trace


def statements(body, scope, defines):
    """``(scope, first, last)`` of each statement's header in ``body``, nested ones
    included; ``scope`` names the enclosing function, and ``defines`` says whether
    ``body`` is that of a module, class or function, where a docstring may open it."""
    for index, node in enumerate(body):
        if index == 0 and defines and isinstance(node, ast.Expr) \
                and isinstance(getattr(node.value, "value", None), str):
            continue
        inner = [getattr(node, field, []) for field in ("body", "orelse", "finalbody")]
        inner += [[handler] for handler in getattr(node, "handlers", [])]
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        if not any(inner):
            yield scope, first, node.end_lineno
            continue
        yield scope, first, max(first, node.body[0].lineno - 1)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield from statements(node.body, node.name if scope == "<module>"
                                  else f"{scope}.{node.name}", True)
        else:
            for block in inner:
                yield from statements(block, scope, False)


def unexecuted(hits):
    """``{(module, function): (statements, unexecuted statements, [(first, last) of
    each run of consecutive unexecuted statements])}``, for functions with any."""
    report = {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as handle:
            tree = ast.parse(handle.read())
        scopes = {}
        for scope, first, last in statements(tree.body, "<module>", True):
            ran = any((path, line) in hits for line in range(first, last + 1))
            scopes.setdefault(scope, []).append((first, last, ran))
        for scope, rows in scopes.items():
            missed = [list(group) for ran, group in itertools.groupby(rows, lambda row: row[2])
                      if not ran]
            if missed:
                report[(name, scope)] = (len(rows), sum(map(len, missed)),
                                         [(group[0][0], group[-1][1]) for group in missed])
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir")
    parser.add_argument("--bench-seeds", type=int, nargs="*", default=[])
    args = parser.parse_args(argv)
    hits = set()
    trace = line_tracer(hits)
    sys.path.insert(0, golden_outputs.SRC)
    # the import runs every module's top level, so it is traced too
    sys.settrace(trace)
    cli = importlib.import_module("frechet_flow.cli")
    sys.settrace(None)
    os.makedirs(args.out_dir, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=args.out_dir)
    for case_dir, command in golden_outputs.cases(run_dir, args.bench_seeds):
        sys.settrace(trace)
        golden_outputs.run_case(cli, case_dir, command)
        sys.settrace(None)
    for (module, scope), (count, missed, runs) in unexecuted(hits).items():
        lines = ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)
        print(f"{module} {scope}: {missed} of {count} statements unexecuted, lines {lines}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
