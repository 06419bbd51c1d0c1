"""The golden matrix of ``tools/golden_outputs.py`` against its committed digests.

``golden_digests.json`` holds, per case, the exit code, the standard output
and error and the SHA-256 of every file the case reads or writes.  The
matrix runs here in this process, as the tool runs it; a fresh
``python -m frechet_flow`` process is checked to write the same for two
cases.  A change that moves an output on purpose regenerates the file and
names the cases that moved in CHANGES.md.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from frechet_flow import cli

ROOT = Path(__file__).resolve().parents[1]
COMMITTED = Path(__file__).with_name("golden_digests.json")
REGENERATE = ("to regenerate, run `python3 tools/golden_outputs.py OUT_DIR` "
              "and copy OUT_DIR/digests.json to tests/golden_digests.json")

_spec = importlib.util.spec_from_file_location("golden_outputs",
                                               ROOT / "tools" / "golden_outputs.py")
GOLDEN = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(GOLDEN)


def differences(expected, actual):
    """What differs between two digests of one case: exit code, output, error, files."""
    for key in ("exit_code", "stdout", "stderr"):
        if actual[key] != expected[key]:
            yield f"{key} is {actual[key]!r}, expected {expected[key]!r}"
    for path in sorted(expected["files"].keys() | actual["files"].keys()):
        if path not in actual["files"]:
            yield f"file {path} is missing"
        elif path not in expected["files"]:
            yield f"file {path} is not in the digests"
        elif actual["files"][path] != expected["files"][path]:
            yield f"file {path} differs"


def test_every_golden_case_matches_its_committed_digest(tmp_path):
    committed = json.loads(COMMITTED.read_text())
    ran = GOLDEN.run_matrix(cli, str(tmp_path))
    for key in ("python", "numpy"):
        assert ran[key] == committed[key], (
            f"{key} {ran[key]} runs here, but the digests were made under {key} "
            f"{committed[key]}; {REGENERATE}")
    expected, actual = committed["cases"], ran["cases"]
    mismatches = [f"{name}: case missing from the matrix" for name in expected
                  if name not in actual]
    mismatches += [f"{name}: case not in the digests" for name in actual if name not in expected]
    mismatches += [f"{name}: {difference}" for name in actual if name in expected
                   for difference in differences(expected[name], actual[name])]
    assert not mismatches, "\n".join(mismatches + [REGENERATE])


# a file init with fl2l and field-csv outputs, and a refusal with exit 2
PROCESS_CASES = ("solve-2d-time-zero", "solve-1d-transport-phase-overflows")


def test_a_fresh_process_writes_what_the_in_process_runner_writes(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [GOLDEN.SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    digests = {}
    for runner in ("process", "in-process"):
        for case_dir, command in GOLDEN.cases(str(tmp_path / runner)):
            name = os.path.basename(case_dir)
            if name not in PROCESS_CASES:
                continue
            if runner == "process":
                proc = subprocess.run([sys.executable, "-m", "frechet_flow", *command],
                                      cwd=case_dir, env=env, capture_output=True, text=True)
                GOLDEN.write_stdio(case_dir, proc.stdout, proc.stderr, proc.returncode)
            else:
                GOLDEN.run_case(cli, case_dir, command)
            digests.setdefault(name, []).append(GOLDEN.case_digest(case_dir))
    for name in PROCESS_CASES:
        process, in_process = digests[name]
        assert list(differences(process, in_process)) == [], name
    assert digests["solve-1d-transport-phase-overflows"][0]["exit_code"] == 2
