"""CLI output against recorded goldens.

Each golden is one of the benchmark's corpus CLI invocations with its exit
code and stdout; ``timing_ms`` is masked, every other byte must match.  The
goldens were recorded with Smith-form kernels, so they pin the Hermite
kernels to the same output.  Re-record (only from a trusted commit) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import re
import sys

import pytest

from fdzring.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_golden.json")
TIMING = re.compile(r'"timing_ms": [^,\n]*')


def run_masked(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI run from the repo root."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, TIMING.sub('"timing_ms": "masked"', out.getvalue())


def load_goldens() -> list[dict]:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def benchmark_commands() -> list[list[str]]:
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads.cli_commands()


def test_goldens_cover_the_benchmark_commands():
    assert [g["argv"] for g in load_goldens()] == benchmark_commands()


@pytest.mark.parametrize("golden", load_goldens(), ids=lambda g: " ".join(g["argv"]))
def test_cli_output_matches_golden(golden):
    code, stdout = run_masked(golden["argv"])
    assert code == golden["exit"]
    assert stdout == golden["stdout"]


if __name__ == "__main__":
    goldens = []
    for argv in benchmark_commands():
        code, stdout = run_masked(argv)
        goldens.append({"argv": argv, "exit": code, "stdout": stdout})
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1)
        handle.write("\n")
    print(f"recorded {len(goldens)} goldens in {GOLDEN_PATH}")
