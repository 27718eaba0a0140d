"""Smoke tests: every example script runs to completion and prints what
its docstring promises.  Run as subprocesses to catch import-time issues."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: int = 280) -> str:
    script = EXAMPLES / name
    assert script.exists(), f"missing example {name}"
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=timeout,
        check=True,
    )
    return result.stdout


@pytest.mark.parametrize("name,expect", [
    ("quickstart.py", "ok=True"),
    ("sensor_grid_memory.py", "mem EN16b"),
    ("multicast_overlays.py", "all exact"),
    ("serialize_scheme.py", "(exact)"),
    ("baselines_showdown.py", "weight-scale-free"),
    ("explain_worst_queries.py", "attribution exact: residual=0.0"),
])
def test_example_runs(name, expect):
    out = run_example(name)
    assert expect in out


def test_wan_example_runs():
    out = run_example("wan_compact_routing.py", timeout=580)
    assert "example route" in out
    # both k rows printed
    assert "\n 2 " in out and "\n 3 " in out
