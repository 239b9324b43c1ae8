"""Smoke tests of the benchmark: ``perfbench/run.py --quick`` must pass,
and every single-workload run must end in one well-formed result line.

The quick run drives every workload once at reduced size, traced and
untraced, and checks every output against ``perfbench/reference.json``, so
a change that breaks the tracer's hooks or a pinned value fails here. A
metric the tracer cannot hook is reported as ``null``, so the per-workload
runs also catch a renamed hook and stray output on stdout.
"""

import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(*args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_perfbench_quick_passes():
    run = _run("--quick")
    assert run.returncode == 0, run.stdout + run.stderr


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["chord-cold", "cli-warm", "oracle-verify"])
def test_workload_result_line_is_well_formed(workload, trace):
    run = _run("--workload", workload, "--quick", "--trace", trace)
    assert run.returncode == 0, run.stdout + run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True, result
    for name, m in result["metrics"].items():
        value = m["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), name
        assert math.isfinite(value), name
