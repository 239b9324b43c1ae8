"""Smoke test of the benchmark: ``perfbench/run.py --quick`` must pass.

The quick run drives every workload once at reduced size, traced and
untraced, and checks every output against ``perfbench/reference.json``, so
a change that breaks the tracer's hooks or a pinned value fails here.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_quick_passes():
    run = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--quick"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
