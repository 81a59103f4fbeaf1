"""The benchmark's self-test, run in its own interpreter.

`perfbench/tracer.py` rebinds package functions when it installs, so the
self-test cannot share the pytest process.  It fails when a traced wrap point
or a `build_algebra` binding that the benchmark relies on goes away.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selftest_passes():
    run = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
