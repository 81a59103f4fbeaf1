import os
import subprocess
import sys

import pytest

import quivalg

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("script", ["demo_syzygies.py", "demo_phi.py", "demo_gluing.py"])
def test_demo_runs(script):
    src = os.path.dirname(os.path.dirname(os.path.abspath(quivalg.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, script)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
