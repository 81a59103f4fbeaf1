"""The benchmark's seed-0 result digests, pinned.

Every speed change must leave results bit-identical.  One pass of each
workload, as `perfbench/workloads.py` builds it, runs in one interpreter
with the benchmark's pinned environment (the tracer-free path, but the same
hash seed and BLAS threads), and its result digest must be the recorded one.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DIGESTS = {
    "battery": "a03d5183f41b15347e1040b8577f72e360b3f10d4bab9c47243cc231bd63b66f",
    "phi-stream": "92e6a6c7819ef484c52ad6b5f7d6f4cff860498ff17db91b0d54ee88e7defcad",
    "large-dense": "b471dc5ddc960836d39c68e0071efc1d3c01e1812980f1570f6b5649caf25998",
}

ONE_PASS = """
import json, sys
sys.path.insert(0, "perfbench")
import workloads
q = workloads._import_package()
out = {}
for name in sys.argv[1:]:
    wl = workloads.WORKLOADS[name](q, 0)
    ops = wl.prepare()
    summary, results = workloads.run_pass(wl, ops, (q.BudgetExceeded, q.RegistryAmbiguity))
    out[name] = [summary["digest"], summary["failed"], wl.check(ops, results)]
print(json.dumps(out))
"""


def test_seed_zero_result_digests():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from run import PINNED_ENV
    finally:
        sys.path.pop(0)
    run = subprocess.run([sys.executable, "-c", ONE_PASS, *DIGESTS], cwd=ROOT,
                         env=dict(os.environ, **PINNED_ENV),
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout.strip().splitlines()[-1])
    assert got == {name: [digest, 0, []] for name, digest in DIGESTS.items()}
