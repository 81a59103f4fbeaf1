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
    "battery": "e32b09f7b94569a7aaa6b331e76487188c3baf66795798c2ad02228074599c2d",
    "phi-stream": "c7903665acebf95b032f36bd7dd4447568332aa713c03cdef050e36a38453d72",
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
