"""One benchmark workload in this interpreter; run.py starts it as a child process.

Usage: python3 perfbench/workloads.py --workload NAME --seed N --trace 0|1 [--import-only]

Each workload is a closed loop in one thread: an op starts when the previous
one returns.  A pass is a fixed list of ops built from the seed by prepare(),
so its work and its result digest depend on the seed alone.  A run repeats
the pass `reps` times, each on freshly prepared inputs, and keeps each op's
fastest time: a shared host slows down in bursts of a few seconds, and the
faster of two passes run apart is closer to the time the op needs.  The
set-up time is the median of at least PREPARE_SAMPLES prepare() calls.  The
traced mode runs the pass once untraced, then once on freshly prepared inputs
with the tracer installed; the two must agree op for op.  The last stdout line
is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
from collections import Counter
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PHI_FIXTURES = ("a2.alg", "exB.alg", "nakayama-selfinj.alg", "nakayama-a3.alg",
                "exA.alg", "remark54.glue", "exCop.glue", "rad-square-zero-pair.glue")
LARGE_FIXTURES = ("exB.alg", "nakayama-a3.alg", "exA.alg", "remark54.glue",
                  "rad-square-zero-pair.glue")
PHI_PER_ALGEBRA = 12   # modules per fixture algebra in one pass
# total dimension of the k-th sum of each algebra, or one more (the max_dim cap
# is 40): fixed, so a seed changes which modules are summed but not how large
# the sum is, and op time (which grows steeply with it) repeats across seeds
LARGE_DIMS = (24, 26, 28)
LARGE_DRAWS = 1000  # modules drawn for one sum at most
PREPARE_SAMPLES = 3    # prepare() runs at least this often in an untraced run


def _import_package():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import quivalg  # noqa: F401  (the checkout's own source, never an installed copy)
    from quivalg import verify  # noqa: F401  (imports every layer)

    src = os.path.join(ROOT, "src", "quivalg")
    if os.path.dirname(os.path.abspath(quivalg.__file__)) != src:
        raise ImportError(f"quivalg imported from {quivalg.__file__}, not {src}")
    return quivalg


class Op:
    """One timed call; run() returns a JSON-able result.

    family names the kind of input (criterion, fixture algebra, pass): the
    typical latency is taken per family, so the mix of families in a run
    never moves it.
    """

    __slots__ = ("family", "label", "run")

    def __init__(self, family: str, label: str, run):
        self.family, self.label, self.run = family, label, run


# ---------------------------------------------------------------------------
# workloads: prepare() builds one pass of ops from the seed; judge() returns
# (op passed its checks, result is certified); check() runs after the pass.


class Battery:
    """verify criteria 1-8 on fresh Fixtures, as verify.run_battery runs them.

    One op is the whole battery, so its time is the battery's wall time: the
    eight criteria differ in length by three orders of magnitude, and the
    sum follows the long ones that users wait on.  Each criterion's time is
    kept in criterion_s for the report.
    """

    reps = 1  # a battery takes most of a run

    def __init__(self, q, seed: int):
        self.verify = q.verify
        self.budgets = q.Budgets(seed=seed)
        self.criterion_s: list = []

    def prepare(self):
        fx = self.verify.Fixtures()
        return [Op("battery", "c1-c8", lambda: self.run(fx))]

    def run(self, fx):
        results, self.criterion_s = [], []
        for i in range(1, 9):
            t = perf_counter()
            results.append(getattr(self.verify, f"criterion_{i}")(fx, self.budgets))
            self.criterion_s.append((f"c{i}", perf_counter() - t))
        return results

    def judge(self, op, result) -> tuple[bool, bool]:
        passed = all(r["passed"] for r in result)
        return passed, passed

    def check(self, ops, results) -> list:
        return []


def _algebras(q, names):
    return [(n, q.cli.underlying_algebra(q.cli.load_any(n))) for n in names]


class PhiStream:
    """phi(M) then pd(M) on seeded random modules: a cold half, then a warm one.

    The cold half runs on fresh algebras with empty registries.  The warm half
    repeats the same seeds as new Rep objects over the same algebras, so the
    registries hold every class the cold half found while per-Rep caches
    start empty.  Both halves are generated in prepare().
    """

    reps = 2

    def __init__(self, q, seed: int):
        self.q, self.seed = q, seed
        self.budgets = q.Budgets(seed=seed)

    def prepare(self):
        q, b = self.q, self.budgets
        algebras = _algebras(q, PHI_FIXTURES)
        ops = []
        for phase in ("cold", "warm"):
            for i in range(PHI_PER_ALGEBRA):
                for name, alg in algebras:
                    m = q.repmod.random_module(alg, (self.seed << 16) + i, 12)
                    ops.append(Op(f"{name}/{phase}", f"{name}#{i}/{phase}",
                                  lambda m=m: _phi_pd(q, m, b)))
        return ops

    def judge(self, op, r) -> tuple[bool, bool]:
        value, certified, _cert, trace, _note, pd_status, pd_value = r
        ok = all(trace[j + 1] <= trace[j] for j in range(len(trace) - 1))
        if certified and pd_status == "finite":
            ok &= value == pd_value
        return ok, certified

    def check(self, ops, results) -> list:
        half = len(ops) // 2
        return [f"{w.label}: warm {rw} != cold {rc}"
                for w, rw, rc in zip(ops[half:], results[half:], results[:half]) if rw != rc]


def _phi_pd(q, m, b):
    r = q.grothendieck.phi(m, b)
    d = q.homology.pd(m, b)
    return [r.value, r.certified, r.certificate, list(r.trace), r.note, d.status, d.value]


class LargeDense:
    """decompose a stripped sum of 24-29 dimensions, then test it against a
    change-of-basis copy; Krull-Schmidt is checked against the parts after
    the timed window."""

    reps = 2

    def __init__(self, q, seed: int):
        import numpy as np

        self.q, self.np, self.seed = q, np, seed
        self.budgets = q.Budgets(seed=seed)

    def build(self, alg, k: int):
        q, np, ef, p = self.q, self.np, self.q.exactfield, alg.p
        parts, total, target = [], 0, LARGE_DIMS[k]
        for j in range(LARGE_DRAWS):
            m = q.repmod.random_module(alg, (self.seed << 16) + 1000 * k + j, 12)
            if total + m.total_dim <= target + 1:
                parts.append(m)
                total += m.total_dim
            if total >= target:
                break
        else:
            raise RuntimeError(f"no sum of {target} dimensions in {LARGE_DRAWS} draws")
        big = q.repmod.direct_sum(parts)[0].strip()
        rng = np.random.default_rng([self.seed, k, alg.structural_digest() % (2 ** 31)])
        g = {}
        for v, d in big.dims.items():
            inv = None
            while inv is None:
                x = rng.integers(0, p, size=(d, d))
                inv = ef.invert(x, p)
            g[v] = (x, inv)
        # per vertex g_s^-1 T_a g_t: the same module in another basis
        mats = {a.name: ef.matmul(ef.matmul(g[a.source][1], big.mats[a.name], p),
                                  g[a.target][0], p)
                for a in alg.quiver.arrows}
        return parts, big, q.repmod.Rep(alg, big.dims, mats)

    def prepare(self):
        algebras = _algebras(self.q, LARGE_FIXTURES)
        self.inputs = []
        ops = []
        for k in range(len(LARGE_DIMS)):
            for name, alg in algebras:
                parts, big, cob = self.build(alg, k)
                self.inputs.append(parts)
                ops.append(Op(name, f"{name}#{k}", lambda big=big, cob=cob: self.op(big, cob)))
        return ops

    def op(self, big, cob):
        b = self.budgets
        res = self.q.decomp.decompose(big, seed=b.seed, confidence=b.confidence, budgets=b)
        iso = self.q.decomp.is_isomorphic(big, cob, seed=b.seed, confidence=b.confidence)
        return [big.total_dim, [list(x) for x in res.items], res.certified,
                iso.verdict, iso.method]

    def judge(self, op, r) -> tuple[bool, bool]:
        return r[3] == "yes", r[2] and r[3] in ("yes", "no")

    def check(self, ops, results) -> list:
        b, bad = self.budgets, []
        for op, parts, r in zip(ops, self.inputs, results):
            if isinstance(r, str):
                continue
            want = Counter()
            for m in parts:
                want.update(dict(self.q.decomp.decompose(
                    m, seed=b.seed, confidence=b.confidence, budgets=b).items))
            if want != Counter({i: k for i, k in r[1]}):
                bad.append(f"{op.label}: Krull-Schmidt {sorted(want.items())} != {r[1]}")
        return bad


WORKLOADS = {"battery": Battery, "phi-stream": PhiStream, "large-dense": LargeDense}


# ---------------------------------------------------------------------------
# running a pass


def digest(results) -> str:
    return hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()


def run_pass(wl, ops, errors) -> tuple[dict, list]:
    """Run ops in order; returns (summary, results), with times in seconds.

    An op fails when it raises one of errors or wl.judge rejects its result.
    """
    results, times, failed, certified = [], [], 0, 0
    for op in ops:
        t = perf_counter()
        try:
            r = op.run()
        except errors as exc:
            times.append(perf_counter() - t)
            results.append(f"{type(exc).__name__}: {exc}")
            failed += 1
            continue
        times.append(perf_counter() - t)
        results.append(r)
        ok, cert = wl.judge(op, r)
        failed += not ok
        certified += bool(cert)
    return {"times": times, "families": [op.family for op in ops],
            "labels": [op.label for op in ops], "failed": failed, "certified": certified,
            "digest": digest(results)}, results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--import-only", action="store_true",
                    help="time the package import alone and exit")
    args = ap.parse_args(argv)
    if args.import_only:
        t = perf_counter()
        _import_package()
        out = {"import_s": perf_counter() - t}
    else:
        out = measure(args)
    print(json.dumps(out))
    return 0


def measure(args) -> dict:
    """Import, then prepare and run the passes.

    Traced: one untraced pass, then one pass with the tracer installed.
    """
    t = perf_counter()
    q = _import_package()
    import_s = perf_counter() - t
    errors = (q.BudgetExceeded, q.RegistryAmbiguity)
    wl = WORKLOADS[args.workload](q, args.seed)
    out = {"workload": args.workload, "seed": args.seed, "import_s": import_s,
           "python": sys.version.split()[0], "numpy": sys.modules["numpy"].__version__}

    if args.trace:
        import tracer as tracing

        ops = wl.prepare()
        plain, results = run_pass(wl, ops, errors)
        plain["problems"] = wl.check(ops, results)
        tr = tracing.Tracer()
        tracing.install(tr)
        try:
            ops = wl.prepare()
            traced, results = run_pass(wl, ops, errors)
        finally:
            tr.uninstall()
        traced["problems"] = wl.check(ops, results)  # after the tracer: not counted
        out["layers"] = tracing.layer_metrics(tr)
        out["layers"]["bench.trace_overhead_ratio"] = sum(traced["times"]) / sum(plain["times"])
        out["untraced_agrees"] = traced["digest"] == plain["digest"]
        out["untraced_failed"] = plain["failed"] + len(plain["problems"])
        out["passes"] = [traced]
        os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
        tr.write_spans(os.path.join(ROOT, ".perfbench_out",
                                    f"spans-{args.workload}-{args.seed}.npz"))
        return out

    out["setups"], out["passes"] = [], []
    for rep in range(max(wl.reps, PREPARE_SAMPLES)):
        gc.collect()  # the last pass's garbage is not this one's cost
        t = perf_counter()
        ops = wl.prepare()
        out["setups"].append(perf_counter() - t)
        if rep < wl.reps:
            p, results = run_pass(wl, ops, errors)
            # every pass repeats the first one's results, so one check covers all
            p["problems"] = wl.check(ops, results) if rep == 0 else []
            out["passes"].append(p)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if isinstance(wl, Battery):
        out["criterion_s"] = wl.criterion_s
    return out


if __name__ == "__main__":
    sys.exit(main())
