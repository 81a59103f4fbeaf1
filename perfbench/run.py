"""quivalg benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload battery --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout.  The workload runs in a fresh child
interpreter (perfbench/workloads.py) with BLAS/OpenMP pinned to one thread and
a fixed hash seed, so registries, caches and peak RSS never leak between
workloads.  A run measures one pass: a fixed op list built from the seed, sized
so that every workload's pass takes longer than BENCHMARK.json's run_seconds;
--seconds is accepted for the common interface and printed, but the work does
not depend on it, so the counts and the result digest depend on the seed alone.
--trace 0 prints every end_to_end metric of BENCHMARK.json; --trace 1 runs the
pass untraced and then traced in the child, checks that their results agree
and prints every per_layer metric.  Human-readable lines come first; the last
stdout line is the JSON result.  The exit status is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

from stats import median, percentile, tail_percentile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUDGET_S = 170.0  # every run ends within 180 s
IMPORT_SAMPLES = 7  # odd: half before the workload, one in it, half after
PINNED_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
              "PYTHONDONTWRITEBYTECODE": "1"}


def run_child(workload: str, seed: int, trace: int, timeout: float, *extra: str) -> dict:
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "workloads.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **PINNED_ENV),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"workload child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_samples(args, n: int) -> list:
    """Package import times, each in a fresh interpreter."""
    return [run_child(args.workload, args.seed, 0, 30, "--import-only")["import_s"]
            for _ in range(n)]


def typical(times, families) -> float:
    """Geometric mean of the op times, with every input family weighted alike.

    Within a family the op times spread over two orders of magnitude, often in
    two clusters; a mean of logs moves smoothly with the draw where a median
    jumps between the clusters.
    """
    by: dict = {}
    for f, t in zip(families, times):
        by.setdefault(f, []).append(math.log(t))
    return math.exp(sum(sum(v) / len(v) for v in by.values()) / len(by))


def summarize(child: dict, imports: list) -> dict:
    """Metrics and counts from one child's passes and the import-time samples.

    An op's time is its fastest over the passes.
    """
    passes = child["passes"]
    p = passes[0]
    times = [min(ts) for ts in zip(*(x["times"] for x in passes))]
    attempted = len(times)
    q = tail_percentile(attempted)
    info = {"p50_ms": 1000.0 * median(times),
            f"tail_p{q}_ms": 1000.0 * percentile(times, q),
            "ops_per_s": attempted / sum(times),
            "pass_s": median([sum(x["times"]) for x in passes])}
    if "peak_rss_mb" in child:
        info["peak_rss_mb"] = child["peak_rss_mb"]
    digests = {x["digest"] for x in passes}
    problems = p["problems"] + ([f"passes disagree: digests {sorted(digests)}"]
                                if len(digests) > 1 else [])
    return {
        "metrics": {
            "setup_s": median(imports) + median(child.get("setups") or [0.0]),
            "typical_ms": 1000.0 * typical(times, p["families"]),
            "certified_ratio": p["certified"] / attempted,
        },
        "info": info, "tail_percentile": q,
        "attempted": attempted, "passes": len(passes),
        "failed": min(attempted, max(x["failed"] for x in passes) + len(problems)),
        "digest": p["digest"],
        "problems": problems,
        "op_times": list(zip(p["labels"], times)),
        "env": f"python {child['python']}, numpy {child['numpy']}",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    if not os.path.isdir(os.path.join(ROOT, "src", "quivalg")):
        print(f"no quivalg source under {ROOT}/src", file=sys.stderr)
        return 2

    load1 = os.getloadavg()[0]
    try:
        if args.trace == 0:
            # import time, like every set-up step, is the median of several
            # samples, taken before and after the workload to span the run
            imports = import_samples(args, IMPORT_SAMPLES // 2)
            child = run_child(args.workload, args.seed, 0, BUDGET_S)
            imports += [child["import_s"]] + import_samples(args, IMPORT_SAMPLES // 2)
            summary = summarize(child, imports)
            metrics = summary["metrics"]
            wanted = spec["end_to_end"]
            correct = summary["failed"] == 0
        else:
            child = run_child(args.workload, args.seed, 1, BUDGET_S)
            summary = summarize(child, [child["import_s"]])
            metrics = child["layers"]
            wanted = spec["per_layer"]
            correct = (summary["failed"] == 0 and child["untraced_failed"] == 0
                       and child["untraced_agrees"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{summary['env']}, nproc {os.cpu_count()}, load1 {load1:.2f}")
    print(f"# {summary['passes']} pass(es) of {summary['attempted']} ops "
          f"(--seconds {args.seconds}); tail = "
          f"p{summary['tail_percentile']} of {summary['attempted']} samples; "
          f"result digest {summary['digest']}")
    print("# " + ", ".join(f"{k} {v:.6g}" for k, v in summary["info"].items()))
    if summary["attempted"] <= 16:
        print("# op times (s): " + ", ".join(
            f"{label} {t:.3f}" for label, t in summary["op_times"]))
    if "criterion_s" in child:
        print("# battery's criteria (s): " + ", ".join(
            f"{name} {t:.3f}" for name, t in child["criterion_s"]))
    for problem in summary["problems"][:10]:
        print(f"# CHECK FAILED: {problem}")
    out = {}
    for m in wanted:
        value = metrics.get(m["name"], 0)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<48} {value:>16.6g} {m['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
