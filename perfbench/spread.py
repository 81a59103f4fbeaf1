"""Repeat the benchmark and report how steady it is.

    python3 perfbench/spread.py --seeds 0-9 [--workloads battery,phi-cold]
    python3 perfbench/spread.py --repeat-trace --seeds 0

The first form runs every workload once per seed, untraced, and prints each
end-to-end metric's median and its quartile spread, (Q3 - Q1) / median, next
to a third of the metric's bound.  The second form makes two traced runs per
workload at each seed and checks that every count repeats exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from stats import median, quartile_spread

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(spec, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
    return result


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--repeat-trace", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)

    if args.repeat_trace:
        counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
        bad = 0
        for w in workloads:
            for s in seeds:
                a, b = (run(spec, w, s, 1)["metrics"] for _ in range(2))
                diff = [n for n in counts if a[n]["value"] != b[n]["value"]]
                bad += len(diff)
                print(f"{w} seed {s}: {len(counts) - len(diff)}/{len(counts)} counts "
                      f"repeat exactly{'; differ: ' + ', '.join(diff) if diff else ''}")
        return 1 if bad else 0

    ok = True
    for w in workloads:
        values: dict = {m["name"]: [] for m in spec["end_to_end"]}
        for s in seeds:
            res = run(spec, w, s, 0)
            for name in values:
                values[name].append(res["metrics"][name]["value"])
            print(f"{w} seed {s}: " + ", ".join(
                f"{n} {v[-1]:.4g}" for n, v in values.items()), flush=True)
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            spread = quartile_spread(vals) if len(vals) > 1 else 0.0
            steady = spread < m["bound"] / 3
            ok &= steady
            verdict = "" if steady else "  TOO WIDE" if spread > m["bound"] else "  above bound/3"
            print(f"  {w:<12} {m['name']:<16} median {median(vals):<12.5g} spread "
                  f"{spread:.4f} (bound/3 {m['bound'] / 3:.4f}){verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
