#!/usr/bin/env python3
"""Short self-check of the benchmark: runs every workload in BENCHMARK.json
for a few seconds, untraced and traced, and fails when a declared metric is
missing, has the wrong or no unit, is not finite, or when any operation
failed its output check.

Run from the repository root:

    python3 perfbench/selfcheck.py [--seconds 3]
"""

import argparse
import json
import math
import subprocess
import sys


def run(workload, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", "1",
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} printed no result")
    return json.loads(lines[-1])


def check(result, declared):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct"):
        problems.append("correct is false")
    if result.get("attempted", 0) < 1:
        problems.append("nothing attempted")
    if result.get("failed") != 0:
        problems.append(f"{result.get('failed')} operations failed")
    metrics = result.get("metrics", {})
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing")
            continue
        if not got.get("unit"):
            problems.append(f"metric {m['name']} has no unit")
        elif got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} unit {got['unit']!r}, declared {m['unit']!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {m['name']} value {value!r} is not finite")
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        problems.append(f"undeclared metrics {sorted(extra)}")
    if "failed_ratio" in metrics and metrics["failed_ratio"]["value"] > 0:
        problems.append(f"failed_ratio {metrics['failed_ratio']['value']}")
    return problems


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=3)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ok = True
    for w in bench["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            try:
                problems = check(run(w["name"], args.seconds, trace), declared)
            except Exception as e:  # a crashed or silent run is a failure too
                problems = [str(e)]
            status = "ok" if not problems else "FAIL"
            print(f"{w['name']:24s} trace {trace}: {status}")
            for p in problems:
                print(f"    {p}")
            ok = ok and not problems
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
