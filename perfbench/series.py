"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/series.py [--out FILE]

For every workload in BENCHMARK.json it runs perfbench/run.py once per
seed, seeds 1 to 10, one after another, with BENCHMARK.json's
run_seconds.  It prints the first run's
table (every metric with unit and sample count, and error_rate), then
each metric's median over the seeds and its spread: the distance
between the first and third quartiles over the median, next to the
metric's bound.  With --out it writes the same as JSON, with
provenance: a trajectory point.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from env import ROOT, command_line, spec
from run import git_commit

SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError("%s exited %d: %s" % (" ".join(cmd), done.returncode, done.stderr[-2000:]))
    lines = done.stdout.strip().splitlines()
    return {"table": lines[:-1], **json.loads(lines[-1])}


def summarise(results: list[dict], bounds: dict) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": bounds.get(name),
            "values": values,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()
    bench = spec()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {
        "command": command_line(),
        "commit": git_commit(),
        "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "run_seconds": bench["run_seconds"],
        "seeds": SEEDS,
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        results = [run_once(workload, s, bench["run_seconds"]) for s in SEEDS]
        summary = summarise(results, bounds)
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": summary,
        }
        print("\n".join(results[0]["table"]))
        print("%s over %d seeds: correct=%s  failed=%d"
              % (workload, len(SEEDS), report["workloads"][workload]["correct"],
                 report["workloads"][workload]["failed"]))
        for name, m in summary.items():
            bound = "" if m["bound"] is None else "bound %.3f" % m["bound"]
            print("  %-30s median %-12.6g %-14s spread %.3f  %s"
                  % (name, m["median"], m["unit"], m["spread"], bound))
        sys.stdout.flush()
    if args.out:
        (ROOT / args.out).parent.mkdir(parents=True, exist_ok=True)
        (ROOT / args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
