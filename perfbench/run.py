"""The dycktile benchmark: one workload, one run, every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run starts fresh interpreters (perfbench/worker.py) one after
another, each doing one pass over the workload's inputs with the
package's default workers=1, up to the pass boundary nearest S
seconds.  Ten set-up-only interpreters come first, so set-up time has
enough samples.  After the passes the run computes an independent
reference once and checks every output against it.

With --trace 0 it reports the end-to-end metrics over all passes.
Every input runs once per pass; each latency is divided by the host's
slowdown around it (hostspeed.py), since the shared host slows all
work by up to 75% for seconds to minutes, and an input's latency is
the median of these over the passes.  Set-up times are divided alike.
With --trace 1 it alternates untraced and traced passes and reports
the per-layer metrics of the traced ones, plus the tracing overhead
(untraced minus traced operations per second).

Output: a table with unit and sample count per metric, the run's
provenance, then as the last line one JSON object with the keys
correct, attempted, failed and metrics.  Details, including the spans
of the last traced pass, go to perfbench/out/.  Exits 2 without a
result when it cannot measure (python -O, no src/dycktile).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from env import ROOT, command_line, prepare, spec
from hostspeed import slowdown

HERE = ROOT / "perfbench"
OUT = HERE / "out"
SETUP_PROBES = 10
PASS_TIMEOUT_S = 150.0
MEASURE_LIMIT_S = 120.0


@dataclass
class Pass:
    """One worker interpreter: its set-up time and, unless set-up only,
    its records, the host's slowdown around each, peak memory and
    (traced) layer metrics."""

    setup_s: float
    seconds: float
    traced: bool
    records: list = field(default_factory=list)
    slowdown: list = field(default_factory=list)
    peak_rss_kb: int = 0
    layers: dict | None = None


def run_worker(workload: str, seed: int, trace_path=None, setup_only=False) -> Pass:
    """Start worker.py, time it to its "ready" line, wait for its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    seconds = time.perf_counter() - t0
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("worker for %s exited with code %s" % (workload, proc.returncode))
    p = Pass(setup_s, seconds, trace_path is not None)
    if not setup_only:
        out = json.loads(rest.strip().splitlines()[-1])
        p.records, p.slowdown = out["records"], out["slowdown"]
        p.peak_rss_kb, p.layers = out["peak_rss_kb"], out.get("layers")
    return p


def setup_probe(workload: str, seed: int) -> float:
    """One set-up-only worker's set-up time over the host's slowdown
    around it, sampled here while no worker runs."""
    before = slowdown()
    p = run_worker(workload, seed, setup_only=True)
    return p.setup_s / ((before + slowdown()) / 2)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[float], list[Pass]]:
    """Set-up probes, then passes until the pass boundary nearest the
    window's end (traced runs alternate untraced and traced passes and
    have at least one of each)."""
    probes = [setup_probe(workload, seed) for _ in range(SETUP_PROBES)]
    passes: list[Pass] = []
    spans = OUT / ("%s.spans.csv.gz" % workload)
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_worker(workload, seed, spans if traced else None))
        elapsed = time.monotonic() - start
        both = not trace or len(passes) >= 2
        if both and elapsed + passes[-1].seconds / 2 >= seconds:
            break
        if elapsed + passes[-1].seconds > MEASURE_LIMIT_S:
            break
    return probes, passes


def percentile(values: list[float], p: int) -> float:
    """The p-th percentile, p in 1..99, interpolating between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def input_latencies(passes: list[Pass], adjust: bool = True) -> list[float]:
    """Each input's median latency over the passes, each latency first
    divided by the host's slowdown around it unless adjust is false."""
    per_input: dict[str, list[float]] = {}
    for p in passes:
        for (k, seconds, *_), slow in zip(p.records, p.slowdown):
            per_input.setdefault(k, []).append(seconds / slow if adjust else seconds)
    return [statistics.median(v) for v in per_input.values()]


def ops_per_s(passes: list[Pass], adjust: bool = True) -> float:
    """Inputs per second of their median latencies."""
    lat = input_latencies(passes, adjust)
    return len(lat) / sum(lat)


def end_to_end(probes: list[float], passes: list[Pass], ok: int, attempted: int) -> dict:
    """metric -> (value, samples) over the untraced passes."""
    lat = input_latencies(passes)
    n = "%d inputs, median of %d passes" % (len(lat), len(passes))
    return {
        "ops_per_s": (ops_per_s(passes), n),
        "op_p50_s": (statistics.median(lat), n),
        "op_p90_s": (percentile(lat, 90), n),
        "setup_s": (statistics.median(probes), "%d set-ups" % len(probes)),
        "peak_rss_mb": (statistics.median(p.peak_rss_kb for p in passes) / 1024,
                        "%d passes" % len(passes)),
        "ok_rate": (ok / attempted, "%d ops" % attempted),
    }


def per_layer(workload: str, untraced: list[Pass], traced: list[Pass], ref: dict) -> dict:
    """metric -> (value, samples): medians over traced passes of each
    pass's layer totals, the counters kept by the run, and the overhead."""
    n = "%d traced passes" % len(traced)
    out = {}
    for name in traced[0].layers:
        out[name] = (statistics.median(p.layers[name] for p in traced), n)
    regions, kept = out["tiling.regions"][0], out["tiling.tilings_kept"][0]
    out["tiling.kept_per_region"] = (kept / regions if regions else 0.0,
                                     "%d tilings / %d regions" % (kept, regions))
    # counts of one pass; every pass runs the same inputs
    records = traced[0].records
    ok = [(r[0], r[3]) for r in records if r[2] == "ok"]
    lower = ok if workload == "lower-sums" else []
    out["tiling.bridge_mismatch"] = (workloads.bridge_mismatch(lower, ref), "%d lower sums" % len(lower))
    matrices = ok if workload == "matrix-inverse" else []
    for name in ("m_nnz", "minv_nnz"):
        out["incidence." + name] = (sum(s[name] for _, s in matrices), "%d matrices" % len(matrices))
    trees = records if workload == "tree-eval" else []
    out["treeform.finished"] = (sum(1 for r in trees if r[2] == "ok"), "%d trees" % len(trees))
    out["treeform.stuck"] = (sum(1 for r in trees if r[2] == "refused"), "%d trees" % len(trees))
    plain, slow = ops_per_s(untraced), ops_per_s(traced)
    out["trace.untraced_ops_per_s"] = (plain, "%d untraced passes" % len(untraced))
    out["trace.traced_ops_per_s"] = (slow, n)
    out["trace.overhead_ops_per_s"] = (plain - slow, "%d + %d passes" % (len(untraced), len(traced)))
    return out


def git_commit() -> str:
    """HEAD, with "-dirty" and the changed paths when the benchmark or
    the program differ from it, since a run measures the tree as it is."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != str(ROOT):
            return "unknown (not a git checkout)"
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--",
                                 "src", "perfbench", "BENCHMARK.json"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if status.returncode != 0:
        return lines[1] + "-dirty (git status failed)"
    changed = [line[3:] for line in status.stdout.splitlines()]
    if not changed:
        return lines[1]
    shown = ", ".join(changed[:10]) + (", ..." if len(changed) > 10 else "")
    return "%s-dirty (%d changed: %s)" % (lines[1], len(changed), shown)


def provenance(args) -> dict:
    return {
        "command": command_line(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "optimize": sys.flags.optimize,
        "workers": 1,
        "hash_seed": "0",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    probes, passes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    inputs = workloads.make_inputs(args.workload, args.seed)
    ref = workloads.reference(args.workload, inputs)

    ok, refused, failures = workloads.tally(args.workload, [r for p in passes for r in p.records], ref)
    attempted = sum(len(p.records) for p in passes)
    failed = attempted - ok - refused
    correct = not failures

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    if args.trace:
        metrics = per_layer(args.workload, untraced, traced, ref)
    else:
        metrics = end_to_end(probes, untraced, ok, attempted)
    units = {m["name"]: m["unit"] for m in spec()["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from their list: %s" % sorted(set(metrics) ^ set(units)))
    metrics = {k: metrics[k] for k in units}

    prov = provenance(args)
    detail = {
        "provenance": prov,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "refused": refused,
        "error_rate": (failed + refused) / attempted,
        "failures": failures[:50],
        "metrics": {k: {"value": v, "unit": units[k], "samples": s} for k, (v, s) in metrics.items()},
        "passes": [{"traced": p.traced, "setup_s": p.setup_s, "seconds": p.seconds,
                    "ops": len(p.records), "peak_rss_kb": p.peak_rss_kb,
                    "latencies": [r[1] for r in p.records], "slowdown": p.slowdown}
                   for p in passes],
        "setup_probes_s": probes,
    }
    (OUT / ("%s.trace%d.json" % (args.workload, args.trace))).write_text(json.dumps(detail, indent=1))

    print("dycktile benchmark  workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("command: %s" % " ".join(prov["command"]))
    print("commit %s  python %s  nproc %d  optimize %d  workers %d  PYTHONHASHSEED %s"
          % (prov["commit"], prov["python"], prov["nproc"], prov["optimize"], prov["workers"],
             prov["hash_seed"]))
    print("%-30s %16s  %-14s %s" % ("metric", "value", "unit", "samples"))
    for k, (v, s) in metrics.items():
        print("%-30s %16.6g  %-14s %s" % (k, v, units[k], s))
    if not args.trace:
        print("%-30s %16.6g  %-14s %d ops (%d failed, %d refused)"
              % ("error_rate", (failed + refused) / attempted, "share", attempted, failed, refused))
        slow = [s for p in untraced for s in p.slowdown]
        print("%-30s %16.6g  %-14s median over %d ops; ops_per_s unadjusted %.6g"
              % ("host slowdown", statistics.median(slow), "ratio", len(slow),
                 ops_per_s(untraced, adjust=False)))
    for line in failures[:10]:
        print("FAILED %s" % line)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # on SIGTERM, unwind so run_worker kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    prepare("run.py")
    import workloads

    sys.exit(main())
