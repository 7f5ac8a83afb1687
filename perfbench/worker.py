"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace PATH] [--setup-only]

Imports dycktile from the checkout's src/, builds the inputs from the
seed, prints "ready" once set-up is done (run.py times set-up up to
that line), then runs every input once and prints one JSON line with
each operation's latency, status and output summary, and the host's
slowdown around each operation (hostspeed.py).  With --trace
PATH the pass records spans, writes them to PATH and adds the
per-layer metrics.  Exits 2 without output when it cannot run.
"""

from __future__ import annotations

import argparse
import json
import sys


def peak_rss_kb() -> int:
    """This process's peak resident memory since exec, in KiB.

    Not ru_maxrss: Linux carries the forked parent's peak across exec
    into it, and run.py grows with every pass it collects.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", metavar="PATH", help="record spans and write them here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    inputs = workloads.make_inputs(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    sampler = Sampler()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(workloads.MODULES)
    try:
        records = workloads.run_pass(args.workload, inputs, tracer, sampler)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {"records": records, "slowdown": sampler.per_op(len(records)), "peak_rss_kb": peak_rss_kb()}
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        tracer.write(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    from env import prepare

    prepare("worker")
    import workloads
    from hostspeed import Sampler
    from tracer import Tracer

    sys.exit(main())
