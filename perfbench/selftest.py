"""Fast self-tests of the benchmark harness (a few seconds).

    python3 perfbench/selftest.py

They run the workloads' operations on small inputs; none of them
measures anything.
"""

from __future__ import annotations

import sys
import unittest

from env import prepare, spec

prepare("selftest")

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from run import Pass, input_latencies, ops_per_s  # noqa: E402
from tracer import TARGETS, Tracer, self_times  # noqa: E402

# workload -> input size small enough for a test; tree-eval at 6 has
# two stuck trees, so refusals are exercised too
SMALL = {"lower-sums": 4, "upper-sums": 4, "matrix-inverse": 3, "tree-eval": 6}


def small_pass(workload: str, tracer=None) -> list:
    inputs = workloads.make_inputs(workload, 5, SMALL[workload])
    return workloads.run_pass(workload, inputs, tracer)


def without_times(records: list) -> list:
    return [[k, status, summary] for k, _, status, summary in records]


class Inputs(unittest.TestCase):
    def test_same_seed_gives_same_inputs(self):
        for w in workloads.NAMES:
            first = workloads.make_inputs(w, 11)
            self.assertEqual(first, workloads.make_inputs(w, 11))
            self.assertEqual(sorted(map(workloads.key, first)),
                             sorted(map(workloads.key, workloads.population(w))))

    def test_seed_changes_the_order(self):
        for w in ("lower-sums", "upper-sums", "tree-eval"):
            self.assertNotEqual(workloads.make_inputs(w, 1), workloads.make_inputs(w, 2))


class Checking(unittest.TestCase):
    def test_every_small_output_matches_its_reference(self):
        for w in workloads.NAMES:
            records = small_pass(w)
            inputs = workloads.make_inputs(w, 5, SMALL[w])
            ok, refused, failures = workloads.tally(w, records, workloads.reference(w, inputs))
            self.assertEqual(failures, [], w)
            self.assertEqual(ok + refused, len(records), w)
            self.assertEqual(refused, 2 if w == "tree-eval" else 0, w)

    def test_wrong_reference_counts_a_failed_op(self):
        for w in workloads.NAMES:
            records = small_pass(w)
            inputs = workloads.make_inputs(w, 5, SMALL[w])
            ref = workloads.reference(w, inputs)
            victim = next(r[0] for r in records if r[2] == "ok")
            want = ref["expect"][victim]
            if w in ("lower-sums", "upper-sums"):
                ref["expect"][victim] = want + [1]
            elif w == "tree-eval":
                want["minv_row_sum"] = want["minv_row_sum"] + [1]
            else:
                want["row_sums"][0] = want["row_sums"][0] + [1]
            ok, refused, failures = workloads.tally(w, records, ref)
            self.assertEqual(len(failures), 1, w)
            self.assertTrue(failures[0].startswith(victim + ":"), failures)
            self.assertEqual(ok + refused + 1, len(records), w)

    def test_raised_error_counts_a_failed_op(self):
        records = small_pass("lower-sums")
        records[0] = [records[0][0], 0.0, "error", "ValueError: boom"]
        ref = workloads.reference("lower-sums", workloads.make_inputs("lower-sums", 5, 4))
        ok, refused, failures = workloads.tally("lower-sums", records, ref)
        self.assertEqual((ok, refused, len(failures)), (len(records) - 1, 0, 1))

    def test_bridge_mismatch_counts_differing_lower_sums(self):
        records = small_pass("lower-sums")
        ref = workloads.reference("lower-sums", workloads.make_inputs("lower-sums", 5, 4))
        ops = [(r[0], r[3]) for r in records]
        self.assertEqual(workloads.bridge_mismatch(ops, ref), 0)
        ops[0] = (ops[0][0], ops[0][1] + [1])
        self.assertEqual(workloads.bridge_mismatch(ops, ref), 1)


class Latency(unittest.TestCase):
    def test_latency_is_adjusted_then_the_median_over_passes(self):
        def one(a, b, slowdown):
            return Pass(0.1, 1.0, False, [["a", a, "ok", []], ["b", b, "ok", []]], [slowdown] * 2)
        passes = [one(1.5, 3.0, 3.0), one(0.5, 2.0, 1.0), one(2.0, 1.0, 2.0)]
        # adjusted: a 0.5, 0.5, 1.0 and b 1.0, 2.0, 0.5
        self.assertEqual(input_latencies(passes), [0.5, 1.0])
        self.assertEqual(input_latencies(passes, adjust=False), [1.5, 2.0])
        self.assertEqual(ops_per_s(passes), 2 / 1.5)

    def test_sampler_gives_each_op_the_mean_of_the_samples_around_it(self):
        sampler = hostspeed.Sampler()
        sampler.at, sampler.samples = [0, 2, 3], [1.0, 3.0, 2.0]
        self.assertEqual(sampler.per_op(3), [2.0, 2.0, 2.5])
        self.assertGreater(hostspeed.slowdown(), 0)


class SelfTime(unittest.TestCase):
    def test_self_time_is_duration_minus_covered_child_time(self):
        # root [0, 10]; children a [1, 4] and b [3, 6] overlap, c [8, 12]
        # runs past the root; d [2, 3] is a's child
        start = [0.0, 1.0, 3.0, 8.0, 2.0]
        end = [10.0, 4.0, 6.0, 12.0, 3.0]
        parent = [-1, 0, 0, 0, 1]
        got = self_times(start, end, parent)
        # root: covered [1, 6] and [8, 10] = 7
        self.assertEqual(got, [3.0, 2.0, 3.0, 4.0, 1.0])

    def test_tracer_spans_nest_and_sum(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        outer = tracer.open("outer")   # t = 0
        inner = tracer.open("inner")   # t = 1
        tracer.close(inner)            # t = 2
        tracer.close(outer)            # t = 3
        self.assertEqual(list(tracer.parent), [-1, outer])
        self.assertEqual(self_times(tracer.start, tracer.end, tracer.parent), [2.0, 1.0])


class Tracing(unittest.TestCase):
    def test_traced_and_untraced_passes_give_identical_outputs(self):
        originals = {(path, attr): _lookup(path, attr) for path, attr, _ in TARGETS}
        for w in workloads.NAMES:
            plain = small_pass(w)
            tracer = Tracer()
            tracer.install(workloads.MODULES)
            try:
                traced = small_pass(w, tracer)
            finally:
                tracer.uninstall()
            self.assertEqual(without_times(plain), without_times(traced), w)
            self.assertGreater(len(tracer.start), len(traced), w)
            for (path, attr), fn in originals.items():
                self.assertIs(_lookup(path, attr), fn)

    def test_layer_metrics_count_calls_and_tilings(self):
        tracer = Tracer()
        tracer.install(workloads.MODULES)
        try:
            records = small_pass("lower-sums", tracer)
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics()
        self.assertEqual(set(layers) - {m["name"] for m in spec()["per_layer"]}, set())
        self.assertGreater(layers["tiling.regions"], len(records))
        self.assertGreater(layers["tiling.tilings_kept"], 0)
        self.assertEqual(layers["incidence.build_s"], 0)


def _lookup(path: str, attr: str):
    owner = workloads.MODULES[path.split(".")[0]]
    for part in path.split(".")[1:]:
        owner = getattr(owner, part)
    return getattr(owner, attr)


if __name__ == "__main__":
    sys.exit(unittest.main())
