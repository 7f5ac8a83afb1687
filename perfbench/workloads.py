"""The four workloads: their inputs, one operation each, and references.

Every workload has a fixed population of inputs.  A pass runs the whole
population once, in an order drawn from the seed, in a fresh
interpreter; a run repeats passes for its time window.  The population
is fixed rather than sampled because per-input cost is heavy-tailed
(at length 8 the costliest tenth of the words takes 70% of the lower
sums' time), so a sample's total depends on which heavy words it
drew, and the spread between seeds would exceed any useful bound.

Outputs are reduced to JSON summaries outside the timed region, and a
run checks each summary against a reference computed once, after the
passes, by a different route through the package:

- lower-sums: omega of the word's tree where it finishes, otherwise the
  family-B lower sum of the truncated word;
- upper-sums: the family-B upper sum of the truncated word;
- matrix-inverse: nonnegative coefficients, row sums equal to those of
  a forward substitution M r = 1, kind-I row sums equal to omega where
  it finishes, and the n = 4 golden tables;
- tree-eval: the kind-I Minv row sums from the same substitution, and
  factorized_p_d on the words of its shapes.

A StuckTreeError is a refusal: counted apart from failures, never
checked.  Any other exception, or a summary that differs from the
reference, is a failed operation.
"""

from __future__ import annotations

import random
import time

from dycktile import golden, incidence, qpoly, tiling, treeform
from dycktile.pathword import PathWord, all_words, truncate_last
from dycktile.qpoly import ONE, ZERO, PolyQ
from dycktile.treeform import StuckTreeError

from env import spec

LOWER_LENGTH = 7
UPPER_LENGTH = 7
MATRIX_LENGTH = 8
TREE_LENGTH = 10

NAMES = tuple(w["name"] for w in spec()["workloads"])

REFUSALS = (StuckTreeError,)


def population(workload: str, length: int | None = None) -> list:
    """Every input of the workload, in a fixed order.

    length overrides the workload's size; the self-tests use it to run
    the same operations on small inputs.
    """
    if workload == "matrix-inverse":
        n = length or MATRIX_LENGTH
        return [(n, eps, kind) for eps in (0, 1) for kind in ("I", "II")]
    default = {"lower-sums": LOWER_LENGTH, "upper-sums": UPPER_LENGTH, "tree-eval": TREE_LENGTH}
    return list(all_words(length or default[workload]))


def make_inputs(workload: str, seed: int, length: int | None = None) -> list:
    """The population in the order drawn from the seed."""
    if workload not in NAMES:
        raise ValueError("unknown workload %r" % (workload,))
    items = population(workload, length)
    random.Random(seed).shuffle(items)
    return items


def key(x) -> str:
    if isinstance(x, PathWord):
        return x.steps
    n, eps, kind = x
    return "n=%d eps=%d kind=%s" % (n, eps, kind)


# -- operations (timed) and their summaries (untimed) -----------------------


def operation(workload: str):
    """The timed call for one input; looked up through module attributes
    so a traced pass sees the wrapped functions."""
    if workload == "lower-sums":
        return lambda w: tiling.genfun_lower(w, tiling.TYPE_D, "art")
    if workload == "upper-sums":
        return lambda w: tiling.genfun_upper(w, tiling.TYPE_D, "tiles")
    if workload == "matrix-inverse":
        def build_and_invert(x):
            m = incidence.build(*x)
            return m, incidence.invert(m)
        return build_and_invert
    if workload == "tree-eval":
        return lambda w: treeform.omega(treeform.build_tree(w))
    raise ValueError("unknown workload %r" % (workload,))


def summarize(workload: str, raw):
    """A JSON-able digest of one output, made outside the timed region."""
    if workload == "matrix-inverse":
        m, inv = raw
        return {
            "basis": [w.steps for w in inv.basis],
            "min_coeff": min((c for row in inv.entries for p in row for c in p.coeffs), default=0),
            "row_sums": [list(sum(row, ZERO).coeffs) for row in inv.entries],
            "m_nnz": sum(1 for row in m.entries for p in row if p),
            "minv_nnz": sum(1 for row in inv.entries for p in row if p),
        }
    return list(raw.coeffs)


def run_pass(workload: str, inputs: list, tracer=None, sampler=None) -> list:
    """[key, seconds, status, summary or reason] per input, in order.

    status is "ok", "refused" (a StuckTreeError) or "error".  Only the
    operation itself is timed; its summary is made after the clock
    stops.  Under a tracer each operation is one root span.  A
    hostspeed.Sampler, if given, samples the host between operations.
    """
    op = operation(workload)
    records = []
    clock = time.perf_counter
    for i, x in enumerate(inputs):
        span = tracer.open("op") if tracer is not None else None
        t0 = clock()
        try:
            raw = op(x)
            status = "ok"
        except REFUSALS as exc:
            status, raw = "refused", "%s: %s" % (type(exc).__name__, exc)
        except Exception as exc:  # any other raise is a failed operation
            status, raw = "error", "%s: %s" % (type(exc).__name__, exc)
        elapsed = clock() - t0
        if span is not None:
            tracer.close(span)
        summary = summarize(workload, raw) if status == "ok" else raw
        records.append([key(x), elapsed, status, summary])
        if sampler is not None:
            sampler.after(i, elapsed)
    return records


# -- references (computed once per run, after the passes) -------------------


def minv_row_sums(m: incidence.IncidenceMatrix) -> dict[str, PolyQ]:
    """Row sums of the inverse of m without inverting it.

    The row sums r of Minv solve M r = (1, ..., 1); M is lower
    unitriangular, so forward substitution needs one pass over its
    nonzeros.
    """
    r: list[PolyQ] = []
    for i, row in enumerate(m.entries):
        if row[i] != ONE:
            raise ValueError("matrix is not unitriangular at %s" % m.basis[i].steps)
        acc = ONE
        for k in range(i):
            if row[k]:
                acc = acc - row[k] * r[k]
        r.append(acc)
    return {w.steps: p for w, p in zip(m.basis, r)}


def _kind_i_row_sums(n: int) -> dict[str, list[int]]:
    """Kind-I Minv row sums of every length-n word, both signs."""
    rows = {}
    for eps in (0, 1):
        rows.update(minv_row_sums(incidence.build(n, eps, "I")))
    return {k: list(p.coeffs) for k, p in rows.items()}


def _omega(w: PathWord) -> list[int] | None:
    """omega's coefficients, or None when the tree is stuck."""
    try:
        return list(treeform.omega(treeform.build_tree(w)).coeffs)
    except StuckTreeError:
        return None


def _golden_failures() -> list[str]:
    plan = (
        ("M", "I", golden.M_4_0, False),
        ("N", "II", golden.N_4_0, False),
        ("Minv", "I", golden.M_INV_4_0, True),
        ("Ninv", "II", golden.N_INV_4_0, True),
    )
    out = []
    for name, kind, rows, inverse in plan:
        m = incidence.build(4, 0, kind)
        if inverse:
            m = incidence.invert(m)
        if [w.steps for w in m.basis] != golden.BASIS_4_0 or [list(r) for r in m.entries] != rows:
            out.append("golden table %s differs at n = 4" % name)
    return out


def reference(workload: str, inputs: list) -> dict:
    """Expected values keyed by input, plus run-level facts.

    Returns {"expect": {key: value}, "failures": [...]} where failures
    lists checks that do not belong to a single operation (the golden
    tables), and "minv_row_sum" holds the Minv row sums of the lower
    sums' words for the bridge count.
    """
    ref: dict = {"expect": {}, "failures": []}
    if workload == "lower-sums":
        ref["minv_row_sum"] = _kind_i_row_sums(inputs[0].length)
        for w in inputs:
            value = _omega(w)
            if value is None:
                value = list(tiling.genfun_lower(truncate_last(w), tiling.TYPE_B, "art").coeffs)
            ref["expect"][w.steps] = value
    elif workload == "upper-sums":
        for w in inputs:
            value = tiling.genfun_upper(truncate_last(w), tiling.TYPE_B, "tiles")
            ref["expect"][w.steps] = list(value.coeffs)
    elif workload == "matrix-inverse":
        ref["failures"] = _golden_failures()
        for x in inputs:
            m = incidence.build(*x)
            rows = minv_row_sums(m)
            ref["expect"][key(x)] = {
                "basis": [w.steps for w in m.basis],
                "row_sums": [list(rows[w.steps].coeffs) for w in m.basis],
                "omega": [_omega(w) for w in m.basis] if x[2] == "I" else None,
            }
    elif workload == "tree-eval":
        rows = _kind_i_row_sums(inputs[0].length)
        for w in inputs:
            want = {"minv_row_sum": rows[w.steps]}
            try:
                want["factorized_p_d"] = list(treeform.factorized_p_d(w).coeffs)
            except ValueError:
                pass
            ref["expect"][w.steps] = want
    else:
        raise ValueError("unknown workload %r" % (workload,))
    return ref


def check(workload: str, k: str, summary, ref: dict) -> str | None:
    """None when the summary of input k is correct, else the reason."""
    want = ref["expect"].get(k)
    if want is None:
        return "no reference for %s" % k
    if workload in ("lower-sums", "upper-sums"):
        return None if summary == want else "got %s, reference %s" % (summary, want)
    if workload == "tree-eval":
        for source, value in want.items():
            if summary != value:
                return "got %s, %s %s" % (summary, source, value)
        return None
    if summary["basis"] != want["basis"]:
        return "basis order differs"
    if summary["min_coeff"] < 0:
        return "negative inverse coefficient %d" % summary["min_coeff"]
    if summary["row_sums"] != want["row_sums"]:
        return "row sums differ from forward substitution"
    if want["omega"] is not None:
        for w, got, om in zip(want["basis"], summary["row_sums"], want["omega"]):
            if om is not None and got != om:
                return "row sum of %s is %s, omega %s" % (w, got, om)
    return None


def tally(workload: str, records: list, ref: dict) -> tuple[int, int, list[str]]:
    """(correct ops, refused ops, failure reasons) for run_pass records.

    The reasons include the reference's own run-level failures, so a
    run is correct exactly when the list is empty.
    """
    ok = refused = 0
    failures = list(ref["failures"])
    for k, _, status, summary in records:
        if status == "refused":
            refused += 1
            continue
        reason = summary if status == "error" else check(workload, k, summary, ref)
        if reason is None:
            ok += 1
        else:
            failures.append("%s: %s" % (k, reason))
    return ok, refused, failures


def bridge_mismatch(ops: list, ref: dict) -> int:
    """Lower sums among ops (key, summary) that differ from the Minv row sum."""
    rows = ref.get("minv_row_sum")
    if rows is None:
        return 0
    return sum(1 for k, summary in ops if summary != rows[k])


# the modules a tracer wraps, by the names tracer.TARGETS uses
MODULES = {"tiling": tiling, "incidence": incidence, "treeform": treeform, "qpoly": qpoly}
