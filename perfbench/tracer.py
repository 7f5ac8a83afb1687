"""Spans around calls into dycktile's public functions, recorded in memory.

A traced pass replaces each function in TARGETS with a wrapper on the
object its caller looks it up on (`incidence.flip`, not
`linkflip.flip`), so the program itself is unchanged.  Each call
records one span: name, start, end and the span that was open when it
started.  Spans stay in flat arrays until the pass ends; `uninstall`
restores every original function.

The self time of a span is its duration minus the part of its interval
covered by its child spans.  Every `*_s` per-layer metric is a sum of
self times, so the layer times of one pass add up without double
counting.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter

# (module attribute path, attribute, span name).  A span name is the
# layer that owns the function, whichever module calls it.
TARGETS = (
    ("tiling", "genfun_pair", "tiling.genfun_pair"),
    ("tiling", "build_region", "tiling.build_region"),
    ("tiling", "enumerate_tilings", "tiling.enumerate_tilings"),
    ("tiling", "is_above", "pathword.is_above"),
    ("tiling", "enumerate_type_d", "pathword.enumerate_type_d"),
    ("incidence", "build", "incidence.build"),
    ("incidence", "invert", "incidence.invert"),
    ("incidence", "flip", "linkflip.flip"),
    ("incidence", "enumerate_type_d", "pathword.enumerate_type_d"),
    ("treeform", "build_tree", "treeform.build_tree"),
    ("treeform", "omega", "treeform.omega"),
    ("treeform", "link_pattern", "linkflip.link_pattern"),
    ("treeform", "exact_div", "qpoly.exact_div"),
    ("qpoly", "exact_div", "qpoly.exact_div"),
    ("qpoly.PolyQ", "__mul__", "qpoly.mul"),
)

# per-layer metric -> span name whose self times it sums
SELF_TIME_METRICS = {
    "tiling.build_region_s": "tiling.build_region",
    "tiling.enumerate_s": "tiling.enumerate_tilings",
    "tiling.genfun_pair_s": "tiling.genfun_pair",
    "incidence.build_s": "incidence.build",
    "incidence.invert_s": "incidence.invert",
    "linkflip.flip_s": "linkflip.flip",
    "linkflip.link_pattern_s": "linkflip.link_pattern",
    "qpoly.mul_s": "qpoly.mul",
    "qpoly.exact_div_s": "qpoly.exact_div",
    "treeform.build_tree_s": "treeform.build_tree",
    "treeform.omega_s": "treeform.omega",
    "pathword.enumerate_type_d_s": "pathword.enumerate_type_d",
}

# per-layer metric -> span name whose calls it counts
CALL_METRICS = {
    "tiling.regions": "tiling.build_region",
    "linkflip.flip_calls": "linkflip.flip",
    "qpoly.mul_calls": "qpoly.mul",
    "qpoly.exact_div_calls": "qpoly.exact_div",
    "pathword.is_above_calls": "pathword.is_above",
}


def _count_tilings(counts: Counter, tilings) -> None:
    counts["tiling.tilings_kept"] += len(tilings)
    if not tilings:
        counts["tiling.empty_regions"] += 1


# span name -> hook that records counters from the call's result
RESULT_HOOKS = {"tiling.enumerate_tilings": _count_tilings}


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the time its children cover.

    Children are clipped to their parent's interval and overlapping
    children count once.
    """
    children: dict[int, list[int]] = {}
    for k, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(k)
    out = []
    for k in range(len(start)):
        s, e = start[k], end[k]
        covered = 0.0
        reach = s
        for c in sorted(children.get(k, ()), key=start.__getitem__):
            lo, hi = max(start[c], reach), min(end[c], e)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((e - s) - covered)
    return out


class Tracer:
    """Records spans from wrapped functions; one tracer per pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its index."""
        k = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(k)
        self.start.append(self.clock())
        return k

    def close(self, k: int) -> None:
        self.end[k] = self.clock()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace owner.attr by a wrapper that records a span per call."""
        original = getattr(owner, attr)
        hook = RESULT_HOOKS.get(name)
        nid = self._id(name)
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        stack, clock, counts = self._stack, self.clock, self.counts

        # open() and close() inlined: this runs once per PolyQ product
        def traced(*args, **kwargs):
            k = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(k)
            start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                end[k] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def install(self, modules: dict) -> None:
        """Wrap every target; modules maps 'tiling' etc. to the module."""
        for path, attr, name in TARGETS:
            owner = modules[path.split(".")[0]]
            for part in path.split(".")[1:]:
                owner = getattr(owner, part)
            self.wrap(owner, attr, name)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Self times and call counts per layer, plus hook counters."""
        selfs = self_times(self.start, self.end, self.parent)
        total_self = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for nid, t in zip(self.name_id, selfs):
            total_self[nid] += t
            calls[nid] += 1

        def by_name(values, name):
            return values[self._ids[name]] if name in self._ids else 0

        out: dict[str, float] = {}
        for metric, name in SELF_TIME_METRICS.items():
            out[metric] = by_name(total_self, name)
        for metric, name in CALL_METRICS.items():
            out[metric] = by_name(calls, name)
        out["tiling.tilings_kept"] = self.counts["tiling.tilings_kept"]
        out["tiling.empty_regions"] = self.counts["tiling.empty_regions"]
        return out

    def write(self, path) -> None:
        """Spans as gzip'd CSV lines: index, name, start, end, parent."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start,end,parent\n")
            for k in range(len(self.start)):
                fh.write(
                    "%d,%s,%.9f,%.9f,%d\n"
                    % (k, self.names[self.name_id[k]], self.start[k], self.end[k], self.parent[k])
                )
