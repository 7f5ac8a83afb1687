"""Acceptance gate: twelve criteria, one printed line each.

Each criterion runs its check from the `verify` registry at a fixed
bound; the structural checks `verify` does not run are written here.
Run with `pytest -s tests/test_acceptance.py` to see the lines; each
criterion also enforces its own wall-clock budget.
"""

import functools
import itertools
import time

from dycktile.cli import run_check
from dycktile.incidence import build
from dycktile.linkflip import flip, pair_arcs
from dycktile.pathword import all_words, is_above, truncate_last
from dycktile.qpoly import ZERO
from dycktile.tiling import (
    EXCLUSIVE,
    INCLUSIVE,
    TYPE_B,
    TYPE_D,
    build_region,
    check_exact_cover,
    enumerate_tilings,
    project_to_type_b,
    tiling_record,
    upper_words,
)


def criterion(number, name, budget):
    """Print a pass/fail line for the check and enforce its budget."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.monotonic()
            try:
                fn()
            except BaseException:
                print("criterion %02d %s: FAIL" % (number, name))
                raise
            elapsed = time.monotonic() - start
            print("criterion %02d %s: pass (%.2fs)" % (number, name, elapsed))
            assert elapsed <= budget, "budget %ss exceeded: %.2fs" % (budget, elapsed)

        return run

    return wrap


def passes(name, bound):
    """Run a registry check and require a clean pass at this bound."""
    report = run_check(name, bound)
    assert report["passed"], report["failures"][:5]
    assert report["skipped"] == 0
    assert report["bound"] == bound


def _words_through(max_len):
    for n in range(max_len + 1):
        yield from all_words(n)


@criterion(1, "golden matrices", budget=1.0)
def test_golden_matrices():
    passes("golden-matrices", 5)


@criterion(2, "matrix tiling bridge", budget=60.0)
def test_matrix_tiling_bridge():
    passes("matrix-bridge", 6)
    for eps in (0, 1):
        for kind in ("I", "II"):
            m = build(4, eps, kind)
            for lam, mu in itertools.product(m.basis, repeat=2):
                if not is_above(mu, lam):
                    assert m.entry(lam, mu) == ZERO


# Criteria 3 (the DDUUDD count) and 10 (the area of the pinned pair)
# are both among the registry's pinned values.
@criterion(3, "DDUUDD count", budget=1.0)
def test_dduudd_count():
    passes("pinned-values", 6)


@criterion(4, "projection to ballot tilings", budget=300.0)
def test_projection_to_ballot_tilings():
    passes("lower-sum-projection", 5)
    for w in _words_through(5):
        if not w.length:
            continue
        for mu in upper_words(w, TYPE_D):
            region = build_region(w, mu, TYPE_D)
            target = build_region(truncate_last(w), truncate_last(mu), TYPE_B)
            for cls in (INCLUSIVE, EXCLUSIVE):
                images = []
                for t in enumerate_tilings(region, cls):
                    image = project_to_type_b(t)
                    assert image.art == t.art and image.tile_count == t.tile_count
                    images.append(tiling_record(image))
                assert len(set(images)) == len(images)
                wanted = sorted(tiling_record(t) for t in enumerate_tilings(target, cls))
                assert sorted(images) == wanted


@criterion(5, "down up tail product", budget=300.0)
def test_down_up_tail_product():
    passes("tail-product", 5)


@criterion(6, "hook product for Dyck words", budget=30.0)
def test_hook_product_for_dyck_words():
    passes("hook-product", 8)


@criterion(7, "ballot tail product", budget=120.0)
def test_ballot_tail_product():
    passes("ballot-tail-product", 5)


@criterion(8, "tree evaluation", budget=120.0)
def test_tree_evaluation():
    passes("tree-evaluation", 5)


@criterion(9, "upper sums by tile count", budget=300.0)
def test_upper_sums_by_tile_count():
    passes("upper-sum-tiles", 5)


@criterion(10, "area of the pinned pair", budget=1.0)
def test_area_of_the_pinned_pair():
    passes("pinned-values", 6)


@criterion(11, "inverse positivity", budget=120.0)
def test_inverse_positivity():
    passes("matrix-positivity", 5)


@criterion(12, "structural suite", budget=600.0)
def test_structural_suite():
    passes("merge-confluence", 5)
    # Exact cover and at most one exclusive tiling, families D and B.
    for w in _words_through(5):
        for tag in (TYPE_D, TYPE_B):
            if not w.length and tag == TYPE_B:
                continue
            for mu in upper_words(w, tag):
                region = build_region(w, mu, tag)
                for cls in (INCLUSIVE, EXCLUSIVE):
                    found = enumerate_tilings(region, cls)
                    for t in found:
                        check_exact_cover(region, t.tiles)
                    if cls == EXCLUSIVE:
                        assert len(found) <= 1
    # Flip subsets give distinct words and never change the sign.
    for w in _words_through(8):
        arcs = pair_arcs(w).all_arcs()
        seen = set()
        for r in range(len(arcs) + 1):
            for subset in itertools.combinations(arcs, r):
                image = flip(w, subset)
                assert image.steps not in seen
                seen.add(image.steps)
                assert image.epsilon == w.epsilon
