import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import dycktile
from dycktile.incidence import build
from dycktile.pathword import (
    PathWord,
    all_words,
    dyck_words,
    enumerate_type_d,
    is_above,
    truncate_last,
)
from dycktile.qpoly import ONE, PolyQ, ZERO, prod
from dycktile.tiling import (
    EXCLUSIVE,
    INCLUSIVE,
    WEIGHTS,
    CandidatePool,
    Region,
    Tile,
    Tiling,
    build_region,
    enumerate_tilings,
    genfun_lower,
    genfun_pair,
    genfun_upper,
    lift_from_type_b,
    lower_words,
    project_to_type_b,
    record_order,
    render_svg,
    sum_pool,
    sum_tilings,
    tally,
    tiling_record,
    upper_words,
    _atom_residue,
    _candidates,
    _universe,
)

W = PathWord


def poly(*coeffs):
    return PolyQ(coeffs)


def factors(*coeff_lists):
    return prod([PolyQ(c) for c in coeff_lists])


# -- regions ---------------------------------------------------------------


def test_region_interior_cells():
    r = build_region(W("DUDU"), W("UUDD"), "D")
    assert sorted(r.unit_cells) == [(1, 0), (2, 1), (3, 0)]
    assert not r.atoms


def test_region_with_two_by_two():
    r = build_region(W("DDUU"), W("UUUU"), "D")
    assert sorted(r.unit_cells) == [(1, 0), (2, -1), (2, 1), (3, 0)]
    assert sorted(r.atoms) == [(4, 2)]
    # the large tile occupies the west/south/north/east unit positions
    assert (3, 2) in r.all_cells and (5, 2) in r.all_cells


def test_region_two_by_two_absorbs_everything():
    r = build_region(W("DD"), W("UU"), "D")
    assert not r.unit_cells
    assert sorted(r.atoms) == [(2, 0)]
    r = build_region(W("UDD"), W("UUU"), "D")
    assert not r.unit_cells
    assert sorted(r.atoms) == [(3, 1)]


def test_region_two_centers():
    r = build_region(W("DDDD"), W("UUUU"), "D")
    assert sorted(r.atoms) == [(4, -2), (4, 2)]


def test_region_family_b_anchors():
    r = build_region(W("DDD"), W("UUU"), "B")
    assert sorted(r.unit_cells) == [(1, 0), (2, -1), (2, 1), (3, -2), (3, 0), (3, 2)]
    assert sorted(r.anchor_cells()) == [(3, -2), (3, 0), (3, 2)]
    r = build_region(W("UUD"), W("UUU"), "B")
    assert sorted(r.unit_cells) == [(3, 2)]
    r = build_region(W("DUD"), W("UUU"), "B")
    assert sorted(r.unit_cells) == [(1, 0), (2, 1), (3, 0), (3, 2)]


def test_region_validation():
    with pytest.raises(ValueError):
        build_region(W("UU"), W("DD"), "B")  # not above
    with pytest.raises(ValueError):
        build_region(W("DU"), W("UD"), "A")  # not Dyck
    with pytest.raises(ValueError):
        build_region(W("UDDD"), W("UUUU"), "D")  # signs differ
    with pytest.raises(ValueError):
        build_region(W("UD"), W("UD"), "X")


def test_empty_region_has_one_empty_tiling():
    r = build_region(W("UDUD"), W("UDUD"), "A")
    assert r.unit_cells == frozenset() and r.atoms == frozenset()
    (t,) = enumerate_tilings(r)
    assert t.tiles == ()
    assert (t.area, t.tile_count, t.art) == (0, 0, 0)


# -- single-pair generating functions ---------------------------------------


def test_pair_weights_with_ballot_tile():
    lam, mu = W("DDUU"), W("UUUU")
    assert genfun_pair(lam, mu, "D", INCLUSIVE, "art") == poly(0, 0, 0, 1, 0, 1)
    assert genfun_pair(lam, mu, "D", INCLUSIVE, "tiles") == poly(0, 1, 0, 0, 0, 1)
    assert genfun_pair(lam, mu, "D", INCLUSIVE, "area") == poly(0, 0, 0, 0, 0, 2)


def test_pair_weights_two_dyck_tilings():
    assert genfun_pair(W("DUDU"), W("UUUU"), "D") == poly(0, 0, 0, 1, 1)


def test_exclusive_pair_is_signed():
    # (-1)^tiles q^weight of the one cover-exclusive tiling, 0 without
    # one, is the pair's entry of M (weight art) or N (weight tiles)
    cases = (
        ("DUDU", "UUUU", "art", ZERO),
        ("DDUU", "UUUU", "art", poly(0, 0, 0, -1)),
        ("DDDD", "UUUU", "art", poly(0, 0, 0, 0, 1)),
        ("DDDD", "UUUU", "tiles", poly(0, 0, 1)),
        ("DUDU", "UUDD", "art", poly(0, 0, -1)),  # one three-cell tile
    )
    for lam, mu, weight, want in cases:
        found = enumerate_tilings(build_region(W(lam), W(mu), "D"), EXCLUSIVE)
        assert len(found) <= 1
        signed = [ONE.scale_by_monomial((-1) ** t.tile_count, t.statistic(weight)) for t in found]
        assert sum(signed, ZERO) == want
        kind = "I" if weight == "art" else "II"
        assert build(4, W(lam).epsilon, kind).entry(W(lam), W(mu)) == want


def test_exclusive_tiling_structure():
    r = build_region(W("DDDD"), W("UUUU"), "D")
    (t,) = enumerate_tilings(r, EXCLUSIVE)
    kinds = sorted(x.kind for x in t.tiles)
    assert kinds == ["ballot_d", "two_by_two"]
    assert (t.area, t.tile_count, t.art) == (6, 2, 4)


# -- aggregated sums over one side ------------------------------------------

LOWER_SUMS_D = {
    "U": [(1,)],
    "DU": [(1, 1)],
    "UDUD": [(1, 1, 1)],
    "UDDU": [(1, 1), (1, 0, 1)],
    "DDU": [(1, 1), (1, 0, 1)],
    "DDUU": [(1, 1), (1, 0, 1), (1, 0, 1)],
    "DDDD": [(1, 1), (1, 0, 1), (1, 0, 0, 1)],
    "UDDDUU": [(1, 1, 1, 1, 1), (1, 0, 1), (1, 0, 0, 1)],
    "UDUDD": [(1, 1), (1, 1), (1, 0, 1)],
    "DUUDUU": [(1, 1, 1), (1, 1, 1, 1, 1, 1)],
    "DUUDUD": [(1, 1, 1), (1, 1, 1, 1, 1, 1)],
}


@pytest.mark.parametrize("steps", sorted(LOWER_SUMS_D))
def test_family_d_lower_sums(steps):
    assert genfun_lower(W(steps), "D") == factors(*LOWER_SUMS_D[steps])


LOWER_SUMS_B = {
    "UU": [(1,)],
    "UD": [(1, 1)],
    "DU": [(1, 1, 1)],
    "DD": [(1, 1), (1, 0, 1)],
    "UUDD": [(1, 1, 1, 1)],
    "UDD": [(1, 1), (1, 0, 1)],
    "DDU": [(1, 1), (1, 0, 1), (1, 0, 1)],
    "DDD": [(1, 1), (1, 0, 1), (1, 0, 0, 1)],
}


@pytest.mark.parametrize("steps", sorted(LOWER_SUMS_B))
def test_family_b_lower_sums(steps):
    assert genfun_lower(W(steps), "B") == factors(*LOWER_SUMS_B[steps])


def test_family_b_per_upper_word_breakdown():
    table = {
        "DDU": "1",
        "DUD": "q",
        "UDD": "q^2",
        "DUU": "q^2",
        "UDU": "q^3",
        "UUD": "q^4",
        "UUU": "q^3 + q^5",  # the q^3 tiling fuses a ballot pair
    }
    lam = W("DDU")
    for mu in all_words(3):
        if is_above(mu, lam):
            assert str(genfun_pair(lam, mu, "B")) == table[mu.steps]


def test_family_a_lower_sums():
    assert genfun_lower(W("UUDD"), "A") == poly(1)
    assert genfun_lower(W("UDUD"), "A") == poly(1, 1)
    assert genfun_lower(W("UDUDUD"), "A") == poly(1, 2, 2, 1)
    assert genfun_lower(W("UUDDUD"), "A") == poly(1, 1, 1)
    with pytest.raises(ValueError):
        genfun_lower(W("DU"), "A")


def test_upper_sums():
    assert genfun_upper(W("UU"), "B") == poly(1, 1)
    assert genfun_upper(W("UUD"), "B") == poly(1, 2, 1)
    assert genfun_upper(W("UUU"), "B") == poly(1, 2, 1)
    assert genfun_upper(W("UUU"), "D") == poly(1, 1)
    assert genfun_upper(W("UUDD"), "D") == poly(1, 2, 1)
    assert genfun_upper(W("UUUU"), "D") == poly(1, 2, 1)


def test_wide_region_count():
    g = genfun_lower(W("DDUUDD"), "D")
    assert g.eval_at_one() == 36
    assert g.coefficient(5) == 6


def test_lower_sums_with_long_glue_runs():
    # Each of these words has a tiling whose ballot tile is glued by a
    # dyck run longer than one box; the sums equal the row sums of the
    # inverse kind-I flip matrix.
    five_four = factors((1, 1, 1, 1, 1), (1, 1, 1, 1), (1, 0, 0, 1))
    assert five_four == poly(1, 2, 3, 5, 6, 6, 6, 5, 3, 2, 1)
    assert genfun_lower(W("DUDDUD"), "D") == five_four
    assert genfun_lower(W("DUDDUU"), "D") == five_four
    assert five_four.eval_at_one() == 40
    assert genfun_lower(W("DDUDDUU"), "D").eval_at_one() == 144
    assert genfun_lower(W("DDUDUUU"), "D").eval_at_one() == 96


def test_invalid_weight_and_class():
    with pytest.raises(ValueError):
        genfun_pair(W("UD"), W("UD"), "A", INCLUSIVE, "height")
    with pytest.raises(ValueError):
        genfun_pair(W("UD"), W("UD"), "A", "both", "art")
    with pytest.raises(ValueError):
        genfun_lower(W("UD"), "A", weight="perimeter")


# -- identities -------------------------------------------------------------


def test_inverse_is_zero_off_dominance():
    from dycktile.incidence import build, invert

    for kind in ("I", "II"):
        inverse = invert(build(4, 0, kind))
        for lam in inverse.basis:
            for mu in inverse.basis:
                if not is_above(mu, lam):
                    assert inverse.entry(lam, mu) == ZERO


# -- projection to family B --------------------------------------------------


def test_projection_is_statistic_preserving_bijection():
    for n in range(1, 5):
        for lam in all_words(n):
            lam_b = truncate_last(lam)
            for mu in enumerate_type_d(n, lam.epsilon):
                if not is_above(mu, lam):
                    continue
                rd = build_region(lam, mu, "D")
                rb = build_region(lam_b, truncate_last(mu), "B")
                for cls in (INCLUSIVE, EXCLUSIVE):
                    images = []
                    for t in enumerate_tilings(rd, cls):
                        img = project_to_type_b(t)
                        assert (img.area, img.tile_count, img.art) == (
                            t.area,
                            t.tile_count,
                            t.art,
                        )
                        back = lift_from_type_b(img, lam)
                        assert back.tiles == t.tiles and back.region == t.region
                        images.append(img)
                    seen = {tuple((x.kind, x.cells) for x in i.tiles) for i in images}
                    assert len(seen) == len(images)
                    want = {
                        tuple((x.kind, x.cells) for x in b.tiles)
                        for b in enumerate_tilings(rb, cls)
                    }
                    assert seen == want


def test_projection_moves_two_by_two_to_anchor():
    r = build_region(W("DD"), W("UU"), "D")
    (t,) = enumerate_tilings(r)
    img = project_to_type_b(t)
    assert [(x.kind, x.cells) for x in img.tiles] == [("dyck", ((1, 0),))]
    assert img.region.anchor_cells() == frozenset({(1, 0)})


def test_projection_input_validation():
    rb = build_region(W("U"), W("U"), "B")
    (tb,) = enumerate_tilings(rb)
    with pytest.raises(ValueError):
        project_to_type_b(tb)
    with pytest.raises(ValueError):
        lift_from_type_b(tb, W("DD"))  # does not extend U


def test_projection_refuses_a_tile_that_is_no_lift():
    # the west cell of the two-by-two of DD/UU alone is no family-D tile
    r = build_region(W("DD"), W("UU"), "D")
    west = Tile(kind="dyck", cells=((1, 0),), ribbon=((1, 0),))
    with pytest.raises(ValueError, match="no lift"):
        project_to_type_b(Tiling(r, (west,), INCLUSIVE, west.area))


# -- structural properties ----------------------------------------------------

pairs = st.builds(
    lambda steps, flips: (steps, flips),
    st.text(alphabet="UD", min_size=1, max_size=5),
    st.integers(0, 7),
)


@st.composite
def d_pairs(draw):
    lam = draw(st.text(alphabet="UD", min_size=1, max_size=5).map(PathWord))
    choices = [mu for mu in enumerate_type_d(lam.length, lam.epsilon) if is_above(mu, lam)]
    return lam, draw(st.sampled_from(choices))


@settings(max_examples=60, deadline=None)
@given(d_pairs())
def test_tilings_cover_exactly_with_odd_tile_areas(pair):
    lam, mu = pair
    region = build_region(lam, mu, "D")
    for t in enumerate_tilings(region, INCLUSIVE):
        covered = [c for tile in t.tiles for c in tile.cells]
        assert len(covered) == len(set(covered))
        assert set(covered) == set(region.all_cells)
        for tile in t.tiles:
            assert tile.area % 2 == 1
            assert tile.art == (tile.area + 1) // 2
        assert 2 * t.art == t.area + t.tile_count


# Invariant checks must survive python -O, which strips assert statements.
OPTIMIZED_SCRIPT = """
import sys
from dycktile.incidence import build, check_inverse
from dycktile.pathword import PathWord
from dycktile.tiling import CandidatePool, build_region, check_exact_cover, enumerate_tilings, tally


def refusal(check, *args):
    try:
        check(*args)
    except AssertionError as exc:
        return str(exc)
    return "no error"


region = build_region(PathWord("DDUU"), PathWord("UUUU"), "D")
tiles = enumerate_tilings(region)[0].tiles
m = build(2, 0, "I")
print(sys.flags.optimize)
print(refusal(check_exact_cover, region, tiles + tiles[:1]))
print(refusal(check_exact_cover, region, tiles[1:]))
pool = CandidatePool(region, "inclusive")
((word, (cover, *_)),) = pool.found.items()
for bad in (cover + cover[:1], cover[1:]):
    pool.found[word] = [bad]
    print(refusal(enumerate_tilings, region, "inclusive", pool))
tiling = enumerate_tilings(region)[0]
print(refusal(tally, [], [tiling._replace(area=tiling.area + 1)], "art"))
print(refusal(check_inverse, m, m))
"""


def test_invariants_raise_under_optimize():
    # the subprocess imports the same dycktile as this test run
    src = os.path.dirname(os.path.dirname(dycktile.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_SCRIPT],
        capture_output=True, text=True, check=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    ).stdout
    assert out.splitlines() == [
        "1",
        "tiles overlap",
        "tiles do not cover the region",
        "tiles overlap",
        "tiles do not cover the region",
        "area and tile count differ in parity",
        "product check failed at (1, 0)",
    ]


@settings(max_examples=60, deadline=None)
@given(d_pairs())
def test_exclusive_tiling_unique(pair):
    lam, mu = pair
    assert len(enumerate_tilings(build_region(lam, mu, "D"), EXCLUSIVE)) <= 1


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet="UD", min_size=1, max_size=4).map(PathWord))
def test_inclusive_lower_sum_monic(lam):
    # the empty tiling of the region between lam and itself contributes 1
    g = genfun_lower(lam, "B")
    assert g.coefficient(0) == 1
    assert g.is_nonnegative()


# -- rendering and records -----------------------------------------------------


def test_svg_output():
    r = build_region(W("DDUU"), W("UUUU"), "D")
    tilings = enumerate_tilings(r)
    svg = render_svg(tilings[0])
    assert svg.startswith("<svg ") and svg.endswith("</svg>")
    # one diamond per standalone cell plus one large diamond per two-by-two
    assert svg.count("<polygon") == len(r.unit_cells) + len(r.atoms)
    assert "polyline" in svg  # both boundary paths drawn
    rb = build_region(W("DDU"), W("UUU"), "B")
    assert ">*<" in render_svg(enumerate_tilings(rb)[0])


def test_tiling_record_round_trip():
    r = build_region(W("DDUU"), W("UUUU"), "D")
    best = enumerate_tilings(r)[0]
    rec = json.loads(tiling_record(best))
    assert rec["family"] == "D"
    assert rec["lower"] == "DDUU" and rec["upper"] == "UUUU"
    assert rec["area"] == best.area and rec["art"] == best.art
    assert {t["kind"] for t in rec["tile_list"]} <= {
        "dyck",
        "ballot_b",
        "two_by_two",
        "dyck_d",
        "ballot_d",
    }
    for t in rec["tile_list"]:
        if t["kind"] in ("ballot_d", "ballot_b"):
            assert "lower" in t and "upper" in t and "glue" in t


def test_tiling_record_is_the_indented_json_dumps():
    # tiling_record writes the text of json.dumps(..., indent=2,
    # sort_keys=True) without running its encoder: byte for byte the same
    # for every tiling of these sums, the empty tilings (138) included
    seen = empty = 0
    for family, words in (("A", dyck_words(6)), ("B", all_words(5)), ("D", all_words(5))):
        for w in words:
            for cls in (INCLUSIVE, EXCLUSIVE):
                for _, tilings in sum_tilings(w, family, cls):
                    for t in tilings:
                        assert tiling_record(t) == json.dumps(t.to_json(), indent=2, sort_keys=True)
                        seen += 1
                        empty += not t.tiles
    assert (seen, empty) == (1286, 138)


def test_record_order_sorts_as_the_records_do():
    # `dycktile tilings` sorts by (upper word, record_order), which must
    # give the order of (upper word, tiling_record) without writing the
    # JSON, over the lower sum of every word through length 8 and that of
    # DDUUDDUUDD, a listing of 1,800 tilings.  The text sorts numbers as
    # strings: a tiling of art 10 comes before one of art 9.
    listed = 0
    words = [
        (family, w)
        for family in "ABD"
        for n in range(9)
        for w in (dyck_words(n) if family == "A" else all_words(n))
    ]
    for family, w in words + [("D", W("DDUUDDUUDD"))]:
        found = [t for _, ts in sum_tilings(w, family, INCLUSIVE) for t in ts]
        by_key = sorted(found, key=lambda t: (t.region.mu.steps, record_order(t)))
        by_text = sorted(found, key=lambda t: (t.region.mu.steps, tiling_record(t)))
        assert by_key == by_text, (family, w.steps)
        listed += len(found)
    assert listed == 125 + 104852 + 40713 + 1800


def test_tile_statistics_by_kind():
    ballot = Tile(
        kind="ballot_d",
        cells=((1, 0), (2, -1), (2, 1), (3, 0), (3, 2), (4, 1), (4, 3), (5, 2)),
        atom=(4, 2),
        lower=((2, -1), (3, 0), (4, 1)),
        upper=((2, 1), (3, 2), (4, 3)),
        glue=((1, 0),),
    )
    assert (ballot.area, ballot.tiles, ballot.art) == (5, 1, 3)
    atom = Tile(kind="two_by_two", cells=((1, 0), (2, -1), (2, 1), (3, 0)), atom=(2, 0))
    assert (atom.area, atom.art) == (1, 1)


# -- the definitional oracle ---------------------------------------------------
#
# enumerate_tilings checks the classes tile by tile during one pruned
# search.  The oracle below follows the definitions instead: every exact
# cover by candidate tiles, family-B ballot ribbons paired and fused
# with their glue after the cover, then the whole-tiling class predicate.


def _oracle_atom_cells(center):
    x, m = center
    return ((x - 1, m), (x, m - 1), (x, m + 1), (x + 1, m))


def _oracle_dyck_ribbons(cells):
    out = []
    for start in sorted(cells):
        x0, y0 = start
        stack = [(start,)]
        while stack:
            seq = stack.pop()
            x, y = seq[-1]
            if y == y0:
                out.append(seq)
            for dy in (1, -1):
                nxt = (x + 1, y + dy)
                if nxt in cells and y + dy >= y0:
                    stack.append(seq + (nxt,))
    return out


def _oracle_ballot_ribbons(cells, terminal):
    out = []
    for start in sorted(cells):
        x0, y0 = start
        if x0 == terminal:
            continue
        stack = [(start,)]
        while stack:
            seq = stack.pop()
            x, y = seq[-1]
            if x == terminal:
                if y > y0 and (y - y0) % 2 == 1:
                    out.append(seq)
                continue
            for dy in (1, -1):
                nxt = (x + 1, y + dy)
                if nxt in cells and y + dy >= y0:
                    stack.append(seq + (nxt,))
    return out


def _oracle_atom_tiles(region, atom):
    L, m = atom
    west, south = (L - 1, m), (L, m - 1)
    subs = _oracle_atom_cells(atom)
    allowed = region.unit_cells | {west}
    dycks = _oracle_dyck_ribbons(region.unit_cells)
    tiles = [Tile(kind="two_by_two", cells=tuple(sorted(subs)), atom=atom)]
    for ribbon in _oracle_dyck_ribbons(allowed):
        if ribbon[-1] == west and len(ribbon) >= 3:
            cells = tuple(sorted(set(ribbon) | set(subs)))
            tiles.append(Tile(kind="dyck_d", cells=cells, atom=atom, ribbon=ribbon))
    stack = [(south,)]
    while stack:
        rev = stack.pop()
        x, y = rev[-1]
        if len(rev) >= 3 and len(rev) % 2 == 1 and y == min(c[1] for c in rev):
            low = tuple(reversed(rev))
            up = tuple((cx, cy + 2) for cx, cy in low)
            box = (low[0][0] - 1, low[0][1] + 1)
            if all(c in allowed for c in up[:-1]):
                # the glue is a dyck ribbon ending on the box beside both starts
                for glue in (g for g in dycks if g[-1] == box):
                    cells = tuple(sorted({*glue, *low, *up, *subs}))
                    tiles.append(Tile(
                        kind="ballot_d", cells=cells, atom=atom, lower=low, upper=up, glue=glue
                    ))
        for dy in (1, -1):
            prev = (x - 1, y + dy)
            if prev in allowed:
                stack.append(rev + (prev,))
    return tiles


def _oracle_candidates(region):
    tiles = [
        Tile(kind="dyck", cells=tuple(sorted(r)), ribbon=r)
        for r in _oracle_dyck_ribbons(region.unit_cells)
    ]
    if region.type_tag == "B":
        for r in _oracle_ballot_ribbons(region.unit_cells, region.length):
            tiles.append(Tile(kind="ballot_b", cells=tuple(sorted(r)), lower=r))
    if region.type_tag == "D":
        for atom in sorted(region.atoms):
            tiles.extend(_oracle_atom_tiles(region, atom))
    return tiles


def _oracle_exact_covers(region):
    def slots(tile):
        out = {c for c in tile.cells if c in region.unit_cells}
        if tile.atom is not None:
            out.add(("atom", tile.atom))
        return frozenset(out)

    everything = set(region.unit_cells) | {("atom", a) for a in region.atoms}
    by_slot = {s: [] for s in everything}
    for t in _oracle_candidates(region):
        ss = slots(t)
        for s in ss:
            by_slot[s].append((t, ss))
    covers = []

    def walk(uncovered, chosen):
        if not uncovered:
            covers.append(tuple(chosen))
            return
        for t, ss in by_slot[min(uncovered, key=repr)]:
            if ss <= uncovered:
                walk(uncovered - ss, chosen + [t])

    walk(frozenset(everything), [])
    return covers


def _oracle_fuse_ballot_pairs(cover):
    """Pair same-shape ballot ribbons at offset (0, 2) and fuse each pair
    with its glue, the dyck tile of the cover that ends on the box beside
    both starts; None when no valid pairing exists."""
    ballots = [t for t in cover if t.kind == "ballot_b"]
    if not ballots:
        return cover
    rest = [t for t in cover if t.kind != "ballot_b"]
    groups = {}
    for t in ballots:
        xs = t.lower
        shape = (xs[0][0], tuple(b[1] - a[1] for a, b in zip(xs, xs[1:])))
        groups.setdefault(shape, []).append(t)
    ends = {t.ribbon[-1]: t.ribbon for t in rest if t.kind == "dyck"}
    fused, consumed = [], set()
    for _, group in sorted(groups.items()):
        group.sort(key=lambda t: t.lower[0][1])
        if len(group) % 2:
            return None
        for k in range(0, len(group), 2):
            low_t, up_t = group[k], group[k + 1]
            if up_t.lower[0][1] != low_t.lower[0][1] + 2:
                return None
            box = (low_t.lower[0][0] - 1, low_t.lower[0][1] + 1)
            glue = ends.get(box)
            if glue is None or box in consumed:
                return None
            consumed.add(box)
            cells = tuple(sorted({*glue, *low_t.lower, *up_t.lower}))
            fused.append(
                Tile(kind="ballot_b", cells=cells, lower=low_t.lower, upper=up_t.lower, glue=glue)
            )
    kept = [t for t in rest if not (t.kind == "dyck" and t.ribbon[-1] in consumed)]
    return tuple(kept) + tuple(fused)


def _oracle_pieces(tile):
    """(cells, drop, size) for each ribbon, glue run and two-by-two."""
    out = []
    if tile.kind in ("dyck", "dyck_d"):
        out.append((tile.ribbon, 2, len(tile.ribbon)))
    elif tile.kind in ("ballot_d", "ballot_b"):
        out.append((tile.glue, 2, len(tile.glue)))
        out.append((tile.lower, 2, len(tile.lower)))
        out.append((tile.upper, 2, len(tile.upper)))
    if tile.atom is not None:
        out.append((_oracle_atom_cells(tile.atom), 4, 1))
    return out


def _oracle_is_inclusive(region, tiles, sized=True):
    lh, L = region.lam.heights, region.length
    pieces = [p for t in tiles for p in _oracle_pieces(t)]
    targets = [(frozenset(cells), size) for cells, _, size in pieces]
    targets.extend((frozenset(t.cells), t.area) for t in tiles)
    for cells, drop, size in pieces:
        if all(x > L or y - drop + 1 <= lh[x] for x, y in cells):
            continue
        moved = frozenset((x, y - drop) for x, y in cells)
        if not any(moved <= tc and (ts >= size or not sized) for tc, ts in targets):
            return False
    return True


def _oracle_neighbors(cells):
    return {p for x, y in cells for p in ((x, y + 2), (x - 1, y + 1), (x + 1, y + 1))}


def _oracle_is_exclusive(region, tiles, atoms=True):
    cellsets = [frozenset(t.cells) for t in tiles]
    for i, d1 in enumerate(tiles):
        for j, d2 in enumerate(tiles):
            if i == j:
                continue
            nbrs = _oracle_neighbors(cellsets[j])
            if not cellsets[i] & nbrs:
                continue
            for p in nbrs - cellsets[i] - cellsets[j]:
                if p in region.all_cells or p[0] <= region.length:
                    return False
            if atoms and d2.atom is not None and d1.atom is None:
                return False
    return True


def _oracle_covers(region):
    """Every exact cover, with family-B ballot pairs fused."""
    out = []
    for cover in _oracle_exact_covers(region):
        if region.type_tag == "B":
            cover = _oracle_fuse_ballot_pairs(cover)
            if cover is None:
                continue
        out.append(cover)
    return out


def _oracle_tilings(region, cls):
    keep = _oracle_is_inclusive if cls == INCLUSIVE else _oracle_is_exclusive
    out = []
    for c in _oracle_covers(region):
        if keep(region, c):
            tiles = tuple(sorted(c, key=lambda t: (t.cells, t.kind)))
            out.append(Tiling(region, tiles, cls, sum(t.area for t in tiles)))
    out.sort(key=lambda t: [(x.cells, x.kind) for x in t.tiles])
    return out


def _small_regions():
    """Every region of D n <= 6, B n <= 5 and A n <= 6."""
    for family, top in (("D", 6), ("B", 5), ("A", 6)):
        for n in range(1 if family == "B" else 0, top + 1):
            for lam in dyck_words(n) if family == "A" else all_words(n):
                for mu in upper_words(lam, family):
                    yield build_region(lam, mu, family)


def test_search_matches_oracle():
    families = []
    for region in _small_regions():
        families.append(region.type_tag)
        for cls in (INCLUSIVE, EXCLUSIVE):
            got = [tiling_record(t) for t in enumerate_tilings(region, cls)]
            want = [tiling_record(t) for t in _oracle_tilings(region, cls)]
            assert got == want, (region.type_tag, region.lam.steps, region.mu.steps, cls)
    assert [families.count(f) for f in "DBA"] == [1275, 636, 19]


def test_size_and_two_by_two_bounds_follow_from_containment():
    # The search checks only that a dropped piece, or a tile's region
    # neighborhood, lies inside one tile.  The definition also bounds the
    # size of that tile, and in family D asks for a two-by-two; on every
    # exact cover both bounds change nothing.
    for region in _small_regions():
        for cover in _oracle_covers(region):
            assert _oracle_is_inclusive(region, cover) == _oracle_is_inclusive(
                region, cover, sized=False
            )
            assert _oracle_is_exclusive(region, cover) == _oracle_is_exclusive(
                region, cover, atoms=False
            )


def _lone_region_sum(pairs, family, cls, weight):
    """Sum of q^weight over the tilings of each pair's region alone."""
    acc = ZERO
    for lam, mu in pairs:
        for t in enumerate_tilings(build_region(lam, mu, family), cls):
            acc = acc + PolyQ((0,) * t.statistic(weight) + (1,))
    return acc


def test_sums_match_lone_region_enumeration():
    # A sum finds the tilings of all its regions in one search over an
    # enclosing region and visits only the regions with a tiling;
    # enumerating each region on its own, tied to the oracle above, must
    # give the same sums.
    for family, lo, top in (("D", 0, 6), ("B", 1, 5), ("A", 0, 6)):
        for n in range(lo, top + 1):
            for w in dyck_words(n) if family == "A" else all_words(n):
                above = [(w, mu) for mu in upper_words(w, family)]
                got = genfun_lower(w, family, "art")
                assert got == _lone_region_sum(above, family, INCLUSIVE, "art"), (family, w)
                below = [(lam, w) for lam in lower_words(w, family)]
                got = genfun_upper(w, family, "tiles")
                assert got == _lone_region_sum(below, family, EXCLUSIVE, "tiles"), (family, w)


def test_sum_pool_finds_each_regions_tilings():
    # One search over the enclosing region finds every region's covers.
    # Each region's tilings, read through the pool or from sum_tilings,
    # must be those it has alone, record for record and in order, and
    # the sum yields each region that has a tiling once and skips
    # exactly the regions that have none.
    for family, lo, top in (("D", 0, 6), ("B", 1, 5), ("A", 0, 6)):
        for n in range(lo, top + 1):
            for w in dyck_words(n) if family == "A" else all_words(n):
                sums = (
                    (INCLUSIVE, [(w, mu) for mu in upper_words(w, family)]),
                    (EXCLUSIVE, [(lam, w) for lam in lower_words(w, family)]),
                )
                for cls, pairs in sums:
                    pool = sum_pool(w, family, cls)
                    yielded = list(sum_tilings(w, family, cls))
                    summed = dict(yielded)
                    assert len(summed) == len(yielded), (family, w.steps, cls)
                    for lam, mu in pairs:
                        region = build_region(lam, mu, family)
                        lone = [tiling_record(t) for t in enumerate_tilings(region, cls)]
                        got = [tiling_record(t) for t in enumerate_tilings(region, cls, pool)]
                        assert got == lone, (family, lam.steps, mu.steps, cls)
                        varying = mu if cls == INCLUSIVE else lam
                        got = [tiling_record(t) for t in summed.pop(varying, ())]
                        assert got == lone, (family, lam.steps, mu.steps, cls)
                    assert not summed, (family, w.steps, cls)


def test_pool_refuses_a_region_outside_its_own():
    pool = CandidatePool(build_region(W("DUDU"), W("UUDD"), "D"), INCLUSIVE)
    for lam, mu in (("DDUU", "UUDD"), ("DUDU", "UUUU"), ("UDUD", "UUDD")):
        with pytest.raises(ValueError):
            enumerate_tilings(build_region(W(lam), W(mu), "D"), INCLUSIVE, pool)
    with pytest.raises(ValueError):
        enumerate_tilings(build_region(W("DUDU"), W("UUDD"), "D"), EXCLUSIVE, pool)
    # A lower sum's pool fixes lam, an upper sum's pool fixes mu.
    lower = sum_pool(W("DUDU"), "D", INCLUSIVE)
    assert len(enumerate_tilings(build_region(W("DUDU"), W("UUUU"), "D"), INCLUSIVE, lower)) > 0
    with pytest.raises(ValueError):
        enumerate_tilings(build_region(W("DDUU"), W("UUUU"), "D"), INCLUSIVE, lower)
    upper = sum_pool(W("UUDD"), "D", EXCLUSIVE)
    assert len(enumerate_tilings(build_region(W("DDUU"), W("UUDD"), "D"), EXCLUSIVE, upper)) == 1
    with pytest.raises(ValueError):
        enumerate_tilings(build_region(W("DDUU"), W("UUUU"), "D"), EXCLUSIVE, upper)


def test_pool_refuses_a_varying_word_not_between_its_words():
    # DDUU lies below DUDU, so the region with lam = DUDU and mu = DDUU
    # is upside down: DUDU's lower sum has no region with mu = DDUU, and
    # DDUU's upper sum none with lam = DUDU.
    upside_down = Region("D", W("DUDU"), W("DDUU"))
    for pool in (sum_pool(W("DUDU"), "D", INCLUSIVE), sum_pool(W("DDUU"), "D", EXCLUSIVE)):
        with pytest.raises(ValueError, match="not one of the candidate pool's regions"):
            pool.covers(upside_down)
    # A sum's region reaches the top or bottom of its universe.
    with pytest.raises(ValueError, match="universe's top or bottom"):
        CandidatePool(build_region(W("DUDU"), W("UUDD"), "D"), INCLUSIVE, varies=True)


# sha256 over every word of family A, B (from length 1) and D through
# length 7 of the coefficients of its lower sum by art and its upper sum
# by tiles, one json dump per line, recorded from the sums that chose
# their words by comparing every word of the family with the fixed one
SUMS_DIGEST_0_7 = "ca513b58005036080caf59e74efba47c0d24e46eaf218655769fffebeb66da1d"


def test_sums_match_the_recorded_digest():
    h = hashlib.sha256()
    for family, lo in (("A", 0), ("B", 1), ("D", 0)):
        for n in range(lo, 8):
            for w in dyck_words(n) if family == "A" else all_words(n):
                blob = [
                    list(genfun_lower(w, family, "art").coeffs),
                    list(genfun_upper(w, family, "tiles").coeffs),
                ]
                h.update((json.dumps(blob) + "\n").encode())
    assert h.hexdigest() == SUMS_DIGEST_0_7


def test_sum_choices_are_the_heights_of_the_sums_words():
    # A sum's pool offers every height between the fixed word and the
    # top or bottom of its universe, without listing the sum's words;
    # each must be a height that one of the words above or below the
    # fixed word takes in that column, and each such height offered.
    # The offers are indexed by the height in the column before, each
    # listing, lowest first, the heights one step from it.  The pool
    # takes the universe's cuts as they are, so none may reach a cell
    # outside its region.  The universe builds each column's choices once
    # per sign and fixed height; they must be those the pool would build
    # from the universe's cuts itself.
    for family in "ABD":
        for n in range(9):
            for w in dyck_words(n) if family == "A" else all_words(n):
                for cls, words in ((INCLUSIVE, upper_words), (EXCLUSIVE, lower_words)):
                    pool = sum_pool(w, family, cls)
                    universe = _universe(family, n, w.epsilon if family == "D" else 0)
                    sign = 1 if cls == INCLUSIVE else -1
                    built = [{}]
                    for x in range(1, universe.columns + 1):
                        cuts = universe.cuts[sign][x]
                        i = (w.heights[x] - universe.low.heights[x]) // 2
                        steps = {}
                        for cut in cuts[i:] if sign == 1 else cuts[: i + 1]:
                            h = cut[2]
                            steps.setdefault(h - 1, []).append(cut)
                            steps.setdefault(h + 1, []).append(cut)
                        built.append(steps)
                    assert pool.choices == built, (family, w.steps, cls)
                    vs = words(w, family)
                    for x in range(1, len(pool.choices)):
                        steps = pool.choices[x]
                        offered = sorted({h for cuts in steps.values() for _, _, h, _ in cuts})
                        want = sorted({v.heights[x] for v in vs})
                        assert offered == want, (family, w.steps, cls, x)
                        for prev in {v.heights[x - 1] for v in vs} | set(steps):
                            near = [h for _, _, h, _ in steps.get(prev, ())]
                            assert near == [h for h in want if abs(h - prev) == 1], (
                                family, w.steps, cls, x, prev,
                            )
                        for cuts in steps.values():
                            for mask, _, _, shadow in cuts:
                                assert not (mask | shadow) & pool.start, (family, w.steps, cls, x)


def test_comparable_words_follow_from_the_spans():
    # upper_words and lower_words read "v weakly above w" from the
    # universe's spans; they must list the words an is_above scan of the
    # family's words lists, in the same order, through length 8.  The
    # empty universes count too: family D at length 0 has the empty word
    # alone, and family A at odd lengths has no word, so every word there
    # is refused.
    scanned = 0
    for family in "ABD":
        for n in range(9):
            if family == "A" and n % 2:
                assert not _universe("A", n, 0).words
                for w in all_words(n):
                    for comparable in (upper_words, lower_words):
                        with pytest.raises(ValueError, match="Dyck"):
                            comparable(w, family)
                continue
            words = dyck_words(n) if family == "A" else list(all_words(n))
            for w in words:
                pool = [v for v in words if family != "D" or v.epsilon == w.epsilon]
                assert upper_words(w, family) == [v for v in pool if is_above(v, w)], (family, w)
                assert lower_words(w, family) == [v for v in pool if is_above(w, v)], (family, w)
                scanned += 2 * len(pool)
    assert upper_words(W(""), "D") == lower_words(W(""), "D") == [W("")]
    assert scanned == 262598


# -- the tile universe ---------------------------------------------------------


def test_pool_tiles_are_the_enclosing_regions_candidates():
    # A pool picks its tiles from the universe of its family, length and
    # sign by their cells alone.  Past the lengths the oracle reaches,
    # they must still be the candidates its enclosing region has on its
    # own, in order.  The pool searches only when its covers are asked
    # for, so this builds every sum's pool without searching.
    for family, n in (("D", 7), ("D", 8), ("B", 6), ("A", 8)):
        for w in dyck_words(n) if family == "A" else all_words(n):
            for cls in (INCLUSIVE, EXCLUSIVE):
                pool = sum_pool(w, family, cls)
                want = sorted(_candidates(pool.region), key=lambda t: (t.cells, t.kind))
                assert [pool.tiles[k] for k in pool.kept] == want, (family, w.steps, cls)


def test_region_with_a_cell_outside_its_universe_is_refused():
    # A pool reads a region's cells from its two words' spans in the
    # universe of lam's sign, so a region built directly, past
    # build_region's check, with a family-D word of the other sign is
    # refused, whichever of its words that is.
    for lam, mu in (("DD", "UD"), ("UD", "UU")):
        region = Region("D", W(lam), W(mu))
        assert W(lam).epsilon != W(mu).epsilon
        for cls in (INCLUSIVE, EXCLUSIVE):
            with pytest.raises(ValueError, match="outside its family's tile universe"):
                CandidatePool(region, cls)
            with pytest.raises(ValueError, match="outside its family's tile universe"):
                enumerate_tilings(region, cls)


def test_pool_over_its_whole_universe():
    # DDDD/UUUU is the whole family-D universe of length 4 and sign 0,
    # and DDD/UUU the whole family-B universe of length 3: no cell starts
    # covered, and the tilings are the oracle's.
    for lam, mu, family in (("DDDD", "UUUU", "D"), ("DDD", "UUU", "B")):
        region = build_region(W(lam), W(mu), family)
        for cls, want in ((INCLUSIVE, "q^6"), (EXCLUSIVE, "q^4")):
            pool = CandidatePool(region, cls)
            assert pool.start == 0 and len(pool.kept) == len(pool.tiles)
            got = [tiling_record(t) for t in enumerate_tilings(region, cls, pool)]
            assert got == [tiling_record(t) for t in _oracle_tilings(region, cls)]
            assert str(genfun_pair(W(lam), W(mu), family, cls)) == want


def test_empty_regions_start_covered():
    # Family D at length 0 and family A at odd lengths have empty
    # universes; an empty region of a larger universe starts with every
    # cell covered.  Each has the one empty tiling.
    assert _universe("D", 0, 0).full == _universe("D", 0, 1).full == 0
    assert _universe("A", 5, 0).tiles == []
    for lam, mu, family in (("UDUD", "UDUD", "D"), ("DDUU", "DDUU", "B"), ("", "", "D")):
        region = build_region(W(lam), W(mu), family)
        for cls in (INCLUSIVE, EXCLUSIVE):
            pool = CandidatePool(region, cls)
            assert pool.kept == [] and pool.start == pool.full
            (t,) = enumerate_tilings(region, cls, pool)
            assert t.tiles == ()
    assert genfun_lower(W(""), "D") == ONE and genfun_upper(W(""), "D") == ONE


# -- the readout ---------------------------------------------------------------


def _defined_cells(lam, mu, family):
    """The unit cells and two-by-two centers of the region by the module
    docstring's definition, tried at every position near the words: lam
    weakly below a cell's lower corners, mu weakly above its upper ones,
    corners past the terminal line ignored."""
    L = lam.length
    lo, hi = lam.heights, mu.heights

    def between(lower, upper):
        return all(lo[x] <= y for x, y in lower if 0 <= x <= L) and all(
            hi[x] >= y for x, y in upper if 0 <= x <= L
        )

    atoms = set()
    if family == "D" and L:
        for m in range(min(lo) - 4, max(hi) + 5):
            if m % 4 == _atom_residue(lam) and between(
                ((L - 2, m), (L - 1, m - 1), (L, m - 2)), ((L - 2, m), (L - 1, m + 1), (L, m + 2))
            ):
                atoms.add((L, m))
    covered = {(L - 1, m) for _, m in atoms}
    units = set()
    for x in range(1, L + 1 if family == "B" else L):
        for y in range(min(lo) - 2, max(hi) + 3):
            if (x + y) % 2 and (x, y) not in covered and between(
                ((x - 1, y), (x, y - 1), (x + 1, y)), ((x - 1, y), (x, y + 1), (x + 1, y))
            ):
                units.add((x, y))
    return units, atoms


def test_region_cells_and_mask_follow_from_the_heights():
    # A region's cells come from its column ranges; they must match the
    # definition for every comparable pair through length 7.  The mask
    # enumerate_tilings checks covers against is tied to these cells by
    # test_spans_give_the_order_and_every_region_mask.
    pairs = 0
    for family in "ABD":
        for n in range(1 if family == "B" else 0, 8):
            for lam in dyck_words(n) if family == "A" else all_words(n):
                for mu in upper_words(lam, family):
                    region = build_region(lam, mu, family)
                    units, atoms = _defined_cells(lam, mu, family)
                    assert (region.unit_cells, region.atoms) == (units, atoms), (family, lam, mu)
                    pairs += 1
    assert pairs == 13513


def test_spans_give_the_order_and_every_region_mask():
    # A region's mask is read as span[mu] & ~span[lam], and a pool takes
    # mu weakly above lam when span[lam] & ~span[mu] is empty, the spans
    # keyed by the words' steps.  Both must hold for every pair of the
    # family's words through length 7.
    pairs = comparable = 0
    for family in "ABD":
        for n in range(1 if family == "B" else 0, 8):
            for eps in (0, 1) if family == "D" else (0,):
                universe = _universe(family, n, eps)
                span, index = universe.span, universe.index
                words = list(universe.words.values())
                assert set(span) == {w.steps for w in words}
                for lam in words:
                    for mu in words:
                        below, upto = span[lam.steps], span[mu.steps]
                        above = is_above(mu, lam)
                        assert (not below & ~upto) == above, (family, lam, mu)
                        if above:
                            region = build_region(lam, mu, family)
                            cells = sum(1 << index[c] for c in region.all_cells)
                            assert upto & ~below == cells, (family, lam, mu)
                            comparable += 1
                        pairs += 1
    assert (pairs, comparable) == (32798, 13513)


def test_a_piece_drops_below_lam_when_its_cells_lie_in_lams_span():
    # A pool reads "the piece drops weakly below lam" as a mask test of
    # its dropped cells inside the universe against lam's span.  By the
    # definition, lam must reach the top corner of every dropped cell at
    # x <= L, those outside the universe included.  Every piece of every
    # universe tile through length 7 must agree for every word.
    checked = 0
    for family in "ABD":
        for n in range(1 if family == "B" else 0, 8):
            for eps in (0, 1) if family == "D" else (0,):
                universe = _universe(family, n, eps)
                for tile, pieces in zip(universe.tiles, universe.pieces):
                    own = set(tile.cells)
                    dropped = [
                        (cells, drop)
                        for cells, drop, _ in _oracle_pieces(tile)
                        if not {(x, y - drop) for x, y in cells} <= own
                    ]
                    assert len(dropped) == len(pieces), (family, tile)
                    for lam in universe.words.values():
                        below, lh = universe.span[lam.steps], lam.heights
                        for (cells, drop), (mask, _) in zip(dropped, pieces):
                            want = all(x > n or y - drop + 1 <= lh[x] for x, y in cells)
                            assert (not mask & ~below) == want, (family, lam, tile)
                            checked += 1
    assert checked == 35008


def test_a_sum_tallies_what_its_pairs_give():
    # A sum reads every region of its one search into one count list; it
    # must equal the pairwise generating functions, each region searched
    # alone, the regions without a tiling included.
    for n in range(8):
        for w in all_words(n):
            above = [(w, v) for v in upper_words(w, "D")]
            below = [(v, w) for v in lower_words(w, "D")]
            for weight in WEIGHTS:
                want = sum((genfun_pair(lam, mu, "D", INCLUSIVE, weight) for lam, mu in above), ZERO)
                assert genfun_lower(w, "D", weight) == want, (w, weight)
                want = sum((genfun_pair(lam, mu, "D", EXCLUSIVE, weight) for lam, mu in below), ZERO)
                assert genfun_upper(w, "D", weight) == want, (w, weight)


def _tiles_area(t):
    return sum(x.area for x in t.tiles)


def test_every_tiling_carries_its_tiles_area():
    # A tiling's area is summed once, where it is built: in the loop that
    # checks each cover, or from the tiles the projection returns.  Every
    # route must carry the sum of its tiles' areas, and tally, which reads
    # the tiling's fields, must count as statistic does for each weight.
    tilings = 0
    for family in "ABD":
        for n in range(8):
            for w in dyck_words(n) if family == "A" else all_words(n):
                for cls in (INCLUSIVE, EXCLUSIVE):
                    pool = sum_pool(w, family, cls)
                    for v, summed in sum_tilings(w, family, cls):
                        region = build_region(*((w, v) if cls == INCLUSIVE else (v, w)), family)
                        pooled = enumerate_tilings(region, cls, pool)
                        lone = enumerate_tilings(region, cls)
                        for t in summed + pooled + lone:
                            assert t.area == _tiles_area(t), (family, region, cls)
                        for weight in WEIGHTS:
                            counts, want = [], []
                            tally(counts, summed, weight)
                            for t in summed:
                                k = t.statistic(weight)
                                want.extend([0] * (k + 1 - len(want)))
                                want[k] += 1
                            assert counts == want, (family, region, cls, weight)
                        if family == "D" and n:
                            for t in summed:
                                image = project_to_type_b(t)
                                back = lift_from_type_b(image, region.lam)
                                assert image.area == _tiles_area(image), (region, cls)
                                assert back.area == _tiles_area(back), (region, cls)
                        tilings += len(summed)
    assert tilings == 20 + 17 + 20356 + 1752 + 8313 + 1231


def test_a_cover_that_is_not_exact_is_refused():
    # Every cover a pool returns is checked against the region's mask: a
    # cover with a tile repeated overlaps, one with a tile dropped leaves
    # cells uncovered.
    region = build_region(W("DDDD"), W("UUUU"), "D")
    for cls in (INCLUSIVE, EXCLUSIVE):
        pool = CandidatePool(region, cls)
        ((word, (cover, *_)),) = pool.found.items()
        assert len(cover) >= 2
        for bad, message in ((cover + cover[:1], "tiles overlap"), (cover[1:], "tiles do not cover")):
            pool.found[word] = [bad]
            with pytest.raises(AssertionError, match=message):
                enumerate_tilings(region, cls, pool)


def test_the_cover_check_catches_a_carry_and_a_missing_cell():
    # A cover is checked by sums: its masks must add up to the region's
    # mask and its tiles' sizes to the region's cell count.  A cover
    # whose masks overlap can still add up to the region's mask, as a
    # carry from one cell's bit into the next; the sizes then count a
    # cell too many.  A cover with one cell missing adds up to neither.
    region = build_region(W("DDDD"), W("UUUU"), "D")
    pool = CandidatePool(region, INCLUSIVE)
    masks = pool.masks
    want = pool.span[region.mu.steps] & ~pool.span[region.lam.steps]
    halves = {2 * m: k for k, m in enumerate(masks) if m.bit_count() == 1}
    crafted = []
    for word, covers in pool.found.items():
        for cover in covers:
            for c in cover:
                if masks[c] in halves:
                    rest = tuple(k for k in cover if k != c)
                    carry = tuple(sorted(rest + (halves[masks[c]],) * 2))
                    crafted.append((word, carry, rest))
    assert crafted
    for word, carry, missing in crafted:
        assert sum(masks[k] for k in carry) == want
        assert sum(masks[k].bit_count() for k in carry) == want.bit_count() + 1
        assert sum(masks[k] for k in missing).bit_count() == want.bit_count() - 1
        for bad, message in ((carry, "tiles overlap"), (missing, "tiles do not cover the region")):
            pool.found[word] = [bad]
            with pytest.raises(AssertionError, match=message):
                enumerate_tilings(region, INCLUSIVE, pool)


def test_every_cover_lists_its_tiles_in_order():
    # A cover's tiles are read out in the order the search placed them,
    # with no sort per cover, so Tiling.tiles is in (cells, kind) order
    # only if every cover lists strictly ascending tile indices; and the
    # covers of each word must already be in order.
    counted = 0
    for family in "ABD":
        for n in range(9):
            for w in dyck_words(n) if family == "A" else all_words(n):
                for cls in (INCLUSIVE, EXCLUSIVE):
                    for v, covers in sum_pool(w, family, cls).found.items():
                        assert covers == sorted(covers), (family, w.steps, cls, v.steps)
                        for cover in covers:
                            assert all(a < b for a, b in zip(cover, cover[1:])), (
                                family, w.steps, cls, v.steps, cover,
                            )
                        counted += len(covers)
    assert counted == 153871


# -- regions where one path of the search decides --------------------------


def test_glue_run_is_a_dyck_strip():
    # A region whose one-tile tiling needs a glue run longer than one
    # box: the ribbons (4,-1),(5,0),(6,-1) and
    # (4,1),(5,2),(6,1) on the two-by-two at (6, 0), joined by the dyck
    # run (1,0),(2,1),(3,0) ending on the box beside both starts.
    r = build_region(W("DUDDUD"), W("UUDUUD"), "D")
    for cls in (INCLUSIVE, EXCLUSIVE):
        whole = [t.tiles[0] for t in enumerate_tilings(r, cls) if len(t.tiles) == 1]
        assert [(x.kind, x.glue, x.area, x.art) for x in whole] == [
            ("ballot_d", ((1, 0), (2, 1), (3, 0)), 7, 4)
        ]
    (t,) = enumerate_tilings(r, EXCLUSIVE)
    (b,) = project_to_type_b(t).tiles
    assert (b.kind, b.glue, b.area) == ("ballot_b", ((1, 0), (2, 1), (3, 0)), 7)
    assert (t.tile_count, t.art) == (1, 4)
    assert build(6, 0, "I").entry(W("DUDDUD"), W("UUDUUD")) == poly(0, 0, 0, 0, -1)


def test_tile_with_no_neighbor_inside_has_no_exclusive_requirement():
    # The region UUDD/UUUU is a single two-by-two.  Its neighbor positions
    # all lie outside the region, some at x <= L, and none inside, so it
    # has no exclusive requirement: the empty neighborhood is decided
    # before the drop for a neighbor outside at x <= L.  The upper sum of
    # UUUU selects this region's tiles from those of DDDD/UUUU.
    r = build_region(W("UUDD"), W("UUUU"), "D")
    assert [[x.kind for x in t.tiles] for t in enumerate_tilings(r, EXCLUSIVE)] == [["two_by_two"]]
    assert genfun_upper(W("UUUU"), "D", "tiles") == poly(1, 2, 1)


def test_parked_requirement_is_checked_when_its_target_is_placed():
    # The ballot tile with glue (2, 1) is placed before any tile covers
    # (3, -2), so the requirement of its lower ribbon, dropped onto
    # (3, -2), (4, -1), is parked; the single box placed on (3, -2)
    # later fails it.
    assert str(genfun_pair(W("DDDU"), W("UUUU"), "B")) == "q^7 + q^9"
    # The same in family D, with the lower ribbon of a ballot_d.
    assert str(genfun_pair(W("DDDUD"), W("UUUUU"), "D")) == "q^7 + q^9"


def test_upper_ribbon_lands_in_its_own_tile():
    # One ballot tile covers the whole region; its upper ribbon drops
    # onto its own lower ribbon.
    r = build_region(W("DDU"), W("UUU"), "B")
    kinds = [[x.kind for x in t.tiles] for t in enumerate_tilings(r)]
    assert kinds == [["dyck"] * 5, ["ballot_b"]]


def test_two_by_two_neighbors_need_a_two_by_two():
    # Above the lower two-by-two lies the south cell of the upper one,
    # so the tile closing its neighborhood carries a two-by-two.
    r = build_region(W("DDDD"), W("UUUU"), "D")
    (t,) = enumerate_tilings(r, EXCLUSIVE)
    assert [(x.kind, x.atom) for x in t.tiles] == [("ballot_d", (4, 2)), ("two_by_two", (4, -2))]
    # With no two-by-two above, region cells next to the two-by-two
    # leave its neighbor (3, 2) open, so no exclusive tiling exists.
    assert enumerate_tilings(build_region(W("DDD"), W("UDU"), "D"), EXCLUSIVE) == ()


def test_candidates_that_can_never_fit_are_dropped():
    # Inclusive: the ribbon (1, 0), (2, 1), (3, 0) drops out of the region.
    r = build_region(W("DDU"), W("UUD"), "B")
    assert [len(t.tiles) for t in enumerate_tilings(r)] == [4]
    # Exclusive: the box (2, -1) has its neighbor (2, 1) outside the
    # region at x <= L.
    assert enumerate_tilings(build_region(W("DD"), W("UD"), "B"), EXCLUSIVE) == ()
    # Exclusive: no tile holds the whole neighborhood of some candidate.
    assert enumerate_tilings(build_region(W("DDD"), W("UUD"), "B"), EXCLUSIVE) == ()
