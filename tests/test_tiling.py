import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from dycktile.pathword import (
    PathWord,
    all_words,
    enumerate_type_d,
    is_above,
    truncate_last,
)
from dycktile.qpoly import PolyQ, ZERO, prod
from dycktile.tiling import (
    EXCLUSIVE,
    INCLUSIVE,
    Tile,
    build_region,
    enumerate_tilings,
    exclusive_signed_weight,
    genfun_lower,
    genfun_pair,
    genfun_upper,
    lift_from_type_b,
    project_to_type_b,
    render_svg,
    tiling_record,
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
    assert r.is_empty
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
    assert exclusive_signed_weight(W("DUDU"), W("UUUU"), "D") == ZERO
    assert exclusive_signed_weight(W("DDUU"), W("UUUU"), "D") == poly(0, 0, 0, -1)
    assert exclusive_signed_weight(W("DDDD"), W("UUUU"), "D") == poly(0, 0, 0, 0, 1)
    assert exclusive_signed_weight(W("DDDD"), W("UUUU"), "D", "tiles") == poly(0, 0, 1)
    # one three-cell tile between DUDU and UUDD
    assert exclusive_signed_weight(W("DUDU"), W("UUDD"), "D") == poly(0, 0, -1)


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


def test_invalid_weight_and_class():
    with pytest.raises(ValueError):
        genfun_pair(W("UD"), W("UD"), "A", INCLUSIVE, "height")
    with pytest.raises(ValueError):
        genfun_pair(W("UD"), W("UD"), "A", "both", "art")
    with pytest.raises(ValueError):
        genfun_lower(W("UD"), "A", weight="perimeter")


# -- identities -------------------------------------------------------------


def test_truncation_identity_both_classes():
    for n in range(1, 5):
        for lam in all_words(n):
            lam_b = truncate_last(lam)
            assert genfun_lower(lam, "D") == genfun_lower(lam_b, "B")
            assert genfun_upper(lam, "D") == genfun_upper(lam_b, "B")
    # one larger spot check per class
    assert genfun_lower(W("DDUDU"), "D") == genfun_lower(W("DDUD"), "B")
    assert genfun_upper(W("DDUDU"), "D") == genfun_upper(W("DDUD"), "B")


def test_bridge_against_flip_matrices():
    from dycktile.incidence import build, invert

    M = build(4, 0, "I")
    N = build(4, 0, "II")
    Minv, Ninv = invert(M), invert(N)
    for lam in M.basis:
        for mu in M.basis:
            if is_above(mu, lam):
                assert genfun_pair(lam, mu, "D", INCLUSIVE, "art") == Minv.entry(lam, mu)
                assert genfun_pair(lam, mu, "D", INCLUSIVE, "tiles") == Ninv.entry(lam, mu)
                assert exclusive_signed_weight(lam, mu, "D", "art") == M.entry(lam, mu)
                assert exclusive_signed_weight(lam, mu, "D", "tiles") == N.entry(lam, mu)
            else:
                assert Minv.entry(lam, mu) == ZERO


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
from dycktile.tiling import build_region, check_exact_cover, enumerate_tilings


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
print(refusal(check_inverse, m, m))
"""


def test_invariants_raise_under_optimize():
    out = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_SCRIPT],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out.splitlines() == [
        "1",
        "tiles overlap",
        "tiles do not cover the region",
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


def test_tile_statistics_by_kind():
    ballot = Tile(
        kind="ballot_d",
        cells=((1, 0), (2, -1), (2, 1), (3, 0), (3, 2), (4, -1), (4, 1), (5, 2)),
        atom=(4, 2),
        lower=((2, -1), (3, 0), (4, 1)),
        upper=((2, 1), (3, 2), (4, 3)),
        glue=(1, 0),
    )
    assert (ballot.area, ballot.tiles, ballot.art) == (5, 1, 3)
    atom = Tile(kind="two_by_two", cells=((1, 0), (2, -1), (2, 1), (3, 0)), atom=(2, 0))
    assert (atom.area, atom.art) == (1, 1)
