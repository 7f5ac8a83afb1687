import itertools

import pytest
from hypothesis import given, strategies as st

from dycktile.linkflip import (
    ExtArc,
    arc_exponents,
    arc_size,
    flip,
    link_pattern,
    pair_arcs,
    weight_I,
    weight_II,
)
from dycktile.pathword import PathWord, all_words, is_above
from dycktile.qpoly import ONE, PolyQ

words = st.text(alphabet="UD", max_size=8).map(PathWord)


def test_pair_arcs_examples():
    a = pair_arcs(PathWord("UUUU"))
    assert a.dashed_arcs == {(1, 2), (3, 4)} and not a.simple_arcs

    a = pair_arcs(PathWord("UUDD"))
    assert a.simple_arcs == {(2, 3), (1, 4)} and not a.dashed_arcs

    a = pair_arcs(PathWord("DUUDUU"))
    assert a.simple_arcs == {(3, 4)}
    assert a.dashed_arcs == {(5, 6)}
    assert a.unpaired_d == (1,) and a.unpaired_u == (2,)


def test_pair_arcs_leftmost_u_unpaired_on_odd_count():
    a = pair_arcs(PathWord("UUU"))
    assert a.unpaired_u == (1,) and a.dashed_arcs == {(2, 3)}


def test_arc_size():
    assert arc_size((1, 2)) == 1
    assert arc_size((1, 4)) == 2
    assert arc_size((3, 8)) == 3


def test_flip_examples():
    assert flip(PathWord("UUUU"), [(3, 4)]) == PathWord("UUDD")
    assert flip(PathWord("UUDD"), [(1, 4)]) == PathWord("DUDU")
    w = PathWord("DUUDUU")
    assert flip(w, []) == w
    with pytest.raises(ValueError):
        flip(PathWord("UUDD"), [(1, 2)])


def test_flip_refuses_a_repeated_arc():
    # S is a subset of the arcs; flipping (1, 2) twice is not a flip
    with pytest.raises(ValueError, match=r"\(1, 2\) is listed twice"):
        flip(PathWord("UDUD"), [(1, 2), (1, 2)])


@pytest.mark.parametrize("weight", [weight_I, weight_II])
def test_weights_refuse_a_repeated_arc(weight):
    with pytest.raises(ValueError, match=r"\(1, 2\) is listed twice"):
        weight(PathWord("UDUD"), [(1, 2), (1, 2)])


def test_weight_examples():
    mq = ONE.scale_by_monomial(-1, 1)
    assert weight_I(PathWord("UUUU"), [(3, 4)]) == mq
    assert weight_I(PathWord("UUUU"), [(1, 2)]) == ONE.scale_by_monomial(-1, 3)
    assert weight_I(PathWord("UUDD"), [(1, 4), (2, 3)]) == PolyQ((0, 0, 0, 1))
    assert weight_II(PathWord("UUDD"), [(1, 4), (2, 3)]) == PolyQ((0, 0, 1))
    assert weight_I(PathWord("UUDD"), []) == ONE


def reference_exponent(w, arc, kind):
    """The e of arc (i, j)'s weight -q^e, read off its geometry: the arc
    is simple when it closes on a D and dashed when it closes on a U."""
    if kind == "II":
        return 1
    i, j = arc
    m = (j - i + 1) // 2
    return m if w.steps[j - 1] == "D" else m + w.length - j


@pytest.mark.parametrize("kind", ["I", "II"])
def test_arc_exponents_match_the_arc_geometry(kind):
    for n in range(11):
        for w in all_words(n):
            got = arc_exponents(w, kind)
            assert [arc for arc, _ in got] == list(pair_arcs(w).all_arcs())
            for arc, e in got:
                assert e == reference_exponent(w, arc, kind), (w.steps, arc)


def test_arc_exponents_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="kind must be"):
        arc_exponents(PathWord("UU"), "III")


def _arcs(lp):
    return {(a.open, a.close): a.dashed for a in lp.arcs}


def test_link_pattern_ud():
    # the final letter is D, so its arc is re-flagged dashed
    lp = link_pattern(PathWord("UD"))
    assert lp.prepended_u_count == 0
    assert _arcs(lp) == {(1, 2): True}


def test_link_pattern_duuduu():
    lp = link_pattern(PathWord("DUUDUU"))
    assert lp.prepended_u_count == 2
    assert _arcs(lp) == {(0, 1): False, (3, 4): False, (-1, 2): True, (5, 6): True}
    outer = {(a.open, a.close) for a in lp.outer_arcs()}
    assert outer == {(-1, 2), (3, 4), (5, 6)}
    chains = [[(a.open, a.close) for a in c] for c in lp.arrow_chains()]
    assert chains == [[(-1, 2)], [(5, 6), (3, 4)]]


def test_link_pattern_dduduud():
    lp = link_pattern(PathWord("DDUDUUD"))
    assert lp.prepended_u_count == 3
    assert _arcs(lp) == {
        (0, 1): False,
        (-1, 2): False,
        (3, 4): False,
        (-2, 5): True,
        (6, 7): True,
    }


def test_link_pattern_last_letter_d_becomes_dashed():
    lp = link_pattern(PathWord("UUDD"))
    assert lp.prepended_u_count == 0
    assert _arcs(lp) == {(2, 3): False, (1, 4): True}

    lp = link_pattern(PathWord("DDDD"))
    assert lp.prepended_u_count == 4
    assert _arcs(lp) == {(0, 1): False, (-1, 2): False, (-2, 3): False, (-3, 4): True}


def test_link_pattern_dddu_matches_dddd_arcs():
    lp = link_pattern(PathWord("DDDU"))
    assert lp.prepended_u_count == 4
    assert _arcs(lp) == {(0, 1): False, (-1, 2): False, (-2, 3): False, (-3, 4): True}


def test_link_pattern_dduu_arrow():
    lp = link_pattern(PathWord("DDUU"))
    assert lp.prepended_u_count == 2
    assert _arcs(lp) == {(0, 1): False, (-1, 2): False, (3, 4): True}
    chains = [[(a.open, a.close) for a in c] for c in lp.arrow_chains()]
    assert chains == [[(3, 4), (-1, 2)]]


def test_link_pattern_json_shape():
    blob = link_pattern(PathWord("DDUU")).to_json()
    assert blob["word"] == "DDUU"
    assert blob["prepended_u_count"] == 2
    assert all(set(a) == {"open", "close", "dashed", "outer"} for a in blob["arcs"])
    assert all(isinstance(c, list) for c in blob["arrow_chains"])


def _exhaustive_words(max_len):
    for n in range(max_len + 1):
        yield from all_words(n)


def test_flip_subsets_are_injective_up_to_length_8():
    for w in _exhaustive_words(8):
        arcs = pair_arcs(w).all_arcs()
        seen = {}
        for k in range(len(arcs) + 1):
            for S in itertools.combinations(arcs, k):
                out = flip(w, S)
                assert out not in seen, (w, S, seen[out])
                seen[out] = S


@given(words, st.randoms())
def test_flip_moves_weakly_down_and_preserves_sign(w, rng):
    arcs = pair_arcs(w).all_arcs()
    S = [a for a in arcs if rng.random() < 0.5]
    out = flip(w, S)
    assert is_above(w, out)
    assert out.epsilon == w.epsilon
    simple = pair_arcs(w).simple_arcs
    drop = 4 * sum(1 for a in S if a not in simple)
    assert out.end_height == w.end_height - drop


@given(words)
def test_link_pattern_structure(w):
    lp = link_pattern(w)
    arcs = lp.arcs
    # every position of the extended word is covered exactly once
    covered = sorted([a.open for a in arcs] + [a.close for a in arcs])
    lo = 1 - lp.prepended_u_count
    assert covered == list(range(lo, w.length + 1))
    # noncrossing
    for a, b in itertools.combinations(arcs, 2):
        assert not (a.open < b.open < a.close < b.close)
        assert not (b.open < a.open < b.close < a.close)
    # dashed arcs are outer
    outer = set(lp.outer_arcs())
    for a in arcs:
        if a.dashed:
            assert a in outer
    # each dashed arc heads exactly one chain
    chains = lp.arrow_chains()
    assert len(chains) == sum(1 for a in arcs if a.dashed)
    for chain in chains:
        assert chain[0].dashed
        assert all(not b.dashed for b in chain[1:])


@given(words)
def test_outer_arcs_are_the_arcs_nested_in_no_other(w):
    lp = link_pattern(w)
    want = tuple(
        a
        for a in lp.arcs
        if not any(b.open < a.open and a.close < b.close for b in lp.arcs)
    )
    assert lp.outer_arcs() == want


def _link_pattern_by_definition(w):
    """(p, arcs) from the definition: p from the heights, U^p w paired
    from scratch (bracket matching, then the leftover U's in pairs from
    the right), and the arc of a final D re-flagged dashed."""
    d = -min(w.heights)
    p = d + (w.end_height + d) % 2
    stack, arcs = [], []
    for pos, s in zip(range(1 - p, w.length + 1), "U" * p + w.steps):
        if s == "U":
            stack.append(pos)
        else:
            arcs.append((stack.pop(), pos, False))
    while stack:
        close = stack.pop()
        arcs.append((stack.pop(), close, True))
    if w.steps.endswith("D"):
        arcs = [(i, j, dashed or j == w.length) for i, j, dashed in arcs]
    return p, sorted(arcs)


def _as_tuples(lp):
    return lp.prepended_u_count, [(a.open, a.close, a.dashed) for a in lp.arcs]


def test_link_pattern_matches_its_definition_up_to_length_12():
    for w in _exhaustive_words(12):
        assert _as_tuples(link_pattern(w)) == _link_pattern_by_definition(w), w


@given(st.text(alphabet="UD", min_size=13, max_size=60).map(PathWord))
def test_link_pattern_matches_its_definition_on_long_words(w):
    assert _as_tuples(link_pattern(w)) == _link_pattern_by_definition(w)


def test_ext_arc_is_a_named_tuple():
    a = ExtArc(-1, 2, True)
    assert (a.open, a.close, a.dashed) == (-1, 2, True)
    assert a == (-1, 2, True) and hash(a) == hash((-1, 2, True))
