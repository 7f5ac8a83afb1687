import hashlib
import json

import pytest
from hypothesis import given, strategies as st

from dycktile import treeform
from dycktile.linkflip import link_pattern
from dycktile.pathword import PathWord, all_words, dyck_words
from dycktile.qpoly import (
    ONE,
    InexactDivisionError,
    PolyQ,
    exact_div,
    prod,
    q2_binomial,
    q_binomial,
    q_factorial,
    q_int,
)
from dycktile.tiling import genfun_lower
from dycktile.treeform import (
    PlaneTree,
    StuckTreeError,
    TreeEdge,
    TreeNode,
    _merge_factor,
    _merged_chain,
    _one_plus_powers,
    _rule,
    _terminal,
    a_factor,
    build_tree,
    evaluations,
    factorized_p_b,
    factorized_p_d,
    kw_type_a,
    omega,
    q_b,
)

words = st.text(alphabet="UD", max_size=8).map(PathWord)

P2 = PolyQ((1, 1))
P2Q2 = PolyQ((1, 0, 1))
P2Q3 = PolyQ((1, 0, 0, 1))


def _shape(blob):
    return [(c["dotted"], _shape(c["children"])) for c in blob]


def shape(w):
    return _shape(build_tree(PathWord(w)).to_json()["children"])


def arrows(w):
    blob = build_tree(PathWord(w)).to_json()
    return [(tuple(a["source"]), tuple(a["target"])) for a in blob["arrows"]]


def test_tree_shape_empty():
    tree = build_tree(PathWord(""))
    assert tree.is_empty
    assert tree.to_json() == {"children": [], "arrows": []}


def test_tree_shape_ud():
    # the single arc is re-flagged dashed because the word ends with D
    assert shape("UD") == [(True, [])]


def test_tree_shape_uudd():
    assert shape("UUDD") == [(True, [(False, [])])]


def test_tree_shape_uuuu():
    # the wrapping arc swallows the second dashed arc below itself
    assert shape("UUUU") == [(True, [(True, [])])]


def test_tree_shape_uddd():
    # nested arcs become a chain: dotted top, two plain edges below
    assert shape("UDDD") == [(True, [(False, [(False, [])])])]


def test_tree_shape_dddd_and_dddu_agree():
    want = [(True, [(False, [(False, [(False, [])])])])]
    assert shape("DDDD") == want
    assert shape("DDDU") == want


def test_tree_shape_dduu():
    assert shape("DDUU") == [(False, [(False, [])]), (True, [])]
    assert arrows("DDUU") == [((1,), (0,))]


def test_tree_shape_duuduu():
    assert shape("DUUDUU") == [
        (True, [(False, []), (False, []), (True, [])])
    ]
    assert arrows("DUUDUU") == [((0, 2), (0, 1))]


# sha256 of the link pattern and tree JSON of every word of length 0-10,
# one sort_keys dump per line, recorded from the recursive parser that
# built the trees before the one-scan build
TREE_DIGEST_0_10 = "bbf13465d2bf564e8606c14cb3fa6a831b28a0ab1e19be290b85dd5f1a8cf4e7"


def test_link_patterns_and_trees_match_the_recorded_digest():
    h = hashlib.sha256()
    for n in range(11):
        for w in all_words(n):
            blob = [link_pattern(w).to_json(), build_tree(w).to_json()]
            h.update((json.dumps(blob, sort_keys=True) + "\n").encode())
    assert h.hexdigest() == TREE_DIGEST_0_10


# sha256 of the tree JSON of every word of length 0-11, one sort_keys
# dump per line, recorded from the build that paired U^p w from scratch
TREE_DIGEST_0_11 = "008804e9c2d658c134708a4388403734dd703dd7452af741ec8179862b05c3a7"


def test_trees_match_the_recorded_digest_through_length_11():
    h = hashlib.sha256()
    for n in range(12):
        for w in all_words(n):
            h.update((json.dumps(build_tree(w).to_json(), sort_keys=True) + "\n").encode())
    assert h.hexdigest() == TREE_DIGEST_0_11


# sha256 over every word of length 0-11 of omega's coefficients, or the
# StuckTreeError message, one json dump per line, recorded from the
# restart-from-root walker that evaluated omega before the fold
OMEGA_DIGEST_0_11 = "8536bf4ec15721bb5a863e382583eba67cfa5597508993c91d11c10e5a29975f"


def test_omega_matches_the_recorded_digest():
    h = hashlib.sha256()
    for n in range(12):
        for w in all_words(n):
            try:
                blob = list(omega(build_tree(w)).coeffs)
            except StuckTreeError as err:
                blob = str(err)
            h.update((json.dumps(blob) + "\n").encode())
    assert h.hexdigest() == OMEGA_DIGEST_0_11


@given(words)
def test_tree_edges_match_arcs(w):
    lp = link_pattern(w)
    tree = build_tree(w)
    edges = list(tree.edges())
    assert len(edges) == len(lp.arcs)
    assert sum(e.dotted for e in edges) == sum(a.dashed for a in lp.arcs)
    assert sum(e.outgoing is not None for e in edges) == sum(
        len(c) - 1 for c in lp.arrow_chains()
    )


def test_to_dot_mentions_styles():
    text = build_tree(PathWord("DUUDUU")).to_dot()
    assert text.startswith("digraph")
    assert "style=dotted" in text
    assert "style=dashed" in text  # the arrow


def test_omega_empty_tree_is_one():
    assert omega(build_tree(PathWord(""))) == ONE


def test_omega_single_chain_values():
    assert omega(build_tree(PathWord("UD"))) == ONE
    assert omega(build_tree(PathWord("UUUU"))) == ONE
    assert omega(build_tree(PathWord("UUDD"))) == P2
    assert omega(build_tree(PathWord("UDDD"))) == P2 * P2Q2


def test_omega_frozen_products():
    assert omega(build_tree(PathWord("DDUU"))) == P2 * P2Q2 * P2Q2
    assert omega(build_tree(PathWord("DDDD"))) == P2 * P2Q2 * P2Q3
    assert omega(build_tree(PathWord("DUUDUU"))) == q_int(3) * q_int(6)


def test_omega_matches_lower_sum_spot_checks_length_6():
    for s in ("DUUDUU", "DDUUDD", "UDUDUU", "DDUDUU"):
        w = PathWord(s)
        assert omega(build_tree(w)) == genfun_lower(w, "D", "art"), s


def test_omega_sticks_instead_of_guessing():
    # these trees need values no product of the rule factors can reach
    for s in ("DUDDUU", "DDUDUUU", "DUDUDUUU"):
        with pytest.raises(StuckTreeError):
            omega(build_tree(PathWord(s)))


def test_omega_sticks_on_hand_built_tree():
    # a dotted left chain matches no rule
    left = TreeEdge(TreeNode(), dotted=True)
    right = TreeEdge(TreeNode(), dotted=False)
    with pytest.raises(StuckTreeError):
        omega(PlaneTree(TreeNode([left, right])))


def test_omega_does_not_mutate_its_input():
    tree = build_tree(PathWord("DDUU"))
    before = tree.to_json()
    omega(tree)
    assert tree.to_json() == before
    # the fold builds merged chains from new edges and changes no edge
    # of the tree, also when the tree sticks part way
    for n in range(9):
        for w in all_words(n):
            tree = build_tree(w)
            before = _snapshot(tree)
            try:
                omega(tree)
            except StuckTreeError:
                pass
            assert _snapshot(tree) == before, w


def _omega_or_none(tree):
    try:
        return omega(tree)
    except StuckTreeError:
        return None


def test_canonical_order_matches_every_order():
    for n in range(11):
        for w in all_words(n):
            tree = build_tree(w)
            values = {exact_div(a, b) for a, b in evaluations(tree)}
            got = _omega_or_none(tree)
            assert values == (set() if got is None else {got}), w


# sha256 over every word of length 0-11 of the sorted (numerator,
# denominator) coefficient pairs of every merge order, one json dump per
# line, recorded from the walker that searched the orders by merging and
# undoing in place before the per-vertex search
EVALUATIONS_DIGEST_0_11 = "0dbe84aabfc8f87b7c90c5fb5e0d148088e9cd503aec50f3590610ae6a1e8cd5"


def test_evaluations_match_the_recorded_digest():
    h = hashlib.sha256()
    for n in range(12):
        for w in all_words(n):
            pairs = evaluations(build_tree(w))
            blob = sorted([list(a.coeffs), list(b.coeffs)] for a, b in pairs)
            h.update((json.dumps(blob) + "\n").encode())
    assert h.hexdigest() == EVALUATIONS_DIGEST_0_11


def _plain_leaves(count):
    return [TreeEdge(TreeNode()) for _ in range(count)]


def test_evaluations_explore_orders_omega_does_not_take(monkeypatch):
    # with a factor of q^n for a left chain of n edges, merging the left
    # pair of three leaves first gives q * q^2, the right pair first
    # q * q; through length 11 no word has two distinct pairs
    monkeypatch.setattr(
        treeform, "_merge_factor", lambda rule, n, m: (PolyQ((0,) * n + (1,)), ONE)
    )
    fan = PlaneTree(TreeNode(_plain_leaves(3)))
    forks = PlaneTree(
        TreeNode([TreeEdge(TreeNode(_plain_leaves(3))) for _ in range(2)])
    )
    for tree, orders in ((fan, 2), (forks, 3)):
        pairs = evaluations(tree)
        assert len(pairs) == orders
        assert (omega(tree), ONE) in pairs


def test_omega_reads_the_merge_factor_in_force(monkeypatch):
    # the product cache is keyed by the factors, not by the rule and
    # chain lengths, so a patched _merge_factor is never read stale
    fan = PlaneTree(TreeNode(_plain_leaves(3)))
    terminal = _one_plus_powers(1, 3)
    assert omega(fan) == q_binomial(2, 1) * q_binomial(3, 1) * terminal
    monkeypatch.setattr(
        treeform, "_merge_factor", lambda rule, n, m: (PolyQ((0,) * n + (1,)), ONE)
    )
    assert omega(fan) == terminal.scale_by_monomial(1, 3)


def test_inexact_division_is_raised_on_every_call(monkeypatch):
    # [3]^2 does not divide the terminal weight (1+q)(1+q^2)(1+q^3)
    monkeypatch.setattr(
        treeform, "_merge_factor", lambda rule, n, m: (ONE, q_int(3))
    )
    fan = PlaneTree(TreeNode(_plain_leaves(3)))
    misses = treeform._quotient.cache_info().misses
    for _ in range(3):
        with pytest.raises(InexactDivisionError):
            omega(fan)
    assert treeform._quotient.cache_info().misses == misses + 3


def _entries(node):
    """A vertex's children as ("c", chain) for a path down to a leaf
    and ("n", edge, entries) for an edge over a branched vertex."""
    return tuple(_entry(e, _entries(e.child)) for e in node.children)


def _entry(edge, below):
    if not below:
        return ("c", (edge,))
    if len(below) == 1 and below[0][0] == "c":
        return ("c", (edge,) + below[0][1])
    return ("n", edge, below)


def _moves(entries, allowed):
    """Every single merge anywhere below entries, as copies."""
    for k in range(1, len(entries) if allowed else 1):
        left, right = entries[k - 1], entries[k]
        if left[0] != "c" or right[0] != "c":
            continue
        rest = tuple(x[1][0] if x[0] == "c" else x[1] for x in entries[k + 1 :])
        rule = _rule(list(left[1]), list(right[1]), rest)
        if rule is None:
            continue
        chain = tuple(_merged_chain(rule, list(left[1]), list(right[1])))
        num, den = _merge_factor(rule, len(left[1]), len(right[1]))
        yield entries[: k - 1] + (("c", chain),) + entries[k + 1 :], num, den
    for i, x in enumerate(entries):
        if x[0] != "n":
            continue
        edge = x[1]
        below = allowed and edge.outgoing is None and edge.incoming is None
        for sub, num, den in _moves(x[2], below):
            yield entries[:i] + (_entry(edge, sub),) + entries[i + 1 :], num, den


def _order_outcomes(entries):
    """Final (num, den) pairs over every global order of merges."""
    if all(x[0] == "c" for x in entries) and len(entries) < 2:
        return {(_terminal(list(entries[0][1]) if entries else []), ONE)}
    out = set()
    for work, num, den in _moves(entries, True):
        out |= {(num * a, den * b) for a, b in _order_outcomes(work)}
    return out


def test_merge_orders_agree_up_to_length_5():
    # a copying search over the whole tree, one merge at a time at any
    # vertex, independent of the per-vertex search in evaluations
    for n in range(6):
        for w in all_words(n):
            tree = build_tree(w)
            pairs = _order_outcomes(_entries(tree.root))
            values = {exact_div(a, b) for a, b in pairs}
            assert len(values) == 1, w
            assert set(evaluations(tree)) == pairs, w


def test_omega_runs_no_search(monkeypatch):
    trees = [build_tree(w) for n in range(8) for w in all_words(n)]
    want = [_omega_or_none(tree) for tree in trees]

    def searched(*args):
        raise AssertionError("omega must not run the all-orders search")

    monkeypatch.setattr(treeform, "evaluations", searched)
    monkeypatch.setattr(treeform, "_collapses", searched)
    monkeypatch.setattr(treeform, "_key", searched)
    assert [_omega_or_none(tree) for tree in trees] == want
    assert want.count(None) == 20  # 2 words of length 6, 18 of length 7


def _snapshot(tree):
    """Every edge with the objects and flags a merge could change.

    TreeEdge compares by identity, so equal snapshots hold the same
    objects, not copies of them.
    """
    edges = [
        (e, e.outgoing, e.incoming, e.dotted, e.merged, list(e.child.children))
        for e in tree.edges()
    ]
    return edges, list(tree.root.children)


def test_evaluations_restore_the_tree_exactly():
    for n in range(9):
        for w in all_words(n):
            tree = build_tree(w)
            before = _snapshot(tree)
            evaluations(tree)
            assert _snapshot(tree) == before, w


def test_kw_type_a_examples():
    assert kw_type_a(PathWord("")) == ONE
    assert kw_type_a(PathWord("UD")) == ONE
    assert kw_type_a(PathWord("UDUD")) == P2
    assert kw_type_a(PathWord("UUDD")) == ONE
    assert kw_type_a(PathWord("UUDDUD")) == q_int(3)


def test_kw_type_a_hooks_count_nested_arcs():
    # the hook length of a matched U-D pair is one plus the number of
    # pairs strictly nested inside it
    for n in range(0, 11, 2):
        for w in dyck_words(n):
            stack, pairs = [], []
            for i, s in enumerate(w.steps):
                if s == "U":
                    stack.append(i)
                else:
                    pairs.append((stack.pop(), i))
            hooks = [
                1 + sum(1 for o2, c2 in pairs if o < o2 and c2 < c) for o, c in pairs
            ]
            want = exact_div(q_factorial(len(pairs)), prod(q_int(h) for h in hooks))
            assert kw_type_a(w) == want, w


@given(st.integers(0, 5))
def test_kw_type_a_mirror_invariance(size):
    # the mirror image: steps reversed, with U and D exchanged
    swap = str.maketrans("UD", "DU")
    for w in dyck_words(2 * size):
        assert kw_type_a(w) == kw_type_a(PathWord(w.steps[::-1].translate(swap))), w


def test_kw_type_a_rejects_non_dyck():
    with pytest.raises(ValueError):
        kw_type_a(PathWord("DU"))


def test_a_factor_frozen():
    assert a_factor(1, 2) == (q_int(4), q_int(2))
    assert a_factor(2, 2) == (q_int(6), q_int(4))
    assert a_factor(3, 2) == (q_int(6), q_int(4))
    assert a_factor(1, 0) == (q_int(2), q_int(2))
    with pytest.raises(ValueError):
        a_factor(0, 2)
    with pytest.raises(ValueError):
        a_factor(1, -1)


def test_q_b_pinned_values():
    assert q_b(0, 3) == P2 * P2Q2 * P2Q3
    assert q_b(1, 2) == P2 * P2Q2 * P2Q2
    assert q_b(3, 0) == ONE
    assert q_b(0, 0) == ONE


def test_q_b_rejects_negative():
    with pytest.raises(ValueError):
        q_b(-1, 0)


def test_factorized_p_d_frozen():
    assert factorized_p_d(PathWord("")) == ONE
    assert factorized_p_d(PathWord("DDDD")) == P2 * P2Q2 * P2Q3
    assert factorized_p_d(PathWord("UUUDDD")) == P2 * P2Q2


def test_factorized_p_d_matches_lower_sum():
    for n in range(7):
        for w in all_words(n):
            try:
                got = factorized_p_d(w)
            except ValueError:
                continue
            assert got == genfun_lower(w, "D", "art"), w


def test_factorized_p_b_matches_lower_sum():
    for n in range(6):
        for w in all_words(n):
            try:
                got = factorized_p_b(w)
            except ValueError:
                continue
            assert got == genfun_lower(w, "B", "art"), w


def test_factorized_rejects_unsupported_shapes():
    for s in ("UDUDDD", "UDDUU", "UDUU"):
        with pytest.raises(ValueError):
            factorized_p_d(PathWord(s))
        with pytest.raises(ValueError):
            factorized_p_b(PathWord(s))


def test_merge_factor_matches_the_rule_formulas():
    assert _merge_factor(1, 1, 1) == (PolyQ((1, 1)), ONE)
    assert _merge_factor(2, 1, 1) == (PolyQ((1, 1, 1, 1)), ONE)
    assert _merge_factor(3, 1, 1) == (PolyQ((1, 1, 1, 1)) * q_int(3), q_int(4))
    for n in range(1, 7):
        for m in range(1, 7):
            rule2 = q2_binomial(m + n, m) * _one_plus_powers(1, n)
            assert _merge_factor(1, n, m) == (q_binomial(m + n, m), ONE)
            assert _merge_factor(2, n, m) == (rule2, ONE)
            assert _merge_factor(3, n, m) == (rule2 * q_int(2 * m + n), q_int(2 * m + 2 * n))


def test_one_plus_powers_from_zero():
    # 1 + q^0 is 2, so the product from 0 doubles the product from 1
    assert _one_plus_powers(0, 0) == PolyQ((2,))
    assert _one_plus_powers(0, 2) == PolyQ((2, 2, 2, 2))
    assert _one_plus_powers(0, 2) == PolyQ((2,)) * _one_plus_powers(1, 2)
