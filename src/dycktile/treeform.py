"""Decorated plane trees of a word and closed product formulas.

A word is read through its link pattern (see linkflip) and turned into
a rooted plane tree with one edge per arc, in one pass over the arcs
in open order with a stack of open vertices.  An arc adds an edge below
the top vertex and pushes the edge's child; the edge is dotted when the
arc is dashed.  An arc that closes with a D is popped before the next
arc that opens right of it, so what follows it hangs beside it as
right siblings.  A dashed arc that closes with a U is never popped:
its edge swallows everything to its right, so such an edge is always a
rightmost child.  Each edge gets its arrow in the same pass, as it is
placed: the link pattern gives every arc the index of the earlier arc
its arrow points at, so the arrows join consecutive members of each
arrow chain.  The link pattern, and so the tree, of vU and of vD agree:
the tree belongs to the ballot path v.

The tree is then evaluated by repeatedly merging two adjacent sibling
chains (a chain is a child edge whose subtree is a bare path).  With N
the length of the left chain, which must be entirely plain, and M the
length of the right chain, a merge contributes

  rule 1: [M+N choose M]_q        right chain plain, no arrow touches
                                  its top, left top has no incoming;
  rule 2: [M+N choose M]_{q^2} *  right chain dotted at its top, top
          prod(1+q^i, i<=N)       has no outgoing arrow;
  rule 3: rule 2 * [2M+N]/[2M+2N] as rule 2 but the top of the right
                                  chain points at the top of the left.

The merge grafts the left chain above the right one: the right chain
keeps its decoration, and under rules 2 and 3 the new top edge gets a
dot.  All rules keep the outgoing arrow of the left top on the merged
top, so a chain of arrows triggers rule 3 repeatedly.  When a single
chain remains, it contributes 1 when its bottom edge is dotted and
otherwise prod(1+q^i) with i running over the plain run at the bottom.
The rule 3 denominators are divided out at the very end.

The rules are only trusted in configurations the worked examples pin
down, and outside them a merge is refused rather than guessed at.
Nothing merges strictly below an edge that carries an arrow, and _rule
holds every other refusal, deciding from dotted, merged and arrow
flags alone: rule 1 refuses while an unconsumed dotted top still sits
further right among the siblings, rule 3 with a left chain longer than
one edge requires that the left top has no outgoing arrow, and rule 2
never consumes a left top that receives an arrow and, once the right
chain contains edges produced by an earlier merge, only fires with a
single left edge and at most two right edges.

omega applies the merges in one canonical order, as one post-order
fold that leaves the tree unchanged: each vertex, deepest first,
collapses its child chains into one, each time merging the first pair
_rule accepts and rescanning from the left, and a vertex that stays
branched raises StuckTreeError at once.  So each merge is the leftmost
one _rule accepts at the first vertex, in post-order, that has one.  A
merge changes only its own vertex's child list; every other edge keeps
the presence of its arrows, and the skip below arrows and _rule read
that presence (rule 3 also asks whether the right top points at the
left top, both edges of the pair at hand).  So a vertex without a
merge never gains one later, and every order, like the fold, sticks
there.  The rule numerators with the terminal weight, and the rule
denominators, are sorted into two tuples of factor polynomials, and
the product and quotient are formed once per distinct pair of tuples
(the cache is keyed by the factors themselves, so it cannot hand out a
product of other factors).  The search over every merge order
(evaluations) is a fold of the same shape: each vertex merges every
combination of its children's outcomes in every order _rule accepts,
over the same chain lists, so nothing changes a tree once build_tree
returns.  It serves as the confluence check: on every word through
length twelve, each order that finishes gives the canonical value, and
the canonical order sticks exactly when every order does.  Exhaustive
comparison against the tiling sums covers every word up to length
nine: each word either evaluates to the same polynomial or raises, and
none shorter than six raises.  That the raising words lie outside the
rules is not shown.

The same product shapes appear on their own: kw_type_a is the hook
quotient over the simple arcs of a Dyck word, q_b(M, N) multiplies the
a-factors a_(j,N) onto prod(1+q^i), and factorized_p_d/_b evaluate
words of the restricted shape (prime Dyck prefix, then D^N U^M) as
hook quotient times connector times q_b.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from operator import attrgetter
from typing import Iterator, Optional

from .linkflip import arc_size, link_pattern, pair_arcs
from .pathword import PathWord, classify
from .qpoly import (
    ONE,
    PolyQ,
    exact_div,
    prod,
    q2_binomial,
    q_binomial,
    q_factorial,
    q_int,
)


class StuckTreeError(Exception):
    """No merge rule applies but the tree is not yet a single chain."""


def _one_plus_q(i: int) -> PolyQ:
    """1 + q^i, which is 2 for i = 0."""
    return ONE + ONE.scale_by_monomial(1, i)


@cache
def _one_plus_powers(lo: int, hi: int) -> PolyQ:
    """prod(1+q^j) for lo <= j <= hi (empty when hi < lo); shared
    between calls, as PolyQ is immutable."""
    return prod(_one_plus_q(j) for j in range(lo, hi + 1))


@dataclass(eq=False, slots=True)
class TreeNode:
    """A vertex; children are edges ordered left to right."""

    children: list["TreeEdge"] = field(default_factory=list)


@dataclass(eq=False, slots=True)
class TreeEdge:
    """An edge to a child vertex, optionally dotted, with arrows.

    merged marks edges rebuilt by a merge; _rule reads it, since rule 2
    refuses long chains once the right chain holds merged edges.
    """

    child: TreeNode
    dotted: bool = False
    outgoing: Optional["TreeEdge"] = None
    incoming: Optional["TreeEdge"] = None
    merged: bool = False


@dataclass(eq=False)
class PlaneTree:
    """A rooted plane tree with dotted edges and edge-to-edge arrows."""

    root: TreeNode

    def edges(self) -> Iterator[TreeEdge]:
        """All edges in depth-first order."""
        stack = list(reversed(self.root.children))
        while stack:
            e = stack.pop()
            yield e
            stack.extend(reversed(e.child.children))

    @property
    def is_empty(self) -> bool:
        return not self.root.children

    def to_json(self) -> dict:
        """Nested children with dotted flags; arrows as child-index paths."""
        paths: dict[int, tuple[int, ...]] = {}

        def walk(node: TreeNode, prefix: tuple[int, ...]) -> list[dict]:
            out = []
            for k, e in enumerate(node.children):
                path = prefix + (k,)
                paths[id(e)] = path
                out.append(
                    {"dotted": e.dotted, "children": walk(e.child, path)}
                )
            return out

        children = walk(self.root, ())
        arrows = []
        for e in self.edges():
            if e.outgoing is not None:
                arrows.append(
                    {
                        "source": list(paths[id(e)]),
                        "target": list(paths[id(e.outgoing)]),
                    }
                )
        return {"children": children, "arrows": arrows}

    def to_dot(self) -> str:
        """Graphviz text: solid/dotted tree edges, dashed gray arrows."""
        names: dict[int, str] = {id(self.root): "n0"}
        lines = ["digraph tree {", "  node [shape=point];"]
        counter = [0]

        def walk(node: TreeNode) -> None:
            for e in node.children:
                counter[0] += 1
                names[id(e.child)] = "n%d" % counter[0]
                style = "dotted" if e.dotted else "solid"
                lines.append(
                    "  %s -> %s [style=%s];"
                    % (names[id(node)], names[id(e.child)], style)
                )
                walk(e.child)

        walk(self.root)
        for e in self.edges():
            if e.outgoing is not None:
                lines.append(
                    "  %s -> %s [style=dashed, color=gray, constraint=false];"
                    % (names[id(e.child)], names[id(e.outgoing.child)])
                )
        lines.append("}")
        return "\n".join(lines)


def build_tree(w: PathWord) -> PlaneTree:
    """The decorated plane tree of a word, one edge per extended arc.

    The arcs come in open order.  Before an arc's edge is placed below
    the top vertex, every vertex whose arc closed with a D to its left
    is popped; an arc that closes with a U is never popped.  The link
    pattern gives each arc the earlier arc its arrow points at, so the
    edge's arrow is set as the edge is placed.
    """
    lp = link_pattern(w)
    steps = w.steps
    never = w.length + 1
    root = TreeNode()
    nodes = [root]
    closes = [never]
    edges: list[TreeEdge] = []
    for (start, end, dashed), target in zip(lp.arcs, lp.arrows):
        while closes[-1] < start:
            closes.pop()
            nodes.pop()
        edge = TreeEdge(TreeNode(), dashed)
        if target is not None:
            edge.outgoing = edges[target]
            edges[target].incoming = edge
        edges.append(edge)
        nodes[-1].children.append(edge)
        nodes.append(edge.child)
        closes.append(end if steps[end - 1] == "D" else never)
    return PlaneTree(root)


def _rule(
    left: list[TreeEdge], right: list[TreeEdge], rest: tuple[TreeEdge, ...]
) -> Optional[int]:
    """The rule (1, 2 or 3) that merges two sibling chains, or None.

    Decided from the dotted, merged and arrow flags alone, and home of
    every refusal guard.  rest holds the top edges right of the pair at
    the same vertex: an original dotted top there vetoes rule 1, which
    must not jump the queue ahead of the dotted chain it would feed.
    """
    if any(e.dotted for e in left):
        return None
    l_top, r_top = left[0], right[0]
    if r_top.dotted:
        if r_top.outgoing is None:
            if l_top.incoming is not None:
                return None
            if (len(left) > 1 or len(right) > 2) and any(e.merged for e in right):
                return None
            return 2
        if r_top.outgoing is l_top:
            if len(left) > 1 and l_top.outgoing is not None:
                return None
            return 3
        return None
    if any(e.dotted for e in right):
        return None
    if any(e.dotted and not e.merged for e in rest):
        return None
    if r_top.outgoing is None and r_top.incoming is None and l_top.incoming is None:
        return 1
    return None


@cache
def _merge_factor(rule: int, n: int, m: int) -> tuple[PolyQ, PolyQ]:
    """(num, den) of a rule merging a left chain of n edges with a right
    chain of m edges; shared between calls, as PolyQ is immutable."""
    if rule == 1:
        return q_binomial(m + n, m), ONE
    num = q2_binomial(m + n, m) * _one_plus_powers(1, n)
    if rule == 3:
        return num * q_int(2 * m + n), q_int(2 * m + 2 * n)
    return num, ONE


# The edges below the top of a merged chain.  Only a chain's top can
# carry an arrow that _rule reads, so every such edge is one of these
# two, by its dot; they are never changed.
_MERGED_EDGES = {
    flag: TreeEdge(TreeNode(), dotted=flag, merged=True) for flag in (False, True)
}


def _merged_chain(
    rule: int, left: list[TreeEdge], right: list[TreeEdge]
) -> list[TreeEdge]:
    """The chain a merge makes of left and right.

    The left chain is grafted above the right one: the right chain keeps
    its dots and under rules 2 and 3 the top gets one.  Every edge is
    flagged merged.  The top is a new edge, which takes over the
    outgoing arrow of the left top unless the merge consumes it; the
    edges below it are the shared _MERGED_EDGES.  Nothing else is
    changed.
    """
    top = TreeEdge(TreeNode(), dotted=rule != 1, merged=True)
    target = left[0].outgoing
    if target is not None and target not in (left[0], right[0]):
        top.outgoing = target
    below = _MERGED_EDGES
    return [top] + [below[False]] * (len(left) - 1) + [below[e.dotted] for e in right]


def _terminal(chain: list[TreeEdge]) -> PolyQ:
    """Weight of a finished single chain."""
    if not chain or chain[-1].dotted:
        return ONE
    run = 0
    while run < len(chain) and not chain[-1 - run].dotted:
        run += 1
    return _one_plus_powers(1, run)


def _fold(
    node: TreeNode, allowed: bool, nums: list[PolyQ], dens: list[PolyQ]
) -> list[TreeEdge]:
    """The one chain node's child chains collapse into, deepest first.

    Each child's subtree is folded first, then node's chains are merged
    pair by pair, each time the first pair _rule accepts, rescanning
    from the left; node is not merged when allowed is false (it lies
    below an edge with an arrow).  Merge factors other than 1 are
    appended to nums and dens.  Raises StuckTreeError when node stays
    branched.
    """
    chains = []
    for e in node.children:
        chain = [e]
        if e.child.children:
            below = allowed and e.outgoing is None and e.incoming is None
            chain += _fold(e.child, below, nums, dens)
        chains.append(chain)
    while len(chains) > 1:
        rule = None
        if allowed:
            for k in range(1, len(chains)):
                rest = tuple(c[0] for c in chains[k + 1 :])
                rule = _rule(chains[k - 1], chains[k], rest)
                if rule is not None:
                    break
        if rule is None:
            raise StuckTreeError("no merge rule applies to this tree")
        left, right = chains[k - 1], chains[k]
        chains[k - 1 : k + 1] = [_merged_chain(rule, left, right)]
        num, den = _merge_factor(rule, len(left), len(right))
        if num != ONE:
            nums.append(num)
        if den != ONE:
            dens.append(den)
    return chains[0] if chains else []


def omega(tree: PlaneTree) -> PolyQ:
    """Evaluate a decorated tree by chain merges; the input is not changed.

    One post-order fold: every vertex, deepest first, collapses its
    child chains into one by merging the first pair _rule accepts and
    rescanning from the left, so each merge is the leftmost one _rule
    accepts at the first vertex, in post-order, that has one.  A vertex
    that stays branched makes the tree stuck, outside the rules, and
    raises StuckTreeError at once: no later merge changes that vertex's
    children or the arrow flags _rule reads there.  That every order
    finishing gives this value, and that this order sticks exactly when
    every order does, is what the merge-confluence check tests against
    evaluations; it holds for every word through length 12.  The rule
    numerators and the terminal weight are multiplied once and the rule
    3 denominators divided out once, at the end, by _quotient, which
    does so once per distinct sorted tuple of factors;
    InexactDivisionError signals one that fails to divide out.
    """
    nums: list[PolyQ] = []
    dens: list[PolyQ] = []
    end = _terminal(_fold(tree.root, True, nums, dens))
    if end != ONE:
        nums.append(end)
    nums.sort(key=_coeffs)
    dens.sort(key=_coeffs)
    return _quotient(tuple(nums), tuple(dens))


_coeffs = attrgetter("coeffs")


@cache
def _quotient(nums: tuple[PolyQ, ...], dens: tuple[PolyQ, ...]) -> PolyQ:
    """prod(nums) / prod(dens), formed once per distinct pair of sorted
    factor tuples.  The key is the factors themselves, so a different
    _merge_factor never reads a stale product, and an
    InexactDivisionError, like every exception, is not cached."""
    num = prod(nums)
    return exact_div(num, prod(dens)) if dens else num


def _key(chain: list[TreeEdge]) -> tuple:
    """What _rule, _merged_chain and _terminal read of a chain: a tree
    edge by identity, an edge made by a merge by its dot and arrow (no
    arrow ever points at one)."""
    return tuple((e.dotted, e.outgoing) if e.merged else e for e in chain)


def _times(a: PolyQ, b: PolyQ) -> PolyQ:
    """a * b, without a multiplication when either is 1."""
    return a if b == ONE else b if a == ONE else a * b


def _collapses(node: TreeNode, allowed: bool) -> dict[tuple, list[TreeEdge]]:
    """Every chain node's child chains can collapse into, by its factors.

    Keys are (_key(chain), num, den), where num and den multiply the
    merge factors of node's subtree, and values are the chains.  Each combination of the children's
    outcomes is merged in every order _rule accepts, not only the first
    pair; node is not merged when allowed is false (it lies below an
    edge with an arrow), and a state of two or more chains that no
    merge accepts yields nothing.  States are memoised on their chains.
    """
    starts = [([], ONE, ONE)]
    for e in node.children:
        below = allowed and e.outgoing is None and e.incoming is None
        outcomes = _collapses(e.child, below).items()
        starts = [
            (chains + [[e] + chain], _times(num, a), _times(den, b))
            for chains, num, den in starts
            for (_, a, b), chain in outcomes
        ]
    memo: dict[tuple, dict] = {}

    def search(chains: list[list[TreeEdge]]) -> dict[tuple, list[TreeEdge]]:
        if len(chains) < 2:
            chain = chains[0] if chains else []
            return {(_key(chain), ONE, ONE): chain}
        key = tuple(map(_key, chains))
        if key not in memo:
            found = memo[key] = {}
            for k in range(1, len(chains) if allowed else 1):
                left, right = chains[k - 1], chains[k]
                rule = _rule(left, right, tuple(c[0] for c in chains[k + 1 :]))
                if rule is None:
                    continue
                a, b = _merge_factor(rule, len(left), len(right))
                merged = _merged_chain(rule, left, right)
                for (ck, num, den), chain in search(
                    chains[: k - 1] + [merged] + chains[k + 1 :]
                ).items():
                    found.setdefault((ck, _times(a, num), _times(b, den)), chain)
        return memo[key]

    out: dict[tuple, list[TreeEdge]] = {}
    for chains, num, den in starts:
        for (ck, a, b), chain in search(chains).items():
            out.setdefault((ck, _times(num, a), _times(den, b)), chain)
    return out


def evaluations(tree: PlaneTree) -> list[tuple[PolyQ, PolyQ]]:
    """All distinct (numerator, denominator) pairs over complete merge
    orders; the tree is not changed.

    This is the all-orders reference that the merge-confluence check
    holds omega's canonical order against.  A merge changes only its own
    vertex's child list, and _rule reads only the pair's chains and the
    top edges right of it, whose flags no collapse below them changes.
    So every order is an interleaving of per-vertex orders, and each
    vertex's orders are searched once, over the outcomes of its
    children.
    """
    pairs = {
        (_times(num, _terminal(chain)), den): None
        for (_, num, den), chain in _collapses(tree.root, True).items()
    }
    return list(pairs)


def kw_type_a(w: PathWord) -> PolyQ:
    """Hook quotient of a Dyck word: [n]! over the simple arc sizes."""
    if not classify(w).is_dyck:
        raise ValueError("kw_type_a needs a Dyck word, got %r" % w.steps)
    sizes = [arc_size(a) for a in pair_arcs(w).simple_arcs]
    return exact_div(q_factorial(len(sizes)), prod(q_int(m) for m in sizes))


def a_factor(j: int, n: int) -> tuple[PolyQ, PolyQ]:
    """Numerator and denominator of the j-th column factor a_(j,N).

    a_(2m-1,N) = [N+2m]/[2m] and a_(2m,N) = [2N+2m]/[N+2m].
    """
    if j < 1 or n < 0:
        raise ValueError("a_factor needs j >= 1 and N >= 0")
    m = (j + 1) // 2
    if j % 2:
        return q_int(n + 2 * m), q_int(2 * m)
    return q_int(2 * n + 2 * m), q_int(n + 2 * m)


def q_b(m: int, n: int) -> PolyQ:
    """prod(1+q^i, i<=N) times the a-factors a_(1,N)..a_(M,N).

    All numerators are multiplied first and the denominators divided
    out in one exact step.
    """
    if m < 0 or n < 0:
        raise ValueError("q_b needs M, N >= 0")
    num = _one_plus_powers(1, n)
    den = ONE
    for j in range(1, m + 1):
        a, b = a_factor(j, n)
        num, den = num * a, den * b
    return exact_div(num, den)


def _split_prefix_tail(w: PathWord) -> tuple[PathWord, int, int]:
    """(prime Dyck prefix, N, M) with the tail equal to D^N U^M.

    The prefix is empty when the whole word already has shape D^N U^M;
    otherwise it runs to the first return to height zero.  Words that
    fit neither shape are rejected, as are tails with M >= 2 next to a
    nonempty prefix: the product formula is only known that far.
    """
    steps = w.steps
    flat = len(steps) - len(steps.lstrip("D"))
    if all(s == "U" for s in steps[flat:]):
        return PathWord(""), flat, len(steps) - flat
    if not steps or steps[0] == "D":
        raise ValueError("no product formula for %r" % steps)
    h = 0
    split = 0
    for i, s in enumerate(steps, start=1):
        h += 1 if s == "U" else -1
        if h == 0:
            split = i
            break
    if split == 0:
        raise ValueError("no product formula for %r" % steps)
    tail = steps[split:]
    n = len(tail) - len(tail.lstrip("D"))
    m = len(tail) - n
    if any(s == "D" for s in tail[n:]) or m >= 2:
        raise ValueError("no product formula for %r" % steps)
    return PathWord(steps[:split]), n, m


def factorized_p_d(w: PathWord) -> PolyQ:
    """Closed form for the lower sum of a word with art weights.

    Supported shapes are D^N U^M and a prime Dyck prefix followed by
    D^N or D^N U; anything else raises ValueError.
    """
    prefix, n, m = _split_prefix_tail(w)
    if m >= 1:
        tail_value = q_b(m - 1, n)
    elif n >= 1:
        tail_value = q_b(0, n - 1)
    else:
        tail_value = ONE
    if not prefix.length:
        return tail_value
    n1 = prefix.length // 2
    connector = _one_plus_powers(max(n + m, 1), n + m + n1 - 1)
    return kw_type_a(prefix) * connector * tail_value


def factorized_p_b(w: PathWord) -> PolyQ:
    """Ballot counterpart of factorized_p_d: tail value q_b(M, N).

    Next to a nonempty prefix only a tail of D's is supported; even a
    single trailing U needs a factor the connector products cannot
    reach (UDU wants 1 + q + q^2).
    """
    prefix, n, m = _split_prefix_tail(w)
    tail_value = q_b(m, n)
    if not prefix.length:
        return tail_value
    if m:
        raise ValueError("no product formula for %r" % w.steps)
    n1 = prefix.length // 2
    connector = _one_plus_powers(n + m + 1, n + m + n1)
    return kw_type_a(prefix) * connector * tail_value
