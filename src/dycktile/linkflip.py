"""Arc pairings of a word, letter flips with weights, and link patterns.

The pairing of a word w is one bracket scan in open order.  Every U
that finds a later matching D is joined to it by a simple arc
(ordinary bracket matching with U opening and D closing).  The U's
still open at the end come after every unpaired D, and they are joined
in adjacent pairs starting from the right end by dashed arcs; an odd
count leaves the leftmost U unpaired.  Each U reserves its arc's slot
when the scan meets it, so the arcs come out sorted by open, and
pair_arcs, arc_exponents and link_pattern all read this one scan.

A flip rewrites w along a subset S of its arcs: a simple arc (i, j)
swaps its letters U...D -> D...U, a dashed arc turns both U's into D's.
S is a set, so flip and the weights refuse an arc listed twice.
Flips carry multiplicative weights; with L the word length and
m = (j - i + 1)/2 the arc size, the first weight is -q^m for a simple
arc and -q^(m + r - 1), r = L - j + 1, for a dashed arc, while the
second weight is -q per arc of either kind.  arc_exponents(w, kind)
lists every arc with its e from one pairing of w, and both weights are
products of -q^e over it.  These weights are the entries of the two
incidence matrices.

A link pattern completes the picture: prepend p U's (positions 0, -1,
-2, ... so the original word keeps 1..L) so that everything pairs, and
if the last letter of w is a D, re-flag its arc as dashed.  It is read
off w's own pairing, the one pair_arcs makes, because prepended U's
change no arc of it: with d unpaired D's, the k-th of them (k = 0, 1,
...) closes the prepended U at -k, the dashed arcs stay, and an
unpaired U, left by an odd count, pairs as a dashed arc with one more
prepended U at -d.  So p = d, plus one when a U is unpaired.  Each arc
is an ExtArc (open, close, dashed), a NamedTuple that also compares
equal to the plain tuple.

The link pattern depends only on the ballot path v of w = vU or vD.
When v leaves U's open, a final D closes the rightmost of them and its
arc is re-flagged dashed, while a final U pairs with that same U as the
rightmost dashed arc; the other U's pair alike.  When v leaves none, a
final D is unpaired and closes the prepended U at -d, and a final U is
unpaired and pairs with the prepended U at -d; both arcs are dashed.
So link_pattern(vU) and link_pattern(vD) have the same arcs and the
same p, and the decorated tree built from them (see treeform) is the
tree of the ballot path v, as the paper has it.

Outer arcs are those not strictly nested inside another arc.  Every
dashed arc is outer, and so is the arc that closes at the last
position L, which is always dashed: a final D's arc is re-flagged, and
a final U closes a dashed arc or pairs, unpaired, with a prepended U.
Each dashed arc collects an arrow chain: the
non-dashed outer arcs strictly between it and the nearest dashed arc
on its left (or the start of the word), listed right to left, with an
arrow from each member of the chain to the next.  So an outer arc's
arrow points at the outer arc just left of it exactly when that arc is
not dashed, and link_pattern records that target per arc; the outer
arcs and the chains are read back from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple, Optional

from .pathword import PathWord
from .qpoly import ONE, PolyQ

Arc = tuple[int, int]


@dataclass(frozen=True)
class ArcSet:
    simple_arcs: frozenset[Arc]
    dashed_arcs: frozenset[Arc]
    unpaired_d: tuple[int, ...]
    unpaired_u: tuple[int, ...]

    def all_arcs(self) -> tuple[Arc, ...]:
        """Every arc, sorted by opening index."""
        return tuple(sorted(self.simple_arcs | self.dashed_arcs))


def arc_size(arc: Arc) -> int:
    i, j = arc
    size, rem = divmod(j - i + 1, 2)
    if rem or size <= 0:
        raise AssertionError("malformed arc %r" % (arc,))
    return size


def _pair_positions(steps: str, dashed_close: int = 0):
    """The one bracket scan of a word, its arcs in open order.

    Positions run 1..L.  Each U reserves the next slot of the arc list
    when it is pushed, and the slot holds its position until the U
    closes: a later D fills it with the simple arc (open, close, False),
    and the U's still open at the end pair in adjacent pairs from the
    right, each filling its left U's slot with a dashed arc (open,
    close, True).  The slots of the U's that close a dashed arc, and of
    the leftmost U when the leftover count is odd, are popped, so the
    arcs come out sorted by open without a sort.  A simple arc that
    closes at dashed_close is flagged dashed as well (the link
    pattern's final D; 0 flags none).

    Returns (arcs, unpaired_d, unpaired_u).
    """
    arcs: list = []
    stack: list[int] = []  # the slots of the U's still open
    unpaired_d: list[int] = []
    for pos, s in enumerate(steps, 1):
        if s == "U":
            stack.append(len(arcs))
            arcs.append(pos)
        elif stack:
            k = stack.pop()
            arcs[k] = (arcs[k], pos, pos == dashed_close)
        else:
            unpaired_d.append(pos)
    # right to left, so popping a closing U's slot moves no slot still to fill
    for k in range(len(stack) - 1, 0, -2):
        left = stack[k - 1]
        arcs[left] = (arcs[left], arcs.pop(stack[k]), True)
    unpaired_u = [arcs.pop(stack[0])] if len(stack) % 2 else []
    return arcs, unpaired_d, unpaired_u


def pair_arcs(w: PathWord) -> ArcSet:
    """The arc pairing of w, positions numbered 1..L."""
    arcs, ud, uu = _pair_positions(w.steps)
    simple: list[Arc] = []
    dashed: list[Arc] = []
    for i, j, flag in arcs:
        (dashed if flag else simple).append((i, j))
    return ArcSet(frozenset(simple), frozenset(dashed), tuple(ud), tuple(uu))


def _distinct(arcs: Iterable[Arc]) -> Iterator[Arc]:
    """The arcs of a subset S, refusing one listed twice."""
    seen = set()
    for arc in arcs:
        if arc in seen:
            raise ValueError("arc %r is listed twice; S is a set of arcs" % (arc,))
        seen.add(arc)
        yield arc


def flip(w: PathWord, arcs: Iterable[Arc]) -> PathWord:
    """Rewrite w along a subset of its arcs."""
    pairing = pair_arcs(w)
    letters = list(w.steps)
    for arc in _distinct(arcs):
        i, j = arc
        if arc in pairing.simple_arcs:
            letters[i - 1] = "D"
            letters[j - 1] = "U"
        elif arc in pairing.dashed_arcs:
            letters[i - 1] = "D"
            letters[j - 1] = "D"
        else:
            raise ValueError("%r is not an arc of %s" % (arc, w.steps or "''"))
    return PathWord("".join(letters))


def arc_exponents(w: PathWord, kind: str) -> tuple[tuple[Arc, int], ...]:
    """Every arc of w, by opening index, with the e of its weight -q^e.

    Kind "I": the arc size m for a simple arc, m + r - 1 with
    r = L - j + 1 for a dashed arc (i, j).  Kind "II": 1 for every arc.
    """
    if kind not in ("I", "II"):
        raise ValueError("kind must be 'I' or 'II', got %r" % (kind,))
    arcs, _, _ = _pair_positions(w.steps)
    if kind == "II":
        return tuple(((i, j), 1) for i, j, _ in arcs)
    length = w.length
    return tuple(
        ((i, j), arc_size((i, j)) + (length - j if dashed else 0))
        for i, j, dashed in arcs
    )


def _weight(w: PathWord, arcs: Iterable[Arc], kind: str) -> PolyQ:
    exponents = dict(arc_exponents(w, kind))
    acc = ONE
    for arc in _distinct(arcs):
        e = exponents.get(arc)
        if e is None:
            raise ValueError("%r is not an arc of %s" % (arc, w.steps or "''"))
        acc = acc.scale_by_monomial(-1, e)
    return acc


def weight_I(w: PathWord, arcs: Iterable[Arc]) -> PolyQ:
    """Size-sensitive flip weight: product of -q^m and -q^(m+r-1) factors."""
    return _weight(w, arcs, "I")


def weight_II(w: PathWord, arcs: Iterable[Arc]) -> PolyQ:
    """Size-blind flip weight: -q per arc."""
    return _weight(w, arcs, "II")


class ExtArc(NamedTuple):
    """An arc of the extended word; open may be <= 0 (prepended U).

    A NamedTuple, so it also compares equal to the plain tuple
    (open, close, dashed).
    """

    open: int
    close: int
    dashed: bool


class LinkPattern(NamedTuple):
    """The arcs of the extended word, sorted by open, with the outer-arc
    and arrow rule applied once: outer lists the indices of the outer
    arcs, and arrows[k] is the index of the arc that arc k's arrow
    points at, or None.  A NamedTuple, like ExtArc, so that one per
    tree costs no frozen-dataclass set-up."""

    word: PathWord
    prepended_u_count: int
    arcs: tuple[ExtArc, ...]
    outer: tuple[int, ...]
    arrows: tuple[Optional[int], ...]

    def outer_arcs(self) -> tuple[ExtArc, ...]:
        """Arcs not strictly nested inside any other arc."""
        return tuple(self.arcs[k] for k in self.outer)

    def _chains(self) -> list[list[int]]:
        """Each dashed arc's arrow chain, as arc indices, along the arrows."""
        chains = []
        for k in self.outer:
            if self.arcs[k].dashed:
                chain = [k]
                while self.arrows[chain[-1]] is not None:
                    chain.append(self.arrows[chain[-1]])
                chains.append(chain)
        return chains

    def arrow_chains(self) -> tuple[tuple[ExtArc, ...], ...]:
        """One chain per dashed arc: (a0, a1, ..., am), a1.. right to left."""
        return tuple(tuple(self.arcs[k] for k in chain) for chain in self._chains())

    def to_json(self) -> dict:
        outer = set(self.outer)
        arcs = [
            {"open": a.open, "close": a.close, "dashed": a.dashed, "outer": k in outer}
            for k, a in enumerate(self.arcs)
        ]
        return {
            "word": self.word.steps,
            "prepended_u_count": self.prepended_u_count,
            "arcs": arcs,
            "arrow_chains": self._chains(),
        }


def _outer_and_arrows(
    arcs: tuple[ExtArc, ...],
) -> tuple[tuple[int, ...], tuple[Optional[int], ...]]:
    """The outer arcs and each arc's arrow target, by index.

    The arcs are sorted by open and do not cross, so an arc is outer
    exactly when it closes past every arc before it.  An outer arc's
    arrow points at the outer arc just left of it when that one is not
    dashed.  This is the chain rule read left to right: the last outer
    arc covers the last position and is dashed, so every non-dashed
    outer arc lies in the chain of the first dashed arc to its right.
    """
    outer: list[int] = []
    arrows: list[Optional[int]] = [None] * len(arcs)
    reach = 0  # every close is at least 1
    plain = None  # the last outer arc, when it is not dashed
    for k, (_, close, dashed) in enumerate(arcs):
        if close > reach:
            reach = close
            outer.append(k)
            arrows[k] = plain
            plain = None if dashed else k
    return tuple(outer), tuple(arrows)


def link_pattern(w: PathWord) -> LinkPattern:
    """w's own pairing, extended by prepended U's so everything pairs.

    With d unpaired D's, the k-th of them (k = 0, 1, ...) closes the
    prepended U at -k.  When a U is left unpaired it pairs with one more
    prepended U at -d as a dashed arc.  The arc of a final D is flagged
    dashed.  The prepended arcs open first, so they go ahead of the
    scan's arcs, which are already sorted by open.
    """
    length = w.length
    # the close of the arc to re-flag; no arc closes at 0
    last = length if w.steps.endswith("D") else 0
    body, ud, uu = _pair_positions(w.steps, last)
    if len(uu) > 1:
        raise AssertionError("the pairing must leave at most one U unpaired")
    d = len(ud)
    head = [(-d, uu[0], True)] if uu else []
    head += [(-k, ud[k], ud[k] == last) for k in range(d - 1, -1, -1)]
    # tuple.__new__ skips the NamedTuple's Python-level __new__
    arcs = tuple(map(tuple.__new__, repeat(ExtArc), head + body))
    return LinkPattern(w, d + len(uu), arcs, *_outer_and_arrows(arcs))
