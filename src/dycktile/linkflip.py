"""Arc pairings of a word, letter flips with weights, and link patterns.

The pairing of a word w works in rounds.  First every U that finds a
later matching D is joined to it by a simple arc (iterated adjacent-UD
cancellation, which is ordinary bracket matching with U opening and D
closing).  What survives is a block of D's followed by a block of U's.
The leftover U's are then joined in adjacent pairs starting from the
right end by dashed arcs; an odd count leaves the leftmost U unpaired.

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
equal to the plain tuple.  Outer arcs are those not strictly nested
inside another arc; every dashed arc is outer.  Each dashed arc
collects an arrow chain: the non-dashed outer arcs strictly between it
and the nearest dashed arc on its left (or the start of the word),
listed right to left.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

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


def _pair_positions(positions: Sequence[int], letters: Sequence[str]):
    """Bracket matching plus right-to-left pairing of leftover U's.

    Returns (simple, dashed, unpaired_d, unpaired_u) over the given
    position labels.
    """
    stack: list[int] = []
    simple: list[Arc] = []
    unpaired_d: list[int] = []
    for pos, s in zip(positions, letters):
        if s == "U":
            stack.append(pos)
        elif stack:
            simple.append((stack.pop(), pos))
        else:
            unpaired_d.append(pos)
    leftover = stack
    unpaired_u: list[int] = []
    if len(leftover) % 2:
        unpaired_u.append(leftover[0])
        leftover = leftover[1:]
    dashed = [(leftover[k], leftover[k + 1]) for k in range(0, len(leftover), 2)]
    return simple, dashed, unpaired_d, unpaired_u


def pair_arcs(w: PathWord) -> ArcSet:
    """The arc pairing of w, positions numbered 1..L."""
    simple, dashed, ud, uu = _pair_positions(range(1, w.length + 1), w.steps)
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
    pairing = pair_arcs(w)
    out = []
    for arc in pairing.all_arcs():
        if kind == "II":
            e = 1
        elif arc in pairing.simple_arcs:
            e = arc_size(arc)
        else:
            e = arc_size(arc) + w.length - arc[1]
        out.append((arc, e))
    return tuple(out)


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


@dataclass(frozen=True)
class LinkPattern:
    word: PathWord
    prepended_u_count: int
    arcs: tuple[ExtArc, ...]

    def outer_arcs(self) -> tuple[ExtArc, ...]:
        """Arcs not strictly nested inside any other arc.

        The arcs are sorted by open and do not cross, so an arc is outer
        exactly when it closes past the last outer arc found so far.
        """
        outer: list[ExtArc] = []
        for a in self.arcs:
            if not outer or a.close > outer[-1].close:
                outer.append(a)
        return tuple(outer)

    def arrow_chains(self) -> tuple[tuple[ExtArc, ...], ...]:
        """One chain per dashed arc: (a0, a1, ..., am), a1.. right to left."""
        chains = []
        pending: list[ExtArc] = []
        for a in self.outer_arcs():
            if a.dashed:
                chains.append((a, *reversed(pending)))
                pending = []
            else:
                pending.append(a)
        return tuple(chains)

    def to_json(self) -> dict:
        outer = set(self.outer_arcs())
        arcs = [
            {"open": a.open, "close": a.close, "dashed": a.dashed, "outer": a in outer}
            for a in self.arcs
        ]
        index = {a: k for k, a in enumerate(self.arcs)}
        chains = [[index[a] for a in chain] for chain in self.arrow_chains()]
        return {
            "word": self.word.steps,
            "prepended_u_count": self.prepended_u_count,
            "arcs": arcs,
            "arrow_chains": chains,
        }


def link_pattern(w: PathWord) -> LinkPattern:
    """w's own pairing, extended by prepended U's so everything pairs.

    With d unpaired D's, the k-th of them (k = 0, 1, ...) closes the
    prepended U at -k.  When a U is left unpaired it pairs with one more
    prepended U at -d as a dashed arc.  The arc of a final D is flagged
    dashed.
    """
    length = w.length
    simple, dashed, ud, uu = _pair_positions(range(1, length + 1), w.steps)
    if len(uu) > 1:
        raise AssertionError("the pairing must leave at most one U unpaired")
    # the close of the arc to re-flag; no arc closes at 0
    last = length if w.steps.endswith("D") else 0
    d = len(ud)
    head = [ExtArc(-d, uu[0], True)] if uu else []
    head += [ExtArc(-k, ud[k], ud[k] == last) for k in range(d - 1, -1, -1)]
    body = [ExtArc(i, j, j == last) for i, j in simple]
    body += [ExtArc(i, j, True) for i, j in dashed]
    body.sort()
    return LinkPattern(w, d + len(uu), tuple(head + body))
