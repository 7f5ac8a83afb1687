"""Regions between two lattice paths, and their ribbon tilings.

Geometry.  A path of length L is drawn with vertices (i, height(i)).
Unit cells are diamonds (squares rotated 45 degrees) centered at
integer points (x, y) with x + y odd; the cell's corners are
(x-1, y), (x+1, y), (x, y-1), (x, y+1).  A cell belongs to the region
between lam (below) and mu (above) when lam stays weakly below the
cell's lower corners and mu weakly above the upper ones.

Three region families share this core.  Family A takes two Dyck words
and uses interior cells only.  Family B adds anchor cells centered ON
the terminal line x = L, so they stick out past it by one unit; a
word's heights may go negative here.  Family D takes two words of
equal length and equal sign and adds two-by-two cells: larger diamonds
centered at (L, m) for m in one residue class mod 4 determined by the
sign, covering the four unit positions (L-1, m), (L, m-1), (L, m+1),
(L+1, m).  A two-by-two is atomic; unit cells it covers are not
available to other tiles.

Tiles.  A dyck tile is a ribbon of cells, one per column, whose center
heights start and end equal and never dip below the start.  In family
B a ballot tile is a ribbon whose heights never dip below the start
and whose rightmost cell sits on an anchor with odd rise; ballot tiles
come in same-shape pairs at vertical offset two, fused into ONE tile
with a glue run: a dyck ribbon ending on the box that shares edges with
both ribbon starts, the box alone being the shortest run.
The family-D tiles are the lifts of the family-B tiles of the truncated
words, whose region has each two-by-two's west cell as an anchor: a
dyck ribbon ending on a west cell merges with its two-by-two (a lone
two_by_two, or a dyck_d), and a ballot pair whose anchors flank a
two-by-two center extends its ribbons onto the two-by-two's south and
north cells and merges with it (a ballot_d).  Every finished tile has
statistic tiles = 1 and odd area (its cells, a two-by-two counting
one), so art = (area + tiles)/2 is a nonneg integer.

Classes.  A tiling is cover-inclusive when every piece of every tile
(a ribbon or glue run translated down by (0,-2), a two-by-two by
(0,-4)) either lies with every cell's top corner weakly below lam,
ignoring columns past the terminal line, or lands inside a single tile
of at least its size; that may be its own tile, as when a family-B
upper ribbon lands on its lower partner.  A tiling is cover-exclusive
when for every ordered tile pair (d1, d2) such that some cell of d1
sits just above, northwest, or northeast of a cell of d2, every such
neighbor position of every cell of d2 lies in d1 or d2; a missing
neighbor inside the strip x <= L is a violation, one past the terminal
line is not.  In family D a triggered pair additionally requires d1 to
contain a two-by-two whenever d2 does.  Each region admits at most one
cover-exclusive tiling, which carries the signed matrix entries.

Both classes come down to per-tile requirements of one form: a set of
cells that one tile must contain.  Inclusive: for each piece that does
not drop below lam and does not land inside its own tile, its dropped
cells.  Exclusive: the tile's neighbor positions inside the region.  A
candidate whose requirement can never hold (dropped cells that meet the
tile or leave the region, a neighbor outside the region at x <= L, or a
set no candidate contains) is discarded before the search.  The size
bound and the two-by-two condition need no check of their own; they
follow from containment (see _inclusive_pieces and CandidatePool).

Candidates.  The candidate tiles of one family, length and sign are
built once per process, from the region between the family's
pointwise-lowest and pointwise-highest words, its universe, and
indexed there: cells as bits, each tile's exclusive neighborhood, its
dropped pieces as masks, each column's cuts, and each word's span, the
universe cells below it (_Universe).  A candidate is defined by which cells
are present, and in family D a west cell lies in a region exactly when
its two-by-two does, since an end height is never in the two-by-two
residue class; so a region's candidates are the universe's candidates
whose cells it holds.  A lower sum searches the region of lam under
the family's top word, an upper sum that of the family's bottom word
under mu, and a lone region itself.  The sum's regions are this
enclosing region cut column by column at the varying word's heights:
in each column their cells are those strictly between the two words,
and in family D their two-by-twos are those whose west cell they keep.
Requirements do not change from region to region: the inclusive ones
depend on lam, which a lower sum fixes, and a tile's exclusive
neighborhood lies above it, so inside every region between a varying
lam and the fixed mu.  So the two sums are the paper's two generating
functions: the cover-inclusive tilings over the words above lam, and
the cover-exclusive tilings over the words below mu.

The search is Algorithm X (Knuth's exact cover, here over bit masks)
over the universe's cells in (x, y) order, those outside the
enclosing region covered from the start, always covering the first
uncovered cell, and one search finds the tilings of every region of a
sum.  When it first reaches a column it chooses the
varying word's height there, one step from the column before and
between the fixed word's height and the enclosing word's, and a cut
covers the column's cells beyond it.  A finished cover belongs to the
region whose varying word has the chosen heights, looked up among the
family's words in the universe; a word found there lies between the
two words, since every height chosen does, so a sum never lists or
compares its words.  The sum then visits only the regions with a
tiling.  When a tile is placed, each of its requirements is checked
against the tile that already covers the first cell of the set, or
parked on that cell; the tile that later covers it must then contain
the whole set, and a cut may not take it.  Family-B ballot ribbons
are fused with their partner and glue run when the candidates are
built.  The search runs to the end in both classes, so a second
cover-exclusive tiling would surface; the matrix bridge of `dycktile
verify` reads the signed matrix entries from these tilings and reports
a region with more than one.

Readout.  A region stores only its family and its two words; its cells
are computed on first use, column by column (_region_columns), and
reading a sum never needs them.  A cell lies in the region between lam
and mu exactly when it is below mu and not below lam, so the region's
mask is span[mu] & ~span[lam], the universe's spans being read once per
word from its column cuts and keyed by the word's steps; a pool also
reads "mu weakly above lam" as span[lam] & ~span[mu] being empty, and
"a piece drops below lam" as its dropped cells lying in span[lam].
Every reader of a sum goes through sum_tilings, which builds each
region that has a cover (build_region, which checks its words) and
reads its tilings through enumerate_tilings.  The pool returns a
region's covers with its mask, from the two spans it looks up to
check the region, and enumerate_tilings checks every cover by two
sums: its tiles' masks must add up to the region's mask and their cell
counts to the region's, which holds exactly when the masks are
disjoint and together the region's mask, since an overlap carries and
loses a bit.  The same loop sums the tiles' areas, which the tiling
carries.  The search stores each word's covers in order and places a
cover's tiles in ascending index order, (cells, kind) order, so covers
are read as they were found.  A sum tallies every tiling's statistic
into one count list, read from the tiling's area and tile count, so it
builds one PolyQ.  A sum's choices of height are indexed once per
column and fixed height in the universe (_Universe.choices), and the
words above or below a word are read from the spans (upper_words,
lower_words).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from operator import or_
from typing import Iterable, Iterator, NamedTuple, Optional

from .pathword import (
    PathWord,
    all_words,
    classify,
    dyck_words,
    enumerate_type_d,
    is_above,
    truncate_last,
)
from .qpoly import PolyQ

Coord = tuple[int, int]
# a column's cut at one height: (mask, spots, height, shadow), see _Universe
Cut = tuple[int, list[int], int, int]

TYPE_A, TYPE_B, TYPE_D = "A", "B", "D"
INCLUSIVE, EXCLUSIVE = "inclusive", "exclusive"
WEIGHTS = ("art", "tiles", "area")


def _atom_cells(center: Coord) -> tuple[Coord, ...]:
    """Unit positions covered by a two-by-two centered at (L, m)."""
    x, m = center
    return ((x - 1, m), (x, m - 1), (x, m + 1), (x + 1, m))


def _atom_residue(lam: PathWord) -> int:
    """Height mod 4 of the two-by-two centers on the line x = L (family D)."""
    return (lam.length + 2 * (lam.epsilon + 1)) % 4


@dataclass(frozen=True)
class Region:
    """The region between lam (below) and mu (above) in one family.

    Only the two words are stored.  The unit cells and the two-by-two
    centers (atoms) are computed on first use, by one walk over the
    columns (_region_columns); a sum reads its regions' tilings without
    them (enumerate_tilings).
    """

    type_tag: str
    lam: PathWord
    mu: PathWord

    @property
    def length(self) -> int:
        return self.lam.length

    @cached_property
    def _cells(self) -> tuple[frozenset[Coord], frozenset[Coord]]:
        """The unit cells and two-by-two centers; a two-by-two's west
        cell is no unit cell."""
        columns, centers = _region_columns(self.lam, self.mu, self.type_tag)
        L = self.length
        units = [(x, y) for x, ys in columns for y in ys if not (x == L - 1 and y in centers)]
        return frozenset(units), frozenset((L, m) for m in centers)

    @property
    def unit_cells(self) -> frozenset[Coord]:
        return self._cells[0]

    @property
    def atoms(self) -> frozenset[Coord]:
        return self._cells[1]

    @cached_property
    def all_cells(self) -> frozenset[Coord]:
        cells = set(self.unit_cells)
        for a in self.atoms:
            cells.update(_atom_cells(a))
        return frozenset(cells)

    def anchor_cells(self) -> frozenset[Coord]:
        """Cells centered on the terminal line (family B only)."""
        return frozenset(c for c in self.unit_cells if c[0] == self.length)


def build_region(lam: PathWord, mu: PathWord, type_tag: str) -> Region:
    if type_tag not in (TYPE_A, TYPE_B, TYPE_D):
        raise ValueError("unknown region family %r" % (type_tag,))
    if not is_above(mu, lam):
        raise ValueError("upper word must stay weakly above lower word")
    if type_tag == TYPE_A:
        if not (classify(lam).is_dyck and classify(mu).is_dyck):
            raise ValueError("family A needs Dyck words")
    if type_tag == TYPE_D and lam.epsilon != mu.epsilon:
        raise ValueError("family D needs words of equal sign")
    return Region(type_tag, lam, mu)


def _region_columns(
    lam: PathWord, mu: PathWord, type_tag: str
) -> tuple[list[tuple[int, range]], range]:
    """The region between words already known to be valid for the family,
    column by column: (x, ys) for each column x, and the heights of the
    two-by-two centers at x = L.

    Column x holds the cells (x, y) for y in ys, those strictly between
    the two words' heights there: every second y, since heights have the
    parity of x; the neighbor columns never cut them, their heights
    being one step away.  The columns run from 1 to L - 1, to L in
    family B (its anchors).  In family D the two-by-twos are those whose
    four cells lie between the words; their centers lie in the residue
    class of lam's end height plus two (_atom_residue), so they start
    two above it and come every fourth height.  Column L - 1 still lists
    their west cells.
    """
    L = len(lam.heights) - 1
    lh, mh = lam.heights, mu.heights
    last = L if type_tag == TYPE_B else L - 1
    columns = [(x, range(lh[x] + 1, mh[x], 2)) for x in range(1, last + 1)]
    if type_tag != TYPE_D or not L:
        return columns, range(0)
    return columns, range(lh[L] + 2, mh[L] - 1, 4)


@dataclass(frozen=True)
class Tile:
    """One tile; cells lists every unit position it covers, sorted.

    ribbon is the cell run of a dyck or dyck_d tile (west cell last for
    dyck_d).  lower/upper are the two ribbons of a ballot_d (ending on
    the south / north cell of the two-by-two) or of a fused family-B
    ballot pair (ending on anchors), with glue the dyck run that ends on
    the box beside both ribbon starts.
    A family-D tile is the lift of a family-B tile of the truncated
    words (_lift_tile).
    """

    kind: str  # dyck | ballot_b | two_by_two | dyck_d | ballot_d
    cells: tuple[Coord, ...]
    atom: Optional[Coord] = None
    ribbon: tuple[Coord, ...] = ()
    lower: tuple[Coord, ...] = ()
    upper: tuple[Coord, ...] = ()
    glue: tuple[Coord, ...] = ()

    @cached_property
    def area(self) -> int:
        """Its cells, with a two-by-two counting one."""
        return len(self.cells) - (3 if self.atom is not None else 0)

    @property
    def tiles(self) -> int:
        return 1

    @property
    def art(self) -> int:
        if self.area % 2 != 1:
            raise AssertionError("tile area must be odd")
        return (self.area + 1) // 2

    @cached_property
    def record(self) -> str:
        """json.dumps(self.to_json(), indent=2, sort_keys=True), written
        once per tile."""
        return _json_text(self.to_json())

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "cells": [list(c) for c in self.cells],
            "area": self.area,
            "art": self.art,
        }
        if self.atom is not None:
            out["two_by_two"] = list(self.atom)
        if self.kind in ("ballot_d", "ballot_b"):
            out["lower"] = [list(c) for c in self.lower]
            out["upper"] = [list(c) for c in self.upper]
            out["glue"] = [list(c) for c in self.glue]
        return out


class Tiling(NamedTuple):
    """One tiling of a region in a class: its tiles in (cells, kind) order
    and their area, the sum of the tiles' areas.

    A light immutable record.  Whoever builds a tiling sums its area
    once: enumerate_tilings in the loop that checks the cover, the
    projection from the tiles it returns.  art checks that the area and
    the tile count have one parity, with an explicit raise.
    """

    region: Region
    tiles: tuple[Tile, ...]
    cls: str
    area: int

    @property
    def tile_count(self) -> int:
        return len(self.tiles)

    @property
    def art(self) -> int:
        total = self.area + len(self.tiles)
        if total % 2:
            raise AssertionError("area and tile count differ in parity")
        return total // 2

    def statistic(self, weight: str) -> int:
        if weight == "art":
            return self.art
        if weight == "tiles":
            return self.tile_count
        if weight == "area":
            return self.area
        raise ValueError("weight must be one of %s" % (WEIGHTS,))

    def to_json(self) -> dict:
        return self._record([t.to_json() for t in self.tiles])

    def _record(self, tile_list: list) -> dict:
        return {
            "family": self.region.type_tag,
            "lower": self.region.lam.steps,
            "upper": self.region.mu.steps,
            "class": self.cls,
            "area": self.area,
            "tiles": self.tile_count,
            "art": self.art,
            "tile_list": tile_list,
        }


# -- candidate tiles -----------------------------------------------------


def _walk_back(
    end: Coord, cells: frozenset[Coord], floor: Optional[int] = None
) -> Iterator[tuple[Coord, ...]]:
    """Every run with one cell per column that ends on `end`, its other
    cells in `cells` and none below `floor`; each run is listed end
    first."""
    stack: list[tuple[Coord, ...]] = [(end,)]
    while stack:
        rev = stack.pop()
        yield rev
        x, y = rev[-1]
        for dy in (1, -1):
            prev = (x - 1, y + dy)
            if prev in cells and (floor is None or y + dy >= floor):
                stack.append(rev + (prev,))


def _dyck_ending_at(end: Coord, cells: frozenset[Coord]) -> list[tuple[Coord, ...]]:
    """Runs ending on `end`, never below it, that start at its height."""
    return [
        tuple(reversed(rev))
        for rev in _walk_back(end, cells, end[1])
        if rev[-1][1] == end[1]
    ]


def _dyck_ribbons(cells: frozenset[Coord]) -> list[tuple[Coord, ...]]:
    """All runs with one cell per column, never below and returning to
    the start height."""
    out = []
    for end in sorted(cells):
        out.extend(_dyck_ending_at(end, cells))
    return out


def _dyck_tile(ribbon: tuple[Coord, ...]) -> Tile:
    return Tile(kind="dyck", cells=tuple(sorted(ribbon)), ribbon=ribbon)


def _starts_lowest(rev: tuple[Coord, ...]) -> bool:
    """The run never dips below its start (its last cell when reversed)."""
    return rev[-1][1] == min(y for _, y in rev)


def _pairable(cells: frozenset[Coord]) -> frozenset[Coord]:
    """Cells whose copy two higher is also among `cells`."""
    return frozenset(c for c in cells if (c[0], c[1] + 2) in cells)


def _ballot_pairs(region: Region) -> list[Tile]:
    """Family-B ballot tiles: a ballot ribbon (never below its start,
    ending on an anchor with odd rise), its copy two higher and a glue
    run, a dyck run ending on the box beside both starts, fused into one
    tile."""
    units = region.unit_cells
    pairable = _pairable(units)
    tiles = []
    for end in sorted(c for c in pairable if c[0] == region.length):
        for rev in _walk_back(end, pairable):
            x0, y0 = rev[-1]
            rise = end[1] - y0
            box = (x0 - 1, y0 + 1)
            if rise > 0 and rise % 2 == 1 and box in units and _starts_lowest(rev):
                low = tuple(reversed(rev))
                up = tuple((x, y + 2) for x, y in low)
                for glue in _dyck_ending_at(box, units):
                    cells = tuple(sorted({*glue, *low, *up}))
                    tiles.append(
                        Tile(kind="ballot_b", cells=cells, lower=low, upper=up, glue=glue)
                    )
    return tiles


def _lift_tile(t: Tile, L: int, residue: int, atoms: frozenset[Coord]) -> Tile:
    """The family-D tile of length L that a family-B tile of the truncated
    words lifts to: a ballot pair gains the two-by-two whose south and
    north cells extend its ribbons, a dyck ribbon ending on a two-by-two's
    west cell merges with it, and any other dyck tile is its own lift."""
    if t.kind == "ballot_b":
        # the two-by-two center sits at one of the pair's two anchor
        # heights; the residue class picks which one
        y_low, y_up = t.lower[-1][1], t.upper[-1][1]
        m = y_up if y_up % 4 == residue else y_low
        if m % 4 != residue:
            raise AssertionError("ballot pair at incompatible height")
        atom = (L, m)
        low = t.lower + ((L, m - 1),)
        up = t.upper + ((L, m + 1),)
        cells = tuple(sorted({*t.glue, *low, *up, *_atom_cells(atom)}))
        return Tile(kind="ballot_d", cells=cells, atom=atom, lower=low, upper=up, glue=t.glue)
    end = t.ribbon[-1]
    atom = (L, end[1])
    if end[0] != L - 1 or atom not in atoms:
        return t
    cells = tuple(sorted({*t.ribbon, *_atom_cells(atom)}))
    if len(t.ribbon) == 1:
        return Tile(kind="two_by_two", cells=cells, atom=atom)
    return Tile(kind="dyck_d", cells=cells, atom=atom, ribbon=t.ribbon)


def _candidates(region: Region) -> list[Tile]:
    """Every tile of the region.  The tiles of a family-D region are the
    lifts of those of the family-B region between the truncated words."""
    L = region.length
    if region.type_tag == TYPE_D and L:
        lam, mu = region.lam, region.mu
        image = Region(TYPE_B, truncate_last(lam), truncate_last(mu))
        residue = _atom_residue(lam)
        return [_lift_tile(t, L, residue, region.atoms) for t in _candidates(image)]
    tiles = [_dyck_tile(r) for r in _dyck_ribbons(region.unit_cells)]
    if region.type_tag == TYPE_B:
        tiles.extend(_ballot_pairs(region))
    return tiles


# -- class requirements ----------------------------------------------------

# A requirement is a set of cells that one tile of the tiling must
# contain.  The search holds it as a bit mask over the cells of the
# family's tile universe.


def _pieces(tile: Tile) -> list[tuple[tuple[Coord, ...], int]]:
    """Constituents of a tile as (cells, drop) pairs: ribbons and glue
    runs drop by two, a two-by-two by four."""
    out = []
    if tile.kind in ("dyck", "dyck_d"):
        out.append((tile.ribbon, 2))
    elif tile.kind in ("ballot_d", "ballot_b"):
        out.extend(((tile.glue, 2), (tile.lower, 2), (tile.upper, 2)))
    if tile.atom is not None:
        out.append((_atom_cells(tile.atom), 4))
    return out


def _inclusive_pieces(
    tile: Tile, index: dict[Coord, int]
) -> list[tuple[int, Optional[int]]]:
    """The tile's inclusive requirements before lam is known: for each
    piece whose dropped cells do not all lie inside the tile itself,
    (drop, need).

    A piece needs nothing when it drops weakly below lam, that is when
    every dropped cell has its top corner weakly below lam (columns past
    the terminal line ignored).  drop marks the dropped cells inside the
    universe, and the piece drops below lam exactly when they all lie in
    lam's span (_Universe.span), the universe cells below lam: the
    dropped cells outside the universe lie below its lowest word, so
    below every lam, and an east cell of a two-by-two lies in a span
    with the south and north cells the piece also drops.  Otherwise its
    dropped cells must land inside one tile: need is their mask over the
    universe's cells, or None when they meet the tile without lying
    inside it, or leave the universe, so that no tile of any region can
    hold them.

    The definition also asks that tile to be at least as large as the
    piece, which follows from containment.  A piece larger than one box
    is a ribbon with one cell per column, and no tile spans more columns
    at or left of the terminal line than its size, save a two_by_two or
    dyck_d by one column past its odd size; family-D ribbons have odd
    length, so they cannot use that column.
    """
    own = frozenset(tile.cells)
    out = []
    for cells, shift in _pieces(tile):
        moved = frozenset((x, y - shift) for x, y in cells)
        if moved <= own:
            continue
        drop = sum(1 << index[c] for c in moved if c in index)
        need = None
        if not moved & own and all(c in index for c in moved):
            need = drop
        out.append((drop, need))
    return out


def _neighbors(cells: Iterable[Coord]) -> set[Coord]:
    out = set()
    for x, y in cells:
        out.update(((x, y + 2), (x - 1, y + 1), (x + 1, y + 1)))
    return out


# -- the tile universe -------------------------------------------------------


class _Universe:
    """The region between the family's pointwise-lowest and highest words
    of one length (and sign, in family D), low and high, with its
    candidates indexed once; empty for family D at length 0, and with no
    words for family A at odd lengths.  words maps the heights a word
    takes in columns 1 to `columns` to the family's word; they determine
    it, the sign in family D fixing its last step.

    Cells are bits in (x, y) order: index maps a cell to its bit, full
    marks them all and column[s] is the column whose height is chosen at
    cell s (the x of s, at most `columns`: L - 1, or L in family B).
    tiles are the candidates in (cells, kind) order; masks[k] marks the
    cells of tile k, spots[k] lists them in order, sizes[k] counts them,
    areas[k] is its area (Tile.area) and holders[s] lists the tiles that
    hold cell s.  Tile k's exclusive neighbor positions inside the
    universe are around[k], near[k] those of them at x <= L, and far[k]
    says whether one lies outside the universe at x <= L.  pieces[k] lists tile k's inclusive requirements as (drop, need)
    pairs (_inclusive_pieces); only the test of drop against lam's span
    waits for a pool.
    cuts[sign][x] lists, for each height h the words take in column x,
    from low's to high's, (mask, spots, h, shadow): the cells of column
    x beyond h, away from the fixed word (sign 1 above, -1 below, a west
    cell with its whole two-by-two), and the cells beyond h + sign * d
    in each column x + d, d >= 1.  choices(sign, x, h) indexes the cuts
    a sum's search may take in column x, those from the fixed word's
    height h on, by the height in column x - 1; it is built once per
    (sign, x, h), since nothing else changes it.

    A region's candidates are the universe's candidates whose cells it
    holds.  A candidate is defined by which cells are present: runs of
    cells, anchors at x = L in family B, and in family D the two-by-twos
    it lifts onto.  A family-D west cell lies in a region exactly when
    its two-by-two does, since an end height is never in the two-by-two
    residue class; so a region and the universe lift the same tiles.

    span[w.steps], for each of the family's words w, marks the universe
    cells between low and w: in each column x, the cells below w's
    height, the mask of that height in cuts[-1][x] (a west cell with its
    whole two-by-two).  It is keyed by steps, so a lookup hashes a
    string.  A cell lies between lam and mu exactly when it is below mu
    and not below lam, so for mu weakly above lam the region's mask is
    span[mu] & ~span[lam]; and mu is weakly above lam exactly when
    span[lam] & ~span[mu] is empty, a column where lam passes mu holding
    a cell below lam and not below mu.  The two-by-twos obey
    both, since all of a sign's end heights share one residue mod 4.
    """

    def __init__(self, type_tag: str, length: int, epsilon: int):
        words = _word_pool(type_tag, length, epsilon)
        self.columns = columns = max(length if type_tag == TYPE_B else length - 1, 0)
        self.words = {w.heights[1 : columns + 1]: w for w in words}
        if len(self.words) != len(words):
            raise ValueError("two words of the family have the same heights")
        self.low = self.high = region = None
        if words:
            self.low, self.high = min(words, key=_height_sum), max(words, key=_height_sum)
            region = Region(type_tag, self.low, self.high)
        order = sorted(region.all_cells) if region else []
        self.index = index = {c: s for s, c in enumerate(order)}
        self.full = (1 << len(order)) - 1
        self.column = [min(x, columns) for x, _ in order]
        tiles = sorted(_candidates(region), key=lambda t: (t.cells, t.kind)) if region else []
        self.tiles = tiles
        self.spots = [[index[c] for c in t.cells] for t in tiles]  # t.cells is sorted
        self.masks = [sum(1 << s for s in ss) for ss in self.spots]
        self.sizes = [len(ss) for ss in self.spots]
        self.areas = [t.area for t in tiles]
        self.holders: list[list[int]] = [[] for _ in order]
        for k, ss in enumerate(self.spots):
            for s in ss:
                self.holders[s].append(k)
        self.pieces = [_inclusive_pieces(t, index) for t in tiles]
        self.around, self.near, self.far = [], [], []
        for t in tiles:
            around = near = 0
            far = False
            for x, y in _neighbors(t.cells).difference(t.cells):
                s = index.get((x, y))
                if s is None:
                    far = far or x <= length
                else:
                    around |= 1 << s
                    if x <= length:
                        near |= 1 << s
            self.around.append(around)
            self.near.append(near)
            self.far.append(far)
        self.cuts = {
            sign: self._cuts(region, sign) if region else [[] for _ in range(columns + 1)]
            for sign in (1, -1)
        }
        below = self.cuts[-1]
        self.span = {
            w.steps: reduce(
                or_, (below[x][(h - self.low.heights[x]) // 2][0] for x, h in enumerate(hs, 1)), 0
            )
            for hs, w in self.words.items()
        }
        self._choices: dict[tuple[int, int, int], dict[int, list[Cut]]] = {}

    def choices(self, sign: int, x: int, h: int) -> dict[int, list[Cut]]:
        """The cuts of column x from height h on, away from the fixed word
        (sign 1 up, -1 down), indexed by each height one step from theirs
        in column x - 1, lowest first.  The dict is shared; do not change it."""
        key = (sign, x, h)
        steps = self._choices.get(key)
        if steps is None:
            cuts = self.cuts[sign][x]
            i = (h - self.low.heights[x]) // 2
            steps = {}
            for cut in cuts[i:] if sign == 1 else cuts[: i + 1]:
                steps.setdefault(cut[2] - 1, []).append(cut)
                steps.setdefault(cut[2] + 1, []).append(cut)
            self._choices[key] = steps
        return steps

    def _cuts(self, region: Region, sign: int) -> list[list[Cut]]:
        columns, index = self.columns, self.index
        # per column, (y, the cell's bits with the rest of its two-by-two)
        by_column: list[list[tuple[int, list[int]]]] = [[] for _ in range(columns + 1)]
        for x, y in index:
            if x <= columns:
                atom = (x + 1, y)
                cells = _atom_cells(atom) if atom in region.atoms else ((x, y),)
                by_column[x].append((y, sorted(index[c] for c in cells)))
        shadows: dict[tuple[int, int], int] = {}

        def beyond(x: int, h: int) -> list[int]:
            """The cells of column x beyond height h, away from the fixed word."""
            return [s for y, ss in by_column[x] if sign * (y - h) > 0 for s in ss]

        def shadow(x: int, h: int) -> int:
            """The cells beyond h + sign * d in column x + d, d >= 0."""
            if x > columns:
                return 0
            found = shadows.get((x, h))
            if found is None:
                found = shadow(x + 1, h + sign) | sum(1 << s for s in beyond(x, h))
                shadows[x, h] = found
            return found

        out: list[list[Cut]] = [[] for _ in by_column]
        low, high = region.lam.heights, region.mu.heights
        for x in range(1, columns + 1):
            for h in range(low[x], high[x] + 1, 2):
                cut = beyond(x, h)
                out[x].append((sum(1 << s for s in cut), cut, h, shadow(x + 1, h + sign)))
        return out


@cache
def _universe(type_tag: str, length: int, epsilon: int) -> _Universe:
    """The tile universe of the family's words of this length and sign."""
    return _Universe(type_tag, length, epsilon)


# -- the candidate pool ------------------------------------------------------


class CandidatePool:
    """The candidates of an enclosing region with their requirements,
    and the covers of every region of a sum inside it, found by one
    search.

    The pool's regions share one word and differ in the other, the one
    the class's requirements do not depend on.  Inclusive requirements
    depend on lam alone, so mu varies, as in a lower sum.  A tile's
    exclusive neighborhood lies above it, so inside every region between
    a lower word and mu, and lam varies, as in an upper sum.  With varies
    the varying word is any word of the family between the region's two,
    and the region must reach from the fixed word to the universe's top
    (inclusive) or bottom (exclusive), as sum_pool builds it; otherwise
    the pool has the region alone.

    Cells and tiles are those of the family's universe (_Universe):
    tiles, masks, spots, sizes, areas and span are the universe's, and
    kept lists, in order, the tiles whose cells the enclosing region
    holds, its candidates.  start marks the universe cells outside the
    region, span[mu] & ~span[lam] being those inside, which the search
    counts as covered from the start; a region with a word that is not
    one of the universe's words is refused.

    fixed is the region's word on the fixed side and bound its other
    word, the enclosing word of the varying side; varies is True for a
    sum's pool.

    choices[x] maps each height p of column x - 1 to the heights h one
    step from p between the two words in column x (1 to L - 1, to L in
    family B), lowest first, each as (mask, spots, h, shadow): the
    universe's cut and shadow at (x, h).  They lie inside the region,
    whose varying-side word is the universe's own, so the pool takes the
    universe's choices for the column from the fixed word's height on
    (_Universe.choices), built once for every pool with that height.
    default holds the enclosing varying-side word's heights and
    column[s] the column whose height is chosen at cell s; a lone
    region's pool chooses none, so every column[s] is 0.  word_at maps
    the chosen heights to the varying word: the universe's words, or
    the region's own word for a lone region.  A word found there lies
    between the region's two, because every height chosen does.

    first[s] lists the kept tiles whose first cell is s and whose
    requirements can hold.  reqs[k] lists tile k's requirements as
    (s, fits): the tile covering cell s, the first of the set, must be
    one of fits.  Inclusive, the requirements are the tile's dropped
    pieces whose cells do not all lie in lam's span; exclusive, its
    neighbor positions inside the enclosing region, around[k] outside
    start.  A tile is dropped when a requirement leaves the enclosing
    region, when it has exclusive neighbors inside and one outside at
    x <= L (far[k], or near[k] & start), or when no tile fits a
    requirement.  found, searched on first use, maps each varying word
    whose region has a cover to its covers, as tuples of tile indices.

    The exclusive rule: the region cells just above, northwest or
    northeast of the tile lie in one other tile; such a neighbor outside
    the region is allowed only past the terminal line.  A tile with a
    two-by-two at (L, m) has the neighbor (L, m+3): the south cell of
    the next two-by-two up, or a position outside the region at x = L.
    So whenever such a tile has a requirement, the tile meeting it
    carries a two-by-two, as family D asks.
    """

    def __init__(self, region: Region, cls: str, varies: bool = False):
        if cls not in (INCLUSIVE, EXCLUSIVE):
            raise ValueError("class must be inclusive or exclusive, got %r" % (cls,))
        self.region, self.cls = region, cls
        lam, mu = region.lam, region.mu
        epsilon = lam.epsilon if region.type_tag == TYPE_D else 0
        universe = _universe(region.type_tag, region.length, epsilon)
        self.span = span = universe.span
        for w in (lam, mu):
            if w.steps not in span:
                raise ValueError("region word %s is outside its family's tile universe" % (w,))
        self.full = universe.full
        self.start = universe.full & ~(span[mu.steps] & ~span[lam.steps])
        self.fixed, self.bound = (lam, mu) if cls == INCLUSIVE else (mu, lam)
        self.varies = varies
        self._add_tiles(universe)
        self._add_choices(universe)

    @cached_property
    def found(self) -> dict[PathWord, list[tuple[int, ...]]]:
        return _class_covers(self)

    def _add_tiles(self, universe: _Universe) -> None:
        cls, start, index = self.cls, self.start, universe.index
        inside = self.full & ~start
        self.tiles, self.masks, self.spots = universe.tiles, universe.masks, universe.spots
        self.sizes, self.areas = universe.sizes, universe.areas
        self.kept = [k for k, m in enumerate(self.masks) if not m & start]
        alive = bytearray(len(self.tiles))
        all_wants = []
        below = self.span[self.region.lam.steps]
        for k in self.kept:
            if cls == INCLUSIVE:
                wants = tuple(need for drop, need in universe.pieces[k] if drop & ~below)
                if any(need is None or need & start for need in wants):
                    continue
            else:
                around = universe.around[k] & inside
                if around and (universe.far[k] or universe.near[k] & start):
                    continue
                wants = (around,) if around else ()
            alive[k] = 1
            all_wants.append((k, wants))

        self.first: list[list[int]] = [[] for _ in index]
        self.reqs: list[list[tuple[int, frozenset[int]]]] = [[] for _ in self.tiles]
        fits_of: dict[int, frozenset[int]] = {}
        masks, holders = self.masks, universe.holders
        for k, wants in all_wants:
            compiled = []
            for want in wants:
                s = (want & -want).bit_length() - 1
                fits = fits_of.get(want)
                if fits is None:
                    fits = frozenset(j for j in holders[s] if alive[j] and masks[j] & want == want)
                    fits_of[want] = fits
                if not fits:
                    break
                compiled.append((s, fits))
            else:
                self.first[self.spots[k][0]].append(k)
            self.reqs[k] = compiled

    def _add_choices(self, universe: _Universe) -> None:
        sign = 1 if self.cls == INCLUSIVE else -1
        bound, varies = self.bound, self.varies
        if varies and bound != (universe.high if sign == 1 else universe.low):
            raise ValueError("a sum's region must reach its universe's top or bottom word")
        columns = universe.columns if varies else 0
        self.default = bound.heights[: columns + 1]
        self.word_at = universe.words if varies else {(): bound}
        self.column = universe.column if varies else [0] * len(universe.column)
        fixed = self.fixed.heights
        self.choices: list[dict[int, list[Cut]]] = [{}]
        self.choices += [universe.choices(sign, x, fixed[x]) for x in range(1, columns + 1)]

    def covers(self, region: Region) -> tuple[int, list[tuple[int, ...]]]:
        """The mask and the covers of `region`, which must be one of the
        pool's regions: its fixed word the pool's, its varying word one of
        the universe's words for a sum or the region's own for a lone
        region, and mu weakly above lam, read from the two words' spans.
        The mask, span[mu] & ~span[lam], comes from the same two spans."""
        lam, mu = region.lam, region.mu
        fixed, varying = (lam, mu) if self.cls == INCLUSIVE else (mu, lam)
        below, above = self.span.get(lam.steps), self.span.get(mu.steps)
        if not (
            region.type_tag == self.region.type_tag
            and fixed == self.fixed
            and (self.varies or varying == self.bound)
            and below is not None
            and above is not None
            and not below & ~above
        ):
            raise ValueError("region is not one of the candidate pool's regions")
        return above & ~below, self.found.get(varying, [])


# -- the pruned exact-cover search ----------------------------------------


def _class_covers(pool: CandidatePool) -> dict[PathWord, list[tuple[int, ...]]]:
    """Every exact cover of the pool's region that meets the class's
    requirements, checked as each tile is placed, grouped by the varying
    word whose heights its cuts leave; a cover lists tile indices.

    The universe cells outside the region start covered.  A node covers
    the first uncovered cell, so only tiles whose first cell it is can
    fit there, and the columns left of it are finished.
    owner[s] names the placed tile covering cell s, or -1 for a cut;
    parked[s] holds the fits sets of requirements waiting for cell s to
    be covered, and the waiting mask marks those cells.

    The first node in a column x chooses the varying word's height
    there, height[x], among the choices one step from the finished
    column before, choices[x][height[x - 1]], and a cut covers the cells
    beyond it.  A cut may take no covered or waiting cell, since it
    leaves its cells outside the region.  A column that tiles filled
    before the search reached it keeps the enclosing word's height.  A
    height also bounds the word in every later column: the cells of its
    shadow are blocked for tiles, and a shadow that meets a placed tile
    rules the height out; so a filled column is one step from the
    column before it too.  A finished cover
    counts only when its heights are a varying word's; the lookup also
    holds the family's end conditions, the sign in family D and the
    return to zero in family A.  A cover lists its tiles in the order
    they were placed, ascending: each node's pivot lies past the last's,
    a tile's first cell is the pivot, and tiles are in (cells, kind)
    order.
    """
    first, choices, column, reqs = pool.first, pool.choices, pool.column, pool.reqs
    spots, masks, full = pool.spots, pool.masks, pool.full
    word_at, default = pool.word_at, pool.default
    height = list(default)
    owner = [0] * len(first)  # read only where the cell is covered
    parked: list[list[frozenset]] = [[] for _ in first]
    chosen: list[int] = []
    found: dict[PathWord, list[tuple[int, ...]]] = {}

    def walk(covered: int, waiting: int, blocked: int, at: int) -> None:
        if covered == full:
            w = word_at.get(tuple(height[1:]))
            if w is not None:
                found.setdefault(w, []).append(tuple(chosen))
            return
        pivot = (~covered & (covered + 1)).bit_length() - 1
        x = column[pivot]
        if x != at:
            for mask, cells, h, cone in choices[x].get(height[x - 1], ()):
                if mask & (covered | waiting) or cone & covered:
                    continue
                for s in cells:
                    owner[s] = -1
                height[x] = h
                walk(covered | mask, waiting, blocked | cone, x)
            height[x] = default[x]
            return
        taken = covered | blocked
        for i in first[pivot]:
            mask = masks[i]
            if mask & taken:
                continue
            if mask & waiting and any(
                i not in fits for s in spots[i] for fits in parked[s]
            ):
                continue
            new_parks = []
            for s, fits in reqs[i]:
                if not covered >> s & 1:
                    new_parks.append((s, fits))
                elif owner[s] not in fits:
                    break
            else:
                now_waiting = waiting
                for s, fits in new_parks:
                    parked[s].append(fits)
                    now_waiting |= 1 << s
                for s in spots[i]:
                    owner[s] = i
                chosen.append(i)
                walk(covered | mask, now_waiting, blocked, at)
                chosen.pop()
                for s, _ in new_parks:
                    parked[s].pop()

    walk(pool.start, 0, 0, 0)
    return found


def enumerate_tilings(
    region: Region, cls: str = INCLUSIVE, pool: Optional[CandidatePool] = None
) -> tuple[Tiling, ...]:
    """All tilings of the region in the class, found by one pruned
    exact-cover search, each with its tiles in (cells, kind) order and
    its area.

    pool is the pool of a sum with this region among its regions, whose
    search has found the covers; by default the region gets its own.
    Every cover is checked against the region's mask, span[mu] &
    ~span[lam] over the universe's cells (_Universe.span), which the
    pool returns with the covers: its tiles' masks must add up to that
    mask and their sizes to its cell count.  Both hold exactly when the
    masks are disjoint and their union is the mask, since masks that
    overlap add up to fewer bits than they hold.  So reading a region's
    tilings never computes its cells or walks its columns.  The loop
    that sums a cover's masks and sizes also sums its tiles' areas, the
    tiling's area.  Covers are read as the search stored them: in order,
    each listing its tiles in ascending order as the search placed them
    (_class_covers).
    """
    if pool is None:
        pool = CandidatePool(region, cls)
    elif pool.cls != cls:
        raise ValueError("candidate pool is for the %s class, not %s" % (pool.cls, cls))
    want, covers = pool.covers(region)
    if not covers:
        return ()
    count = want.bit_count()
    masks, sizes, areas, tiles = pool.masks, pool.sizes, pool.areas, pool.tiles
    out = []
    for cover in covers:
        total = cells = area = 0
        for i in cover:
            total += masks[i]
            cells += sizes[i]
            area += areas[i]
        if total != want or cells != count:
            if cells != total.bit_count():
                raise AssertionError("tiles overlap")
            raise AssertionError("tiles do not cover the region")
        out.append(Tiling(region, tuple([tiles[i] for i in cover]), cls, area))
    return tuple(out)


def check_exact_cover(region: Region, tiles: tuple[Tile, ...]) -> None:
    """Raise unless the tiles cover every cell of the region exactly once."""
    seen: list[Coord] = []
    for t in tiles:
        seen.extend(t.cells)
    if len(seen) != len(set(seen)):
        raise AssertionError("tiles overlap")
    if set(seen) != set(region.all_cells):
        raise AssertionError("tiles do not cover the region")


# -- generating functions --------------------------------------------------


def genfun_pair(
    lam: PathWord,
    mu: PathWord,
    type_tag: str,
    cls: str = INCLUSIVE,
    weight: str = "art",
) -> PolyQ:
    """Sum of q^weight over the tilings between lam and mu, the region
    searched alone."""
    if weight not in WEIGHTS:
        raise ValueError("weight must be one of %s" % (WEIGHTS,))
    counts: list[int] = []
    tally(counts, enumerate_tilings(build_region(lam, mu, type_tag), cls), weight)
    return PolyQ(counts)


def tally(counts: list[int], tilings: Iterable[Tiling], weight: str) -> None:
    """Add one to counts[k] for each tiling whose statistic is k, read
    from the tiling's fields: its area, its tile count, or its art
    (Tiling.art, which refuses an area and a tile count of different
    parity)."""
    if weight not in WEIGHTS:
        raise ValueError("weight must be one of %s" % (WEIGHTS,))
    for t in tilings:
        k = t.art if weight == "art" else len(t.tiles) if weight == "tiles" else t.area
        if k >= len(counts):
            counts.extend([0] * (k + 1 - len(counts)))
        counts[k] += 1


@cache
def _word_pool(type_tag: str, length: int, epsilon: int) -> tuple[PathWord, ...]:
    """Every word of the family with this length (and sign, for D)."""
    if type_tag == TYPE_D:
        if not length:  # no basis at length 0; the empty word has sign 0
            return () if epsilon else (PathWord(),)
        return tuple(enumerate_type_d(length, epsilon))
    if type_tag == TYPE_B:
        return tuple(all_words(length))
    if type_tag == TYPE_A:
        return tuple(dyck_words(length))
    raise ValueError("unknown region family %r" % (type_tag,))


def _comparable_words(w: PathWord, type_tag: str, above: bool) -> list[PathWord]:
    """The family's words weakly above or below w, in the pool's order.
    v lies weakly above w exactly when span[w] & ~span[v] is empty
    (_Universe.span)."""
    _check_family_word(w, type_tag)
    epsilon = w.epsilon if type_tag == TYPE_D else 0
    span = _universe(type_tag, w.length, epsilon).span
    mine = span[w.steps]
    pool = _word_pool(type_tag, w.length, epsilon)
    if above:
        return [v for v in pool if not mine & ~span[v.steps]]
    return [v for v in pool if not span[v.steps] & ~mine]


def upper_words(lam: PathWord, type_tag: str) -> list[PathWord]:
    """Every word of the family that stays weakly above lam."""
    return _comparable_words(lam, type_tag, above=True)


def lower_words(mu: PathWord, type_tag: str) -> list[PathWord]:
    """Every word of the family that stays weakly below mu."""
    return _comparable_words(mu, type_tag, above=False)


def _check_family_word(w: PathWord, type_tag: str) -> None:
    if type_tag == TYPE_A and not classify(w).is_dyck:
        raise ValueError("family A needs a Dyck word")


def _height_sum(w: PathWord) -> int:
    return sum(w.heights)


def sum_pool(w: PathWord, type_tag: str, cls: str) -> CandidatePool:
    """The pool of a sum, whose covers it finds on first use: inclusive,
    of every region between lam = w and a word above it (a lower sum);
    exclusive, of every region between a word below w and mu = w (an
    upper sum).

    The enclosing region reaches from w to the top (inclusive) or the
    bottom (exclusive) of the family's universe, whose pointwise-highest
    and lowest words lie above and below every word of the family; so
    the sum's words are the family's words between the region's two."""
    _check_family_word(w, type_tag)
    universe = _universe(type_tag, w.length, w.epsilon if type_tag == TYPE_D else 0)
    lam, mu = (universe.low, w) if cls == EXCLUSIVE else (w, universe.high)
    return CandidatePool(Region(type_tag, lam, mu), cls, varies=True)


def sum_tilings(
    w: PathWord, type_tag: str, cls: str
) -> Iterator[tuple[PathWord, tuple[Tiling, ...]]]:
    """(v, tilings) for each varying word v of the sum whose region has a
    tiling, all from one search (sum_pool): inclusive, the regions
    between lam = w and each v above it; exclusive, those between each v
    below w and mu = w.

    Each such region is built (build_region, which checks its words) and
    read by enumerate_tilings, which checks every cover against the
    region's mask.  Regions without a tiling are not built.
    """
    pool = sum_pool(w, type_tag, cls)
    for v in pool.found:
        lam, mu = (w, v) if cls == INCLUSIVE else (v, w)
        yield v, enumerate_tilings(build_region(lam, mu, type_tag), cls, pool)


def _tally_sum(w: PathWord, type_tag: str, cls: str, weight: str) -> PolyQ:
    """The sum's tilings tallied into one count list."""
    if weight not in WEIGHTS:
        raise ValueError("weight must be one of %s" % (WEIGHTS,))
    counts: list[int] = []
    for _, tilings in sum_tilings(w, type_tag, cls):
        tally(counts, tilings, weight)
    return PolyQ(counts)


def genfun_lower(lam: PathWord, type_tag: str, weight: str = "art") -> PolyQ:
    """Sum of cover-inclusive q^weight over every upper word above lam,
    from one search over every region (sum_tilings)."""
    return _tally_sum(lam, type_tag, INCLUSIVE, weight)


def genfun_upper(mu: PathWord, type_tag: str, weight: str = "tiles") -> PolyQ:
    """Sum of cover-exclusive q^weight over every lower word below mu,
    from one search over every region (sum_tilings)."""
    return _tally_sum(mu, type_tag, EXCLUSIVE, weight)


# -- projection between families D and B ------------------------------------


def project_to_type_b(tiling: Tiling) -> Tiling:
    """Rebuild a family-D tiling as a family-B tiling of the truncated
    words: each tile becomes the family-B candidate that lifts to it
    (_lift_tile).  Statistics are preserved tile for tile."""
    region = tiling.region
    if region.type_tag != TYPE_D:
        raise ValueError("projection starts from a family-D tiling")
    lam_b = truncate_last(region.lam)
    mu_b = truncate_last(region.mu)
    target = build_region(lam_b, mu_b, TYPE_B)
    # the image cells are the standalone cells plus each west cell
    expect = set(region.unit_cells)
    for L, m in region.atoms:
        expect.add((L - 1, m))
    if expect != set(target.unit_cells):
        raise AssertionError("truncated region mismatch")
    residue = _atom_residue(region.lam)
    preimage = {
        _lift_tile(b, region.length, residue, region.atoms): b for b in _candidates(target)
    }
    out: list[Tile] = []
    for t in tiling.tiles:
        if t not in preimage:
            raise ValueError("%s tile %s is no lift of a family-B tile" % (t.kind, t.cells))
        out.append(preimage[t])
    tiles = tuple(sorted(out, key=lambda t: (t.cells, t.kind)))
    check_exact_cover(target, tiles)
    return Tiling(target, tiles, tiling.cls, sum(t.area for t in tiles))


def lift_from_type_b(tiling: Tiling, lam_d: PathWord) -> Tiling:
    """Inverse of project_to_type_b; needs the family-D lower word since
    its last step is not visible in the image."""
    region = tiling.region
    if region.type_tag != TYPE_B:
        raise ValueError("lift starts from a family-B tiling")
    if truncate_last(lam_d) != region.lam:
        raise ValueError("lower word does not extend the projected one")
    L = lam_d.length
    extensions = [PathWord(region.mu.steps + s) for s in "UD"]
    mu_d = next(m for m in extensions if m.epsilon == lam_d.epsilon)
    target = build_region(lam_d, mu_d, TYPE_D)
    residue = _atom_residue(lam_d)
    out = [_lift_tile(t, L, residue, target.atoms) for t in tiling.tiles]
    tiles = tuple(sorted(out, key=lambda t: (t.cells, t.kind)))
    check_exact_cover(target, tiles)
    return Tiling(target, tiles, tiling.cls, sum(t.area for t in tiles))


# -- rendering ---------------------------------------------------------------

_PALETTE = (
    "#8dd3c7", "#ffffb3", "#bebada", "#fb8072", "#80b1d3", "#fdb462",
    "#b3de69", "#fccde5", "#d9d9d9", "#bc80bd", "#ccebc5", "#ffed6f",
)


def render_svg(tiling: Tiling, scale: int = 24) -> str:
    """A standalone SVG picture of one tiling: both paths, each tile
    filled in its own color, two-by-two tiles drawn as large diamonds,
    anchor cells starred."""
    region = tiling.region
    lam, mu = region.lam, region.mu
    xs = [0, region.length + 1]
    ys = lam.heights + mu.heights
    ymin = min(ys) - 1
    ymax = max(ys) + 1
    for x, y in region.all_cells:
        xs.append(x + 1)
        ymin = min(ymin, y - 1)
        ymax = max(ymax, y + 1)
    for L, m in region.atoms:
        xs.append(L + 2)
        ymin = min(ymin, m - 2)
        ymax = max(ymax, m + 2)
    pad = scale

    def pt(x: float, y: float) -> str:
        return "%g,%g" % (pad + x * scale, pad + (ymax - y) * scale)

    width = pad * 2 + max(xs) * scale
    height = pad * 2 + (ymax - ymin) * scale
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height),
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for idx, t in enumerate(tiling.tiles):
        color = _PALETTE[idx % len(_PALETTE)]
        atom_cover = set(_atom_cells(t.atom)) if t.atom is not None else set()
        for x, y in t.cells:
            if (x, y) in atom_cover:
                continue
            parts.append(
                '<polygon points="%s %s %s %s" fill="%s" stroke="#555" stroke-width="1"/>'
                % (pt(x - 1, y), pt(x, y + 1), pt(x + 1, y), pt(x, y - 1), color)
            )
        if t.atom is not None:
            ax, ay = t.atom
            parts.append(
                '<polygon points="%s %s %s %s" fill="%s" stroke="#111" stroke-width="2"/>'
                % (
                    pt(ax - 2, ay),
                    pt(ax, ay + 2),
                    pt(ax + 2, ay),
                    pt(ax, ay - 2),
                    color,
                )
            )
    if region.type_tag == TYPE_B:
        for x, y in sorted(region.anchor_cells()):
            cx = pad + x * scale
            cy = pad + (ymax - y) * scale
            parts.append(
                '<text x="%g" y="%g" font-size="%d" text-anchor="middle" '
                'dominant-baseline="middle">*</text>' % (cx, cy, scale // 2)
            )
    for word, color in ((lam, "#d62728"), (mu, "#1f77b4")):
        pts = " ".join(pt(i, h) for i, h in enumerate(word.heights))
        parts.append(
            '<polyline points="%s" fill="none" stroke="%s" stroke-width="2.5"/>'
            % (pts, color)
        )
    parts.append(
        '<text x="%g" y="%g" font-size="%d">area %d, tiles %d, art %d</text>'
        % (pad / 2, height - pad / 3, scale // 2, tiling.area, tiling.tile_count, tiling.art)
    )
    parts.append("</svg>")
    return "\n".join(parts)


def tiling_record(tiling: Tiling) -> str:
    """Canonical JSON text for one tiling: json.dumps(tiling.to_json(),
    indent=2, sort_keys=True), with each tile's text written once per
    tile."""
    return _json_text(tiling._record(list(tiling.tiles)))


def _json_text(value, pad: str = "") -> str:
    """The text json.dumps(value, indent=2, sort_keys=True) writes at
    indentation pad, for the dicts, lists, ints, strs and tiles of a
    record, a tile as its record.  With an indent, json.dumps runs the
    pure-Python encoder; this writes the same text in far fewer calls.
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        items = (inner + _json_text(k) + ": " + _json_text(value[k], inner) for k in sorted(value))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        inner = pad + "  "
        items = (inner + _json_text(v, inner) for v in value)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, Tile):
        # json.dumps escapes every newline inside a string
        return value.record.replace("\n", "\n" + pad)
    if type(value) is int:
        return repr(value)
    return json.dumps(value)


def record_order(tiling: Tiling) -> tuple:
    """A sort key that orders tilings as their tiling_record texts do,
    without writing the text.

    The text lists each object's keys sorted and compares character by
    character, so the key lists the values that can differ in the same
    order: every number as its decimal string, since a number ends in a
    comma or a newline, both below every digit and the minus sign, and
    a word ends in a quote, below every letter.  A list that ends first
    sorts first, as a tuple does; the one exception, an empty tile list,
    which sorts after a full one, comes with area 0, which no other
    tiling has.  A tile's cells determine the rest of its record: its
    kind, its two-by-two, and for a ballot tile the first column with
    two cells, which splits its glue from its ribbons; so two tiles
    whose area, art and cells agree have the same text.
    """
    region = tiling.region
    return (
        str(tiling.area),
        str(tiling.art),
        tiling.cls,
        region.type_tag,
        region.lam.steps,
        tuple([(str(t.area), str(t.art), _cells_order(t.cells)) for t in tiling.tiles]),
        region.mu.steps,
    )


def _cells_order(cells: tuple[Coord, ...]) -> tuple[tuple[str, str], ...]:
    return tuple([(str(x), str(y)) for x, y in cells])
