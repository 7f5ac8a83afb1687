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
come in same-shape pairs at vertical offset two, fused together with
the single box that shares edges with both ribbon starts into ONE tile.
In family D the fusing is built in: a dyck_d tile is a dyck ribbon
ending on the west cell of a two-by-two merged with it, and a ballot_d
tile is a pair of same-shape ribbons landing on the south and north
cells of one two-by-two, merged with the two-by-two and the glue box.
Every finished tile has statistic tiles = 1 and odd area (a two-by-two
contributes area one), so art = (area + tiles)/2 is a nonneg integer.

Classes.  A tiling is cover-inclusive when every tile, translated down
by (0,-2) (or (0,-4) when it contains a two-by-two), either lies with
every cell's top corner weakly below lam, ignoring columns past the
terminal line, or lands inside a single other tile of at least its
size.  In family B the translate test applies to each constituent
ribbon and glue box separately; a constituent may land inside its own
partner.  A tiling is cover-exclusive when for every ordered tile pair
(d1, d2) such that some cell of d1 sits just above, northwest, or
northeast of a cell of d2, every such neighbor position of every cell
of d2 lies in d1 or d2; a missing neighbor inside the strip x <= L is
a violation, one past the terminal line is not.  In family D a
triggered pair additionally requires d1 to contain a two-by-two
whenever d2 does.  Each region admits at most one cover-exclusive
tiling, which carries the signed matrix entries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .pathword import (
    PathWord,
    all_words,
    classify,
    dyck_words,
    enumerate_type_d,
    is_above,
    truncate_last,
)
from .qpoly import ONE, ZERO, PolyQ

Coord = tuple[int, int]

TYPE_A, TYPE_B, TYPE_D = "A", "B", "D"
INCLUSIVE, EXCLUSIVE = "inclusive", "exclusive"
WEIGHTS = ("art", "tiles", "area")


def _atom_cells(center: Coord) -> tuple[Coord, ...]:
    """Unit positions covered by a two-by-two centered at (L, m)."""
    x, m = center
    return ((x - 1, m), (x, m - 1), (x, m + 1), (x + 1, m))


@dataclass(frozen=True)
class Region:
    type_tag: str
    lam: PathWord
    mu: PathWord
    unit_cells: frozenset[Coord]
    atoms: frozenset[Coord]

    @property
    def length(self) -> int:
        return self.lam.length

    @cached_property
    def all_cells(self) -> frozenset[Coord]:
        cells = set(self.unit_cells)
        for a in self.atoms:
            cells.update(_atom_cells(a))
        return frozenset(cells)

    @property
    def is_empty(self) -> bool:
        return not self.unit_cells and not self.atoms

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
    L = lam.length
    lh, mh = lam.heights, mu.heights
    units = set()
    for x in range(1, L):
        for y in range(lh[x] + 1, mh[x]):
            if (x + y) % 2 == 0:
                continue
            if lh[x - 1] <= y <= mh[x - 1] and lh[x + 1] <= y <= mh[x + 1]:
                units.add((x, y))
    atoms: set[Coord] = set()
    if type_tag == TYPE_B and L >= 1:
        for y in range(lh[L] + 1, mh[L]):
            if (L + y) % 2 == 1:
                units.add((L, y))
    if type_tag == TYPE_D and L >= 1:
        residue = (L + 2 * (lam.epsilon + 1)) % 4
        for m in range(lh[L] + 2, mh[L] - 1):
            if m % 4 == residue:
                atoms.add((L, m))
        for a in atoms:
            units.difference_update(_atom_cells(a))
    return Region(type_tag, lam, mu, frozenset(units), frozenset(atoms))


@dataclass(frozen=True)
class Tile:
    """One tile; cells lists every unit position it covers, sorted.

    ribbon is the cell run of a dyck or dyck_d tile (west cell last for
    dyck_d).  lower/upper are the two ribbons of a ballot_d (ending on
    the south / north cell of the two-by-two) or of a fused family-B
    ballot pair (ending on anchors), with glue the shared single box.
    """

    kind: str  # dyck | ballot_b | two_by_two | dyck_d | ballot_d
    cells: tuple[Coord, ...]
    atom: Optional[Coord] = None
    ribbon: tuple[Coord, ...] = ()
    lower: tuple[Coord, ...] = ()
    upper: tuple[Coord, ...] = ()
    glue: Optional[Coord] = None

    @property
    def area(self) -> int:
        if self.kind == "two_by_two":
            return 1
        if self.kind in ("dyck", "dyck_d"):
            return len(self.ribbon)
        if self.kind == "ballot_d":
            return 2 * len(self.lower) - 1
        if self.kind == "ballot_b":
            return len(self.cells)
        raise ValueError("unknown tile kind %r" % (self.kind,))

    @property
    def tiles(self) -> int:
        return 1

    @property
    def art(self) -> int:
        if self.area % 2 != 1:
            raise AssertionError("tile area must be odd")
        return (self.area + 1) // 2

    @property
    def size(self) -> int:
        """Box count for containment comparisons (two-by-two counts 1)."""
        return self.area

    def constituents(self) -> tuple[tuple[Coord, ...], ...]:
        """Pre-fusion pieces (used by the family-B inclusive test)."""
        if self.kind == "ballot_b":
            return ((self.glue,), self.lower, self.upper)
        return (self.cells,)

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
            out["glue"] = list(self.glue)
        return out


@dataclass(frozen=True)
class Tiling:
    region: Region
    tiles: tuple[Tile, ...]
    cls: str

    @property
    def area(self) -> int:
        return sum(t.area for t in self.tiles)

    @property
    def tile_count(self) -> int:
        return len(self.tiles)

    @property
    def art(self) -> int:
        total = self.area + self.tile_count
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
        return {
            "family": self.region.type_tag,
            "lower": self.region.lam.steps,
            "upper": self.region.mu.steps,
            "class": self.cls,
            "area": self.area,
            "tiles": self.tile_count,
            "art": self.art,
            "tile_list": [t.to_json() for t in self.tiles],
        }


# -- candidate tiles -----------------------------------------------------


def _dyck_ribbons(cells: frozenset[Coord]) -> list[tuple[Coord, ...]]:
    """All runs with one cell per column, never below and returning to
    the start height."""
    out = []
    for start in sorted(cells):
        x0, y0 = start
        stack: list[tuple[Coord, ...]] = [(start,)]
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


def _ballot_ribbons(cells: frozenset[Coord], terminal: int) -> list[tuple[Coord, ...]]:
    """Runs never below the start, ending on the terminal line with odd
    positive rise."""
    out = []
    for start in sorted(cells):
        x0, y0 = start
        if x0 == terminal:
            continue
        stack: list[tuple[Coord, ...]] = [(start,)]
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


def _dyck_tile(ribbon: tuple[Coord, ...]) -> Tile:
    return Tile(kind="dyck", cells=tuple(sorted(ribbon)), ribbon=ribbon)


def _atom_tiles(region: Region, atom: Coord) -> list[Tile]:
    """two_by_two, dyck_d, and ballot_d tiles built on one two-by-two."""
    L, m = atom
    west = (L - 1, m)
    south, north = (L, m - 1), (L, m + 1)
    subs = _atom_cells(atom)
    allowed = region.unit_cells | {west}
    tiles = [Tile(kind="two_by_two", cells=tuple(sorted(subs)), atom=atom)]

    # dyck ribbons that terminate on the west cell, merged with the atom
    for ribbon in _dyck_ribbons(allowed):
        if ribbon[-1] == west and len(ribbon) >= 3:
            cells = tuple(sorted(set(ribbon) | set(subs)))
            tiles.append(Tile(kind="dyck_d", cells=cells, atom=atom, ribbon=ribbon))

    # paired ballot ribbons landing on the south and north cells
    stack: list[tuple[Coord, ...]] = [(south,)]
    while stack:
        rev = stack.pop()
        x, y = rev[-1]
        if len(rev) >= 3 and len(rev) % 2 == 1 and y == min(c[1] for c in rev):
            low = tuple(reversed(rev))
            up = tuple((cx, cy + 2) for cx, cy in low)
            if all(c in allowed for c in up[:-1]):
                glue = (low[0][0] - 1, low[0][1] + 1)
                if glue in region.unit_cells:
                    cells = tuple(sorted({glue, *low, *up, *subs}))
                    tiles.append(
                        Tile(
                            kind="ballot_d",
                            cells=cells,
                            atom=atom,
                            lower=low,
                            upper=up,
                            glue=glue,
                        )
                    )
        for dy in (1, -1):
            prev = (x - 1, y + dy)
            if prev in allowed:
                stack.append(rev + (prev,))
    return tiles


def _candidates(region: Region) -> list[Tile]:
    tiles = [_dyck_tile(r) for r in _dyck_ribbons(region.unit_cells)]
    if region.type_tag == TYPE_B:
        for r in _ballot_ribbons(region.unit_cells, region.length):
            # pre-fusion ballot ribbon; paired and fused after the cover
            tiles.append(Tile(kind="ballot_b", cells=tuple(sorted(r)), lower=r))
    if region.type_tag == TYPE_D:
        for atom in sorted(region.atoms):
            tiles.extend(_atom_tiles(region, atom))
    return tiles


# -- exact covers ----------------------------------------------------------


def _tile_slots(region: Region, tile: Tile) -> frozenset:
    slots = {c for c in tile.cells if c in region.unit_cells}
    if tile.atom is not None:
        slots.add(("atom", tile.atom))
    return frozenset(slots)


def _exact_covers(region: Region) -> list[tuple[Tile, ...]]:
    all_slots: set = set(region.unit_cells)
    for a in region.atoms:
        all_slots.add(("atom", a))
    candidates = [(t, _tile_slots(region, t)) for t in _candidates(region)]
    order = sorted(all_slots, key=repr)
    by_slot: dict = {s: [] for s in order}
    for t, slots in candidates:
        for s in slots:
            by_slot[s].append((t, slots))

    covers: list[tuple[Tile, ...]] = []

    def walk(uncovered: set, chosen: list[Tile]):
        if not uncovered:
            covers.append(tuple(chosen))
            return
        pivot = min(uncovered, key=repr)
        for t, slots in by_slot[pivot]:
            if slots <= uncovered:
                chosen.append(t)
                walk(uncovered - slots, chosen)
                chosen.pop()

    walk(all_slots, [])
    return covers


def _fuse_ballot_pairs(cover: tuple[Tile, ...]) -> Optional[tuple[Tile, ...]]:
    """Pair same-shape ballot ribbons at offset (0, 2) and fuse each pair
    with its glue box.  Returns None when no valid pairing exists."""
    ballots = [t for t in cover if t.kind == "ballot_b"]
    if not ballots:
        return cover
    rest = [t for t in cover if t.kind != "ballot_b"]

    def shape(t: Tile):
        xs = t.lower
        return (xs[0][0], tuple(b[1] - a[1] for a, b in zip(xs, xs[1:])))

    groups: dict = {}
    for t in ballots:
        groups.setdefault(shape(t), []).append(t)
    singles = {t.cells[0]: t for t in rest if t.kind == "dyck" and len(t.cells) == 1}
    fused: list[Tile] = []
    consumed_glue: set[Coord] = set()
    for _, group in sorted(groups.items()):
        group.sort(key=lambda t: t.lower[0][1])
        if len(group) % 2:
            return None
        for k in range(0, len(group), 2):
            low_t, up_t = group[k], group[k + 1]
            if up_t.lower[0][1] != low_t.lower[0][1] + 2:
                return None
            glue = (low_t.lower[0][0] - 1, low_t.lower[0][1] + 1)
            if glue not in singles or glue in consumed_glue:
                return None
            consumed_glue.add(glue)
            cells = tuple(sorted({glue, *low_t.lower, *up_t.lower}))
            fused.append(
                Tile(
                    kind="ballot_b",
                    cells=cells,
                    lower=low_t.lower,
                    upper=up_t.lower,
                    glue=glue,
                )
            )
    kept = [t for t in rest if not (t.kind == "dyck" and len(t.cells) == 1 and t.cells[0] in consumed_glue)]
    return tuple(kept) + tuple(fused)


# -- class predicates ------------------------------------------------------


def _below_after_drop(cells: Iterable[Coord], drop: int, lam: PathWord) -> bool:
    """Whole translated cell set weakly below lam (columns past the
    terminal line are ignored)."""
    lh = lam.heights
    L = lam.length
    for x, y in cells:
        if x > L:
            continue
        if y - drop + 1 > lh[x]:
            return False
    return True


def _pieces(tile: Tile) -> list[tuple[tuple[Coord, ...], int, int]]:
    """Constituents of a tile as (cells, drop, size) triples.

    Ribbons and glue boxes drop by two; a two-by-two drops by four and
    has size one even though it spans four unit positions.
    """
    out = []
    if tile.kind == "dyck":
        out.append((tile.ribbon, 2, len(tile.ribbon)))
    elif tile.kind == "dyck_d":
        out.append((tile.ribbon, 2, len(tile.ribbon)))
    elif tile.kind in ("ballot_d", "ballot_b"):
        out.append(((tile.glue,), 2, 1))
        out.append((tile.lower, 2, len(tile.lower)))
        out.append((tile.upper, 2, len(tile.upper)))
    if tile.atom is not None:
        out.append((_atom_cells(tile.atom), 4, 1))
    return out


def _is_cover_inclusive(region: Region, tiles: tuple[Tile, ...]) -> bool:
    lam = region.lam
    pieces = []
    for t in tiles:
        pieces.extend(_pieces(t))
    # a dropped piece may land inside any other constituent or inside a
    # whole (possibly fused) tile of at least its size
    targets = [(frozenset(cells), size) for cells, _, size in pieces]
    targets.extend((frozenset(t.cells), t.size) for t in tiles)
    for cells, drop, size in pieces:
        if _below_after_drop(cells, drop, lam):
            continue
        moved = frozenset((x, y - drop) for x, y in cells)
        if not any(moved <= tc and ts >= size for tc, ts in targets):
            return False
    return True


def _neighbors(cells: Iterable[Coord]) -> set[Coord]:
    out = set()
    for x, y in cells:
        out.update(((x, y + 2), (x - 1, y + 1), (x + 1, y + 1)))
    return out


def _is_cover_exclusive(region: Region, tiles: tuple[Tile, ...]) -> bool:
    L = region.length
    region_cells = region.all_cells
    cellsets = [frozenset(t.cells) for t in tiles]
    for i, d1 in enumerate(tiles):
        for j, d2 in enumerate(tiles):
            if i == j:
                continue
            nbrs = _neighbors(cellsets[j])
            if not (cellsets[i] & nbrs):
                continue
            # triggered: the full neighborhood of d2 must close up
            for p in nbrs:
                if p in cellsets[i] or p in cellsets[j]:
                    continue
                if p in region_cells:
                    return False
                if p[0] <= L:
                    return False
            if region.type_tag == TYPE_D and d2.atom is not None and d1.atom is None:
                return False
    return True


def enumerate_tilings(region: Region, cls: str = INCLUSIVE) -> tuple[Tiling, ...]:
    """All exact covers of the region satisfying the class predicate."""
    if cls not in (INCLUSIVE, EXCLUSIVE):
        raise ValueError("class must be inclusive or exclusive, got %r" % (cls,))
    predicate = _is_cover_inclusive if cls == INCLUSIVE else _is_cover_exclusive
    out = []
    for cover in _exact_covers(region):
        if region.type_tag == TYPE_B:
            fused = _fuse_ballot_pairs(cover)
            if fused is None:
                continue
            cover = fused
        check_exact_cover(region, cover)
        if predicate(region, cover):
            out.append(Tiling(region, tuple(sorted(cover, key=lambda t: (t.cells, t.kind))), cls))
    out.sort(key=lambda t: [(x.cells, x.kind) for x in t.tiles])
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
    """Sum of q^weight over the tilings between lam and mu."""
    if weight not in WEIGHTS:
        raise ValueError("weight must be one of %s" % (WEIGHTS,))
    region = build_region(lam, mu, type_tag)
    acc = ZERO
    for t in enumerate_tilings(region, cls):
        acc = acc + ONE.scale_by_monomial(1, t.statistic(weight))
    return acc


def exclusive_signed_weight(
    lam: PathWord, mu: PathWord, type_tag: str, weight: str = "art"
) -> PolyQ:
    """(-1)^tiles q^weight of the unique cover-exclusive tiling, else 0."""
    region = build_region(lam, mu, type_tag)
    found = enumerate_tilings(region, EXCLUSIVE)
    if not found:
        return ZERO
    if len(found) > 1:
        raise AssertionError("cover-exclusive tiling is not unique")
    t = found[0]
    return ONE.scale_by_monomial((-1) ** t.tile_count, t.statistic(weight))


def _comparable_words(w: PathWord, type_tag: str, above: bool) -> list[PathWord]:
    L = w.length
    if type_tag == TYPE_D:
        if not L:
            return [w]
        pool = enumerate_type_d(L, w.epsilon)
    elif type_tag == TYPE_B:
        pool = all_words(L)
    elif type_tag == TYPE_A:
        if not classify(w).is_dyck:
            raise ValueError("family A needs a Dyck word")
        pool = dyck_words(L)
    else:
        raise ValueError("unknown region family %r" % (type_tag,))
    if above:
        return [v for v in pool if is_above(v, w)]
    return [v for v in pool if is_above(w, v)]


def upper_words(lam: PathWord, type_tag: str) -> list[PathWord]:
    """Every word of the family that stays weakly above lam."""
    return _comparable_words(lam, type_tag, above=True)


def lower_words(mu: PathWord, type_tag: str) -> list[PathWord]:
    """Every word of the family that stays weakly below mu."""
    return _comparable_words(mu, type_tag, above=False)


def _sum_over(
    pairs: list[tuple[PathWord, PathWord]], type_tag: str, cls: str, weight: str
) -> PolyQ:
    acc = ZERO
    for lam, mu in pairs:
        acc = acc + genfun_pair(lam, mu, type_tag, cls, weight)
    return acc


def genfun_lower(
    lam: PathWord,
    type_tag: str,
    weight: str = "art",
    cls: str = INCLUSIVE,
) -> PolyQ:
    """Sum of genfun_pair(lam, mu) over every upper word mu above lam."""
    if weight not in WEIGHTS:
        raise ValueError("weight must be one of %s" % (WEIGHTS,))
    pairs = [(lam, mu) for mu in upper_words(lam, type_tag)]
    return _sum_over(pairs, type_tag, cls, weight)


def genfun_upper(
    mu: PathWord,
    type_tag: str,
    weight: str = "tiles",
) -> PolyQ:
    """Sum of cover-exclusive q^weight over every lower word below mu."""
    if weight not in WEIGHTS:
        raise ValueError("weight must be one of %s" % (WEIGHTS,))
    pairs = [(lam, mu) for lam in lower_words(mu, type_tag)]
    return _sum_over(pairs, type_tag, EXCLUSIVE, weight)


# -- projection between families D and B ------------------------------------


def project_to_type_b(tiling: Tiling) -> Tiling:
    """Rebuild a family-D tiling as a family-B tiling of the truncated
    words.  Statistics are preserved tile for tile."""
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
    out: list[Tile] = []
    for t in tiling.tiles:
        if t.kind == "dyck":
            out.append(t)
        elif t.kind == "two_by_two":
            west = (t.atom[0] - 1, t.atom[1])
            out.append(Tile(kind="dyck", cells=(west,), ribbon=(west,)))
        elif t.kind == "dyck_d":
            out.append(Tile(kind="dyck", cells=tuple(sorted(t.ribbon)), ribbon=t.ribbon))
        elif t.kind == "ballot_d":
            low, up = t.lower[:-1], t.upper[:-1]
            cells = tuple(sorted({t.glue, *low, *up}))
            out.append(
                Tile(kind="ballot_b", cells=cells, lower=low, upper=up, glue=t.glue)
            )
        else:
            raise ValueError("unexpected tile kind %r in family D" % (t.kind,))
    tiles = tuple(sorted(out, key=lambda t: (t.cells, t.kind)))
    result = Tiling(target, tiles, tiling.cls)
    check_exact_cover(target, tiles)
    return result


def lift_from_type_b(tiling: Tiling, lam_d: PathWord) -> Tiling:
    """Inverse of project_to_type_b; needs the family-D lower word since
    its last step is not visible in the image."""
    region = tiling.region
    if region.type_tag != TYPE_B:
        raise ValueError("lift starts from a family-B tiling")
    if truncate_last(lam_d) != region.lam:
        raise ValueError("lower word does not extend the projected one")
    L = lam_d.length
    eps = lam_d.epsilon
    extensions = [PathWord(region.mu.steps + s) for s in "UD"]
    mu_d = next(m for m in extensions if m.epsilon == eps)
    target = build_region(lam_d, mu_d, TYPE_D)
    residue = (L + 2 * (eps + 1)) % 4
    out: list[Tile] = []
    for t in tiling.tiles:
        if t.kind == "ballot_b":
            # the two-by-two center sits at one of the pair's two anchor
            # heights; the residue class picks which one
            y_low, y_up = t.lower[-1][1], t.upper[-1][1]
            m = y_up if y_up % 4 == residue else y_low
            if m % 4 != residue:
                raise AssertionError("ballot pair at incompatible height")
            low = t.lower + ((L, m - 1),)
            up = t.upper + ((L, m + 1),)
            atom = (L, m)
            cells = tuple(sorted({t.glue, *low, *up, *_atom_cells(atom)}))
            out.append(
                Tile(kind="ballot_d", cells=cells, atom=atom, lower=low, upper=up, glue=t.glue)
            )
            continue
        end = t.ribbon[-1]
        if end[0] == L - 1 and end[1] % 4 == residue and (L, end[1]) in target.atoms:
            atom = (L, end[1])
            if len(t.ribbon) == 1:
                out.append(Tile(kind="two_by_two", cells=tuple(sorted(_atom_cells(atom))), atom=atom))
            else:
                cells = tuple(sorted(set(t.ribbon) | set(_atom_cells(atom))))
                out.append(Tile(kind="dyck_d", cells=cells, atom=atom, ribbon=t.ribbon))
        else:
            out.append(t)
    tiles = tuple(sorted(out, key=lambda t: (t.cells, t.kind)))
    check_exact_cover(target, tiles)
    return Tiling(target, tiles, tiling.cls)


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
    """Canonical JSON text for one tiling."""
    return json.dumps(tiling.to_json(), indent=2, sort_keys=True)
