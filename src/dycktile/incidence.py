"""Signed incidence matrices on a fixed-sign word basis, and their inverses.

Fix a length n and a sign epsilon.  Entry (lam, mu) of the matrix is
the flip weight of the unique arc subset S of mu with flip(mu, S) =
lam, and zero when no subset works.  Kind "I" uses the size-sensitive
weight, kind "II" the size-blind one.  Both matrices are
lower-unitriangular in the basis order of enumerate_type_d (highest
word first), because flips only move words downward.

The matrices are sparse (about 7% of the entries are nonzero at
n = 8), so a matrix stores only its nonzeros: rows[i] is the tuple of
(column, entry) pairs of row i, sorted by column.  The zero-filled
grid `entries` is made from the rows on first use, for rendering and
for callers that index it.

build() fills the matrix column by column and pairs each column once:
linkflip.arc_exponents(mu, kind) lists the arcs of mu, each with the
e of its weight -q^e.  Both arc kinds toggle both endpoints of the
word read as bits (D = 1): U...D becomes D...U and U...U becomes
D...D.  Distinct arcs touch disjoint positions, so flip(mu, S) is mu
XOR the endpoint bits of S, and the weight of S is the product
(-1)^|S| q^(sum of e) of its arcs' monomials.  Every subset is then a
sign and an exponent, and equal monomials share one PolyQ.  One call
of flip(mu, every arc) per column cross-checks the masks against
linkflip's own rewriting.  The uniqueness of S is an assumption the
definition leans on; build() checks it exhaustively (arc sets are
small, at most L/2 arcs): no two subsets of one column may land in
the same row.

invert, row_sums and check_inverse share one kernel on packed rows
(two-level Kronecker substitution).  A polynomial p is stored as the
int p(2^W) (qpoly.pack), and a whole row as one int: entry j sits in
a slot at bit S * j, and a slot holds D + 1 digits of W bits, rounded
up to whole bytes.  So p(2^W) times a packed row is one shift-add per
term of p, and it multiplies every entry of the row at once.  The
arithmetic is exact for any W and S; only reading a row back needs
every entry of degree at most D with every coefficient in
[-2^(W-1), 2^(W-1)).

m x = e, for a lower-unitriangular m and e with a single 1 in each
row, is forward substitution down the rows: row i of x is
2^(S * col) - sum over k < i of m[i][k](2^W) * (row k of x), where
col is the column of row i's 1.  invert solves m x = I, one slot per
column; row_sums solves m x = (1, ..., 1), one slot and no column
stride.  Each term of each strictly lower nonzero of m is one
shift-add: 1,009 of them for kind I, sign 0 at n = 8 (128 rows), and
20,603 at n = 11.  d[i] bounds the degree of row i by induction down
the rows: deg x[i][j] <= d[i], the largest over k < i of
deg m[i][k] + d[k].  D, the largest d[i], is attained, 28 at n = 8 and
55 at n = 11.  Decoding adds half a digit, 2^(W-1), to every digit of
every slot, so that a slot in range holds an unsigned int below
2^(W(D + 1)), and its digits past the entry's degree read half.  One
masked compare per row, (biased row XOR bias) AND a mask of every bit
past digit d[i] of every slot, checks that they do: a row that passes
decodes to entries of degree at most d[i] with every coefficient in
range.  One to_bytes, as long as the row's last slot, and one struct
unpack then split the row into its slots.  Each distinct slot is
unpacked once into a table, 355 entries for 8,256 slots at n = 8, and
each row keeps its slots as an array of indices into that table.  A row out of range (negative, longer than
its last slot, or past its degree bound) fails the decode.

Each solve decodes first at a trial width.  For invert that is
packing_width(a_max), where a_max is the largest row 1-norm sum of m
(7 bits at n = 8, 9 at n = 11); a row sum adds up to size entries, so
row_sums takes packing_width(a_max * size) (14 bits at n = 8, 19 at
n = 11).  The trial needs no proof, because the product check
certifies it.  The check packs the decoded x again at its own layout,
computes each row of m x at once and compares it with e, so m x = e
certifies x = m^-1 e whatever width decoded it.  Its width holds
a_max * max|coef(x)| + 1, which bounds every coefficient of m x - e.
Its slots hold D + 1 digits, D the largest over the nonzeros m[i][k]
of deg m[i][k] + d[k]: the decode has checked every entry of row k
against d[k], so this bounds the degree of every entry of m x - e, and
it is the solve's own D.  Then a row of m x - e is zero exactly when
its packed int is, and the lowest set bit of a nonzero one falls in
its first nonzero slot, which names the column of the first mismatch.
The width is measured on the decoded entries and the degree bounds
are checked on them, so a wrong entry cannot vanish at q = 2^W or
carry into its neighbour unseen.  The check packs each entry of the
table once and joins each row from those bytes.  At n = 8 its slots
hold 29 digits of 9 bits, and it makes 1,137 shift-adds, the
diagonal's included.  check_inverse(a, b) runs the same check, with
the largest degree of each row of b as its bound, and D at least the
largest of these, so that a row of b that no nonzero of a reads still
fits its slots.

The trial width suffices for every inverse build makes through
n = 12 and every row sum through n = 13.  The fallback substitutes
again at a proven width: r_i = 1 + sum over k < i of |m[i][k]|_1 * r_k
bounds, by induction down the rows, the 1-norm of every entry of row i
of x, so W = bit_length(max r) + 1 decodes it (38 bits at n = 8, 95 at
n = 11).  The check then runs again and raises if it fails.  Inverse
entries only hold nonnegative coefficients; the tiling bridge
re-proves that positivity downstream and the tests assert it, but
nothing here relies on it.
"""

from __future__ import annotations

import csv
import io
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count
from operator import itemgetter
from struct import Struct
from typing import Callable, NamedTuple, Sequence

from .linkflip import arc_exponents, flip
from .pathword import PathWord, enumerate_type_d
from .qpoly import ONE, ZERO, PolyQ, norm1, pack, packing_width, unpack

Row = tuple[tuple[int, PolyQ], ...]


@dataclass(frozen=True)
class IncidenceMatrix:
    basis: tuple[PathWord, ...]
    rows: tuple[Row, ...]  # rows[i]: the (col, entry) nonzeros, by column

    @classmethod
    def from_dense(
        cls, basis: Sequence[PathWord], grid: Sequence[Sequence[PolyQ]]
    ) -> "IncidenceMatrix":
        """The matrix with grid[row][col] as entries; zeros are dropped."""
        basis = tuple(basis)
        size = len(basis)
        if len(grid) != size or any(len(row) != size for row in grid):
            raise ValueError("grid must be %d x %d, one row and column per word" % (size, size))
        rows = tuple(tuple((j, p) for j, p in enumerate(row) if p) for row in grid)
        return cls(basis, rows)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {w.steps: k for k, w in enumerate(self.basis)}

    @cached_property
    def entries(self) -> tuple[tuple[PolyQ, ...], ...]:
        """The full grid, entries[row][col], zeros included."""
        grid = []
        for row in self.rows:
            dense = [ZERO] * self.size
            for j, p in row:
                dense[j] = p
            grid.append(tuple(dense))
        return tuple(grid)

    @property
    def size(self) -> int:
        return len(self.basis)

    def entry(self, lam: PathWord, mu: PathWord) -> PolyQ:
        """Entry in row lam, column mu."""
        try:
            i = self._index[lam.steps]
            j = self._index[mu.steps]
        except KeyError as exc:
            raise ValueError("word %s is not in the basis" % exc.args[0])
        row = self.rows[i]
        k = bisect_left(row, j, key=itemgetter(0))
        return row[k][1] if k < len(row) and row[k][0] == j else ZERO

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "basis": [w.steps for w in self.basis],
            "entries": [[p.to_json() for p in row] for row in self.entries],
        }

    @classmethod
    def from_json(cls, data: dict) -> "IncidenceMatrix":
        basis = [PathWord(s) for s in data["basis"]]
        grid = [[PolyQ.from_json(p) for p in row] for row in data["entries"]]
        return cls.from_dense(basis, grid)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([""] + [w.steps for w in self.basis])
        for w, row in zip(self.basis, self.entries):
            writer.writerow([w.steps] + [str(p) for p in row])
        return buf.getvalue()

    def to_latex(self) -> str:
        lines = ["\\begin{pmatrix}"]
        for row in self.entries:
            lines.append(" & ".join(p.render("q^{%d}", sep="") for p in row) + r" \\")
        lines.append("\\end{pmatrix}")
        return "\n".join(lines)

    def to_text(self) -> str:
        cells = [[str(p) for p in row] for row in self.entries]
        labels = [w.steps for w in self.basis]
        width = max(
            max(len(c) for row in cells for c in row),
            max(len(s) for s in labels),
        )
        head = " " * width + "  " + "  ".join(s.rjust(width) for s in labels)
        lines = [head]
        for label, row in zip(labels, cells):
            lines.append(label.rjust(width) + "  " + "  ".join(c.rjust(width) for c in row))
        return "\n".join(lines)


_BITS = str.maketrans("UD", "01")


def _code(w: PathWord) -> int:
    """w read as a binary number, D = 1; a flip is an XOR of its bits."""
    return int(w.steps.translate(_BITS), 2)


def build(n: int, epsilon: int, kind: str) -> IncidenceMatrix:
    """The incidence matrix of the length-n sign-epsilon basis."""
    if kind not in ("I", "II"):
        raise ValueError("kind must be 'I' or 'II', got %r" % (kind,))
    basis = tuple(enumerate_type_d(n, epsilon))
    index = {_code(w): k for k, w in enumerate(basis)}
    rows: list[list[tuple[int, PolyQ]]] = [[] for _ in basis]
    # (-1)^s q^e, keyed by (s, e) with s = |S| mod 2
    monomials: dict[tuple[int, int], PolyQ] = {(0, 0): ONE}
    for j, mu in enumerate(basis):
        code = _code(mu)
        arcs = arc_exponents(mu, kind)
        subsets = [(code, 0, 0)]  # (code of flip(mu, S), |S| mod 2, exponent)
        for (a, b), e in arcs:
            # both arc kinds toggle both endpoints: U...D -> D...U, U...U -> D...D
            mask = (1 << (n - a)) | (1 << (n - b))
            subsets += [(c ^ mask, s ^ 1, t + e) for c, s, t in subsets]
        for c, s, t in subsets:
            i = index[c]  # flips preserve the sign
            row = rows[i]
            if row and row[-1][0] == j:
                raise AssertionError(
                    "two flip subsets of %s give %s" % (mu.steps, basis[i].steps)
                )
            p = monomials.get((s, t))
            if p is None:
                p = monomials[s, t] = PolyQ((0,) * t + (-1 if s else 1,))
            row.append((j, p))
        # the last subset holds every arc
        whole = flip(mu, [arc for arc, _ in arcs])
        if _code(whole) != subsets[-1][0]:
            raise AssertionError(
                "flipping every arc of %s gives %s, not %s"
                % (mu.steps, whole.steps, basis[index[subsets[-1][0]]].steps)
            )
    return IncidenceMatrix(basis, tuple(map(tuple, rows)))


def _distinct(rows: Sequence[Row]) -> list[PolyQ]:
    """One of each distinct entry of rows."""
    return list({p.coeffs: p for row in rows for _, p in row}.values())


class _Factor(NamedTuple):
    """A matrix's rows as shift-add terms, with the norm a product with
    it needs."""

    rows: list[tuple]  # rows[i]: (k, terms) per nonzero; terms: (e, c) per c q^e
    norm: int  # the largest 1-norm sum of a row's entries


def _factor(rows: Sequence[Row]) -> _Factor:
    """rows with each entry p as its terms (e, c), one per nonzero
    coefficient c of q^e, so that p(2^W) * x is the sum of
    c * (x << W * e); each distinct entry is split once."""
    split, norms = {}, {}
    for p in _distinct(rows):
        split[p.coeffs] = tuple((e, c) for e, c in enumerate(p.coeffs) if c)
        norms[p.coeffs] = norm1(p)
    return _Factor(
        [tuple((k, split[p.coeffs]) for k, p in row) for row in rows],
        max((sum(norms[p.coeffs] for _, p in row) for row in rows), default=0),
    )


class _Slots(NamedTuple):
    """Rows of polynomials as indices into a table of their distinct
    values, with a degree bound per row."""

    values: list[PolyQ]  # the distinct entries, ZERO first
    ids: list[array]  # ids[i][j]: the index in values of entry (i, j)
    degrees: Sequence[int]  # degrees[i]: no entry of row i has a larger degree
    rows: tuple[Row, ...]  # rows[i]: the (col, entry) nonzeros of row i


def _slots(rows: Sequence[Row]) -> _Slots:
    """rows as a _Slots, each row's degree bound its largest degree."""
    index = {ZERO.coeffs: 0}
    values = [ZERO]
    ids = []
    for row in rows:
        line = array("I", [0]) * (row[-1][0] + 1 if row else 0)
        for j, p in row:
            k = index.get(p.coeffs)
            if k is None:
                k = index[p.coeffs] = len(values)
                values.append(p)
            line[j] = k
        ids.append(line)
    degrees = [max((len(p.coeffs) - 1 for _, p in row), default=0) for row in rows]
    return _Slots(values, ids, degrees, tuple(rows))


def _slot(width: int, degree: int) -> int:
    """The bits of a slot holding degree + 1 digits of width bits,
    rounded up to whole bytes."""
    return (width * (degree + 1) + 7) // 8 * 8


def _repeat(unit: int, step: int, slots: int) -> int:
    """unit in each of `slots` slots of `step` bytes."""
    return int.from_bytes(unit.to_bytes(step, "little") * slots, "little")


def _unit(width: int, degree: int) -> int:
    """half = 2^(width-1) in each of degree + 1 digits.  p(2^W), every
    coefficient of p in [-half, half) and its degree at most `degree`,
    is an unsigned int below 2^(W(degree + 1)) once biased by it."""
    return sum(1 << (width * d + width - 1) for d in range(degree + 1))


def _subtract(x: int, row: tuple, packed: Sequence[int], width: int) -> int:
    """x minus the sum over row's (k, terms) of p(2^W) * packed[k]: one
    shift-add per term.  Every solve and check here is this kernel."""
    for k, terms in row:
        v = packed[k]
        for e, c in terms:
            if c == 1:
                x -= v << width * e
            elif c == -1:
                x += v << width * e
            else:
                x -= c * (v << width * e)
    return x


def _solve(
    lower: Sequence[tuple], cols: Sequence[int], width: int, degrees: Sequence[int]
) -> _Slots | None:
    """The rows of x with m x = e, decoded at width, or None when an
    entry is out of range or past its row's degree bound.  lower[i]
    holds the strictly lower terms of m's unitriangular row i, as
    _factor splits them; row i of e is 1 at column cols[i]; degrees[i]
    bounds the degree of every entry of row i of x.

    Row i of x, packed with entry j at bit slot * j, is
    2^(slot * cols[i]) - sum over k < i of m[i][k](2^W) * (row k), and
    its slots reach no column past reach[i], the largest of cols[i] and
    the reaches of the rows it reads.
    """
    degree = max(degrees, default=0)
    slot = _slot(width, degree)
    packed: list[int] = []
    reach: list[int] = []
    for row, j in zip(lower, cols):
        packed.append(_subtract(1 << slot * j, row, packed, width))
        reach.append(max([j] + [reach[k] for k, _ in row]))
    # decode: bias every slot, check each row's digits above its degree
    # bound, cut each row's bytes into slots and unpack each distinct
    # slot once
    size = max(reach, default=0) + 1
    step = slot // 8
    unit = _unit(width, degree)
    bias = _repeat(unit, step, size)
    splits: dict[int, Callable[[bytes], tuple[bytes, ...]]] = {}
    # above[d] marks every bit of every slot past digit d.  There a
    # biased row whose entries have degree at most d, every coefficient
    # in range, reads what the bias holds: half in each digit up to D
    # and zero in the bytes' padding
    above: dict[int, int] = {}
    index = {unit.to_bytes(step, "little"): 0}
    values = [ZERO]
    ids = []
    rows = []
    for x, last, d in zip(packed, reach, degrees):
        b = bias >> slot * (size - 1 - last)
        x += b
        mask = above.get(d)
        if mask is None:
            mask = above[d] = _repeat((1 << slot) - (1 << width * (d + 1)), step, size)
        if (x ^ b) & mask:
            return None
        split = splits.get(last)
        if split is None:
            split = splits[last] = Struct("%ds" % step * (last + 1)).unpack
        try:
            chunks = split(x.to_bytes(step * (last + 1), "little"))
        except OverflowError:
            return None
        for chunk in set(chunks).difference(index):
            index[chunk] = len(values)
            values.append(unpack(int.from_bytes(chunk, "little") - unit, width))
        line = array("I", map(index.__getitem__, chunks))
        ids.append(line)
        rows.append(tuple(compress(zip(count(), map(values.__getitem__, line)), line)))
    return _Slots(values, ids, degrees, tuple(rows))


def _mismatch(a: _Factor, b: _Slots, cols: Sequence[int]) -> tuple[int, int] | None:
    """The first (i, j) in row-major order where a * b differs from e,
    whose row i is 1 at column cols[i], or None.

    b's rows are packed at their own layout.  The width holds a_max *
    max|coef(b)| + 1, which bounds every coefficient of a * b - e (a_max
    is the largest row 1-norm sum of a, and at least 1 so that b's own
    digits fit).  A slot holds D + 1 digits, D the largest of the
    b.degrees and, over the nonzeros a[i][k], of deg a[i][k] +
    b.degrees[k], which bounds the degree of every entry of b and of
    a * b - e (a row of b that no nonzero of a reads still has to fit
    its slots; for a unitriangular a the diagonal already covers it).
    So row i of a * b - e is zero exactly when its packed value is, and
    the lowest set bit of a nonzero one lies in its first nonzero slot.
    Each distinct entry of b is packed once, and each row is joined
    from their bytes.
    """
    coeffs = [p.coeffs for p in b.values if p]
    top = max(max(map(max, coeffs), default=0), -min(map(min, coeffs), default=0))
    width = packing_width(max(a.norm, 1) * top + 1)
    degree = max(
        max(b.degrees, default=0),
        max((terms[-1][0] + b.degrees[k] for row in a.rows for k, terms in row), default=0),
    )
    slot = _slot(width, degree)
    size = max(map(len, b.ids), default=0)
    step = slot // 8
    unit = _unit(width, degree)
    bias = _repeat(unit, step, size)
    table = [(pack(p, width) + unit).to_bytes(step, "little") for p in b.values]
    packed = [
        int.from_bytes(b"".join(map(table.__getitem__, line)), "little")
        - (bias >> slot * (size - len(line)))
        for line in b.ids
    ]
    for i, (row, j) in enumerate(zip(a.rows, cols)):
        x = _subtract(1 << slot * j, row, packed, width)
        if x:
            return i, ((x & -x).bit_length() - 1) // slot
    return None


def _triangular_solve(m: IncidenceMatrix, cols: Sequence[int], scale: int) -> tuple[Row, ...]:
    """The rows of x with m x = e, whose row i is 1 at column cols[i],
    for a lower-unitriangular m, certified by the product m x = e.  The
    trial width holds a_max * scale, a_max the largest row 1-norm sum
    of m."""
    for i, row in enumerate(m.rows):
        # rows are sorted, so this also rules out nonzeros above the diagonal
        if not row or row[-1] != (i, ONE):
            j = max(i, row[-1][0]) if row else i
            raise ValueError(
                "matrix is not unitriangular at row %s, column %s"
                % (m.basis[i].steps, m.basis[j].steps)
            )
    a = _factor(m.rows)
    lower = [row[:-1] for row in a.rows]
    # deg x[i][j] <= d[i], by induction down the rows
    d: list[int] = []
    for row in lower:
        d.append(max((terms[-1][0] + d[k] for k, terms in row), default=0))
    # a trial width, certified by the product check
    x = _solve(lower, cols, packing_width(a.norm * scale), d)
    if x is not None and _mismatch(a, x, cols) is None:
        return x.rows
    # |x[i][j]|_1 <= r[i] for every j, by induction down the rows
    r: list[int] = []
    for row in lower:
        r.append(1 + sum(abs(c) * r[k] for k, terms in row for _, c in terms))
    x = _solve(lower, cols, packing_width(max(r, default=1)), d)
    if x is None:
        raise AssertionError("an entry is out of range at the proven width")
    bad = _mismatch(a, x, cols)
    if bad is not None:
        raise AssertionError("product check failed at (%d, %d)" % bad)
    return x.rows


def invert(m: IncidenceMatrix) -> IncidenceMatrix:
    """Exact inverse of a lower-unitriangular matrix."""
    return IncidenceMatrix(m.basis, _triangular_solve(m, range(m.size), 1))


def row_sums(m: IncidenceMatrix) -> tuple[PolyQ, ...]:
    """The row sums of the inverse of a lower-unitriangular matrix, in
    basis order: the solution of m x = (1, ..., 1), found without the
    inverse."""
    return tuple(row[0][1] if row else ZERO for row in _triangular_solve(m, [0] * m.size, m.size))


def check_inverse(a: IncidenceMatrix, b: IncidenceMatrix) -> None:
    """Raise unless the product a * b is the identity matrix.

    Each row of b is packed into one int, entry j at bit S * j, at a
    width and slot size S taken from a and b themselves (the slots from
    the degrees of a's entries and of b's rows), so a wrong entry of b
    cannot vanish at q = 2**W or spill into its neighbour.
    Row i of a * b is then one shift-add per term of a's row i, and is
    compared with 2**(S * i); the first mismatch in row-major order is
    reported.
    """
    bad = _mismatch(_factor(a.rows), _slots(b.rows), range(a.size))
    if bad is not None:
        raise AssertionError("product check failed at (%d, %d)" % bad)
