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

Both the inversion and its check compute with each polynomial p
stored as the int p(2^W) (qpoly.pack), so every term of a sum of
products is one big-int multiply-add, exact for any W.  Only reading
a result back (qpoly.unpack) needs W large enough: every coefficient
must be smaller in magnitude than 2^(W-1).  Packing and unpacking are
functions of the value and the width alone, so each distinct entry is
packed once and each distinct packed int is decoded once per call;
the inverse's rows share the decoded objects.

Column j of the inverse is exact forward substitution, done by
scatter: M's strictly lower nonzeros are stored by column, and once
entry k of the column is final, M[i][k] * inv[k][j] is subtracted
from each entry i below it.  That is one multiply-add per nonzero
product actually formed (33,215 for kind I, sign 0 at n = 8), with no
visit to an entry that is still zero.

invert decodes first at a trial width, packing_width(a_max), where
a_max is the largest row 1-norm sum of M, and returns if
check_inverse's comparison passes.  The trial needs no proof: the check forms every
row of a * b from the nonzeros of both factors, at a width taken from
the decoded b itself, and compares the full product with the
identity, so a * b = I certifies b = a^-1 whatever width decoded it.
The trial width suffices for every matrix build makes through n = 11
(7 to 9 bits at n = 8 to 11, where the largest inverse coefficient
needs 4 to 7).
When it does not, invert substitutes again at a proven width:
r_i = 1 + sum over k < i of |M[i][k]|_1 * r_k bounds, by induction
down the rows, the 1-norm of every entry of row i of the inverse, so
W = bit_length(max r) + 1 decodes it (38 bits at n = 8, 95 at
n = 11); the check then runs again and raises if it fails.  The
check picks its own width: the largest row 1-norm sum of a times the
largest entry 1-norm of b bounds every coefficient of the product,
and one more covers its difference from the identity.  A width taken
from invert's bound would let a wrong entry that vanishes at q = 2^W,
such as q - 2^W, pass unseen.  Inverse entries only hold nonnegative
coefficients; that positivity is re-proved downstream by the tiling
bridge and asserted in the tests, not here.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Sequence

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


def _pack_rows(rows: Sequence[Row], width: int) -> list[list[tuple[int, int]]]:
    """rows with every entry packed at width, each distinct entry once."""
    packed = {p.coeffs: pack(p, width) for p in _distinct(rows)}
    return [[(k, packed[p.coeffs]) for k, p in row] for row in rows]


def _max_row_norm(rows: Sequence[Row]) -> int:
    """The largest 1-norm sum of a row's entries."""
    return max((sum(norm1(p) for _, p in row) for row in rows), default=0)


def _substitute(
    cols: Sequence[Sequence[tuple[int, PolyQ]]], width: int
) -> tuple[Row, ...]:
    """Rows of the inverse, by scatter, decoded at width.

    cols[k] holds the strictly lower nonzeros (i, M[i][k]) of column k.
    """
    size = len(cols)
    cols = _pack_rows(cols, width)
    rows: list[list[tuple[int, PolyQ]]] = [[] for _ in range(size)]
    decoded: dict[int, PolyQ] = {1: ONE}
    for j in range(size):
        # column j of the inverse, packed; entry k is final once the
        # columns of M before k have scattered into it
        x = [0] * size
        x[j] = 1
        for k in range(j, size):
            xk = x[k]
            if not xk:
                continue
            p = decoded.get(xk)
            if p is None:
                p = decoded[xk] = unpack(xk, width)
            rows[k].append((j, p))
            for i, mik in cols[k]:
                x[i] -= mik * xk
    return tuple(map(tuple, rows))


def invert(m: IncidenceMatrix) -> IncidenceMatrix:
    """Exact inverse of a lower-unitriangular matrix."""
    size = m.size
    cols: list[list[tuple[int, PolyQ]]] = [[] for _ in range(size)]
    for i, row in enumerate(m.rows):
        # rows are sorted, so this also rules out nonzeros above the diagonal
        if not row or row[-1] != (i, ONE):
            j = max(i, row[-1][0]) if row else i
            raise ValueError(
                "matrix is not unitriangular at row %s, column %s"
                % (m.basis[i].steps, m.basis[j].steps)
            )
        for k, p in row[:-1]:
            cols[k].append((i, p))
    # a trial width, certified by the product check
    a_max = _max_row_norm(m.rows)
    out = IncidenceMatrix(m.basis, _substitute(cols, packing_width(a_max)))
    if _product_mismatch(m, out, a_max) is None:
        return out
    # |inv[i][j]|_1 <= r[i] for every j, by induction down the rows
    r: list[int] = []
    for row in m.rows:
        r.append(1 + sum(norm1(p) * r[k] for k, p in row[:-1]))
    out = IncidenceMatrix(m.basis, _substitute(cols, packing_width(max(r, default=1))))
    check_inverse(m, out)
    return out


def _product_mismatch(
    a: IncidenceMatrix, b: IncidenceMatrix, a_max: int
) -> tuple[int, int] | None:
    """The first (i, j) in row-major order where a * b is not the
    identity, or None; a_max is the largest row 1-norm sum of a."""
    size = a.size
    distinct = _distinct(b.rows)
    width = packing_width(a_max * max(map(norm1, distinct), default=0) + 1)
    packed = {p.coeffs: pack(p, width) for p in distinct}
    b_rows = [[(k, packed[p.coeffs]) for k, p in row] for row in b.rows]
    for i, a_row in enumerate(_pack_rows(a.rows, width)):
        row = [0] * size
        for k, aik in a_row:
            for j, bkj in b_rows[k]:
                row[j] += aik * bkj
        row[i] -= 1
        if any(row):
            return i, next(j for j, x in enumerate(row) if x)
    return None


def check_inverse(a: IncidenceMatrix, b: IncidenceMatrix) -> None:
    """Raise unless the product a * b is the identity matrix.

    Row i of the product is accumulated, packed, from the nonzeros of
    a's row i and of b's matching rows, then all of its entries are
    compared with the identity; the first mismatch in row-major order
    is reported.  The packing width comes from a and b themselves, so
    a wrong entry of b cannot vanish at q = 2**W.
    """
    bad = _product_mismatch(a, b, _max_row_norm(a.rows))
    if bad is not None:
        raise AssertionError("product check failed at (%d, %d)" % bad)
