"""Signed incidence matrices on a fixed-sign word basis, and their inverses.

Fix a length n and a sign epsilon.  Entry (lam, mu) of the matrix is
the flip weight of the unique arc subset S of mu with flip(mu, S) =
lam, and zero when no subset works.  Kind "I" uses the size-sensitive
weight, kind "II" the size-blind one.  Both matrices are
lower-unitriangular in the basis order of enumerate_type_d (highest
word first), because flips only move words downward.

The uniqueness of S is an assumption the definition leans on; build()
checks it exhaustively while filling each column (arc sets are small,
at most L/2 arcs).

The matrices are sparse (about 7% of the entries are nonzero at
n = 8), and inversion touches only nonzeros.  The nonzeros of each
row of M are read from `entries` once, as (column, entry) pairs.
Column j of the inverse is exact forward substitution: entry i is
minus the sum of M[i][k] * inv[k][j] over the k where row i of M and
the finished part of the column, kept as a {row: PolyQ} dict, are
both nonzero.  Each sum accumulates in one coefficient list
(qpoly.add_product) and becomes a PolyQ once, when it is finished.
That costs about size * nnz(M) coefficient passes.  invert then runs
check_inverse, which forms every row of M * Minv the same way, from
the nonzeros of both factors, and compares the full product with the
identity.  Inverse entries only hold nonnegative coefficients; that
positivity is re-proved downstream by the tiling bridge and asserted
in the tests, not here.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass
from functools import cached_property

from .linkflip import pair_arcs, flip, weight_I, weight_II
from .pathword import PathWord, enumerate_type_d
from .qpoly import ONE, ZERO, PolyQ, add_product


@dataclass(frozen=True)
class IncidenceMatrix:
    basis: tuple[PathWord, ...]
    entries: tuple[tuple[PolyQ, ...], ...]  # entries[row][col]

    @cached_property
    def _index(self) -> dict[str, int]:
        return {w.steps: k for k, w in enumerate(self.basis)}

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
        return self.entries[i][j]

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "basis": [w.steps for w in self.basis],
            "entries": [[p.to_json() for p in row] for row in self.entries],
        }

    @classmethod
    def from_json(cls, data: dict) -> "IncidenceMatrix":
        basis = tuple(PathWord(s) for s in data["basis"])
        entries = tuple(
            tuple(PolyQ.from_json(p) for p in row) for row in data["entries"]
        )
        return cls(basis, entries)

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


def build(n: int, epsilon: int, kind: str) -> IncidenceMatrix:
    """The incidence matrix of the length-n sign-epsilon basis."""
    if kind not in ("I", "II"):
        raise ValueError("kind must be 'I' or 'II', got %r" % (kind,))
    weigh = weight_I if kind == "I" else weight_II
    basis = tuple(enumerate_type_d(n, epsilon))
    index = {w.steps: k for k, w in enumerate(basis)}
    size = len(basis)
    grid: list[list[PolyQ]] = [[ZERO] * size for _ in range(size)]
    for j, mu in enumerate(basis):
        arcs = pair_arcs(mu).all_arcs()
        for k in range(len(arcs) + 1):
            for S in itertools.combinations(arcs, k):
                lam = flip(mu, S)
                i = index[lam.steps]  # flips preserve the sign
                if grid[i][j]:
                    raise AssertionError(
                        "two flip subsets of %s give %s" % (mu.steps, lam.steps)
                    )
                grid[i][j] = weigh(mu, S)
    return IncidenceMatrix(basis, tuple(tuple(row) for row in grid))


def _sparse_rows(m: IncidenceMatrix) -> list[list[tuple[int, PolyQ]]]:
    """The nonzeros of each row of m as (column, entry) pairs."""
    return [[(k, p) for k, p in enumerate(row) if p] for row in m.entries]


def invert(m: IncidenceMatrix) -> IncidenceMatrix:
    """Exact inverse of a lower-unitriangular matrix."""
    size = m.size
    for k in range(size):
        if m.entries[k][k] != ONE:
            raise ValueError("matrix is not unitriangular at %s" % m.basis[k].steps)
    rows = _sparse_rows(m)
    inv: list[list[PolyQ]] = [[ZERO] * size for _ in range(size)]
    for j in range(size):
        # column j of the inverse, nonzeros only; the rows k in [j, i)
        # are final by the time row i reads them
        col = {j: ONE}
        for i in range(j + 1, size):
            buf: list[int] = []
            for k, mik in rows[i]:
                ckj = col.get(k)
                if ckj is not None:
                    add_product(buf, mik, ckj)
            if any(buf):
                col[i] = PolyQ([-c for c in buf])
        for i, p in col.items():
            inv[i][j] = p
    out = IncidenceMatrix(m.basis, tuple(tuple(row) for row in inv))
    check_inverse(m, out)
    return out


def check_inverse(a: IncidenceMatrix, b: IncidenceMatrix) -> None:
    """Raise unless the product a * b is the identity matrix.

    Row i of the product is accumulated from the nonzeros of a's row i
    and of b's matching rows, then all of its entries are compared with
    the identity; the first mismatch in row-major order is reported.
    """
    size = a.size
    b_rows = _sparse_rows(b)
    for i, a_row in enumerate(_sparse_rows(a)):
        row: dict[int, list[int]] = {}
        for k, aik in a_row:
            for j, bkj in b_rows[k]:
                add_product(row.setdefault(j, []), aik, bkj)
        for j in range(size):
            got = row.get(j, ())
            if i == j:
                ok = bool(got) and got[0] == 1 and not any(got[1:])
            else:
                ok = not any(got)
            if not ok:
                raise AssertionError("product check failed at (%d, %d)" % (i, j))
