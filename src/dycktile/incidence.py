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
n = 8), and inversion touches only nonzeros.  Both the inversion and
its check compute with each polynomial p stored as the int p(2^W)
(qpoly.pack), so every term of a sum of products is one big-int
multiply-add, exact for any W.  Only reading a result back
(qpoly.unpack) needs W large enough: every coefficient must be
smaller in magnitude than 2^(W-1).

Column j of the inverse is exact forward substitution: entry i is
minus the sum of M[i][k] * inv[k][j] over the k below the diagonal
where row i of M and the finished part of the column are both
nonzero.  That costs about size * nnz(M) multiply-adds.  invert's
width comes from r_i = 1 + sum over those k of |M[i][k]|_1 * r_k, one
pass over M: by induction down the rows, every entry of row i of the
inverse has 1-norm at most r_i, so W = bit_length(max r) + 1 decodes
it.  invert then runs check_inverse, which forms every row of
a * b from the nonzeros of both factors and compares the full product
with the identity.  The check picks its own width: the largest row
1-norm sum of a times the largest entry 1-norm of b bounds every
coefficient of the product, and one more covers its difference from
the identity.  A width taken from
invert's bound would let a wrong entry that vanishes at q = 2^W, such
as q - 2^W, pass unseen.  Inverse entries only hold nonnegative
coefficients; that positivity is re-proved downstream by the tiling
bridge and asserted in the tests, not here.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass
from functools import cached_property

from .linkflip import pair_arcs, flip, weight_I, weight_II
from .pathword import PathWord, enumerate_type_d
from .qpoly import ONE, ZERO, PolyQ, pack, unpack


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
    return [[(k, p) for k, p in enumerate(row) if p.coeffs] for row in m.entries]


def _norm1(p: PolyQ) -> int:
    return sum(map(abs, p.coeffs))


def _width(bound: int) -> int:
    """A packing width whose half, 2**(width-1), exceeds bound."""
    return bound.bit_length() + 1


def invert(m: IncidenceMatrix) -> IncidenceMatrix:
    """Exact inverse of a lower-unitriangular matrix."""
    size = m.size
    for k in range(size):
        if m.entries[k][k] != ONE:
            raise ValueError("matrix is not unitriangular at %s" % m.basis[k].steps)
    lower = [[(k, p) for k, p in row if k < i] for i, row in enumerate(_sparse_rows(m))]
    # |inv[i][j]|_1 <= r[i] for every j, by induction down the rows
    r: list[int] = []
    for row in lower:
        r.append(1 + sum(_norm1(p) * r[k] for k, p in row))
    width = _width(max(r, default=1))
    lower = [[(k, pack(p, width)) for k, p in row] for row in lower]
    inv: list[list[PolyQ]] = [[ZERO] * size for _ in range(size)]
    for j in range(size):
        # column j of the inverse, packed; the rows k in [j, i) are
        # final by the time row i reads them
        col = [0] * size
        col[j] = 1
        inv[j][j] = ONE
        for i in range(j + 1, size):
            acc = 0
            for k, mik in lower[i]:
                ckj = col[k]
                if ckj:
                    acc += mik * ckj
            if acc:
                col[i] = -acc
                inv[i][j] = unpack(col[i], width)
    out = IncidenceMatrix(m.basis, tuple(tuple(row) for row in inv))
    check_inverse(m, out)
    return out


def check_inverse(a: IncidenceMatrix, b: IncidenceMatrix) -> None:
    """Raise unless the product a * b is the identity matrix.

    Row i of the product is accumulated, packed, from the nonzeros of
    a's row i and of b's matching rows, then all of its entries are
    compared with the identity; the first mismatch in row-major order
    is reported.  The packing width comes from a and b themselves, so
    a wrong entry of b cannot vanish at q = 2**W.
    """
    size = a.size
    a_rows = _sparse_rows(a)
    a_max = max((sum(_norm1(p) for _, p in row) for row in a_rows), default=0)
    b_max = max((_norm1(p) for row in b.entries for p in row), default=0)
    width = _width(a_max * b_max + 1)
    b_rows = [
        [(j, pack(p, width)) for j, p in enumerate(row) if p.coeffs] for row in b.entries
    ]
    for i, a_row in enumerate(a_rows):
        row = [0] * size
        for k, aik in a_row:
            aik = pack(aik, width)
            for j, bkj in b_rows[k]:
                row[j] += aik * bkj
        row[i] -= 1
        for j, x in enumerate(row):
            if x:
                raise AssertionError("product check failed at (%d, %d)" % (i, j))
