"""Polynomials in the formal variable q with integer coefficients.

Everything downstream (tiling generating functions, incidence matrices,
tree factorizations) lives in Z[q], and the identities we verify demand
exact arithmetic, canonical equality, and a notion of exact division
that fails loudly when a claimed quotient does not exist.  That contract
is small enough that a coefficient tuple beats pulling in a CAS.

A polynomial is represented by an immutable tuple of ints, where index i
holds the coefficient of q^i and trailing zeros are stripped, so the
zero polynomial is the empty tuple and equal values always compare equal.

The classical q-analogues provided here:

    q_int(n)                   [n] = 1 + q + ... + q^(n-1)
    q_factorial(n)             [n]! = [1][2]...[n]
    q_double_factorial_even(m) [2m]!! = [2][4]...[2m]
    q_binomial(n, m)           [n]! / ([n-m]! [m]!)
    q2_binomial(n, m)          [2n]!! / ([2(n-m)]!! [2m]!!)

Both binomials are computed numerator-first and divided exactly once,
so an inexact division raises instead of silently truncating.

pack(p, W) stores p as the single int p(2^W) (Kronecker substitution),
and unpack(x, W) reads it back.  A long sum of products, such as a
matrix product entry, is then one big-int multiply-add per term and one
PolyQ at the end.  The arithmetic on packed values is exact for any W;
only the decoding needs a width whose half, 2^(W-1), exceeds the
magnitude of every coefficient of the value packed.  Callers derive W
from a proven bound on their result, never from a constant, or take a
trial width whose decoded result an exact check then certifies (a
product or residual formed from the decoded values themselves, at a
width proven for them).  packing_width(B) is the least W for
coefficients of magnitude at most B, and norm1(p), the sum of the
absolute values of p's coefficients, is where such bounds start.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class InexactDivisionError(ArithmeticError):
    """Raised when a polynomial quotient does not exist in Z[q]."""


class PolyQ:
    """An element of Z[q], hashable and canonical."""

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(map(int, cs)))

    # -- basic structure ------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has -1."""
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> int:
        """Coefficient of q^i (zero when i is out of range)."""
        if i < 0:
            raise ValueError("exponents are nonnegative, got %d" % i)
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def is_nonnegative(self) -> bool:
        """True when every coefficient is >= 0."""
        return all(c >= 0 for c in self.coeffs)

    def eval_at_one(self) -> int:
        """Value at q = 1, i.e. the sum of the coefficients."""
        return sum(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PolyQ):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("PolyQ", self.coeffs))

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "PolyQ") -> "PolyQ":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return PolyQ(out)

    def __neg__(self) -> "PolyQ":
        return PolyQ(-c for c in self.coeffs)

    def __sub__(self, other: "PolyQ") -> "PolyQ":
        return self + (-other)

    def __mul__(self, other: "PolyQ") -> "PolyQ":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return PolyQ(out)

    def scale_by_monomial(self, c: int, k: int) -> "PolyQ":
        """Multiply by c * q^k."""
        if k < 0:
            raise ValueError("monomial exponent must be >= 0, got %d" % k)
        if c == 0 or not self.coeffs:
            return ZERO
        return PolyQ((0,) * k + tuple(c * a for a in self.coeffs))

    def subs_q_power(self, k: int) -> "PolyQ":
        """Substitute q -> q^k (k >= 1)."""
        if k < 1:
            raise ValueError("power must be >= 1, got %d" % k)
        out = [0] * (k * len(self.coeffs))
        for i, c in enumerate(self.coeffs):
            out[k * i] = c
        return PolyQ(out)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {"coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, data: dict) -> "PolyQ":
        return cls(data["coeffs"])

    def render(self, power: str = "q^%d", sep: str = " ") -> str:
        """Terms in ascending powers of q.  power formats the exponents
        from 2 on and sep surrounds the sign between terms: str() gives
        1 - q^2, render("q^{%d}", sep="") the LaTeX form 1-q^{2}."""
        if not self.coeffs:
            return "0"
        out = ""
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                var = "q" if i == 1 else power % i
                term = var if mag == 1 else "%d%s" % (mag, var)
            if not out:
                out = term if c > 0 else "-" + term
            else:
                out += sep + ("+" if c > 0 else "-") + sep + term
        return out

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return "PolyQ(%r)" % (self.coeffs,)


ZERO = PolyQ()
ONE = PolyQ((1,))
Q = PolyQ((0, 1))


def exact_div(num: PolyQ, den: PolyQ) -> PolyQ:
    """Exact quotient num / den in Z[q].

    Raises InexactDivisionError when den does not divide num (nonzero
    remainder, or a leading-coefficient division that leaves Z).

    The quotient is first tried packed: num and den are packed at
    W = bit_length(max(|num|_1, |den|_1)) + 1, so 2^(W-1) exceeds every
    coefficient of num, and the ints are divided once.  The decoded
    quotient q is accepted only when the remainder is 0 and
    |q|_1 * max|den| < 2^(W-1): then every coefficient of q * den lies
    below 2^(W-1) too, and q * den and num, which pack to the same int,
    are the same polynomial.  Anything else, an inexact division
    included, goes to long division, which decides it.
    """
    if not den:
        raise ValueError("division by the zero polynomial")
    if not num:
        return ZERO
    width = packing_width(max(norm1(num), norm1(den)))
    quot, rem = divmod(pack(num, width), pack(den, width))
    if not rem:
        q = unpack(quot, width)
        if norm1(q) * max(map(abs, den.coeffs)) < 1 << (width - 1):
            return q
    return _long_division(num, den)


def _long_division(num: PolyQ, den: PolyQ) -> PolyQ:
    """exact_div by schoolbook long division, for nonzero num and den."""
    rem = list(num.coeffs)
    d = list(den.coeffs)
    lead = d[-1]
    if len(rem) < len(d):
        raise InexactDivisionError("%s does not divide %s" % (den, num))
    out = [0] * (len(rem) - len(d) + 1)
    for shift in range(len(out) - 1, -1, -1):
        c = rem[shift + len(d) - 1]
        if c % lead != 0:
            raise InexactDivisionError("%s does not divide %s" % (den, num))
        f = c // lead
        out[shift] = f
        if f:
            for j, dj in enumerate(d):
                rem[shift + j] -= f * dj
    if any(rem):
        raise InexactDivisionError("%s does not divide %s" % (den, num))
    return PolyQ(out)


def norm1(p: PolyQ) -> int:
    """|p|_1, the sum of the absolute values of p's coefficients."""
    return sum(map(abs, p.coeffs))


def packing_width(bound: int) -> int:
    """The least packing width whose half, 2**(width-1), exceeds bound."""
    return bound.bit_length() + 1


def pack(p: PolyQ, width: int) -> int:
    """p evaluated at q = 2**width, an exact int.

    Packing is a ring homomorphism Z[q] -> Z for every width, so sums
    and products of packed values are the packed sums and products.
    """
    return sum(c << (width * i) for i, c in enumerate(p.coeffs) if c)


def unpack(x: int, width: int) -> PolyQ:
    """The polynomial p with pack(p, width) == x.

    The digits are balanced: each coefficient is read from its
    width-bit digit into [-2**(width-1), 2**(width-1)), so p is right
    whenever every coefficient of the true value lies in that range.
    The width is at least two: one-bit balanced digits are -1 and 0, so
    a positive x would never be used up.
    """
    if width < 2:
        raise ValueError("width must be >= 2, got %d" % width)
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    out = []
    while x:
        c = x & mask
        if c >= half:
            # a negative digit borrows one from the digits above it
            c -= mask + 1
            x = (x >> width) + 1
        else:
            x >>= width
        out.append(c)
    return PolyQ(out)


def prod(factors: Iterable[PolyQ]) -> PolyQ:
    """Product of a sequence of polynomials (empty product is 1).

    Every factor is packed at W = bit_length(prod |f|_1) + 1 and the
    ints are multiplied once.  No coefficient of the product exceeds
    prod |f|_1 < 2^(W-1) in absolute value, so one unpack at W is exact
    for factors of any sign.
    """
    fs = list(factors)
    if not fs:
        return ONE
    if len(fs) == 1:
        return fs[0]
    bound = 1
    for f in fs:
        bound *= norm1(f)
    if not bound:
        return ZERO
    width = packing_width(bound)
    x = 1
    for f in fs:
        x *= pack(f, width)
    return unpack(x, width)


def q_int(n: int) -> PolyQ:
    """The q-integer [n] = 1 + q + ... + q^(n-1); [0] = 0."""
    if n < 0:
        raise ValueError("q_int needs n >= 0, got %d" % n)
    return PolyQ((1,) * n)


def q_factorial(n: int) -> PolyQ:
    """[n]! = [1][2]...[n], with [0]! = 1."""
    if n < 0:
        raise ValueError("q_factorial needs n >= 0, got %d" % n)
    return prod(q_int(i) for i in range(1, n + 1))


def q_double_factorial_even(m: int) -> PolyQ:
    """[2m]!! = [2][4]...[2m], with [0]!! = 1."""
    if m < 0:
        raise ValueError("q_double_factorial_even needs m >= 0, got %d" % m)
    return prod(q_int(2 * i) for i in range(1, m + 1))


def q_binomial(n: int, m: int) -> PolyQ:
    """Gaussian binomial [n choose m]_q, zero when m > n.

    Built by the q-Pascal rule [r choose j] = [r-1 choose j-1]
    + q^j [r-1 choose j], row by row up to n, with j up to
    min(m, n - m) (the two give the same polynomial); no q-factorial is
    formed or divided.
    """
    if n < 0 or m < 0:
        raise ValueError("q_binomial needs n, m >= 0")
    if m > n:
        return ZERO
    k = min(m, n - m)
    row = [[1]]  # row[j]: the coefficients of [r choose j], of degree j(r - j)
    for r in range(1, n + 1):
        nxt = [[1]]
        for j in range(1, min(r, k) + 1):
            c = row[j - 1] + [0] * (j * (r - j) + 1 - len(row[j - 1]))
            if j < r:
                for i, a in enumerate(row[j], start=j):
                    c[i] += a
            nxt.append(c)
        row = nxt
    return PolyQ(row[k])


def q2_binomial(n: int, m: int) -> PolyQ:
    """Even-double-factorial binomial [2n]!! / ([2(n-m)]!! [2m]!!):
    q_binomial(n, m) with q replaced by q^2."""
    if n < 0 or m < 0:
        raise ValueError("q2_binomial needs n, m >= 0")
    return q_binomial(n, m).subs_q_power(2)
