import json

import pytest
from hypothesis import given, strategies as st

from dycktile import qpoly
from dycktile.qpoly import (
    ONE,
    Q,
    ZERO,
    InexactDivisionError,
    PolyQ,
    exact_div,
    pack,
    packing_width,
    prod,
    q2_binomial,
    q_binomial,
    q_double_factorial_even,
    q_factorial,
    q_int,
    unpack,
)


def test_canonical_form():
    assert PolyQ((1, 0, 0)).coeffs == (1,)
    assert PolyQ((0, 0)).coeffs == ()
    assert PolyQ() == ZERO
    assert PolyQ((1,)) == ONE
    assert PolyQ((0, 1)) == Q
    assert not ZERO
    assert ONE
    assert PolyQ((3,)) == 3
    assert ZERO == 0


def test_q_int_values():
    assert q_int(0) == ZERO
    assert q_int(1) == ONE
    assert q_int(4) == PolyQ((1, 1, 1, 1))


def test_q_factorial_values():
    assert q_factorial(0) == ONE
    # [3]! = (1+q)(1+q+q^2) = 1 + 2q + 2q^2 + q^3
    assert q_factorial(3) == PolyQ((1, 2, 2, 1))


def test_q_double_factorial_values():
    assert q_double_factorial_even(0) == ONE
    # [4]!! = [2][4]
    assert q_double_factorial_even(2) == q_int(2) * q_int(4)
    assert q_double_factorial_even(2) == PolyQ((1, 2, 2, 2, 1))


def test_q_binomial_values():
    assert q_binomial(4, 2) == PolyQ((1, 1, 2, 1, 1))
    assert q_binomial(5, 0) == ONE
    assert q_binomial(3, 5) == ZERO


def test_q2_binomial_values():
    # [4]!!/([2]!![2]!!) = [4]/[2] = 1 + q^2
    assert q2_binomial(2, 1) == PolyQ((1, 0, 1))


def test_exact_div():
    assert exact_div(q_int(6), q_int(2)) == PolyQ((1, 0, 1, 0, 1))
    # |num|_1 is num's coefficient, and the quotient reaches |den|_1
    assert exact_div(PolyQ((0, 64)), PolyQ((0, 8))) == PolyQ((8,))
    assert exact_div(PolyQ((0, 0, -64)), PolyQ((0, 8))) == PolyQ((0, -8))
    refusal = r"^1 \+ q does not divide 1 \+ q \+ q\^2 \+ q\^3 \+ q\^4$"
    with pytest.raises(InexactDivisionError, match=refusal):
        exact_div(q_int(5), q_int(2))
    with pytest.raises(InexactDivisionError, match=r"^2 does not divide 1 \+ q$"):
        exact_div(PolyQ((1, 1)), PolyQ((2,)))
    with pytest.raises(ValueError):
        exact_div(ONE, ZERO)


def test_scale_by_monomial():
    assert q_int(2).scale_by_monomial(-1, 3) == PolyQ((0, 0, 0, -1, -1))
    assert ONE.scale_by_monomial(0, 5) == ZERO


def test_str_forms():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(Q) == "q"
    assert str(PolyQ((1, 2, 0, 1))) == "1 + 2q + q^3"
    assert str(PolyQ((0, -1, 3))) == "-q + 3q^2"
    assert str(PolyQ((1, 0, -2))) == "1 - 2q^2"
    assert str(PolyQ((-1, 0, 2) + (0,) * 8 + (-3,))) == "-1 + 2q^2 - 3q^11"


def test_json_round_trip():
    p = PolyQ((1, 0, 2, 5))
    blob = json.dumps(p.to_json())
    assert PolyQ.from_json(json.loads(blob)) == p


@st.composite
def packable(draw):
    """A width W and a polynomial whose coefficients reach 2^(W-1) - 1."""
    width = draw(st.integers(2, 80))
    top = (1 << (width - 1)) - 1
    coeffs = draw(st.lists(st.integers(-top, top), max_size=8))
    return width, PolyQ(coeffs)


@given(packable())
def test_unpack_inverts_pack(case):
    width, p = case
    assert pack(p, width) == sum(c * 2 ** (width * i) for i, c in enumerate(p.coeffs))
    assert unpack(pack(p, width), width) == p


@pytest.mark.parametrize("width", [2, 8, 38, 64])
def test_pack_extremes(width):
    top = (1 << (width - 1)) - 1
    for p in (
        PolyQ((top, -top, top)),
        PolyQ((-top, 0, 0, top)),
        PolyQ((0, -top)),
        PolyQ((-top,) * 5),
    ):
        assert unpack(pack(p, width), width) == p
    assert pack(ZERO, width) == 0 and unpack(0, width) == ZERO
    # one past the bound reads back as another polynomial with the
    # same value at 2^W: top + 1 becomes -(top + 1) + q
    past = PolyQ((top + 1,))
    assert unpack(pack(past, width), width) == PolyQ((-(top + 1), 1))
    with pytest.raises(ValueError):
        unpack(1, 0)


def test_unpack_refuses_one_bit_digits():
    # one-bit balanced digits are -1 and 0, so unpack(1, 1) would never
    # finish; no bound of 1 or more asks for that width
    with pytest.raises(ValueError):
        unpack(1, 1)
    for bound in (1, 2, 3, 4, 7, 8, 2**40):
        width = packing_width(bound)
        assert width >= 2 and 1 << (width - 1) > bound >= 1 << (width - 2)


small_polys = st.lists(st.integers(-9, 9), max_size=6).map(PolyQ)
wide_polys = st.lists(st.integers(-300, 300), max_size=9).map(PolyQ)


@given(st.lists(st.tuples(small_polys, small_polys), max_size=5), small_polys)
def test_packed_sums_of_products(pairs, start):
    # every coefficient of the sum is at most 5 * 6 * 81 + 9 < 2^12
    width = 13
    x = pack(start, width)
    want = start
    for a, b in pairs:
        x += pack(a, width) * pack(b, width)
        want = want + a * b
    assert unpack(x, width) == want


@given(wide_polys, small_polys)
def test_mul_then_divide_round_trips(a, b):
    if not b:
        return
    assert exact_div(a * b, b) == a
    if a:
        assert qpoly._long_division(a * b, b) == a


def _outcome(num, den, divide):
    try:
        return divide(num, den)
    except InexactDivisionError as err:
        return str(err)


@given(wide_polys, small_polys)
def test_exact_div_refuses_like_long_division(num, den):
    if num and den:
        assert _outcome(num, den, exact_div) == _outcome(num, den, qpoly._long_division)


def test_exact_div_falls_back_when_the_certificate_fails(monkeypatch):
    # at W = 3 the packed remainder is 0, but |q|_1 * max|den| = 5 >= 4
    calls = []
    long_division = qpoly._long_division

    def spy(num, den):
        calls.append((num, den))
        return long_division(num, den)

    monkeypatch.setattr(qpoly, "_long_division", spy)
    num, den = PolyQ((1, 0, 0, 0, 0, 1)), PolyQ((1, 1))
    assert exact_div(num, den) == PolyQ((1, -1, 1, -1, 1))
    assert calls == [(num, den)]
    calls.clear()
    assert exact_div(q_int(6), q_int(2)) == PolyQ((1, 0, 1, 0, 1))
    assert calls == []


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + b == b + a
    assert (a - b) + b == a


@given(st.integers(0, 8), st.integers(0, 8))
def test_q_binomial_symmetry_and_value_at_one(n, m):
    if m > n:
        return
    assert q_binomial(n, m) == q_binomial(n, n - m)
    import math

    assert q_binomial(n, m).eval_at_one() == math.comb(n, m)


@given(st.integers(1, 7), st.integers(1, 6))
def test_q_binomial_pascal(n, m):
    if m > n - 1:
        return
    expected = q_binomial(n - 1, m - 1) + q_binomial(n - 1, m).scale_by_monomial(1, m)
    assert q_binomial(n, m) == expected


@given(st.integers(0, 6), st.integers(0, 6))
def test_q2_binomial_is_binomial_in_q_squared(n, m):
    assert q2_binomial(n, m) == q_binomial(n, m).subs_q_power(2)


def test_binomials_equal_their_factorial_quotients():
    # Both binomials are built by the q-Pascal rule; their definitions
    # are quotients of q-factorials and of even double factorials.
    evens = q_double_factorial_even
    for n in range(13):
        assert q_binomial(n, n + 1) == q2_binomial(n, n + 1) == ZERO
        for m in range(n + 1):
            want = exact_div(q_factorial(n), q_factorial(m) * q_factorial(n - m))
            assert q_binomial(n, m) == want, (n, m)
            assert q2_binomial(n, m) == exact_div(evens(n), evens(m) * evens(n - m)), (n, m)


def _left_fold(fs):
    acc = ONE
    for f in fs:
        acc = acc * f
    return acc


@given(st.lists(wide_polys, max_size=7))
def test_prod_matches_reduce(fs):
    assert prod(fs) == _left_fold(fs)
    assert prod(iter(fs)) == _left_fold(fs)


def test_packed_prod_edge_cases():
    assert prod([]) == ONE
    assert prod([q_int(3), ZERO, PolyQ((-2, 5))]) == ZERO
    assert prod([PolyQ((-1, 1))] * 9) == _left_fold([PolyQ((-1, 1))] * 9)
    # for monomials the bound prod |f|_1 is the product's coefficient
    assert prod([PolyQ((0, 3)), PolyQ((-5,)), PolyQ((0, 0, 7))]) == PolyQ((0, 0, 0, -105))
    assert prod([PolyQ((0, 8)), PolyQ((8,))]) == PolyQ((0, 64))

