import json

import pytest
from hypothesis import given, strategies as st

from dycktile.qpoly import (
    ONE,
    Q,
    ZERO,
    InexactDivisionError,
    PolyQ,
    add_product,
    exact_div,
    prod,
    q2_binomial,
    q_binomial,
    q_double_factorial_even,
    q_factorial,
    q_int,
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
    with pytest.raises(InexactDivisionError):
        exact_div(q_int(5), q_int(2))
    with pytest.raises(InexactDivisionError):
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


def test_add_product_matches_mul_and_add():
    a = PolyQ((0, -2, 0, 3))  # negative and zero coefficients
    b = PolyQ((-1, 4))
    buf = []  # shorter than the product
    add_product(buf, a, b)
    assert buf == [0, 2, -8, -3, 12]
    assert PolyQ(buf) == a * b
    buf = [5]  # grows past its length, keeps what it held
    add_product(buf, a, b)
    assert PolyQ(buf) == PolyQ((5,)) + a * b
    buf = [1, 1, 1, 1, 1, 1, 1, 1]  # longer than the product
    add_product(buf, Q, b)
    assert buf == [1, 0, 5, 1, 1, 1, 1, 1]
    buf = [7]
    add_product(buf, ZERO, b)
    add_product(buf, a, ZERO)
    assert buf == [7]
    buf = []
    for x, y in ((a, b), (b, b), (-a, b), (Q, ONE)):
        add_product(buf, x, y)
    assert PolyQ(buf) == a * b + b * b + (-a) * b + Q
    assert PolyQ(buf) == b * b + Q


small_polys = st.lists(st.integers(-9, 9), max_size=6).map(PolyQ)


@given(st.lists(st.tuples(small_polys, small_polys), max_size=5), small_polys)
def test_add_product_sums_products(pairs, start):
    buf = list(start.coeffs)
    want = start
    for a, b in pairs:
        add_product(buf, a, b)
        want = want + a * b
    assert PolyQ(buf) == want


@given(small_polys, small_polys)
def test_mul_then_divide_round_trips(a, b):
    if not b:
        return
    assert exact_div(a * b, b) == a


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


@given(st.lists(small_polys, max_size=4))
def test_prod_matches_reduce(fs):
    acc = ONE
    for f in fs:
        acc = acc * f
    assert prod(fs) == acc
