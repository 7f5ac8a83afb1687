import pytest
from hypothesis import given, strategies as st

from dycktile.pathword import (
    PathWord,
    all_words,
    classify,
    dyck_words,
    enumerate_type_d,
    is_above,
    truncate_last,
)

words = st.text(alphabet="UD", max_size=10).map(PathWord)


def test_validation():
    with pytest.raises(ValueError):
        PathWord("UDX")
    assert PathWord("").length == 0


def test_heights():
    assert PathWord("UUDD").heights == (0, 1, 2, 1, 0)
    assert PathWord("DDDU").heights == (0, -1, -2, -3, -2)
    assert PathWord("").heights == (0,)


def test_classify_examples():
    c = classify(PathWord("UUDD"))
    assert c.is_dyck and c.is_ballot and c.epsilon == 0
    assert classify(PathWord("UUUU")).epsilon == 0
    assert not classify(PathWord("UUUU")).is_dyck
    c = classify(PathWord("DDDU"))
    assert c.epsilon == 1 and c.end_height == -2 and not c.is_ballot
    c = classify(PathWord("UUDU"))
    assert c.is_ballot and not c.is_dyck
    assert classify(PathWord("")).is_dyck


def test_is_above():
    assert is_above(PathWord("UUDD"), PathWord("UDUD"))
    assert not is_above(PathWord("UDUD"), PathWord("UUDD"))
    assert is_above(PathWord("UUUU"), PathWord("DDUU"))
    with pytest.raises(ValueError):
        is_above(PathWord("UD"), PathWord("U"))


def test_basis_order_matches_printed_example():
    got = [w.steps for w in enumerate_type_d(4, 0)]
    assert got == ["UUUU", "UUDD", "UDUD", "UDDU", "DUUD", "DUDU", "DDUU", "DDDD"]


def test_basis_eps1_size_and_endpoints():
    basis = enumerate_type_d(4, 1)
    assert len(basis) == 8
    assert all(abs(w.end_height) == 2 for w in basis)
    assert [w.steps for w in enumerate_type_d(1, 0)] == ["U"]


@pytest.mark.parametrize("n", range(1, 11))
def test_signs_partition_all_words(n):
    e0 = enumerate_type_d(n, 0)
    e1 = enumerate_type_d(n, 1)
    assert len(e0) + len(e1) == 2**n
    assert set(w.steps for w in e0).isdisjoint(w.steps for w in e1)


@pytest.mark.parametrize("eps", [0, 1])
@pytest.mark.parametrize("n", range(1, 13))
def test_basis_is_the_sign_filter_of_all_words(n, eps):
    # the sign read from the letter count is the one read from heights
    assert enumerate_type_d(n, eps) == [w for w in all_words(n) if w.epsilon == eps]


def test_truncate_last():
    assert truncate_last(PathWord("DDDD")) == PathWord("DDD")
    assert truncate_last(PathWord("DUUDUU")) == PathWord("DUUDU")
    assert truncate_last(PathWord("U")) == PathWord("")
    with pytest.raises(ValueError):
        truncate_last(PathWord(""))


@given(words, words, words)
def test_is_above_is_a_partial_order(a, b, c):
    if not (a.length == b.length == c.length):
        return
    assert is_above(a, a)
    if is_above(a, b) and is_above(b, a):
        assert a == b
    if is_above(a, b) and is_above(b, c):
        assert is_above(a, c)


@given(words)
def test_epsilon_parity_relation(w):
    assert (w.end_height - w.length) % 2 == 0
    assert w.end_height % 4 == (w.length + 2 * w.epsilon) % 4


def test_all_words_count():
    assert len(list(all_words(6))) == 64
    assert len(dyck_words(6)) == 5


def test_hash_and_equality_follow_the_steps():
    # Words are dict keys throughout the sums, so a word equals and
    # hashes as any other word with its steps, and never as a string.
    for n in range(7):
        for w in all_words(n):
            twin = PathWord(w.steps)
            assert twin is not w and twin == w and hash(twin) == hash(w)
            assert not twin != w
            assert w != w.steps and w.steps != w
            assert {w: 1}[twin] == 1
    assert PathWord("UD") != "UD"
    assert PathWord("UD") != PathWord("DU")
    assert len({PathWord("UD"), PathWord("UD"), PathWord("DU")}) == 2


def test_cached_epsilon_is_the_sign_formula():
    # epsilon is computed once per word; it must be the sign with
    # end height = length + 2 epsilon (mod 4), for every word through
    # length 10.
    for n in range(11):
        for w in all_words(n):
            h = w.steps.count("U") - w.steps.count("D")
            (want,) = [e for e in (0, 1) if (n + 2 * e - h) % 4 == 0]
            assert w.epsilon == want, w.steps
            assert vars(w)["epsilon"] == want and w.epsilon == want, w.steps
