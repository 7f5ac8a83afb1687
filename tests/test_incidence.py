import itertools
import json

import pytest

from dycktile import incidence
from dycktile.incidence import IncidenceMatrix, build, check_inverse, invert
from dycktile import linkflip
from dycktile.linkflip import flip, pair_arcs, weight_I, weight_II
from dycktile.pathword import PathWord, enumerate_type_d, is_above
from dycktile.qpoly import ONE, Q, ZERO, PolyQ

from dycktile.golden import BASIS_4_0, M_4_0, M_INV_4_0, N_4_0, N_INV_4_0


def assert_matches_golden(m, rows):
    assert [w.steps for w in m.basis] == BASIS_4_0
    for i in range(8):
        for j in range(8):
            assert m.entries[i][j] == rows[i][j], (
                "mismatch at row %s col %s" % (BASIS_4_0[i], BASIS_4_0[j])
            )


def test_golden_m():
    assert_matches_golden(build(4, 0, "I"), M_4_0)


def test_golden_n():
    assert_matches_golden(build(4, 0, "II"), N_4_0)


def test_golden_m_inverse():
    assert_matches_golden(invert(build(4, 0, "I")), M_INV_4_0)


def test_golden_n_inverse():
    assert_matches_golden(invert(build(4, 0, "II")), N_INV_4_0)


def test_entry_lookup():
    m = invert(build(4, 0, "I"))
    p = m.entry(PathWord("DDUU"), PathWord("UUUU"))
    assert p.coeffs == (0, 0, 0, 1, 0, 1)  # q^3 + q^5
    n = invert(build(4, 0, "II"))
    assert n.entry(PathWord("DUDU"), PathWord("UUUU")).coeffs == (0, 0, 1, 0, 1)
    with pytest.raises(ValueError):
        m.entry(PathWord("UUU"), PathWord("UUUU"))


def test_one_by_one():
    m = build(1, 0, "I")
    assert [w.steps for w in m.basis] == ["U"]
    assert m.entries == ((ONE,),)
    assert invert(m).entries == ((ONE,),)


def test_invert_identity_and_errors():
    basis = tuple(PathWord(s) for s in ("UU", "DD"))
    eye = IncidenceMatrix.from_dense(basis, ((ONE, ZERO), (ZERO, ONE)))
    assert invert(eye).entries == eye.entries
    bad = IncidenceMatrix.from_dense(basis, ((ZERO, ZERO), (ZERO, ONE)))
    with pytest.raises(ValueError):
        invert(bad)


def test_invert_names_a_nonzero_above_the_diagonal():
    basis = (PathWord("UU"), PathWord("DD"))
    for p in (Q, ONE):
        upper = IncidenceMatrix.from_dense(basis, ((ONE, p), (ZERO, ONE)))
        with pytest.raises(ValueError, match="at row UU, column DD$"):
            invert(upper)


def test_from_dense_rejects_a_grid_that_is_not_square():
    short_row = {
        "basis": ["UU", "DD"],
        "entries": [[{"coeffs": [1]}], [{"coeffs": [0]}, {"coeffs": [1]}]],
    }
    with pytest.raises(ValueError, match="grid must be 2 x 2"):
        IncidenceMatrix.from_json(short_row)
    basis = (PathWord("UU"), PathWord("DD"))
    with pytest.raises(ValueError, match="grid must be 2 x 2"):
        IncidenceMatrix.from_dense(basis, ((ONE, ZERO),))
    with pytest.raises(ValueError, match="grid must be 2 x 2"):
        IncidenceMatrix.from_dense(basis, ((ONE, ZERO, ZERO), (ZERO, ONE, ZERO)))


def reference_build(n, eps, kind):
    """Every arc subset of every column, flipped and weighed whole."""
    weigh = weight_I if kind == "I" else weight_II
    basis = enumerate_type_d(n, eps)
    index = {w.steps: k for k, w in enumerate(basis)}
    grid = [[ZERO] * len(basis) for _ in basis]
    for j, mu in enumerate(basis):
        arcs = pair_arcs(mu).all_arcs()
        for k in range(len(arcs) + 1):
            for S in itertools.combinations(arcs, k):
                i = index[flip(mu, S).steps]
                assert not grid[i][j], "two flip subsets of %s reach row %d" % (mu, i)
                grid[i][j] = weigh(mu, S)
    return IncidenceMatrix.from_dense(basis, grid)


@pytest.mark.parametrize("kind", ["I", "II"])
@pytest.mark.parametrize("eps", [0, 1])
@pytest.mark.parametrize("n", range(1, 9))
def test_build_matches_the_subset_by_subset_reference(n, eps, kind):
    assert build(n, eps, kind) == reference_build(n, eps, kind)


def test_build_refuses_two_subsets_that_reach_one_word(monkeypatch):
    # every arc listed twice: {a} and its copy {a'} toggle the same two
    # letters, so both reach one row of the first column
    monkeypatch.setattr(
        incidence, "arc_exponents", lambda mu, kind: 2 * linkflip.arc_exponents(mu, kind)
    )
    with pytest.raises(AssertionError, match="two flip subsets of UUUU give DDUU"):
        build(4, 0, "I")


def test_build_checks_its_masks_against_flip(monkeypatch):
    # DDDD is right for UUUU, the first column, and wrong for UUDD
    monkeypatch.setattr(incidence, "flip", lambda mu, arcs: PathWord("DDDD"))
    with pytest.raises(AssertionError, match="every arc of UUDD gives DDDD, not DDUU"):
        build(4, 0, "I")


@pytest.mark.parametrize("kind", ["I", "II"])
@pytest.mark.parametrize("n", range(1, 10))
def test_build_is_blind_to_the_sign(n, kind):
    # toggling the last letter keeps every arc's endpoints and exponent:
    # a final U closing a dashed (i, n) becomes a final D closing a
    # simple (i, n), and both weigh q^m because r = 1
    m0, m1 = build(n, 0, kind), build(n, 1, kind)
    assert [w.steps[:-1] for w in m1.basis] == [w.steps[:-1] for w in m0.basis]
    assert all(a.steps[-1] != b.steps[-1] for a, b in zip(m0.basis, m1.basis))
    assert m1.rows == m0.rows


def dense_inverse(entries):
    """Forward substitution over every (i, k) pair, zeros included."""
    size = len(entries)
    inv = [[ZERO] * size for _ in range(size)]
    for j in range(size):
        inv[j][j] = ONE
        for i in range(j + 1, size):
            acc = ZERO
            for k in range(j, i):
                acc = acc + entries[i][k] * inv[k][j]
            inv[i][j] = -acc
    return tuple(tuple(row) for row in inv)


def dense_product(a, b):
    size = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(size)), ZERO) for j in range(size)]
        for i in range(size)
    ]


@pytest.mark.parametrize("kind", ["I", "II"])
@pytest.mark.parametrize("eps", [0, 1])
@pytest.mark.parametrize("n", range(1, 7))
def test_invert_matches_dense_substitution(n, eps, kind):
    m = build(n, eps, kind)
    assert invert(m).entries == dense_inverse(m.entries)


def test_invert_falls_back_when_the_trial_width_is_too_narrow():
    # the trial width comes from the row 1-norms (at most 6, so 4 bits,
    # digits in [-8, 8)), but the corner entry of the inverse is 25
    five = PolyQ((5,))
    basis = tuple(PathWord(s) for s in ("UU", "UD", "DD"))
    rows = ((ONE, ZERO, ZERO), (five, ONE, ZERO), (ZERO, five, ONE))
    m = IncidenceMatrix.from_dense(basis, rows)
    inv = invert(m)
    assert inv.entries == dense_inverse(rows)
    assert inv.entries[2][0] == PolyQ((25,))


def first_mismatch(a, b):
    """First (i, j) in row-major order where a * b is not the identity."""
    prod = dense_product(a.entries, b.entries)
    for i, row in enumerate(prod):
        for j, p in enumerate(row):
            if p != (ONE if i == j else ZERO):
                return i, j
    return None


def with_entry(m, i, j, p):
    rows = [list(row) for row in m.entries]
    rows[i][j] = p
    return IncidenceMatrix.from_dense(m.basis, tuple(tuple(row) for row in rows))


def test_check_inverse_rejects_each_corruption():
    m = build(5, 0, "I")
    inv = invert(m)
    check_inverse(m, inv)
    size = m.size
    lower = [(i, j) for i in range(size) for j in range(i)]
    zero_at = next((i, j) for i, j in lower if not inv.entries[i][j])
    r, c = next((i, j) for i, j in reversed(lower) if inv.entries[i][j])
    cases = [
        # changing b[r][c] first shows at (r, c): a is unitriangular
        (m, with_entry(inv, *zero_at, Q), zero_at),
        (m, with_entry(inv, 0, size - 1, Q), (0, size - 1)),
        (m, with_entry(inv, r, c, inv.entries[r][c] + ONE), (r, c)),
        (m, with_entry(inv, 3, 3, ONE + Q), (3, 3)),
        # a above its diagonal: row 2 gains -q * b[9], and b[9][0] != 0
        (with_entry(m, 2, 9, -Q), inv, (2, 0)),
    ]
    for a, b, want in cases:
        assert first_mismatch(a, b) == want
        with pytest.raises(AssertionError) as exc:
            check_inverse(a, b)
        assert str(exc.value) == "product check failed at (%d, %d)" % want


@pytest.mark.parametrize("width", [8, 16, 32, 38, 64])
def test_check_inverse_width_comes_from_its_operands(width):
    # q - 2^W is zero at q = 2^W, so a check packing at that fixed
    # width would miss it
    m = build(5, 0, "I")
    inv = invert(m)
    zero_at = next(
        (i, j) for i in range(m.size) for j in range(i) if not inv.entries[i][j]
    )
    bad = with_entry(inv, *zero_at, PolyQ((-(2**width), 1)))
    want = first_mismatch(m, bad)
    assert want is not None
    with pytest.raises(AssertionError) as exc:
        check_inverse(m, bad)
    assert str(exc.value) == "product check failed at (%d, %d)" % want


def test_check_inverse_width_counts_the_left_factor():
    # b alone bounds nothing here: (a * b)[1][0] = q - 8 vanishes at the
    # width 3 that b's 1-norms would give
    basis = (PathWord("UU"), PathWord("DD"))
    a = IncidenceMatrix.from_dense(basis, ((ONE, ZERO), (PolyQ((-7, 1)), ONE)))
    b = IncidenceMatrix.from_dense(basis, ((ONE, ZERO), (-ONE, ONE)))
    with pytest.raises(AssertionError) as exc:
        check_inverse(a, b)
    assert str(exc.value) == "product check failed at (1, 0)"


def test_invert_entries_that_are_not_monomials():
    big = PolyQ((0, -7, 1000))  # 1000q^2 - 7q
    cases = [
        ((ONE, ZERO, ZERO), (big, ONE, ZERO), (-big, PolyQ((3, -5, 0, 2)), ONE)),
        (
            (ONE, ZERO, ZERO, ZERO),
            (big, ONE, ZERO, ZERO),
            (PolyQ((-12345, 0, 678)), -big * big, ONE, ZERO),
            (big + Q, PolyQ((0, 0, 0, -999)), PolyQ((1, 1, 1, 1, 1)) * big, ONE),
        ),
    ]
    for rows in cases:
        basis = tuple(PathWord("U" * k + "D" * (len(rows) - k)) for k in range(len(rows)))
        m = IncidenceMatrix.from_dense(basis, rows)
        inv = invert(m)
        assert inv.entries == dense_inverse(rows)
        check_inverse(m, inv)


@pytest.mark.parametrize("kind", ["I", "II"])
@pytest.mark.parametrize("eps", [0, 1])
@pytest.mark.parametrize("n", range(1, 8))
def test_unitriangular(n, eps, kind):
    m = build(n, eps, kind)
    for i, lam in enumerate(m.basis):
        for j, mu in enumerate(m.basis):
            e = m.entries[i][j]
            if i == j:
                assert e == ONE
            elif e != ZERO:
                assert i > j
                assert is_above(mu, lam) and lam != mu


@pytest.mark.parametrize("kind", ["I", "II"])
@pytest.mark.parametrize("eps", [0, 1])
@pytest.mark.parametrize("n", range(1, 7))
def test_inverse_entries_are_nonnegative(n, eps, kind):
    inv = invert(build(n, eps, kind))
    for row in inv.entries:
        for p in row:
            assert p.is_nonnegative(), p


@pytest.mark.parametrize("eps", [0, 1])
@pytest.mark.parametrize("n", range(1, 7))
def test_signed_weight_consistency(n, eps):
    m = build(n, eps, "I")
    nmat = build(n, eps, "II")
    for j, mu in enumerate(m.basis):
        arcs = pair_arcs(mu).all_arcs()
        for k in range(len(arcs) + 1):
            for S in itertools.combinations(arcs, k):
                lam = flip(mu, S)
                i = m._index[lam.steps]
                ne = nmat.entries[i][j]
                # N entry is (-q)^k
                expect = ONE
                for _ in range(k):
                    expect = expect.scale_by_monomial(-1, 1)
                assert ne == expect
                # M entry is a signed monomial with the same sign
                me = m.entries[i][j]
                nz = [c for c in me.coeffs if c]
                assert len(nz) == 1 and nz[0] == (-1) ** k


def test_json_round_trip():
    m = build(3, 1, "I")
    blob = json.dumps(m.to_json())
    back = IncidenceMatrix.from_json(json.loads(blob))
    assert back.basis == m.basis
    assert back.entries == m.entries


def test_csv_and_latex_render():
    m = build(4, 0, "I")
    csv_text = m.to_csv()
    assert csv_text.splitlines()[0] == ",UUUU,UUDD,UDUD,UDDU,DUUD,DUDU,DDUU,DDDD"
    assert "-q^3" in csv_text
    tex = m.to_latex().splitlines()
    assert tex[0] == "\\begin{pmatrix}"
    assert tex[7] == "-q^{3} & q^{3} & 0 & 0 & 0 & -q & 1 & 0 \\\\"
    assert tex[-1] == "\\end{pmatrix}"
    wide = PolyQ((-1, 0, 2) + (0,) * 8 + (-3,))
    odd = IncidenceMatrix.from_dense((PathWord("UU"), PathWord("DD")), ((ONE, ZERO), (wide, ONE)))
    assert odd.to_latex().splitlines()[2] == "-1+2q^{2}-3q^{11} & 1 \\\\"
    txt = m.to_text()
    assert txt.splitlines()[1].lstrip().startswith("UUUU")
