import hashlib
import itertools
import json

import pytest

from dycktile import incidence
from dycktile.incidence import IncidenceMatrix, build, check_inverse, invert, row_sums
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


# sha256 of the inverse's nonzeros, row by row, as [column, coefficients]
# pairs; the inverse does not depend on the sign
INVERSE_DIGESTS = {
    (7, "I"): "1361f52ddaabdee061cf1e385872d7a2f9b7afc4480655e749f087a2c4c11d2d",
    (7, "II"): "309be02b6f2275ed15a793c24bca96b43970b4f7ee5f517ec15e584a40e5a2d1",
    (8, "I"): "7273beb46100a99e3615a3340fed82fe664fb992d190f31ff0566230e2143e45",
    (8, "II"): "d2e4f7f4c7baea032a2a307952b683716ee192db63f436bbff69f9ea05e25fce",
    (9, "I"): "3d3a17cd4539f4c34547c472c3a07547515a3e489bd1029f83bdc85175acb8a2",
    (9, "II"): "1be91e504b2ce013768a9bf9ceedd7b116f0ef2d798c3101a164a9f18b7688f5",
}


@pytest.mark.parametrize("n, kind", sorted(INVERSE_DIGESTS))
@pytest.mark.parametrize("eps", [0, 1])
def test_inverse_matches_the_recorded_digest(n, eps, kind):
    rows = invert(build(n, eps, kind)).rows
    blob = json.dumps(
        [[[j, list(p.coeffs)] for j, p in row] for row in rows], separators=(",", ":")
    )
    assert hashlib.sha256(blob.encode()).hexdigest() == INVERSE_DIGESTS[n, kind]


def count_solves(monkeypatch):
    """The widths of every packed solve from now on."""
    widths = []
    solve = incidence._solve

    def spy(lower, cols, width, degree):
        widths.append(width)
        return solve(lower, cols, width, degree)

    monkeypatch.setattr(incidence, "_solve", spy)
    return widths


def chain(size, p):
    """1 on the diagonal and p just below it."""
    rows = [[ZERO] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = ONE
        if i:
            rows[i][i - 1] = p
    basis = tuple(PathWord("U" * (size - k) + "D" * k) for k in range(size))
    return IncidenceMatrix.from_dense(basis, tuple(map(tuple, rows)))


def test_slots_hold_signed_entries_up_to_the_degree_bound(monkeypatch):
    # inv[i][j] = (-q)^(i - j): every row alternates in sign, and the
    # corner -q^7 sits at exactly the degree bound 7.  The trial width
    # is 3 bits (row 1-norms 2), so a slot holds 8 digits in exactly 3
    # bytes: the corner's top digit is the slot's last bit
    widths = count_solves(monkeypatch)
    m = chain(8, Q)
    inv = invert(m)
    assert widths == [3]
    assert inv.entries == dense_inverse(m.entries)
    assert inv.entries[7][0] == PolyQ((0,) * 7 + (-1,))
    assert inv.entries[7][1] == PolyQ((0,) * 6 + (1,))
    # -3q^2 next to +q within one row, at trial width 4 (row 1-norm 4)
    rows = ((ONE, ZERO, ZERO), (Q, ONE, ZERO), (PolyQ((0, 0, 2)), -Q, ONE))
    m = IncidenceMatrix.from_dense(chain(3, Q).basis, rows)
    inv = invert(m)
    assert widths == [3, 4]
    assert inv.entries == dense_inverse(rows)
    assert inv.entries[2] == (PolyQ((0, 0, -3)), Q, ONE)


def test_a_slot_out_of_range_fails_the_trial(monkeypatch):
    # the corner 25 needs more than one 4-bit digit: the trial decode
    # refuses it, and the proven width decodes it
    five = PolyQ((5,))
    rows = ((ONE, ZERO, ZERO), (five, ONE, ZERO), (ZERO, five, ONE))
    m = IncidenceMatrix.from_dense(chain(3, Q).basis, rows)
    lower = [row[:-1] for row in incidence._factor(m.rows).rows]
    assert incidence._solve(lower, range(3), 4, 0) is None
    widths = count_solves(monkeypatch)
    assert invert(m).entries[2][0] == PolyQ((25,))
    assert widths == [4, 6]


def test_check_inverse_reports_a_corruption_past_the_inverse_slot():
    # q^40 is far past the inverse's own degree bound, so it would spill
    # out of a slot laid out for the inverse; the check's slots are
    # sized from b's degrees and still name the corrupted entry
    m = build(5, 0, "I")
    inv = invert(m)
    high = PolyQ((0,) * 40 + (1,))
    zero_at = next(
        (i, j) for i in range(m.size) for j in range(i) if not inv.entries[i][j]
    )
    r, c = next((i, j) for i in range(m.size) for j in range(i) if inv.entries[i][j])
    for (i, j), p in ((zero_at, high), ((r, c), inv.entries[r][c] - high)):
        bad = with_entry(inv, i, j, p)
        assert first_mismatch(m, bad) == (i, j)
        with pytest.raises(AssertionError) as exc:
            check_inverse(m, bad)
        assert str(exc.value) == "product check failed at (%d, %d)" % (i, j)


def test_check_inverse_slots_count_both_factors_degrees():
    # (a * b)[2] - e_2 = (-q^8, 1, 0).  Widths are 3 bits and both
    # factors have degree 7, so a slot of b's 8 digits alone would be
    # exactly 3 bytes, and -q^8 would cancel the 1 in the next slot
    h = PolyQ((0,) * 7 + (1,))
    basis = chain(3, Q).basis
    a = IncidenceMatrix.from_dense(basis, ((ONE, ZERO, ZERO), (h, ONE, ZERO), (ZERO, Q, ONE)))
    b = IncidenceMatrix.from_dense(
        basis, ((ONE, ZERO, ZERO), (-h, ONE, ZERO), (ZERO, PolyQ((1, -1)), ONE))
    )
    assert first_mismatch(a, b) == (2, 0)
    with pytest.raises(AssertionError) as exc:
        check_inverse(a, b)
    assert str(exc.value) == "product check failed at (2, 0)"


@pytest.mark.parametrize("kind", ["I", "II"])
@pytest.mark.parametrize("eps", [0, 1])
@pytest.mark.parametrize("n", range(1, 9))
def test_row_sums_are_the_inverse_row_sums(n, eps, kind):
    m = build(n, eps, kind)
    want = tuple(sum((p for _, p in row), ZERO) for row in invert(m).rows)
    assert row_sums(m) == want


def test_row_sums_fall_back_when_the_residual_is_not_zero(monkeypatch):
    # the trial width holds digits in [-8, 8); the last row sum is 21,
    # so the residual M x - 1 is not zero and the proven width decodes
    widths = count_solves(monkeypatch)
    five = PolyQ((5,))
    rows = ((ONE, ZERO, ZERO), (five, ONE, ZERO), (ZERO, five, ONE))
    m = IncidenceMatrix.from_dense(chain(3, Q).basis, rows)
    assert row_sums(m) == (ONE, PolyQ((-4,)), PolyQ((21,)))
    assert widths == [4, 6]
    # build's matrices need the proven width for their row sums at n = 9
    widths.clear()
    m = build(9, 0, "I")
    sums = row_sums(m)
    assert len(widths) == 2
    assert sums == tuple(sum((p for _, p in row), ZERO) for row in invert(m).rows)


def test_row_sums_raise_when_the_proven_width_fails_its_check(monkeypatch):
    m = build(3, 0, "I")
    monkeypatch.setattr(
        incidence, "_solve", lambda lower, cols, width, degree: tuple(((0, Q),) for _ in lower)
    )
    with pytest.raises(AssertionError, match=r"^product check failed at \(0, 0\)$"):
        row_sums(m)


def test_row_sums_refuse_a_matrix_that_is_not_unitriangular():
    basis = (PathWord("UU"), PathWord("DD"))
    upper = IncidenceMatrix.from_dense(basis, ((ONE, Q), (ZERO, ONE)))
    with pytest.raises(ValueError, match="at row UU, column DD$"):
        row_sums(upper)


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
