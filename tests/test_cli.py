"""End-to-end checks of the command line entry point."""

import hashlib
import json

import pytest

from dycktile import cli
from dycktile.cli import main, run_check
from dycktile.incidence import IncidenceMatrix, build
from dycktile.pathword import all_words, dyck_words
from dycktile.qpoly import ONE, ZERO
from dycktile.tiling import EXCLUSIVE, TYPE_D, genfun_lower, sum_tilings
from dycktile.treeform import StuckTreeError


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_matrix_smallest_basis(capsys):
    code, out, _ = run(capsys, "matrix", "--n", "1")
    assert code == 0
    assert out.split() == ["U", "U", "1"]


def test_matrix_inverse_csv(capsys):
    code, out, _ = run(capsys, "matrix", "--n", "2", "--kind", "Minv", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [",UU,DD", "UU,1,0", "DD,q,1"]


def test_matrix_json_round_trip(capsys):
    code, out, _ = run(capsys, "matrix", "--n", "3", "--epsilon", "1", "--format", "json")
    assert code == 0
    assert IncidenceMatrix.from_json(json.loads(out)) == build(3, 1, "I")


def test_matrix_latex_has_rows(capsys):
    code, out, _ = run(capsys, "matrix", "--n", "2", "--kind", "N", "--format", "latex")
    assert code == 0
    assert "&" in out and "\\\\" in out


def test_matrix_rejects_bad_n(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["matrix", "--n", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["matrix", "--n", "11"])
    assert exc.value.code == 2


# sha256 of the stdout of `dycktile matrix --n N --epsilon E --kind K
# --format F` over N = 1..6, E = 0, 1, K = M, N, Minv, Ninv and
# F = text, json, csv, latex, in that loop order; recorded from the
# dense-grid matrices that came before the row storage
MATRIX_DIGEST_1_6 = "44d738304402ae4a267f9f81d752a13d03e858a5dbf0ba5f34d526aebbaec20e"


def test_matrix_output_matches_the_recorded_digest(capsys):
    h = hashlib.sha256()
    for n in range(1, 7):
        for eps in (0, 1):
            for kind in ("M", "N", "Minv", "Ninv"):
                for fmt in ("text", "json", "csv", "latex"):
                    argv = ["--n", str(n), "--epsilon", str(eps), "--kind", kind, "--format", fmt]
                    code, out, _ = run(capsys, "matrix", *argv)
                    assert code == 0
                    h.update(out.encode())
    assert h.hexdigest() == MATRIX_DIGEST_1_6


def test_genfun_lower_sum(capsys):
    code, out, _ = run(capsys, "genfun", "--lambda", "DDUUDD")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "q=1: 36"
    assert "6q^5" in lines[0]


def test_genfun_pair_json(capsys):
    code, out, _ = run(
        capsys,
        "genfun", "--lambda", "DUDU", "--mu", "UUDD",
        "--class", "exclusive", "--weight", "tiles", "--format", "json",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["coefficients"] == [0, 1]
    assert blob["q_at_1"] == 1
    assert blob["class"] == "exclusive"


def test_genfun_incomparable_pair(capsys):
    code, _, err = run(capsys, "genfun", "--lambda", "UUDD", "--mu", "DDUU")
    assert code == 3
    assert "error" in err


def test_genfun_type_a_needs_dyck(capsys):
    code, _, err = run(capsys, "genfun", "--lambda", "DU", "--type", "A")
    assert code == 3
    assert "Dyck" in err


def test_word_validation():
    with pytest.raises(SystemExit) as exc:
        main(["tree", "--lambda", "UDX"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["genfun", "--lambda", "U" * 11])
    assert exc.value.code == 2


def test_allow_long_lifts_cap(capsys):
    code, out, _ = run(capsys, "tree", "--lambda", "U" * 11, "--allow-long")
    assert code == 0
    assert "omega: 1" in out


def test_tilings_single_pair(capsys):
    code, out, _ = run(
        capsys,
        "tilings", "--lambda", "DUDU", "--mu", "UUDD", "--class", "exclusive",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "upper=UUDD class=exclusive tiles=1 area=3 art=2"
    assert lines[1] == "total: 1 tiling"


def test_tilings_trivial_region(capsys):
    code, out, _ = run(capsys, "tilings", "--lambda", "UUDD", "--mu", "UUDD")
    assert code == 0
    lines = out.splitlines()
    assert "tiles=0" in lines[0]
    assert lines[1] == "total: 1 tiling"


# sha256 of the stdout of `dycktile tilings --lambda W --type F` over
# every word W of family D of length 0..6, then B of length 1..5, then
# A (Dyck words) of length 0..6, in that loop order; recorded from the
# command that searched each upper word's region alone
TILINGS_DIGEST = "76c1a01f22024e1df2a79dd0ee074baf0e12cb4f5c8ec1a43ec6acd87e4702b7"


def test_tilings_output_matches_the_recorded_digest(capsys):
    h = hashlib.sha256()
    words = 0
    for family, lo, top in (("D", 0, 6), ("B", 1, 5), ("A", 0, 6)):
        for n in range(lo, top + 1):
            for w in dyck_words(n) if family == "A" else all_words(n):
                code, out, _ = run(capsys, "tilings", "--lambda", w.steps, "--type", family)
                assert code == 0
                h.update(out.encode())
                words += 1
    assert words == 198
    assert h.hexdigest() == TILINGS_DIGEST


@pytest.mark.parametrize("command", ["genfun", "tilings"])
def test_exclusive_class_without_mu_is_a_domain_error(capsys, command):
    # The sum over upper words is cover-inclusive; the exclusive class
    # is read one pair at a time.
    code, out, err = run(capsys, command, "--lambda", "DUDU", "--class", "exclusive")
    assert code == 3
    assert out == ""
    assert "--mu" in err
    code, out, _ = run(capsys, command, "--lambda", "DUDU", "--mu", "UUDD", "--class", "exclusive")
    assert code == 0


def test_tilings_filter_and_render(capsys, tmp_path):
    out_dir = tmp_path / "out"
    code, out, _ = run(
        capsys,
        "tilings", "--lambda", "DDUUDD", "--filter-art", "5",
        "--render", str(out_dir),
    )
    assert code == 0
    assert "total: 6 tilings" in out
    svgs = sorted(p.name for p in out_dir.glob("*.svg"))
    assert svgs == ["tiling_%03d.svg" % i for i in range(6)]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "tilings"
    assert manifest["arguments"]["filter_art"] == 5
    assert len(manifest["artifacts"]) == 6
    for entry in manifest["artifacts"]:
        data = (out_dir / entry["file"]).read_bytes()
        assert entry["sha256"] == hashlib.sha256(data).hexdigest()
        assert entry["art"] == 5
        assert data.startswith(b"<svg")


def test_render_is_deterministic(capsys, tmp_path):
    blobs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        run(capsys, "tilings", "--lambda", "DUDU", "--render", str(out_dir))
        files = sorted(p.name for p in out_dir.iterdir())
        blobs.append([(f, (out_dir / f).read_bytes()) for f in files])
    assert blobs[0] == blobs[1]


def test_tilings_domain_error(capsys):
    code, _, err = run(capsys, "tilings", "--lambda", "UUDD", "--mu", "DDUU")
    assert code == 3
    assert "error" in err


def test_tree_empty_word(capsys):
    code, out, _ = run(capsys, "tree", "--lambda", "")
    assert code == 0
    assert "(empty tree)" in out
    assert "omega: 1" in out
    assert "q=1: 1" in out


def test_tree_all_down(capsys):
    code, out, _ = run(capsys, "tree", "--lambda", "DDDD")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "edge [0] dotted"
    assert "omega: 1 + q + q^2 + 2q^3 + q^4 + q^5 + q^6" in lines
    assert "q=1: 8" in lines


def test_tree_stuck_word(capsys):
    code, out, err = run(capsys, "tree", "--lambda", "DUDDUU")
    assert code == 4
    assert out == ""
    assert "edge [1] dotted" in err
    assert "error:" in err


def test_tree_stuck_word_json(capsys):
    code, out, _ = run(capsys, "tree", "--lambda", "DUDDUU", "--format", "json")
    assert code == 4
    blob = json.loads(out)
    assert blob["word"] == "DUDDUU"
    assert "error" in blob
    assert blob["tree"]["arrows"]


def test_tree_dot_output(capsys):
    code, out, _ = run(capsys, "tree", "--lambda", "UUDD", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")


def test_tree_json_output(capsys):
    code, out, _ = run(capsys, "tree", "--lambda", "DUUDUU", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["q_at_1"] == 18
    assert blob["coefficients"] == [1, 2, 3, 3, 3, 3, 2, 1]


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--max-length", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "all checks passed"
    for line in lines[:-1]:
        assert " pass " in line


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "--max-length", "1", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["all_pass"] is True
    assert set(blob) == {"max_length", "checks", "all_pass"}
    assert [c["name"] for c in blob["checks"]] == list(cli.CHECKS)
    keys = {"name", "passed", "cases", "skipped", "failures", "bound", "seconds"}
    for c in blob["checks"]:
        assert set(c) == keys
        assert c["passed"] and c["bound"] == 1 and c["seconds"] >= 0


def test_matrix_bridge_runs_at_the_length_asked():
    report = run_check("matrix-bridge", 7)
    assert report["passed"]
    assert report["bound"] == 7
    assert report["cases"] == 18824  # four per comparable pair, n = 1..7


def test_upper_sum_product_runs_at_the_length_asked():
    report = run_check("upper-sum-product", 7)
    assert report["passed"]
    assert report["cases"] == 510  # both weights of every word of length 0..7


def test_matrix_bridge_reports_a_second_exclusive_tiling(monkeypatch):
    def twice(w, type_tag, cls):
        for v, found in sum_tilings(w, type_tag, cls):
            yield v, found * 2 if cls == EXCLUSIVE else found

    monkeypatch.setattr(cli, "sum_tilings", twice)
    report = run_check("matrix-bridge", 1)
    assert report["cases"] == 8
    assert report["failures"] == [
        "n=1 eps=0 lam=U mu=U: 2 cover-exclusive tilings",
        "n=1 eps=0 lam=U mu=U: 2 cover-exclusive tilings",
        "n=1 eps=1 lam=D mu=D: 2 cover-exclusive tilings",
        "n=1 eps=1 lam=D mu=D: 2 cover-exclusive tilings",
    ]


# One broken collaborator per registry check; each must make it fail.
BREAKS = (
    ("golden-matrices", "invert", lambda m: m),
    ("matrix-bridge", "sum_tilings", lambda w, type_tag, cls: ()),
    ("matrix-positivity", "invert", lambda m: m),
    ("lower-sum-projection", "truncate_last", lambda w: w),
    ("upper-sum-tiles", "truncate_last", lambda w: w),
    ("upper-sum-product", "arc_exponents", lambda w, kind: ()),
    ("tail-product", "q_b", lambda m, n: ONE),
    ("ballot-tail-product", "q_b", lambda m, n: ONE),
    ("hook-product", "kw_type_a", lambda w: ZERO),
    ("tree-evaluation", "omega", lambda tree: ZERO),
    ("merge-confluence", "evaluations", lambda tree: [(ONE, ONE), (ZERO, ONE)]),
    ("pinned-values", "genfun_pair", lambda *args: ZERO),
)


@pytest.mark.parametrize("name, attr, broken", BREAKS, ids=[b[0] for b in BREAKS])
def test_registry_check_can_fail(monkeypatch, capsys, name, attr, broken):
    monkeypatch.setattr(cli, attr, broken)
    report = run_check(name, 4)
    assert report["passed"] is False
    assert report["failures"]
    code, out, _ = run(capsys, "verify", "--max-length", "4")
    assert code == 1
    assert [name, "FAIL"] in [line.split()[:2] for line in out.splitlines()]
    assert out.splitlines()[-1] == "some checks FAILED"


def test_tree_evaluation_compares_with_the_minv_row_sums(monkeypatch):
    monkeypatch.setattr(cli, "omega", lambda tree: ZERO)
    report = run_check("tree-evaluation", 2)
    assert report["cases"] == 7
    assert report["failures"][:3] == [
        "lam=: tree 0, Minv row sum 1",
        "lam=U: tree 0, Minv row sum 1",
        "lam=D: tree 0, Minv row sum 1",
    ]


def test_minv_row_sums_are_the_d_lower_sums():
    for n in range(7):
        sums = cli._minv_row_sums(n)
        assert sorted(sums) == sorted(w.steps for w in all_words(n))
        for w in all_words(n):
            assert sums[w.steps] == genfun_lower(w, TYPE_D, "art"), w


def test_merge_confluence_checks_the_canonical_order(monkeypatch):
    monkeypatch.setattr(cli, "omega", lambda tree: ZERO)
    report = run_check("merge-confluence", 4)
    assert report["passed"] is False
    assert report["failures"][0] == "lam=: canonical order 0, every order 1"
    monkeypatch.setattr(cli, "evaluations", lambda tree: [(ONE, ONE), (ZERO, ONE)])
    report = run_check("merge-confluence", 4)
    assert report["failures"][0] == "lam=: orders give 2 values (distinct pairs: 2)"


def test_merge_confluence_fails_when_only_one_side_sticks(monkeypatch):
    def stuck(tree):
        raise StuckTreeError("no merge rule applies to this tree")

    monkeypatch.setattr(cli, "omega", stuck)
    report = run_check("merge-confluence", 4)
    assert report["failures"][0] == (
        "lam=: canonical order sticks, other orders finish (distinct pairs: 1)"
    )
    monkeypatch.setattr(cli, "omega", lambda tree: ONE)
    monkeypatch.setattr(cli, "evaluations", lambda tree: [])
    report = run_check("merge-confluence", 6)
    assert len(report["failures"]) == 127
    assert report["skipped"] == 0
    assert report["failures"][0] == "lam=: canonical order gives 1, no order finishes"


def test_stuck_trees_fail_below_length_6_and_are_skipped_from_6_on(monkeypatch):
    def stuck(tree):
        raise StuckTreeError("no merge rule applies to this tree")

    monkeypatch.setattr(cli, "omega", stuck)
    monkeypatch.setattr(cli, "evaluations", lambda tree: [])
    for name in ("tree-evaluation", "merge-confluence"):
        report = run_check(name, 6)
        assert report["cases"] == 127
        assert len(report["failures"]) == 63  # every word of length 0..5
        assert report["skipped"] == 64  # every word of length 6
        assert report["failures"][0] == "lam=: stuck below length 6"


def test_missing_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
