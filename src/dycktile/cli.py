"""Command line front end: compute, render, and verify.

Subcommands:

  matrix   print an incidence matrix or its inverse
  genfun   print a generating function of tilings
  tilings  list tilings, optionally rendering one SVG per tiling
  tree     print the decorated tree of a word and its evaluation
  verify   run the identity suite and print a pass/fail table

Exit codes: 0 success, 1 an identity check failed, 2 usage, 3 domain
error (for instance an upper word that does not lie above the lower
one), 4 a computation the known rules cannot finish (a stuck tree or
an inexact division).  Word lengths are capped at 10 by default since
every enumeration is exponential; --allow-long lifts the cap.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import time

from .golden import BASIS_4_0, M_4_0, M_INV_4_0, N_4_0, N_INV_4_0
from .incidence import build, invert, row_sums
from .pathword import PathWord, all_words, dyck_words, truncate_last
from .linkflip import arc_exponents
from .qpoly import ONE, InexactDivisionError, PolyQ, exact_div, prod, q_int
from .tiling import (
    EXCLUSIVE,
    INCLUSIVE,
    TYPE_A,
    TYPE_B,
    TYPE_D,
    WEIGHTS,
    build_region,
    enumerate_tilings,
    genfun_lower,
    genfun_pair,
    genfun_upper,
    lower_words,
    record_order,
    render_svg,
    sum_tilings,
    tally,
    upper_words,
)
from .treeform import (
    StuckTreeError,
    build_tree,
    evaluations,
    kw_type_a,
    omega,
    q_b,
)

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_GAP = 4

LENGTH_CAP = 10


def _parse_word(parser: argparse.ArgumentParser, text: str, allow_long: bool) -> PathWord:
    if re.fullmatch("[UD]*", text) is None:
        parser.error("words use only the letters U and D, got %r" % text)
    if len(text) > LENGTH_CAP and not allow_long:
        parser.error(
            "word of length %d exceeds the cap %d; pass --allow-long to "
            "lift it (enumeration is exponential)" % (len(text), LENGTH_CAP)
        )
    return PathWord(text)


# -- matrix ------------------------------------------------------------------


def cmd_matrix(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.n < 1:
        parser.error("--n must be at least 1")
    if args.n > LENGTH_CAP and not args.allow_long:
        parser.error(
            "--n %d exceeds the cap %d; pass --allow-long to lift it"
            % (args.n, LENGTH_CAP)
        )
    kind = {"M": "I", "N": "II", "Minv": "I", "Ninv": "II"}[args.kind]
    matrix = build(args.n, args.epsilon, kind)
    if args.kind in ("Minv", "Ninv"):
        matrix = invert(matrix)
    if args.format == "json":
        print(json.dumps(matrix.to_json(), sort_keys=True))
    elif args.format == "csv":
        sys.stdout.write(matrix.to_csv())
    elif args.format == "latex":
        print(matrix.to_latex())
    else:
        print(matrix.to_text())
    return EXIT_OK


# -- genfun ------------------------------------------------------------------


# The sum over upper words is the cover-inclusive one; genfun and
# tilings refuse the exclusive class without a pair.
EXCLUSIVE_NEEDS_MU = "the exclusive class needs --mu: the sum over upper words is cover-inclusive"


def cmd_genfun(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    lam = _parse_word(parser, args.lam, args.allow_long)
    try:
        if args.mu is not None:
            mu = _parse_word(parser, args.mu, args.allow_long)
            poly = genfun_pair(lam, mu, args.family, args.cls, args.weight)
        elif args.cls == EXCLUSIVE:
            raise ValueError(EXCLUSIVE_NEEDS_MU)
        else:
            poly = genfun_lower(lam, args.family, args.weight)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DOMAIN
    if args.format == "json":
        blob = {
            "lower": lam.steps,
            "upper": args.mu,
            "family": args.family,
            "class": args.cls,
            "weight": args.weight,
            "coefficients": list(poly.coeffs),
            "polynomial": str(poly),
            "q_at_1": poly.eval_at_one(),
        }
        print(json.dumps(blob, sort_keys=True))
    else:
        print(poly)
        print("q=1: %d" % poly.eval_at_one())
    return EXIT_OK


# -- tilings -----------------------------------------------------------------


def cmd_tilings(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    lam = _parse_word(parser, args.lam, args.allow_long)
    try:
        if args.mu is not None:
            mu = _parse_word(parser, args.mu, args.allow_long)
            tilings = enumerate_tilings(build_region(lam, mu, args.family), args.cls)
        elif args.cls == EXCLUSIVE:
            raise ValueError(EXCLUSIVE_NEEDS_MU)
        else:
            tilings = [t for _, ts in sum_tilings(lam, args.family, INCLUSIVE) for t in ts]
        found = [t for t in tilings if args.filter_art is None or t.art == args.filter_art]
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DOMAIN
    found.sort(key=lambda t: (t.region.mu.steps, record_order(t)))
    for t in found:
        print(
            "upper=%s class=%s tiles=%d area=%d art=%d"
            % (t.region.mu.steps or "(empty)", t.cls, t.tile_count, t.area, t.art)
        )
    print("total: %d tiling%s" % (len(found), "" if len(found) == 1 else "s"))
    if args.render is not None:
        _render_tilings(args, found)
        print("rendered %d files into %s" % (len(found) + 1, args.render))
    return EXIT_OK


def _render_tilings(args: argparse.Namespace, found: list) -> None:
    os.makedirs(args.render, exist_ok=True)
    artifacts = []
    for i, t in enumerate(found):
        name = "tiling_%03d.svg" % i
        svg = render_svg(t)
        with open(os.path.join(args.render, name), "w") as fh:
            fh.write(svg)
        artifacts.append(
            {
                "file": name,
                "sha256": hashlib.sha256(svg.encode()).hexdigest(),
                "upper": t.region.mu.steps,
                "class": t.cls,
                "tiles": t.tile_count,
                "area": t.area,
                "art": t.art,
            }
        )
    manifest = {
        "command": "tilings",
        "arguments": {
            "lambda": args.lam,
            "mu": args.mu,
            "family": args.family,
            "class": args.cls,
            "filter_art": args.filter_art,
        },
        "artifacts": artifacts,
    }
    path = os.path.join(args.render, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- tree --------------------------------------------------------------------


def _tree_lines(blob: dict) -> list[str]:
    lines = []

    def walk(children: list, path: tuple) -> None:
        for k, child in enumerate(children):
            p = path + (k,)
            lines.append(
                "edge %s %s" % (list(p), "dotted" if child["dotted"] else "plain")
            )
            walk(child["children"], p)

    walk(blob["children"], ())
    for a in blob["arrows"]:
        lines.append("arrow %s -> %s" % (a["source"], a["target"]))
    return lines


def cmd_tree(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    lam = _parse_word(parser, args.lam, args.allow_long)
    tree = build_tree(lam)
    blob = tree.to_json()
    try:
        value = omega(tree)
    except (StuckTreeError, InexactDivisionError) as exc:
        if args.format == "json":
            stuck = {"word": lam.steps, "tree": blob, "error": str(exc)}
            print(json.dumps(stuck, sort_keys=True))
        else:
            print("word: %s" % (lam.steps or "(empty)"), file=sys.stderr)
            for line in _tree_lines(blob):
                print(line, file=sys.stderr)
            print("error: %s" % exc, file=sys.stderr)
        return EXIT_GAP
    if args.format == "json":
        blob = {
            "word": lam.steps,
            "tree": blob,
            "omega": str(value),
            "coefficients": list(value.coeffs),
            "q_at_1": value.eval_at_one(),
        }
        print(json.dumps(blob, sort_keys=True))
    elif args.format == "dot":
        print(tree.to_dot())
    else:
        print("word: %s" % (lam.steps or "(empty)"))
        if tree.is_empty:
            print("(empty tree)")
        for line in _tree_lines(blob):
            print(line)
        print("omega: %s" % value)
        print("q=1: %d" % value.eval_at_one())
    return EXIT_OK


# -- verify ------------------------------------------------------------------


def _words_through(max_len: int):
    for n in range(max_len + 1):
        yield from all_words(n)


# Each check yields one outcome per case: None when it holds, its
# failure line, or SKIPPED; run_check counts them.
SKIPPED = object()


def _stuck(w: PathWord):
    """A stuck tree fails below length 6 and is skipped from 6 on."""
    return "lam=%s: stuck below length 6" % w.steps if w.length <= 5 else SKIPPED


def _check_golden_matrices(k: int):
    if k < 4:
        return
    plan = (
        ("M", M_4_0, False),
        ("N", N_4_0, False),
        ("Minv", M_INV_4_0, True),
        ("Ninv", N_INV_4_0, True),
    )
    for name, rows, inverse in plan:
        matrix = build(4, 0, "I" if name.startswith("M") else "II")
        if inverse:
            matrix = invert(matrix)
        if [w.steps for w in matrix.basis] != BASIS_4_0:
            yield "%s: basis order drifted" % name
            continue
        for i, lam in enumerate(BASIS_4_0):
            for j, mu in enumerate(BASIS_4_0):
                got, want = matrix.entries[i][j], rows[i][j]
                yield None if got == want else (
                    "%s lam=%s mu=%s: built %s, reference %s" % (name, lam, mu, got, want)
                )


def _check_matrix_bridge(k: int):
    """Minv holds the cover-inclusive sums and M the signed cover-exclusive
    tilings, entry by entry.  Row lam of both inverses is read from lam's
    lower sum, column mu of both matrices from mu's upper sum, each one
    sum_tilings search; the words above lam or below mu, in basis order
    (upper_words, lower_words), are the pairs, and a pair the sum has no
    tiling for is compared with zero.  An exclusive region has at most
    one tiling, signed by its tile count."""
    for n in range(1, k + 1):
        for eps in (0, 1):
            mat_art = build(n, eps, "I")
            mat_tiles = build(n, eps, "II")
            plan = (
                (INCLUSIVE, upper_words, invert(mat_art), invert(mat_tiles)),
                (EXCLUSIVE, lower_words, mat_art, mat_tiles),
            )
            for cls, comparable, by_art, by_tiles in plan:
                for w in mat_art.basis:
                    tilings = dict(sum_tilings(w, TYPE_D, cls))
                    for v in comparable(w, TYPE_D):
                        lam, mu = (w, v) if cls == INCLUSIVE else (v, w)
                        found = tilings.get(v, ())
                        where = "n=%d eps=%d lam=%s mu=%s" % (n, eps, lam.steps, mu.steps)
                        for matrix, weight in ((by_art, "art"), (by_tiles, "tiles")):
                            if cls == EXCLUSIVE and len(found) > 1:
                                yield "%s: %d cover-exclusive tilings" % (where, len(found))
                                continue
                            got = matrix.entry(lam, mu)
                            counts: list[int] = []
                            tally(counts, found, weight)
                            want = PolyQ(counts)
                            if cls == EXCLUSIVE and found and found[0].tile_count % 2:
                                want = -want
                            yield None if got == want else (
                                "%s: matrix %s, tilings %s" % (where, got, want)
                            )


def _check_matrix_positivity(k: int):
    for n in range(1, k + 2):
        for eps in (0, 1):
            for kind in ("I", "II"):
                inv = invert(build(n, eps, kind))
                for row, lam in zip(inv.rows, inv.basis):
                    for j, p in row:
                        yield None if p.is_nonnegative() else (
                            "n=%d eps=%d kind=%s lam=%s mu=%s: %s"
                            % (n, eps, kind, lam.steps, inv.basis[j].steps, p)
                        )


def _projections(k: int, genfun, weight: str, role: str):
    """genfun of every D word w of length 1 to k against genfun of the
    B word truncate_last(w).  _words_through yields vU just before vD,
    so each B word v is summed once."""
    v = right = None
    for w in _words_through(k):
        if not w.length:
            continue
        u = truncate_last(w)
        if u != v:
            v, right = u, genfun(u, TYPE_B, weight)
        left = genfun(w, TYPE_D, weight)
        yield None if left == right else "%s=%s: D %s, B %s" % (role, w.steps, left, right)


def _check_lower_projection(k: int):
    return _projections(k, genfun_lower, "art", "lam")


def _check_upper_tiles(k: int):
    return _projections(k, genfun_upper, "tiles", "mu")


def _check_upper_product(k: int):
    """The D upper sum of mu is a product over the arcs of mu: by tiles
    (1 + q)^a, a the number of arcs, and by art the product of 1 + q^e
    with e from arc_exponents(mu, "I").  So it is prod (1 + q^e) over
    the arcs with the flip weights' exponents, kind II giving e = 1.
    The identity was found by computation, through length 9 in both
    signs; the paper states none, and the matrix bridge proves it only
    at the lengths it runs, where an upper sum adds up a column of M or
    N with the signs dropped."""
    for w in _words_through(k):
        for weight, kind in (("tiles", "II"), ("art", "I")):
            left = genfun_upper(w, TYPE_D, weight)
            right = prod(ONE + ONE.scale_by_monomial(1, e) for _, e in arc_exponents(w, kind))
            yield None if left == right else (
                "mu=%s %s: enumerated %s, product %s" % (w.steps, weight, left, right)
            )


def _check_tail_product(k: int):
    for total in range(1, k + 2):
        for m in range(1, total + 1):
            n = total - m
            left = genfun_lower(PathWord("D" * n + "U" * m), TYPE_D, "art")
            right = q_b(m - 1, n)
            yield None if left == right else (
                "M=%d N=%d: enumerated %s, product %s" % (m, n, left, right)
            )


def _check_ballot_tail(k: int):
    for total in range(k + 1):
        for m in range(total + 1):
            n = total - m
            left = genfun_lower(PathWord("D" * n + "U" * m), TYPE_B, "art")
            right = q_b(m, n)
            yield None if left == right else (
                "M=%d N=%d: enumerated %s, product %s" % (m, n, left, right)
            )


def _check_hook_product(k: int):
    for n in range(0, k + 1, 2):
        for w in dyck_words(n):
            left = kw_type_a(w)
            right = genfun_lower(w, TYPE_A, "art")
            yield None if left == right else (
                "lam=%s: hook %s, tilings %s" % (w.steps, left, right)
            )


def _minv_row_sums(n: int) -> dict[str, PolyQ]:
    """Row w of the kind-I Minv, summed, for every word w of length n:
    its D lower sum (art).  build refuses n = 0; the empty word's is 1."""
    if n == 0:
        return {"": ONE}
    sums = {}
    for eps in (0, 1):
        m = build(n, eps, "I")
        sums.update(zip((w.steps for w in m.basis), row_sums(m)))
    return sums


def _check_tree_evaluation(k: int):
    for n in range(k + 1):
        sums = _minv_row_sums(n)
        for w in all_words(n):
            try:
                left = omega(build_tree(w))
            except StuckTreeError:
                yield _stuck(w)
                continue
            right = sums[w.steps]
            yield None if left == right else (
                "lam=%s: tree %s, Minv row sum %s" % (w.steps, left, right)
            )


def _check_merge_confluence(k: int):
    """Every merge order agrees, and omega's canonical order with them."""
    for w in _words_through(k):
        tree = build_tree(w)
        pairs = evaluations(tree)
        try:
            value = omega(tree)
        except StuckTreeError:
            value = None
        if not pairs:
            yield _stuck(w) if value is None else (
                "lam=%s: canonical order gives %s, no order finishes"
                % (w.steps, value)
            )
            continue
        values = {exact_div(num, den) for num, den in pairs}
        if len(values) > 1:
            yield "lam=%s: orders give %d values (distinct pairs: %d)" % (
                w.steps,
                len(values),
                len(pairs),
            )
        elif value is None:
            yield "lam=%s: canonical order sticks, other orders finish (distinct pairs: %d)" % (
                w.steps,
                len(pairs),
            )
        else:
            (want,) = values
            yield None if value == want else (
                "lam=%s: canonical order %s, every order %s" % (w.steps, value, want)
            )


def _check_pinned_values(k: int):
    def expect(name: str, got, want):
        return None if got == want else "%s: got %s, want %s" % (name, got, want)

    yield expect(
        "pair DDUU..UUUU area",
        genfun_pair(PathWord("DDUU"), PathWord("UUUU"), TYPE_D, INCLUSIVE, "area"),
        PolyQ((0, 0, 0, 0, 0, 2)),
    )
    two = PolyQ((1, 1))
    yield expect("ballot tail (0,3)", q_b(0, 3), two * PolyQ((1, 0, 1)) * PolyQ((1, 0, 0, 1)))
    yield expect("ballot tail (1,2)", q_b(1, 2), two * PolyQ((1, 0, 1)) * PolyQ((1, 0, 1)))
    if k >= 6:
        poly = genfun_lower(PathWord("DDUUDD"), TYPE_D, "art")
        yield expect("DDUUDD count", poly.eval_at_one(), 36)
        yield expect("DDUUDD q^5 coefficient", poly.coeffs[5], 6)
        yield expect(
            "tree value DUUDUU",
            omega(build_tree(PathWord("DUUDUU"))),
            q_int(3) * q_int(6),
        )


# name -> check.  Both tree checks skip stuck trees from length 6 on.
CHECKS = {
    "golden-matrices": _check_golden_matrices,
    "matrix-bridge": _check_matrix_bridge,
    "matrix-positivity": _check_matrix_positivity,
    "lower-sum-projection": _check_lower_projection,
    "upper-sum-tiles": _check_upper_tiles,
    "upper-sum-product": _check_upper_product,
    "tail-product": _check_tail_product,
    "ballot-tail-product": _check_ballot_tail,
    "hook-product": _check_hook_product,
    "tree-evaluation": _check_tree_evaluation,
    "merge-confluence": _check_merge_confluence,
    "pinned-values": _check_pinned_values,
}


def run_check(name: str, k: int) -> dict:
    """Run one registry check at length k and report on it."""
    start = time.perf_counter()
    outcomes = list(CHECKS[name](k))
    failures = [o for o in outcomes if o is not None and o is not SKIPPED]
    return {
        "name": name,
        "passed": not failures,
        "cases": len(outcomes),
        "skipped": sum(o is SKIPPED for o in outcomes),
        "failures": failures,
        "bound": k,
        "seconds": time.perf_counter() - start,
    }


def cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.max_length < 0:
        parser.error("--max-length must be nonnegative")
    if args.max_length > LENGTH_CAP and not args.allow_long:
        parser.error(
            "--max-length %d exceeds the cap %d; pass --allow-long to lift it"
            % (args.max_length, LENGTH_CAP)
        )
    report = [run_check(name, args.max_length) for name in CHECKS]
    all_pass = all(r["passed"] for r in report)
    if args.json:
        print(
            json.dumps(
                {
                    "max_length": args.max_length,
                    "checks": report,
                    "all_pass": all_pass,
                },
                sort_keys=True,
            )
        )
    else:
        width = max(len(r["name"]) for r in report)
        for r in report:
            note = ""
            if r["skipped"]:
                note = "  (%d stuck trees skipped)" % r["skipped"]
            print(
                "%s  %s  %d cases%s"
                % (
                    r["name"].ljust(width),
                    "pass" if r["passed"] else "FAIL",
                    r["cases"],
                    note,
                )
            )
            for line in r["failures"][:5]:
                print("    %s" % line)
            if len(r["failures"]) > 5:
                print("    ... and %d more" % (len(r["failures"]) - 5))
        print("all checks passed" if all_pass else "some checks FAILED")
    return EXIT_OK if all_pass else EXIT_IDENTITY


# -- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dycktile",
        description="incidence matrices, tiling generating functions, "
        "decorated trees, and the identity suite",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--allow-long",
        action="store_true",
        help="lift the length cap of %d" % LENGTH_CAP,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matrix", parents=[common], help="print an incidence matrix")
    p.add_argument("--n", type=int, required=True, help="word length of the basis")
    p.add_argument("--epsilon", type=int, choices=(0, 1), default=0)
    p.add_argument("--kind", choices=("M", "N", "Minv", "Ninv"), default="M")
    p.add_argument("--format", choices=("text", "json", "csv", "latex"), default="text")
    p.set_defaults(fn=cmd_matrix)

    p = sub.add_parser("genfun", parents=[common], help="print a generating function")
    p.add_argument("--lambda", dest="lam", required=True, metavar="WORD")
    p.add_argument(
        "--mu",
        metavar="WORD",
        help="upper word; when absent, the cover-inclusive sum over all upper words",
    )
    p.add_argument("--type", dest="family", choices=(TYPE_A, TYPE_B, TYPE_D), default=TYPE_D)
    p.add_argument("--weight", choices=WEIGHTS, default="art")
    p.add_argument("--class", dest="cls", choices=(INCLUSIVE, EXCLUSIVE), default=INCLUSIVE)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_genfun)

    p = sub.add_parser("tilings", parents=[common], help="list or render tilings")
    p.add_argument("--lambda", dest="lam", required=True, metavar="WORD")
    p.add_argument(
        "--mu",
        metavar="WORD",
        help="upper word; when absent, the cover-inclusive tilings over all upper words",
    )
    p.add_argument("--type", dest="family", choices=(TYPE_A, TYPE_B, TYPE_D), default=TYPE_D)
    p.add_argument("--class", dest="cls", choices=(INCLUSIVE, EXCLUSIVE), default=INCLUSIVE)
    p.add_argument("--filter-art", type=int, help="keep tilings with this art value")
    p.add_argument("--render", metavar="DIR", help="write one SVG per tiling plus a manifest")
    p.set_defaults(fn=cmd_tilings)

    p = sub.add_parser("tree", parents=[common], help="print a decorated tree")
    p.add_argument("--lambda", dest="lam", required=True, metavar="WORD")
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.set_defaults(fn=cmd_tree)

    p = sub.add_parser("verify", parents=[common], help="run the identity suite")
    p.add_argument("--max-length", type=int, default=5)
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.fn(args, parser)


if __name__ == "__main__":
    sys.exit(main())
