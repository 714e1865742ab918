"""Command line interface: batch checks, solving, and constructions.

Subcommands::

    homkit check FILE NAME            run every checker that applies to the
                                      named algebra; exit 0 iff all pass
    homkit check-rep FILE ALG REP     representation axioms
    homkit solve-rbo FILE ALG [--rep REP]
                                      solve for relative Rota-Baxter
                                      operators (default: regular
                                      representation)
    homkit semidirect FILE ALG REP    semidirect product algebra
    homkit matched-sum FILE A1 A2 REP12 REP21
                                      bicrossed sum of a matched pair
    homkit twist FILE ALG --by MAP    twist products by a self-morphism
    homkit deform FILE ALG --nijenhuis MAP
                                      deform products by a Nijenhuis operator
    homkit induce FILE ALG --t MAP [--rep REP]
                                      algebra induced on the carrier by a
                                      relative Rota-Baxter operator

Constructions print the result in DSL form (name it with --as); --verify
re-runs the applicable checks on the output and appends them as comment
lines, failing with exit 1 if any check fails.  Every report has a
machine readable variant via --format=json.  Exit codes: 0 success,
1 check failure, 2 input error, 3 internal error (a fault in homkit
itself, such as a solution failing its re-verification; reported as one
``internal error: ...`` line on stderr).
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import TYPE_CHECKING

from .algebra import check_algebra, yau_twist
from .dsl import DocAlgebra, DocRepresentation, Document, parse, serialize
from .errors import (
    KindMismatchError, ParseError, PreconditionError, ShapeError, UnknownNameError,
)
from .linalg import format_lincomb
from .representation import (
    check_representation, regular_representation, semidirect_product,
)
from .reporting import CheckReport

# The solver, the operator constructions, matched pairs and ``json`` are
# imported where they are used, so each subcommand loads only what it runs.
if TYPE_CHECKING:
    from .solver import SolutionSet

# What bad input raises; a file that is not UTF-8 fails as it is read.
INPUT_ERRORS = (ParseError, PreconditionError, ShapeError, KindMismatchError,
                UnknownNameError, OSError, UnicodeDecodeError)


def _load(path: str) -> Document:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _witness_json(witness):
    if witness is None:
        return None
    return {"indices": [i + 1 for i in witness.indices],
            "residual": [str(c) for c in witness.residual.entries]}


def _report_json(obj: str, report: CheckReport):
    return [{"object": obj, "identity": c.identity, "pass": c.passed,
             "witness": _witness_json(c.witness)} for c in report]


def _emit_report(obj: str, report: CheckReport, fmt: str) -> int:
    if fmt == "json":
        import json
        print(json.dumps(_report_json(obj, report), indent=2))
    else:
        for c in report:
            print(c.render())
    return 0 if report.passed else 1


def _get_rep_for(doc: Document, name: str, alg_name: str):
    item = doc.representation(name)
    if item.base != alg_name:
        raise UnknownNameError(f"representation {name!r} is on {item.base!r},"
                               f" not {alg_name!r}")
    return item.rep


def cmd_check(args) -> int:
    doc = _load(args.file)
    item = doc.get(args.name)
    if isinstance(item, DocAlgebra):
        return _emit_report(args.name, check_algebra(item.algebra), args.format)
    if isinstance(item, DocRepresentation):
        base = doc.algebra(item.base)
        return _emit_report(args.name, check_representation(item.rep, base),
                            args.format)
    raise UnknownNameError(f"no algebra or representation named {args.name!r}")


def cmd_check_rep(args) -> int:
    doc = _load(args.file)
    alg = doc.algebra(args.algebra)
    rep = _get_rep_for(doc, args.rep, args.algebra)
    return _emit_report(args.rep, check_representation(rep, alg), args.format)


def _symbolic_columns(family, cols: int, rows: int, symbol: str):
    """Render each column of a parameterized matrix as a string."""
    out = []
    for j in range(cols):
        parts = []
        for i in range(rows):
            terms = []
            const = family.particular[i, j]
            if const != 0:
                terms.append(str(const))
            for name, basis in zip(family.params, family.basis):
                c = basis[i, j]
                if c == 0:
                    continue
                terms.append(name if c == 1 else f"{c} {name}")
            if not terms:
                continue
            coeff = " + ".join(terms)
            if len(terms) > 1:
                coeff = f"({coeff})"
            parts.append(f"{coeff} e{i + 1}")
        out.append(f"T({symbol}{j + 1}) = " + (" + ".join(parts) if parts else "0"))
    return out


def _matrix_json(m):
    return [[str(e) for e in row] for row in m.entries]


def _solution_json(sol: SolutionSet):
    data = {"status": sol.status}
    if sol.status == "finite":
        data["points"] = [_matrix_json(p) for p in sol.points]
    elif sol.status == "affine_family":
        data["family"] = {
            "params": list(sol.family.params),
            "particular": _matrix_json(sol.family.particular),
            "basis": [_matrix_json(b) for b in sol.family.basis],
        }
    else:
        data["residual"] = sol.residual.render().splitlines()
    return data


def cmd_solve_rbo(args) -> int:
    from .solver import solve_relative_rbo
    doc = _load(args.file)
    alg = doc.algebra(args.algebra)
    if args.rep:
        rep = _get_rep_for(doc, args.rep, args.algebra)
        symbol = "f"
    else:
        rep = regular_representation(alg)
        symbol = "e"
    sol = solve_relative_rbo(alg, rep)
    if args.format == "json":
        import json
        print(json.dumps(_solution_json(sol), indent=2))
        return 0
    if sol.status == "finite":
        if len(sol.points) == 1 and sol.points[0].is_zero():
            print("finite: { T = 0 }")
        else:
            print(f"finite: {len(sol.points)} solution(s)")
            for p in sol.points:
                cols = "; ".join(
                    f"T({symbol}{j + 1}) = {format_lincomb(p.col(j), 'e')}"
                    for j in range(p.cols))
                print(f"  {{ {cols} }}")
    elif sol.status == "affine_family":
        print(f"family: {', '.join(sol.family.params)} free; "
              + "; ".join(_symbolic_columns(
                  sol.family, sol.family.particular.cols,
                  sol.family.particular.rows, symbol)))
    else:
        print("residual: unsolved equations remain")
        for line in sol.residual.render().splitlines():
            print(f"  {line}")
    return 0


def _emit_algebra(args, out) -> int:
    """Print a constructed algebra as ``--as`` and, with ``--verify``, its checks."""
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", args.name):
        raise PreconditionError(f"invalid object name {args.name!r}")
    report = check_algebra(out) if args.verify else None
    text = serialize(Document([DocAlgebra(args.name, out)]))
    if args.format == "json":
        import json
        payload = {"object": args.name, "dsl": text}
        if report is not None:
            payload["checks"] = _report_json(args.name, report)
        print(json.dumps(payload, indent=2))
    else:
        sys.stdout.write(text)
        if report is not None:
            for c in report:
                print(f"# {c.render()}")
    if report is not None and not report.passed:
        return 1
    return 0


def cmd_semidirect(args) -> int:
    doc = _load(args.file)
    alg = doc.algebra(args.algebra)
    rep = _get_rep_for(doc, args.rep, args.algebra)
    return _emit_algebra(args, semidirect_product(alg, rep))


def cmd_matched_sum(args) -> int:
    from .matched import MatchedPair, matched_sum
    doc = _load(args.file)
    a1 = doc.algebra(args.a1)
    a2 = doc.algebra(args.a2)
    rep12 = _get_rep_for(doc, args.rep12, args.a1)
    rep21 = _get_rep_for(doc, args.rep21, args.a2)
    return _emit_algebra(args, matched_sum(MatchedPair(a1, a2, rep12, rep21)))


def cmd_twist(args) -> int:
    doc = _load(args.file)
    alg = doc.algebra(args.algebra)
    beta = doc.map(args.by).matrix
    return _emit_algebra(args, yau_twist(alg, beta))


def cmd_deform(args) -> int:
    from .operators import nijenhuis_deform
    doc = _load(args.file)
    alg = doc.algebra(args.algebra)
    n = doc.map(args.nijenhuis).matrix
    return _emit_algebra(args, nijenhuis_deform(alg, n))


def cmd_induce(args) -> int:
    from .operators import OperatorContext, induced_algebra
    doc = _load(args.file)
    alg = doc.algebra(args.algebra)
    if args.rep:
        rep = _get_rep_for(doc, args.rep, args.algebra)
    else:
        rep = regular_representation(alg)
    t = doc.map(args.t).matrix
    return _emit_algebra(args, induced_algebra(OperatorContext(alg, rep, t)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homkit",
        description="Exact checks, constructions, and operator solving for "
                    "Hom-associative, Hom-Leibniz, and Hom-Leibniz Poisson "
                    "algebras given by structure constants.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, construction=False):
        p.add_argument("--format", choices=("text", "json"), default="text")
        if construction:
            p.add_argument("--as", dest="name", default="result",
                           help="name for the constructed object")
            p.add_argument("--verify", action="store_true",
                           help="re-check the output and report")

    p = sub.add_parser("check", help="run all applicable checks on one object")
    p.add_argument("file")
    p.add_argument("name")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("check-rep", help="representation axioms")
    p.add_argument("file")
    p.add_argument("algebra")
    p.add_argument("rep")
    common(p)
    p.set_defaults(fn=cmd_check_rep)

    p = sub.add_parser("solve-rbo",
                       help="solve for relative Rota-Baxter operators")
    p.add_argument("file")
    p.add_argument("algebra")
    p.add_argument("--rep", default=None)
    common(p)
    p.set_defaults(fn=cmd_solve_rbo)

    p = sub.add_parser("semidirect", help="semidirect product algebra")
    p.add_argument("file")
    p.add_argument("algebra")
    p.add_argument("rep")
    common(p, construction=True)
    p.set_defaults(fn=cmd_semidirect)

    p = sub.add_parser("matched-sum", help="bicrossed sum of a matched pair")
    p.add_argument("file")
    p.add_argument("a1")
    p.add_argument("a2")
    p.add_argument("rep12", help="representation of A1 on A2's space")
    p.add_argument("rep21", help="representation of A2 on A1's space")
    common(p, construction=True)
    p.set_defaults(fn=cmd_matched_sum)

    p = sub.add_parser("twist", help="twist products by a self-morphism")
    p.add_argument("file")
    p.add_argument("algebra")
    p.add_argument("--by", required=True, help="name of the twisting map")
    common(p, construction=True)
    p.set_defaults(fn=cmd_twist)

    p = sub.add_parser("deform", help="deform products by a Nijenhuis operator")
    p.add_argument("file")
    p.add_argument("algebra")
    p.add_argument("--nijenhuis", required=True, help="name of the operator map")
    common(p, construction=True)
    p.set_defaults(fn=cmd_deform)

    p = sub.add_parser("induce",
                       help="algebra induced by a relative Rota-Baxter operator")
    p.add_argument("file")
    p.add_argument("algebra")
    p.add_argument("--t", required=True, help="name of the operator map")
    p.add_argument("--rep", default=None)
    common(p, construction=True)
    p.set_defaults(fn=cmd_induce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # anything else is a fault in homkit, not in the input
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
