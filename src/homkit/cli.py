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

A map named by twist or deform must be declared ``ALG -> ALG``, and one
named by induce must map into ALG (and, without --rep, out of it);
any other map is an input error.

Constructions print the result in DSL form (name it with --as); --verify
re-runs the applicable checks on the output and appends them as comment
lines, failing with exit 1 if any check fails.  Every report has a
machine readable variant via --format=json.  Exit codes: 0 success,
1 check failure, 2 input error (including a FILE that cannot be read or
is not UTF-8), 3 internal error (a fault in homkit itself, such as a
solution failing its re-verification, or a failure to write the output;
reported as one ``internal error: ...`` line on stderr).
"""

from __future__ import annotations

import argparse
import os
import re
import sys

import homkit

from .algebra import HomAlgebra, check_algebra, yau_twist
from .dsl import DocAlgebra, DocRepresentation, Document, parse, serialize
from .errors import (
    KindMismatchError, ParseError, PreconditionError, ShapeError, UnknownNameError,
)
from .linalg import _format_terms, format_lincomb
from .representation import (
    check_representation, regular_representation, semidirect_product,
)
from .reporting import CheckReport

# What bad input raises once the file is read.
INPUT_ERRORS = (ParseError, PreconditionError, ShapeError, KindMismatchError,
                UnknownNameError)


def _rep(doc: Document, alg: str, name: str | None):
    """The representation ``name`` of the algebra named ``alg``, or its
    regular representation if ``name`` is None; an unknown algebra is
    reported before an unknown representation."""
    base = doc.algebra(alg)
    if name is None:
        return regular_representation(base)
    item = doc.representation(name)
    if item.base != alg:
        raise UnknownNameError(f"representation {name!r} is on {item.base!r},"
                               f" not {alg!r}")
    return item.rep


def _map(doc: Document, name: str, alg: str, source: bool = True):
    """The matrix of the map ``name``, declared into the algebra named
    ``alg`` and, if ``source``, out of it too."""
    item = doc.map(name)
    if item.dst != alg:
        where = f"on {item.dst!r}" if item.src == item.dst else f"into {item.dst!r}"
    elif source and item.src != alg:
        where = f"from {item.src!r}"
    else:
        return item.matrix
    raise UnknownNameError(f"map {name!r} is {where}, not {alg!r}")


def _check(doc: Document, args) -> tuple[str, CheckReport]:
    name = args.name
    item = doc.get(name)
    if isinstance(item, DocAlgebra):
        return name, check_algebra(item.algebra)
    if isinstance(item, DocRepresentation):
        return name, check_representation(item.rep, doc.algebra(item.base))
    raise UnknownNameError(f"no algebra or representation named {name!r}")


def _solve(doc: Document, args):
    """The solution set, written in ``f<j>`` for a named representation and
    in ``e<j>`` for the regular one, checked again by the solver (exit 3 if wrong)."""
    sol = homkit.solver.solve_relative_rbo(doc.algebra(args.algebra),
                                           _rep(doc, args.algebra, args.rep))
    return ("f" if args.rep else "e"), sol


def _matched_sum(doc: Document, args) -> tuple[str, HomAlgebra]:
    pair = homkit.matched.MatchedPair(doc.algebra(args.a1), doc.algebra(args.a2),
                                      _rep(doc, args.a1, args.rep12),
                                      _rep(doc, args.a2, args.rep21))
    return args.name, homkit.matched.matched_sum(pair)


def _induce(doc: Document, args) -> tuple[str, HomAlgebra]:
    """The operator maps into the algebra, out of it for the regular representation."""
    context = homkit.operators.OperatorContext(
        doc.algebra(args.algebra), _rep(doc, args.algebra, args.rep),
        _map(doc, args.t, args.algebra, source=args.rep is None))
    return args.name, homkit.operators.induced_algebra(context)


_FORMAT = ("--format", {"choices": ("text", "json"), "default": "text"})
_BUILD = (_FORMAT,
          ("--as", {"dest": "name", "default": "result",
                    "help": "name for the constructed object"}),
          ("--verify", {"action": "store_true", "help": "re-check the output and report"}))

# Each subcommand: its help, its arguments after FILE (a name, or a flag
# and its options), and what it runs on the loaded document and the parsed
# arguments.  That returns a label and a result, printed by the result's
# type: the check report of the object so named, a solution set written in
# the label's symbol, or an algebra constructed under the ``--as`` name
# (``_BUILD``).  The solver, the operator constructions and matched pairs
# load on first use (``homkit.<module>``), so each subcommand imports only
# what it runs.
COMMANDS = {
    "check": ("run all applicable checks on one object", ("name", _FORMAT), _check),
    "check-rep": ("representation axioms", ("algebra", "rep", _FORMAT),
                  lambda doc, a: (a.rep, check_representation(_rep(doc, a.algebra, a.rep),
                                                              doc.algebra(a.algebra)))),
    "solve-rbo": ("solve for relative Rota-Baxter operators",
                  ("algebra", ("--rep", {"default": None}), _FORMAT), _solve),
    "semidirect": ("semidirect product algebra", ("algebra", "rep", *_BUILD),
                   lambda doc, a: (a.name, semidirect_product(doc.algebra(a.algebra),
                                                              _rep(doc, a.algebra, a.rep)))),
    "matched-sum": ("bicrossed sum of a matched pair", (
        "a1", "a2", ("rep12", {"help": "representation of A1 on A2's space"}),
        ("rep21", {"help": "representation of A2 on A1's space"}), *_BUILD), _matched_sum),
    "twist": ("twist products by a self-morphism",
              ("algebra", ("--by", {"required": True, "help": "name of the twisting map"}),
               *_BUILD),
              lambda doc, a: (a.name, yau_twist(doc.algebra(a.algebra),
                                                _map(doc, a.by, a.algebra)))),
    "deform": ("deform products by a Nijenhuis operator",
               ("algebra", ("--nijenhuis", {"required": True,
                                            "help": "name of the operator map"}), *_BUILD),
               lambda doc, a: (a.name, homkit.operators.nijenhuis_deform(
                   doc.algebra(a.algebra), _map(doc, a.nijenhuis, a.algebra)))),
    "induce": ("algebra induced by a relative Rota-Baxter operator",
               ("algebra", ("--t", {"required": True, "help": "name of the operator map"}),
                ("--rep", {"default": None}), *_BUILD), _induce),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homkit",
        description="Exact checks, constructions, and operator solving for "
                    "Hom-associative, Hom-Leibniz, and Hom-Leibniz Poisson "
                    "algebras given by structure constants.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, arguments, run) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for arg in ("file", *arguments):
            flag, options = (arg, {}) if isinstance(arg, str) else arg
            p.add_argument(flag, **options)
        p.set_defaults(run=run)
    return parser


def _witness_json(witness):
    if witness is None:
        return None
    return {"indices": [i + 1 for i in witness.indices],
            "residual": [str(c) for c in witness.residual.entries]}


def _report_json(obj: str, report: CheckReport):
    return [{"object": obj, "identity": c.identity, "pass": c.passed,
             "witness": _witness_json(c.witness)} for c in report]


def _matrix_json(m):
    return [[str(e) for e in row] for row in m.entries]


def _family_columns(family, symbol: str) -> list[str]:
    """``T(<symbol>j) = ...`` for each column of the family's general
    member; the coefficient of each ``e<i>`` is the constant and the
    parameter terms, in parentheses if more than one."""
    labels = ("", *family.params)
    out = []
    for j in range(family.particular.cols):
        terms = []
        for i in range(family.particular.rows):
            values = (family.particular[i, j], *(b[i, j] for b in family.basis))
            coeff = [(label, c.numerator, c.denominator) for label, c in zip(labels, values) if c]
            if len(coeff) == 1:
                (label, n, d), = coeff
                terms.append((f"{label} e{i + 1}".lstrip(), n, d))
            elif coeff:
                terms.append((f"({_format_terms(coeff)}) e{i + 1}", 1, 1))
        out.append(f"T({symbol}{j + 1}) = {_format_terms(terms)}")
    return out


def _solution(sol, symbol: str) -> tuple[dict, list[str]]:
    """The JSON data and the text lines of a solution set."""
    if sol.status == "finite":
        data = {"status": sol.status, "points": [_matrix_json(p) for p in sol.points]}
        if len(sol.points) == 1 and sol.points[0].is_zero():
            return data, ["finite: { T = 0 }"]
        return data, [f"finite: {len(sol.points)} solution(s)", *(
            "  { " + "; ".join(f"T({symbol}{j + 1}) = {format_lincomb(p.col(j))}"
                               for j in range(p.cols)) + " }" for p in sol.points)]
    if sol.status == "affine_family":
        f = sol.family
        data = {"status": sol.status, "family": {
            "params": list(f.params), "particular": _matrix_json(f.particular),
            "basis": [_matrix_json(b) for b in f.basis]}}
        return data, [f"family: {', '.join(f.params)} free; "
                      + "; ".join(_family_columns(f, symbol))]
    lines = sol.residual.render().splitlines()
    return ({"status": sol.status, "residual": lines},
            ["residual: unsolved equations remain", *(f"  {line}" for line in lines)])


def _show(label: str, result, args) -> int:
    """Print a command's result as text or JSON; exit 1 if it holds a
    failed check."""
    report = None
    if isinstance(result, CheckReport):
        report = result
        data, lines = _report_json(label, report), [c.render() for c in report]
    elif isinstance(result, HomAlgebra):
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", label):
            raise PreconditionError(f"invalid object name {label!r}")
        report = check_algebra(result) if args.verify else None
        dsl = serialize(Document([DocAlgebra(label, result)]))
        data, lines = {"object": label, "dsl": dsl}, [dsl.rstrip("\n")]
        if report is not None:
            data["checks"] = _report_json(label, report)
            lines += [f"# {c.render()}" for c in report]
    else:
        data, lines = _solution(result, label)
    try:
        if args.format == "json":
            import json
            print(json.dumps(data, indent=2))
        else:
            sys.stdout.write("".join(f"{line}\n" for line in lines))
        sys.stdout.flush()
    except OSError:
        # The unwritten output stays buffered, and flushing it again at
        # interpreter exit would fail with a second report and exit 120.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise
    return 0 if report is None or report.passed else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:  # the file, not homkit, is at fault
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        return _show(*args.run(parse(text), args), args)
    except INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # a fault in homkit, or the output cannot be written
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
