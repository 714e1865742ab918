"""The benchmark's four workloads: seeded pools of operations, each with
its correctness oracle.

An operation is a zero-argument callable that returns ``None`` when the
program's outcome is correct and a description of what was wrong
otherwise; an exception it raises also counts as a failed operation.  The
pool for one seed has a fixed composition (the traffic mix), and its
order interleaves the kinds of operation evenly, so any stretch of the
closed loop sees about the same mix whatever the seed and run length.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from homkit import (
    Matrix, OperatorContext, PreconditionError, check_algebra,
    check_matched_pair, check_morphism_property, check_relative_rbo,
    check_representation, generate_constraints, induced_algebra,
    induced_representation, matched_sum, projection_context,
    regular_representation, semidirect_product, solve, verify_solution,
)
from homkit.cli import main as cli_main
from homkit.dsl import DocAlgebra, DocMap, DocRepresentation, Document, parse, serialize
from homkit.fixtures import (
    leibniz_rbo, two_dim_associative, two_dim_leibniz, two_dim_poisson,
)

import generators as gen


class Op:
    __slots__ = ("label", "run")

    def __init__(self, label: str, run):
        self.label = label
        self.run = run


class Workload:
    """A pool of operations in loop order, the traffic mix it was built
    with, and, for ``cli``, the in-process twin of each call."""

    def __init__(self, ops: list[Op], mix: dict, inprocess: list[Op] | None = None):
        self.ops = ops
        self.mix = mix
        self.inprocess = inprocess
        self.statuses: Counter = Counter()

    def peak_rss_mb(self) -> float:
        # Only ``cli`` runs its operations in child processes.
        who = resource.RUSAGE_CHILDREN if self.inprocess else resource.RUSAGE_SELF
        return resource.getrusage(who).ru_maxrss / 1024.0


def interleave(strata: list[list[Op]]) -> list[Op]:
    """Merge the strata so each one is spread evenly over the result
    (smooth weighted round robin, weights = stratum sizes)."""
    total = sum(len(s) for s in strata)
    credit = [0] * len(strata)
    taken = [0] * len(strata)
    out = []
    for _ in range(total):
        for k, s in enumerate(strata):
            credit[k] += len(s)
        k = max((k for k in range(len(strata)) if taken[k] < len(strata[k])),
                key=lambda k: credit[k])
        credit[k] -= total
        out.append(strata[k][taken[k]])
        taken[k] += 1
    return out


def _tally(mix: dict, key: str, value) -> None:
    mix.setdefault(key, Counter())[str(value)] += 1


# ---- audit -------------------------------------------------------------

# Semidirect-product bases of dim 4-6, one per row and cycle:
# (seed algebra, representation it is built with, that carrier,
#  representation audited on it, its carrier, corrupted).
AUDIT_LARGE = (
    ("lie2", "zero", 1, "regular", 0, False),
    ("A2leib", "regular", 0, "zero", 2, False),
    ("dual_numbers", "pullback", 0, "regular", 0, False),
    ("truncated3", "zero", 2, "zero", 3, False),
    ("heisenberg3", "zero", 1, "regular", 0, True),
    ("poisson_dot", "zero", 1, "zero", 2, True),
    ("heisenberg3", "regular", 0, "zero", 3, False),
    ("truncated3", "regular", 0, "regular", 0, False),
)
AUDIT_CYCLES = 6
REP_KINDS = ("regular", "pullback", "twisted", "zero")


def _rep_op(alg, rep, corrupted: bool):
    def run():
        rep_ok = check_representation(rep, alg).passed
        sd_ok = check_algebra(semidirect_product(alg, rep)).passed
        if corrupted:
            if rep_ok != sd_ok:
                return f"representation verdict {rep_ok} but semidirect verdict {sd_ok}"
        elif not (rep_ok and sd_ok):
            return f"valid instance rejected: representation {rep_ok}, semidirect {sd_ok}"
        return None
    return run


def _context_op(alg, rep, shift):
    """Projection context, optionally with one entry of T shifted by
    ``shift = (row, col, delta)``."""
    def run():
        ctx = projection_context(alg, rep)
        if shift is not None:
            r, c, delta = shift
            rows = [list(row) for row in ctx.t.entries]
            rows[r][c] += delta
            ctx = OperatorContext(ctx.alg, ctx.rep, Matrix(rows))
        if not check_relative_rbo(ctx).passed:
            if shift is None:
                return "projection operator fails the relative Rota-Baxter check"
            try:
                induced_algebra(ctx)
            except PreconditionError:
                return None
            return "induced_algebra accepted an operator that fails the check"
        induced = induced_algebra(ctx)
        if not check_algebra(induced).passed:
            return "induced algebra fails its checks"
        if not check_morphism_property(ctx).passed:
            return "operator is not a morphism from the induced algebra"
        if not check_representation(induced_representation(ctx), induced).passed:
            return "induced representation fails its axioms"
        return None
    return run


def _matched_op(mp, expect_pass: bool, semidirect=None):
    def run():
        ok = check_matched_pair(mp).passed
        total = matched_sum(mp)
        sum_ok = check_algebra(total).passed
        if ok != expect_pass or sum_ok != ok:
            return f"matched pair verdict {ok}, sum verdict {sum_ok}, expected {expect_pass}"
        if semidirect is not None and (total.dot, total.bracket, total.alpha) != (
                semidirect.dot, semidirect.bracket, semidirect.alpha):
            return "degenerate matched sum differs from the semidirect product"
        return None
    return run


def build_audit(rng: random.Random) -> Workload:
    mix: dict = {}

    def note(alg, rep, kind, corrupted):
        _tally(mix, "instance", kind)
        _tally(mix, "base_dim", alg.dim)
        _tally(mix, "carrier_dim", rep.carrier_dim)
        _tally(mix, "kind", alg.kind)
        _tally(mix, "corrupted", corrupted)

    ops = []
    for cycle in range(AUDIT_CYCLES):
        bases = gen.base_algebras(rng)
        by_label = {b.label: b for b in bases}
        valid, corrupt, contexts, bad_contexts, matched, large = [], [], [], [], [], []
        for k, base in enumerate(bases):
            alg = base.alg
            # Rotating kinds and carriers keeps the mix the same for every seed.
            how = REP_KINDS[(k + cycle) % len(REP_KINDS)]
            rep = gen.representation(rng, base, how, (k + cycle) % 4)
            valid.append(Op(f"rep/{base.label}/{how}", _rep_op(alg, rep, False)))
            note(alg, rep, "representation", False)
            # Corrupt a representation with a nonzero carrier.
            target = rep if rep.carrier_dim else regular_representation(alg)
            corrupt.append(Op(f"rep!/{base.label}/{how}",
                              _rep_op(alg, gen.corrupt_rep(rng, target), True)))
            note(alg, target, "representation", True)
            how = REP_KINDS[(k + cycle + 1) % len(REP_KINDS)]
            rep = gen.representation(rng, base, how, (k + cycle + 2) % 4)
            contexts.append(Op(f"ctx/{base.label}/{how}", _context_op(alg, rep, None)))
            note(alg, rep, "operator_context", False)
            if k % 2 == cycle % 2:
                width = alg.dim + rep.carrier_dim
                shift = (rng.randrange(alg.dim), rng.randrange(width),
                         rng.choice((1, -1, 2, Fraction(1, 2))))
                bad_contexts.append(Op(f"ctx!/{base.label}/{how}",
                                       _context_op(alg, rep, shift)))
                note(alg, rep, "operator_context", True)
        for label in ("A2leib", "heisenberg3"):
            base = by_label[label]
            rep = gen.representation(rng, base, REP_KINDS[cycle % 3])
            sd = semidirect_product(base.alg, rep)
            matched.append(Op(f"matched/{label}", _matched_op(
                gen.degenerate_pair(base.alg, rep), True, sd)))
            note(base.alg, rep, "matched_pair", False)
        scale = rng.choice((0, 1, -1, 2, Fraction(1, 2)))
        mp = gen.nilpotent_cross_pair(scale)
        matched.append(Op(f"matched/nilpotent/{scale}", _matched_op(mp, scale == 0)))
        note(mp.a1, mp.actions_1_on_2, "matched_pair", scale != 0)
        for label, via, via_carrier, how, carrier, corrupted in AUDIT_LARGE:
            base = gen.semidirect_base(rng, by_label[label], via, via_carrier)
            rep = gen.representation(rng, base, how, carrier)
            if corrupted:
                rep = gen.corrupt_rep(rng, rep)
            large.append(Op(f"rep{'!' if corrupted else ''}/{base.label}/{how}",
                            _rep_op(base.alg, rep, corrupted)))
            note(base.alg, rep, "representation", corrupted)
        ops += interleave([valid, corrupt, contexts, bad_contexts, matched, large])
    return Workload(ops, mix)


# ---- solve -------------------------------------------------------------

SOLVE_CYCLES = 12
# Dim-4 semidirect bases: (seed algebra, representation it is built with,
# that carrier, representation solved on it, its carrier).
SOLVE_LARGE = (
    ("A2leib", "zero", 2, "regular", 0),
    ("dual_numbers", "zero", 2, "regular", 0),
    ("lie2", "zero", 2, "zero", 4),
    ("poisson_bracket", "zero", 2, "regular", 0),
    ("lie2", "regular", 0, "zero", 3),
    ("poisson_dot", "regular", 0, "zero", 4),
)


def _known(status: str, check):
    def expect(sol):
        if sol.status != status or not check(sol):
            return f"known answer changed: got {sol.status}"
        return None
    return expect


def _zero_only(sol):
    return sol.points == (Matrix.zero(2, 2),)


def _leibniz_family(sol):
    # T(e1) = 0, T(e2) = t e1 + 2t e2.
    fam = sol.family
    if fam.dim != 1 or not fam.particular.is_zero():
        return False
    b = fam.basis[0]
    return b[0, 0] == 0 and b[1, 0] == 0 and b[0, 1] != 0 and b[1, 1] == 2 * b[0, 1]


KNOWN_ANSWERS = (
    ("A2assoc", two_dim_associative, _known("finite", _zero_only)),
    ("A2leib", two_dim_leibniz, _known("affine_family", _leibniz_family)),
    ("A2poisson", two_dim_poisson, _known("finite", _zero_only)),
)


def _solve_op(alg, rep, statuses: Counter, expect=None):
    def run():
        sol = solve(generate_constraints(alg, rep))
        statuses[sol.status] += 1
        if sol.status != "residual":
            verify_solution(alg, rep, sol)  # raises SoundnessError
        return expect(sol) if expect is not None else None
    return run


def build_solve(rng: random.Random) -> Workload:
    mix: dict = {}
    statuses: Counter = Counter()

    def note(alg, rep):
        _tally(mix, "unknowns", alg.dim * rep.carrier_dim)
        _tally(mix, "kind", alg.kind)
        _tally(mix, "base_dim", alg.dim)

    ops = []
    for cycle in range(SOLVE_CYCLES):
        bases = gen.base_algebras(rng)
        by_label = {b.label: b for b in bases}
        plain, zero, large, known = [], [], [], []
        for k, base in enumerate(bases):
            how = REP_KINDS[(k + cycle) % 3]
            rep = gen.representation(rng, base, how)
            plain.append(Op(f"solve/{base.label}/{how}",
                            _solve_op(base.alg, rep, statuses)))
            note(base.alg, rep)
            rep = gen.representation(rng, base, "zero", 2 + (k + cycle) % 4)
            zero.append(Op(f"solve/{base.label}/zero{rep.carrier_dim}",
                           _solve_op(base.alg, rep, statuses)))
            note(base.alg, rep)
        for label, via, via_carrier, how, carrier in SOLVE_LARGE:
            base = gen.semidirect_base(rng, by_label[label], via, via_carrier)
            rep = gen.representation(rng, base, how, carrier)
            large.append(Op(f"solve/{base.label}/{how}{rep.carrier_dim}",
                            _solve_op(base.alg, rep, statuses)))
            note(base.alg, rep)
        for label, make, expect in KNOWN_ANSWERS:
            alg = make()
            rep = regular_representation(alg)
            known.append(Op(f"known/{label}", _solve_op(alg, rep, statuses, expect)))
            note(alg, rep)
        ops += interleave([plain, zero, large, known])
    wl = Workload(ops, mix)
    wl.statuses = statuses
    return wl


# ---- document ----------------------------------------------------------

SMALL_DOCS = 100
LARGE_DIMS = tuple(range(20, 61, 2))


def _document_op(doc: Document, text: str):
    def run():
        parsed = parse(text)
        out = serialize(parsed)
        again = parse(out)
        if parsed != doc:
            return "parsed document differs from the generated one"
        if again != parsed:
            return "parse(serialize(d)) != d"
        if out != text:
            return "serialization is not idempotent"
        return None
    return run


def build_document(rng: random.Random) -> Workload:
    mix: dict = {}
    small, large = [], []
    sizes = []
    for k in range(SMALL_DOCS):
        doc = gen.small_document(rng, k)
        text = serialize(doc)
        small.append(Op(f"doc/small{k}", _document_op(doc, text)))
        sizes.append(len(text))
        for item in doc.items:
            if isinstance(item, DocAlgebra):
                _tally(mix, "dim", item.algebra.dim)
                _tally(mix, "kind", item.algebra.kind)
    for dim in LARGE_DIMS:
        doc = gen.sparse_document(rng, dim)
        text = serialize(doc)
        large.append(Op(f"doc/sparse{dim}", _document_op(doc, text)))
        sizes.append(len(text))
        _tally(mix, "dim", dim)
        _tally(mix, "kind", "poisson")
    rng.shuffle(large)
    sizes.sort()
    mix["bytes"] = {"min": sizes[0], "median": sizes[len(sizes) // 2],
                    "max": sizes[-1], "large_share": len(large) / len(sizes)}
    return Workload(interleave([small, large]), mix)


# ---- cli ---------------------------------------------------------------

# One row per call: argv after the file name is filled in with the
# document's object names, then the exit code the call must give.
CLI_CALLS = (
    (("check", "{doc}", "A2leib"), 0),
    (("check", "{doc}", "A2assoc"), 1),
    (("check", "{doc}", "L"), 0),
    (("check-rep", "{doc}", "A2leib", "reg"), 0),
    (("check-rep", "{doc}", "L", "pull"), 0),
    (("solve-rbo", "{doc}", "A2leib"), 0),
    (("solve-rbo", "{doc}", "L"), 0),
    (("solve-rbo", "{doc}", "A2assoc", "--format", "json"), 0),
    (("solve-rbo", "{doc}", "L", "--format", "json"), 0),
    (("semidirect", "{doc}", "A2leib", "reg", "--verify"), 0),
    (("semidirect", "{doc}", "L", "pull", "--verify"), 0),
    (("twist", "{doc}", "L", "--by", "beta"), 0),
    (("induce", "{doc}", "A2leib", "--t", "T"), 0),
    (("check", "{bad}", "A2leib"), 2),
    (("check", "{doc}", "Missing"), 2),
    (("twist", "{doc}", "A2leib", "--by", "Missing"), 2),
)


def cli_document(rng: random.Random) -> Document:
    """The three fixtures, a transported verified algebra ``L`` with a
    self-morphism ``beta`` and a pullback representation ``pull``, and a
    relative Rota-Baxter operator ``T`` with the regular representation
    ``reg`` of the Leibniz fixture."""
    leib = two_dim_leibniz()
    bases = [b for b in gen.base_algebras(rng) if b.alg.dim == 2 and b.morphisms]
    base = rng.choice(bases)
    beta = rng.choice(base.morphisms)
    return Document([
        DocAlgebra("A2assoc", two_dim_associative()),
        DocAlgebra("A2leib", leib),
        DocAlgebra("A2poisson", two_dim_poisson()),
        DocMap("T", "A2leib", "A2leib", leibniz_rbo(rng.choice((1, -1, 2, 3)))),
        DocRepresentation("reg", "A2leib", regular_representation(leib)),
        DocAlgebra("L", base.alg),
        DocMap("beta", "L", "L", beta),
        DocRepresentation("pull", "L", gen.representation(rng, base, "pullback")),
    ])


def run_main(argv: list[str]) -> tuple[int, str]:
    """``homkit.cli.main`` in this process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as e:  # argparse rejects the command line
            code = e.code
    return code, out.getvalue()


def _same_output(argv, got: str, want: str) -> bool:
    if "json" in argv:
        return json.loads(got) == json.loads(want)
    return got == want


def _process_op(argv, code, expected_out, env):
    def run():
        proc = subprocess.run([sys.executable, "-m", "homkit.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != code:
            return f"exit code {proc.returncode}, expected {code}"
        if not _same_output(argv, proc.stdout, expected_out):
            return "output differs from the in-process result"
        return None
    return run


def _inprocess_op(argv, code, expected_out):
    def run():
        got, out = run_main(argv)
        if got != code:
            return f"exit code {got}, expected {code}"
        if not _same_output(argv, out, expected_out):
            return "output differs from the first in-process result"
        return None
    return run


def build_cli(rng: random.Random, workdir: Path, env: dict) -> Workload:
    doc = workdir / "doc.hla"
    bad = workdir / "bad.hla"
    doc.write_text(serialize(cli_document(rng)), encoding="ascii")
    bad.write_text("algebra X {\n  dim 2\n  kind leibniz\n  bracket { [e1,e3] = e1 }\n}\n",
                   encoding="ascii")
    mix: dict = {}
    ops, twins = [], []
    for argv, code in CLI_CALLS:
        argv = [a.format(doc=doc, bad=bad) for a in argv]
        got, out = run_main(argv)
        if got != code:
            raise AssertionError(f"in-process {argv[0]} exits {got}, expected {code}")
        label = "cli/" + " ".join(a if a not in (str(doc), str(bad)) else Path(a).name
                                  for a in argv)
        ops.append(Op(label, _process_op(argv, code, out, env)))
        twins.append(Op(label, _inprocess_op(argv, code, out)))
        _tally(mix, "command", argv[0] + (" json" if "json" in argv else ""))
        _tally(mix, "exit", code)
    order = list(range(len(ops)))
    rng.shuffle(order)
    mix["doc_bytes"] = doc.stat().st_size
    return Workload([ops[i] for i in order], mix, [twins[i] for i in order])


def build(name: str, seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    if name == "audit":
        return build_audit(rng)
    if name == "solve":
        return build_solve(rng)
    if name == "document":
        return build_document(rng)
    if name == "cli":
        return build_cli(rng, workdir, child_env())
    raise ValueError(f"unknown workload {name!r}")


def child_env() -> dict:
    """Environment for child interpreters: this process's, with the
    imported homkit's source directory first on the path."""
    src = str(Path(sys.modules["homkit"].__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)
