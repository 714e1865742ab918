"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact rational arithmetic; "passes" always means zero
residual, never a tolerance.  Wall-clock limits are asserted where the
criterion states one.
"""

import functools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from homkit.algebra import check_algebra, check_morphism
from homkit.cli import main as cli_main
from homkit.dsl import parse, serialize
from homkit.errors import ParseError
from homkit.fixtures import (
    leibniz_rbo, two_dim_associative, two_dim_leibniz, two_dim_poisson,
)
from homkit.linalg import Matrix, Vector, solve_linear
from homkit.matched import check_matched_pair, matched_sum
from homkit.operators import (
    OperatorContext, check_morphism_property, check_nijenhuis,
    check_relative_rbo, check_rota_baxter, graph_check, induced_algebra,
    induced_representation, lift_operator, nijenhuis_deform,
)
from homkit.representation import (
    check_representation, regular_representation, semidirect_product,
)
from homkit.solver import generate_constraints, solve

import support
from test_dsl import random_document
from test_matched import degenerate_pair, nilpotent_cross_pair

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = str(ROOT / "demos" / "fixtures.hla")
GOLDEN_AUDIT = ROOT / "tests" / "data" / "fixture_audit.txt"


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {description}")
                raise
            print(f"ACCEPTANCE {number}: PASS - {description}")
        return wrapper
    return deco


def solve_rbo_json(capsys, algebra_name):
    code = cli_main(["solve-rbo", FIXTURES, algebra_name, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


@criterion(1, "associative example: zero is the only operator")
def test_criterion_1_associative_solution_set(capsys):
    start = time.monotonic()
    data = solve_rbo_json(capsys, "A2assoc")
    assert data["status"] == "finite"
    assert data["points"] == [[["0", "0"], ["0", "0"]]]
    sol = solve(generate_constraints(two_dim_associative(),
                                     regular_representation(two_dim_associative())))
    assert sol.status == "finite" and sol.points == (Matrix.zero(2, 2),)
    assert time.monotonic() - start < 1.0


@criterion(2, "Leibniz example: the stated one-parameter family")
def test_criterion_2_leibniz_family(capsys):
    start = time.monotonic()
    data = solve_rbo_json(capsys, "A2leib")
    assert data["status"] == "affine_family"
    fam = data["family"]
    assert len(fam["params"]) == 1
    assert fam["particular"] == [["0", "0"], ["0", "0"]]

    l = two_dim_leibniz()
    rep = regular_representation(l)
    sol = solve(generate_constraints(l, rep))
    family = sol.family
    # The family is exactly { t11 = t21 = 0, t22 = 2 t12 }: same affine
    # set as the span of [[0,1],[0,2]].
    assert family.particular == Matrix.zero(2, 2)
    assert len(family.basis) == 1
    expected = leibniz_rbo(1)
    got = family.basis[0]
    span = Matrix.from_cols([Vector([e for row in got.entries for e in row])])
    target = Vector([e for row in expected.entries for e in row])
    assert solve_linear(span, target) is not None
    for a12 in (1, -1, 2, Fraction(-1, 2)):
        ctx = OperatorContext(l, rep, leibniz_rbo(a12))
        assert check_relative_rbo(ctx).passed
    assert time.monotonic() - start < 1.0


@criterion(3, "Poisson example: zero is the only operator")
def test_criterion_3_poisson_solution_set(capsys):
    start = time.monotonic()
    data = solve_rbo_json(capsys, "A2poisson")
    assert data["status"] == "finite"
    assert data["points"] == [[["0", "0"], ["0", "0"]]]
    assert time.monotonic() - start < 1.0


@criterion(4, "induced algebra / morphism / representation on 50 contexts")
def test_criterion_4_induced_structure_suite():
    start = time.monotonic()
    rng = random.Random(2_000)
    contexts = support.theorem_suite_contexts(rng, 50)
    assert len(contexts) >= 50
    for ctx in contexts:
        assert check_relative_rbo(ctx).passed
        induced = induced_algebra(ctx, checked=False)
        assert check_algebra(induced).passed
        assert check_morphism_property(ctx, checked=False).passed
        back = induced_representation(ctx, checked=False)
        assert check_representation(back, induced).passed
    assert time.monotonic() - start < 30.0


@criterion(5, "representation axioms equivalent to semidirect checks")
def test_criterion_5_semidirect_equivalence():
    rng = random.Random(3_000)
    pool = [alg for alg in support.verified_algebra_pool() if alg.dim <= 3]
    samples = []
    while len(samples) < 50:
        alg = rng.choice(pool)
        rep = rng.choice(support.valid_representations(rng, alg))
        samples.append((alg, rep))
    # Equivalence and corruption agreement over the whole randomized pool.
    for alg, rep in samples:
        assert check_representation(rep, alg).passed
        assert check_algebra(semidirect_product(alg, rep)).passed
        if rep.carrier_dim == 0:
            continue
        corrupted = support.corrupt_one_entry(rng, rep)
        rep_ok = check_representation(corrupted, alg).passed
        sd_ok = check_algebra(semidirect_product(alg, corrupted)).passed
        assert rep_ok == sd_ok  # agreement in 100% of cases
    # Flip rate over corruptions aimed at rigid instances.  Around loose
    # algebras (identity twist, nilpotent products) a single-entry change
    # can land on another valid representation; such corruptions sit in
    # unconstrained slots and legitimately flip neither verdict.
    rigid = [two_dim_leibniz(), support.nonabelian_lie2(),
             support.poisson_from_bracket()]
    flips = 0
    corruptions = 0
    while corruptions < 60:
        alg = rng.choice(rigid)
        reps = [r for r in support.valid_representations(rng, alg)
                if r.carrier_dim and any(not m.is_zero()
                                         for t in r.actions().values()
                                         for m in t.mats)]
        corrupted = support.corrupt_one_entry(rng, rng.choice(reps))
        rep_ok = check_representation(corrupted, alg).passed
        sd_ok = check_algebra(semidirect_product(alg, corrupted)).passed
        assert rep_ok == sd_ok
        corruptions += 1
        if not rep_ok:
            flips += 1
    assert flips >= corruptions * Fraction(95, 100)


@criterion(6, "relative check, graph, lift, and block operator agree")
def test_criterion_6_characterization_equivalences():
    start = time.monotonic()
    rng = random.Random(4_000)
    fixtures = [two_dim_leibniz(), two_dim_associative(), two_dim_poisson()]
    semidirects = {id(alg): semidirect_product(alg, regular_representation(alg))
                   for alg in fixtures}
    cases = 0
    for i in range(120):
        alg = fixtures[i % 3]
        rep = regular_representation(alg)
        if i % 5 == 0:
            t = leibniz_rbo(rng.randint(-3, 3))
        elif i % 11 == 0:
            t = Matrix.zero(2, 2)
        else:
            t = support.random_operator(rng, 2, 2)
        ctx = OperatorContext(alg, rep, t)
        sd = semidirects[id(alg)]
        verdicts = [
            check_relative_rbo(ctx).passed,
            graph_check(ctx).passed,
            check_rota_baxter(sd, lift_operator(ctx), 0).passed,
            check_nijenhuis(sd, lift_operator(ctx)).passed,
        ]
        assert len(set(verdicts)) == 1, (alg.kind, t, verdicts)
        cases += 1
    assert cases >= 100
    assert time.monotonic() - start < 10.0


@criterion(7, "Nijenhuis deformations for zero, identity, and the block operator")
def test_criterion_7_nijenhuis_deformation():
    start = time.monotonic()
    l = two_dim_leibniz()
    ctx = OperatorContext(l, regular_representation(l), leibniz_rbo(1))
    sd = semidirect_product(ctx.alg, ctx.rep)
    operators = [
        (sd, Matrix.zero(4, 4)),
        (sd, Matrix.identity(4)),
        (sd, lift_operator(ctx)),
    ]
    for alg, n in operators:
        assert check_nijenhuis(alg, n).passed
        deformed = nijenhuis_deform(alg, n)
        assert check_algebra(deformed).passed
        assert check_morphism(n, deformed, alg).passed
    assert time.monotonic() - start < 5.0


@criterion(8, "matched pairs: checker soundness and semidirect degeneration")
def test_criterion_8_matched_pairs():
    rng = random.Random(5_000)
    pool = [alg for alg in support.verified_algebra_pool() if alg.dim <= 3]
    pairs = []
    for alg in pool:
        pairs.append(degenerate_pair(alg, regular_representation(alg)))
    while len(pairs) < 20:
        alg = rng.choice(pool)
        rep = rng.choice(support.valid_representations(rng, alg))
        pairs.append(degenerate_pair(alg, rep))
    pairs.append(nilpotent_cross_pair(0))
    checked = 0
    for mp in pairs:
        report = check_matched_pair(mp)
        if report.passed:
            assert check_algebra(matched_sum(mp)).passed
            checked += 1
    assert checked >= 20
    # Degenerations coincide with the semidirect product entrywise.
    for alg in pool[:6]:
        rep = regular_representation(alg)
        mp = degenerate_pair(alg, rep)
        total = matched_sum(mp)
        sd = semidirect_product(alg, rep)
        assert total.dot == sd.dot
        assert total.bracket == sd.bracket
        assert total.alpha == sd.alpha


@criterion(9, "fixture audit matches the golden report")
def test_criterion_9_fixture_audit_golden():
    from homkit.algebra import check_multiplicative, check_poisson_compat
    lines = ["fixture audit: known deliberate imperfections,"
             " confirmed by brute force", ""]
    lines.append("== multiplicativity of A2assoc ==")
    lines.append(check_multiplicative(two_dim_associative()).render())
    lines.append("")
    lines.append("== poisson compatibility of A2poisson ==")
    lines.append(check_poisson_compat(two_dim_poisson()).render())
    regenerated = "\n".join(lines) + "\n"
    assert regenerated == GOLDEN_AUDIT.read_text()
    # The recorded witnesses, re-stated explicitly.
    mult = check_multiplicative(two_dim_associative()).result("multiplicative:dot")
    assert mult.witness.indices == (1, 1)
    compat = check_poisson_compat(two_dim_poisson()).result("poisson_compatibility")
    assert compat.witness.indices == (1, 1, 0)


@criterion(10, "parser round trips and error positions")
def test_criterion_10_parser_round_trip():
    text = Path(FIXTURES).read_text()
    doc = parse(text)
    assert parse(serialize(doc)) == doc
    assert serialize(parse(serialize(doc))) == serialize(doc)

    rng = random.Random(6_000)
    for _ in range(100):
        doc = random_document(rng)
        out = serialize(doc)
        assert parse(out) == doc
        assert serialize(parse(out)) == out

    bad_inputs = [
        ("algebra X {\n dim 2\n kind leibniz\n bracket { [e1,e5] = e1 }\n}", 4),
        ("algebra X {\n dim 2\n kind wrong\n}", 3),
        ("algebra X {\n dim 2\n", 3),  # truncated input: error at end
        ("map f : A -> B { }", 1),
        ("algebra X { dim 1 kind assoc dot { e1 = e1 } }", 1),
    ]
    for text, line in bad_inputs:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == line
