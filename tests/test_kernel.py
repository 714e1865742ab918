"""Differential tests: every ported identity checker against its
``Fraction``/``Vector`` reference implementation in ``oracle.py``.

Reports must be ``==``: identity names, pass flags, witness tuples and
exact residual vectors.  Corruptions use non-unit denominators and the
Rota-Baxter weights include a fraction, so the common denominator and the
lifting of lower-degree terms are both exercised.
"""

import random
from fractions import Fraction

import pytest

import oracle
from homkit import matched
from homkit.algebra import (
    ASSOCIATIVE, LEIBNIZ, POISSON, HomAlgebra, StructureTensor, check_algebra,
    check_hom_associative, check_hom_leibniz, check_morphism,
    check_multiplicative, check_poisson_compat, yau_twist,
)
from homkit.errors import PreconditionError
from homkit.fixtures import two_dim_associative, two_dim_leibniz, two_dim_poisson
from homkit.kernel import common_denominator
from homkit.linalg import Matrix, Vector
from homkit.matched import MatchedPair, check_matched_pair
from homkit.reporting import CheckReport
from homkit.operators import (
    OperatorContext, check_nijenhuis, check_relative_rbo, check_rota_baxter,
    induced_algebra, induced_representation, lift_operator,
)
from homkit.representation import (
    ActionTensor, Representation, check_representation,
    regular_representation, semidirect_product,
)
from support import (
    corrupt_one_entry, random_operator, self_morphisms, theorem_suite_contexts,
    valid_representations, verified_algebra_pool,
)
from test_matched import (
    classical_poisson, degenerate_pair, matrix_algebra_2x2,
    nilpotent_cross_pair, split_into_matched_pair, unital_dual_numbers,
)

DELTAS = (Fraction(1, 2), Fraction(1, 3), Fraction(-2, 7))
WEIGHTS = (0, 1, Fraction(-3, 2))
SEEDS = (3, 11, 29)


class Tally:
    """Counts failing reports and witnesses whose residual has a
    non-integer entry, so each test can show it reached them."""

    def __init__(self):
        self.failing = self.fractional = 0

    def same(self, got, expected):
        assert got == expected
        if not expected.passed:
            self.failing += 1
        for c in expected.failures():
            if any(q.denominator != 1 for q in c.witness.residual):
                self.fractional += 1


def compare(tally, kernel_check, oracle_check, *args, **kwargs):
    """Run both checkers; they must agree on the report or on the error."""
    try:
        expected = oracle_check(*args, **kwargs)
    except PreconditionError:
        with pytest.raises(PreconditionError):
            kernel_check(*args, **kwargs)
        return
    tally.same(kernel_check(*args, **kwargs), expected)


def shifted(m: Matrix, rng: random.Random) -> Matrix:
    rows = [list(r) for r in m.entries]
    r, c = rng.randrange(m.rows), rng.randrange(m.cols)
    rows[r][c] += rng.choice(DELTAS)
    return Matrix(rows)


def shifted_action(rep: Representation, rng: random.Random) -> Representation:
    """Copy with one action entry shifted by a non-unit-denominator delta."""
    name = rng.choice(sorted(rep.actions()))
    tensor = rep.actions()[name]
    mats = list(tensor.mats)
    i = rng.randrange(tensor.base_dim)
    mats[i] = shifted(mats[i], rng)
    kw = dict(rep.actions())
    kw[name] = ActionTensor(tensor.base_dim, tensor.carrier_dim, mats)
    return Representation(rep.kind, rep.base_dim, rep.carrier_dim, rep.phi, **kw)


def shifted_algebra(alg: HomAlgebra, rng: random.Random) -> HomAlgebra:
    """Copy with the twist shifted by a non-unit-denominator delta."""
    return HomAlgebra(alg.dim, alg.kind, shifted(alg.alpha, rng),
                      dot=alg.dot, bracket=alg.bracket)


def algebra_checks(tally, alg):
    compare(tally, check_algebra, oracle.check_algebra, alg)
    compare(tally, check_multiplicative, oracle.check_multiplicative, alg)
    if alg.dot is not None:
        compare(tally, check_hom_associative, oracle.check_hom_associative,
                alg.dot, alg.alpha)
    if alg.bracket is not None:
        compare(tally, check_hom_leibniz, oracle.check_hom_leibniz,
                alg.bracket, alg.alpha)
    if alg.kind == POISSON:
        compare(tally, check_poisson_compat, oracle.check_poisson_compat, alg)


def test_common_denominator():
    m = Matrix([[Fraction(1, 2), 3], [Fraction(-2, 7), 0]])
    assert common_denominator(m, Fraction(1, 3), None) == 42
    assert common_denominator() == 1


def test_algebra_pool_and_morphisms():
    tally = Tally()
    rng = random.Random(5)
    fixtures = [two_dim_associative(), two_dim_leibniz(), two_dim_poisson()]
    for alg in verified_algebra_pool() + fixtures:
        algebra_checks(tally, alg)
        algebra_checks(tally, shifted_algebra(alg, rng))
        for f in self_morphisms(alg) + [random_operator(rng, alg.dim, alg.dim)]:
            compare(tally, check_morphism, oracle.check_morphism, f, alg, alg)
            compare(tally, check_morphism, oracle.check_morphism,
                    shifted(f, rng), alg, alg)
    assert tally.failing > 20 and tally.fractional > 10


@pytest.mark.parametrize("seed", SEEDS)
def test_representations_and_semidirect_products(seed):
    tally = Tally()
    rng = random.Random(seed)
    pool = verified_algebra_pool()
    for alg in (two_dim_associative(), two_dim_poisson()):
        compare(tally, check_representation, oracle.check_representation,
                regular_representation(alg), alg)
    for alg in rng.sample(pool, 6):
        for rep in valid_representations(rng, alg):
            variants = [rep]
            if rep.carrier_dim:
                variants += [corrupt_one_entry(rng, rep), shifted_action(rep, rng)]
            for r in variants:
                compare(tally, check_representation, oracle.check_representation,
                        r, alg)
            algebra_checks(tally, semidirect_product(alg, variants[-1]))
    assert tally.failing > 5 and tally.fractional > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_operator_contexts(seed):
    tally = Tally()
    rng = random.Random(seed)
    for ctx in theorem_suite_contexts(rng, 16):
        bad = OperatorContext(ctx.alg, ctx.rep, shifted(ctx.t, rng))
        for c in (ctx, bad):
            compare(tally, check_relative_rbo, oracle.check_relative_rbo, c)
        induced = induced_algebra(ctx)
        algebra_checks(tally, induced)
        compare(tally, check_morphism, oracle.check_morphism,
                ctx.t, induced, ctx.alg)
        compare(tally, check_morphism, oracle.check_morphism,
                bad.t, induced, ctx.alg)
        back = induced_representation(ctx)
        compare(tally, check_representation, oracle.check_representation,
                back, induced)
        if back.carrier_dim and induced.dim:
            compare(tally, check_representation, oracle.check_representation,
                    shifted_action(back, rng), induced)
    assert tally.failing > 5 and tally.fractional > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_rota_baxter_and_nijenhuis_operators(seed):
    tally = Tally()
    rng = random.Random(seed)
    algebras = verified_algebra_pool() + [two_dim_associative(), two_dim_poisson()]
    for alg in rng.sample(algebras, 8):
        ops = [Matrix.identity(alg.dim), random_operator(rng, alg.dim, alg.dim)]
        ops.append(shifted(ops[-1], rng))
        for op in ops:
            for w in WEIGHTS:
                compare(tally, check_rota_baxter, oracle.check_rota_baxter,
                        alg, op, w)
            compare(tally, check_nijenhuis, oracle.check_nijenhuis, alg, op)
    for ctx in theorem_suite_contexts(rng, 8):
        sd = semidirect_product(ctx.alg, ctx.rep)
        for w in WEIGHTS:
            compare(tally, check_rota_baxter, oracle.check_rota_baxter,
                    sd, lift_operator(ctx), w)
        n = lift_operator(ctx)
        for op in (n, shifted(n, rng)):
            compare(tally, check_nijenhuis, oracle.check_nijenhuis, sd, op)
    assert tally.failing > 10 and tally.fractional > 0


def matched_pairs():
    pairs = []
    for alg in (two_dim_leibniz(), unital_dual_numbers(), classical_poisson()):
        pairs.append(degenerate_pair(alg, regular_representation(alg)))
    for scale in (0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(-2, 7)):
        pairs.append(nilpotent_cross_pair(scale))
    for kind in (ASSOCIATIVE, POISSON):
        alg = matrix_algebra_2x2(kind)
        pairs.append(split_into_matched_pair(alg, 3))
        pairs.append(split_into_matched_pair(alg, 2))
        # Conjugation by diag(1, 2/7) is a self-morphism that keeps both
        # halves; on its Yau twist the printed variant differs from the
        # corrected one in a degree-4 term.
        diagonal = (1, Fraction(7, 2), 1, Fraction(2, 7))  # E11, E12, E22, E21
        conj = Matrix([[diagonal[i] if i == j else 0 for j in range(4)]
                       for i in range(4)])
        pairs.append(split_into_matched_pair(yau_twist(alg, conj), 3))
    return pairs


def skewed(mp: MatchedPair, rng: random.Random) -> MatchedPair:
    """Shift one product entry of the first algebra.  The action of A1 on
    A2 then often stops being a representation, and both checkers must
    refuse the pair alike."""
    a1 = mp.a1
    tables = a1.tensors()
    name = sorted(tables)[0]
    t = tables[name]
    i, j = rng.randrange(a1.dim), rng.randrange(a1.dim)
    k = rng.randrange(a1.dim)
    entries = [[list(t.basis_product(a, b).entries) for b in range(a1.dim)]
               for a in range(a1.dim)]
    entries[i][j][k] += rng.choice(DELTAS)
    table = StructureTensor.from_function(a1.dim, lambda a, b: Vector(entries[a][b]))
    kw = dict(tables)
    kw[name] = table
    return MatchedPair(HomAlgebra(a1.dim, a1.kind, a1.alpha, **kw), mp.a2,
                       mp.actions_1_on_2, mp.actions_2_on_1)


def test_matched_pairs():
    tally = Tally()
    rng = random.Random(17)
    for mp in matched_pairs():
        for variant in ("corrected", "printed"):
            compare(tally, check_matched_pair, oracle.check_matched_pair,
                    mp, associative_conditions=variant)
            if mp.a1.dim:
                compare(tally, check_matched_pair, oracle.check_matched_pair,
                        skewed(mp, rng), associative_conditions=variant)
    assert tally.failing > 5 and tally.fractional > 0


def cross_conditions(module, pair, kind: str) -> CheckReport:
    """Every cross condition of the kind, both associative variants."""
    checks = []
    if kind in (ASSOCIATIVE, POISSON):
        for printed in (False, True):
            checks += module._cross_conditions_associative(pair, printed)
    if kind in (LEIBNIZ, POISSON):
        checks += module._cross_conditions_leibniz(pair)
    if kind == POISSON:
        checks += module._cross_conditions_poisson(pair)
    return CheckReport(tuple(checks))


def test_cross_conditions_with_shifted_cross_actions():
    # check_matched_pair refuses cross actions that are not
    # representations, so the conditions are compared directly here,
    # where shifted actions make every one of them fail somewhere.
    tally = Tally()
    failed = set()
    rng = random.Random(23)
    for mp in matched_pairs():
        if not mp.a1.dim or not mp.a2.dim:
            continue
        for _ in range(2):
            shifted_mp = MatchedPair(mp.a1, mp.a2, shifted_action(mp.actions_1_on_2, rng),
                                     shifted_action(mp.actions_2_on_1, rng))
            expected = cross_conditions(oracle, shifted_mp, mp.a1.kind)
            tally.same(cross_conditions(matched, matched._IntPair(shifted_mp), mp.a1.kind),
                       expected)
            failed.update(c.identity for c in expected.failures())
    assert failed == {f"cross:{kind}:{k}" for kind in ("assoc", "leibniz", "poisson")
                      for k in range(1, 7)}
    assert tally.fractional > 0
