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
from hypothesis import given, settings, strategies as st

import oracle
from homkit import matched
from homkit.algebra import (
    ACTIONS_OF, ASSOCIATIVE, LEIBNIZ, POISSON, TENSORS_BY_KIND, HomAlgebra,
    StructureTensor, check_algebra, check_hom_associative, check_hom_leibniz,
    check_morphism, check_multiplicative, check_poisson_compat, yau_twist,
)
from homkit.errors import PreconditionError
from homkit.fixtures import two_dim_associative, two_dim_leibniz, two_dim_poisson
from homkit.kernel import SparseIndex
from homkit.linalg import _ZERO, Matrix, Vector, common_denominator
from homkit.matched import MatchedPair, check_matched_pair
from homkit.reporting import CheckReport, CheckResult, Witness, scan_operator_identity
from homkit.operators import (
    OperatorContext, check_nijenhuis, check_relative_rbo, check_rota_baxter,
    induced_algebra, induced_representation, lift_operator, projection_context,
)
from homkit.representation import (
    ActionTensor, Representation, _paired_index, check_representation,
    pullback_representation, regular_representation, semidirect_product,
)
from support import (
    corrupt_one_entry, random_operator, self_morphisms, theorem_suite_contexts,
    valid_representations, verified_algebra_pool,
)
from test_matched import (
    classical_poisson, degenerate_pair, matrix_algebra_2x2,
    nilpotent_cross_pair, split_into_matched_pair, unital_dual_numbers,
)
from test_sparse_tables import _sparse_document

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
    # Zeros that are not the shared one count like any other entry.
    grid = [[Fraction(0), Fraction(5, 6)], [Fraction(0), Fraction(0)]]
    assert grid[0][0] is not _ZERO and grid[1][1] is not _ZERO
    assert common_denominator(Matrix(grid), Fraction(1, 4)) == 12
    assert common_denominator(Matrix([[Fraction(0)] * 3] * 3), Matrix.zero(4, 4)) == 1


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


def same_twisted_tables(given: dict, alpha) -> None:
    """Every ``twisted[name, left, by]`` of the index of ``given`` and
    ``alpha`` equals the dense reference's: its keys in the same order and
    its vectors, empty ones included, or the same ``KeyError`` (a twist of
    None, or of the wrong size, has no rows to twist by)."""
    index = SparseIndex(alpha, given)
    for name in given:
        for left in (True, False):
            for by in (0, 1):
                try:
                    want = oracle.twisted(index, given, name, left, by)
                except KeyError:
                    with pytest.raises(KeyError):
                        index.twisted[name, left, by]
                    continue
                assert list(index.twisted[name, left, by].items()) == list(want.items())


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_twisted_tables_match_the_dense_reference(seed):
    """Pool algebras and their representations, twisted by their own twist,
    a dense fractional one, zero and None; and a twist whose products
    cancel at one key, which keeps that key with an empty vector."""
    rng = random.Random(seed)
    for alg in verified_algebra_pool():
        n = alg.dim
        for rep in valid_representations(rng, alg):
            given = {**alg.tensors(), **rep.actions()}
            for alpha in (alg.alpha, random_operator(rng, n, n), Matrix.zero(n, n), None):
                same_twisted_tables(given, alpha)
    table = StructureTensor.from_products(2, {(0, 0): [1, 0], (1, 0): [1, 0]})
    alpha = Matrix([[1, 0], [-1, 0]])  # mu(alpha e_0, e_0) = mu(e_0, e_0) - mu(e_1, e_0) = 0
    same_twisted_tables({"dot": table}, alpha)
    assert SparseIndex(alpha, {"dot": table}).twisted["dot", True, 0] == {0: [(0, [])]}


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
        # halves; its Yau twist has fractional structure constants and
        # cross actions.
        diagonal = (1, Fraction(7, 2), 1, Fraction(2, 7))  # E11, E12, E22, E21
        conj = Matrix([[diagonal[i] if i == j else 0 for j in range(4)]
                       for i in range(4)])
        pairs.append(split_into_matched_pair(yau_twist(alg, conj), 3))
    # Direct sums of three dim-2 pool algebras of each kind acting on
    # themselves: the reference scans every basis triple of the dim-6 sum.
    rng = random.Random(41)
    for kind in (ASSOCIATIVE, LEIBNIZ, POISSON):
        alg = direct_sum(rng.sample([a for a in verified_algebra_pool()
                                     if a.kind == kind and a.dim == 2], 3))
        pairs.append(degenerate_pair(alg, regular_representation(alg)))
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
        compare(tally, check_matched_pair, oracle.check_matched_pair, mp)
        if mp.a1.dim:
            compare(tally, check_matched_pair, oracle.check_matched_pair, skewed(mp, rng))
    assert tally.failing > 5 and tally.fractional > 0


def same_phi_tables(index: SparseIndex, rep: Representation) -> int:
    """Every ``phi_columns`` table of the index of ``rep``'s families equals
    the dense reference's, each vector compared as its entries (the order of
    the columns within an entry is not fixed); returns the number of nonzero
    columns compared."""
    count = 0
    for name, family in rep.actions().items():
        want = oracle.phi_columns(index, family, rep.phi)
        assert {(a, c): dict(v) for a, cols in index.phi_columns[name].items()
                for c, v in cols if v} == want
        count += len(want)
    return count


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_phi_tables_match_the_dense_reference(seed):
    """Pool algebras' valid representations, over their own index, and both
    directions of the matched pairs, over the pair's common denominator."""
    rng, count = random.Random(seed), 0
    for alg in verified_algebra_pool():
        for rep in valid_representations(rng, alg):
            count += same_phi_tables(_paired_index(alg, rep), rep)
    for mp in matched_pairs():
        for index, rep in zip(matched._directions(mp), (mp.actions_1_on_2, mp.actions_2_on_1)):
            count += same_phi_tables(index, rep)
    assert count > 100


def oracle_cross_conditions(mp: MatchedPair) -> CheckReport:
    """Every cross condition of the pair's kind in the reference, the
    corrected associative set."""
    kind, checks = mp.a1.kind, []
    if kind in (ASSOCIATIVE, POISSON):
        checks += oracle._cross_conditions_associative(mp, False)
    if kind in (LEIBNIZ, POISSON):
        checks += oracle._cross_conditions_leibniz(mp)
    if kind == POISSON:
        checks += oracle._cross_conditions_poisson(mp)
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
            expected = oracle_cross_conditions(shifted_mp)
            cross = matched._cross_conditions(shifted_mp.a1.kind,
                                              *matched._directions(shifted_mp))
            tally.same(CheckReport(tuple(cross)), expected)
            failed.update(c.identity for c in expected.failures())
    assert failed == {f"cross:{kind}:{k}" for kind in ("assoc", "leibniz", "poisson")
                      for k in range(1, 7)}
    assert tally.fractional > 0


# ---- sparse inputs ---------------------------------------------------------


def direct_sum(algebras: list) -> HomAlgebra:
    """The block sum of algebras of one kind, with no product across
    blocks: a Hom-algebra of that kind when every summand is one."""
    n = sum(a.dim for a in algebras)
    alpha = [[0] * n for _ in range(n)]
    tables = {name: {} for name in algebras[0].tensors()}
    start = 0
    for a in algebras:
        for r, row in enumerate(a.alpha.entries):
            alpha[start + r][start:start + a.dim] = row
        for name, t in a.tensors().items():
            for (i, j), v in t.products.items():
                value = [0] * n
                value[start:start + a.dim] = v.entries
                tables[name][(start + i, start + j)] = value
        start += a.dim
    return HomAlgebra(n, algebras[0].kind, Matrix(alpha),
                      **{name: StructureTensor.from_products(n, p)
                         for name, p in tables.items()})


def projection(dim: int, start: int, size: int) -> Matrix:
    """The projection of a direct sum onto its block at ``start``: a morphism."""
    return Matrix([[1 if c == start + r else 0 for c in range(dim)] for r in range(size)],
                  size, dim)


def fresh_grid(m: Matrix) -> list[list[Fraction]]:
    """The entries of ``m``, each zero included, as new Fractions."""
    return [[Fraction(q.numerator, q.denominator) for q in row] for row in m.entries]


def fresh(m: Matrix) -> Matrix:
    """A copy built from :func:`fresh_grid`."""
    return Matrix(fresh_grid(m), m.rows, m.cols)


def fresh_algebra(alg: HomAlgebra) -> HomAlgebra:
    """A copy with new Fractions for every entry, and a product of new
    zeros (which the table drops) wherever a product is missing."""
    n = alg.dim

    def table(t):
        products = {(i, j): [Fraction(0)] * n for i in range(n) for j in range(n)}
        products.update({key: [Fraction(q.numerator, q.denominator) for q in v]
                         for key, v in t.products.items()})
        return StructureTensor.from_products(n, products)
    return HomAlgebra(n, alg.kind, fresh(alg.alpha),
                      **{name: table(t) for name, t in alg.tensors().items()})


def fresh_representation(rep: Representation) -> Representation:
    kw = {name: ActionTensor(a.base_dim, a.carrier_dim, [fresh(m) for m in a.mats])
          for name, a in rep.actions().items()}
    return Representation(rep.kind, rep.base_dim, rep.carrier_dim, fresh(rep.phi), **kw)


def has_fresh_zeros(*matrices) -> bool:
    """Does the :func:`fresh_grid` of one of the matrices hold a zero?"""
    return any(q == 0 and q is not _ZERO for m in matrices for row in fresh_grid(m) for q in row)


@pytest.mark.parametrize("dim", (12, 20, 30))
def test_sparse_algebras_and_their_representations(dim):
    """Sparse Poisson algebras with about ``2 dim`` nonzero products per
    table, their regular representation, the pullback along a sparse map
    and the pullback to carrier dim 0, each also with new zero objects."""
    tally = Tally()
    doc = _sparse_document(random.Random(dim), dim, 2 * dim)
    alg, beta = doc.algebra("L"), doc.map("beta").matrix
    zero = HomAlgebra(0, POISSON, Matrix.zero(0, 0), dot=StructureTensor.zero(0),
                      bracket=StructureTensor.zero(0))
    copy = fresh_algebra(alg)
    assert copy == alg and has_fresh_zeros(alg.alpha)
    algebra_checks(tally, alg)
    algebra_checks(tally, copy)
    reps = [regular_representation(alg),
            pullback_representation(beta, alg, alg, checked=False),
            pullback_representation(Matrix.zero(0, dim), alg, zero, checked=False)]
    copies = [fresh_representation(r) for r in reps]
    assert has_fresh_zeros(reps[0].phi, *reps[0].lambda_l.mats)
    for rep in reps + copies:
        compare(tally, check_representation, oracle.check_representation, rep, alg)
    compare(tally, check_representation, oracle.check_representation, copies[0], copy)
    assert reps[-1].carrier_dim == 0 and check_representation(reps[-1], alg).passed
    assert tally.failing > 10 and tally.fractional > 5


@pytest.mark.parametrize("kind", (ASSOCIATIVE, LEIBNIZ, POISSON))
def test_late_witnesses_in_direct_sums(kind):
    """A verified algebra of dim 12-14 summed from the pool, and its
    pullback to the last summand, with one entry corrupted in the last
    block: every witness lies in that block, late in lexicographic order,
    after the reference has scanned every earlier tuple."""
    rng = random.Random(31)
    summands = [a for a in verified_algebra_pool() if a.kind == kind]
    parts = []
    while sum(a.dim for a in parts) < 12:
        parts.append(rng.choice(summands))
    alg, last = direct_sum(parts), parts[-1]
    n, start = alg.dim, alg.dim - last.dim
    rep = pullback_representation(projection(n, start, last.dim), alg, last)
    assert check_algebra(alg).passed and check_representation(rep, alg).passed

    name = sorted(alg.tensors())[0]
    products = {key: list(v) for key, v in getattr(alg, name).products.items()}
    products.setdefault((n - 1, n - 1), [0] * n)[n - 1] += Fraction(1, 3)
    late_alg = HomAlgebra(n, kind, alg.alpha, **dict(
        alg.tensors(), **{name: StructureTensor.from_products(n, products)}))
    family = sorted(rep.actions())[0]
    mats = list(rep.actions()[family].mats)
    rows = [list(r) for r in mats[n - 1].entries]
    rows[-1][-1] += Fraction(-2, 7)
    mats[n - 1] = Matrix(rows)
    late_rep = Representation(kind, n, rep.carrier_dim, rep.phi, **dict(
        rep.actions(), **{family: ActionTensor(n, rep.carrier_dim, mats)}))

    tally = Tally()
    compare(tally, check_algebra, oracle.check_algebra, alg)
    algebra_checks(tally, late_alg)
    compare(tally, check_algebra, oracle.check_algebra, fresh_algebra(late_alg))
    for r in (rep, late_rep, fresh_representation(late_rep)):
        compare(tally, check_representation, oracle.check_representation, r, alg)
    for report in (check_algebra(late_alg), check_representation(late_rep, alg)):
        assert report.failures()
        assert all(c.witness.indices[0] >= start for c in report.failures())
    assert tally.fractional > 0


def empty_algebra(kind: str) -> HomAlgebra:
    return HomAlgebra(0, kind, Matrix.zero(0, 0),
                      **{name: StructureTensor.zero(0) for name in TENSORS_BY_KIND[kind]})


def pool_algebra(kind: str) -> HomAlgebra:
    """The first verified pool algebra of ``kind`` with dim at least 2."""
    return next(a for a in verified_algebra_pool() if a.kind == kind and a.dim >= 2)


@pytest.mark.parametrize("dim", (12, 20, 30))
def test_projection_contexts_of_sparse_algebras(dim):
    """The projection context of a sparse Poisson algebra (carrier dim
    ``dim``, and ``2 dim`` for its regular representation at dim 12),
    which passes, and copies with one entry of ``T`` shifted, which fail.
    The reference scans every carrier pair of a passing context, some
    seconds at dim 30, so it checks one passing context, at dim 12."""
    tally = Tally()
    rng = random.Random(dim)
    alg = _sparse_document(random.Random(dim), dim, 2 * dim).algebra("L")
    reps = [pullback_representation(Matrix.zero(0, dim), alg, empty_algebra(POISSON),
                                    checked=False)]
    if dim == 12:
        reps.append(regular_representation(alg))
    for k, rep in enumerate(reps):
        ctx = projection_context(alg, rep, checked=False)
        assert check_relative_rbo(ctx).passed
        passing = [ctx.t] if dim == 12 and k == 0 else []
        for t in passing + [shifted(ctx.t, rng) for _ in range(2)]:
            compare(tally, check_relative_rbo, oracle.check_relative_rbo,
                    OperatorContext(ctx.alg, ctx.rep, t))
    assert tally.failing >= 2 and tally.fractional > 0


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_contexts_made_by_with_operator_check_as_fresh_ones(seed):
    """Operators over denominators 3 and 5, which divide no pool pair's,
    checked on contexts made from one base by ``with_operator``: they share
    the base's index and give the reports of fresh contexts and of the
    reference, witnesses and residuals included."""
    tally = Tally()
    rng = random.Random(seed)
    for alg in verified_algebra_pool():
        for rep in valid_representations(rng, alg):
            n, m = alg.dim, rep.carrier_dim
            base = OperatorContext(alg, rep, Matrix.zero(n, m))
            d = common_denominator(alg.alpha, rep.phi, *alg.tensors().values(),
                                   *rep.actions().values())
            for den in (3, 5):
                assert d % den
                t = Matrix([[Fraction(rng.randint(-2, 2), den) for _ in range(m)]
                            for _ in range(n)])
                for op in (t, Matrix.zero(n, m), *([shifted(t, rng)] if n and m else [])):
                    shared = base.with_operator(op)
                    assert shared.t is op and shared._index is base._index
                    compare(tally, check_relative_rbo, oracle.check_relative_rbo, shared)
                    assert check_relative_rbo(shared) == check_relative_rbo(
                        OperatorContext(alg, rep, op))
    assert tally.failing > 20 and tally.fractional > 10


def test_operator_checks_on_spaces_of_dim_zero():
    """A dim-0 algebra acting on a dim-2 carrier (``T`` is 0 x 2) and a
    dim-2 algebra on a dim-0 carrier (``T`` is 2 x 0), morphisms to and
    from a dim-0 algebra, and self-maps of one: every check agrees with
    the reference and passes, since every residual is empty."""
    tally = Tally()
    for kind in (ASSOCIATIVE, LEIBNIZ, POISSON):
        alg, empty = pool_algebra(kind), empty_algebra(kind)
        n = alg.dim
        families = {a: ActionTensor.zero(0, 2)
                    for name in TENSORS_BY_KIND[kind] for a in ACTIONS_OF[name]}
        on_carrier = Representation(kind, 0, 2, Matrix([[1, Fraction(1, 2)], [0, 3]]),
                                    **families)
        to_nothing = pullback_representation(Matrix.zero(0, n), alg, empty, checked=False)
        contexts = [OperatorContext(empty, on_carrier, Matrix.zero(0, 2)),
                    OperatorContext(alg, to_nothing, Matrix.zero(n, 0))]
        for ctx in contexts:
            compare(tally, check_relative_rbo, oracle.check_relative_rbo, ctx)
            assert check_relative_rbo(ctx).passed
            assert induced_algebra(ctx) == oracle.induced_algebra(ctx)
            assert induced_representation(ctx) == oracle.induced_representation(ctx)
        for f, src, dst in ((Matrix.zero(0, n), alg, empty), (Matrix.zero(n, 0), empty, alg)):
            compare(tally, check_morphism, oracle.check_morphism, f, src, dst)
            assert check_morphism(f, src, dst).passed
        for w in WEIGHTS:
            compare(tally, check_rota_baxter, oracle.check_rota_baxter,
                    empty, Matrix.zero(0, 0), w)
        compare(tally, check_nijenhuis, oracle.check_nijenhuis, empty, Matrix.zero(0, 0))
    assert tally.failing == 0


def _row_split_scan(name, indices, residual, denominator):
    """The reference operator scan: each residual given as the ``m`` rows
    of its carrier matrix, the witness column read off them."""
    for idx in indices:
        rows = residual(*idx)
        if any(map(any, rows)):
            for k, col in enumerate(zip(*rows)):
                if any(col):
                    return CheckResult(name, False, Witness(
                        idx + (k,), Vector(Fraction(x, denominator) for x in col)))
    return CheckResult(name, True)


@pytest.mark.parametrize("m", (1, 2, 3))
def test_operator_scans_read_the_flat_layout_as_the_row_split(m):
    """A carrier matrix kept as one flat column-major list of ``m * m``
    ints (column ``k`` at ``[k m, (k + 1) m)``) gives the witness tuple and
    column that splitting it into rows gave, on keys that pass, that fail
    in the first column or that fail only in a later one."""
    rng = random.Random(m)
    outcomes = set()
    for _ in range(60):
        keys = sorted({tuple(rng.randrange(3) for _ in range(2)) for _ in range(5)})
        sums = {key: [rng.choice((1, -2)) if rng.random() < 0.04 else 0
                      for _ in range(m * m)] for key in keys}
        den = rng.choice((1, 4, 6))
        got = scan_operator_identity("op", keys, sums.__getitem__, width=m, denominator=den)
        want = _row_split_scan("op", keys, lambda *key: [sums[key][r::m] for r in range(m)],
                               den)
        assert got == want
        outcomes.add(got.witness and min(got.witness.indices[-1], 1))
    assert outcomes == ({None, 0, 1} if m > 1 else {None, 0})


def test_operator_scans_of_a_zero_carrier_pass():
    keys = [(0,), (1,), (1, 2)]
    empty = dict.fromkeys(keys, [])
    assert scan_operator_identity("op", keys, empty.__getitem__, width=0) == CheckResult(
        "op", True)


@pytest.mark.parametrize("dim", (12, 20, 30))
def test_morphisms_into_yau_twists_of_sparse_algebras(dim):
    """Maps from a sparse Poisson algebra to its Yau twist along its map
    ``beta``, and back.  The zero map passes, and the reference scans
    every basis pair for it, some seconds at dim 30, so it is compared at
    dim 12 only; the others fail with fractional residuals."""
    tally = Tally()
    rng = random.Random(dim)
    doc = _sparse_document(random.Random(dim), dim, 2 * dim)
    alg, beta = doc.algebra("L"), doc.map("beta").matrix
    twisted = yau_twist(alg, beta, checked=False)
    zero = Matrix.zero(dim, dim)
    maps = ([zero] if dim == 12 else []) + [Matrix.identity(dim), beta, shifted(beta, rng)]
    for f in maps:
        for src, dst in ((alg, twisted), (twisted, alg)):
            compare(tally, check_morphism, oracle.check_morphism, f, src, dst)
    assert check_morphism(zero, alg, twisted).passed
    assert check_morphism(zero, twisted, alg).passed
    assert tally.failing >= 6 and tally.fractional > 0


@pytest.mark.parametrize("den", (2, 3, 7))
def test_rota_baxter_and_nijenhuis_with_denominators(den):
    """Operators and weights over ``den``: ``c I`` is a Nijenhuis operator
    and a Rota-Baxter operator of weight ``-c``, a random operator over
    ``den`` is neither; on pool algebras and on a sparse dim-12 algebra."""
    tally = Tally()
    rng = random.Random(den)
    c = Fraction(1, den)
    algebras = rng.sample(verified_algebra_pool(), 6)
    algebras.append(_sparse_document(random.Random(den), 12, 24).algebra("L"))
    for alg in algebras:
        n = alg.dim
        scaled = Matrix([[c if i == j else 0 for j in range(n)] for i in range(n)])
        noisy = Matrix([[Fraction(rng.randint(-3, 3), den) for _ in range(n)]
                        for _ in range(n)])
        for op in (scaled, noisy, shifted(scaled, rng)):
            for w in (-c, Fraction(2, den), 0):
                compare(tally, check_rota_baxter, oracle.check_rota_baxter, alg, op, w)
            compare(tally, check_nijenhuis, oracle.check_nijenhuis, alg, op)
        assert check_nijenhuis(alg, scaled).passed
        assert check_rota_baxter(alg, scaled, -c).passed
    assert tally.failing > 10 and tally.fractional > 5


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)
SMALL_POOL = [alg for alg in verified_algebra_pool() if alg.dim <= 3]
entries = st.one_of(st.just(0), st.just(0), st.builds(Fraction, st.just(0)),
                    st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3])))


@st.composite
def structures(draw):
    """An algebra and a representation of its kind: a verified algebra
    with its regular representation, one entry of either perhaps shifted;
    or random structures of dim 0-3, mostly zero, where some zeros are
    not the shared one."""
    if draw(st.booleans()):
        alg = draw(st.sampled_from(SMALL_POOL))
        rep, rng = regular_representation(alg), random.Random(draw(st.integers(0, 999)))
        how = draw(st.sampled_from(("valid", "algebra", "representation")))
        if how == "algebra":
            alg = shifted_algebra(alg, rng)
        elif how == "representation":
            rep = shifted_action(rep, rng)
        return alg, rep
    kind = draw(st.sampled_from((ASSOCIATIVE, LEIBNIZ, POISSON)))
    n, m = draw(st.integers(0, 3)), draw(st.integers(0, 3))

    def matrix(rows, cols):
        return Matrix([[draw(entries) for _ in range(cols)] for _ in range(rows)], rows, cols)

    def table():
        return StructureTensor.from_products(n, {
            (i, j): [draw(entries) for _ in range(n)] for i in range(n) for j in range(n)})
    names = TENSORS_BY_KIND[kind]
    alg = HomAlgebra(n, kind, matrix(n, n), **{name: table() for name in names})
    families = {a: ActionTensor(n, m, [matrix(m, m) for _ in range(n)])
                for name in names for a in ACTIONS_OF[name]}
    return alg, Representation(kind, n, m, matrix(m, m), **families)


@PROPERTY
@given(structures())
def test_checkers_match_the_reference_over_generated_structures(pair):
    alg, rep = pair
    assert check_algebra(alg) == oracle.check_algebra(alg)
    assert check_representation(rep, alg) == oracle.check_representation(rep, alg)
