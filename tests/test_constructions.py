"""Differential tests: every construction against its dense ``Fraction``
reference in ``oracle.py``, and costs that follow the nonzero entries.

Both sides must build ``==`` structures (and so the same canonical DSL
text), or both must refuse the input with a ``PreconditionError``.  The
inputs cover the verified algebra pool with its valid representations,
the theorem-suite contexts, corrupted representations and shifted
operators built unchecked, self-morphisms with non-unit denominators,
sparse documents of dim 12-30, and the semidirect products and matched
sums of the pool's representations and of the matched-pair tests.  Two
``hypothesis`` properties close the file: criterion 5 over generated
representations, and "an operator that passes the relative Rota-Baxter
check induces a valid algebra".
"""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from homkit.algebra import LEIBNIZ, POISSON, check_algebra, check_morphism, yau_twist
from homkit.dsl import DocAlgebra, Document, serialize
from homkit.errors import PreconditionError, ShapeError
from homkit.fixtures import leibniz_rbo, two_dim_associative, two_dim_leibniz, two_dim_poisson
from homkit.linalg import Matrix, Vector
from homkit.matched import MatchedPair, matched_sum
from homkit.operators import (
    OperatorContext, check_relative_rbo, induced_algebra, induced_representation,
    nijenhuis_deform, projection_context,
)
from homkit.representation import (
    ActionTensor, Representation, check_representation, pullback_representation,
    regular_representation, semidirect_product,
)
from support import (
    corrupt_one_entry, dual_numbers, heisenberg3, nonabelian_lie2, random_operator,
    self_morphisms, theorem_suite_contexts, truncated_polynomials,
    valid_representations, verified_algebra_pool,
)
from test_kernel import DELTAS, matched_pairs, shifted, shifted_action
from test_matched import (
    degenerate_pair, matrix_algebra_2x2, nilpotent_cross_pair, zero_algebra, zero_rep,
)
from test_sparse_tables import _sparse_action, _sparse_document

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True)


class Tally:
    """Counts the built and the refused comparisons, so each test can show
    it reached both."""

    def __init__(self):
        self.built = self.refused = 0

    def same(self, build, reference, *args, **kwargs):
        try:
            expected = reference(*args, **kwargs)
        except PreconditionError:
            with pytest.raises(PreconditionError):
                build(*args, **kwargs)
            self.refused += 1
            return
        got = build(*args, **kwargs)
        if isinstance(expected, OperatorContext):
            got, expected = (got.alg, got.rep, got.t), (expected.alg, expected.rep, expected.t)
        assert got == expected
        self.built += 1


def contexts_of(tally, alg, rep, rng):
    """The projection context of ``alg`` and ``rep`` and its induced
    structures, then a copy with one entry of T shifted, built unchecked
    and gated."""
    tally.same(projection_context, oracle.projection_context, alg, rep)
    ctx = projection_context(alg, rep)
    bad = OperatorContext(ctx.alg, ctx.rep, shifted(ctx.t, rng))
    for c in (ctx, bad):
        for checked in (True, False):
            tally.same(induced_algebra, oracle.induced_algebra, c, checked=checked)
            tally.same(induced_representation, oracle.induced_representation,
                       c, checked=checked)


def test_matmul_matches_the_reference():
    rng = random.Random(4)
    for rows, inner, cols in ((2, 3, 4), (3, 3, 3), (1, 5, 2), (0, 3, 2), (2, 0, 3),
                              (3, 2, 0), (0, 0, 0)):
        for _ in range(6):
            a = Matrix(random_operator(rng, rows, inner).entries, rows, inner)
            b = Matrix(random_operator(rng, inner, cols).entries, inner, cols)
            got = a @ b
            assert got == oracle.matmul(a, b)
            assert (got.rows, got.cols) == (rows, cols)
            assert all(type(q) is Fraction for row in got.entries for q in row)
    with pytest.raises(ShapeError):
        Matrix.zero(2, 3) @ Matrix.zero(2, 3)


@pytest.mark.parametrize("seed", (3, 11))
def test_pool_constructions(seed):
    tally = Tally()
    rng = random.Random(seed)
    fixtures = [two_dim_associative(), two_dim_leibniz(), two_dim_poisson()]
    for alg in verified_algebra_pool() + fixtures:
        tally.same(regular_representation, oracle.regular_representation, alg)
        op = random_operator(rng, alg.dim, alg.dim)
        for beta in self_morphisms(alg) + [op, shifted(op, rng)]:
            for checked in (True, False):
                tally.same(yau_twist, oracle.yau_twist, alg, beta, checked=checked)
                tally.same(pullback_representation, oracle.pullback_representation,
                           beta, alg, alg, checked=checked)
                tally.same(nijenhuis_deform, oracle.nijenhuis_deform, alg, beta,
                           checked=checked)
        if alg in fixtures:
            continue
        for rep in valid_representations(rng, alg):
            contexts_of(tally, alg, rep, rng)
            if rep.carrier_dim:
                for bad in (corrupt_one_entry(rng, rep), shifted_action(rep, rng)):
                    for checked in (True, False):
                        tally.same(projection_context, oracle.projection_context,
                                   alg, bad, checked=checked)
    assert tally.built > 500 and tally.refused > 50


@pytest.mark.parametrize("seed", (3, 29))
def test_theorem_suite_contexts(seed):
    tally = Tally()
    rng = random.Random(seed)
    for ctx in theorem_suite_contexts(rng, 24):
        bad = OperatorContext(ctx.alg, ctx.rep, shifted(ctx.t, rng))
        for c in (ctx, bad):
            for checked in (True, False):
                tally.same(induced_algebra, oracle.induced_algebra, c, checked=checked)
                tally.same(induced_representation, oracle.induced_representation,
                           c, checked=checked)
    assert tally.built > 60 and tally.refused > 10


def diagonal(*entries) -> Matrix:
    return Matrix([[e if i == j else 0 for j in range(len(entries))]
                   for i, e in enumerate(entries)])


@pytest.mark.parametrize("c", DELTAS)
def test_self_morphisms_with_denominators(c):
    """Rescalings that are automorphisms, with the denominators 2, 3 and 7:
    the twist, pullback and Nijenhuis constructions along them, and the
    induced structures of projection contexts over the twisted algebras."""
    tally = Tally()
    rng = random.Random(13)
    morphisms = [(dual_numbers(), diagonal(1, c)),
                 (truncated_polynomials(), diagonal(1, c, c * c)),
                 (heisenberg3(), diagonal(c, 2, 2 * c)),
                 (nonabelian_lie2(), diagonal(c, 1)),
                 (matrix_algebra_2x2(POISSON), diagonal(1, 1 / c, 1, c))]
    for alg, beta in morphisms:
        assert check_morphism(beta, alg, alg).passed
        tally.same(yau_twist, oracle.yau_twist, alg, beta)
        tally.same(pullback_representation, oracle.pullback_representation, beta, alg, alg)
        for checked in (True, False):
            tally.same(nijenhuis_deform, oracle.nijenhuis_deform, alg, beta,
                       checked=checked)
        twisted = yau_twist(alg, beta)
        reps = [regular_representation(twisted),
                pullback_representation(beta, twisted, twisted)]
        for rep in reps:
            contexts_of(tally, twisted, rep, rng)
    assert tally.built > 60


@pytest.mark.parametrize("dim", (12, 20, 30))
def test_sparse_documents(dim):
    """Sparse Poisson algebras with about ``2 dim`` nonzero products per
    table.  The references of the Nijenhuis deformation and the induced
    representation take seconds above dim 12, so they run there only."""
    tally = Tally()
    doc = _sparse_document(random.Random(dim), dim, 2 * dim)
    alg, beta = doc.algebra("L"), doc.map("beta").matrix
    for build, reference in ((yau_twist, oracle.yau_twist),
                             (nijenhuis_deform, oracle.nijenhuis_deform)):
        if build is nijenhuis_deform and dim > 12:
            continue
        tally.same(build, reference, alg, beta, checked=False)
        text = serialize(Document([DocAlgebra("L", build(alg, beta, checked=False))]))
        assert text == serialize(Document([DocAlgebra("L", reference(alg, beta, checked=False))]))
    tally.same(regular_representation, oracle.regular_representation, alg)
    tally.same(pullback_representation, oracle.pullback_representation,
               beta, alg, alg, checked=False)
    reg = regular_representation(alg)
    tally.same(projection_context, oracle.projection_context, alg, reg, checked=False)
    ctx = OperatorContext(alg, reg, beta)
    tally.same(induced_algebra, oracle.induced_algebra, ctx, checked=False)
    if dim == 12:
        tally.same(induced_representation, oracle.induced_representation, ctx, checked=False)
    assert tally.built >= 5


def test_direct_sums_match_the_references():
    """The semidirect product and the matched sum, one builder, against the
    two they replaced: over the pool with its valid, corrupted and
    zero-carrier representations and their degenerate pairs, the kernel
    tests' matched pairs, the nilpotent cross pairs and pairs with a dim-0
    side."""
    tally, pairs = Tally(), list(matched_pairs())
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for alg in verified_algebra_pool():
            reps = valid_representations(rng, alg)
            reps += [bad for rep in reps if rep.carrier_dim
                     for bad in (corrupt_one_entry(rng, rep), shifted_action(rep, rng))]
            for rep in reps + [zero_rep(alg.kind, alg.dim, 0, Matrix.zero(0, 0))]:
                tally.same(semidirect_product, oracle.semidirect_product, alg, rep)
                pairs.append(degenerate_pair(alg, rep))
    pairs += [nilpotent_cross_pair(scale) for scale in (0, 1, Fraction(-1, 2))]
    l, empty = two_dim_leibniz(), zero_algebra(LEIBNIZ, 0, Matrix.zero(0, 0))
    pairs += [degenerate_pair(l, zero_rep(LEIBNIZ, 2, 0, empty.alpha)),
              MatchedPair(empty, l, zero_rep(LEIBNIZ, 0, 2, l.alpha),
                          zero_rep(LEIBNIZ, 2, 0, empty.alpha))]
    for mp in pairs:
        tally.same(matched_sum, oracle.matched_sum, mp)
    assert tally.built > 1000 and not tally.refused


# ---- costs ---------------------------------------------------------------


def scaled_permutation(rng: random.Random, rows: int, cols: int) -> Matrix:
    """One nonzero entry, with a non-unit denominator, in each row and in
    at most one row of each column."""
    targets = rng.sample(range(cols), rows)
    return Matrix([[rng.choice(DELTAS) if j == targets[i] else 0 for j in range(cols)]
                   for i in range(rows)])


@pytest.fixture
def built(monkeypatch):
    """Counts the ``Vector`` and ``Matrix`` objects built, a matrix by its
    public constructor or from a stored form."""
    counts = Counter()
    for cls in (Vector, Matrix):
        def counted(self, *args, init=cls.__init__, name=cls.__name__, **kwargs):
            counts[name] += 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    from_form = Matrix._from_form.__func__

    def counted_form(cls, *args):
        counts["Matrix"] += 1
        return from_form(cls, *args)
    monkeypatch.setattr(Matrix, "_from_form", classmethod(counted_form))
    return counts


def test_twist_and_deformation_costs_follow_the_nonzero_products(built):
    """On a sparse dim-200 algebra with 300 nonzero products per table, a
    map with one nonzero per row sends each product to at most one twisted
    product and to at most three deformed ones, where the dense build made
    a vector for each of the 40,000 basis pairs of a table."""
    rng = random.Random(9)
    dim, nonzero = 200, 300
    alg = _sparse_document(rng, dim, nonzero).algebra("L")
    beta = scaled_permutation(rng, dim, dim)
    built.clear()
    twisted = yau_twist(alg, beta, checked=False)
    products = sum(len(t.products) for t in twisted.tensors().values())
    assert built["Vector"] == products == 2 * nonzero
    assert built["Matrix"] == 1  # the new twist beta alpha
    built.clear()
    deformed = nijenhuis_deform(alg, beta, checked=False)
    products = sum(len(t.products) for t in deformed.tensors().values())
    assert built["Vector"] == products <= 3 * 2 * nonzero
    assert built["Matrix"] == 0


def test_induced_algebra_costs_follow_the_nonzero_columns(built):
    """A dim-20 algebra acting on a dim-100 carrier through families with
    40 nonzero columns each, and an operator with one nonzero per row:
    each nonzero column gives at most one induced product, where the dense
    build made a vector for each of the 10,000 carrier pairs of a table."""
    rng = random.Random(8)
    dim, carrier, columns = 20, 100, 40
    alg = _sparse_document(rng, dim, 30).algebra("L")
    families = {name: _sparse_action(rng, dim, carrier, columns)
                for name in ("lambda_l", "lambda_r", "rho_l", "rho_r")}
    rep = Representation(POISSON, dim, carrier, Matrix.identity(carrier), **families)
    ctx = OperatorContext(alg, rep, scaled_permutation(rng, dim, carrier))
    built.clear()
    induced = induced_algebra(ctx, checked=False)
    products = sum(len(t.products) for t in induced.tensors().values())
    assert built["Vector"] == products <= 4 * columns
    assert built["Matrix"] == 0


# ---- properties ------------------------------------------------------------

POOL = [alg for alg in verified_algebra_pool() if alg.dim <= 3]
REPS = [valid_representations(random.Random(k), alg) for k, alg in enumerate(POOL)]
rationals = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))


@st.composite
def representations(draw):
    """A verified algebra and a representation of it: a valid one, one
    with a single action entry shifted, or one with random actions."""
    k = draw(st.integers(0, len(POOL) - 1))
    alg, rep = POOL[k], draw(st.sampled_from(REPS[k]))
    how = draw(st.sampled_from(("valid", "shifted", "random")))
    m = rep.carrier_dim
    if how == "valid" or not m:
        return alg, rep
    if how == "shifted":
        name = draw(st.sampled_from(sorted(rep.actions())))
        family = rep.actions()[name]
        i, r, c = (draw(st.integers(0, n - 1)) for n in (alg.dim, m, m))
        rows = [list(row) for row in family.mats[i].entries]
        rows[r][c] += draw(rationals.filter(bool))
        mats = list(family.mats)
        mats[i] = Matrix(rows)
        kw = dict(rep.actions(), **{name: ActionTensor(alg.dim, m, mats)})
        return alg, Representation(rep.kind, alg.dim, m, rep.phi, **kw)

    def matrix():
        return Matrix([[draw(rationals) for _ in range(m)] for _ in range(m)])
    kw = {name: ActionTensor(alg.dim, m, [matrix() for _ in range(alg.dim)])
          for name in rep.actions()}
    return alg, Representation(rep.kind, alg.dim, m, matrix(), **kw)


@PROPERTY
@given(representations())
def test_criterion_5_over_generated_representations(pair):
    alg, rep = pair
    assert (check_representation(rep, alg).passed
            == check_algebra(semidirect_product(alg, rep)).passed)


@st.composite
def contexts(draw):
    """Operator contexts that mostly pass the relative Rota-Baxter check:
    scaled projection contexts, members of the worked Leibniz family, and
    projection contexts with one entry of T shifted."""
    how = draw(st.sampled_from(("projection", "family", "shifted")))
    if how == "family":
        l = two_dim_leibniz()
        return OperatorContext(l, regular_representation(l), leibniz_rbo(draw(rationals)))
    k = draw(st.integers(0, len(POOL) - 1))
    ctx = projection_context(POOL[k], draw(st.sampled_from(REPS[k])))
    rows = [[draw(rationals.filter(bool)) * q for q in row] for row in ctx.t.entries]
    if how == "shifted" and ctx.t.rows:
        r, c = draw(st.integers(0, ctx.t.rows - 1)), draw(st.integers(0, ctx.t.cols - 1))
        rows[r][c] += draw(rationals.filter(bool))
    return OperatorContext(ctx.alg, ctx.rep, Matrix(rows, ctx.t.rows, ctx.t.cols))


@PROPERTY
@given(contexts())
def test_relative_rota_baxter_operators_induce_valid_algebras(ctx):
    if check_relative_rbo(ctx).passed:
        induced = induced_algebra(ctx)
        assert check_algebra(induced).passed
        assert check_morphism(ctx.t, induced, ctx.alg).passed
    else:
        with pytest.raises(PreconditionError):
            induced_algebra(ctx)
