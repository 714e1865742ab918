"""Stored ints: every matrix, structure tensor and action family is kept
only as its nonzero entries, ints over its own denominator.

The stored form must equal the form recomputed from the ``Fraction``
views, whether it was converted from a constructor's input or handed over
by the construction that built the object; equality and hashing, which
compare the stored forms, must agree with the dense ``Fraction``
comparison of ``oracle.py``; the views must equal the constructor's
input; and a check reads no ``Fraction`` and builds no view."""

import gc
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import lcm
from pathlib import Path

from hypothesis import given, settings, strategies as st

import oracle
from homkit import algebra, kernel, linalg, representation, solver
from homkit.algebra import (
    LEIBNIZ, POISSON, HomAlgebra, StructureTensor, check_algebra, yau_twist,
)
from homkit.dsl import DocAlgebra, DocMap, DocRepresentation, Document, parse, serialize
from homkit.errors import PreconditionError
from homkit.fixtures import two_dim_associative, two_dim_leibniz, two_dim_poisson
from homkit.linalg import Matrix, Vector, common_denominator
from homkit.matched import MatchedPair, check_matched_pair, matched_sum
from homkit.operators import (
    OperatorContext, check_nijenhuis, check_relative_rbo, check_rota_baxter, induced_algebra,
    induced_representation, nijenhuis_deform, projection_context,
)
from homkit.representation import (
    ActionTensor, Representation, check_representation, pullback_representation,
    regular_representation, semidirect_product, twist_representation,
)
from support import (
    corrupt_one_entry, theorem_suite_contexts, valid_representations, verified_algebra_pool,
)
from test_matched import (
    degenerate_pair, matrix_algebra_2x2, nilpotent_cross_pair, split_into_matched_pair,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
ROOT = Path(__file__).resolve().parents[1]

# Zeros come as the int 0 (stored as the shared zero) and as Fractions of
# their own, which every reader must treat like the shared one.
entries = st.one_of(st.just(0), st.builds(Fraction),
                    st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3, 6])))


def recomputed(vectors: dict, keep_empty: bool) -> tuple:
    """The reference form: the lcm of the nonzero entries' denominators and
    each nonzero entry times it, by key (empty vectors dropped unless
    ``keep_empty``)."""
    nonzero = {key: [(k, q) for k, q in enumerate(v) if q != 0] for key, v in vectors.items()}
    den = lcm(*(q.denominator for v in nonzero.values() for _, q in v))
    return den, {key: [(k, int(q * den)) for k, q in v]
                 for key, v in nonzero.items() if v or keep_empty}


def reference(part) -> tuple:
    if isinstance(part, Matrix):
        return recomputed(dict(enumerate(part.entries)), True)
    if isinstance(part, StructureTensor):
        return recomputed({key: v.entries for key, v in part.products.items()}, False)
    return recomputed({(i, c): col for i, m in enumerate(part.mats)
                       for c, col in enumerate(zip(*m.entries))}, False)


def fresh(part):
    """An equal copy built from the Fractions, with nothing stored yet."""
    if isinstance(part, Matrix):
        return Matrix(part.entries, part.rows, part.cols)
    if isinstance(part, StructureTensor):
        return StructureTensor.from_products(part.dim, dict(part.products))
    return ActionTensor(part.base_dim, part.carrier_dim, part.mats)


def shape(part) -> tuple:
    if isinstance(part, Matrix):
        return part.rows, part.cols
    if isinstance(part, StructureTensor):
        return (part.dim,)
    return part.base_dim, part.carrier_dim


def unreduced(part):
    """An equal copy built from its stored ints, each times 6, over ``6 den``."""
    den, ints = part.stored()
    return type(part)._from_form(*shape(part), 6 * den,
                                 {key: [(k, 6 * x) for k, x in v] for key, v in ints.items()})


def parts(*objects) -> list:
    """The matrices, tables and action families of algebras and
    representations."""
    out = []
    for obj in objects:
        if isinstance(obj, HomAlgebra):
            out += [obj.alpha, *obj.tensors().values()]
        else:
            out += [obj.phi, *obj.actions().values()]
    return out


def assert_stored_as_recomputed(part):
    copy = fresh(part)
    assert copy == part and hash(copy) == hash(part)
    den, ints = part.stored()
    assert (den, ints) == reference(part)
    assert list(ints) == sorted(ints)
    assert copy.stored() == (den, ints)
    assert copy == part and hash(copy) == hash(part)


def matrices(rows: int, cols: int):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(lambda grid: Matrix(grid, rows, cols))


def tables(dim: int):
    keys = st.tuples(st.integers(0, max(dim - 1, 0)), st.integers(0, max(dim - 1, 0)))
    vectors = st.lists(entries, min_size=dim, max_size=dim)
    return st.dictionaries(keys, vectors, max_size=4 if dim else 0).map(
        lambda products: StructureTensor.from_products(dim, products))


def families(draw, base: int, carrier: int) -> ActionTensor:
    return ActionTensor(base, carrier, [draw(matrices(carrier, carrier)) for _ in range(base)])


def poisson_algebra(draw, dim: int) -> HomAlgebra:
    return HomAlgebra(dim, POISSON, draw(matrices(dim, dim)), dot=draw(tables(dim)),
                      bracket=draw(tables(dim)))


def poisson_representation(draw, base: HomAlgebra, carrier: int, phi=None) -> Representation:
    phi = draw(matrices(carrier, carrier)) if phi is None else phi
    return Representation(POISSON, base.dim, carrier, phi, **{
        name: families(draw, base.dim, carrier)
        for name in ("lambda_l", "lambda_r", "rho_l", "rho_r")})


@st.composite
def structures(draw):
    """A random Poisson algebra, a representation of it, a second algebra
    and a matched pair of the two, each entry a rational, an int zero or a
    zero Fraction of its own, with no axiom required."""
    n, m, k = draw(st.integers(1, 3)), draw(st.integers(0, 3)), draw(st.integers(1, 2))
    alg = poisson_algebra(draw, n)
    rep = poisson_representation(draw, alg, m)
    other = poisson_algebra(draw, k)
    pair = MatchedPair(alg, other, poisson_representation(draw, alg, k, other.alpha),
                       poisson_representation(draw, other, n, alg.alpha))
    maps = draw(matrices(n, m)), draw(matrices(n, n)), draw(matrices(n, n))
    return alg, rep, pair, maps


@PROPERTY
@given(structures())
def test_stored_form_equals_the_recomputed_one(structure):
    alg, rep, pair, (t, op, beta) = structure
    ctx = OperatorContext(alg, rep, t)
    built = [
        semidirect_product(alg, rep), regular_representation(alg),
        induced_algebra(ctx, checked=False), induced_representation(ctx, checked=False),
        nijenhuis_deform(alg, op, checked=False), yau_twist(alg, beta, checked=False),
        matched_sum(pair), pullback_representation(beta, alg, alg, checked=False),
        twist_representation(rep, beta, alg, checked=False),
    ]
    projection = projection_context(alg, rep, checked=False)
    n, m = alg.dim, rep.carrier_dim
    columns = {(i, c): col for i, a in enumerate(rep.rho_l.mats)
               for c, col in enumerate(zip(*a.entries))}
    made = [Matrix.zero(n, m), StructureTensor.zero(n), ActionTensor.zero(n, m),
            ActionTensor.from_columns(n, m, columns),
            *map(unreduced, (*parts(alg, rep), t, op, beta))]
    for part in (*parts(alg, rep, pair.a2, pair.actions_1_on_2, pair.actions_2_on_1, *built),
                 projection.t, *parts(projection.rep), t, op, beta, *made):
        assert_stored_as_recomputed(part)


def test_zero_fractions_of_their_own_store_nothing():
    """Families, tables and matrices of zero Fractions that are not the
    shared zero store no column, product or row entry."""
    row = [Fraction(0)] * 3
    assert row[0] is not linalg._ZERO
    zero = Matrix([row] * 3)
    family = ActionTensor(2, 3, [zero, zero])
    assert family.stored() == (1, {})
    assert zero.stored() == (1, {0: [], 1: [], 2: []})
    table = StructureTensor.from_products(2, {(0, 1): [Fraction(0), Fraction(1, 4)]})
    assert table.stored() == (4, {(0, 1): [(1, 1)]})


def test_the_reader_and_the_solver_normalise_each_form_once(monkeypatch):
    """The DSL reader and ``solver._leaf_family`` hand their coefficients,
    already in lowest terms, to ``_from_cells``: no stored form they build
    goes through ``rationals`` a second time, and each is the reference form."""
    calls = Counter()
    reduce = linalg.rationals

    def counted(den, ints):
        calls["rationals"] += 1
        return reduce(den, ints)
    systems = []
    for make in (two_dim_associative, two_dim_leibniz, two_dim_poisson):
        alg = make()
        system = solver.generate_constraints(alg, regular_representation(alg))
        elim = solver.eliminate_linear(system)
        systems.append((system, solver._reduce(list(elim.system.equations),
                                               elim.substitution, elim.free_vars)))
    with monkeypatch.context() as m:
        m.setattr(linalg, "rationals", counted)
        docs = [parse(path.read_text()) for path in (ROOT / "demos" / "fixtures.hla",
                                                     ROOT / "tests" / "data" / "cli_golden.hla")]
        families = [solver._leaf_family(leaf, system)
                    for system, leaves in systems for leaf in leaves]
    assert not calls, calls
    built = [matrix for family in families for matrix in (family.particular, *family.basis)]
    for doc in docs:
        for item in doc.items:
            if isinstance(item, DocMap):
                built.append(item.matrix)
            else:
                built += parts(item.algebra if isinstance(item, DocAlgebra) else item.rep)
    assert len(families) >= 3
    for part in built:
        assert part.stored() == reference(part)


def _counted_reads(m) -> Counter:
    """Count, under the monkeypatch context ``m``, every read of a
    ``Fraction``'s numerator or denominator and every computation of a
    stored form from Fraction entries (a dense scan of an action family's
    columns is one)."""
    reads = Counter()
    for name in ("numerator", "denominator"):
        prop = getattr(Fraction, name)
        m.setattr(Fraction, name,
                  property(lambda q, prop=prop, name=name: reads.update([name]) or prop.fget(q)))
    fill = linalg._cells

    def counted(vectors):
        reads["stored forms"] += 1
        return fill(vectors)
    for module in (linalg, algebra, representation):
        m.setattr(module, "_cells", counted)
    return reads


def test_a_second_check_reads_no_fraction(monkeypatch):
    """After one ``check_representation(rep, alg)``, a second call on the
    same objects reads no Fraction and scans no dense action column, for
    passing and failing representations, with and without fractions."""
    rng = random.Random(8)
    pairs = []
    for alg in verified_algebra_pool():
        for rep in valid_representations(rng, alg)[:3]:
            pairs.append((alg, rep))
            if rep.carrier_dim:
                pairs.append((alg, corrupt_one_entry(rng, rep)))
    assert any(not check_representation(rep, alg).passed for alg, rep in pairs)
    for alg, rep in pairs:
        first = check_representation(rep, alg)
        with monkeypatch.context() as m:
            reads = _counted_reads(m)
            second = check_representation(rep, alg)
        assert not reads, reads
        assert second == first


def test_checking_an_induced_algebra_reads_none_of_its_fractions(monkeypatch):
    """The induced tables keep the ints their construction summed, so
    ``check_algebra`` reads none of their Fraction entries."""
    for ctx in theorem_suite_contexts(random.Random(5), 16):
        induced = induced_algebra(ctx)
        common_denominator(induced.alpha)  # the representation's own twist
        with monkeypatch.context() as m:
            reads = _counted_reads(m)
            report = check_algebra(induced)
        assert not reads, reads
        assert report.passed


def test_check_matched_pair_indexes_each_direction_once(monkeypatch):
    """One kernel index with a carrier twist per direction serves both the
    representation gate and the cross conditions, when the pair passes,
    fails or is refused."""
    pairs = [nilpotent_cross_pair(scale) for scale in (0, 1, Fraction(1, 2))]
    pairs += [split_into_matched_pair(matrix_algebra_2x2(kind), 2) for kind in ("associative",
                                                                                  POISSON)]
    pairs += [degenerate_pair(alg, regular_representation(alg))
              for alg in verified_algebra_pool()[:4]]
    bad = nilpotent_cross_pair(1)
    pairs.append(MatchedPair(bad.a2, bad.a1, bad.actions_2_on_1,
                             corrupt_one_entry(random.Random(2), bad.actions_1_on_2)))
    built = Counter()
    init = kernel.SparseIndex.__init__

    def counted(self, *args, **maps):
        built["indexes"] += "phi" in maps
        init(self, *args, **maps)
    monkeypatch.setattr(kernel.SparseIndex, "__init__", counted)
    outcomes = set()
    for mp in pairs:
        built.clear()
        try:
            outcomes.add(check_matched_pair(mp).passed)
        except PreconditionError:
            outcomes.add(None)
        assert built["indexes"] == 2
    assert outcomes == {True, False, None}


def test_every_index_is_freed_by_reference_counting():
    """No lazy entry of a kernel index refers back to the index, so with the
    cyclic collector off no index or map outlives its check or construction."""
    pool = verified_algebra_pool()
    gc.collect()
    gc.disable()
    try:
        for alg in pool:
            reg = regular_representation(alg)
            ctx = OperatorContext(alg, reg, alg.alpha)
            check_algebra(alg)
            check_representation(reg, alg)
            check_relative_rbo(ctx)
            check_nijenhuis(alg, alg.alpha)
            yau_twist(alg, Matrix.identity(alg.dim))
            induced_algebra(ctx, checked=False)
            check_matched_pair(degenerate_pair(alg, reg))
        left = [o for o in gc.get_objects()
                if isinstance(o, (kernel.SparseIndex, kernel.SparseMap))]
    finally:
        gc.enable()
    assert not left


@st.composite
def equal_or_near(draw):
    """A shape and two grids of it: the second has each zero of the first
    drawn anew, as an int or a zero Fraction of its own, and half the time
    one entry drawn anew."""
    cols = draw(st.integers(1, 3))
    rows = draw(st.integers(0, min(3, cols * cols)))
    grid = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    zeros = st.one_of(st.just(0), st.builds(Fraction))
    other = [[draw(zeros) if q == 0 else q for q in row] for row in grid]
    change = draw(st.sampled_from(("none", "entry", "scale")))
    if rows and change == "entry":
        other[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = draw(entries)
    elif change == "scale":  # the same ints over another denominator
        c = draw(st.sampled_from((2, -1, Fraction(1, 2), Fraction(2, 3))))
        other = [[c * q for q in row] for row in other]
    return rows, cols, grid, other


@PROPERTY
@given(equal_or_near())
def test_equality_and_hashing_agree_with_the_dense_reference(case):
    """Matrices of the grids, and tables of ``cols`` with the grids' rows
    as products: ``==`` is the dense ``Fraction`` comparison, equal objects
    hash equal, and the views give back the constructor's input."""
    rows, cols, *grids = case
    keys = [(i, j) for i in range(cols) for j in range(cols)][:rows]
    same = grids[0] == grids[1]  # int and Fraction zeros compare equal
    ma, mb = (Matrix(g, rows, cols) for g in grids)
    ta, tb = (StructureTensor.from_products(cols, dict(zip(keys, g))) for g in grids)
    assert (ma == mb) == oracle.matrix_eq(ma, mb) == same
    assert (ta == tb) == oracle.tensor_eq(ta, tb) == same
    if same:
        assert hash(ma) == hash(mb) and hash(ta) == hash(tb)
    for g, m, t in zip(grids, (ma, mb), (ta, tb)):
        assert m.entries == tuple(map(tuple, g))
        assert dict(t.products) == {key: Vector(v) for key, v in zip(keys, g) if any(v)}
        assert hash(m) == hash(fresh(m)) and hash(t) == hash(fresh(t))


@st.composite
def operands(draw):
    n, m, k = (draw(st.integers(0, 3)) for _ in range(3))
    return (draw(matrices(n, m)), draw(matrices(n, m)), draw(matrices(m, k)),
            draw(entries), draw(st.lists(entries, min_size=m, max_size=m)))


@PROPERTY
@given(operands())
def test_matrix_arithmetic_keeps_the_stored_form_canonical(case):
    """Sums, scalings, products, blocks and images computed on the ints
    are in lowest terms, as if built from their Fractions."""
    a, b, c, x, v = case
    for m in (a + b, a - b, -a, a.scale(x), a @ c, Matrix.block([[a, b]]),
              Matrix.block_diag(a, c), Matrix.from_cols([Vector(v)] * 2)):
        assert_stored_as_recomputed(m)
    assert a.apply(Vector(v)) == oracle.matmul(a, Matrix([[q] for q in v], len(v), 1)).col(0)


@PROPERTY
@given(structures())
def test_a_document_of_any_zeros_equals_its_parsed_text(structure):
    alg, rep, pair, (t, op, beta) = structure
    doc = Document([DocAlgebra("A", alg), DocRepresentation("R", "A", rep),
                    DocMap("f", "A", "A", beta), DocAlgebra("B", pair.a2)])
    parsed = parse(serialize(doc))
    assert parsed == doc
    for got, want in zip(parts(*(parsed.algebra(n) for n in "AB"), parsed.representation("R").rep),
                         parts(alg, pair.a2, rep)):
        if isinstance(got, Matrix):
            assert oracle.matrix_eq(got, want)
        elif isinstance(got, StructureTensor):
            assert oracle.tensor_eq(got, want)
        else:
            assert all(map(oracle.matrix_eq, got.mats, want.mats))
    assert oracle.matrix_eq(parsed.map("f").matrix, beta)


def test_an_empty_high_dim_header_builds_no_dense_view(monkeypatch):
    """A parsed empty ``dim 3000`` Poisson algebra serializes and passes
    ``check_algebra`` without a ``Fraction`` read, a stored form computed
    from dense entries, or a matrix or table view: both walk the nonzero
    entries, of which there are none."""
    doc = parse("algebra A { dim 3000 kind poisson }")
    with monkeypatch.context() as m:
        reads = _counted_reads(m)
        for cls, name in ((Matrix, "entries"), (StructureTensor, "products")):
            view = getattr(cls, name)
            m.setattr(cls, name, property(
                lambda self, view=view, name=name: reads.update([name]) or view.fget(self)))
        text = serialize(doc)
        report = check_algebra(doc.algebra("A"))
    assert not reads, reads
    assert report.passed and text == "algebra A {\n  dim 3000\n  kind poisson\n}\n"


def traced(call) -> tuple[int, int]:
    """The bytes still allocated once ``call()`` has returned and its result
    is dropped, and the peak allocated while it ran, under ``tracemalloc``,
    over what was allocated before it."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        gc.collect()
        now, peak = tracemalloc.get_traced_memory()
        return now - before, peak - before
    finally:
        tracemalloc.stop()


def test_no_call_keeps_memory_and_no_read_builds_more_than_it_returns():
    """Checks and a construction that read a map's identity side keep
    nothing once they return, and one entry, column or basis product of a
    dim-3000 value allocates what it returns, not a dense view of the value."""
    def empty(dim):
        return HomAlgebra(dim, LEIBNIZ, Matrix.zero(dim, dim), bracket=StructureTensor.zero(dim))
    calls = (lambda alg, f: check_rota_baxter(alg, f, 1), check_nijenhuis,
             lambda alg, f: pullback_representation(f, alg, alg))
    for call in calls:  # the interpreter's own first-call allocations
        call(empty(2), Matrix.identity(2))
    alg, one = empty(3000), Matrix.identity(3000)
    for call in calls:
        assert traced(lambda: call(alg, one))[0] < 32 * 1024
    table = StructureTensor._from_form(3000, 1, {(i, i): [(i, 1)] for i in range(3000)})
    for read in (lambda: one[0, 0], lambda: one.col(5), lambda: table.basis_product(4, 4)):
        assert traced(read)[1] < 1 << 20
    assert one[0, 0] == one[-1, -1] == 1 and one[0, 1] == 0
    assert one.col(5) == Vector.unit(3000, 5) and table.basis_product(4, 4) == Vector.unit(3000, 4)
