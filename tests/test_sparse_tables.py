"""Structure tensors stored as their nonzero basis products: canonical
storage, index checks, and costs that follow the nonzero products of a
document, a construction or a check rather than the square or the cube
of its dimension."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from homkit.algebra import LEIBNIZ, POISSON, HomAlgebra, StructureTensor
from homkit.dsl import DocAlgebra, DocMap, Document, parse, serialize
from homkit.errors import ShapeError
from homkit.linalg import Matrix, Vector
from homkit.representation import ActionTensor, Representation, semidirect_product

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

rationals = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))


def test_from_products_rejects_indices_outside_the_dimension():
    # A negative index used to overwrite mu(e2, e1); one >= dim was a bare
    # IndexError.
    for key in ((-1, 0), (0, -1), (2, 0), (0, 2), (5, 5)):
        with pytest.raises(ShapeError):
            StructureTensor.from_products(2, {key: [1, 0]})


def test_storage_is_canonical_however_the_tensor_is_built():
    products = {(1, 0): [0, 3], (0, 1): [Fraction(1, 2), 0]}
    listed = StructureTensor.from_products(2, {(1, 1): [0, 0], **products})
    built = StructureTensor.from_function(
        2, lambda i, j: Vector(products.get((i, j), [0, 0])))
    assert listed == built
    assert hash(listed) == hash(built)
    for t in (listed, built):
        assert list(t.products) == [(0, 1), (1, 0)]
        assert not any(v.is_zero() for v in t.products.values())
        assert t.basis_product(0, 0) == Vector.zero(2)
        assert t.basis_product(1, 1).is_zero()
        assert t.basis_product(1, 0) == Vector([0, 3])
        with pytest.raises(TypeError):
            t.products[(0, 0)] = Vector([1, 0])
    assert StructureTensor.from_products(2, {(0, 0): [0, 0]}) == StructureTensor.zero(2)
    assert listed != StructureTensor.from_products(2, products | {(1, 1): [0, 1]})


@st.composite
def tables(draw):
    """A dim and basis products with explicit zero entries mixed in,
    their keys in any order."""
    dim = draw(st.integers(1, 5))
    vectors = st.lists(st.one_of(st.just(Fraction(0)), rationals),
                       min_size=dim, max_size=dim).map(Vector)
    keys = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    products = draw(st.dictionaries(keys, vectors, max_size=dim * dim))
    return dim, products


@PROPERTY
@given(tables())
def test_tensor_invariants(table):
    dim, products = table
    listed = StructureTensor.from_products(dim, products)
    built = StructureTensor.from_function(
        dim, lambda i, j: products.get((i, j), Vector.zero(dim)))
    assert listed == built
    assert hash(listed) == hash(built)
    assert list(listed.products) == sorted(listed.products)
    assert not any(v.is_zero() for v in listed.products.values())
    for i in range(dim):
        for j in range(dim):
            want = products.get((i, j), Vector.zero(dim))
            assert listed.basis_product(i, j) == want
            assert ((i, j) in listed.products) == (not want.is_zero())


def _sparse_document(rng: random.Random, dim: int, nonzero: int) -> Document:
    def vector():
        v = [0] * dim
        for k in rng.sample(range(dim), 2):
            v[k] = rng.choice((1, -2, Fraction(1, 3), Fraction(-5, 2)))
        return Vector(v)

    def table():
        products = {}
        while len(products) < nonzero:
            products[(rng.randrange(dim), rng.randrange(dim))] = vector()
        return StructureTensor.from_products(dim, products)

    def matrix():
        return Matrix.from_cols([vector() for _ in range(dim)])
    alg = HomAlgebra(dim, POISSON, matrix(), dot=table(), bracket=table())
    return Document([DocAlgebra("L", alg), DocMap("beta", "L", "L", matrix())])


def test_document_costs_follow_its_nonzero_products(monkeypatch):
    """Parse, serialize and ``==`` of a sparse dim-200 document test and
    compare one vector per nonzero product, not one per basis pair."""
    dim, nonzero = 200, 300
    doc = _sparse_document(random.Random(5), dim, nonzero)
    text = serialize(doc)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(Vector, "is_zero", counted("is_zero", Vector.is_zero))
    monkeypatch.setattr(Vector, "__eq__", counted("==", Vector.__eq__))
    bound = 2 * nonzero + dim  # two tables; dim * dim is 40,000 per table
    parsed = parse(text)
    assert calls["is_zero"] + calls["=="] <= bound, ("parse", calls)
    for step, run in (("serialize", lambda: serialize(parsed) == text),
                      ("==", lambda: parsed == doc)):
        calls.clear()
        assert run()
        assert calls["is_zero"] + calls["=="] <= bound, (step, calls)


def _sparse_action(rng: random.Random, base_dim: int, carrier_dim: int,
                   columns: int) -> ActionTensor:
    """An action family with exactly ``columns`` nonzero columns."""
    mats = [[[0] * carrier_dim for _ in range(carrier_dim)] for _ in range(base_dim)]
    cells = [(i, c) for i in range(base_dim) for c in range(carrier_dim)]
    for i, c in rng.sample(cells, columns):
        mats[i][rng.randrange(carrier_dim)][c] = rng.choice((1, -2, Fraction(1, 3)))
    return ActionTensor(base_dim, carrier_dim, [Matrix(m) for m in mats])


def test_semidirect_product_costs_follow_its_nonzero_entries(monkeypatch):
    """A sparse dim-200 algebra acting on a dim-10 carrier: the product
    builds one vector per nonzero product and per nonzero action column,
    not one per basis pair of the dim-210 result (88,200 for two tables)."""
    rng = random.Random(7)
    dim, carrier, nonzero, columns = 200, 10, 300, 40
    alg = _sparse_document(rng, dim, nonzero).algebra("L")
    families = {name: _sparse_action(rng, dim, carrier, columns)
                for name in ("lambda_l", "lambda_r", "rho_l", "rho_r")}
    rep = Representation(POISSON, dim, carrier, Matrix.identity(carrier), **families)
    built = Counter()
    init = Vector.__init__

    def counted(self, entries):
        built["vectors"] += 1
        init(self, entries)
    monkeypatch.setattr(Vector, "__init__", counted)
    out = semidirect_product(alg, rep)
    expected = 2 * nonzero + 4 * columns
    assert built["vectors"] == 0  # the tables are ints; ``products`` is built on first read
    assert sum(len(t.products) for t in out.tensors().values()) == expected
    assert built["vectors"] == expected


def _nonzero(*parts) -> int:
    """The nonzero entries of matrices, structure tensors and action families."""
    rows = []
    for part in parts:
        if isinstance(part, Matrix):
            rows += part.entries
        elif isinstance(part, ActionTensor):
            rows += [row for m in part.mats for row in m.entries]
        else:
            rows += [v.entries for v in part.products.values()]
    return sum(1 for row in rows for q in row if q)


def _handed(monkeypatch, module, attr: str, bound: int) -> Counter:
    """Count the basis tuples handed to the scan ``module.attr``, failing
    as soon as they pass ``bound`` (a dense scan would hand ``dim**3``)."""
    handed = Counter()
    scan = getattr(module, attr)

    def counted(name, indices, residual, **kwargs):
        listed = []
        for idx in indices:
            listed.append(idx)
            handed[name] += 1
            if sum(handed.values()) > bound:
                raise AssertionError(f"{name}: over {bound} tuples handed to the scans")
        return scan(name, listed, residual, **kwargs)
    monkeypatch.setattr(module, attr, counted)
    return handed


def test_check_algebra_costs_follow_its_nonzero_terms(monkeypatch):
    """An empty dim-300 Leibniz algebra hands the scans no tuple at all, and
    a sparse dim-200 Poisson algebra a few per nonzero structure constant,
    where the dense scans hand every basis pair and triple (over 24
    million for the Poisson algebra)."""
    import homkit.algebra as algebra
    dim = 300
    empty = HomAlgebra(dim, LEIBNIZ, Matrix.identity(dim), bracket=StructureTensor.zero(dim))
    _handed(monkeypatch, algebra, "scan_identity", 0)
    report = algebra.check_algebra(empty)
    assert report.render() == "PASS multiplicative:bracket\nPASS hom_leibniz"

    monkeypatch.undo()
    alg = _sparse_document(random.Random(5), 200, 300).algebra("L")
    bound = 16 * _nonzero(alg.alpha, alg.dot, alg.bracket)
    handed = _handed(monkeypatch, algebra, "scan_identity", bound)
    report = algebra.check_algebra(alg)
    assert set(handed) == {c.identity for c in report} and not report.passed
    monkeypatch.undo()  # a scan that reads its tuples lazily finds the same witnesses
    assert algebra.check_algebra(alg) == report


def test_phi_columns_of_the_identity_are_the_stored_columns():
    """With ``phi`` the identity, ``F(e_a) phi e_c`` is column ``c`` of
    ``F(e_a)``: each ``phi_columns`` vector is the family's own stored list,
    shared read only, as a twisted table shares a vector times 1."""
    from homkit.kernel import SparseIndex
    from homkit.representation import regular_representation
    from support import verified_algebra_pool
    shared = 0
    for alg in verified_algebra_pool():
        for name, family in regular_representation(alg).actions().items():
            stored = family.stored()[1]
            index = SparseIndex(None, {name: family}, phi=Matrix.identity(alg.dim))
            columns = {(a, c): v for a, cols in index.phi_columns[name].items() for c, v in cols}
            assert columns.keys() == stored.keys()
            assert all(v is stored[key] for key, v in columns.items())
            shared += len(columns)
    assert shared > 50


def test_check_representation_costs_follow_its_nonzero_terms(monkeypatch):
    """The same sparse dim-200 algebra acting on a dim-10 carrier through
    families with 40 nonzero columns each: the scans get a few tuples per
    nonzero entry, where the dense scans hand 400,800 basis pairs."""
    import homkit.representation as representation
    rng = random.Random(7)
    dim, carrier, columns = 200, 10, 40
    alg = _sparse_document(random.Random(5), dim, 300).algebra("L")
    families = {name: _sparse_action(rng, dim, carrier, columns)
                for name in ("lambda_l", "lambda_r", "rho_l", "rho_r")}
    rep = Representation(POISSON, dim, carrier, Matrix.identity(carrier), **families)
    bound = 16 * _nonzero(alg.alpha, alg.dot, alg.bracket, rep.phi, *families.values())
    handed = _handed(monkeypatch, representation, "scan_operator_identity", bound)
    report = representation.check_representation(rep, alg)
    assert set(handed) == {c.identity for c in report} and len(handed) == 14
    monkeypatch.undo()
    assert representation.check_representation(rep, alg) == report


def test_operator_checks_hand_the_scans_only_their_touched_keys(monkeypatch):
    """A zero and a scalar operator on a sparse dim-200 Poisson algebra,
    and the projection context of a sparse dim-100 one, all of which pass:
    the scans get no tuple for the zero operator and otherwise at most one
    per basis index (the twist identity) and one per nonzero product (the
    table identities), where the dense scans handed 80,200 and 20,100."""
    import homkit.algebra as algebra
    import homkit.operators as operators
    from homkit.operators import projection_context
    from homkit.representation import pullback_representation

    def handed_by(check, bound: int) -> int:
        handed = _handed(monkeypatch, algebra, "scan_identity", bound)
        report = check()
        monkeypatch.undo()
        assert report.passed and check() == report
        return sum(handed.values())

    dim = 200
    alg = _sparse_document(random.Random(5), dim, 300).algebra("L")
    products = sum(len(t.products) for t in alg.tensors().values())
    c = Fraction(2, 3)
    for op, bound in ((Matrix.zero(dim, dim), 0),
                      (Matrix([[c if i == j else 0 for j in range(dim)] for i in range(dim)]),
                       dim + products)):
        for check in (lambda: operators.check_rota_baxter(alg, op, -c),
                      lambda: operators.check_nijenhuis(alg, op)):
            assert handed_by(check, bound) >= bound - dim

    dim = 100
    alg = _sparse_document(random.Random(6), dim, 150).algebra("L")
    empty = HomAlgebra(0, POISSON, Matrix.zero(0, 0), dot=StructureTensor.zero(0),
                       bracket=StructureTensor.zero(0))
    rep = pullback_representation(Matrix.zero(0, dim), alg, empty, checked=False)
    ctx = projection_context(alg, rep, checked=False)
    products = sum(len(t.products) for t in alg.tensors().values())
    assert handed_by(lambda: operators.check_relative_rbo(ctx), dim + products) >= products


def test_verify_solution_builds_one_index_for_its_matrices(monkeypatch):
    """The three samples of the Leibniz fixture's family are checked on
    contexts made from one base, which share one index of the algebra and
    its regular representation, where each check built its own."""
    import homkit.kernel as kernel
    from homkit.fixtures import two_dim_leibniz
    from homkit.representation import regular_representation
    from homkit.solver import generate_constraints, solve, verify_solution
    alg = two_dim_leibniz()
    rep = regular_representation(alg)
    sol = solve(generate_constraints(alg, rep))
    assert sol.status == "affine_family"
    made, init = Counter(), kernel.SparseIndex.__init__

    def counted(self, *args, **kwargs):
        made["indexes"] += 1
        init(self, *args, **kwargs)
    monkeypatch.setattr(kernel.SparseIndex, "__init__", counted)
    report = verify_solution(alg, rep, sol, samples=3)
    assert report.render() == "\n".join(f"PASS family_sample[{s}]" for s in range(3))
    assert made["indexes"] == 1


def test_failing_checks_stop_after_the_witness_slice(monkeypatch):
    """A dense dim-12 algebra and representation that fail at their first
    basis tuples: the checks sum the first slice of tuples (those with
    first index 0) and no later one, as a dense scan stops at its first
    witness."""
    import homkit.algebra as algebra
    import homkit.kernel as kernel
    import homkit.representation as representation
    rng = random.Random(4)
    n, m = 12, 4

    def matrix(rows, cols):
        return Matrix([[Fraction(rng.randint(1, 5), rng.choice((1, 2))) for _ in range(cols)]
                       for _ in range(rows)])

    def table():
        return StructureTensor.from_products(n, {(i, j): matrix(1, n).entries[0]
                                                 for i in range(n) for j in range(n)})
    alg = HomAlgebra(n, POISSON, matrix(n, n), dot=table(), bracket=table())
    rep = Representation(POISSON, n, m, matrix(m, m), **{
        name: ActionTensor(n, m, [matrix(m, m) for _ in range(n)])
        for name in ("lambda_l", "lambda_r", "rho_l", "rho_r")})
    sums = Counter()
    sum_slice = kernel.sum_slice

    def counted(*args):
        sums["slices"] += 1
        return sum_slice(*args)
    monkeypatch.setattr(kernel, "sum_slice", counted)
    for module, attr, check in ((algebra, "scan_identity", lambda: algebra.check_algebra(alg)),
                                (representation, "scan_operator_identity",
                                 lambda: representation.check_representation(rep, alg))):
        sums.clear()
        report = check()
        assert all(c.witness.indices[0] == 0 for c in report)
        early = sums["slices"]
        _handed(monkeypatch, module, attr, n ** 4)  # lists every slice
        sums.clear()
        assert check() == report
        assert early < sums["slices"] / 4, (attr, early, sums["slices"])


def test_check_matched_pair_costs_follow_its_nonzero_terms(monkeypatch):
    """Degenerate pairs of a Leibniz (dim 43) and a Poisson (dim 28) direct
    sum of pool algebras acting on themselves, and the splits of the 2x2
    matrices into two halves that act on each other: the cross conditions
    hand the scans at most four tuples per nonzero entry of the pair,
    where the dense scans hand ``n1 n2**2`` per condition (79,507 at dim
    43)."""
    import homkit.matched as matched
    from homkit.algebra import ASSOCIATIVE
    from homkit.representation import regular_representation
    from support import verified_algebra_pool
    from test_kernel import direct_sum
    from test_matched import degenerate_pair, matrix_algebra_2x2, split_into_matched_pair
    rng = random.Random(3)
    pairs = []
    for kind, dim in ((LEIBNIZ, 42), (POISSON, 28)):
        pool = [a for a in verified_algebra_pool() if a.kind == kind]
        summands = []
        while sum(a.dim for a in summands) < dim:
            summands.append(rng.choice(pool))
        alg = direct_sum(summands)
        pairs.append(degenerate_pair(alg, regular_representation(alg)))
    for kind in (ASSOCIATIVE, POISSON):
        pairs.append(split_into_matched_pair(matrix_algebra_2x2(kind), 3))
    assert not pairs[-1].actions_1_on_2.rho_l.mats[0].is_zero()
    assert not pairs[-1].actions_2_on_1.rho_l.mats[0].is_zero()
    totals = []
    for mp in pairs:
        bound = 4 * _nonzero(mp.a1.alpha, mp.a2.alpha, *mp.a1.tensors().values(),
                             *mp.a2.tensors().values(), *mp.actions_1_on_2.actions().values(),
                             *mp.actions_2_on_1.actions().values())
        handed = _handed(monkeypatch, matched, "scan_identity", bound)
        report = matched.check_matched_pair(mp)
        monkeypatch.undo()
        assert report.passed and matched.check_matched_pair(mp) == report
        totals.append(sum(handed.values()))
    # B acts by zero and has no products, so no degenerate cross term is nonzero.
    assert totals[:2] == [0, 0] and all(totals[2:])
