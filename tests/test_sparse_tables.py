"""Structure tensors stored as their nonzero basis products: canonical
storage, index checks, and costs that follow the nonzero products of a
document or a construction rather than the square of its dimension."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from homkit.algebra import POISSON, HomAlgebra, StructureTensor
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
    assert built["vectors"] == expected
    assert sum(len(t.products) for t in out.tensors().values()) == expected
