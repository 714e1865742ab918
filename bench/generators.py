"""Seeded input generators for the benchmark.

Only the public ``homkit`` API is used, and nothing is imported from the
test suite, so the generated inputs stay fixed while tests change.  Every
function takes a ``random.Random`` and is deterministic given its state.

Valid structures come from constructions that are valid by theorem:
seven small verified algebras, transported along random unimodular
changes of basis (an isomorphism keeps every identity and keeps entries
integral), Yau twists by transported self-morphisms, and semidirect
products of those with their representations.
"""

from __future__ import annotations

import random
from fractions import Fraction

from homkit import (
    ASSOCIATIVE, LEIBNIZ, POISSON, ActionTensor, HomAlgebra, MatchedPair,
    Matrix, Representation, StructureTensor, Vector, check_algebra,
    check_morphism, pullback_representation, regular_representation,
    semidirect_product, twist_representation, yau_twist,
)
from homkit.dsl import DocAlgebra, DocMap, DocRepresentation, Document
from homkit.fixtures import TWIST, two_dim_leibniz

KINDS = (ASSOCIATIVE, LEIBNIZ, POISSON)
# Each product table and the pair of action families that go with it.
ACTIONS_OF = {"dot": ("lambda_l", "lambda_r"), "bracket": ("rho_l", "rho_r")}
TABLES_OF_KIND = {ASSOCIATIVE: ("dot",), LEIBNIZ: ("bracket",),
                  POISSON: ("dot", "bracket")}


def seed_algebras() -> list[tuple[str, HomAlgebra]]:
    """Seven small algebras that pass all their checks, every kind."""
    i2, i3 = Matrix.identity(2), Matrix.identity(3)
    table = StructureTensor.from_products
    dual = table(2, {(0, 0): [1, 0], (0, 1): [0, 1], (1, 0): [0, 1]})
    lie2 = table(2, {(0, 1): [1, 0], (1, 0): [-1, 0]})
    trunc = table(3, {(0, 0): [1, 0, 0], (0, 1): [0, 1, 0], (1, 0): [0, 1, 0],
                      (0, 2): [0, 0, 1], (2, 0): [0, 0, 1], (1, 1): [0, 0, 1]})
    heis = table(3, {(0, 1): [0, 0, 1], (1, 0): [0, 0, -1]})
    return [
        ("A2leib", two_dim_leibniz()),
        ("lie2", HomAlgebra(2, LEIBNIZ, i2, bracket=lie2)),
        ("heisenberg3", HomAlgebra(3, LEIBNIZ, i3, bracket=heis)),
        ("dual_numbers", HomAlgebra(2, ASSOCIATIVE, i2, dot=dual)),
        ("truncated3", HomAlgebra(3, ASSOCIATIVE, i3, dot=trunc)),
        ("poisson_bracket", HomAlgebra(2, POISSON, i2,
                                       dot=StructureTensor.zero(2), bracket=lie2)),
        ("poisson_dot", HomAlgebra(2, POISSON, i2,
                                   dot=dual, bracket=StructureTensor.zero(2))),
    ]


def morphism_candidates(dim: int) -> list[Matrix]:
    """Maps tried as self-morphisms; the caller keeps those that pass."""
    if dim == 2:
        return [TWIST, Matrix([[1, 0], [0, 0]]), Matrix([[1, 1], [0, 0]]),
                Matrix([[0, 0], [0, 1]]), Matrix([[1, 0], [0, -1]]),
                Matrix([[2, 0], [0, 1]])]
    return [Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
            Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 0]]),
            Matrix([[2, 0, 0], [0, 1, 0], [0, 0, 2]])]


def unimodular(rng: random.Random, n: int, steps: int = 3) -> tuple[Matrix, Matrix]:
    """A random integer change of basis with determinant 1 and its inverse."""
    p = q = Matrix.identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        e = [[int(r == s) + (c if (r, s) == (i, j) else 0) for s in range(n)]
             for r in range(n)]
        e_inv = [[int(r == s) - (c if (r, s) == (i, j) else 0) for s in range(n)]
                 for r in range(n)]
        p, q = Matrix(e) @ p, q @ Matrix(e_inv)
    return p, q


def transport(alg: HomAlgebra, p: Matrix, p_inv: Matrix) -> HomAlgebra:
    """The isomorphic copy ``mu'(x, y) = P mu(P^-1 x, P^-1 y)``,
    ``alpha' = P alpha P^-1``."""
    def moved(t: StructureTensor | None) -> StructureTensor | None:
        if t is None:
            return None
        return StructureTensor.from_function(
            alg.dim, lambda i, j: p.apply(t.product(p_inv.col(i), p_inv.col(j))))
    return HomAlgebra(alg.dim, alg.kind, p @ alg.alpha @ p_inv,
                      dot=moved(alg.dot), bracket=moved(alg.bracket))


class Base:
    """A verified algebra with its verified self-morphisms."""

    def __init__(self, label: str, alg: HomAlgebra, morphisms: list[Matrix]):
        self.label = label
        self.alg = alg
        self.morphisms = morphisms


def base_algebras(rng: random.Random) -> list[Base]:
    """Each seed algebra transported along a random change of basis, plus
    one Yau twist of it.  Every algebra and morphism is checked here."""
    out = []
    for label, alg in seed_algebras():
        p, p_inv = unimodular(rng, alg.dim)
        moved = transport(alg, p, p_inv)
        morphisms = [p @ m @ p_inv for m in morphism_candidates(alg.dim)
                     if check_morphism(m, alg, alg).passed]
        morphisms = [m for m in morphisms if check_morphism(m, moved, moved).passed]
        if not check_algebra(moved).passed:
            raise AssertionError(f"transported {label} fails its checks")
        out.append(Base(label, moved, morphisms))
        if morphisms:
            twisted = yau_twist(moved, rng.choice(morphisms))
            if not check_algebra(twisted).passed:
                raise AssertionError(f"Yau twist of {label} fails its checks")
            kept = [m for m in morphisms if check_morphism(m, twisted, twisted).passed]
            out.append(Base(f"{label}~yau", twisted, kept))
    return out


def zero_algebra(kind: str, dim: int, alpha: Matrix) -> HomAlgebra:
    tables = {name: StructureTensor.zero(dim) for name in TABLES_OF_KIND[kind]}
    return HomAlgebra(dim, kind, alpha, **tables)


def zero_rep(kind: str, base_dim: int, carrier_dim: int, phi: Matrix) -> Representation:
    families = {fam: ActionTensor.zero(base_dim, carrier_dim)
                for table in TABLES_OF_KIND[kind] for fam in ACTIONS_OF[table]}
    return Representation(kind, base_dim, carrier_dim, phi, **families)


def small_matrix(rng: random.Random, rows: int, cols: int, lo=-2, hi=2) -> Matrix:
    return Matrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def representation(rng: random.Random, base: Base, how: str,
                   carrier: int = 0) -> Representation:
    """A representation of ``base.alg`` valid by construction: ``regular``,
    ``pullback`` or ``twisted`` along a self-morphism, or ``zero`` actions
    on a carrier of the given dimension with a random twist."""
    alg = base.alg
    morphisms = base.morphisms or [Matrix.identity(alg.dim)]
    if how == "regular":
        return regular_representation(alg)
    if how == "pullback":
        return pullback_representation(rng.choice(morphisms), alg, alg)
    if how == "twisted":
        return twist_representation(regular_representation(alg),
                                    rng.choice(morphisms), alg)
    if how == "zero":
        return zero_rep(alg.kind, alg.dim, carrier, small_matrix(rng, carrier, carrier))
    raise ValueError(how)


def corrupt_rep(rng: random.Random, rep: Representation) -> Representation:
    """Copy with one action-matrix entry shifted by a nonzero amount."""
    families = rep.actions()
    name = rng.choice(sorted(families))
    tensor = families[name]
    mats = list(tensor.mats)
    i = rng.randrange(tensor.base_dim)
    r, c = rng.randrange(tensor.carrier_dim), rng.randrange(tensor.carrier_dim)
    entries = [list(row) for row in mats[i].entries]
    entries[r][c] += rng.choice((1, -1, 2, Fraction(1, 2)))
    mats[i] = Matrix(entries)
    families[name] = ActionTensor(tensor.base_dim, tensor.carrier_dim, mats)
    return Representation(rep.kind, rep.base_dim, rep.carrier_dim, rep.phi, **families)


def semidirect_base(rng: random.Random, base: Base, how: str,
                    carrier: int = 0) -> Base:
    """The semidirect product with a representation, as a new base (its
    only recorded self-morphism is the identity)."""
    rep = representation(rng, base, how, carrier)
    alg = semidirect_product(base.alg, rep)
    return Base(f"{base.label}+{how}{rep.carrier_dim}", alg,
                [Matrix.identity(alg.dim)])


def degenerate_pair(alg: HomAlgebra, rep: Representation) -> MatchedPair:
    """The semidirect situation as a matched pair: the carrier becomes an
    abelian algebra acting by zero."""
    carrier = zero_algebra(alg.kind, rep.carrier_dim, rep.phi)
    back = zero_rep(alg.kind, rep.carrier_dim, alg.dim, alg.alpha)
    return MatchedPair(alg, carrier, rep, back)


def nilpotent_cross_pair(scale) -> MatchedPair:
    """Leibniz pair whose back action is a valid representation for any
    scale; the cross conditions hold exactly when the scale is 0."""
    l = two_dim_leibniz()
    n = Matrix([[0, 1], [0, 0]]).scale(scale)
    back = Representation(LEIBNIZ, 2, 2, l.alpha,
                          rho_l=ActionTensor(2, 2, [n, n.scale(Fraction(-1, 2))]),
                          rho_r=ActionTensor.zero(2, 2))
    return MatchedPair(l, zero_algebra(LEIBNIZ, 2, TWIST),
                       regular_representation(l), back)


# ---- documents ---------------------------------------------------------


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 1, 2, 3, 5)), rng.choice((1, 1, 1, 2, 3)))


def _sparse_vector(rng: random.Random, dim: int, terms: int) -> Vector:
    v = [Fraction(0)] * dim
    for k in rng.sample(range(dim), min(terms, dim)):
        v[k] = _coeff(rng)
    return Vector(v)


def _random_tensor(rng: random.Random, dim: int, nonzero: int) -> StructureTensor:
    products = {}
    while len(products) < nonzero:
        products[(rng.randrange(dim), rng.randrange(dim))] = \
            _sparse_vector(rng, dim, rng.randint(1, 2))
    return StructureTensor.from_products(dim, products)


def _random_rep(rng: random.Random, kind: str, dim: int, carrier: int) -> Representation:
    """Actions and twist with about half their entries nonzero."""
    def mat():
        return Matrix([[_coeff(rng) if rng.random() < 0.5 else 0
                        for _ in range(carrier)] for _ in range(carrier)])
    families = {fam: ActionTensor(dim, carrier, [mat() for _ in range(dim)])
                for table in TABLES_OF_KIND[kind] for fam in ACTIONS_OF[table]}
    return Representation(kind, dim, carrier, mat(), **families)


def small_document(rng: random.Random, index: int) -> Document:
    """Fixture-sized: one to three algebras of dim 2-4, each with nearly
    full tables, a representation and a self-map.  The shape (how many
    algebras, their dims, kinds and carriers) follows ``index``; the
    entries come from ``rng``."""
    items = []
    for n in range(1 + index % 3):
        dim = 2 + (index + n) % 3
        kind = KINDS[(index // 3 + n) % 3]
        tables = {name: _random_tensor(rng, dim, dim * dim - 1)
                  for name in TABLES_OF_KIND[kind]}
        name = f"A{n}"
        items.append(DocAlgebra(name, HomAlgebra(
            dim, kind, small_matrix(rng, dim, dim), **tables)))
        items.append(DocRepresentation(
            f"R{n}", name, _random_rep(rng, kind, dim, 1 + (index + n) % 3)))
        items.append(DocMap(f"f{n}", name, name, small_matrix(rng, dim, dim)))
    return Document(items)


def sparse_document(rng: random.Random, dim: int) -> Document:
    """One large Poisson algebra with about 3*dim nonzero products split
    over its two tables, a sparse twist, and a self-map."""
    dot = _random_tensor(rng, dim, 3 * dim // 2)
    bracket = _random_tensor(rng, dim, 3 * dim - 3 * dim // 2)
    alpha = Matrix.from_cols([_sparse_vector(rng, dim, 1) for _ in range(dim)])
    beta = Matrix.from_cols([_sparse_vector(rng, dim, 1) for _ in range(dim)])
    return Document([
        DocAlgebra("L", HomAlgebra(dim, POISSON, alpha, dot=dot, bracket=bracket)),
        DocMap("beta", "L", "L", beta),
    ])
