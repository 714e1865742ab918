"""Algebra-level checkers against brute-force oracles and hand values."""

import random
from itertools import product

import pytest

from homkit.algebra import (
    ASSOCIATIVE, POISSON, HomAlgebra, StructureTensor,
    check_algebra, check_hom_associative, check_hom_leibniz, check_ideal,
    check_morphism, check_multiplicative, check_poisson_compat, yau_twist,
)
from homkit.errors import KindMismatchError, PreconditionError, ShapeError
from homkit.fixtures import (
    TWIST, two_dim_associative, two_dim_leibniz, two_dim_poisson,
)
from homkit.linalg import Matrix, Vector, frac


def brute_force_residuals(residual, dim, arity):
    """Oracle: enumerate all basis tuples and collect nonzero residuals."""
    found = []
    for idx in product(range(dim), repeat=arity):
        r = residual(*idx)
        if not r.is_zero():
            found.append((idx, r))
    return found


def test_eval_product_fixture_values():
    a = two_dim_associative()
    assert a.dot.product(Vector.unit(2, 0), Vector.unit(2, 1)) == Vector([-1, 0])
    l = two_dim_leibniz()
    assert l.bracket.product(Vector.unit(2, 1), Vector.unit(2, 1)).is_zero()


def test_eval_product_bilinearity_randomized():
    rng = random.Random(3)
    t = two_dim_poisson().dot
    for _ in range(20):
        x = Vector([rng.randint(-3, 3), rng.randint(-3, 3)])
        y = Vector([rng.randint(-3, 3), rng.randint(-3, 3)])
        z = Vector([rng.randint(-3, 3), rng.randint(-3, 3)])
        a, b = frac(rng.randint(-2, 2)), frac("1/2")
        left = t.product(x.scale(a) + y.scale(b), z)
        assert left == t.product(x, z).scale(a) + t.product(y, z).scale(b)
        right = t.product(z, x.scale(a) + y.scale(b))
        assert right == t.product(z, x).scale(a) + t.product(z, y).scale(b)


def test_eval_product_zero_slot():
    t = two_dim_leibniz().bracket
    assert t.product(Vector.zero(2), Vector([5, -7])).is_zero()


def test_eval_product_shape_error():
    with pytest.raises(ShapeError):
        two_dim_leibniz().bracket.product(Vector([1]), Vector([1, 0]))


def test_basis_product_refuses_a_pair_outside_the_dimension():
    """A basis pair outside ``0..dim-1`` is a ``ShapeError``, as in
    ``from_products``, and so is a coefficient index outside it (``-1``
    read the last entry); an unlisted pair inside it is a zero product."""
    t = StructureTensor.from_products(2, {})
    for i, j in ((7, 7), (2, 0), (0, -1)):
        with pytest.raises(ShapeError, match=r"product index \(.*\) out of range for dim 2"):
            t.basis_product(i, j)
        with pytest.raises(ShapeError):
            t.coefficient(i, j, 0)
    assert t.basis_product(1, 1) == Vector.zero(2) and t.coefficient(1, 0, 1) == 0
    u = StructureTensor(2, {(0, 1): [1, 7]})
    for k in (-1, 2, 5):
        with pytest.raises(ShapeError, match=rf"basis index {k} out of range for dim 2"):
            u.coefficient(0, 1, k)
    assert u.coefficient(0, 1, 0) == 1 and u.coefficient(0, 1, 1) == 7
    assert two_dim_leibniz().bracket.basis_product(0, 1) == Vector([1, 0])


def test_multiplicative_leibniz_fixture_passes():
    report = check_multiplicative(two_dim_leibniz())
    assert report.passed
    # Oracle re-check: exhaustive residual enumeration is empty.
    alg = two_dim_leibniz()
    res = brute_force_residuals(
        lambda i, j: alg.alpha.apply(alg.bracket.basis_product(i, j))
        - alg.bracket.product(alg.alpha.col(i), alg.alpha.col(j)), 2, 2)
    assert res == []


def test_multiplicative_associative_fixture_fails_at_e2_e2():
    # Hand computation: alpha(e2.e2) = e2 but alpha(e2).alpha(e2) = -e1 + e2.
    report = check_multiplicative(two_dim_associative())
    result = report.result("multiplicative:dot")
    assert not result.passed
    assert result.witness.indices == (1, 1)
    assert result.witness.residual == Vector([1, 0])


def test_multiplicative_identity_twist_always_passes():
    rng = random.Random(5)
    for _ in range(10):
        t = StructureTensor.from_function(
            2, lambda i, j: Vector([rng.randint(-2, 2), rng.randint(-2, 2)]))
        alg = HomAlgebra(2, ASSOCIATIVE, Matrix.identity(2), dot=t)
        assert check_multiplicative(alg).passed


def test_hom_associative_fixture_passes():
    a = two_dim_associative()
    assert check_hom_associative(a.dot, a.alpha).passed
    res = brute_force_residuals(
        lambda i, j, k: a.dot.product(a.dot.basis_product(i, j), a.alpha.col(k))
        - a.dot.product(a.alpha.col(i), a.dot.basis_product(j, k)), 2, 3)
    assert res == []


def test_hom_associative_zero_tensor_passes():
    assert check_hom_associative(StructureTensor.zero(3), Matrix.identity(3)).passed


def test_hom_associative_bracket_table_fails():
    # The Leibniz table used as a product with twist -id is not
    # Hom-associative; oracle is the brute-force triple enumeration.
    t = two_dim_leibniz().bracket
    alpha = Matrix.identity(2).scale(-1)
    report = check_hom_associative(t, alpha)
    res = brute_force_residuals(
        lambda i, j, k: t.product(t.basis_product(i, j), alpha.col(k))
        - t.product(alpha.col(i), t.basis_product(j, k)), 2, 3)
    assert bool(res) == (not report.passed)
    assert not report.passed
    assert report.checks[0].witness.indices == res[0][0]


def test_hom_leibniz_fixture_passes():
    l = two_dim_leibniz()
    assert check_hom_leibniz(l.bracket, l.alpha).passed


def test_hom_leibniz_zero_bracket_passes():
    assert check_hom_leibniz(StructureTensor.zero(2), TWIST).passed


def test_hom_leibniz_commutative_dot_fails():
    a = two_dim_associative()
    report = check_hom_leibniz(a.dot, a.alpha)
    res = brute_force_residuals(
        lambda i, j, k: a.dot.product(a.dot.basis_product(i, j), a.alpha.col(k))
        - a.dot.product(a.alpha.col(i), a.dot.basis_product(j, k))
        - a.dot.product(a.dot.basis_product(i, k), a.alpha.col(j)), 2, 3)
    assert bool(res) == (not report.passed)
    assert not report.passed


def test_poisson_compat_trivial_pass():
    dot = StructureTensor.from_products(2, {(0, 0): [1, 0], (0, 1): [0, 1],
                                            (1, 0): [0, 1]})
    alg = HomAlgebra(2, POISSON, Matrix.identity(2), dot=dot,
                     bracket=StructureTensor.zero(2))
    assert check_poisson_compat(alg).passed


def test_poisson_compat_fixture_fails_at_recorded_witness():
    # Hand computation: [e2.e2, alpha(e1)] = e1 while
    # alpha(e2).[e2,e1] + [e2,e1].alpha(e2) = 2 e1.
    report = check_poisson_compat(two_dim_poisson())
    result = report.result("poisson_compatibility")
    assert not result.passed
    assert result.witness.indices == (1, 1, 0)
    assert result.witness.residual == Vector([-1, 0])


def test_poisson_compat_kind_error():
    with pytest.raises(KindMismatchError):
        check_poisson_compat(two_dim_leibniz())


def classical_leibniz_poisson():
    """Zero dot with the nonabelian two-dimensional Lie bracket, twist id:
    a (classical) Leibniz-Poisson structure."""
    bracket = StructureTensor.from_products(2, {(0, 1): [1, 0], (1, 0): [-1, 0]})
    return HomAlgebra(2, POISSON, Matrix.identity(2),
                      dot=StructureTensor.zero(2), bracket=bracket)


def test_yau_twist_of_classical_poisson_passes_everything():
    alg = classical_leibniz_poisson()
    assert check_algebra(alg).passed
    # The fixture twist is an involutive self-morphism of this algebra.
    twisted = yau_twist(alg, TWIST)
    assert check_algebra(twisted).passed
    assert check_poisson_compat(twisted).passed


def test_yau_twist_identity_is_noop():
    l = two_dim_leibniz()
    assert yau_twist(l, Matrix.identity(2)) == l


def test_yau_twist_zero_map():
    l = two_dim_leibniz()
    twisted = yau_twist(l, Matrix.zero(2, 2))
    assert twisted.bracket == StructureTensor.zero(2)
    assert twisted.alpha == Matrix.zero(2, 2)
    assert check_algebra(twisted).passed


def test_yau_twist_rejects_non_morphism():
    with pytest.raises(PreconditionError):
        yau_twist(two_dim_leibniz(), Matrix([[1, 1], [0, 1]]))


def test_yau_twist_preserves_checks_randomized():
    # Property: twisting a verified algebra by a verified commuting
    # self-morphism yields an algebra passing the same checks.
    rng = random.Random(23)
    base = classical_leibniz_poisson()
    morphisms = [Matrix.identity(2), TWIST, Matrix.zero(2, 2),
                 Matrix([[1, 0], [0, 0]])]
    algebras = [base, two_dim_leibniz()]
    for alg in algebras:
        for beta in morphisms:
            if not check_morphism(beta, alg, alg).passed:
                continue
            if not check_algebra(alg).passed:
                continue
            twisted = yau_twist(alg, beta)
            assert check_algebra(twisted).passed


def test_check_morphism_identity_and_zero():
    l = two_dim_leibniz()
    assert check_morphism(Matrix.identity(2), l, l).passed
    assert check_morphism(Matrix.zero(2, 2), l, l).passed


def test_check_morphism_twist_of_leibniz_fixture():
    l = two_dim_leibniz()
    assert check_morphism(TWIST, l, l).passed


def test_check_morphism_twist_of_assoc_fixture_fails():
    # alpha is not multiplicative on the associative example, so it is not
    # a self-morphism there.
    a = two_dim_associative()
    assert not check_morphism(TWIST, a, a).passed


def test_check_morphism_kind_mismatch():
    with pytest.raises(KindMismatchError):
        check_morphism(Matrix.identity(2), two_dim_leibniz(), two_dim_associative())


def test_check_ideal_span_e1_in_leibniz():
    l = two_dim_leibniz()
    assert check_ideal([Vector.unit(2, 0)], l).passed


def test_check_ideal_full_space():
    l = two_dim_leibniz()
    assert check_ideal([Vector.unit(2, 0), Vector.unit(2, 1)], l).passed


def test_check_ideal_span_e2_fails():
    l = two_dim_leibniz()
    report = check_ideal([Vector.unit(2, 1)], l)
    assert not report.passed


def test_check_reports_complete_on_pass():
    # pass = True means exhaustive re-evaluation finds zero residual.
    l = two_dim_leibniz()
    report = check_hom_leibniz(l.bracket, l.alpha)
    assert report.passed
    res = brute_force_residuals(
        lambda i, j, k: l.bracket.product(l.bracket.basis_product(i, j), l.alpha.col(k))
        - l.bracket.product(l.alpha.col(i), l.bracket.basis_product(j, k))
        - l.bracket.product(l.bracket.basis_product(i, k), l.alpha.col(j)), 2, 3)
    assert res == []
