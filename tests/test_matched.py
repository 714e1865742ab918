"""Matched pairs: cross-condition checkers against the sum-theorem oracle."""

import random
from fractions import Fraction

import pytest

from homkit.algebra import (
    ASSOCIATIVE, LEIBNIZ, POISSON, HomAlgebra, StructureTensor, check_algebra,
)
from homkit.errors import PreconditionError, ShapeError
from homkit.fixtures import TWIST, two_dim_leibniz
from homkit.linalg import Matrix, Vector
from homkit.matched import MatchedPair, check_matched_pair, matched_sum
from homkit.representation import (
    ActionTensor, Representation, check_representation,
    regular_representation, semidirect_product,
)


def zero_algebra(kind, dim, alpha):
    kw = {}
    if kind in (ASSOCIATIVE, POISSON):
        kw["dot"] = StructureTensor.zero(dim)
    if kind in (LEIBNIZ, POISSON):
        kw["bracket"] = StructureTensor.zero(dim)
    return HomAlgebra(dim, kind, alpha, **kw)


def zero_rep(kind, base_dim, carrier_dim, phi):
    kw = {}
    if kind in (ASSOCIATIVE, POISSON):
        kw["lambda_l"] = ActionTensor.zero(base_dim, carrier_dim)
        kw["lambda_r"] = ActionTensor.zero(base_dim, carrier_dim)
    if kind in (LEIBNIZ, POISSON):
        kw["rho_l"] = ActionTensor.zero(base_dim, carrier_dim)
        kw["rho_r"] = ActionTensor.zero(base_dim, carrier_dim)
    return Representation(kind, base_dim, carrier_dim, phi, **kw)


def degenerate_pair(alg, rep):
    """Semidirect situation as a matched pair: the carrier becomes an
    abelian algebra and acts by zero."""
    a2 = zero_algebra(alg.kind, rep.carrier_dim, rep.phi)
    back = zero_rep(alg.kind, rep.carrier_dim, alg.dim, alg.alpha)
    return MatchedPair(alg, a2, rep, back)


def unital_dual_numbers():
    """K[x]/(x^2): e1 is the unit, e2^2 = 0, twist identity."""
    dot = StructureTensor.from_products(2, {
        (0, 0): [1, 0], (0, 1): [0, 1], (1, 0): [0, 1]})
    return HomAlgebra(2, ASSOCIATIVE, Matrix.identity(2), dot=dot)


def classical_poisson():
    bracket = StructureTensor.from_products(2, {(0, 1): [1, 0], (1, 0): [-1, 0]})
    return HomAlgebra(2, POISSON, Matrix.identity(2),
                      dot=StructureTensor.zero(2), bracket=bracket)


def test_zero_dim_side_is_vacuous():
    l = two_dim_leibniz()
    mp = degenerate_pair(l, zero_rep(LEIBNIZ, 2, 0, Matrix.zero(0, 0)))
    assert check_matched_pair(mp).passed
    total = matched_sum(mp)
    assert total == l


def test_all_zero_cross_actions_pass():
    l = two_dim_leibniz()
    a2 = zero_algebra(LEIBNIZ, 2, Matrix.identity(2))
    mp = MatchedPair(l, a2, zero_rep(LEIBNIZ, 2, 2, Matrix.identity(2)),
                     zero_rep(LEIBNIZ, 2, 2, l.alpha))
    assert check_matched_pair(mp).passed
    assert check_algebra(matched_sum(mp)).passed


@pytest.mark.parametrize("make", [
    lambda: (two_dim_leibniz(), None),
    lambda: (unital_dual_numbers(), None),
    lambda: (classical_poisson(), None),
])
def test_degenerate_pair_equals_semidirect(make):
    alg, _ = make()
    rep = regular_representation(alg)
    assert check_representation(rep, alg).passed
    mp = degenerate_pair(alg, rep)
    report = check_matched_pair(mp)
    assert report.passed
    total = matched_sum(mp)
    sd = semidirect_product(alg, rep)
    assert total.alpha == sd.alpha
    assert total.dot == sd.dot
    assert total.bracket == sd.bracket
    assert check_algebra(total).passed


def nilpotent_cross_pair(scale):
    """Leibniz pair with a nonzero action of the abelian side on the
    Leibniz fixture; a valid representation for any scale, but the cross
    conditions only hold when the action vanishes."""
    l = two_dim_leibniz()
    a2 = zero_algebra(LEIBNIZ, 2, TWIST)
    n = Matrix([[0, 1], [0, 0]]).scale(scale)
    rho_l = ActionTensor(2, 2, [n, n.scale(Fraction(-1, 2))])
    back = Representation(LEIBNIZ, 2, 2, l.alpha,
                          rho_l=rho_l, rho_r=ActionTensor.zero(2, 2))
    forward = regular_representation(l)
    return MatchedPair(l, a2, forward, back)


def test_nilpotent_cross_rep_is_valid():
    mp = nilpotent_cross_pair(1)
    assert check_representation(mp.actions_2_on_1, mp.a2).passed


def test_checker_agrees_with_sum_oracle():
    # The operational ground truth: the cross conditions pass exactly when
    # the bicrossed sum passes the algebra checks.
    for scale in (0, 1, -1, 2, Fraction(1, 2)):
        mp = nilpotent_cross_pair(scale)
        checker = check_matched_pair(mp).passed
        oracle = check_algebra(matched_sum(mp)).passed
        assert checker == oracle
        assert checker == (scale == 0)


def test_soundness_randomized_degenerations():
    rng = random.Random(77)
    l = two_dim_leibniz()
    reps = [regular_representation(l),
            zero_rep(LEIBNIZ, 2, 3, Matrix.identity(3)),
            zero_rep(LEIBNIZ, 2, 1, Matrix([[rng.randint(-2, 2)]]))]
    for rep in reps:
        mp = degenerate_pair(l, rep)
        if check_matched_pair(mp).passed:
            assert check_algebra(matched_sum(mp)).passed


def test_precondition_invalid_rep_raises():
    l = two_dim_leibniz()
    a2 = zero_algebra(LEIBNIZ, 2, TWIST)
    bad = Representation(
        LEIBNIZ, 2, 2, TWIST,
        rho_l=ActionTensor(2, 2, [Matrix([[1, 0], [0, 0]]), Matrix.zero(2, 2)]),
        rho_r=ActionTensor.zero(2, 2))
    assert not check_representation(bad, l).passed
    with pytest.raises(PreconditionError):
        check_matched_pair(MatchedPair(l, a2, bad,
                                       zero_rep(LEIBNIZ, 2, 2, l.alpha)))


def test_cross_twist_must_match():
    l = two_dim_leibniz()
    a2 = zero_algebra(LEIBNIZ, 2, TWIST)
    with pytest.raises(ShapeError):
        MatchedPair(l, a2, zero_rep(LEIBNIZ, 2, 2, Matrix.identity(2)),
                    zero_rep(LEIBNIZ, 2, 2, l.alpha))


def test_poisson_pair_includes_all_condition_groups():
    alg = classical_poisson()
    mp = degenerate_pair(alg, regular_representation(alg))
    report = check_matched_pair(mp)
    names = [c.identity for c in report]
    for group in ("cross:assoc:1", "cross:leibniz:1", "cross:poisson:1"):
        assert group in names
    assert report.passed
    assert check_algebra(matched_sum(mp)).passed


def split_into_matched_pair(alg, k):
    """Matched-pair data read off an algebra whose basis splits into a
    leading subalgebra (first k basis vectors) and a trailing one; the
    cross actions are the mixed components of the products."""
    n = alg.dim
    m = n - k

    def head(v):
        return Vector(v.entries[:k])

    def tail(v):
        return Vector(v.entries[k:])

    def sub_tensor(t, lo, size):
        return StructureTensor.from_function(
            size, lambda i, j: Vector(
                t.basis_product(lo + i, lo + j).entries[lo:lo + size]))

    def subalg(lo, size):
        kw = {}
        if alg.dot is not None:
            kw["dot"] = sub_tensor(alg.dot, lo, size)
        if alg.bracket is not None:
            kw["bracket"] = sub_tensor(alg.bracket, lo, size)
        a = Matrix([[alg.alpha[lo + i, lo + j] for j in range(size)]
                    for i in range(size)])
        return HomAlgebra(size, alg.kind, a, **kw)

    a1, a2 = subalg(0, k), subalg(k, m)

    def families(t):
        act1l = [Matrix.from_cols([tail(t.basis_product(i, k + q))
                                   for q in range(m)]) for i in range(k)]
        act1r = [Matrix.from_cols([tail(t.basis_product(k + q, i))
                                   for q in range(m)]) for i in range(k)]
        act2l = [Matrix.from_cols([head(t.basis_product(k + u, j))
                                   for j in range(k)]) for u in range(m)]
        act2r = [Matrix.from_cols([head(t.basis_product(j, k + u))
                                   for j in range(k)]) for u in range(m)]
        return (ActionTensor(k, m, act1l), ActionTensor(k, m, act1r),
                ActionTensor(m, k, act2l), ActionTensor(m, k, act2r))

    kw12, kw21 = {}, {}
    if alg.dot is not None:
        a, b, c, d = families(alg.dot)
        kw12.update(lambda_l=a, lambda_r=b)
        kw21.update(lambda_l=c, lambda_r=d)
    if alg.bracket is not None:
        a, b, c, d = families(alg.bracket)
        kw12.update(rho_l=a, rho_r=b)
        kw21.update(rho_l=c, rho_r=d)
    rep12 = Representation(alg.kind, k, m, a2.alpha, **kw12)
    rep21 = Representation(alg.kind, m, k, a1.alpha, **kw21)
    return MatchedPair(a1, a2, rep12, rep21)


def matrix_algebra_2x2(kind):
    """Full 2x2 matrix algebra in the basis E11, E12, E22, E21 (upper
    triangular part first), optionally with the commutator bracket."""
    E11, E12, E22, E21 = 0, 1, 2, 3

    def unit(i):
        v = [0, 0, 0, 0]
        v[i] = 1
        return v

    prods = {
        (E11, E11): unit(E11), (E11, E12): unit(E12),
        (E12, E22): unit(E12), (E12, E21): unit(E11),
        (E22, E22): unit(E22), (E22, E21): unit(E21),
        (E21, E11): unit(E21), (E21, E12): unit(E22),
    }
    dot = StructureTensor.from_products(4, prods)
    if kind == ASSOCIATIVE:
        return HomAlgebra(4, ASSOCIATIVE, Matrix.identity(4), dot=dot)
    commutator = StructureTensor.from_function(
        4, lambda i, j: dot.basis_product(i, j) - dot.basis_product(j, i))
    return HomAlgebra(4, POISSON, Matrix.identity(4), dot=dot,
                      bracket=commutator)


def test_matrix_algebra_split_associative():
    # Upper triangular matrices and the strictly lower part act on each
    # other nontrivially in both directions; the pair must check out and
    # the bicrossed sum must rebuild the matrix algebra exactly.
    alg = matrix_algebra_2x2(ASSOCIATIVE)
    assert check_algebra(alg).passed
    mp = split_into_matched_pair(alg, 3)
    assert any(not mat.is_zero() for mat in mp.actions_1_on_2.lambda_l.mats)
    assert any(not mat.is_zero() for mat in mp.actions_2_on_1.lambda_l.mats)
    assert check_matched_pair(mp).passed
    assert matched_sum(mp) == alg


def test_matrix_algebra_split_poisson():
    # Same split with the commutator bracket on top: all three groups of
    # cross conditions run on nonzero data and must pass.
    alg = matrix_algebra_2x2(POISSON)
    assert check_algebra(alg).passed
    mp = split_into_matched_pair(alg, 3)
    assert any(not mat.is_zero() for mat in mp.actions_2_on_1.rho_l.mats)
    report = check_matched_pair(mp)
    assert report.passed
    assert matched_sum(mp) == alg


def test_lie_algebra_split_leibniz():
    bracket = StructureTensor.from_products(2, {(0, 1): [1, 0], (1, 0): [-1, 0]})
    alg = HomAlgebra(2, LEIBNIZ, Matrix.identity(2), bracket=bracket)
    mp = split_into_matched_pair(alg, 1)
    assert not mp.actions_2_on_1.rho_l.mats[0].is_zero()
    assert check_matched_pair(mp).passed
    assert matched_sum(mp) == alg
