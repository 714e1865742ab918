"""Representation axioms, constructions, and the semidirect equivalence."""

import random
from fractions import Fraction

import pytest

from homkit.algebra import (
    LEIBNIZ, HomAlgebra, StructureTensor, check_algebra,
)
from homkit.errors import KindMismatchError, PreconditionError, ShapeError
from homkit.fixtures import (
    TWIST, two_dim_associative, two_dim_leibniz, two_dim_poisson,
)
from homkit.linalg import _ZERO, Matrix, Vector
from homkit.matched import MatchedPair
from homkit.operators import OperatorContext, projection_context
from homkit.representation import (
    ActionTensor, Representation, check_representation, ideal_representation,
    power_twist_representation, pullback_representation,
    regular_representation, semidirect_product, twist_representation,
)
from homkit.solver import generate_constraints


def perturb(rep: Representation, action: str, base_idx: int, row: int,
            col: int, delta=1) -> Representation:
    """Copy of rep with one entry of one action matrix changed."""
    tensors = {name: t for name, t in rep.actions().items()}
    target = tensors[action]
    mats = list(target.mats)
    entries = [list(r) for r in mats[base_idx].entries]
    entries[row][col] += delta
    mats[base_idx] = Matrix(entries)
    tensors[action] = ActionTensor(target.base_dim, target.carrier_dim, mats)
    return Representation(rep.kind, rep.base_dim, rep.carrier_dim, rep.phi,
                          **tensors)


def test_regular_rep_leibniz_passes():
    l = two_dim_leibniz()
    assert check_representation(regular_representation(l), l).passed


def test_regular_rep_action_values():
    l = two_dim_leibniz()
    rep = regular_representation(l)
    # rho_l(e1) sends e2 to [e1,e2] = e1 and e1 to 0.
    assert rep.rho_l.mats[0].col(1) == Vector([1, 0])
    assert rep.rho_l.mats[0].col(0).is_zero()
    # rho_r(e2) sends e1 to [e1,e2] = e1.
    assert rep.rho_r.mats[1].col(0) == Vector([1, 0])


def test_regular_rep_poisson_lambda_part_matches_associative():
    p = two_dim_poisson()
    a = two_dim_associative()
    rp, ra = regular_representation(p), regular_representation(a)
    assert rp.lambda_l == ra.lambda_l
    assert rp.lambda_r == ra.lambda_r
    assert rp.rho_l is not None and rp.rho_r is not None


def test_regular_rep_zero_algebra():
    alg = HomAlgebra(2, LEIBNIZ, Matrix.identity(2),
                     bracket=StructureTensor.zero(2))
    rep = regular_representation(alg)
    assert all(m.is_zero() for m in rep.rho_l.mats)


def test_zero_actions_pass_on_multiplicative_algebra():
    l = two_dim_leibniz()
    rep = Representation(LEIBNIZ, 2, 3, Matrix.identity(3),
                         rho_l=ActionTensor.zero(2, 3),
                         rho_r=ActionTensor.zero(2, 3))
    assert check_representation(rep, l).passed


def test_perturbed_rep_fails_with_witness():
    l = two_dim_leibniz()
    rep = perturb(regular_representation(l), "rho_l", 0, 0, 0)
    report = check_representation(rep, l)
    assert not report.passed
    failing = report.failures()
    assert failing and all(c.witness is not None for c in failing)


def test_regular_rep_of_nonmultiplicative_algebra_fails():
    a = two_dim_associative()
    report = check_representation(regular_representation(a), a)
    assert not report.result("phi_commutes_left_mult").passed


def test_pullback_along_identity_is_regular():
    l = two_dim_leibniz()
    assert (pullback_representation(Matrix.identity(2), l, l)
            == regular_representation(l))


def test_pullback_along_zero_map():
    l = two_dim_leibniz()
    rep = pullback_representation(Matrix.zero(2, 2), l, l)
    assert all(m.is_zero() for m in rep.rho_l.mats)
    assert rep.phi == l.alpha
    assert check_representation(rep, l).passed


def test_pullback_along_twist():
    l = two_dim_leibniz()
    rep = pullback_representation(TWIST, l, l)
    assert check_representation(rep, l).passed


def test_pullback_rejects_non_morphism():
    l = two_dim_leibniz()
    with pytest.raises(PreconditionError):
        pullback_representation(Matrix([[1, 1], [0, 1]]), l, l)


@pytest.mark.parametrize("rows, cols", [(2, 3), (2, 1), (3, 2)])
def test_pullback_refuses_a_mis_shaped_map_even_unchecked(rows, cols):
    l = two_dim_leibniz()
    f = Matrix([[1] * cols for _ in range(rows)])
    with pytest.raises(ShapeError):
        pullback_representation(f, l, l, checked=False)


def test_pullback_refuses_endpoints_of_two_kinds_even_unchecked():
    with pytest.raises(KindMismatchError):
        pullback_representation(Matrix.identity(2), two_dim_leibniz(), two_dim_associative(),
                                checked=False)


@pytest.mark.parametrize("rows, cols", [(3, 3), (2, 3), (3, 2), (1, 1)])
def test_twist_refuses_a_mis_shaped_map_even_unchecked(rows, cols):
    l = two_dim_leibniz()
    beta = Matrix([[1] * cols for _ in range(rows)])
    with pytest.raises(ShapeError):
        twist_representation(regular_representation(l), beta, l, checked=False)


def test_twist_by_identity_is_noop():
    l = two_dim_leibniz()
    rep = regular_representation(l)
    assert twist_representation(rep, Matrix.identity(2), l) == rep


def test_twist_by_zero_map():
    l = two_dim_leibniz()
    rep = twist_representation(regular_representation(l), Matrix.zero(2, 2), l)
    assert all(m.is_zero() for m in rep.rho_l.mats)
    assert check_representation(rep, l).passed


def test_power_twist_representations_pass():
    l = two_dim_leibniz()
    rep = regular_representation(l)
    for n in range(4):
        powered = power_twist_representation(rep, l, n)
        assert check_representation(powered, l).passed


def test_power_twist_matches_repeated_twists():
    l = two_dim_leibniz()
    rep = regular_representation(l)
    repeated = rep
    for n in range(1, 4):
        repeated = twist_representation(repeated, l.alpha, l)
        assert power_twist_representation(rep, l, n) == repeated


def test_power_twist_edges():
    # The associative fixture's twist is not multiplicative: power zero
    # returns the representation itself without a check, any positive
    # power is refused.
    a = two_dim_associative()
    rep = regular_representation(a)
    assert power_twist_representation(rep, a, 0) is rep
    for n in (1, 2):
        with pytest.raises(PreconditionError):
            power_twist_representation(rep, a, n)


def test_power_twist_checks_the_pair_at_every_power():
    # A Leibniz representation with an associative algebra is refused at
    # power zero and below too, as every other construction refuses it.
    rep = regular_representation(two_dim_leibniz())
    for n in (-1, 0, 1):
        with pytest.raises(KindMismatchError):
            power_twist_representation(rep, two_dim_associative(), n)


def test_twist_composition_property():
    l = two_dim_leibniz()
    rep = regular_representation(l)
    b1, b2 = TWIST, TWIST @ TWIST
    lhs = twist_representation(rep, b1 @ b2, l)
    rhs = twist_representation(twist_representation(rep, b1, l), b2, l)
    assert lhs == rhs


def test_ideal_representation_span_e1():
    l = two_dim_leibniz()
    rep = ideal_representation([Vector.unit(2, 0)], l)
    assert rep.carrier_dim == 1
    # rho_l(e2) e1 = [e2, e1] = -e1, so the 1x1 matrix is (-1).
    assert rep.rho_l.mats[1][0, 0] == -1
    assert check_representation(rep, l).passed


def test_ideal_representation_full_space_is_regular():
    l = two_dim_leibniz()
    rep = ideal_representation([Vector.unit(2, 0), Vector.unit(2, 1)], l)
    assert rep == regular_representation(l)


def test_ideal_representation_empty_basis():
    l = two_dim_leibniz()
    rep = ideal_representation([], l)
    assert rep.carrier_dim == 0
    assert check_representation(rep, l).passed


def test_ideal_representation_rejects_non_ideal():
    l = two_dim_leibniz()
    with pytest.raises(PreconditionError):
        ideal_representation([Vector.unit(2, 1)], l)


def test_semidirect_with_regular_rep_is_hom_leibniz():
    l = two_dim_leibniz()
    sd = semidirect_product(l, regular_representation(l))
    assert sd.dim == 4
    assert check_algebra(sd).passed


def test_semidirect_zero_rep_block_structure():
    l = two_dim_leibniz()
    rep = Representation(LEIBNIZ, 2, 2, Matrix.identity(2),
                         rho_l=ActionTensor.zero(2, 2),
                         rho_r=ActionTensor.zero(2, 2))
    sd = semidirect_product(l, rep)
    assert check_algebra(sd).passed
    for i in range(2):
        for j in range(2):
            inner = l.bracket.basis_product(i, j)
            assert sd.bracket.basis_product(i, j) == Vector(
                tuple(inner.entries) + (0, 0))
            assert sd.bracket.basis_product(i + 2, j + 2).is_zero()


def test_semidirect_corrupted_rep_fails():
    l = two_dim_leibniz()
    rep = perturb(regular_representation(l), "rho_r", 1, 0, 1)
    assert not check_representation(rep, l).passed
    assert not check_algebra(semidirect_product(l, rep)).passed


def random_valid_leibniz_reps(rng, count):
    """Stream of (algebra, representation, expected validity) samples built
    from constructions that are valid by theorem, plus random corruptions."""
    l = two_dim_leibniz()
    base_reps = [
        regular_representation(l),
        pullback_representation(TWIST, l, l),
        pullback_representation(Matrix.zero(2, 2), l, l),
        twist_representation(regular_representation(l), TWIST, l),
        ideal_representation([Vector.unit(2, 0)], l),
        Representation(LEIBNIZ, 2, 3, Matrix.identity(3),
                       rho_l=ActionTensor.zero(2, 3),
                       rho_r=ActionTensor.zero(2, 3)),
    ]
    out = []
    while len(out) < count:
        rep = rng.choice(base_reps)
        if rng.random() < 0.5 and rep.carrier_dim > 0:
            action = rng.choice(sorted(rep.actions()))
            rep = perturb(rep, action, rng.randrange(2),
                          rng.randrange(rep.carrier_dim),
                          rng.randrange(rep.carrier_dim),
                          delta=rng.choice([1, -1, 2]))
        out.append((l, rep))
    return out


def test_semidirect_equivalence_randomized():
    # Both directions: the representation axioms hold iff the semidirect
    # product passes the kind's algebra checks.
    rng = random.Random(101)
    for alg, rep in random_valid_leibniz_reps(rng, 60):
        rep_ok = check_representation(rep, alg).passed
        sd_ok = check_algebra(semidirect_product(alg, rep)).passed
        assert rep_ok == sd_ok


def test_right_bracket_antisymmetry_follows_from_composition():
    # Internal consistency: whenever the right-composition axiom holds on
    # all pairs, the derived antisymmetry relation holds as well.
    rng = random.Random(202)
    l = two_dim_leibniz()
    seen = 0
    for alg, rep in random_valid_leibniz_reps(rng, 80):
        report = check_representation(rep, alg)
        if report.result("right_bracket_composition").passed:
            assert report.result("right_bracket_antisymmetry").passed
            seen += 1
    assert seen >= 10


def test_kind_mismatch_is_a_kind_error_at_every_entry_point():
    # One match check serves every construction that pairs a
    # representation with its base algebra.
    leib = two_dim_leibniz()
    assoc_rep = regular_representation(two_dim_associative())
    calls = {
        "check_representation": lambda: check_representation(assoc_rep, leib),
        "OperatorContext": lambda: OperatorContext(leib, assoc_rep, Matrix.zero(2, 2)),
        "projection_context": lambda: projection_context(leib, assoc_rep),
        "generate_constraints": lambda: generate_constraints(leib, assoc_rep),
        "MatchedPair": lambda: MatchedPair(leib, leib, assoc_rep,
                                           regular_representation(leib)),
    }
    for name, call in calls.items():
        with pytest.raises(KindMismatchError):
            call()


def test_from_columns_takes_rationals_of_any_form_and_shares_its_zeros():
    """Columns of ints, strings, shared and new zeros give the same family
    as the matrices they describe, with Fraction entries and every zero
    the shared one."""
    columns = {(0, 1): [1, 0, "1/2"], (2, 0): [Fraction(0), Fraction(-3, 4), 0],
               (2, 2): ["0", 2, Fraction(5)]}
    family = ActionTensor.from_columns(3, 3, columns)
    grids = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for (i, c), col in columns.items():
        for r, x in enumerate(col):
            grids[i][r][c] = Fraction(x)
    assert family == ActionTensor(3, 3, [Matrix(g) for g in grids])
    for m in family.mats:
        assert (m.rows, m.cols) == (3, 3)
        for row in m.entries:
            assert type(row) is tuple
            assert all(type(q) is Fraction and (q or q is _ZERO) for q in row)
    assert list(family.stored()[1]) == [(0, 1), (2, 0), (2, 2)]
    with pytest.raises(ShapeError):
        ActionTensor.from_columns(3, 3, {(0, 3): [1, 0, 0]})
    with pytest.raises(ShapeError):
        ActionTensor.from_columns(3, 3, {(0, 0): [1, 0]})
