"""Constraint generation, linear elimination, and the substitution solver."""

import random
from fractions import Fraction
from itertools import product

import pytest

from homkit.errors import SoundnessError
from homkit.fixtures import (
    leibniz_rbo, two_dim_associative, two_dim_leibniz, two_dim_poisson,
)
from homkit.linalg import Matrix, Vector
from homkit.representation import regular_representation
from homkit.solver import (
    Polynomial, PolySystem, eliminate_linear, generate_constraints,
    parameter_sequence, solve, verify_solution,
)


def var(v):
    return Polynomial.variable(v)


def const(c):
    return Polynomial.constant(c)


def assignment_satisfies(system, values):
    return all(eq.evaluate(dict(enumerate(values))) == 0
               for eq in system.equations)


def matrix_of(system, values):
    return Matrix([[values[system.var_id(r, c)] for c in range(system.cols)]
                   for r in range(system.rows)])


def test_polynomial_arithmetic():
    p = (var(0) + const(2)) * (var(0) - const(2))
    assert p == var(0) * var(0) - const(4)
    assert p.degree() == 2
    assert p.substitute({0: const(2)}).is_zero()
    assert p.evaluate({0: Fraction(3)}) == 5


def test_polynomial_substitute_to_fixed_var():
    p = var(0) * var(1) + var(1)
    q = p.substitute({0: const(1) + var(2)})
    assert q == var(1) * var(2) + var(1).scale(2)


def test_generate_constraints_linear_part_matches_hand_derivation():
    # The twist constraints of the two-dimensional examples reduce to
    # t21 = 0 and t11 + 2 t12 - t22 = 0.
    a = two_dim_associative()
    sys_a = generate_constraints(a, regular_representation(a))
    elim = eliminate_linear(sys_a)
    assert not elim.inconsistent
    name = {v: sys_a.var_name(v) for v in range(4)}
    assert sorted(name[v] for v in elim.free_vars) == ["t11", "t12"]
    assert elim.substitution[sys_a.var_id(1, 0)].is_zero()
    t22 = elim.substitution[sys_a.var_id(1, 1)]
    assert t22 == var(sys_a.var_id(0, 0)) + var(sys_a.var_id(0, 1)).scale(2)


def test_generate_constraints_zero_algebra():
    from homkit.algebra import HomAlgebra, LEIBNIZ, StructureTensor
    alg = HomAlgebra(2, LEIBNIZ, Matrix.identity(2),
                     bracket=StructureTensor.zero(2))
    system = generate_constraints(alg, regular_representation(alg))
    # Only the (vacuous) twist constraints survive; all quadratics vanish.
    assert all(eq.degree() <= 1 for eq in system.equations)
    assert not system.equations  # T id = id T is trivially zero


def test_generate_constraints_leibniz_quadratic_residue():
    # After linear elimination the quadratic residue is generated by t11^2
    # (hand expansion of the bracket condition at the (1,2) basis pair).
    l = two_dim_leibniz()
    elim = eliminate_linear(generate_constraints(l, regular_representation(l)))
    nonzero = [eq for eq in elim.system.equations if not eq.is_zero()]
    assert nonzero
    t11 = elim.system.var_id(0, 0)
    for eq in nonzero:
        assert eq.variables() == {t11}
        assert eq.coefficient((t11, t11)) != 0


def test_substitution_consistency():
    # Substituting a verified operator into the generated system yields
    # all-zero polynomials.
    l = two_dim_leibniz()
    system = generate_constraints(l, regular_representation(l))
    t = leibniz_rbo(Fraction(3, 7))
    values = [t[r, c] for r in range(2) for c in range(2)]
    assert assignment_satisfies(system, values)


def test_eliminate_linear_two_free_parameters():
    system = PolySystem(2, 2, [var(2), var(0) + var(1).scale(2) - var(3),
                               var(0) * var(0)])
    elim = eliminate_linear(system)
    assert len(elim.free_vars) == 2
    assert len(elim.system.equations) == 1


def test_eliminate_linear_pure_linear_system():
    system = PolySystem(1, 2, [var(0) - const(1), var(1) + var(0)])
    elim = eliminate_linear(system)
    assert not elim.inconsistent
    assert elim.system.equations == ()
    assert elim.substitution[0] == const(1)
    assert elim.substitution[1] == const(-1)


def test_eliminate_linear_inconsistent():
    system = PolySystem(1, 1, [var(0) - const(1), var(0) - const(2)])
    assert eliminate_linear(system).inconsistent


def test_eliminate_linear_preserves_solutions_on_grid():
    # Oracle: brute-force grid search over small rationals; an assignment
    # solves the original system iff its free part solves the residual and
    # its pinned part agrees with the substitution.
    rng = random.Random(41)
    grid = [Fraction(-1), Fraction(0), Fraction(1), Fraction(2)]
    for _ in range(15):
        nvars = 3
        eqs = []
        for _ in range(rng.randint(1, 2)):
            eqs.append(sum((var(v).scale(rng.randint(-2, 2)) for v in range(nvars)),
                           const(rng.randint(-1, 1))))
        for _ in range(rng.randint(0, 2)):
            eqs.append(var(rng.randrange(nvars)) * var(rng.randrange(nvars))
                       - const(rng.choice([0, 1, 4])))
        system = PolySystem(1, 3, eqs)
        elim = eliminate_linear(system)
        for values in product(grid, repeat=nvars):
            direct = assignment_satisfies(system, values)
            if elim.inconsistent:
                assert not direct
                continue
            env = dict(enumerate(values))
            pinned_ok = all(p.evaluate(env) == values[v]
                            for v, p in elim.substitution.items())
            residual_ok = all(eq.evaluate(env) == 0
                              for eq in elim.system.equations)
            assert direct == (pinned_ok and residual_ok)


def test_solve_associative_fixture_only_zero():
    a = two_dim_associative()
    sol = solve(generate_constraints(a, regular_representation(a)))
    assert sol.status == "finite"
    assert sol.points == (Matrix.zero(2, 2),)


def test_solve_leibniz_fixture_family():
    l = two_dim_leibniz()
    sol = solve(generate_constraints(l, regular_representation(l)))
    assert sol.status == "affine_family"
    fam = sol.family
    assert fam.particular == Matrix.zero(2, 2)
    assert len(fam.basis) == 1
    assert fam.basis[0] == leibniz_rbo(1)
    assert fam.params == ("t12",)


def test_solve_poisson_fixture_only_zero():
    p = two_dim_poisson()
    sol = solve(generate_constraints(p, regular_representation(p)))
    assert sol.status == "finite"
    assert sol.points == (Matrix.zero(2, 2),)


def test_solve_branches_on_monomial_equation():
    # x*y = 0 together with x + y = 1 has the two points (0,1) and (1,0).
    system = PolySystem(1, 2, [var(0) * var(1), var(0) + var(1) - const(1)])
    sol = solve(system)
    assert sol.status == "finite"
    got = {tuple(p.entries[0]) for p in sol.points}
    assert got == {(Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))}


def test_solve_univariate_two_roots():
    system = PolySystem(1, 1, [var(0) * var(0) - const(1)])
    sol = solve(system)
    assert sol.status == "finite"
    assert {p[0, 0] for p in sol.points} == {Fraction(1), Fraction(-1)}


def test_solve_no_rational_roots_is_empty():
    system = PolySystem(1, 1, [var(0) * var(0) - const(2)])
    sol = solve(system)
    assert sol.status == "finite"
    assert sol.points == ()


@pytest.mark.parametrize("equation", [
    var(0) * var(0) * var(0) - var(0),             # roots -1, 0, 1
    var(0) * var(0) * var(0) * var(0) - const(1),  # roots -1, 1
    var(0) * var(0) * var(0) - const(1),           # root 1
], ids=["x^3 - x", "x^4 - 1", "x^3 - 1"])
def test_solve_univariate_above_degree_two_claims_nothing(equation):
    # The quadratic formula reads only the terms of degree <= 2, so a
    # higher-degree equation is handed back unsolved, never answered from
    # its truncation.
    sol = solve(PolySystem(1, 1, [equation]))
    assert sol.status == "residual"
    assert sol.residual.equations == (equation,)


def test_solve_perfect_square_of_linear_form():
    # (x - 2y)^2 = 0 cuts out the line x = 2y.
    line = var(0) - var(1).scale(2)
    system = PolySystem(1, 2, [line * line])
    sol = solve(system)
    assert sol.status == "affine_family"
    assert sol.family.dim == 1
    member = sol.family.member([Fraction(3)])
    assert member[0, 0] == 2 * member[0, 1]


def test_solve_residual_on_irreducible_quadric():
    # x^2 + y^2 = 1 is outside the substitution-reducible class.
    system = PolySystem(1, 2, [var(0) * var(0) + var(1) * var(1) - const(1)])
    sol = solve(system)
    assert sol.status == "residual"
    assert sol.residual is not None
    assert len(sol.residual.equations) == 1


def test_solve_inconsistent_linear():
    system = PolySystem(1, 1, [var(0) - const(1), var(0) - const(2)])
    sol = solve(system)
    assert sol.status == "finite" and sol.points == ()


def test_parameter_sequence_prefix():
    gen = parameter_sequence()
    got = [next(gen) for _ in range(5)]
    assert got == [1, -1, 2, Fraction(-1, 2), 3]


def test_verify_solution_family_samples():
    l = two_dim_leibniz()
    rep = regular_representation(l)
    sol = solve(generate_constraints(l, rep))
    report = verify_solution(l, rep, sol, samples=4)
    assert report.passed


def test_verify_solution_zero_point():
    a = two_dim_associative()
    rep = regular_representation(a)
    sol = solve(generate_constraints(a, rep))
    assert verify_solution(a, rep, sol).passed


@pytest.mark.parametrize("samples", [0, -1])
def test_verify_solution_refuses_fewer_than_one_sample(samples, monkeypatch):
    """A family checked at no sample would pass unchecked: ``samples < 1``
    raises before any check, for a family and for points alike."""
    monkeypatch.setattr("homkit.solver.check_relative_rbo", lambda ctx: pytest.fail("checked"))
    for alg in (two_dim_leibniz(), two_dim_associative()):
        rep = regular_representation(alg)
        sol = solve(generate_constraints(alg, rep))
        with pytest.raises(ValueError, match="samples must be at least 1"):
            verify_solution(alg, rep, sol, samples=samples)


def test_verify_solution_rejects_corrupted_point():
    from homkit.solver import SolutionSet
    l = two_dim_leibniz()
    rep = regular_representation(l)
    fake = SolutionSet("finite", points=(Matrix([[1, 0], [0, 0]]),))
    with pytest.raises(SoundnessError):
        verify_solution(l, rep, fake)


def test_solver_solutions_satisfy_direct_check():
    # Soundness across the three fixtures: every reported solution passes
    # the direct operator check.
    for alg in (two_dim_associative(), two_dim_leibniz(), two_dim_poisson()):
        rep = regular_representation(alg)
        sol = solve(generate_constraints(alg, rep))
        assert sol.status != "residual"
        assert verify_solution(alg, rep, sol, samples=5).passed


def test_solve_complete_against_grid_oracle():
    # Random small systems: every grid assignment that solves the system
    # must be captured by the reported solution set (finite points contain
    # it, or the family contains it; residual systems are skipped).
    rng = random.Random(97)
    grid = [Fraction(-2), Fraction(-1), Fraction(0), Fraction(1), Fraction(2)]
    checked = 0
    for _ in range(40):
        nvars = rng.randint(2, 3)
        eqs = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.random()
            if kind < 0.4:
                eqs.append(sum((var(v).scale(rng.randint(-2, 2))
                                for v in range(nvars)),
                               const(rng.randint(-1, 1))))
            elif kind < 0.8:
                x, y = rng.randrange(nvars), rng.randrange(nvars)
                eqs.append(var(x) * var(y))
            else:
                x = rng.randrange(nvars)
                eqs.append(var(x) * var(x) - const(rng.choice([0, 1, 4])))
        system = PolySystem(1, nvars, eqs)
        sol = solve(system)
        if sol.status == "residual":
            continue
        checked += 1
        for values in product(grid, repeat=nvars):
            if not assignment_satisfies(system, values):
                continue
            got = Matrix([list(values)])
            if sol.status == "finite":
                assert got in sol.points, (system.render(), values)
            else:
                fam = sol.family
                cols = [Vector([e for row in b.entries for e in row])
                        for b in fam.basis]
                target = Vector([e for row in (got - fam.particular).entries
                                 for e in row])
                from homkit.linalg import solve_linear, Matrix as M
                span = M.from_cols(cols)
                assert solve_linear(span, target) is not None
    assert checked >= 20
