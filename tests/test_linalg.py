"""Exact linear algebra kernel."""

import random
from fractions import Fraction
from functools import partial

import pytest

import oracle
from homkit import algebra, linalg, operators
from homkit.algebra import check_ideal
from homkit.errors import ShapeError
from homkit.linalg import (
    Matrix, Vector, frac, format_lincomb, kernel_basis, solve_linear,
    span_membership,
)
from homkit.fixtures import two_dim_associative
from homkit.operators import OperatorContext, check_rota_baxter, graph_check
from homkit.solver import Polynomial
from support import (
    random_operator, theorem_suite_contexts, valid_representations,
    verified_algebra_pool,
)


def rand_matrix(rng, rows, cols, lo=-3, hi=3):
    return Matrix([[Fraction(rng.randint(lo, hi), rng.choice([1, 1, 2]))
                    for _ in range(cols)] for _ in range(rows)])


def test_scalar_canonical_form():
    # Scalars are plain Fractions: positive denominator, lowest terms.
    s = Fraction(6, -8)
    assert s.denominator > 0
    assert s == Fraction(-3, 4)
    assert frac("3/2") + frac("-3/2") == 0
    assert (frac(2) / 6).numerator == 1


def test_int_zeros_share_one_fraction():
    # A vector keeps Fraction entries as they are and coerces the others.
    mixed = Vector([Fraction(1, 2), 0, "3/4"])
    zeros = [frac(0), Vector([0, 1])[0], mixed[1], Matrix.zero(2, 3)[1, 2],
             Matrix.identity(2)[0, 1]]
    assert all(z is zeros[0] for z in zeros)
    assert type(zeros[0]) is Fraction and zeros[0] == 0
    assert mixed.entries == (Fraction(1, 2), 0, Fraction(3, 4))
    assert all(type(e) is Fraction for e in mixed)
    for bad in ("", None, "x"):
        with pytest.raises((ValueError, TypeError)):
            frac(bad)
        with pytest.raises((ValueError, TypeError)):
            Vector([Fraction(1), bad])



@pytest.mark.parametrize("build", [
    lambda x: frac(x),
    lambda x: Matrix([[x]]),
    lambda x: Matrix([[Fraction(1), x]]),
    lambda x: Vector([x]),
    lambda x: Polynomial.variable(0).scale(x),
    lambda x: check_rota_baxter(two_dim_associative(), Matrix.zero(2, 2), weight=x),
], ids=["frac", "Matrix", "Matrix-mixed", "Vector", "Polynomial.scale", "check_rota_baxter"])
@pytest.mark.parametrize("value", [0.1, 0.5, 0.0])
def test_floats_are_refused(build, value):
    """A float is not an exact rational (0.1 would hold 3602879701896397/2**55)."""
    with pytest.raises(TypeError, match="float"):
        build(value)

def test_is_zero_reads_shared_and_other_zeros_alike():
    fresh = Fraction(0)
    assert fresh is not linalg._ZERO
    for v, zero in ((Vector(()), True), (Vector([0, 0, 0]), True),
                    (Vector([fresh, 0, Fraction(0)]), True),
                    (Vector([0, 0, Fraction(1, 3)]), False),
                    (Vector([fresh, -1, 0]), False), (Vector([Fraction(-2, 7)]), False)):
        assert v.is_zero() is zero, v
    assert Vector([fresh, 0]).entries[0] is fresh


def test_mat_mul_identity():
    m = Matrix([[1, 2], [3, frac("1/2")]])
    assert Matrix.identity(2) @ m == m


def test_mat_mul_nilpotent():
    n = Matrix([[0, 1], [0, 0]])
    assert n @ n == Matrix.zero(2, 2)


def test_mat_mul_fixture_twist_is_involution():
    # Hand multiplication: [[-1,1],[0,1]]^2 = I.
    alpha = Matrix([[-1, 1], [0, 1]])
    assert alpha @ alpha == Matrix.identity(2)


def test_mat_mul_shape_error():
    with pytest.raises(ShapeError):
        Matrix.zero(2, 3) @ Matrix.zero(2, 3)


def test_mat_mul_associative_randomized():
    rng = random.Random(7)
    for _ in range(25):
        a = rand_matrix(rng, 2, 3)
        b = rand_matrix(rng, 3, 4)
        c = rand_matrix(rng, 4, 2)
        assert (a @ b) @ c == a @ (b @ c)


def test_solve_identity_system():
    sol = solve_linear(Matrix.identity(2), Vector([3, frac("-1/2")]))
    assert sol.particular == Vector([3, frac("-1/2")])
    assert sol.kernel == ()


def test_solve_underdetermined():
    sol = solve_linear(Matrix([[1, 1]]), Vector([0]))
    assert sol.particular == Vector([0, 0])
    assert len(sol.kernel) == 1
    k = sol.kernel[0]
    assert k[0] == -k[1] and not k.is_zero()


def test_solve_twist_intertwining_constraints():
    # The twist-intertwining constraints of the two-dimensional examples,
    # written as a 2x4 system in (t11, t12, t21, t22):
    #   t21 = 0 and t11 + 2 t12 - t22 = 0.
    a = Matrix([[0, 0, 1, 0], [1, 2, 0, -1]])
    sol = solve_linear(a, Vector([0, 0]))
    assert sol is not None
    assert len(sol.kernel) == 2
    for k in sol.kernel:
        assert a.apply(k).is_zero()


def test_solve_inconsistent():
    assert solve_linear(Matrix([[1], [1]]), Vector([1, 2])) is None


def test_solutions_are_exact_randomized():
    rng = random.Random(11)
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_matrix(rng, rows, cols)
        b = Vector([Fraction(rng.randint(-3, 3)) for _ in range(rows)])
        sol = solve_linear(a, b)
        assert sol == oracle.solve_linear(a, b)
        if sol is None:
            continue
        assert a.apply(sol.particular) == b
        for k in sol.kernel:
            assert a.apply(k).is_zero()


def test_kernel_injective():
    assert kernel_basis(Matrix.identity(3)) == []


def test_kernel_zero_matrix():
    basis = kernel_basis(Matrix.zero(2, 2))
    assert len(basis) == 2


def test_kernel_rank_one():
    basis = kernel_basis(Matrix([[1, 2], [2, 4]]))
    assert len(basis) == 1
    v = basis[0]
    # Oracle: substitute back.
    assert Matrix([[1, 2], [2, 4]]).apply(v).is_zero()
    # Up to scaling this is (2, -1).
    assert v[0] * (-1) == v[1] * 2


def test_kernel_members_annihilate_randomized():
    rng = random.Random(13)
    for _ in range(30):
        a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert kernel_basis(a) == oracle.kernel_basis(a)
        for k in kernel_basis(a):
            assert a.apply(k).is_zero()


def test_zero_dimensional_edge_cases():
    assert solve_linear(Matrix.zero(0, 0), Vector([])) is not None
    assert kernel_basis(Matrix.zero(0, 3)) == [Vector.unit(3, j) for j in range(3)]
    assert solve_linear(Matrix.zero(3, 0), Vector([0, 0, 1])) is None


def test_rational_sqrt():
    # The reference solver's square root; the package's works on ints.
    rational_sqrt = oracle.rational_sqrt
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(0)) == 0


def test_block_assembly():
    a = Matrix([[1]])
    b = Matrix([[2, 3]])
    m = Matrix.block([[a, b]])
    assert m == Matrix([[1, 2, 3]])
    d = Matrix.block_diag(Matrix.identity(1), Matrix([[5]]))
    assert d == Matrix([[1, 0], [0, 5]])
    assert Matrix.block_diag(Matrix.zero(0, 2), Matrix.zero(3, 0)) == Matrix.zero(3, 2)


def test_block_keeps_the_width_of_an_empty_block_row():
    # The width used to come from the first assembled row, so a block row
    # of height 0 gave a 0x0 matrix.
    m = Matrix.block([[Matrix.zero(0, 0), Matrix.zero(0, 3)]])
    assert (m.rows, m.cols) == (0, 3)
    assert Matrix.block([]) == Matrix.zero(0, 0)
    with pytest.raises(ShapeError):
        Matrix.block([[Matrix.zero(1, 1)], [Matrix.zero(1, 2)]])
    with pytest.raises(ShapeError):
        Matrix.block([[Matrix.zero(0, 1)], [Matrix.zero(2, 2)]])


def test_format_lincomb():
    assert format_lincomb(Vector([1, 1])) == "e1 + e2"
    assert format_lincomb(Vector([-1, 0])) == "-e1"
    assert format_lincomb(Vector([frac("3/2"), -1])) == "3/2 e1 - e2"
    assert format_lincomb(Vector([0, 0])) == "0"


def test_span_membership_matches_one_solve_per_query():
    rng = random.Random(29)
    for _ in range(60):
        dim = rng.randint(1, 5)
        cols = [Vector(rand_matrix(rng, 1, dim, -1, 1).entries[0])
                for _ in range(rng.randint(0, 4))]
        if cols and rng.random() < 0.5:
            cols.append(cols[0].scale(rng.choice([2, Fraction(-1, 3)])))
        member = span_membership(cols)
        queries = [Vector(rand_matrix(rng, 1, dim).entries[0]) for _ in range(4)]
        queries += [c.scale(3) + cols[-1] for c in cols]  # members
        for v in queries:
            assert member(v) == oracle.in_span(cols, v)


def test_span_membership_shapes():
    assert span_membership([])(Vector.zero(3))
    assert not span_membership([])(Vector.unit(3, 1))
    with pytest.raises(ShapeError):
        span_membership([Vector.unit(2, 0), Vector.unit(3, 0)])
    with pytest.raises(ShapeError):
        span_membership([Vector.unit(2, 0)])(Vector.unit(3, 0))


def _ideal_cases(rng):
    cases = []
    for alg in verified_algebra_pool():
        n = alg.dim
        v = Vector([rng.randint(-2, 2) for _ in range(n)])
        for basis in ([Vector.unit(n, 0)], [Vector.unit(n, n - 1)],
                      [Vector.unit(n, i) for i in range(n)], [v, v.scale(2)],
                      [v, Vector.unit(n, 0)]):
            if not all(b.is_zero() for b in basis):
                cases.append((basis, alg))
    return cases


def _graph_cases(rng):
    contexts = theorem_suite_contexts(rng, 16)
    for alg in verified_algebra_pool()[:8]:
        for rep in valid_representations(rng, alg):
            t = random_operator(rng, alg.dim, rep.carrier_dim)
            contexts.append(OperatorContext(alg, rep, t))
    return [ctx for ctx in contexts if ctx.rep.carrier_dim]  # a nonzero span


def test_membership_scans_reduce_the_span_once(monkeypatch):
    # check_ideal and graph_check reduce their span once per call, and
    # report the same verdicts and witnesses as one solve per query.
    rng = random.Random(17)
    ideals, graphs = _ideal_cases(rng), _graph_cases(rng)
    one_solve_each = lambda cols: partial(oracle.in_span, cols)  # noqa: E731
    with monkeypatch.context() as m:
        m.setattr(algebra, "span_membership", one_solve_each)
        m.setattr(operators, "span_membership", one_solve_each)
        want = ([check_ideal(basis, alg) for basis, alg in ideals]
                + [graph_check(ctx) for ctx in graphs])
    assert any(r.passed for r in want) and any(not r.passed for r in want)

    reductions = []
    real = linalg._rref
    monkeypatch.setattr(linalg, "_rref",
                        lambda rows: reductions.append(len(rows)) or real(rows))
    monkeypatch.setattr(linalg, "solve_linear", None)  # no per-query solves
    got = []
    for scan in ([partial(check_ideal, basis, alg) for basis, alg in ideals]
                 + [partial(graph_check, ctx) for ctx in graphs]):
        reductions.clear()
        got.append(scan())
        assert len(reductions) == 1
    assert got == want
