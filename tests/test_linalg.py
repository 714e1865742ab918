"""Exact linear algebra kernel."""

import random
from contextlib import suppress
from fractions import Fraction

import pytest

import oracle
from homkit import algebra, linalg, operators, representation, solver
from homkit.algebra import POISSON, HomAlgebra, StructureTensor, check_ideal
from homkit.errors import PreconditionError, ShapeError
from homkit.linalg import Matrix, Vector, frac, format_lincomb, kernel_basis, solve_linear
from homkit.fixtures import two_dim_associative, two_dim_leibniz
from homkit.operators import (
    OperatorContext, check_relative_rbo, check_rota_baxter, graph_check,
)
from homkit.representation import ideal_representation, regular_representation
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


def test_block_diag_is_the_block_grid_with_zero_blocks():
    """Built straight from the two stored forms, ``a (+) b`` equals the
    grid with zero off-diagonal blocks in value, stored form (keys in
    order) and hash, over mixed denominators and blocks with no rows or
    no columns."""
    rng = random.Random(12)

    def matrix(rows, cols):
        return Matrix([[Fraction(rng.choice((0, 0, 1, -2, 3)), rng.choice((1, 2, 3, 4)))
                        for _ in range(cols)] for _ in range(rows)], rows, cols)
    shapes = [(2, 2, 2, 2), (1, 3, 2, 1), (3, 1, 1, 3), (0, 2, 3, 0), (0, 0, 2, 2),
              (2, 2, 0, 0), (3, 0, 0, 2), (2, 2, 0, 3), (0, 3, 2, 0), (0, 0, 0, 0)]
    cases = [(Matrix.identity(3), Matrix.zero(0, 2)), (Matrix([["1/2"]]), Matrix([["2/3"]]))]
    for ar, ac, br, bc in shapes:
        cases += [(matrix(ar, ac), matrix(br, bc)) for _ in range(4)]
    for a, b in cases:
        got = Matrix.block_diag(a, b)
        want = Matrix.block([[a, Matrix.zero(a.rows, b.cols)], [Matrix.zero(b.rows, a.cols), b]])
        assert (got.rows, got.cols) == (want.rows, want.cols) == (a.rows + b.rows,
                                                                   a.cols + b.cols)
        assert got == want and got.entries == want.entries
        assert got.stored() == want.stored() and list(got.stored()[1]) == list(want.stored()[1])
        assert hash(got) == hash(want)


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
    # The dense reference reduces the span once; each query must agree with
    # solving one linear system against the columns.
    rng = random.Random(29)
    for _ in range(60):
        dim = rng.randint(1, 5)
        cols = [Vector(rand_matrix(rng, 1, dim, -1, 1).entries[0])
                for _ in range(rng.randint(0, 4))]
        if cols and rng.random() < 0.5:
            cols.append(cols[0].scale(rng.choice([2, Fraction(-1, 3)])))
        member = oracle.span_membership(cols)
        queries = [Vector(rand_matrix(rng, 1, dim).entries[0]) for _ in range(4)]
        queries += [c.scale(3) + cols[-1] for c in cols]  # members
        for v in queries:
            solved = (oracle.solve_linear(Matrix.from_cols(cols), v) is not None
                      if cols else v.is_zero())
            assert member(v) == solved


def test_span_membership_shapes():
    assert oracle.span_membership([])(Vector.zero(3))
    assert not oracle.span_membership([])(Vector.unit(3, 1))
    with pytest.raises(ShapeError):
        oracle.span_membership([Vector.unit(2, 0), Vector.unit(3, 0)])
    with pytest.raises(ShapeError):
        oracle.span_membership([Vector.unit(2, 0)])(Vector.unit(3, 0))


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


def _block_sum(rng, b):
    """A Poisson algebra on two dense random ``b``-dim blocks whose products
    with each other vanish, with a block-diagonal random twist: the span of
    any basis of the first block is an ideal."""
    n = 2 * b

    def table():
        return StructureTensor.from_products(n, {
            (i, j): [0] * (i // b * b) + [Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
                                          for _ in range(b)] + [0] * (n - b - i // b * b)
            for i in range(n) for j in range(n) if i // b == j // b})
    alpha = Matrix.block_diag(rand_matrix(rng, b, b), rand_matrix(rng, b, b))
    return HomAlgebra(n, POISSON, alpha, dot=table(), bracket=table())


def _dense_ideal_cases(rng):
    """Block sums with a random basis of the first block (an ideal), two of
    its vectors, and the basis with one vector spilling into the second block."""
    cases = []
    for b in (2, 3, 4):
        alg = _block_sum(rng, b)
        basis = [Vector(list(rand_matrix(rng, 1, b).entries[0]) + [0] * b) for _ in range(b)]
        spilled = basis[:-1] + [basis[-1] + Vector.unit(2 * b, 2 * b - 1)]
        cases += [(basis, alg), (basis[:2], alg), (spilled, alg)]
    return cases


def _dense_graph_cases(rng):
    """Dense random operators, and the zero operator, on the regular
    representations of block sums."""
    contexts = []
    for b in (2, 3):
        alg = _block_sum(rng, b)
        rep = regular_representation(alg)
        contexts += [OperatorContext(alg, rep, random_operator(rng, 2 * b, 2 * b)),
                     OperatorContext(alg, rep, Matrix.zero(2 * b, 2 * b))]
    return contexts


def _membership_cases():
    rng = random.Random(17)
    return (_ideal_cases(rng) + _dense_ideal_cases(rng),
            _graph_cases(rng) + _dense_graph_cases(rng))


def _same_ideal_representation(basis, alg, checked):
    try:
        want = oracle.ideal_representation(basis, alg, checked)
    except PreconditionError as err:
        with pytest.raises(PreconditionError) as got:
            ideal_representation(basis, alg, checked)
        assert str(got.value) == str(err)
        return False
    assert ideal_representation(basis, alg, checked) == want
    return True


def test_membership_checks_match_the_reference():
    # Reports (names, flags, witness tuples, exact values) and ideal
    # representations equal the dense membership checks of oracle.py.
    ideals, graphs = _membership_cases()
    reports = []
    for basis, alg in ideals:
        reports.append(check_ideal(basis, alg))
        assert reports[-1] == oracle.check_ideal(basis, alg)
    for ctx in graphs:
        reports.append(graph_check(ctx))
        assert reports[-1] == oracle.graph_check(ctx)
        assert reports[-1].passed == check_relative_rbo(ctx).passed
    assert any(r.passed for r in reports) and any(not r.passed for r in reports)
    built = [_same_ideal_representation(basis, alg, checked)
             for basis, alg in ideals for checked in (True, False)]
    assert any(built) and not all(built)


def test_membership_checks_form_no_dense_value(monkeypatch):
    # check_ideal, ideal_representation and a passing graph_check form no
    # Fraction product and eliminate no Fraction rows; a failing graph_check
    # forms one value, the witness, per failing check.
    ideals, graphs = _membership_cases()
    for module in (algebra, operators, representation, solver):
        assert not hasattr(module, "span_membership") and not hasattr(module, "solve_linear")

    def refuse(*args):
        raise AssertionError("dense membership path")
    for owner, name in ((StructureTensor, "product"), (Matrix, "apply"),
                        (linalg, "solve_linear"), (linalg, "_rref")):
        monkeypatch.setattr(owner, name, refuse)
    witnesses = []
    value = operators._graph_value
    monkeypatch.setattr(operators, "_graph_value",
                        lambda *args: witnesses.append(args) or value(*args))
    for basis, alg in ideals:
        check_ideal(basis, alg)
        for checked in (True, False):
            with suppress(PreconditionError):
                ideal_representation(basis, alg, checked)
    for ctx in graphs:
        witnesses.clear()
        report = graph_check(ctx)
        assert len(witnesses) == len(report.failures())


def test_membership_reports_are_built_only_on_failure(monkeypatch):
    # ideal_representation builds check_ideal's report (a _remainder per
    # value) only when checked and a value lies outside the span, and
    # graph_check builds the semidirect product once, only if a check fails.
    ideals, graphs = _membership_cases()
    passed = [check_ideal(basis, alg).passed for basis, alg in ideals]
    remainders, products = [], []
    remainder, product = algebra._remainder, operators.semidirect_product
    monkeypatch.setattr(algebra, "_remainder",
                        lambda *args: remainders.append(args) or remainder(*args))
    monkeypatch.setattr(operators, "semidirect_product",
                        lambda *args: products.append(args) or product(*args))
    for (basis, alg), ok in zip(ideals, passed):
        for checked in (False, True):
            remainders.clear()
            with suppress(PreconditionError):
                ideal_representation(basis, alg, checked)
            assert bool(remainders) == (checked and not ok)
    assert not all(passed)
    for ctx in graphs:
        products.clear()
        report = graph_check(ctx)
        assert len(products) == (not report.passed)


@pytest.mark.parametrize("checked", [True, False])
def test_ideal_representation_refusals(checked):
    l = two_dim_leibniz()
    e1, e2, zero = Vector.unit(2, 0), Vector.unit(2, 1), Vector.zero(2)
    failed = "ideal basis must be independent and closed (membership solve failed)"
    for basis in ([e1, e1.scale(2)], [zero], [e1, zero]):  # dependent
        with pytest.raises(PreconditionError) as err:
            ideal_representation(basis, l, checked)
        assert str(err.value) == failed
    with pytest.raises(PreconditionError) as err:
        ideal_representation([e2], l, checked)
    assert str(err.value) == (
        "not a two-sided ideal: FAIL twist_stable at (1): residual = e1 + e2; FAIL"
        " closed_right:bracket at (1, 1): residual = -e1; FAIL closed_left:bracket at"
        " (1, 1): residual = e1" if checked else failed)
    empty = ideal_representation([], l, checked)
    assert empty.carrier_dim == 0 and empty == oracle.ideal_representation([], l, checked)
    with pytest.raises(ShapeError, match="^ideal basis vectors must live in the algebra$"):
        check_ideal([e1, Vector.unit(3, 0)], l)
