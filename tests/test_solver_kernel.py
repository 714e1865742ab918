"""Differential and property tests: the solver's one-accumulator
``Polynomial`` arithmetic, ``generate_constraints`` and the sparse
``_rref`` against their dense references in ``oracle.py``.

Systems, eliminations and solution sets must be equal term for term, so
everything the package renders from them is byte-identical.  The
reference solution sets come from the package's own solver stages run on
the reference arithmetic.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from homkit import linalg, solver
from homkit.linalg import _rref
from homkit.solver import Polynomial, eliminate_linear, generate_constraints, solve
from support import corrupt_one_entry, valid_representations, verified_algebra_pool

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


@contextmanager
def reference_arithmetic():
    """Run the solver stages on the reference ``Polynomial`` and ``_rref``."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "Polynomial", oracle.Polynomial)
        m.setattr(solver, "_rref", oracle._rref)
        m.setattr(linalg, "_rref", oracle._rref)
        yield


def _pairs():
    rng = random.Random(23)
    for alg in verified_algebra_pool():
        for rep in valid_representations(rng, alg):
            yield alg, rep
            if rep.carrier_dim:
                yield alg, corrupt_one_entry(rng, rep)


PAIRS = list(_pairs())


def assert_clean(p):
    for mono, coeff in p.terms.items():
        assert type(coeff) is Fraction and coeff != 0
        assert list(mono) == sorted(mono)


def same_terms(got, want):
    return [p.terms for p in got] == [p.terms for p in want]


def test_pool_covers_every_outcome():
    statuses = {solve(generate_constraints(a, r)).status for a, r in PAIRS}
    assert statuses == {"finite", "affine_family", "residual"}


@pytest.mark.parametrize("alg, rep", PAIRS)
def test_systems_eliminations_and_solutions_match_reference(alg, rep):
    system = generate_constraints(alg, rep)
    elim = eliminate_linear(system)
    sol = solve(system)
    with reference_arithmetic():
        ref_system = oracle.generate_constraints(alg, rep)
        ref_elim = eliminate_linear(ref_system)
        ref_sol = solve(ref_system)

    assert same_terms(system.equations, ref_system.equations)
    assert system.render() == ref_system.render()
    for eq in system.equations:
        assert_clean(eq)

    assert (elim.inconsistent, elim.free_vars) == (ref_elim.inconsistent, ref_elim.free_vars)
    assert ({v: p.terms for v, p in elim.substitution.items()}
            == {v: p.terms for v, p in ref_elim.substitution.items()})
    assert same_terms(elim.system.equations, ref_elim.system.equations)

    assert (sol.status, sol.points, sol.family) == (ref_sol.status, ref_sol.points,
                                                    ref_sol.family)
    if sol.residual is None:
        assert ref_sol.residual is None
    else:
        assert same_terms(sol.residual.equations, ref_sol.residual.equations)
        assert sol.residual.render() == ref_sol.residual.render()


# ---- properties ------------------------------------------------------------

rationals = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))
sparse_rationals = st.one_of(st.just(Fraction(0)), rationals)


@st.composite
def matrices(draw):
    """Rational rows with zero rows and repeated (or scaled) rows mixed in."""
    ncols = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(sparse_rationals, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(rows)))
        rows.insert(at, [Fraction(0)] * ncols)
    for _ in range(draw(st.integers(0, 2))):
        source = draw(st.sampled_from(rows))
        factor = draw(st.sampled_from([Fraction(1), Fraction(-2), Fraction(1, 3)]))
        rows.insert(draw(st.integers(0, len(rows))), [factor * x for x in source])
    return rows


@PROPERTY
@given(matrices())
def test_rref_matches_reference(rows):
    got = _rref([list(r) for r in rows])
    want = oracle._rref([list(r) for r in rows])
    assert got == want


VARS = 4
monomials = st.lists(st.integers(0, VARS - 1), max_size=3).map(tuple)
term_maps = st.dictionaries(monomials, sparse_rationals, max_size=5)


@st.composite
def polynomial_pairs(draw):
    """The same polynomial in the package's and the reference arithmetic;
    the terms may hold unsorted monomials and zero coefficients."""
    terms = draw(term_maps)
    return Polynomial(terms), oracle.Polynomial(terms)


@PROPERTY
@given(polynomial_pairs(), polynomial_pairs(), rationals,
       st.dictionaries(st.integers(0, VARS - 1), polynomial_pairs(), max_size=VARS))
def test_arithmetic_results_are_clean_and_match_reference(p, q, c, mapping):
    (p, ref_p), (q, ref_q) = p, q
    results = [
        (p + q, ref_p + ref_q),
        (p - q, ref_p - ref_q),
        (-p, -ref_p),
        (p.scale(c), ref_p.scale(c)),
        (p.scale(0), ref_p.scale(0)),
        (p * q, ref_p * ref_q),
        (p.substitute({v: new for v, (new, _) in mapping.items()}),
         ref_p.substitute({v: ref for v, (_, ref) in mapping.items()})),
    ]
    for got, want in results:
        assert_clean(got)
        assert got.terms == want.terms
