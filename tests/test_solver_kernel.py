"""Differential and property tests: the solver's int ``Polynomial``
arithmetic, ``generate_constraints``, the fraction-free linear stage,
``_rref`` (which shares its reducer) and the family comparison against
their references in ``oracle.py``, and the stage structure of ``solve``.

Systems, eliminations and solution sets must be equal term for term, so
everything the package renders from them is byte-identical.  The
reference solution sets come from the reference pipeline, the solver
stages as they were before the int layout, which reduce on the oracle's
own dense ``_rref``: no reference calls into the package's elimination.
"""

import random
import sys
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from homkit import linalg, solver
from homkit.linalg import Matrix, _rref
from homkit.solver import Polynomial, eliminate_linear, generate_constraints, solve
from support import corrupt_one_entry, valid_representations, verified_algebra_pool

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


def _pairs():
    rng = random.Random(23)
    for alg in verified_algebra_pool():
        for rep in valid_representations(rng, alg):
            yield alg, rep
            if rep.carrier_dim:
                yield alg, corrupt_one_entry(rng, rep)


PAIRS = list(_pairs())


def assert_clean(p):
    """``p`` is in canonical int form, and ``terms`` is its Fraction view."""
    assert type(p.den) is int and p.den > 0
    assert gcd(p.den, *p.ints.values()) == 1
    for mono, c in p.ints.items():
        assert type(c) is int and c != 0
        assert list(mono) == sorted(mono)
    assert p.terms == {mono: Fraction(c, p.den) for mono, c in p.ints.items()}
    for coeff in p.terms.values():
        assert type(coeff) is Fraction and coeff != 0


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
    ref_system = oracle.generate_constraints(alg, rep)
    ref_elim = oracle.eliminate_linear(ref_system)
    ref_sol = oracle.solve(ref_system)

    assert same_terms(system.equations, ref_system.equations)
    assert system.render() == ref_system.render()
    for eq in system.equations:
        assert_clean(eq)

    assert (elim.inconsistent, elim.free_vars) == (ref_elim.inconsistent, ref_elim.free_vars)
    assert ({v: p.terms for v, p in elim.substitution.items()}
            == {v: p.terms for v, p in ref_elim.substitution.items()})
    assert same_terms(elim.system.equations, ref_elim.system.equations)
    for p in (*elim.substitution.values(), *elim.system.equations):
        assert_clean(p)

    assert (sol.status, sol.points, sol.family) == (ref_sol.status, ref_sol.points,
                                                    ref_sol.family)
    if sol.family is not None:
        values = solver._take_parameters(sol.family.dim, offset=1)
        sample = sol.family.particular
        for v, b in zip(values, sol.family.basis):
            sample = sample + b.scale(v)
        assert sol.family.member(values) == sample
    if sol.residual is None:
        assert ref_sol.residual is None
    else:
        assert same_terms(sol.residual.equations, ref_sol.residual.equations)
        assert sol.residual.render() == ref_sol.residual.render()



def test_solve_runs_its_stages_on_the_int_kernel(monkeypatch):
    """``solve`` eliminates the linear part exactly once and builds no
    dense value (no ``_rref``, no ``Vector``); each leaf's substitution
    maps only pinned variables, to polynomials in the free ones."""
    def refuse(*args):
        raise AssertionError("dense path in solve")
    monkeypatch.setattr(linalg, "_rref", refuse)
    monkeypatch.setattr(linalg.Vector, "__init__", refuse)
    eliminated, leaves = [], []
    eliminate, reduce = solver.eliminate_linear, solver._reduce

    def reduce_and_keep(*args):
        found = reduce(*args)
        leaves.extend(found)
        return found
    monkeypatch.setattr(solver, "eliminate_linear",
                        lambda system: eliminated.append(system) or eliminate(system))
    monkeypatch.setattr(solver, "_reduce", reduce_and_keep)
    for alg, rep in PAIRS:
        system = generate_constraints(alg, rep)
        eliminated.clear()
        solve(system)
        assert eliminated == [system]
    assert leaves and any(leaf.subst for leaf in leaves) and any(leaf.free for leaf in leaves)
    for leaf in leaves:
        assert leaf.subst.keys().isdisjoint(leaf.free)
        for p in leaf.subst.values():
            assert p.variables() <= set(leaf.free)


def integral(alg, rep) -> bool:
    parts = (alg.alpha, *alg.tensors().values(), rep.phi, *rep.actions().values())
    return all(part.stored()[0] == 1 for part in parts)


def test_integral_inputs_build_no_fraction(monkeypatch):
    """On integral twists, tables and actions, ``generate_constraints``,
    ``Polynomial`` ``+``, ``*`` and ``substitute`` and the linear stage
    build no ``Fraction``: pivots that are not 1 become denominators."""
    pairs = [(alg, rep) for alg, rep in PAIRS if integral(alg, rep)]
    assert len(pairs) > len(PAIRS) // 2
    built = Counter()
    for name in ("__new__", "_from_coprime_ints"):  # the latter from Python 3.12
        if name in vars(Fraction):
            original = getattr(Fraction, name)
            monkeypatch.setattr(Fraction, name, staticmethod(
                lambda *args, original=original, name=name, **kw:
                built.update([name]) or original(*args, **kw)))
    dens = set()
    for alg, rep in pairs:
        system = generate_constraints(alg, rep)
        elim = eliminate_linear(system)
        eqs = system.equations
        for p, q in zip(eqs, eqs[1:]):
            p + q, p * q
        dens.update(p.den for p in elim.substitution.values())
    assert not built, built
    assert dens > {1}


def test_generator_reads_a_missing_twist_row_as_empty(monkeypatch):
    """``generate_constraints`` reads a row the stored twist leaves out as
    empty, so a matrix that keeps no empty row writes the same system."""
    pairs = [(alg, rep) for alg, rep in PAIRS
             if not all(alg.alpha.stored()[1].values())]
    want = [generate_constraints(alg, rep).render() for alg, rep in pairs]
    stored = Matrix.stored

    def without_empty_rows(m):
        den, rows = stored(m)
        return den, {i: row for i, row in rows.items() if row}
    monkeypatch.setattr(Matrix, "stored", without_empty_rows)
    assert pairs and [generate_constraints(alg, rep).render() for alg, rep in pairs] == want


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


powers = st.lists(st.integers(0, VARS - 1), max_size=6).map(tuple)  # () is a constant
coefficients = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 6]))


@PROPERTY
@given(st.dictionaries(powers, coefficients, max_size=6))
def test_render_matches_reference(terms):
    """Constants, powers of 3 or more, and negative and fractional
    coefficients render as the reference renders them."""
    def name(v):
        return f"t{v + 1}"
    assert Polynomial(terms).render(name) == oracle.Polynomial(terms).render(name)


constants = st.one_of(  # zero, or a nonzero value with one of four denominators
    st.just(Fraction(0)),
    st.builds(Fraction, st.sampled_from([-2, -1, 1, 3]), st.sampled_from([1, 2, 3, 4])),
).map(lambda c: (Polynomial.constant(c), oracle.Polynomial.constant(c)))
images = st.dictionaries(st.integers(0, VARS - 1), st.one_of(polynomial_pairs(), constants),
                         max_size=VARS)


@PROPERTY
@given(st.lists(polynomial_pairs(), min_size=1, max_size=6), images)
def test_shared_substitution_matches_reference(polys, mapping):
    """One substitution applied to a list of polynomials equals the
    reference substitution of each.  The polynomials share monomials (few
    variables, and the list ends with the sum of its first and last); the
    images mix denominators, zero, constants and other polynomials, and
    may leave variables unmapped, whose polynomials come back as they are."""
    (first, ref_first), (last, ref_last) = polys[0], polys[-1]
    polys.append((first + last, ref_first + ref_last))
    sub = solver._Substitution({v: new for v, (new, _) in mapping.items()})
    reference = {v: ref for v, (_, ref) in mapping.items()}
    for p, ref_p in polys:
        got = p.substitute(sub)
        assert_clean(got)
        assert got.terms == ref_p.substitute(reference).terms
        if not p.variables() & mapping.keys():
            assert got is p


def test_each_monomial_is_expanded_once_per_substitution(monkeypatch):
    """A substitution (a linear round, a branch of ``_reduce``, the
    family check of ``solve``) expands each
    distinct monomial once, however many of its polynomials hold it."""
    expanded, occurrences = Counter(), Counter()
    expand, apply = solver._Substitution._expand, solver._Substitution.apply
    monkeypatch.setattr(solver._Substitution, "_expand", lambda self, mono: (
        expanded.update([(self, mono)]) or expand(self, mono)))
    monkeypatch.setattr(solver._Substitution, "apply", lambda self, p: (
        occurrences.update((self, mono) for mono in p.ints) or apply(self, p)))
    for alg, rep in PAIRS:
        system = generate_constraints(alg, rep)
        eliminate_linear(system)
        solve(system)
    assert expanded.keys() == occurrences.keys()
    assert set(expanded.values()) == {1}
    assert sum(occurrences.values()) > len(expanded)  # shared monomials


def test_a_vanished_polynomial_is_the_shared_zero(monkeypatch):
    """Every zero a substitution returns is the one zero polynomial the
    solver builds once, in canonical form: a vanished equation builds
    nothing in its round."""
    results = []
    apply = solver._Substitution.apply
    monkeypatch.setattr(solver._Substitution, "apply",
                        lambda self, p: results.append(apply(self, p)) or results[-1])
    for alg, rep in PAIRS:
        solve(generate_constraints(alg, rep))
    zeros = [p for p in results if p.is_zero()]
    assert zeros and len(zeros) < len(results)
    assert all(p is solver._ZERO for p in zeros)
    assert_clean(solver._ZERO)


def test_linear_rounds_read_each_degree_once(monkeypatch):
    """``_reduce`` and ``_linear_round`` read ``Polynomial.degree`` at most
    once per equation handed to a linear round: the round that finds no
    equation of degree <= 1 ends the loop, with no scan ahead of it."""
    reads, handed = Counter(), 0
    degree, linear_round = Polynomial.degree, solver._linear_round

    def counted_degree(p):
        caller = sys._getframe(1)
        while caller.f_code.co_name.startswith("<"):  # a generator or comprehension
            caller = caller.f_back
        reads[caller.f_code.co_name] += 1
        return degree(p)

    def counted_round(equations, free):
        nonlocal handed
        handed += len(equations)
        return linear_round(equations, free)
    monkeypatch.setattr(Polynomial, "degree", counted_degree)
    monkeypatch.setattr(solver, "_linear_round", counted_round)
    for alg, rep in PAIRS:
        solve(generate_constraints(alg, rep))
    assert handed and reads["_linear_round"]
    assert reads["_reduce"] + reads["_linear_round"] <= handed


def rref_stage(linear, variables):
    """What ``_solve_linear_part`` must return, read off the reference
    ``_rref`` on the dense Fraction rows (``linalg._rref`` shares the
    stage's reducer): the pivot images as ``{variable: terms}`` and the
    free variables, or None if the constant column is a pivot."""
    ordered = sorted(variables, reverse=True)
    rows = [[p.coefficient((v,)) for v in ordered] + [p.coefficient(())] for p in linear]
    if not rows:
        return {}, tuple(sorted(variables))
    reduced, pivots = oracle._rref(rows)
    if len(ordered) in pivots:
        return None
    images = {}
    for row, c in zip(reduced, pivots):
        terms = {(ordered[k],): -row[k] for k in range(c + 1, len(ordered)) if row[k]}
        if row[-1]:
            terms[()] = -row[-1]
        images[ordered[c]] = terms
    return images, tuple(sorted(v for i, v in enumerate(ordered) if i not in pivots))


@st.composite
def linear_systems(draw):
    """Sparse rational linear equations over a few variable ids, with zero
    equations, scaled and summed copies (rank-deficient) and copies with
    a shifted constant (inconsistent) mixed in; possibly none at all."""
    variables = draw(st.lists(st.integers(0, 9), max_size=6, unique=True))
    row = st.fixed_dictionaries({(v,): sparse_rationals for v in variables})
    equations = [{**terms, (): c} for terms, c in
                 draw(st.lists(st.tuples(row, sparse_rationals), max_size=5))]
    if equations:
        for _ in range(draw(st.integers(0, 3))):
            first, second = draw(st.sampled_from(equations)), draw(st.sampled_from(equations))
            a, b = draw(rationals), draw(rationals)
            equations.append({m: a * first.get(m, 0) + b * second.get(m, 0)
                              for m in first.keys() | second.keys()})
        if draw(st.booleans()):
            copy = dict(draw(st.sampled_from(equations)))
            copy[()] = copy.get((), 0) + draw(rationals)
            equations.insert(draw(st.integers(0, len(equations))), copy)
    return [Polynomial(e) for e in equations], variables


@PROPERTY
@given(linear_systems())
def test_linear_stage_matches_rref(system):
    linear, variables = system
    got = solver._solve_linear_part(linear, variables)
    want = rref_stage(linear, variables)
    if want is None:
        assert got is None
        return
    mapping, free = got
    images, want_free = want
    assert free == want_free
    assert list(mapping) == sorted(images, reverse=True)
    assert {v: p.terms for v, p in mapping.items()} == images
    for p in mapping.values():
        assert_clean(p)


def test_linear_stage_property_reaches_every_case():
    """The drawn systems include empty, rank-deficient and inconsistent ones."""
    seen = set()

    @PROPERTY
    @given(linear_systems())
    def classify(system):
        linear, variables = system
        got = solver._solve_linear_part(linear, variables)
        if not linear:
            seen.add("empty")
        elif got is None:
            seen.add("inconsistent")
        elif len(got[0]) < len([p for p in linear if not p.is_zero()]):
            seen.add("rank-deficient")
    classify()
    assert seen == {"empty", "inconsistent", "rank-deficient"}


def _family(particular, basis):
    return solver.AffineFamily(particular, tuple(basis),
                               tuple(f"s{k}" for k in range(len(basis))))


@st.composite
def family_pairs(draw):
    """Two affine families of one shape, their entries over mixed
    denominators: the second drawn at random, equal to the first, or
    inside it (its particular and basis combinations of the first's).
    Either basis may be empty, and both are at times (two points)."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    matrix = st.lists(st.lists(sparse_rationals, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows).map(Matrix)
    big = _family(draw(matrix), draw(st.lists(matrix, max_size=3)))
    how = draw(st.sampled_from(["random", "equal", "inside"]))
    if how == "random":
        return big, _family(draw(matrix), draw(st.lists(matrix, max_size=3)))
    if how == "equal":
        return big, _family(big.particular, big.basis)

    def combination():
        return big.particular._combine(*((b, draw(rationals)) for b in big.basis))
    return big, _family(big.particular + combination(),
                        [combination() for _ in range(draw(st.integers(0, 3)))])


@PROPERTY
@given(family_pairs())
def test_family_comparison_matches_reference(pair):
    big, small = pair
    for outer, inner in (pair, (small, big)):
        assert solver._family_contains(outer, inner) == oracle._family_contains(outer, inner)


def test_family_property_reaches_every_case():
    """The drawn pairs include containment both ways and neither way,
    an empty basis, two points, equal families and mixed denominators."""
    seen = set()

    @PROPERTY
    @given(family_pairs())
    def classify(pair):
        big, small = pair
        seen.add(("contains", solver._family_contains(big, small),
                  solver._family_contains(small, big)))
        if not big.basis:
            seen.add("empty basis")
            if not small.basis:
                seen.add("points")
        if big == small:
            seen.add("equal")
        if len({m.stored()[0] for m in (big.particular, *big.basis)}) > 1:
            seen.add("mixed denominators")
    classify()
    assert seen >= {("contains", True, True), ("contains", True, False),
                    ("contains", False, False), "empty basis", "points", "equal",
                    "mixed denominators"}
