"""The model objects as values: constructors, reprs, equality, hashing and
immutability as the frozen dataclasses they replace had them, and a
round trip through ``pickle`` and ``copy.deepcopy`` for every one."""

import copy
import inspect
import pickle

import pytest
from hypothesis import given, settings

from homkit.algebra import HomAlgebra, check_algebra
from homkit.dsl import DocAlgebra, DocMap, DocRepresentation
from homkit.fixtures import leibniz_rbo, two_dim_associative, two_dim_leibniz, two_dim_poisson
from homkit.linalg import AffineSolution, Matrix, Vector, solve_linear
from homkit.matched import MatchedPair
from homkit.operators import OperatorContext, check_relative_rbo
from homkit.representation import Representation, check_representation, regular_representation
from homkit.reporting import CheckReport, CheckResult, Witness
from homkit.solver import (
    AffineFamily, Elimination, PolySystem, Polynomial, SolutionSet, eliminate_linear,
    generate_constraints, solve_relative_rbo,
)
from test_dsl_properties import documents
from test_stored_ints import structures

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

# The constructor signatures of the dataclasses these classes were, less
# their ``-> None`` return annotation.
SIGNATURES = {
    HomAlgebra: "(dim: 'int', kind: 'str', alpha: 'Matrix', dot: 'StructureTensor | None'"
                " = None, bracket: 'StructureTensor | None' = None)",
    Representation: "(kind: 'str', base_dim: 'int', carrier_dim: 'int', phi: 'Matrix',"
                    " lambda_l: 'ActionTensor | None' = None, lambda_r: 'ActionTensor | None'"
                    " = None, rho_l: 'ActionTensor | None' = None, rho_r: 'ActionTensor |"
                    " None' = None)",
    DocAlgebra: "(name: 'str', algebra: 'HomAlgebra')",
    DocMap: "(name: 'str', src: 'str', dst: 'str', matrix: 'Matrix')",
    DocRepresentation: "(name: 'str', base: 'str', rep: 'Representation')",
    Witness: "(indices: 'tuple[int, ...]', residual: 'Vector')",
    CheckResult: "(identity: 'str', passed: 'bool', witness: 'Witness | None' = None)",
    CheckReport: "(checks: 'tuple[CheckResult, ...]')",
    AffineSolution: "(particular: 'Vector', kernel: 'tuple[Vector, ...]')",
    OperatorContext: "(alg: 'HomAlgebra', rep: 'Representation', t: 'Matrix')",
    MatchedPair: "(a1: 'HomAlgebra', a2: 'HomAlgebra', actions_1_on_2: 'Representation',"
                 " actions_2_on_1: 'Representation')",
    PolySystem: "(rows: 'int', cols: 'int', equations: 'tuple[Polynomial, ...]')",
    Elimination: "(system: 'PolySystem', substitution: 'dict[int, Polynomial]',"
                 " free_vars: 'tuple[int, ...]', inconsistent: 'bool' = False)",
    AffineFamily: "(particular: 'Matrix', basis: 'tuple[Matrix, ...]',"
                  " params: 'tuple[str, ...]')",
    SolutionSet: "(status: 'str', points: 'tuple[Matrix, ...]' = (), family: 'AffineFamily |"
                 " None' = None, residual: 'PolySystem | None' = None)",
}


def test_constructors_keep_their_signatures():
    for cls, signature in SIGNATURES.items():
        assert str(inspect.signature(cls)) == signature, cls.__name__


def witness() -> Witness:
    return Witness((0, 1), Vector([1, "1/2"]))


def leib() -> HomAlgebra:
    return two_dim_leibniz()


SYSTEM = PolySystem(1, 1, [])  # one system: systems compare by identity


# ``(build, repr)`` for an example of each value class: ``build()`` makes a
# new, equal value each call; ``repr`` is the dataclass text.
VALUES = [
    (leib, "HomAlgebra(dim=2, kind='leibniz')"),
    (lambda: regular_representation(leib()),
     "Representation(kind='leibniz', base_dim=2, carrier_dim=2)"),
    (lambda: DocAlgebra("A", leib()),
     "DocAlgebra(name='A', algebra=HomAlgebra(dim=2, kind='leibniz'))"),
    (lambda: DocMap("f", "A", "A", Matrix([[1, 0], [0, 2]])),
     "DocMap(name='f', src='A', dst='A', matrix=Matrix([[Fraction(1, 1), Fraction(0, 1)],"
     " [Fraction(0, 1), Fraction(2, 1)]]))"),
    (lambda: DocRepresentation("R", "A", regular_representation(leib())),
     "DocRepresentation(name='R', base='A', rep=Representation(kind='leibniz',"
     " base_dim=2, carrier_dim=2))"),
    (witness, "Witness(indices=(0, 1), residual=Vector([Fraction(1, 1), Fraction(1, 2)]))"),
    (lambda: CheckResult("x", True), "CheckResult(identity='x', passed=True, witness=None)"),
    (lambda: CheckResult("y", False, witness()),
     "CheckResult(identity='y', passed=False, witness=Witness(indices=(0, 1),"
     " residual=Vector([Fraction(1, 1), Fraction(1, 2)])))"),
    (lambda: CheckReport((CheckResult("x", True),)),
     "CheckReport(checks=(CheckResult(identity='x', passed=True, witness=None),))"),
    (lambda: AffineSolution(Vector([1]), ()),
     "AffineSolution(particular=Vector([Fraction(1, 1)]), kernel=())"),
    (lambda: Elimination(SYSTEM, {0: Polynomial({(): 1})}, (), True),
     "Elimination(system=PolySystem(1x1, 0 equations), substitution={0: Polynomial(1)},"
     " free_vars=(), inconsistent=True)"),
    (lambda: AffineFamily(Matrix.zero(1, 1), (Matrix.identity(1),), ("t11",)),
     "AffineFamily(particular=Matrix([[Fraction(0, 1)]]), basis=(Matrix([[Fraction(1, 1)]]),),"
     " params=('t11',))"),
    (lambda: SolutionSet("finite", points=(Matrix.zero(1, 1),)),
     "SolutionSet(status='finite', points=(Matrix([[Fraction(0, 1)]]),), family=None,"
     " residual=None)"),
]


@pytest.mark.parametrize("build, text", VALUES,
                         ids=[f"{text.split('(')[0]}-{i}" for i, (_, text) in enumerate(VALUES)])
def test_values_keep_their_repr_equality_hashing_and_immutability(build, text):
    a, b = build(), build()
    assert repr(a) == text
    assert a is not b and a == b and not a != b
    if type(a) is not Elimination:  # a dict field, unhashable as before
        assert hash(a) == hash(b)
    assert a != object() and a != (*(getattr(a, n) for n in type(a).__slots__),)
    name = type(a).__slots__[0]
    for attempt in (lambda: setattr(a, name, None), lambda: delattr(a, name),
                    lambda: setattr(a, "extra", 1)):
        with pytest.raises(AttributeError):
            attempt()
    assert a == b


def test_a_changed_field_is_a_different_value():
    assert CheckResult("x", True) != CheckResult("x", False)
    assert CheckResult("x", True) != CheckResult("y", True)
    assert DocMap("f", "A", "A", Matrix([[1]])) != DocMap("f", "A", "A", Matrix([[2]]))
    assert SolutionSet("finite") != SolutionSet("residual")


def test_contexts_pairs_and_systems_compare_by_identity():
    leib = two_dim_leibniz()
    reg = regular_representation(leib)
    for build in (lambda: OperatorContext(leib, reg, leibniz_rbo(1)),
                  lambda: MatchedPair(leib, leib, reg, reg),
                  lambda: PolySystem(1, 2, [Polynomial({(0,): 1})])):
        a, b = build(), build()
        assert a == a and a != b and hash(a) == object.__hash__(a)
        if type(a) is not PolySystem:  # which keeps its own repr
            assert repr(a) == object.__repr__(a)
        with pytest.raises(AttributeError):
            setattr(a, type(a).__slots__[0], None)


def round_trips(value):
    """``value`` through ``pickle`` and through ``copy.deepcopy``."""
    return pickle.loads(pickle.dumps(value)), copy.deepcopy(value)


def assert_round_trips(value, fields=None):
    """Each copy of ``value`` is equal and hashes alike, or, for a class
    that compares by identity, has equal ``fields``."""
    for back in round_trips(value):
        assert type(back) is type(value)
        if fields is None:
            assert back == value
            if type(value) is not Elimination:
                assert hash(back) == hash(value)
        else:
            assert back is not value and fields(back) == fields(value)


def test_the_model_objects_that_failed_to_copy_now_round_trip():
    # Both raised "... is immutable" as the copy set their slots.
    assert_round_trips(Matrix([[1, 2], [3, 4]]))
    assert_round_trips(two_dim_leibniz())
    m = Matrix([["1/2", 0], [0, 3]])
    m.entries  # a view, computed on each read, is never part of a copy
    for back in round_trips(m):
        assert back.stored() == m.stored() and back.entries == m.entries


@PROPERTY
@given(structures())
def test_generated_structures_and_reports_round_trip(structure):
    alg, rep, pair, (t, op, beta) = structure
    for value in (alg, rep, t, op, beta, alg.alpha, *alg.tensors().values(),
                  *rep.actions().values(), check_algebra(alg),
                  check_representation(rep, alg)):
        assert_round_trips(value)
    ctx = OperatorContext(alg, rep, t)
    report = check_relative_rbo(ctx)
    assert_round_trips(ctx, lambda c: (c.alg, c.rep, c.t))
    # A copy keeps no report: it checks afresh, to the same verdicts.
    for back in round_trips(ctx):
        assert back._report is None and check_relative_rbo(back) == report
    assert_round_trips(pair, lambda p: (p.a1, p.a2, p.actions_1_on_2, p.actions_2_on_1))


@PROPERTY
@given(documents())
def test_generated_documents_round_trip(doc):
    for back in round_trips(doc):
        assert back == doc
        assert all(type(x) is type(y) and hash(x) == hash(y)
                   for x, y in zip(back.items, doc.items))
        assert [back.get(item.name) for item in doc.items] == doc.items


def test_solver_outputs_round_trip():
    statuses = set()
    for alg in (two_dim_associative(), two_dim_leibniz(), two_dim_poisson()):
        rep = regular_representation(alg)
        system = generate_constraints(alg, rep)
        assert_round_trips(system, lambda s: (s.rows, s.cols, s.equations))
        assert_round_trips(eliminate_linear(system), lambda e: (
            e.system.rows, e.system.cols, e.system.equations, e.substitution, e.free_vars,
            e.inconsistent))
        solution = solve_relative_rbo(alg, rep)
        assert_round_trips(solution)
        statuses.add(solution.status)
        for e in system.equations:
            assert_round_trips(e)
    assert statuses == {"finite", "affine_family"}
    assert_round_trips(solve_linear(Matrix([[1, 1]]), Vector([2])))
