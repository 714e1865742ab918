"""Operator-level checks: Rota-Baxter, relative operators, induced
structures, Nijenhuis deformations, and the characterization equivalences."""

import copy
import inspect
import pickle
import random
from fractions import Fraction

import pytest

from homkit.algebra import (
    LEIBNIZ, HomAlgebra, StructureTensor, check_algebra,
    check_hom_leibniz, check_morphism,
)
from homkit.errors import PreconditionError
from homkit.fixtures import (
    TWIST, leibniz_rbo, two_dim_associative, two_dim_leibniz, two_dim_poisson,
)
from homkit.linalg import Matrix
from homkit.operators import (
    OperatorContext, check_morphism_property, check_nijenhuis,
    check_relative_rbo, check_rota_baxter, graph_check, induced_algebra,
    induced_representation, lift_operator, nijenhuis_deform,
    projection_context,
)
from homkit.representation import (
    ActionTensor, Representation, check_representation,
    regular_representation, semidirect_product,
)


def leibniz_ctx(t: Matrix) -> OperatorContext:
    l = two_dim_leibniz()
    return OperatorContext(l, regular_representation(l), t)


def test_rota_baxter_zero_any_weight():
    l = two_dim_leibniz()
    for w in (0, 1, Fraction(-1, 2)):
        assert check_rota_baxter(l, Matrix.zero(2, 2), w).passed


def test_rota_baxter_identity_weight_minus_one():
    l = two_dim_leibniz()
    assert check_rota_baxter(l, Matrix.identity(2), -1).passed
    a = two_dim_associative()
    assert check_rota_baxter(a, Matrix.identity(2), -1).result(
        "rota_baxter:dot").passed


def test_rota_baxter_family_member():
    l = two_dim_leibniz()
    assert check_rota_baxter(l, leibniz_rbo(1), 0).passed


def test_rota_baxter_equals_relative_on_regular_rep():
    # Weight-zero Rota-Baxter operators are exactly the relative operators
    # for the regular representation; the verdicts agree on random maps.
    rng = random.Random(19)
    for alg in (two_dim_leibniz(), two_dim_associative(), two_dim_poisson()):
        rep = regular_representation(alg)
        for _ in range(40):
            r = Matrix([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
            rb = check_rota_baxter(alg, r, 0).passed
            rel = check_relative_rbo(OperatorContext(alg, rep, r)).passed
            assert rb == rel


def test_relative_rbo_zero_always_passes():
    for alg in (two_dim_leibniz(), two_dim_associative(), two_dim_poisson()):
        ctx = OperatorContext(alg, regular_representation(alg), Matrix.zero(2, 2))
        assert check_relative_rbo(ctx).passed


def test_relative_rbo_leibniz_family_passes():
    assert check_relative_rbo(leibniz_ctx(leibniz_rbo(1))).passed
    assert check_relative_rbo(leibniz_ctx(leibniz_rbo(Fraction(-1, 2)))).passed


def test_relative_rbo_fails_on_associative_fixture():
    a = two_dim_associative()
    ctx = OperatorContext(a, regular_representation(a), leibniz_rbo(1))
    assert not check_relative_rbo(ctx).passed


def test_induced_algebra_zero_operator():
    ctx = leibniz_ctx(Matrix.zero(2, 2))
    out = induced_algebra(ctx)
    assert out.bracket == StructureTensor.zero(2)
    assert out.alpha == TWIST


def test_induced_algebra_family_is_hom_leibniz():
    out = induced_algebra(leibniz_ctx(leibniz_rbo(1)))
    assert check_hom_leibniz(out.bracket, out.alpha).passed
    assert check_algebra(out).passed


def test_induced_algebra_gate():
    bad = leibniz_ctx(Matrix([[1, 0], [0, 0]]))
    with pytest.raises(PreconditionError):
        induced_algebra(bad)
    # The unchecked variant constructs anyway, for negative testing.
    out = induced_algebra(bad, checked=False)
    assert out.dim == 2


def test_morphism_property_family():
    assert check_morphism_property(leibniz_ctx(leibniz_rbo(1))).passed
    assert check_morphism_property(leibniz_ctx(Matrix.zero(2, 2))).passed


def test_induced_representation_zero_operator():
    rep = induced_representation(leibniz_ctx(Matrix.zero(2, 2)))
    assert all(m.is_zero() for m in rep.rho_l.mats)
    assert all(m.is_zero() for m in rep.rho_r.mats)
    assert check_representation(rep, induced_algebra(
        leibniz_ctx(Matrix.zero(2, 2)))).passed


def test_induced_representation_family_passes():
    ctx = leibniz_ctx(leibniz_rbo(1))
    rep = induced_representation(ctx)
    assert check_representation(rep, induced_algebra(ctx)).passed


def test_projection_context_trivial():
    alg = HomAlgebra(1, LEIBNIZ, Matrix.zero(1, 1),
                     bracket=StructureTensor.zero(1))
    rep = Representation(LEIBNIZ, 1, 1, Matrix.zero(1, 1),
                         rho_l=ActionTensor.zero(1, 1),
                         rho_r=ActionTensor.zero(1, 1))
    ctx = projection_context(alg, rep)
    assert ctx.t == Matrix([[1, 0]])
    assert check_relative_rbo(ctx).passed


def test_projection_context_leibniz_regular():
    l = two_dim_leibniz()
    ctx = projection_context(l, regular_representation(l))
    assert ctx.rep.carrier_dim == 4
    assert check_relative_rbo(ctx).passed
    assert check_representation(ctx.rep, l).passed


def test_projection_context_poisson_fixture_unchecked():
    # The combined fixture's regular representation fails the axioms (the
    # dot part is not multiplicative), so the gate must reject it; the
    # projection operator itself still satisfies the operator identities.
    p = two_dim_poisson()
    rep = regular_representation(p)
    with pytest.raises(PreconditionError):
        projection_context(p, rep)
    ctx = projection_context(p, rep, checked=False)
    assert check_relative_rbo(ctx).passed


def test_projection_context_of_a_dim_zero_algebra():
    # T = [I_0 | 0] is 0x2; it used to be assembled as 0x0 and refused.
    alg = HomAlgebra(0, LEIBNIZ, Matrix.zero(0, 0), bracket=StructureTensor.zero(0))
    rep = Representation(LEIBNIZ, 0, 2, Matrix.identity(2),
                         rho_l=ActionTensor.zero(0, 2), rho_r=ActionTensor.zero(0, 2))
    ctx = projection_context(alg, rep)
    assert (ctx.t.rows, ctx.t.cols) == (0, 2)
    assert check_relative_rbo(ctx).passed
    induced = induced_algebra(ctx)
    assert induced.dim == 2 and induced.bracket == StructureTensor.zero(2)
    assert check_algebra(induced).passed


def test_nijenhuis_identity_and_zero():
    for alg in (two_dim_leibniz(), two_dim_poisson()):
        assert check_nijenhuis(alg, Matrix.identity(2)).passed
        assert check_nijenhuis(alg, Matrix.zero(2, 2)).passed


def test_nijenhuis_from_verified_rbo():
    ctx = leibniz_ctx(leibniz_rbo(1))
    sd = semidirect_product(ctx.alg, ctx.rep)
    n = lift_operator(ctx)
    assert check_nijenhuis(sd, n).passed
    assert (n @ n).is_zero()


def test_nijenhuis_deform_identity_is_noop():
    l = two_dim_leibniz()
    assert nijenhuis_deform(l, Matrix.identity(2)) == l


def test_nijenhuis_deform_zero_map():
    l = two_dim_leibniz()
    out = nijenhuis_deform(l, Matrix.zero(2, 2))
    assert out.bracket == StructureTensor.zero(2)
    assert check_algebra(out).passed


def test_nijenhuis_deform_block_operator():
    ctx = leibniz_ctx(leibniz_rbo(1))
    sd = semidirect_product(ctx.alg, ctx.rep)
    n = lift_operator(ctx)
    deformed = nijenhuis_deform(sd, n)
    assert check_algebra(deformed).passed
    assert check_morphism(n, deformed, sd).passed


def test_nijenhuis_deform_gate():
    l = two_dim_leibniz()
    bad = Matrix([[0, 1], [1, 0]])
    assert not check_nijenhuis(l, bad).passed
    with pytest.raises(PreconditionError):
        nijenhuis_deform(l, bad)


def test_graph_check_zero_operator():
    assert graph_check(leibniz_ctx(Matrix.zero(2, 2))).passed


def test_graph_check_family_and_failure():
    assert graph_check(leibniz_ctx(leibniz_rbo(1))).passed
    bad = leibniz_ctx(Matrix([[1, 0], [0, 0]]))
    assert not graph_check(bad).passed
    assert not check_relative_rbo(bad).passed


def test_lift_operator_block_form():
    ctx = leibniz_ctx(leibniz_rbo(1))
    lift = lift_operator(ctx)
    assert lift == Matrix([[0, 0, 0, 1],
                           [0, 0, 0, 2],
                           [0, 0, 0, 0],
                           [0, 0, 0, 0]])
    sd = semidirect_product(ctx.alg, ctx.rep)
    assert check_rota_baxter(sd, lift, 0).passed


def random_t(rng, rows, cols):
    return Matrix([[Fraction(rng.randint(-2, 2), rng.choice([1, 1, 2]))
                    for _ in range(cols)] for _ in range(rows)])


def test_four_way_equivalence_randomized():
    # check_relative_rbo <=> graph closure <=> lifted Rota-Baxter <=>
    # block-operator Nijenhuis, on random operators over all fixtures.
    rng = random.Random(31)
    fixtures = [two_dim_leibniz(), two_dim_associative(), two_dim_poisson()]
    for _ in range(60):
        alg = rng.choice(fixtures)
        rep = regular_representation(alg)
        t = rng.choice([random_t(rng, 2, 2), leibniz_rbo(rng.randint(-2, 2)),
                        Matrix.zero(2, 2)])
        ctx = OperatorContext(alg, rep, t)
        sd = semidirect_product(alg, rep)
        verdicts = {
            "relative": check_relative_rbo(ctx).passed,
            "graph": graph_check(ctx).passed,
            "lift": check_rota_baxter(sd, lift_operator(ctx), 0).passed,
            "nijenhuis": check_nijenhuis(sd, lift_operator(ctx)).passed,
        }
        assert len(set(verdicts.values())) == 1, verdicts


def test_induced_suite_on_projection_context():
    l = two_dim_leibniz()
    ctx = projection_context(l, regular_representation(l))
    out = induced_algebra(ctx)
    assert check_algebra(out).passed
    assert check_morphism_property(ctx).passed
    rep = induced_representation(ctx)
    assert check_representation(rep, out).passed


def test_gates_reject_failing_context_everywhere():
    bad = leibniz_ctx(Matrix([[1, 0], [0, 0]]))
    with pytest.raises(PreconditionError):
        check_morphism_property(bad)
    with pytest.raises(PreconditionError):
        induced_representation(bad)
    # Ungated variants still construct, for negative testing.
    assert induced_representation(bad, checked=False).carrier_dim == 2
    report = check_morphism_property(bad, checked=False)
    assert not report.passed


# ---- one relative Rota-Baxter verdict per context ----------------------------

BAD_SPLIT = ("needs a relative Rota-Baxter operator: FAIL intertwines_twist at (2): "
             "residual = e1; FAIL splits:bracket at (1, 2): residual = -e1")


def test_relative_rbo_report_is_kept_by_its_context(monkeypatch):
    import homkit.operators as operators
    ctx = leibniz_ctx(leibniz_rbo(1))
    report = check_relative_rbo(ctx)
    assert report.passed and check_relative_rbo(ctx) is report
    # The gates read the kept report and scan nothing again.
    scans = []
    monkeypatch.setattr(operators, "_carries", lambda *args, **kw: scans.append(args))
    induced = induced_algebra(ctx)
    check_morphism_property(ctx)
    induced_representation(ctx)
    assert scans == [] and check_relative_rbo(ctx) is report
    monkeypatch.undo()
    assert induced == induced_algebra(leibniz_ctx(leibniz_rbo(1)))


def test_the_induced_algebra_is_built_once_per_context(monkeypatch):
    import homkit.operators as operators
    ctx = leibniz_ctx(leibniz_rbo(1))
    induced = induced_algebra(ctx)
    assert induced_algebra(ctx) is induced and induced_algebra(ctx, checked=False) is induced
    seen = []
    monkeypatch.setattr(operators, "check_morphism",
                        lambda f, src, dst: seen.append(src) or check_morphism(f, src, dst))
    assert check_morphism_property(ctx).passed and seen == [induced]
    assert seen[0] is induced


def test_a_kept_induced_algebra_stays_behind_the_gate():
    # Built unchecked and kept, it is still refused by the checked gates.
    bad = leibniz_ctx(Matrix([[1, 0], [0, 0]]))
    kept = induced_algebra(bad, checked=False)
    assert induced_algebra(bad, checked=False) is kept
    for what, gate in (("induced algebra", induced_algebra),
                       ("morphism property", check_morphism_property)):
        with pytest.raises(PreconditionError) as err:
            gate(bad)
        assert str(err.value) == f"{what} {BAD_SPLIT}"


def test_a_copied_context_keeps_no_induced_algebra():
    ctx = leibniz_ctx(leibniz_rbo(1))
    induced, report = induced_algebra(ctx), check_relative_rbo(ctx)
    for back in (pickle.loads(pickle.dumps(ctx)), copy.deepcopy(ctx)):
        assert back._algebra is None and back._report is None
        again = induced_algebra(back)
        assert again == induced and again is not induced
        assert check_relative_rbo(back) == report


def test_every_gate_gives_the_same_message_on_a_failing_context():
    bad = leibniz_ctx(Matrix([[1, 0], [0, 0]]))
    for what, gate in (("induced algebra", induced_algebra),
                       ("morphism property", check_morphism_property),
                       ("induced representation", induced_representation)):
        with pytest.raises(PreconditionError) as err:
            gate(bad)
        assert str(err.value) == f"{what} {BAD_SPLIT}"
    assert "; ".join(c.render() for c in check_relative_rbo(bad).failures()) in BAD_SPLIT


def test_a_new_operator_is_checked_afresh():
    ctx = leibniz_ctx(leibniz_rbo(1))
    assert check_relative_rbo(ctx).passed
    shifted = Matrix([[1, 0], [0, 0]])
    for other in (OperatorContext(ctx.alg, ctx.rep, shifted),
                  OperatorContext(ctx.alg, ctx.rep, t=shifted)):
        assert other.t is shifted and not check_relative_rbo(other).passed
        with pytest.raises(PreconditionError):
            induced_algebra(other)
    again = OperatorContext(ctx.alg, ctx.rep, ctx.t)
    assert again is not ctx and check_relative_rbo(again) == check_relative_rbo(ctx)
    assert check_relative_rbo(again) is not check_relative_rbo(ctx)


def test_operator_context_keeps_its_signature_equality_and_repr():
    assert list(inspect.signature(OperatorContext).parameters) == ["alg", "rep", "t"]
    l = two_dim_leibniz()
    rep, t = regular_representation(l), leibniz_rbo(1)
    a, b = OperatorContext(l, rep, t), OperatorContext(l, rep, t)
    assert a == a and a != b and hash(a) != hash(b)  # equality is identity
    assert repr(a) == object.__repr__(a)
    check_relative_rbo(a)
    assert repr(a) == object.__repr__(a) and a != b
    with pytest.raises(AttributeError):
        a.t = t
