"""Tour of the constructions: semidirect products, matched-pair sums,
induced structures, operator characterizations, and Nijenhuis
deformations, each re-validated by the checkers afterwards.
"""

from homkit import (
    MatchedPair, OperatorContext, check_algebra, check_matched_pair,
    check_morphism, check_morphism_property, check_nijenhuis,
    check_relative_rbo, check_representation, check_rota_baxter, graph_check,
    induced_algebra, induced_representation, lift_operator, matched_sum,
    nijenhuis_deform, projection_context,
    regular_representation, semidirect_product, yau_twist,
)
from homkit.algebra import LEIBNIZ, HomAlgebra, StructureTensor
from homkit.dsl import DocAlgebra, Document, serialize
from homkit.fixtures import TWIST, leibniz_rbo, two_dim_leibniz
from homkit.representation import ActionTensor, Representation


def ok(flag):
    return "pass" if flag else "FAIL"


def main():
    l = two_dim_leibniz()
    reg = regular_representation(l)

    print("-- semidirect product of the Leibniz example with itself --")
    sd = semidirect_product(l, reg)
    print(serialize(Document([DocAlgebra("sd", sd)])))
    print("checks:", ok(check_algebra(sd).passed))
    print()

    print("-- the same algebra as a degenerate matched pair --")
    abelian = HomAlgebra(2, LEIBNIZ, reg.phi, bracket=StructureTensor.zero(2))
    back = Representation(LEIBNIZ, 2, 2, l.alpha,
                          rho_l=ActionTensor.zero(2, 2),
                          rho_r=ActionTensor.zero(2, 2))
    mp = MatchedPair(l, abelian, reg, back)
    total = matched_sum(mp)
    print("matched pair conditions:", ok(check_matched_pair(mp).passed))
    print("sum equals the semidirect product:", total == sd)
    print()

    print("-- the one-parameter operator family and what it induces --")
    t = leibniz_rbo(1)
    ctx = OperatorContext(l, reg, t)
    print("relative Rota-Baxter check:", ok(check_relative_rbo(ctx).passed))
    induced = induced_algebra(ctx)
    print("induced bracket on the carrier:")
    print(serialize(Document([DocAlgebra("induced", induced)])))
    print("induced algebra checks:", ok(check_algebra(induced).passed))
    print("T is a morphism induced -> original:",
          ok(check_morphism_property(ctx).passed))
    back_rep = induced_representation(ctx)
    print("back-representation on the original space:",
          ok(check_representation(back_rep, induced).passed))
    print()

    print("-- three equivalent characterizations of the same fact --")
    print("graph of T is a subalgebra of the semidirect product:",
          ok(graph_check(ctx).passed))
    lift = lift_operator(ctx)
    print("lifted block operator is Rota-Baxter of weight 0:",
          ok(check_rota_baxter(sd, lift, 0).passed))
    n_t = lift_operator(ctx)
    print("same block matrix is a Nijenhuis operator:",
          ok(check_nijenhuis(sd, n_t).passed))
    print()

    print("-- Nijenhuis deformation on the semidirect space --")
    deformed = nijenhuis_deform(sd, n_t)
    print("deformed algebra checks:", ok(check_algebra(deformed).passed))
    print("operator is a morphism deformed -> original:",
          ok(check_morphism(n_t, deformed, sd).passed))
    print()

    print("-- twisting: products composed with a self-morphism --")
    twisted = yau_twist(l, TWIST)
    print(serialize(Document([DocAlgebra("twisted", twisted)])))
    print("twisted algebra checks:", ok(check_algebra(twisted).passed))
    print()

    print("-- projection operators from any valid representation --")
    pctx = projection_context(l, reg)
    print("extended representation on A + V is valid:",
          ok(check_representation(pctx.rep, l).passed))
    print("projection onto A is a relative Rota-Baxter operator:",
          ok(check_relative_rbo(pctx).passed))


if __name__ == "__main__":
    main()
