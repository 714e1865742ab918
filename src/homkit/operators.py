"""Rota-Baxter and relative Rota-Baxter operators, the structures they
induce, Nijenhuis operators, and the three operator characterizations
(graph subalgebra, lifted operator, block Nijenhuis operator).

A relative Rota-Baxter operator is a map T from the carrier of a
representation back to the algebra that intertwines the twists and splits
each product through the corresponding action pair.  Weight-zero
Rota-Baxter operators are the special case of the regular representation.

Note on the Rota-Baxter check: besides the weight identity it also
verifies that the operator commutes with the twist.  Without that clause
the equivalences with the relative notion (via the regular representation
and via the lifted operator on the semidirect product) would fail on maps
that satisfy the product identity but not the twist compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from .algebra import HomAlgebra, StructureTensor, check_morphism
from .errors import ShapeError
from .kernel import (
    IntAction, IntMatrix, IntTensor, add, common_denominator, scale, sub, times,
    unit,
)
from .linalg import Matrix, Vector, frac, span_membership
from .representation import (
    ActionTensor, Representation, _require_match, check_representation,
    paired_families, semidirect_product,
)
from .reporting import CheckReport, require, scan_identity, scan_membership


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class OperatorContext:
    """An algebra, a representation of it, and a candidate operator
    T: carrier -> algebra (as an alg.dim x carrier_dim matrix)."""

    alg: HomAlgebra
    rep: Representation
    t: Matrix

    def __post_init__(self):
        _require_match(self.rep, self.alg)
        if self.t.rows != self.alg.dim or self.t.cols != self.rep.carrier_dim:
            raise ShapeError("operator must be alg.dim x carrier_dim")


def _self_map_checks(alg: HomAlgebra, op: Matrix, name: str, inner,
                     weight: Fraction = Fraction(0)) -> CheckReport:
    """``op alpha = alpha op``, then per table ``name:<table>``, the
    identity ``mu(op e_i, op e_j) = op(inner(mu, op, w, i, j))`` on all
    basis pairs; ``inner`` returns a degree-2 term and ``w`` is the weight
    times the common denominator."""
    tensors = alg.tensors()
    d = common_denominator(alg.alpha, op, weight, *tensors.values())
    o, alpha = IntMatrix(op, d), IntMatrix(alg.alpha, d)
    checks = [scan_identity(
        "twist_commute", ((j,) for j in range(alg.dim)),
        lambda j: sub(o.apply(alpha.cols[j]), alpha.apply(o.cols[j])),
        denominator=d ** 2)]
    (w,) = scale((weight,), d)
    for tname, t in tensors.items():
        mu = IntTensor(t, d)
        checks.append(scan_identity(
            f"{name}:{tname}", iproduct(range(alg.dim), repeat=2),
            lambda i, j, mu=mu: sub(mu.product(o.cols[i], o.cols[j]),
                                    o.apply(inner(mu, o, w, i, j))),
            denominator=d ** 3))
    return CheckReport(tuple(checks))


def check_rota_baxter(alg: HomAlgebra, r: Matrix, weight) -> CheckReport:
    """Weight-lambda Rota-Baxter test for a self-map, per table:
    ``mu(Rx, Ry) = R(mu(Rx, y) + mu(x, Ry) + weight mu(x, y))``,
    together with twist compatibility ``R alpha = alpha R``."""
    weight = frac(weight)
    if not r.is_square() or r.rows != alg.dim:
        raise ShapeError("operator must be square of the algebra dim")
    n = alg.dim

    def inner(mu, o, w, i, j):
        return add(add(mu.product(o.cols[i], unit(n, j)),
                       mu.product(unit(n, i), o.cols[j])),
                   times(w, mu.table[i][j]))

    return _self_map_checks(alg, r, "rota_baxter", inner, weight)


def _split_residual(t: IntMatrix, tensor: IntTensor, left: IntAction,
                    right: IntAction):
    # act(T e_i) for every carrier index, as columns (degree 2).
    lefts = [left.at_cols(tu) for tu in t.cols]
    rights = [right.at_cols(tv) for tv in t.cols]

    def residual(i, j):
        inner = add(lefts[i][j], rights[j][i])
        return sub(tensor.product(t.cols[i], t.cols[j]), t.apply(inner))

    return residual


def check_relative_rbo(ctx: OperatorContext) -> CheckReport:
    """Relative Rota-Baxter test: ``T phi = alpha T`` plus, per table,
    ``mu(Tu, Tv) = T(act_l(Tu) v + act_r(Tv) u)`` on all carrier pairs."""
    alg, rep = ctx.alg, ctx.rep
    tensors, actions = alg.tensors(), rep.actions()
    d = common_denominator(ctx.t, alg.alpha, rep.phi, *tensors.values(),
                           *actions.values())
    t, phi, alpha = IntMatrix(ctx.t, d), IntMatrix(rep.phi, d), IntMatrix(alg.alpha, d)
    checks = [scan_identity(
        "intertwines_twist", ((j,) for j in range(rep.carrier_dim)),
        lambda j: sub(t.apply(phi.cols[j]), alpha.apply(t.cols[j])),
        denominator=d ** 2)]
    m = rep.carrier_dim
    for name, tensor in tensors.items():
        left, right = (IntAction(a, d) for a in rep.action_pair(name))
        checks.append(scan_identity(
            f"splits:{name}", iproduct(range(m), repeat=2),
            _split_residual(t, IntTensor(tensor, d), left, right),
            denominator=d ** 3))
    return CheckReport(tuple(checks))


def _gate(ctx: OperatorContext, checked: bool, what: str) -> None:
    if checked:
        require(check_relative_rbo(ctx), f"{what} needs a relative Rota-Baxter operator")


def induced_algebra(ctx: OperatorContext, checked: bool = True) -> HomAlgebra:
    """Algebra structure on the carrier induced by the operator:
    ``u o v = act_l(Tu) v + act_r(Tv) u`` per table, twist phi."""
    _gate(ctx, checked, "induced algebra")
    rep, t = ctx.rep, ctx.t
    m = rep.carrier_dim

    def build(left: ActionTensor, right: ActionTensor) -> StructureTensor:
        lefts = [left.at(t.col(i)) for i in range(m)]
        rights = [right.at(t.col(j)) for j in range(m)]
        return StructureTensor.from_function(
            m, lambda i, j: lefts[i].col(j) + rights[j].col(i))

    return HomAlgebra(m, ctx.alg.kind, rep.phi,
                      **{name: build(*rep.action_pair(name)) for name in ctx.alg.tensors()})


def check_morphism_property(ctx: OperatorContext, checked: bool = True) -> CheckReport:
    """T is a morphism from the induced algebra back to the original one."""
    _gate(ctx, checked, "morphism property")
    return check_morphism(ctx.t, induced_algebra(ctx, checked=False), ctx.alg)


def induced_representation(ctx: OperatorContext, checked: bool = True) -> Representation:
    """Back-representation of the induced algebra on the original space:
    for carrier basis u and algebra basis x,

    * new lambda_l(u) x = (Tu) . x - T(lambda_r(x) u)
    * new lambda_r(u) x = x . (Tu) - T(lambda_l(x) u)
    * new rho_l(u) x = [Tu, x] - T(rho_r(x) u)
    * new rho_r(u) x = [x, Tu] - T(rho_l(x) u)

    with carrier twist alpha.
    """
    _gate(ctx, checked, "induced representation")
    alg, rep, t = ctx.alg, ctx.rep, ctx.t
    n, m = alg.dim, rep.carrier_dim

    def family(name: str, left: bool) -> ActionTensor:
        tensor = getattr(alg, name)
        opposite = rep.action_pair(name)[1 if left else 0]
        mats = []
        for u in range(m):
            tu = t.col(u)
            cols = []
            for j in range(n):
                ej = Vector.unit(n, j)
                direct = tensor.product(tu, ej) if left else tensor.product(ej, tu)
                cols.append(direct - t.apply(opposite.mats[j].col(u)))
            mats.append(Matrix.from_cols(cols))
        return ActionTensor(m, n, mats)

    return Representation(alg.kind, m, n, alg.alpha, **paired_families(alg, family))


def projection_context(alg: HomAlgebra, rep: Representation,
                       checked: bool = True) -> OperatorContext:
    """Extend a representation to A + V and project back onto A.

    The extended actions are, for a in A and b + v in A + V:

    * lambda_l(a)(b + v) = a . b + lambda_l(a) v
    * lambda_r(a)(b + v) = lambda_r(a) v
    * rho_l(a)(b + v) = rho_l(a) v
    * rho_r(a)(b + v) = [b, a] + rho_r(a) v

    with carrier twist alpha (+) phi.  For the right Leibniz bracket the
    regular part must sit on the right action: that placement is what the
    representation axioms balance (via the bracket identity on the A
    component), and the checkers confirm it.  T(a + v) = a is then always
    a relative Rota-Baxter operator for this extended representation.
    """
    _require_match(rep, alg)
    if checked:
        require(check_representation(rep, alg),
                "projection context needs a valid representation")
    n, m = alg.dim, rep.carrier_dim

    def family(name: str, left: bool) -> ActionTensor:
        tensor, inner = getattr(alg, name), rep.action_pair(name)[0 if left else 1]
        # The regular part sits on the dot's left and the bracket's right action.
        regular = left == (name == "dot")
        mats = []
        for a in range(n):
            if regular:
                block = Matrix.from_cols([tensor.basis_product(a, j) if left
                                          else tensor.basis_product(j, a)
                                          for j in range(n)])
            else:
                block = Matrix.zero(n, n)
            mats.append(Matrix.block_diag(block, inner.mats[a]))
        return ActionTensor(n, n + m, mats)

    big = Representation(alg.kind, n, n + m, Matrix.block_diag(alg.alpha, rep.phi),
                         **paired_families(alg, family))
    t = Matrix.block([[Matrix.identity(n), Matrix.zero(n, m)]])
    return OperatorContext(alg, big, t)


def check_nijenhuis(alg: HomAlgebra, n: Matrix) -> CheckReport:
    """Nijenhuis test: ``N alpha = alpha N`` and vanishing torsion
    ``mu(Nx, Ny) = N(mu(Nx, y) + mu(x, Ny) - N mu(x, y))`` per table."""
    if not n.is_square() or n.rows != alg.dim:
        raise ShapeError("operator must be square of the algebra dim")
    dim = alg.dim

    def inner(mu, o, w, i, j):
        return sub(add(mu.product(o.cols[i], unit(dim, j)),
                       mu.product(unit(dim, i), o.cols[j])),
                   o.apply(mu.table[i][j]))

    return _self_map_checks(alg, n, "torsion_free", inner)


def nijenhuis_deform(alg: HomAlgebra, n: Matrix, checked: bool = True) -> HomAlgebra:
    """Deform every product by a Nijenhuis operator:
    ``mu_N(x, y) = mu(Nx, y) + mu(x, Ny) - N mu(x, y)``; twist unchanged.
    The operator then becomes a morphism from the deformed algebra to the
    original one."""
    if checked:
        require(check_nijenhuis(alg, n), "deformation needs a Nijenhuis operator")

    def deform(t: StructureTensor) -> StructureTensor:
        def fn(i, j):
            ni, nj = n.col(i), n.col(j)
            ei, ej = Vector.unit(alg.dim, i), Vector.unit(alg.dim, j)
            return (t.product(ni, ej) + t.product(ei, nj)
                    - n.apply(t.basis_product(i, j)))
        return StructureTensor.from_function(alg.dim, fn)

    return HomAlgebra(alg.dim, alg.kind, alg.alpha,
                      **{name: deform(t) for name, t in alg.tensors().items()})


def graph_check(ctx: OperatorContext) -> CheckReport:
    """Is the graph ``{(Tv, v)}`` a subalgebra of the semidirect product?

    Checks stability under the semidirect twist and closure under every
    product, via exact membership solves against the graph basis.  This
    passes exactly when the relative Rota-Baxter check passes.
    """
    sd = semidirect_product(ctx.alg, ctx.rep)
    m = ctx.rep.carrier_dim
    graph_cols = [Vector(tuple(ctx.t.col(i).entries)
                         + tuple(Vector.unit(m, i).entries)) for i in range(m)]
    member = span_membership(graph_cols)
    checks = [scan_membership(
        "graph_twist_stable", ((i,) for i in range(m)),
        lambda i: sd.alpha.apply(graph_cols[i]), member)]
    for name, t in sd.tensors().items():
        checks.append(scan_membership(
            f"graph_closed:{name}", iproduct(range(m), repeat=2),
            lambda i, j, t=t: t.product(graph_cols[i], graph_cols[j]), member))
    return CheckReport(tuple(checks))


def lift_operator(ctx: OperatorContext) -> Matrix:
    """Lift T to the semidirect space as the block map (a + v) -> Tv.

    The lift is a weight-zero Rota-Baxter operator on the semidirect
    product exactly when T is a relative Rota-Baxter operator.
    """
    n, m = ctx.alg.dim, ctx.rep.carrier_dim
    return Matrix.block([[Matrix.zero(n, n), ctx.t],
                         [Matrix.zero(m, n), Matrix.zero(m, m)]])

