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
    Accumulator, IntAction, IntMatrix, IntTensor, add, common_denominator, scale,
    sparse, sub, times, unit,
)
from .linalg import _ZERO, Matrix, Vector, frac, span_membership
from .representation import (
    ActionTensor, Representation, _require_match, check_representation,
    paired_families, pulled_back, semidirect_product,
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


def _require_square(alg: HomAlgebra, op: Matrix) -> None:
    if not op.is_square() or op.rows != alg.dim:
        raise ShapeError("operator must be square of the algebra dim")


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
    _require_square(alg, r)
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
    rep, m = ctx.rep, ctx.rep.carrier_dim
    d = common_denominator(ctx.t, *rep.actions().values())
    t_rows = [sparse(row, d) for row in ctx.t.entries]

    def build(left: ActionTensor, right: ActionTensor) -> StructureTensor:
        # act_l(Tu) e_c = sum_k T[k][u] act_l(e_k) e_c, and alike on the right.
        acc = Accumulator(m)
        for k, c, col in left.columns():
            terms = sparse(col, d)
            for u, x in t_rows[k]:
                acc.add((u, c), x, terms)
        for k, c, col in right.columns():
            terms = sparse(col, d)
            for v, x in t_rows[k]:
                acc.add((c, v), x, terms)
        return StructureTensor.from_products(m, acc.rationals(d * d))

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
    d = common_denominator(t, *alg.tensors().values(), *rep.actions().values())
    t_rows = [sparse(row, d) for row in t.entries]
    t_cols = [sparse(col, d) for col in zip(*t.entries)]

    def family(name: str, left: bool) -> ActionTensor:
        # Column x of the u-th matrix: (Tu) . e_x (or e_x . Tu) pulled back
        # along T, minus T(opposite(e_x) e_u) = sum_r opposite(e_x)[r][u] T e_r.
        acc = pulled_back(getattr(alg, name), t_rows, d, left)
        opposite = rep.action_pair(name)[1 if left else 0]
        for x, u, col in opposite.columns():
            for r, c in sparse(col, d):
                acc.add((u, x), -c, t_cols[r])
        return ActionTensor.from_columns(m, n, acc.rationals(d * d))

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
    zeros_a, zeros_v = (_ZERO,) * n, (_ZERO,) * m

    def family(name: str, left: bool) -> ActionTensor:
        inner = rep.action_pair(name)[0 if left else 1]
        columns = {(a, n + c): zeros_a + col for a, c, col in inner.columns()}
        # The regular part sits on the dot's left and the bracket's right action.
        if left == (name == "dot"):
            columns.update({(i, j) if left else (j, i): v.entries + zeros_v
                            for (i, j), v in getattr(alg, name).products.items()})
        return ActionTensor.from_columns(n, n + m, columns)

    big = Representation(alg.kind, n, n + m, Matrix.block_diag(alg.alpha, rep.phi),
                         **paired_families(alg, family))
    t = Matrix([row + zeros_v for row in Matrix.identity(n).entries], n, n + m)
    return OperatorContext(alg, big, t)


def check_nijenhuis(alg: HomAlgebra, n: Matrix) -> CheckReport:
    """Nijenhuis test: ``N alpha = alpha N`` and vanishing torsion
    ``mu(Nx, Ny) = N(mu(Nx, y) + mu(x, Ny) - N mu(x, y))`` per table."""
    _require_square(alg, n)
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
    _require_square(alg, n)
    if checked:
        require(check_nijenhuis(alg, n), "deformation needs a Nijenhuis operator")
    dim = alg.dim
    d = common_denominator(n, *alg.tensors().values())
    n_rows = [sparse(row, d) for row in n.entries]
    n_cols = [sparse(col, d) for col in zip(*n.entries)]

    def deform(t: StructureTensor) -> StructureTensor:
        # Three sums over the nonzero products mu(e_k, e_l) = v:
        # mu(N e_i, e_l) gets N[k][i] v, mu(e_k, N e_j) gets N[l][j] v,
        # and N mu(e_k, e_l) is sum_s v_s N e_s.
        acc = Accumulator(dim)
        for (k, l), v in t.products.items():
            terms = sparse(v.entries, d)
            for i, x in n_rows[k]:
                acc.add((i, l), x, terms)
            for j, x in n_rows[l]:
                acc.add((k, j), x, terms)
            for s, x in terms:
                acc.add((k, l), -x, n_cols[s])
        return StructureTensor.from_products(dim, acc.rationals(d * d))

    return HomAlgebra(dim, alg.kind, alg.alpha,
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

