"""Rota-Baxter and relative Rota-Baxter operators, the structures they
induce, Nijenhuis operators, and the three operator characterizations
(graph subalgebra, lifted operator, block Nijenhuis operator).

A relative Rota-Baxter operator is a map T from the carrier of a
representation back to the algebra that intertwines the twists and splits
each product through the corresponding action pair.  Weight-zero
Rota-Baxter operators are the special case of the regular representation.

Every operator identity is a morphism check, one walk over the nonzero
entries of the kernel (:func:`homkit.algebra._carries`): the operator carries a
source product onto the target table, the induced product for a relative
Rota-Baxter operator and the deformed one for a Nijenhuis or, with a weight
clause, Rota-Baxter operator, handed over as the operator applied once to
each action column or product, never summed.  A context's relative
Rota-Baxter verdict is computed once and kept for every gate and for
:func:`graph_check`, which reads it: ``(a, v)`` lies in the graph iff ``a = Tv``.

Note on the Rota-Baxter check: besides the weight identity it also
verifies that the operator commutes with the twist.  Without that clause
the equivalences with the relative notion (via the regular representation
and via the lifted operator on the semidirect product) would fail on maps
that satisfy the product identity but not the twist compatibility.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (
    ACTIONS_OF, HomAlgebra, StructureTensor, _carries, _require_square, check_morphism,
)
from .errors import ShapeError
from .kernel import SparseIndex, SparseMap, groups_then_vectors, sum_slice
from .linalg import Matrix, Vector, _Frozen, _put, common_denominator, frac, grouped, sparse
from .representation import (
    ActionTensor, Representation, _paired_index, _require_match, check_representation,
    paired_families, semidirect_product,
)
from .reporting import CheckReport, CheckResult, Witness, require


class OperatorContext(_Frozen):
    """An algebra, a representation of it, and a candidate operator
    T: carrier -> algebra (as an alg.dim x carrier_dim matrix), with the
    relative Rota-Baxter report of the three and the induced algebra,
    each kept once computed.  Contexts made by :meth:`with_operator` share
    one index of all but the operator.  Contexts compare by identity."""

    __slots__ = ("alg", "rep", "t", "_report", "_algebra", "_index")

    def __init__(self, alg: HomAlgebra, rep: Representation, t: Matrix):
        self._set(alg, rep, t, None, None, None)
        _require_match(rep, alg)
        if t.rows != alg.dim or t.cols != rep.carrier_dim:
            raise ShapeError("operator must be alg.dim x carrier_dim")

    def with_operator(self, t: Matrix) -> "OperatorContext":
        """A context for ``t`` on this algebra and representation, sharing one index."""
        if self._index is None:
            _put(self, "_index", _paired_index(self.alg, self.rep))
        ctx = OperatorContext(self.alg, self.rep, t)
        _put(ctx, "_index", self._index)
        return ctx

    def __reduce__(self):
        # The kept report, algebra and index are no fields: a copy computes afresh.
        return OperatorContext, (self.alg, self.rep, self.t)


def _induced(t: SparseMap, left: dict, right: dict, *more) -> dict:
    """``act_l(T e_u) e_v + act_r(T e_v) e_u`` at ``(u, v)``, and the ``more``
    terms, as degree-2 ``sparse`` vectors, from the columns of an action
    pair grouped by base index (``left``) and by column (``right``)."""
    return t.sums(len(t.cols), t.term(1, left, True, False), t.term(1, right, False, True), *more)


def _deformed(a: SparseIndex, o: SparseMap, name: str) -> dict:
    """``mu(O e_u, e_v) + mu(e_u, O e_v) - O mu(e_u, e_v)`` at ``(u, v)`` as degree-2
    ``sparse`` vectors for the table ``name`` of the index ``a`` and a square map ``O``."""
    products = a.by_first[name]
    return _induced(o, products, products,
                    o.term(-1, grouped(o.images(a.parts[name])), False, False))


def _self_map_checks(alg: HomAlgebra, op: Matrix, name: str,
                     weight: Fraction | None = None) -> CheckReport:
    """``op alpha = alpha op``, then per table ``name:<table>`` the identity
    ``mu(op e_i, op e_j) = op(mu(op e_i, e_j) + mu(e_i, op e_j) + c(i, j))``
    on all basis pairs, where ``c`` is ``weight mu`` or, if ``weight`` is
    None, ``-op mu``: ``op``, applied once to each product, carries that onto ``mu``."""
    _require_square(alg, op, "operator")
    a = SparseIndex(alg.alpha, alg.tensors(), weight, op=op)
    d, o = a.d, a.maps["op"]
    w = None if weight is None else weight.numerator * (d // weight.denominator)
    products = []
    for table in a.parts:
        by_u = grouped(o.images(a.parts[table]))  # op mu(e_u, e_v), grouped by u
        clause = (groups_then_vectors(1, by_u, o.cols) if w is None  # -op(c) = op(op mu)
                  else o.term(-w, by_u if w else {}, False, False))  # an empty table adds nothing
        products.append((f"{name}:{table}", a.by_first[table], (
            o.term(-1, by_u, True, False), o.term(-1, by_u, False, True), clause)))
    return _carries(o, d, d, ("twist_commute", a.alpha.cols, a.alpha), products)


def check_rota_baxter(alg: HomAlgebra, r: Matrix, weight) -> CheckReport:
    """Weight-lambda Rota-Baxter test for a self-map, per table:
    ``mu(Rx, Ry) = R(mu(Rx, y) + mu(x, Ry) + weight mu(x, y))``,
    together with twist compatibility ``R alpha = alpha R``."""
    return _self_map_checks(alg, r, "rota_baxter", frac(weight))


def check_relative_rbo(ctx: OperatorContext) -> CheckReport:
    """Relative Rota-Baxter test: ``T phi = alpha T`` plus, per table,
    ``mu(Tu, Tv) = T(act_l(Tu) v + act_r(Tv) u)`` on all carrier pairs;
    computed once per context and kept for its ``checked`` gates.  ``T`` is
    read over its own denominator, applied once to each action column."""
    if ctx._report is not None:
        return ctx._report
    a = ctx._index or _paired_index(ctx.alg, ctx.rep)
    e = ctx.t.stored()[0]
    t = SparseMap(ctx.t, e)
    report = _carries(t, e, a.d, ("intertwines_twist", a.maps["phi"].cols, a.alpha), [
        (f"splits:{name}", a.by_first[name], (
            t.term(-1, grouped(t.images(a.parts[left])), True, False),
            t.term(-1, grouped(t.images(a.parts[right]), 1), False, True)))
        for name, (left, right) in ACTIONS_OF.items() if name in a.parts])
    _put(ctx, "_report", report)
    return report


def _gate(ctx: OperatorContext, checked: bool, what: str) -> None:
    if checked:
        require(check_relative_rbo(ctx), f"{what} needs a relative Rota-Baxter operator")


def induced_algebra(ctx: OperatorContext, checked: bool = True) -> HomAlgebra:
    """Algebra structure on the carrier induced by the operator:
    ``u o v = act_l(Tu) v + act_r(Tv) u`` per table, twist phi; built
    once per context and kept, and returned only past the ``checked`` gate."""
    _gate(ctx, checked, "induced algebra")
    if ctx._algebra is not None:
        return ctx._algebra
    rep, m, tables = ctx.rep, ctx.rep.carrier_dim, ctx.alg.tensors()
    a = SparseIndex(None, rep.actions(), t=ctx.t)
    induced = HomAlgebra(m, ctx.alg.kind, rep.phi, **{
        name: StructureTensor._from_form(m, a.d ** 2, _induced(
            a.maps["t"], a.by_first[left], a.by_second[right]))
        for name, (left, right) in ACTIONS_OF.items() if name in tables})
    _put(ctx, "_algebra", induced)
    return induced


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
    a = SparseIndex(None, {**alg.tensors(), **rep.actions()}, t=t)
    o = a.maps["t"]

    def family(name: str, left: bool) -> ActionTensor:
        # Column x of the u-th matrix: (Tu) . e_x (or e_x . Tu) minus
        # T(opposite(e_x) e_u), from the images of the opposite's columns.
        table = (a.by_first if left else a.by_second)[name]
        opposite = o.images(a.parts[ACTIONS_OF[name][1 if left else 0]])
        return ActionTensor._from_form(m, n, a.d ** 2, o.sums(
            n, o.term(1, table, True, False), o.term(-1, grouped(opposite, 1), False, False)))

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
        inner, table = rep.action_pair(name)[0 if left else 1], getattr(alg, name)
        d = common_denominator(inner, table)
        columns = {(a, n + c): [(n + r, x) for r, x in col]
                   for (a, c), col in sparse(inner, d).items()}
        # The regular part sits on the dot's left and the bracket's right action.
        if left == (name == "dot"):
            columns.update({(i, j) if left else (j, i): v
                            for (i, j), v in sparse(table, d).items()})
        return ActionTensor._from_form(n, n + m, d, columns)

    big = Representation(alg.kind, n, n + m, Matrix.block_diag(alg.alpha, rep.phi),
                         **paired_families(alg, family))
    t = Matrix._from_form(n, n + m, 1, {i: [(i, 1)] for i in range(n)})  # a -> a, v -> 0
    return OperatorContext(alg, big, t)


def check_nijenhuis(alg: HomAlgebra, n: Matrix) -> CheckReport:
    """Nijenhuis test: ``N alpha = alpha N`` and vanishing torsion
    ``mu(Nx, Ny) = N(mu(Nx, y) + mu(x, Ny) - N mu(x, y))`` per table."""
    return _self_map_checks(alg, n, "torsion_free")


def nijenhuis_deform(alg: HomAlgebra, n: Matrix, checked: bool = True) -> HomAlgebra:
    """Deform every product by a Nijenhuis operator:
    ``mu_N(x, y) = mu(Nx, y) + mu(x, Ny) - N mu(x, y)``; twist unchanged.
    The operator then becomes a morphism from the deformed algebra to the
    original one."""
    _require_square(alg, n, "operator")
    if checked:
        require(check_nijenhuis(alg, n), "deformation needs a Nijenhuis operator")
    dim, a = alg.dim, SparseIndex(None, alg.tensors(), n=n)
    return HomAlgebra(dim, alg.kind, alg.alpha, **{
        name: StructureTensor._from_form(dim, a.d ** 2, _deformed(a, a.maps["n"], name))
        for name in a.parts})


def _graph_value(sd: HomAlgebra, graph: Matrix, check: str, at: tuple[int, ...]) -> Vector:
    """The value a failing ``check`` at ``at`` leaves outside the graph, in the semidirect
    product ``sd`` with the graph columns ``g_i = (T e_i, e_i)``: the twist of ``g_i``,
    or the product of ``g_i`` and ``g_j``."""
    name = check.partition(":")[2]
    if not name:
        return (sd.alpha @ graph).col(at[0])
    a, acc = SparseIndex(None, {name: getattr(sd, name)}, graph=graph), {}
    sum_slice(acc, sd.dim, at[0], [a.maps["graph"].term(1, a.by_first[name])])  # over d**3
    return Vector(Fraction(x, a.d ** 3) for x in acc[at])


def graph_check(ctx: OperatorContext) -> CheckReport:
    """Is the graph ``{(Tv, v)}`` a subalgebra of the semidirect product?  ``(a, v)``
    lies in it iff ``a = Tv``, so each check is :func:`check_relative_rbo`'s, renamed,
    with the offending value (:func:`_graph_value`) as its witness residual."""
    report, checks = check_relative_rbo(ctx), []
    # The semidirect product and the graph columns, built once if a check fails.
    graph = () if report.passed else (semidirect_product(ctx.alg, ctx.rep), Matrix.block(
        [[ctx.t], [Matrix.identity(ctx.rep.carrier_dim)]]))
    for c in report:
        name = c.identity.replace("intertwines_twist", "graph_twist_stable")
        at = c.witness and c.witness.indices
        checks.append(CheckResult(name.replace("splits:", "graph_closed:"), c.passed,
                                  at and Witness(at, _graph_value(*graph, c.identity, at))))
    return CheckReport(tuple(checks))


def lift_operator(ctx: OperatorContext) -> Matrix:
    """Lift T to the semidirect space as the block map (a + v) -> Tv.

    The lift is a weight-zero Rota-Baxter operator on the semidirect
    product exactly when T is a relative Rota-Baxter operator.
    """
    n, m = ctx.alg.dim, ctx.rep.carrier_dim
    return Matrix.block([[Matrix.zero(n, n), ctx.t],
                         [Matrix.zero(m, n), Matrix.zero(m, m)]])

