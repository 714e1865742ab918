"""Matched pairs of Hom-algebras and the bicrossed sum on A1 + A2.

A matched pair is two algebras of the same kind acting on each other; the
cross-compatibility conditions below are exactly what makes the bicrossed
product on the direct sum an algebra of the same kind again (given that
both cross actions are representations and both constituents pass their
own checks).

For the associative kind two published variants of the condition set are
in circulation, differing in one term; the default "corrected" set is the
one derived by expanding the twisted associator of the bicrossed product,
and it is the set under which the sum theorem holds.  The "printed"
variant is kept behind a switch for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .algebra import (
    ASSOCIATIVE, LEIBNIZ, POISSON, HomAlgebra, StructureTensor, check_algebra,
)
from .errors import KindMismatchError, ShapeError
from .kernel import (
    IntAction, IntTensor, add, common_denominator, mat_vec, scale, sub, times,
)
from .linalg import _ZERO, Matrix, Vector
from .representation import Representation, _require_match, check_representation
from .reporting import CheckReport, concat, require, scan_identity


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class MatchedPair:
    """Two same-kind algebras with cross actions on each other.

    ``actions_1_on_2`` is a representation of ``a1`` on ``a2``'s space and
    must carry ``a2.alpha`` as its twist (and symmetrically), because the
    bicrossed sum twists by alpha1 (+) alpha2.
    """

    a1: HomAlgebra
    a2: HomAlgebra
    actions_1_on_2: Representation
    actions_2_on_1: Representation

    def __post_init__(self):
        if self.a1.kind != self.a2.kind:
            raise KindMismatchError("matched pair needs algebras of one kind")
        for rep, base, carrier in ((self.actions_1_on_2, self.a1, self.a2),
                                   (self.actions_2_on_1, self.a2, self.a1)):
            _require_match(rep, base)
            if rep.carrier_dim != carrier.dim:
                raise ShapeError("cross action dimensions are inconsistent")
            if rep.phi != carrier.alpha:
                raise ShapeError(
                    "cross action twist must equal the carrier algebra's twist")


class _IntPair:
    """A matched pair's twists, tables and cross actions over their common
    denominator ``d``; every cross condition but the printed variant of
    ``cross:assoc:3`` has degree 3 in them."""

    __slots__ = ("d", "n1", "n2", "al1", "al2", "t1", "t2", "act12", "act21")

    def __init__(self, mp: MatchedPair):
        a1, a2 = mp.a1, mp.a2
        r12, r21 = mp.actions_1_on_2.actions(), mp.actions_2_on_1.actions()
        d = common_denominator(a1.alpha, a2.alpha, *a1.tensors().values(),
                               *a2.tensors().values(), *r12.values(), *r21.values())
        self.d, self.n1, self.n2 = d, a1.dim, a2.dim
        self.al1, self.al2 = ([scale(col, d) for col in zip(*a.alpha.entries)]
                              for a in (a1, a2))
        self.t1 = {name: IntTensor(t, d) for name, t in a1.tensors().items()}
        self.t2 = {name: IntTensor(t, d) for name, t in a2.tensors().items()}
        self.act12 = {name: IntAction(t, d) for name, t in r12.items()}
        self.act21 = {name: IntAction(t, d) for name, t in r21.items()}

    def swapped(self) -> "_IntPair":
        """The same pair seen from A2: every 1 and 2 exchanged."""
        q = object.__new__(_IntPair)
        q.d, q.n1, q.n2, q.al1, q.al2 = self.d, self.n2, self.n1, self.al2, self.al1
        q.t1, q.t2, q.act12, q.act21 = self.t2, self.t1, self.act21, self.act12
        return q

    def triples(self):
        """Index tuples ``(x, u, v)`` with x in A1 and u, v in A2."""
        return iproduct(range(self.n1), range(self.n2), range(self.n2))


def _scan(name: str, indices, residual, d: int, degree: int = 3):
    return scan_identity(name, indices, residual, denominator=d ** degree)


def _cross_conditions_associative(p: _IntPair, printed: bool) -> list:
    """Six conditions coupling the dot products with the lambda actions.

    Each lambda below is the linear extension of the action family; x, y
    range over a basis of A1 and u, v over a basis of A2.
    """
    n1, n2, d = p.n1, p.n2, p.d
    dot1, dot2 = p.t1["dot"], p.t2["dot"]
    al1, al2 = p.al1, p.al2
    l1l, l1r = p.act12["lambda_l"], p.act12["lambda_r"]
    l2l, l2r = p.act21["lambda_l"], p.act21["lambda_r"]

    checks = []
    # lambda1_l(alpha1 x)(u * v) = lambda1_l(lambda2_r(u) x)(alpha2 v)
    #                              + (lambda1_l(x) u) * (alpha2 v)
    checks.append(_scan(
        "cross:assoc:1", iproduct(range(n1), range(n2), range(n2)),
        lambda x, u, v: sub(sub(mat_vec(l1l.at(al1[x]), dot2.table[u][v]),
                                mat_vec(l1l.at(l2r.cols[u][x]), al2[v])),
                            dot2.product(l1l.cols[x][u], al2[v])), d))
    # lambda1_r(alpha1 x)(u * v) = lambda1_r(lambda2_l(v) x)(alpha2 u)
    #                              + (alpha2 u) * (lambda1_r(x) v)
    checks.append(_scan(
        "cross:assoc:2", iproduct(range(n1), range(n2), range(n2)),
        lambda x, u, v: sub(sub(mat_vec(l1r.at(al1[x]), dot2.table[u][v]),
                                mat_vec(l1r.at(l2l.cols[v][x]), al2[u])),
                            dot2.product(al2[u], l1r.cols[x][v])), d))

    # lambda2_l(alpha2 u)(x * y) = lambda2_l(lambda1_r(x) u)(alpha1 y) + T3
    # where T3 is (lambda2_l(u) x) * (alpha1 y) in the corrected set and
    # (lambda2_l(alpha2 u) x) * (alpha1 y) in the printed one.  The printed
    # T3 has degree 4, so the other two terms are lifted by one factor d.
    if printed:
        lift, degree = d, 4

        def third(u, x):
            return [row[x] for row in l2l.at(al2[u])]
    else:
        lift, degree = 1, 3

        def third(u, x):
            return l2l.cols[u][x]
    checks.append(_scan(
        "cross:assoc:3", iproduct(range(n2), range(n1), range(n1)),
        lambda u, x, y: sub(times(lift, sub(
            mat_vec(l2l.at(al2[u]), dot1.table[x][y]),
            mat_vec(l2l.at(l1r.cols[x][u]), al1[y]))),
            dot1.product(third(u, x), al1[y])), d, degree))
    # lambda2_r(alpha2 u)(x * y) = lambda2_r(lambda1_l(y) u)(alpha1 x)
    #                              + (alpha1 x) * (lambda2_r(u) y)
    checks.append(_scan(
        "cross:assoc:4", iproduct(range(n2), range(n1), range(n1)),
        lambda u, x, y: sub(sub(mat_vec(l2r.at(al2[u]), dot1.table[x][y]),
                                mat_vec(l2r.at(l1l.cols[y][u]), al1[x])),
                            dot1.product(al1[x], l2r.cols[u][y])), d))
    # lambda1_l(lambda2_l(u) x)(alpha2 v) + (lambda1_r(x) u) * (alpha2 v)
    #   - lambda1_r(lambda2_r(v) x)(alpha2 u) - (alpha2 u) * (lambda1_l(x) v) = 0
    checks.append(_scan(
        "cross:assoc:5", iproduct(range(n1), range(n2), range(n2)),
        lambda x, u, v: sub(sub(add(mat_vec(l1l.at(l2l.cols[u][x]), al2[v]),
                                    dot2.product(l1r.cols[x][u], al2[v])),
                                mat_vec(l1r.at(l2r.cols[v][x]), al2[u])),
                            dot2.product(al2[u], l1l.cols[x][v])), d))
    # lambda2_l(lambda1_l(x) u)(alpha1 y) + (lambda2_r(u) x) * (alpha1 y)
    #   - lambda2_r(lambda1_r(y) u)(alpha1 x) - (alpha1 x) * (lambda2_l(u) y) = 0
    checks.append(_scan(
        "cross:assoc:6", iproduct(range(n2), range(n1), range(n1)),
        lambda u, x, y: sub(sub(add(mat_vec(l2l.at(l1l.cols[x][u]), al1[y]),
                                    dot1.product(l2r.cols[u][x], al1[y])),
                                mat_vec(l2r.at(l1r.cols[y][u]), al1[x])),
                            dot1.product(al1[x], l2l.cols[u][y])), d))
    return checks


def _leibniz_residuals(q: _IntPair) -> list:
    """Three conditions coupling the brackets with the rho actions, with
    x in A1 acting on u, v in A2."""
    br2, al1, al2 = q.t2["bracket"], q.al1, q.al2
    r1l, r1r = q.act12["rho_l"], q.act12["rho_r"]
    r2l, r2r = q.act21["rho_l"], q.act21["rho_r"]
    return [
        lambda x, u, v: sub(sub(sub(sub(
            mat_vec(r1r.at(al1[x]), br2.table[u][v]),
            br2.product(al2[u], r1r.cols[x][v])),
            br2.product(r1r.cols[x][u], al2[v])),
            mat_vec(r1r.at(r2l.cols[v][x]), al2[u])),
            mat_vec(r1l.at(r2l.cols[u][x]), al2[v])),
        lambda x, u, v: add(sub(add(sub(
            mat_vec(r1l.at(al1[x]), br2.table[u][v]),
            br2.product(r1l.cols[x][u], al2[v])),
            br2.product(r1l.cols[x][v], al2[u])),
            mat_vec(r1l.at(r2r.cols[u][x]), al2[v])),
            mat_vec(r1l.at(r2r.cols[v][x]), al2[u])),
        lambda x, u, v: add(sub(add(sub(
            mat_vec(r1r.at(al1[x]), br2.table[u][v]),
            br2.product(r1r.cols[x][u], al2[v])),
            br2.product(al2[u], r1l.cols[x][v])),
            mat_vec(r1l.at(r2l.cols[u][x]), al2[v])),
            mat_vec(r1r.at(r2r.cols[v][x]), al2[u])),
    ]


def _poisson_residuals(q: _IntPair) -> list:
    """Three mixed conditions coupling dot products with bracket actions,
    with x in A1 acting on u, v in A2."""
    dot2, br2, al1, al2 = q.t2["dot"], q.t2["bracket"], q.al1, q.al2
    l1l, l1r, r1l, r1r = (q.act12[a] for a in ("lambda_l", "lambda_r", "rho_l", "rho_r"))
    l2l, l2r, r2l, r2r = (q.act21[a] for a in ("lambda_l", "lambda_r", "rho_l", "rho_r"))
    return [
        lambda x, u, v: sub(sub(add(add(
            mat_vec(l1l.at(al1[x]), br2.table[u][v]),
            dot2.product(r1l.cols[x][v], al2[u])),
            mat_vec(l1l.at(r2r.cols[v][x]), al2[u])),
            br2.product(l1l.cols[x][u], al2[v])),
            mat_vec(r1l.at(l2r.cols[u][x]), al2[v])),
        lambda x, u, v: sub(sub(add(add(
            mat_vec(l1r.at(al1[x]), br2.table[u][v]),
            dot2.product(al2[u], r1l.cols[x][v])),
            mat_vec(l1r.at(r2r.cols[v][x]), al2[u])),
            br2.product(l1r.cols[x][u], al2[v])),
            mat_vec(r1l.at(l2l.cols[u][x]), al2[v])),
        lambda x, u, v: sub(sub(sub(sub(
            mat_vec(r1r.at(al1[x]), dot2.table[u][v]),
            dot2.product(al2[u], r1r.cols[x][v])),
            mat_vec(l1r.at(r2l.cols[v][x]), al2[u])),
            dot2.product(r1r.cols[x][u], al2[v])),
            mat_vec(l1l.at(r2l.cols[u][x]), al2[v])),
    ]


def _scan_views(kind: str, order: list, d: int) -> list:
    """Scan ``cross:<kind>:1``, ``:2``, ... for each ``(view, residual)``
    in ``order``, over the view's index triples."""
    return [_scan(f"cross:{kind}:{k}", view.triples(), residual, d)
            for k, (view, residual) in enumerate(order, 1)]


def _cross_conditions_leibniz(p: _IntPair) -> list:
    """The three Leibniz conditions for A1 acting on A2 (1-3), then the
    same three for A2 acting on A1 (4-6)."""
    order = [(view, r) for view in (p, p.swapped()) for r in _leibniz_residuals(view)]
    return _scan_views("leibniz", order, p.d)


def _cross_conditions_poisson(p: _IntPair) -> list:
    """The three Poisson conditions for A2 acting on A1 (numbered 1, 2
    and 5) and for A1 acting on A2 (3, 4 and 6)."""
    q = p.swapped()
    (a, b, c), (a2, b2, c2) = _poisson_residuals(p), _poisson_residuals(q)
    return _scan_views("poisson", [(q, a2), (q, b2), (p, a), (p, b), (q, c2), (p, c)], p.d)


def check_matched_pair(mp: MatchedPair,
                       associative_conditions: str = "corrected") -> CheckReport:
    """Verify everything the bicrossed sum theorem needs.

    Both cross actions must pass their representation axioms (raised as a
    precondition failure otherwise).  The report then contains each
    constituent algebra's own checks followed by the kind's
    cross-compatibility conditions on all basis tuples; a passing report
    guarantees that :func:`matched_sum` passes the kind's algebra checks.
    """
    if associative_conditions not in ("corrected", "printed"):
        raise ValueError("associative_conditions must be 'corrected' or 'printed'")
    for rep, base, label in ((mp.actions_1_on_2, mp.a1, "actions_1_on_2"),
                             (mp.actions_2_on_1, mp.a2, "actions_2_on_1")):
        require(check_representation(rep, base), f"{label} is not a representation")
    reports = [check_algebra(mp.a1).prefixed("algebra1:"),
               check_algebra(mp.a2).prefixed("algebra2:")]
    pair = _IntPair(mp)
    checks = []
    if mp.a1.kind in (ASSOCIATIVE, POISSON):
        checks.extend(_cross_conditions_associative(
            pair, printed=associative_conditions == "printed"))
    if mp.a1.kind in (LEIBNIZ, POISSON):
        checks.extend(_cross_conditions_leibniz(pair))
    if mp.a1.kind == POISSON:
        checks.extend(_cross_conditions_poisson(pair))
    reports.append(CheckReport(tuple(checks)))
    return concat(*reports)


def matched_sum(mp: MatchedPair) -> HomAlgebra:
    """Bicrossed product on A1 + A2.

    The construction is total; whether the result satisfies the kind's
    axioms is decided by the checkers.  Basis order: A1 basis, then A2.
    """
    a1, a2 = mp.a1, mp.a2
    n1, n2 = a1.dim, a2.dim
    total = n1 + n2
    zeros1, zeros2 = (_ZERO,) * n1, (_ZERO,) * n2

    def build(name: str) -> StructureTensor:
        t1, t2 = getattr(a1, name), getattr(a2, name)
        act12_l, act12_r = mp.actions_1_on_2.action_pair(name)
        act21_l, act21_r = mp.actions_2_on_1.action_pair(name)
        products = {key: Vector(v.entries + zeros2) for key, v in t1.products.items()}
        products.update({(n1 + i, n1 + j): Vector(zeros1 + v.entries)
                         for (i, j), v in t2.products.items()})
        # A mixed product has an A1 part and an A2 part: [A1 column, A2 column].
        mixed: dict[tuple[int, int], list] = {}
        for v, x, col in act21_r.columns():  # x in A1, v in A2: lambda2_r(v) x
            mixed.setdefault((x, n1 + v), [zeros1, zeros2])[0] = col
        for x, v, col in act12_l.columns():  # ... + lambda1_l(x) v
            mixed.setdefault((x, n1 + v), [zeros1, zeros2])[1] = col
        for u, y, col in act21_l.columns():  # u in A2, y in A1: lambda2_l(u) y
            mixed.setdefault((n1 + u, y), [zeros1, zeros2])[0] = col
        for y, u, col in act12_r.columns():  # ... + lambda1_r(y) u
            mixed.setdefault((n1 + u, y), [zeros1, zeros2])[1] = col
        products.update({key: Vector(part1 + part2) for key, (part1, part2) in mixed.items()})
        return StructureTensor.from_products(total, products)

    alpha = Matrix.block_diag(a1.alpha, a2.alpha)
    return HomAlgebra(total, a1.kind, alpha, **{name: build(name) for name in a1.tensors()})
