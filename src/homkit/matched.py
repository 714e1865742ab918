"""Matched pairs of Hom-algebras and the bicrossed sum on A1 + A2.

A matched pair is two algebras of the same kind acting on each other; the
cross-compatibility conditions below are exactly what makes the bicrossed
product on the direct sum an algebra of the same kind again (given that
both cross actions are representations and both constituents pass their
own checks).  Each direction is one :class:`homkit.kernel.SparseIndex`,
read by its representation axioms and by the cross conditions.  The sum
is the semidirect product's builder, ``representation._direct_sum``.
"""

from __future__ import annotations

from .algebra import POISSON, HomAlgebra, _GROUPS, check_algebra
from .errors import KindMismatchError, ShapeError
from .kernel import SparseIndex, row_term, walk
from .linalg import _Frozen
from .representation import Representation, _axioms, _direct_sum, _require_match
from .reporting import CheckReport, concat, require, scan_identity


class MatchedPair(_Frozen):
    """Two same-kind algebras with cross actions on each other.

    ``actions_1_on_2`` is a representation of ``a1`` on ``a2``'s space and
    must carry ``a2.alpha`` as its twist (and symmetrically), because the
    bicrossed sum twists by alpha1 (+) alpha2.  Pairs compare by identity.
    """

    __slots__ = ("a1", "a2", "actions_1_on_2", "actions_2_on_1")

    def __init__(self, a1: HomAlgebra, a2: HomAlgebra, actions_1_on_2: Representation,
                 actions_2_on_1: Representation):
        self._set(a1, a2, actions_1_on_2, actions_2_on_1)
        if a1.kind != a2.kind:
            raise KindMismatchError("matched pair needs algebras of one kind")
        for rep, base, carrier in ((actions_1_on_2, a1, a2), (actions_2_on_1, a2, a1)):
            _require_match(rep, base)
            if rep.carrier_dim != carrier.dim:
                raise ShapeError("cross action dimensions are inconsistent")
            if rep.phi != carrier.alpha:
                raise ShapeError(
                    "cross action twist must equal the carrier algebra's twist")


# The cross conditions of A acting on B at (x, u, v), x in A, as rows of
# :func:`homkit.kernel.row_term`: first a family of A on B, then a table of B
# or a family of B on A.  Each group's order numbers its templates for A1
# acting on A2 (``p``) and for A2 acting on A1 (``q``).
_CROSS = {
    "dot": ("assoc", "p1 p2 q1 q2 p3 q3", (
        ((1, "lambda_l", "dot"), (-1, "lambda_l", "lambda_r", 0),
         (-1, "lambda_l", "dot", 0, 1)),
        ((1, "lambda_r", "dot"), (-1, "lambda_r", "lambda_l", 1),
         (-1, "lambda_r", "dot", 1, 0)),
        ((1, "lambda_l", "lambda_l", 0), (1, "lambda_r", "dot", 0, 1),
         (-1, "lambda_r", "lambda_r", 1), (-1, "lambda_l", "dot", 1, 0)),
    )),
    "bracket": ("leibniz", "p1 p2 p3 q1 q2 q3", (
        ((1, "rho_r", "bracket"), (-1, "rho_r", "bracket", 1, 0),
         (-1, "rho_r", "bracket", 0, 1), (-1, "rho_r", "rho_l", 1), (-1, "rho_l", "rho_l", 0)),
        ((1, "rho_l", "bracket"), (-1, "rho_l", "bracket", 0, 1),
         (1, "rho_l", "bracket", 1, 1), (-1, "rho_l", "rho_r", 0), (1, "rho_l", "rho_r", 1)),
        ((1, "rho_r", "bracket"), (-1, "rho_r", "bracket", 0, 1),
         (1, "rho_l", "bracket", 1, 0), (-1, "rho_l", "rho_l", 0), (1, "rho_r", "rho_r", 1)),
    )),
    POISSON: ("poisson", "q1 q2 p1 p2 q3 p3", (
        ((1, "lambda_l", "bracket"), (1, "rho_l", "dot", 1, 1), (1, "lambda_l", "rho_r", 1),
         (-1, "lambda_l", "bracket", 0, 1), (-1, "rho_l", "lambda_r", 0)),
        ((1, "lambda_r", "bracket"), (1, "rho_l", "dot", 1, 0), (1, "lambda_r", "rho_r", 1),
         (-1, "lambda_r", "bracket", 0, 1), (-1, "rho_l", "lambda_l", 0)),
        ((1, "rho_r", "dot"), (-1, "rho_r", "dot", 1, 0), (-1, "lambda_r", "rho_l", 1),
         (-1, "rho_r", "dot", 0, 1), (-1, "lambda_l", "rho_l", 0)),
    )),
}


def _directions(mp: MatchedPair) -> tuple:
    """A1 acting on A2 and back, each the index of a base algebra and its
    families with their carrier twist named ``phi``, over the pair's common
    denominator."""
    a1, a2, r12, r21 = mp.a1, mp.a2, mp.actions_1_on_2, mp.actions_2_on_1
    one, two = {**a1.tensors(), **r12.actions()}, {**a2.tensors(), **r21.actions()}
    return (SparseIndex(a1.alpha, one, *two.values(), phi=r12.phi),
            SparseIndex(a2.alpha, two, *one.values(), phi=r21.phi))


def _cross_conditions(kind: str, p: SparseIndex, q: SparseIndex) -> list:
    """Every cross condition of the pair's ``kind``, group by group, each
    summed over the nonzero entries of both directions (:func:`_directions`)."""
    checks = []
    for group in _GROUPS[kind]:
        name, order, templates = _CROSS[group]
        for k, (view, t) in enumerate(order.split(), 1):
            act, back = (p, q) if view == "p" else (q, p)
            terms = [row_term(act, back, *row) for row in templates[int(t) - 1]]
            width, count = len(act.maps["phi"].cols), len(act.alpha.rows)
            checks.append(scan_identity(f"cross:{name}:{k}", *walk(width, count, terms),
                                        denominator=act.d ** 3))
    return checks


def check_matched_pair(mp: MatchedPair) -> CheckReport:
    """Verify everything the bicrossed sum theorem needs.

    Both cross actions must pass their representation axioms (raised as a
    precondition failure otherwise).  The report then contains each
    constituent algebra's own checks followed by the kind's
    cross-compatibility conditions, each summed over the nonzero entries
    only; a passing report guarantees that :func:`matched_sum` passes the
    kind's algebra checks.  Axioms and cross conditions read one index.
    """
    kind, (p, q) = mp.a1.kind, _directions(mp)
    require(_axioms(p, _GROUPS[kind]), "actions_1_on_2 is not a representation")
    require(_axioms(q, _GROUPS[kind]), "actions_2_on_1 is not a representation")
    return concat(check_algebra(mp.a1).prefixed("algebra1:"),
                  check_algebra(mp.a2).prefixed("algebra2:"),
                  CheckReport(tuple(_cross_conditions(kind, p, q))))


def matched_sum(mp: MatchedPair) -> HomAlgebra:
    """Bicrossed product on A1 + A2.

    The construction is total; whether the result satisfies the kind's
    axioms is decided by the checkers.  Basis order: A1 basis, then A2.
    """
    a2 = mp.a2
    return _direct_sum(mp.a1, a2.dim, a2.alpha, mp.actions_1_on_2, a2, mp.actions_2_on_1)
