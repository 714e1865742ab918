"""Reference implementations of every identity checker, kept for the
differential tests in ``test_kernel.py``, and of the solver's arithmetic,
kept for those in ``test_solver_kernel.py``.

These are the checkers as they were written before the integer kernel:
each residual is evaluated with ``Fraction`` vectors and matrices through
``StructureTensor.product``, ``ActionTensor.at`` and ``Matrix`` arithmetic,
and scanned by the ``Vector``-returning scans below.  The package's own
checkers must give ``==`` reports: the same names, pass flags, witness
tuples and exact residual vectors.

The solver's ``Polynomial``, ``generate_constraints`` and ``_rref`` are
the versions written before the one-accumulator arithmetic: every ``+``,
``scale`` and ``*`` goes through the normalising constructor, and
``_rref`` works on dense rows.  Its stages (``_solve_linear_part``,
``eliminate_linear``, ``_reduce`` with its rules and ``rational_sqrt``,
and ``solve``) are the ``Fraction`` versions from before the solver kept
ints over one denominator: they eliminate on dense rows through ``_rref``
and substitute into every equation, the solved linear ones too.  Run
together, they are the reference pipeline: the package must render the
same systems and reach the same eliminations and solution sets.
``solve_linear`` and ``kernel_basis`` are as they were before they
eliminated a matrix's stored ints: on its dense ``Fraction`` rows,
through ``_rref``.  ``span_membership`` is the dense membership test the
package had before its family comparison cleared stored ints at an
``_echelon``: it reduces the span once and clears each query against the
reduced rows.  It runs on the ``_rref`` here, so no reference in this
module calls the package's elimination, and it is the reference behind
``check_ideal``, ``graph_check`` and ``_family_contains``.

``_tokenize`` is the DSL tokenizer that matched one token kind at a time
with its own regex, and ``parse`` the parser that read its tokens one at
a time, each with its line and column, and summed ``Fraction``
coefficients into per-column vectors; the package's must return equal
documents and raise the same ``ParseError`` messages at the same lines
and columns.

``matrix_eq``, ``matrix_hash``, ``tensor_eq`` and ``tensor_hash`` are
``Matrix`` and ``StructureTensor`` equality and hashing as they were when
both kept dense ``Fraction`` entries: they compare the ``entries`` rows
and the ``products`` vectors, where the package compares the stored ints.

The constructions at the end (induced algebra and representation,
projection context, Nijenhuis deformation, Yau twist, regular and
pullback representations, and the matrix product) are the dense
``Fraction`` versions that built every basis pair, before they summed
over nonzero entries in kernel integers; their gates run the reference
checkers above.  The package must build ``==`` structures and refuse the
same inputs, for ``test_constructions.py``.

``check_ideal``, ``graph_check`` and ``ideal_representation`` at the very
end are the membership checks as they were before they read the sparse
index: each value is a dense ``Fraction`` product (``StructureTensor.product``,
``Matrix.apply``), tested against the span by ``span_membership``
(``scan_membership``), and each coordinate is one ``solve_linear``.  The
package's must give ``==`` reports and representations and raise the same
errors, for ``test_linalg.py``.

``twisted``, after them, is ``kernel.SparseIndex.twisted`` as it was
before the index merged the sparse parts: every twisted product summed in
a dense list and converted back.  The index's tables must hold the same
keys in the same order and the same vectors, empty ones included, for
``test_kernel.py``.  ``phi_columns`` is ``kernel.SparseIndex.phi_columns``
as a dense product: each matrix of the family (``ActionTensor.mats``)
times ``phi`` (``Matrix @``), read column by column.

``semidirect_product`` and ``matched_sum`` are the two direct sums as they
were before one builder wrote both: each keys its own tables over one
common denominator, the semidirect product with no second algebra.  The
package's must build ``==`` algebras, for ``test_constructions.py``.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from itertools import product as iproduct
from fractions import Fraction
from math import isqrt
from typing import Callable, Iterable, Mapping, Sequence

from homkit.algebra import (
    ACTIONS_OF, ASSOCIATIVE, LEIBNIZ, POISSON, TENSORS_BY_KIND, HomAlgebra,
    StructureTensor,
)
from homkit.dsl import (
    _BASIS_RE, _TABLE_OF, KIND_NAMES, KIND_TOKENS, DocAlgebra, DocMap,
    DocRepresentation, Document,
)
from homkit.errors import (
    KindMismatchError, ParseError, PreconditionError, ShapeError, SoundnessError,
)
from homkit.kernel import SparseIndex
from homkit.linalg import (
    _ZERO, AffineSolution, Matrix, Vector, common_denominator, frac, grouped, sparse,
)
from homkit.matched import MatchedPair
from homkit.operators import OperatorContext
from homkit.reporting import CheckReport, CheckResult, Witness, concat, require
from homkit.representation import (
    ActionTensor, Representation, _require_match, paired_families,
)
from homkit.solver import (
    AffineFamily, Elimination, Monomial, PolySystem, SolutionSet, _Leaf,
)


# ---- from homkit/reporting.py --------------------------------------


def scan_identity(name: str, indices: Iterable[tuple[int, ...]],
                  residual: Callable[..., Vector]) -> CheckResult:
    """Evaluate ``residual`` on every index tuple; record the first failure.

    The scan order of ``indices`` must be lexicographic so that reported
    witnesses are deterministic.
    """
    for idx in indices:
        r = residual(*idx)
        if not r.is_zero():
            return CheckResult(name, False, Witness(tuple(idx), r))
    return CheckResult(name, True)


def scan_operator_identity(name: str, indices: Iterable[tuple[int, ...]],
                           difference: Callable) -> CheckResult:
    """Like :func:`scan_identity` for operator equalities.

    ``difference`` returns a matrix; on failure the witness appends the
    first carrier index whose column is nonzero.
    """
    for idx in indices:
        d = difference(*idx)
        for k in range(d.cols):
            col = d.col(k)
            if not col.is_zero():
                return CheckResult(name, False, Witness(tuple(idx) + (k,), col))
    return CheckResult(name, True)


# ---- from homkit/algebra.py ----------------------------------------


def _pairs(dim: int):
    return iproduct(range(dim), repeat=2)


def _triples(dim: int):
    return iproduct(range(dim), repeat=3)


def _cols(m: Matrix) -> list[Vector]:
    """The columns of ``m``, each read once, for the per-tuple residuals:
    ``Matrix.col`` computes its view on each call."""
    return [m.col(j) for j in range(m.cols)]


def _family_cols(f: ActionTensor) -> list[list[Vector]]:
    """``f``'s matrices (``ActionTensor.mats``, a view computed on each
    read) as their columns: ``[u][x]`` is column ``x`` of the matrix of ``e_u``."""
    return [_cols(m) for m in f.mats]


def check_multiplicative(alg: HomAlgebra) -> CheckReport:
    """Is alpha an endomorphism for every product?

    Verifies ``alpha(mu(e_i, e_j)) = mu(alpha e_i, alpha e_j)`` on all
    basis pairs, separately for each table.
    """
    alpha = alg.alpha
    ac, checks = _cols(alpha), []
    for name, t in alg.tensors().items():
        checks.append(scan_identity(
            f"multiplicative:{name}", _pairs(alg.dim),
            lambda i, j, t=t: alpha.apply(t.basis_product(i, j))
            - t.product(ac[i], ac[j])))
    return CheckReport(tuple(checks))


def check_hom_associative(t: StructureTensor, alpha: Matrix) -> CheckReport:
    """Twisted associator test: ``mu(mu(x,y), alpha z) = mu(alpha x, mu(y,z))``
    on all basis triples."""
    if alpha.rows != t.dim or alpha.cols != t.dim:
        raise ShapeError("twist map size differs from tensor dim")
    ac = _cols(alpha)
    result = scan_identity(
        "hom_associative", _triples(t.dim),
        lambda i, j, k: t.product(t.basis_product(i, j), ac[k])
        - t.product(ac[i], t.basis_product(j, k)))
    return CheckReport((result,))


def check_hom_leibniz(t: StructureTensor, alpha: Matrix) -> CheckReport:
    """Right Leibniz test: ``[[x,y], alpha z] = [alpha x, [y,z]] + [[x,z], alpha y]``
    on all basis triples."""
    if alpha.rows != t.dim or alpha.cols != t.dim:
        raise ShapeError("twist map size differs from tensor dim")
    ac = _cols(alpha)
    result = scan_identity(
        "hom_leibniz", _triples(t.dim),
        lambda i, j, k: t.product(t.basis_product(i, j), ac[k])
        - t.product(ac[i], t.basis_product(j, k))
        - t.product(t.basis_product(i, k), ac[j]))
    return CheckReport((result,))


def check_poisson_compat(alg: HomAlgebra) -> CheckReport:
    """Compatibility of the two products:
    ``[x.y, alpha z] = (alpha x).[y,z] + [x,z].(alpha y)`` on basis triples."""
    if alg.kind != POISSON:
        raise KindMismatchError("poisson compatibility needs a poisson algebra")
    dot, br, ac = alg.dot, alg.bracket, _cols(alg.alpha)
    result = scan_identity(
        "poisson_compatibility", _triples(alg.dim),
        lambda i, j, k: br.product(dot.basis_product(i, j), ac[k])
        - dot.product(ac[i], br.basis_product(j, k))
        - dot.product(br.basis_product(i, k), ac[j]))
    return CheckReport((result,))


def check_algebra(alg: HomAlgebra) -> CheckReport:
    """All checks that apply to the algebra's kind, in a fixed order."""
    reports = [check_multiplicative(alg)]
    if alg.dot is not None:
        reports.append(check_hom_associative(alg.dot, alg.alpha))
    if alg.bracket is not None:
        reports.append(check_hom_leibniz(alg.bracket, alg.alpha))
    if alg.kind == POISSON:
        reports.append(check_poisson_compat(alg))
    return concat(*reports)


def check_morphism(f: Matrix, src: HomAlgebra, dst: HomAlgebra) -> CheckReport:
    """Is ``f`` a morphism of Hom-algebras?

    Verifies ``f . alpha_src = alpha_dst . f`` and, for each table,
    ``f(mu_src(e_i, e_j)) = mu_dst(f e_i, f e_j)``.
    """
    if src.kind != dst.kind:
        raise KindMismatchError("morphism endpoints must have the same kind")
    if f.cols != src.dim or f.rows != dst.dim:
        raise ShapeError("morphism matrix shape must be dst.dim x src.dim")
    fc, sc = _cols(f), _cols(src.alpha)
    checks = [scan_identity(
        "intertwines_twist", ((j,) for j in range(src.dim)),
        lambda j: f.apply(sc[j]) - dst.alpha.apply(fc[j]))]
    src_tensors = src.tensors()
    dst_tensors = dst.tensors()
    for name in src_tensors:
        ts, td = src_tensors[name], dst_tensors[name]
        checks.append(scan_identity(
            f"preserves:{name}", _pairs(src.dim),
            lambda i, j, ts=ts, td=td: f.apply(ts.basis_product(i, j))
            - td.product(fc[i], fc[j])))
    return CheckReport(tuple(checks))


# ---- from homkit/representation.py ---------------------------------


def check_representation(rep: Representation, alg: HomAlgebra) -> CheckReport:
    """Verify every axiom of the representation kind as operator identities.

    For the Leibniz part, the commutation axiom is taken as the two
    conditions ``phi rho^l(x) = rho^l(alpha x) phi`` and
    ``phi rho^r(x) = rho^r(alpha x) phi``, and the redundant consequence
    ``rho^r([x,y]) phi + rho^r([y,x]) phi = 0`` is reported as an extra
    consistency check.
    """
    _require_match(rep, alg)
    phi, ac = rep.phi, _cols(alg.alpha)
    n = alg.dim
    checks = []

    if rep.kind in (ASSOCIATIVE, POISSON):
        dot, ll, lr = alg.dot, rep.lambda_l, rep.lambda_r
        llm, lrm = ll.mats, lr.mats
        checks.append(scan_operator_identity(
            "phi_commutes_left_mult", ((i,) for i in range(n)),
            lambda i: phi @ llm[i] - ll.at(ac[i]) @ phi))
        checks.append(scan_operator_identity(
            "phi_commutes_right_mult", ((i,) for i in range(n)),
            lambda i: phi @ lrm[i] - lr.at(ac[i]) @ phi))
        checks.append(scan_operator_identity(
            "left_mult_composition", iproduct(range(n), repeat=2),
            lambda i, j: ll.at(dot.basis_product(i, j)) @ phi
            - ll.at(ac[i]) @ llm[j]))
        checks.append(scan_operator_identity(
            "right_mult_composition", iproduct(range(n), repeat=2),
            lambda i, j: lr.at(dot.basis_product(i, j)) @ phi
            - lr.at(ac[j]) @ lrm[i]))
        checks.append(scan_operator_identity(
            "left_right_mult_commute", iproduct(range(n), repeat=2),
            lambda i, j: ll.at(ac[i]) @ lrm[j]
            - lr.at(ac[j]) @ llm[i]))

    if rep.kind in (LEIBNIZ, POISSON):
        br, rl, rr = alg.bracket, rep.rho_l, rep.rho_r
        rlm, rrm = rl.mats, rr.mats
        checks.append(scan_operator_identity(
            "phi_commutes_left_bracket", ((i,) for i in range(n)),
            lambda i: phi @ rlm[i] - rl.at(ac[i]) @ phi))
        checks.append(scan_operator_identity(
            "phi_commutes_right_bracket", ((i,) for i in range(n)),
            lambda i: phi @ rrm[i] - rr.at(ac[i]) @ phi))
        checks.append(scan_operator_identity(
            "left_bracket_composition", iproduct(range(n), repeat=2),
            lambda i, j: rl.at(br.basis_product(i, j)) @ phi
            - rl.at(ac[i]) @ rlm[j]
            - rr.at(ac[j]) @ rlm[i]))
        checks.append(scan_operator_identity(
            "mixed_bracket_exchange", iproduct(range(n), repeat=2),
            lambda i, j: rr.at(ac[j]) @ rlm[i]
            - rl.at(ac[i]) @ rrm[j]
            - rl.at(br.basis_product(i, j)) @ phi))
        checks.append(scan_operator_identity(
            "right_bracket_composition", iproduct(range(n), repeat=2),
            lambda i, j: rr.at(ac[j]) @ rrm[i]
            - rr.at(br.basis_product(i, j)) @ phi
            - rr.at(ac[i]) @ rrm[j]))
        checks.append(scan_operator_identity(
            "right_bracket_antisymmetry", iproduct(range(n), repeat=2),
            lambda i, j: rr.at(br.basis_product(i, j)) @ phi
            + rr.at(br.basis_product(j, i)) @ phi))

    if rep.kind == POISSON:
        dot, br = alg.dot, alg.bracket
        ll, lr, rl, rr = rep.lambda_l, rep.lambda_r, rep.rho_l, rep.rho_r
        llm, lrm, rlm, rrm = ll.mats, lr.mats, rl.mats, rr.mats
        checks.append(scan_operator_identity(
            "bracket_acts_on_left_mult", iproduct(range(n), repeat=2),
            lambda i, j: rr.at(ac[j]) @ llm[i]
            - ll.at(ac[i]) @ rrm[j]
            - ll.at(br.basis_product(i, j)) @ phi))
        checks.append(scan_operator_identity(
            "bracket_acts_on_right_mult", iproduct(range(n), repeat=2),
            lambda i, j: rr.at(ac[j]) @ lrm[i]
            - lr.at(br.basis_product(i, j)) @ phi
            - lr.at(ac[i]) @ rrm[j]))
        checks.append(scan_operator_identity(
            "left_bracket_of_product", iproduct(range(n), repeat=2),
            lambda i, j: rl.at(dot.basis_product(i, j)) @ phi
            - ll.at(ac[i]) @ rlm[j]
            - lr.at(ac[j]) @ rlm[i]))

    return CheckReport(tuple(checks))


# ---- from homkit/operators.py --------------------------------------


def check_rota_baxter(alg: HomAlgebra, r: Matrix, weight) -> CheckReport:
    """Weight-lambda Rota-Baxter test for a self-map, per table:
    ``mu(Rx, Ry) = R(mu(Rx, y) + mu(x, Ry) + weight mu(x, y))``,
    together with twist compatibility ``R alpha = alpha R``."""
    weight = frac(weight)
    if not r.is_square() or r.rows != alg.dim:
        raise ShapeError("operator must be square of the algebra dim")
    ac, rc = _cols(alg.alpha), _cols(r)
    checks = [scan_identity(
        "twist_commute", ((j,) for j in range(alg.dim)),
        lambda j: r.apply(ac[j]) - alg.alpha.apply(rc[j]))]
    for name, t in alg.tensors().items():
        def residual(i, j, t=t):
            ri, rj = rc[i], rc[j]
            ei, ej = Vector.unit(alg.dim, i), Vector.unit(alg.dim, j)
            inner = (t.product(ri, ej) + t.product(ei, rj)
                     + t.basis_product(i, j).scale(weight))
            return t.product(ri, rj) - r.apply(inner)
        checks.append(scan_identity(
            f"rota_baxter:{name}", iproduct(range(alg.dim), repeat=2), residual))
    return CheckReport(tuple(checks))


def _split_residual(ctx: OperatorContext, tensor: StructureTensor,
                    left: ActionTensor, right: ActionTensor):
    t, tc = ctx.t, _cols(ctx.t)

    def residual(i, j):
        tu, tv = tc[i], tc[j]
        inner = left.at(tu).col(j) + right.at(tv).col(i)
        return tensor.product(tu, tv) - t.apply(inner)

    return residual


def check_relative_rbo(ctx: OperatorContext) -> CheckReport:
    """Relative Rota-Baxter test: ``T phi = alpha T`` plus, per table,
    ``mu(Tu, Tv) = T(act_l(Tu) v + act_r(Tv) u)`` on all carrier pairs."""
    alg, rep, t = ctx.alg, ctx.rep, ctx.t
    pc, tc = _cols(rep.phi), _cols(t)
    checks = [scan_identity(
        "intertwines_twist", ((j,) for j in range(rep.carrier_dim)),
        lambda j: t.apply(pc[j]) - alg.alpha.apply(tc[j]))]
    m = rep.carrier_dim
    if alg.dot is not None:
        checks.append(scan_identity(
            "splits:dot", iproduct(range(m), repeat=2),
            _split_residual(ctx, alg.dot, rep.lambda_l, rep.lambda_r)))
    if alg.bracket is not None:
        checks.append(scan_identity(
            "splits:bracket", iproduct(range(m), repeat=2),
            _split_residual(ctx, alg.bracket, rep.rho_l, rep.rho_r)))
    return CheckReport(tuple(checks))


def check_nijenhuis(alg: HomAlgebra, n: Matrix) -> CheckReport:
    """Nijenhuis test: ``N alpha = alpha N`` and vanishing torsion
    ``mu(Nx, Ny) = N(mu(Nx, y) + mu(x, Ny) - N mu(x, y))`` per table."""
    if not n.is_square() or n.rows != alg.dim:
        raise ShapeError("operator must be square of the algebra dim")
    ac, nc = _cols(alg.alpha), _cols(n)
    checks = [scan_identity(
        "twist_commute", ((j,) for j in range(alg.dim)),
        lambda j: n.apply(ac[j]) - alg.alpha.apply(nc[j]))]
    for name, t in alg.tensors().items():
        def residual(i, j, t=t):
            ni, nj = nc[i], nc[j]
            ei, ej = Vector.unit(alg.dim, i), Vector.unit(alg.dim, j)
            inner = (t.product(ni, ej) + t.product(ei, nj)
                     - n.apply(t.basis_product(i, j)))
            return t.product(ni, nj) - n.apply(inner)
        checks.append(scan_identity(
            f"torsion_free:{name}", iproduct(range(alg.dim), repeat=2), residual))
    return CheckReport(tuple(checks))


# ---- from homkit/matched.py ----------------------------------------


def _cross_conditions_associative(mp: MatchedPair, printed: bool) -> list:
    """Six conditions coupling the dot products with the lambda actions.

    Each lambda below is the linear extension of the action family; x, y
    range over a basis of A1 and u, v over a basis of A2.
    """
    a1, a2 = mp.a1, mp.a2
    n1, n2 = a1.dim, a2.dim
    dot1, dot2 = a1.dot, a2.dot
    al1, al2 = a1.alpha, a2.alpha
    l1l, l1r = mp.actions_1_on_2.lambda_l, mp.actions_1_on_2.lambda_r
    l2l, l2r = mp.actions_2_on_1.lambda_l, mp.actions_2_on_1.lambda_r

    def e1(i):
        return Vector.unit(n1, i)

    def f2(i):
        return Vector.unit(n2, i)

    a1c, a2c = _cols(al1), _cols(al2)
    l1lc, l1rc, l2lc, l2rc = map(_family_cols, (l1l, l1r, l2l, l2r))
    checks = []
    # lambda1_l(alpha1 x)(u * v) = lambda1_l(lambda2_r(u) x)(alpha2 v)
    #                              + (lambda1_l(x) u) * (alpha2 v)
    checks.append(scan_identity(
        "cross:assoc:1", iproduct(range(n1), range(n2), range(n2)),
        lambda x, u, v: l1l.at(a1c[x]).apply(dot2.basis_product(u, v))
        - l1l.at(l2rc[u][x]).apply(a2c[v])
        - dot2.product(l1lc[x][u], a2c[v])))
    # lambda1_r(alpha1 x)(u * v) = lambda1_r(lambda2_l(v) x)(alpha2 u)
    #                              + (alpha2 u) * (lambda1_r(x) v)
    checks.append(scan_identity(
        "cross:assoc:2", iproduct(range(n1), range(n2), range(n2)),
        lambda x, u, v: l1r.at(a1c[x]).apply(dot2.basis_product(u, v))
        - l1r.at(l2lc[v][x]).apply(a2c[u])
        - dot2.product(a2c[u], l1rc[x][v])))

    # lambda2_l(alpha2 u)(x * y) = lambda2_l(lambda1_r(x) u)(alpha1 y) + T3
    # where T3 is (lambda2_l(u) x) * (alpha1 y) in the corrected set and
    # (lambda2_l(alpha2 u) x) * (alpha1 y) in the printed one.
    if printed:
        def third(u, x):
            return l2l.at(a2c[u]).apply(e1(x))
    else:
        def third(u, x):
            return l2lc[u][x]
    checks.append(scan_identity(
        "cross:assoc:3", iproduct(range(n2), range(n1), range(n1)),
        lambda u, x, y: l2l.at(a2c[u]).apply(dot1.basis_product(x, y))
        - l2l.at(l1rc[x][u]).apply(a1c[y])
        - dot1.product(third(u, x), a1c[y])))
    # lambda2_r(alpha2 u)(x * y) = lambda2_r(lambda1_l(y) u)(alpha1 x)
    #                              + (alpha1 x) * (lambda2_r(u) y)
    checks.append(scan_identity(
        "cross:assoc:4", iproduct(range(n2), range(n1), range(n1)),
        lambda u, x, y: l2r.at(a2c[u]).apply(dot1.basis_product(x, y))
        - l2r.at(l1lc[y][u]).apply(a1c[x])
        - dot1.product(a1c[x], l2rc[u][y])))
    # lambda1_l(lambda2_l(u) x)(alpha2 v) + (lambda1_r(x) u) * (alpha2 v)
    #   - lambda1_r(lambda2_r(v) x)(alpha2 u) - (alpha2 u) * (lambda1_l(x) v) = 0
    checks.append(scan_identity(
        "cross:assoc:5", iproduct(range(n1), range(n2), range(n2)),
        lambda x, u, v: l1l.at(l2lc[u][x]).apply(a2c[v])
        + dot2.product(l1rc[x][u], a2c[v])
        - l1r.at(l2rc[v][x]).apply(a2c[u])
        - dot2.product(a2c[u], l1lc[x][v])))
    # lambda2_l(lambda1_l(x) u)(alpha1 y) + (lambda2_r(u) x) * (alpha1 y)
    #   - lambda2_r(lambda1_r(y) u)(alpha1 x) - (alpha1 x) * (lambda2_l(u) y) = 0
    checks.append(scan_identity(
        "cross:assoc:6", iproduct(range(n2), range(n1), range(n1)),
        lambda u, x, y: l2l.at(l1lc[x][u]).apply(a1c[y])
        + dot1.product(l2rc[u][x], a1c[y])
        - l2r.at(l1rc[y][u]).apply(a1c[x])
        - dot1.product(a1c[x], l2lc[u][y])))
    return checks


def _cross_conditions_leibniz(mp: MatchedPair) -> list:
    """Six conditions coupling the brackets with the rho actions."""
    a1, a2 = mp.a1, mp.a2
    n1, n2 = a1.dim, a2.dim
    br1, br2 = a1.bracket, a2.bracket
    al1, al2 = a1.alpha, a2.alpha
    r1l, r1r = mp.actions_1_on_2.rho_l, mp.actions_1_on_2.rho_r
    r2l, r2r = mp.actions_2_on_1.rho_l, mp.actions_2_on_1.rho_r

    a1c, a2c = _cols(al1), _cols(al2)
    r1lc, r1rc, r2lc, r2rc = map(_family_cols, (r1l, r1r, r2l, r2r))
    checks = []
    checks.append(scan_identity(
        "cross:leibniz:1", iproduct(range(n1), range(n2), range(n2)),
        lambda x, u, v: r1r.at(a1c[x]).apply(br2.basis_product(u, v))
        - br2.product(a2c[u], r1rc[x][v])
        - br2.product(r1rc[x][u], a2c[v])
        - r1r.at(r2lc[v][x]).apply(a2c[u])
        - r1l.at(r2lc[u][x]).apply(a2c[v])))
    checks.append(scan_identity(
        "cross:leibniz:2", iproduct(range(n1), range(n2), range(n2)),
        lambda x, u, v: r1l.at(a1c[x]).apply(br2.basis_product(u, v))
        - br2.product(r1lc[x][u], a2c[v])
        + br2.product(r1lc[x][v], a2c[u])
        - r1l.at(r2rc[u][x]).apply(a2c[v])
        + r1l.at(r2rc[v][x]).apply(a2c[u])))
    checks.append(scan_identity(
        "cross:leibniz:3", iproduct(range(n1), range(n2), range(n2)),
        lambda x, u, v: r1r.at(a1c[x]).apply(br2.basis_product(u, v))
        - br2.product(r1rc[x][u], a2c[v])
        + br2.product(a2c[u], r1lc[x][v])
        - r1l.at(r2lc[u][x]).apply(a2c[v])
        + r1r.at(r2rc[v][x]).apply(a2c[u])))
    checks.append(scan_identity(
        "cross:leibniz:4", iproduct(range(n2), range(n1), range(n1)),
        lambda u, x, y: r2r.at(a2c[u]).apply(br1.basis_product(x, y))
        - br1.product(a1c[x], r2rc[u][y])
        - br1.product(r2rc[u][x], a1c[y])
        - r2r.at(r1lc[y][u]).apply(a1c[x])
        - r2l.at(r1lc[x][u]).apply(a1c[y])))
    checks.append(scan_identity(
        "cross:leibniz:5", iproduct(range(n2), range(n1), range(n1)),
        lambda u, x, y: r2l.at(a2c[u]).apply(br1.basis_product(x, y))
        - br1.product(r2lc[u][x], a1c[y])
        + br1.product(r2lc[u][y], a1c[x])
        - r2l.at(r1rc[x][u]).apply(a1c[y])
        + r2l.at(r1rc[y][u]).apply(a1c[x])))
    checks.append(scan_identity(
        "cross:leibniz:6", iproduct(range(n2), range(n1), range(n1)),
        lambda u, x, y: r2r.at(a2c[u]).apply(br1.basis_product(x, y))
        - br1.product(r2rc[u][x], a1c[y])
        + br1.product(a1c[x], r2lc[u][y])
        - r2l.at(r1lc[x][u]).apply(a1c[y])
        + r2r.at(r1rc[y][u]).apply(a1c[x])))
    return checks


def _cross_conditions_poisson(mp: MatchedPair) -> list:
    """Six mixed conditions coupling dot products with bracket actions."""
    a1, a2 = mp.a1, mp.a2
    n1, n2 = a1.dim, a2.dim
    dot1, dot2 = a1.dot, a2.dot
    br1, br2 = a1.bracket, a2.bracket
    al1, al2 = a1.alpha, a2.alpha
    r12, r21 = mp.actions_1_on_2, mp.actions_2_on_1
    l1l, l1r, r1l, r1r = r12.lambda_l, r12.lambda_r, r12.rho_l, r12.rho_r
    l2l, l2r, r2l, r2r = r21.lambda_l, r21.lambda_r, r21.rho_l, r21.rho_r

    a1c, a2c = _cols(al1), _cols(al2)
    l1lc, l1rc, l2lc, l2rc, r1lc, r1rc, r2lc, r2rc = map(
        _family_cols, (l1l, l1r, l2l, l2r, r1l, r1r, r2l, r2r))
    checks = []
    checks.append(scan_identity(
        "cross:poisson:1", iproduct(range(n2), range(n1), range(n1)),
        lambda u, x, y: l2l.at(a2c[u]).apply(br1.basis_product(x, y))
        + dot1.product(r2lc[u][y], a1c[x])
        + l2l.at(r1rc[y][u]).apply(a1c[x])
        - br1.product(l2lc[u][x], a1c[y])
        - r2l.at(l1rc[x][u]).apply(a1c[y])))
    checks.append(scan_identity(
        "cross:poisson:2", iproduct(range(n2), range(n1), range(n1)),
        lambda u, x, y: l2r.at(a2c[u]).apply(br1.basis_product(x, y))
        + dot1.product(a1c[x], r2lc[u][y])
        + l2r.at(r1rc[y][u]).apply(a1c[x])
        - br1.product(l2rc[u][x], a1c[y])
        - r2l.at(l1lc[x][u]).apply(a1c[y])))
    checks.append(scan_identity(
        "cross:poisson:3", iproduct(range(n1), range(n2), range(n2)),
        lambda x, u, v: l1l.at(a1c[x]).apply(br2.basis_product(u, v))
        + dot2.product(r1lc[x][v], a2c[u])
        + l1l.at(r2rc[v][x]).apply(a2c[u])
        - br2.product(l1lc[x][u], a2c[v])
        - r1l.at(l2rc[u][x]).apply(a2c[v])))
    checks.append(scan_identity(
        "cross:poisson:4", iproduct(range(n1), range(n2), range(n2)),
        lambda x, u, v: l1r.at(a1c[x]).apply(br2.basis_product(u, v))
        + dot2.product(a2c[u], r1lc[x][v])
        + l1r.at(r2rc[v][x]).apply(a2c[u])
        - br2.product(l1rc[x][u], a2c[v])
        - r1l.at(l2lc[u][x]).apply(a2c[v])))
    checks.append(scan_identity(
        "cross:poisson:5", iproduct(range(n2), range(n1), range(n1)),
        lambda u, x, y: r2r.at(a2c[u]).apply(dot1.basis_product(x, y))
        - dot1.product(a1c[x], r2rc[u][y])
        - l2r.at(r1lc[y][u]).apply(a1c[x])
        - dot1.product(r2rc[u][x], a1c[y])
        - l2l.at(r1lc[x][u]).apply(a1c[y])))
    checks.append(scan_identity(
        "cross:poisson:6", iproduct(range(n1), range(n2), range(n2)),
        lambda x, u, v: r1r.at(a1c[x]).apply(dot2.basis_product(u, v))
        - dot2.product(a2c[u], r1rc[x][v])
        - l1r.at(r2lc[v][x]).apply(a2c[u])
        - dot2.product(r1rc[x][u], a2c[v])
        - l1l.at(r2lc[u][x]).apply(a2c[v])))
    return checks


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
        rep_report = check_representation(rep, base)
        if not rep_report.passed:
            raise PreconditionError(
                f"{label} is not a representation: "
                + "; ".join(c.render() for c in rep_report.failures()))
    reports = [check_algebra(mp.a1).prefixed("algebra1:"),
               check_algebra(mp.a2).prefixed("algebra2:")]
    checks = []
    if mp.a1.kind in (ASSOCIATIVE, POISSON):
        checks.extend(_cross_conditions_associative(
            mp, printed=associative_conditions == "printed"))
    if mp.a1.kind in (LEIBNIZ, POISSON):
        checks.extend(_cross_conditions_leibniz(mp))
    if mp.a1.kind == POISSON:
        checks.extend(_cross_conditions_poisson(mp))
    reports.append(CheckReport(tuple(checks)))
    return concat(*reports)


# ---- from homkit/solver.py -----------------------------------------


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = frac(coeff)
                if c != 0:
                    clean[tuple(sorted(mono))] = clean.get(tuple(sorted(mono)), 0) + c
        object.__setattr__(self, "terms",
                           {m: c for m, c in clean.items() if c != 0})

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls({(): frac(c)})

    @classmethod
    def variable(cls, v: int) -> "Polynomial":
        return cls({(v,): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((len(m) for m in self.terms), default=0)

    def variables(self) -> set[int]:
        return {v for m in self.terms for v in m}

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(tuple(sorted(mono)), Fraction(0))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1)

    def __neg__(self) -> "Polynomial":
        return self.scale(-1)

    def scale(self, c) -> "Polynomial":
        c = frac(c)
        return Polynomial({m: c * v for m, v in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(sorted(m1 + m2))
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return Polynomial(out)

    def substitute(self, mapping: Mapping[int, "Polynomial"]) -> "Polynomial":
        """Replace each mapped variable by a polynomial."""
        out = Polynomial()
        for mono, coeff in self.terms.items():
            term = Polynomial.constant(coeff)
            for v in mono:
                term = term * mapping.get(v, Polynomial.variable(v))
            out = out + term
        return out

    def evaluate(self, assignment: Mapping[int, Fraction]) -> Fraction:
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            value = coeff
            for v in mono:
                value *= assignment[v]
            total += value
        return total

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def render(self, name: Callable[[int], str]) -> str:
        if not self.terms:
            return "0"
        def mono_str(m: Monomial) -> str:
            if not m:
                return ""
            parts = []
            i = 0
            while i < len(m):
                j = i
                while j < len(m) and m[j] == m[i]:
                    j += 1
                parts.append(name(m[i]) if j - i == 1 else f"{name(m[i])}^{j - i}")
                i = j
            return "*".join(parts)
        ordered = sorted(self.terms.items(), key=lambda kv: (-len(kv[0]), kv[0]))
        out = []
        for mono, coeff in ordered:
            ms = mono_str(mono)
            if not ms:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = ms
            else:
                body = f"{abs(coeff)}*{ms}"
            if not out:
                out.append(body if coeff > 0 else f"-{body}")
            else:
                out.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(out)

    def __repr__(self) -> str:
        return f"Polynomial({self.render(lambda v: f'x{v}')})"



def generate_constraints(alg: HomAlgebra, rep: Representation) -> PolySystem:
    """Polynomial system whose solutions are exactly the relative
    Rota-Baxter operators for (alg, rep)."""
    _require_match(rep, alg)
    n, m = alg.dim, rep.carrier_dim
    sys_shape = PolySystem(n, m, [])

    def tv(r: int, c: int) -> Polynomial:
        return Polynomial.variable(sys_shape.var_id(r, c))

    equations: list[Polynomial] = []

    # Linear part: (T phi - alpha T)[a][j] = 0.
    phi, alpha = rep.phi.entries, alg.alpha.entries
    for a in range(n):
        for j in range(m):
            p = Polynomial()
            for q in range(m):
                if phi[q][j] != 0:
                    p = p + tv(a, q).scale(phi[q][j])
            for b in range(n):
                if alpha[a][b] != 0:
                    p = p - tv(b, j).scale(alpha[a][b])
            equations.append(p)

    # Quadratic part, per table: for carrier pair (i, j) and output
    # coordinate k,
    #   sum_{a,b} C[a][b][k] T[a][i] T[b][j]
    #     - sum_q T[k][q] * (sum_a L_a[q][j] T[a][i] + sum_b R_b[q][i] T[b][j]) = 0.
    def add_table(tensor: StructureTensor, left: ActionTensor, right: ActionTensor):
        lefts, rights = ([mat.entries for mat in f.mats] for f in (left, right))
        for i in range(m):
            for j in range(m):
                inner = []
                for q in range(m):
                    p = Polynomial()
                    for a in range(n):
                        c = lefts[a][q][j]
                        if c != 0:
                            p = p + tv(a, i).scale(c)
                    for b in range(n):
                        c = rights[b][q][i]
                        if c != 0:
                            p = p + tv(b, j).scale(c)
                    inner.append(p)
                for k in range(n):
                    p = Polynomial()
                    for a in range(n):
                        for b in range(n):
                            c = tensor.coefficient(a, b, k)
                            if c != 0:
                                p = p + (tv(a, i) * tv(b, j)).scale(c)
                    for q in range(m):
                        if not inner[q].is_zero():
                            p = p - tv(k, q) * inner[q]
                    equations.append(p)

    for name, tensor in alg.tensors().items():
        add_table(tensor, *rep.action_pair(name))
    return PolySystem(n, m, equations)



def _solve_linear_part(linear: Sequence[Polynomial], variables: Sequence[int]):
    """Solve linear polynomials over the given variables.

    Returns (pivot substitution keyed by variable id, surviving free
    variables) or None if inconsistent.  Pinned variables are preferred
    from the high end so that low-index unknowns stay free, matching the
    usual presentation of parameter families.
    """
    ordered = sorted(variables, reverse=True)
    var_index = {v: i for i, v in enumerate(ordered)}
    rows = []
    for p in linear:
        row = [Fraction(0)] * (len(ordered) + 1)
        for mono, coeff in p.terms.items():
            if mono == ():
                row[-1] = coeff
            else:
                row[var_index[mono[0]]] = coeff
        rows.append(row)
    if not rows:
        return {}, tuple(sorted(variables))
    reduced, pivots = _rref(rows)
    if len(ordered) in pivots:
        return None
    mapping: dict[int, Polynomial] = {}
    for r, p in enumerate(pivots):
        row = reduced[r]
        terms = {(ordered[c],): -row[c] for c in range(p + 1, len(ordered)) if row[c]}
        terms[()] = -row[-1]
        mapping[ordered[p]] = Polynomial(terms)
    free = tuple(sorted(v for i, v in enumerate(ordered) if i not in pivots))
    return mapping, free


def eliminate_linear(system: PolySystem) -> Elimination:
    """Eliminate the degree-one subsystem exactly and substitute into the
    rest.  The substitution sends every pinned variable to an affine
    polynomial in the free variables."""
    variables = list(range(system.nvars))
    linear = [e for e in system.equations if e.degree() <= 1]
    rest = [e for e in system.equations if e.degree() > 1]
    solved = _solve_linear_part(linear, variables)
    if solved is None:
        return Elimination(PolySystem(system.rows, system.cols, []),
                           {}, (), inconsistent=True)
    mapping, free = solved
    residual = [e.substitute(mapping) for e in rest]
    return Elimination(PolySystem(system.rows, system.cols, residual),
                       mapping, free)


def rational_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of a non-negative rational, or None if irrational."""
    if value < 0:
        raise ValueError("square root of a negative rational")
    num, den = value.numerator, value.denominator
    sn, sd = isqrt(num), isqrt(den)
    if sn * sn == num and sd * sd == den:
        return Fraction(sn, sd)
    return None

def _perfect_square_root(p: Polynomial) -> Polynomial | None:
    """If ``p = c * L^2`` with L linear and c nonzero, return L."""
    if p.is_zero() or p.degree() != 2:
        return None
    square_vars = [m[0] for m in p.terms if len(m) == 2 and m[0] == m[1]]
    if not square_vars:
        return None
    x = min(square_vars)
    c = p.coefficient((x, x))
    # Candidate L = x + sum_y (coef(x,y)/(2c)) y + coef(x)/(2c).
    terms = {(x,): Fraction(1)}
    for mono, coeff in p.terms.items():
        if len(mono) == 2 and x in mono and mono != (x, x):
            y = mono[0] if mono[1] == x else mono[1]
            terms[(y,)] = coeff / (2 * c)
    lin = p.coefficient((x,))
    if lin != 0:
        terms[()] = lin / (2 * c)
    candidate = Polynomial(terms)
    if (candidate * candidate).scale(c) == p:
        return candidate
    return None


def _univariate_roots(p: Polynomial) -> list[Fraction] | None:
    """Rational roots of a polynomial in one variable of degree <= 2, or
    None if the polynomial is not univariate or has a higher degree."""
    vs = p.variables()
    if len(vs) != 1 or p.degree() > 2:
        return None
    (x,) = vs
    a = p.coefficient((x, x))
    b = p.coefficient((x,))
    c = p.coefficient(())
    if a == 0:
        return [] if b == 0 else [-c / b]
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    s = rational_sqrt(disc)
    if s is None:
        return []
    roots = {(-b + s) / (2 * a), (-b - s) / (2 * a)}
    return sorted(roots)


def _apply(subst: dict[int, Polynomial],
           mapping: dict[int, Polynomial]) -> dict[int, Polynomial]:
    return {v: p.substitute(mapping) for v, p in subst.items()}


def _reduce(equations: list[Polynomial], subst: dict[int, Polynomial],
            free: tuple[int, ...]) -> list[_Leaf]:
    equations = [e for e in equations if not e.is_zero()]
    while True:
        if any(e.degree() == 0 for e in equations):
            return []  # a nonzero constant: no solutions on this branch
        linear = [e for e in equations if e.degree() == 1]
        if not linear:
            break
        solved = _solve_linear_part(linear, list(free))
        if solved is None:
            return []
        mapping, free = solved
        if not mapping:
            break
        subst = _apply(subst, mapping)
        equations = [e2 for e in equations
                     if (e2 := e.substitute(mapping)) and not e2.is_zero()]
    if not equations:
        return [_Leaf(subst, free)]

    for idx, eq in enumerate(equations):
        roots = _univariate_roots(eq)
        if roots is not None:
            (x,) = eq.variables()
            leaves: list[_Leaf] = []
            for r in roots:
                mapping = {x: Polynomial.constant(r)}
                rest = [e.substitute(mapping) for e in equations[:idx]
                        + equations[idx + 1:]]
                leaves.extend(_reduce(rest, _apply(subst, mapping),
                                      tuple(v for v in free if v != x)))
            return leaves
        line = _perfect_square_root(eq)
        if line is not None:
            rest = equations[:idx] + equations[idx + 1:] + [line]
            return _reduce(rest, subst, free)
        if len(eq.terms) == 1:
            (mono,) = eq.terms
            leaves = []
            for x in sorted(set(mono)):
                mapping = {x: Polynomial.constant(0)}
                rest = [e.substitute(mapping) for e in equations]
                leaves.extend(_reduce(rest, _apply(subst, mapping),
                                      tuple(v for v in free if v != x)))
            return leaves
    return [_Leaf(subst, free, tuple(equations))]


def _leaf_family(leaf: _Leaf, system: PolySystem) -> AffineFamily:
    def matrix_of(values: Callable[[int], Fraction]) -> Matrix:
        return Matrix([[values(system.var_id(r, c)) for c in range(system.cols)]
                       for r in range(system.rows)])

    particular = matrix_of(lambda v: leaf.subst[v].coefficient(()))
    basis = []
    for f in leaf.free:
        basis.append(matrix_of(lambda v, f=f: leaf.subst[v].coefficient((f,))))
    return AffineFamily(particular, tuple(basis),
                        tuple(system.var_name(f) for f in leaf.free))


def _vectorize(m: Matrix) -> Vector:
    return Vector([e for row in m.entries for e in row])


def _family_contains(big: AffineFamily, small: AffineFamily) -> bool:
    member = span_membership([_vectorize(b) for b in big.basis])
    if not member(_vectorize(small.particular) - _vectorize(big.particular)):
        return False
    return all(member(_vectorize(b)) for b in small.basis)


def solve(system: PolySystem) -> SolutionSet:
    """Reduce the system by exact substitution and classify the solutions.

    Family results are verified symbolically: the parameterization is
    substituted back into every input equation, which must vanish
    identically in the free parameters.
    """
    identity_subst = {v: Polynomial.variable(v) for v in range(system.nvars)}
    leaves = _reduce(list(system.equations), dict(identity_subst),
                     tuple(range(system.nvars)))
    stuck = [leaf for leaf in leaves if leaf.residual]
    if stuck:
        return SolutionSet("residual",
                           residual=PolySystem(system.rows, system.cols,
                                               stuck[0].residual))
    families = [_leaf_family(leaf, system) for leaf in leaves]
    kept: list[AffineFamily] = []
    for fam in families:
        if any(_family_contains(other, fam) for other in kept):
            continue
        kept = [other for other in kept if not _family_contains(fam, other)]
        kept.append(fam)
    if all(f.dim == 0 for f in kept):
        points = sorted({f.particular for f in kept},
                        key=lambda m: tuple(tuple(r) for r in m.entries))
        return SolutionSet("finite", points=tuple(points))
    if len(kept) == 1 and kept[0].dim >= 1:
        leaf = leaves[families.index(kept[0])]
        for eq in system.equations:
            if not eq.substitute(leaf.subst).is_zero():
                raise SoundnessError(
                    "family verification failed on: " + eq.render(system.var_name))
        return SolutionSet("affine_family", family=kept[0])
    # Mixed points and families cannot be expressed in this schema; hand
    # back the post-elimination system without a claim.
    return SolutionSet("residual", residual=eliminate_linear(system).system)



# ---- from homkit/linalg.py -----------------------------------------


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form; pivot is the first nonzero entry
    of each column.  Returns the reduced rows and the pivot columns."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _kernel_from_rref(rows: list[list[Fraction]], pivots: list[int],
                      ncols: int) -> list[Vector]:
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(Vector(v))
    return basis


def kernel_basis(a: Matrix) -> list[Vector]:
    """``linalg.kernel_basis`` on the dense ``Fraction`` rows."""
    if a.cols == 0:
        return []
    if a.rows == 0:
        return [Vector.unit(a.cols, j) for j in range(a.cols)]
    rows, pivots = _rref([list(r) for r in a.entries])
    return _kernel_from_rref(rows, pivots, a.cols)


def solve_linear(a: Matrix, b: Vector) -> AffineSolution | None:
    """``linalg.solve_linear`` on the dense augmented ``Fraction`` rows."""
    if a.rows != b.dim:
        raise ShapeError(f"matrix has {a.rows} rows but rhs has dim {b.dim}")
    if a.cols == 0:
        if b.is_zero():
            return AffineSolution(Vector.zero(0), ())
        return None
    if a.rows == 0:
        return AffineSolution(Vector.zero(a.cols),
                              tuple(Vector.unit(a.cols, j) for j in range(a.cols)))
    aug = [list(r) + [be] for r, be in zip(a.entries, b.entries)]
    rows, pivots = _rref(aug)
    if a.cols in pivots:
        return None
    particular = [Fraction(0)] * a.cols
    for r, p in enumerate(pivots):
        particular[p] = rows[r][a.cols]
    plain = [row[:a.cols] for row in rows]
    kernel = _kernel_from_rref(plain, pivots, a.cols)
    return AffineSolution(Vector(particular), tuple(kernel))


def span_membership(columns: Sequence[Vector]) -> Callable[[Vector], bool]:
    """Membership test for the span of the given vectors.

    The vectors are reduced once, as the rows of a matrix; each query is
    then cleared against the reduced rows at their pivots and lies in the
    span iff nothing is left.
    """
    if not columns:
        return Vector.is_zero
    dim = columns[0].dim
    if any(c.dim != dim for c in columns):
        raise ShapeError("columns of differing dimension")
    rows, pivots = _rref([list(c.entries) for c in columns])
    reduced = [(p, [(k, row[k]) for k in range(p + 1, dim) if row[k]])
               for p, row in zip(pivots, rows)]

    def member(v: Vector) -> bool:
        if v.dim != dim:
            raise ShapeError(f"span lives in dim {dim} but vector has dim {v.dim}")
        rest = list(v.entries)
        for p, tail in reduced:
            f = rest[p]
            if f:
                rest[p] = 0
                for k, e in tail:
                    rest[k] -= f * e
        return not any(rest)
    return member



# ---- from homkit/dsl.py --------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"[0-9]+")


@dataclass(frozen=True)
class Token:
    kind: str  # NAME | INT | PUNCT | EOF
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        pos = 0
        while pos < len(line):
            ch = line[pos]
            if ch in " \t\r":
                pos += 1
                continue
            if ch == "#":
                break
            col = pos + 1
            if line.startswith("->", pos):
                tokens.append(Token("PUNCT", "->", lineno, col))
                pos += 2
                continue
            m = _NAME_RE.match(line, pos)
            if m:
                tokens.append(Token("NAME", m.group(0), lineno, col))
                pos = m.end()
                continue
            m = _INT_RE.match(line, pos)
            if m:
                tokens.append(Token("INT", m.group(0), lineno, col))
                pos = m.end()
                continue
            if ch in "{}[],*=+-/:":
                tokens.append(Token("PUNCT", ch, lineno, col))
                pos += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", lineno, col)
    last_line = text.count("\n") + 1
    tokens.append(Token("EOF", "", last_line, 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            got = tok.text if tok.text else "end of input"
            self.fail(f"expected {want!r}, found {got!r}")
        return self.advance()

    def expect_name(self, what: str) -> Token:
        tok = self.peek()
        if tok.kind != "NAME":
            got = repr(tok.text) if tok.text else "end of input"
            self.fail(f"expected {what}, found {got}")
        return self.advance()

    # ---- shared pieces -------------------------------------------------

    def parse_int(self, what: str) -> int:
        tok = self.peek()
        if tok.kind != "INT":
            self.fail(f"expected {what}")
        return self._int_value(self.advance())

    def _int_value(self, tok: Token) -> int:
        """An INT token's value; one with more digits than the interpreter
        converts is a parse error at its token."""
        try:
            return int(tok.text)
        except ValueError:
            self.fail(f"number with {len(tok.text)} digits is too long", tok)

    def parse_dim(self, what: str) -> int:
        """A dimension; one beyond the platform's index range is a parse
        error at its token, since no list of that length can exist."""
        tok = self.peek()
        dim = self.parse_int(what)
        if dim > sys.maxsize:
            self.fail(f"dimension {dim} is too large to index", tok)
        return dim

    def parse_lincomb(self) -> list[tuple[Fraction, Token]]:
        """Terms as (coefficient, basis-symbol token); a lone 0 is empty."""
        terms: list[tuple[Fraction, Token]] = []
        first = True
        while True:
            sign = Fraction(1)
            tok = self.peek()
            if tok.kind == "PUNCT" and tok.text in ("+", "-"):
                if first and tok.text == "+":
                    self.fail("a linear combination cannot start with '+'")
                sign = Fraction(-1) if tok.text == "-" else Fraction(1)
                self.advance()
                tok = self.peek()
            elif not first:
                break
            if tok.kind == "INT":
                num_tok = self.advance()
                coeff = Fraction(self._int_value(num_tok))
                if self.peek().kind == "PUNCT" and self.peek().text == "/":
                    self.advance()
                    den_tok = self.peek()
                    den = self._int_value(den_tok) if den_tok.kind == "INT" else 0
                    if den == 0:
                        self.fail("expected a nonzero denominator")
                    self.advance()
                    coeff /= den
                if self.peek().kind == "NAME":
                    sym = self.advance()
                    terms.append((sign * coeff, sym))
                elif coeff == 0:
                    pass  # a literal zero term
                else:
                    self.fail("expected a basis symbol after the coefficient")
            elif tok.kind == "NAME":
                sym = self.advance()
                terms.append((sign, sym))
            else:
                self.fail("expected a term")
            first = False
        return terms

    # ---- items ---------------------------------------------------------

    def parse_document(self) -> Document:
        doc = Document()
        while self.peek().kind != "EOF":
            tok = self.peek()
            if tok.kind != "NAME":
                self.fail("expected 'algebra', 'map', or 'representation'")
            if tok.text == "algebra":
                item = self.parse_algebra()
            elif tok.text == "map":
                item = self.parse_map(doc)
            elif tok.text == "representation":
                item = self.parse_representation(doc)
            else:
                self.fail(f"unknown item {tok.text!r}")
            if doc.get(item.name) is not None:
                self.fail(f"duplicate name {item.name!r}", tok)
            doc.add(item)
        return doc

    def _basis_index(self, tok: Token, prefix: str, dim: int) -> int:
        m = _BASIS_RE.match(tok.text)
        if not m or m.group(1) != prefix:
            raise ParseError(
                f"expected a basis symbol {prefix}1..{prefix}{dim}, found {tok.text!r}",
                tok.line, tok.col)
        digits = m.group(2)
        # More digits than the dimension is out of range whatever the value.
        if len(digits) > len(str(dim)) or int(digits) > dim:
            raise ParseError(
                f"basis symbol {tok.text!r} out of range for dimension {dim}",
                tok.line, tok.col)
        return int(digits) - 1

    def _resolve_lincomb(self, terms, prefix: str, dim: int) -> Vector:
        entries = [_ZERO] * dim
        for coeff, tok in terms:
            entries[self._basis_index(tok, prefix, dim)] += coeff
        return Vector(entries)

    def parse_algebra(self) -> DocAlgebra:
        start = self.expect("NAME", "algebra")
        name = self.expect_name("an algebra name").text
        self.expect("PUNCT", "{")
        dim: int | None = None
        kind: str | None = None
        raw: dict[str, list] = {"dot": [], "bracket": [], "alpha": []}
        seen: set[str] = set()
        while not (self.peek().kind == "PUNCT" and self.peek().text == "}"):
            field = self.expect_name("an algebra field")
            if field.text in seen and field.text in ("dim", "kind", "dot",
                                                     "bracket", "alpha"):
                self.fail(f"duplicate field {field.text!r}", field)
            seen.add(field.text)
            if field.text == "dim":
                dim = self.parse_dim("the dimension")
            elif field.text == "kind":
                ktok = self.expect_name("a kind")
                if ktok.text not in KIND_TOKENS:
                    self.fail("kind must be assoc, leibniz, or poisson", ktok)
                kind = KIND_TOKENS[ktok.text]
            elif field.text in ACTIONS_OF:
                raw[field.text] = self.parse_product_block(star=field.text == "dot")
            elif field.text == "alpha":
                raw["alpha"] = self.parse_arrow_block()
            else:
                self.fail(f"unknown algebra field {field.text!r}", field)
        self.expect("PUNCT", "}")
        if dim is None:
            self.fail(f"algebra {name!r} has no dim", start)
        if kind is None:
            self.fail(f"algebra {name!r} has no kind", start)
        for block in ACTIONS_OF:
            if raw[block] and block not in TENSORS_BY_KIND[kind]:
                self.fail(f"kind {KIND_NAMES[kind]!r} does not take a"
                          f" {block} block", start)
        tensors = {}
        for block in TENSORS_BY_KIND[kind]:
            products = {}
            for (itok, jtok, terms) in raw[block]:
                i = self._basis_index(itok, "e", dim)
                j = self._basis_index(jtok, "e", dim)
                if (i, j) in products:
                    raise ParseError(
                        f"duplicate product entry for ({itok.text},{jtok.text})",
                        itok.line, itok.col)
                products[(i, j)] = self._resolve_lincomb(terms, "e", dim)
            tensors[block] = StructureTensor.from_products(dim, products)
        alpha = self._resolve_columns(raw["alpha"], "e", dim, "e", dim)
        return DocAlgebra(name, HomAlgebra(dim, kind, alpha, **tensors))

    def parse_product_block(self, star: bool) -> list:
        self.expect("PUNCT", "{")
        entries = []
        while not (self.peek().kind == "PUNCT" and self.peek().text == "}"):
            if star:
                itok = self.expect_name("a basis symbol")
                self.expect("PUNCT", "*")
                jtok = self.expect_name("a basis symbol")
            else:
                self.expect("PUNCT", "[")
                itok = self.expect_name("a basis symbol")
                self.expect("PUNCT", ",")
                jtok = self.expect_name("a basis symbol")
                self.expect("PUNCT", "]")
            self.expect("PUNCT", "=")
            entries.append((itok, jtok, self.parse_lincomb()))
        self.expect("PUNCT", "}")
        return entries

    def parse_arrow_block(self) -> list:
        self.expect("PUNCT", "{")
        entries = []
        while not (self.peek().kind == "PUNCT" and self.peek().text == "}"):
            src = self.expect_name("a basis symbol")
            self.expect("PUNCT", "->")
            entries.append((src, self.parse_lincomb()))
        self.expect("PUNCT", "}")
        return entries

    def _resolve_columns(self, entries, src_prefix: str, src_dim: int,
                         dst_prefix: str, dst_dim: int) -> Matrix:
        cols = [Vector.zero(dst_dim) for _ in range(src_dim)]
        seen = set()
        for (tok, terms) in entries:
            j = self._basis_index(tok, src_prefix, src_dim)
            if j in seen:
                raise ParseError(f"duplicate entry for {tok.text!r}",
                                 tok.line, tok.col)
            seen.add(j)
            cols[j] = self._resolve_lincomb(terms, dst_prefix, dst_dim)
        return Matrix.from_cols(cols) if src_dim else Matrix.zero(dst_dim, 0)

    def _space_dim(self, doc: Document, name_tok: Token) -> int:
        item = doc.get(name_tok.text)
        if item is None:
            self.fail(f"unknown name {name_tok.text!r}", name_tok)
        if isinstance(item, DocAlgebra):
            return item.algebra.dim
        if isinstance(item, DocRepresentation):
            return item.rep.carrier_dim
        self.fail(f"{name_tok.text!r} is a map, not a space", name_tok)

    def parse_map(self, doc: Document) -> DocMap:
        self.expect("NAME", "map")
        name = self.expect_name("a map name").text
        self.expect("PUNCT", ":")
        src_tok = self.expect_name("a source space")
        self.expect("PUNCT", "->")
        dst_tok = self.expect_name("a destination space")
        src_dim = self._space_dim(doc, src_tok)
        dst_dim = self._space_dim(doc, dst_tok)
        entries = self.parse_arrow_block()
        matrix = self._resolve_columns(entries, "e", src_dim, "e", dst_dim)
        return DocMap(name, src_tok.text, dst_tok.text, matrix)

    def parse_representation(self, doc: Document) -> DocRepresentation:
        start = self.expect("NAME", "representation")
        name = self.expect_name("a representation name").text
        self.expect("NAME", "on")
        base_tok = self.expect_name("a base algebra")
        base_item = doc.get(base_tok.text)
        if not isinstance(base_item, DocAlgebra):
            self.fail(f"unknown algebra {base_tok.text!r}", base_tok)
        base = base_item.algebra
        self.expect("PUNCT", "{")
        dim: int | None = None
        phi_entries: list | None = None
        actions: dict[str, dict[int, list]] = {a: {} for a in _TABLE_OF}
        while not (self.peek().kind == "PUNCT" and self.peek().text == "}"):
            field = self.expect_name("a representation field")
            if field.text == "dim":
                if dim is not None:
                    self.fail("duplicate field 'dim'", field)
                dim = self.parse_dim("the carrier dimension")
            elif field.text == "phi":
                if phi_entries is not None:
                    self.fail("duplicate field 'phi'", field)
                phi_entries = self.parse_arrow_block()
            elif field.text in _TABLE_OF:
                if _TABLE_OF[field.text] not in TENSORS_BY_KIND[base.kind]:
                    self.fail(f"kind {KIND_NAMES[base.kind]!r} takes no"
                              f" {field.text} block", field)
                sel = self.expect_name("a base basis symbol")
                i = self._basis_index(sel, "e", base.dim)
                if i in actions[field.text]:
                    self.fail(f"duplicate block {field.text} {sel.text}", sel)
                actions[field.text][i] = self.parse_arrow_block()
            else:
                self.fail(f"unknown representation field {field.text!r}", field)
        self.expect("PUNCT", "}")
        if dim is None:
            self.fail(f"representation {name!r} has no dim", start)
        phi = self._resolve_columns(phi_entries or [], "f", dim, "f", dim)

        def family(action: str) -> ActionTensor:
            return ActionTensor(base.dim, dim, [
                self._resolve_columns(actions[action].get(i, []), "f", dim, "f", dim)
                for i in range(base.dim)])

        rep = Representation(base.kind, base.dim, dim, phi, **{
            a: family(a) for name in base.tensors() for a in ACTIONS_OF[name]})
        return DocRepresentation(name, base_tok.text, rep)


def parse(text: str) -> Document:
    """Parse DSL text into a resolved document."""
    return _Parser(text).parse_document()


# ---- equality and hashing, from homkit/linalg.py and algebra.py ----------


def matrix_eq(a: Matrix, b) -> bool:
    """``Matrix.__eq__`` over dense ``Fraction`` entries."""
    return (isinstance(b, Matrix) and a.rows == b.rows
            and a.cols == b.cols and a.entries == b.entries)


def matrix_hash(a: Matrix) -> int:
    return hash((a.rows, a.cols, a.entries))


def tensor_eq(a: StructureTensor, b) -> bool:
    """The dataclass ``StructureTensor.__eq__``: dims and product mappings."""
    return isinstance(b, StructureTensor) and (a.dim, a.products) == (b.dim, b.products)


def tensor_hash(a: StructureTensor) -> int:
    return hash((a.dim, tuple(a.products.items())))


# ---- constructions, from homkit/linalg.py, algebra.py, representation.py
# ---- and operators.py ----------------------------------------------


def transpose(m: Matrix) -> Matrix:
    entries = m.entries
    return Matrix(zip(*entries), m.cols, m.rows) if entries else Matrix.zero(m.cols, m.rows)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """``Matrix.__matmul__``."""
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by "
                         f"{b.rows}x{b.cols}")
    ot = transpose(b).entries
    return Matrix(
        [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in ot]
         for row in a.entries],
        a.rows, b.cols)


def yau_twist(alg: HomAlgebra, beta: Matrix, checked: bool = True) -> HomAlgebra:
    if beta.rows != alg.dim or beta.cols != alg.dim:
        raise ShapeError("twisting map must be square of the algebra dim")
    if checked:
        require(check_morphism(beta, alg, alg), "twisting map is not a self-morphism")

    bc = _cols(beta)

    def twisted(t: StructureTensor) -> StructureTensor:
        return StructureTensor.from_function(alg.dim, lambda i, j: t.product(bc[i], bc[j]))

    return HomAlgebra(alg.dim, alg.kind, matmul(beta, alg.alpha),
                      **{name: twisted(t) for name, t in alg.tensors().items()})


def _mult_tensors(t: StructureTensor, left: bool) -> list[Matrix]:
    dim = t.dim
    mats = []
    for i in range(dim):
        cols = [t.basis_product(i, j) if left else t.basis_product(j, i)
                for j in range(dim)]
        mats.append(Matrix.from_cols(cols))
    return mats


def regular_representation(alg: HomAlgebra) -> Representation:
    n = alg.dim
    kw = paired_families(alg, lambda name, left: ActionTensor(
        n, n, _mult_tensors(getattr(alg, name), left)))
    return Representation(alg.kind, n, n, alg.alpha, **kw)


def pullback_representation(f: Matrix, src: HomAlgebra, dst: HomAlgebra,
                            checked: bool = True) -> Representation:
    if checked:
        require(check_morphism(f, src, dst), "pullback needs a morphism")
    n, m, fc = src.dim, dst.dim, _cols(f)

    def family(name: str, left: bool) -> ActionTensor:
        t = getattr(dst, name)
        mats = []
        for i in range(n):
            fx = fc[i]
            cols = [t.product(fx, Vector.unit(m, j)) if left
                    else t.product(Vector.unit(m, j), fx) for j in range(m)]
            mats.append(Matrix.from_cols(cols))
        return ActionTensor(n, m, mats)

    return Representation(src.kind, n, m, dst.alpha, **paired_families(src, family))


def _gate(ctx: OperatorContext, checked: bool, what: str) -> None:
    if checked:
        require(check_relative_rbo(ctx), f"{what} needs a relative Rota-Baxter operator")


def induced_algebra(ctx: OperatorContext, checked: bool = True) -> HomAlgebra:
    _gate(ctx, checked, "induced algebra")
    rep, t = ctx.rep, ctx.t
    m = rep.carrier_dim

    tc = _cols(t)

    def build(left: ActionTensor, right: ActionTensor) -> StructureTensor:
        lefts, rights = ([_cols(f.at(c)) for c in tc] for f in (left, right))
        return StructureTensor.from_function(m, lambda i, j: lefts[i][j] + rights[j][i])

    return HomAlgebra(m, ctx.alg.kind, rep.phi,
                      **{name: build(*rep.action_pair(name)) for name in ctx.alg.tensors()})


def induced_representation(ctx: OperatorContext, checked: bool = True) -> Representation:
    _gate(ctx, checked, "induced representation")
    alg, rep, t = ctx.alg, ctx.rep, ctx.t
    n, m, tc = alg.dim, rep.carrier_dim, _cols(t)

    def family(name: str, left: bool) -> ActionTensor:
        tensor = getattr(alg, name)
        opposite = _family_cols(rep.action_pair(name)[1 if left else 0])
        mats = []
        for u in range(m):
            tu = tc[u]
            cols = []
            for j in range(n):
                ej = Vector.unit(n, j)
                direct = tensor.product(tu, ej) if left else tensor.product(ej, tu)
                cols.append(direct - t.apply(opposite[j][u]))
            mats.append(Matrix.from_cols(cols))
        return ActionTensor(m, n, mats)

    return Representation(alg.kind, m, n, alg.alpha, **paired_families(alg, family))


def projection_context(alg: HomAlgebra, rep: Representation,
                       checked: bool = True) -> OperatorContext:
    """The parent's version, except that ``Matrix.block`` now keeps the
    width of a block row of height 0 (a dim-0 algebra used to fail)."""
    _require_match(rep, alg)
    if checked:
        require(check_representation(rep, alg),
                "projection context needs a valid representation")
    n, m = alg.dim, rep.carrier_dim

    def family(name: str, left: bool) -> ActionTensor:
        tensor, inner = getattr(alg, name), rep.action_pair(name)[0 if left else 1].mats
        regular = left == (name == "dot")
        mats = []
        for a in range(n):
            if regular:
                block = Matrix.from_cols([tensor.basis_product(a, j) if left
                                          else tensor.basis_product(j, a)
                                          for j in range(n)])
            else:
                block = Matrix.zero(n, n)
            mats.append(Matrix.block_diag(block, inner[a]))
        return ActionTensor(n, n + m, mats)

    big = Representation(alg.kind, n, n + m, Matrix.block_diag(alg.alpha, rep.phi),
                         **paired_families(alg, family))
    t = Matrix.block([[Matrix.identity(n), Matrix.zero(n, m)]])
    return OperatorContext(alg, big, t)


def nijenhuis_deform(alg: HomAlgebra, n: Matrix, checked: bool = True) -> HomAlgebra:
    if checked:
        require(check_nijenhuis(alg, n), "deformation needs a Nijenhuis operator")

    nc = _cols(n)

    def deform(t: StructureTensor) -> StructureTensor:
        def fn(i, j):
            ni, nj = nc[i], nc[j]
            ei, ej = Vector.unit(alg.dim, i), Vector.unit(alg.dim, j)
            return (t.product(ni, ej) + t.product(ei, nj)
                    - n.apply(t.basis_product(i, j)))
        return StructureTensor.from_function(alg.dim, fn)

    return HomAlgebra(alg.dim, alg.kind, alg.alpha,
                      **{name: deform(t) for name, t in alg.tensors().items()})


# ---- the membership checks, from homkit/algebra.py, operators.py and
# representation.py: dense values, membership by elimination --------


def scan_membership(name: str, indices: Iterable[tuple[int, ...]],
                    value: Callable[..., Vector],
                    member: Callable[[Vector], bool]) -> CheckResult:
    """Record the first index tuple whose ``value`` is not a ``member``;
    the witness residual is that value itself."""
    for idx in indices:
        v = value(*idx)
        if not member(v):
            return CheckResult(name, False, Witness(tuple(idx), v))
    return CheckResult(name, True)


def check_ideal(basis: Sequence[Vector], alg: HomAlgebra) -> CheckReport:
    vecs = list(basis)
    for v in vecs:
        if v.dim != alg.dim:
            raise ShapeError("ideal basis vectors must live in the algebra")

    member = span_membership(vecs)
    checks = [scan_membership(
        "twist_stable", ((b,) for b in range(len(vecs))),
        lambda b: alg.alpha.apply(vecs[b]), member)]
    for name, t in alg.tensors().items():
        checks.append(scan_membership(
            f"closed_right:{name}",
            iproduct(range(len(vecs)), range(alg.dim)),
            lambda b, a, t=t: t.product(vecs[b], Vector.unit(alg.dim, a)), member))
        checks.append(scan_membership(
            f"closed_left:{name}",
            iproduct(range(len(vecs)), range(alg.dim)),
            lambda b, a, t=t: t.product(Vector.unit(alg.dim, a), vecs[b]), member))
    return CheckReport(tuple(checks))


def graph_check(ctx: OperatorContext) -> CheckReport:
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


def ideal_representation(basis: Sequence[Vector], alg: HomAlgebra,
                         checked: bool = True) -> Representation:
    vecs = list(basis)
    if checked:
        require(check_ideal(vecs, alg), "not a two-sided ideal")
    k = len(vecs)
    span = Matrix.from_cols(vecs) if vecs else Matrix.zero(alg.dim, 0)

    def coords(v: Vector) -> Vector:
        sol = solve_linear(span, v)
        if sol is None or sol.kernel:
            raise PreconditionError(
                "ideal basis must be independent and closed (membership solve failed)")
        return sol.particular

    phi = Matrix.from_cols([coords(alg.alpha.apply(b)) for b in vecs]) if k \
        else Matrix.zero(0, 0)

    def family(name: str, left: bool) -> ActionTensor:
        t, units = getattr(alg, name), [Vector.unit(alg.dim, a) for a in range(alg.dim)]
        return ActionTensor.from_columns(alg.dim, k, {
            (a, c): coords(t.product(ea, b) if left else t.product(b, ea)).entries
            for a, ea in enumerate(units) for c, b in enumerate(vecs)})

    return Representation(alg.kind, alg.dim, k, phi, **paired_families(alg, family))


# ---- the twisted tables, from homkit/kernel.py ---------------------


def twisted(index: SparseIndex, given: dict, name: str, left: bool, by: int) -> dict:
    """``index.twisted[name, left, by]`` for the index of ``given``: each
    product summed in a dense list, in order of first addition, then grouped
    by key index ``by``."""
    rows = {} if index.alpha is None else index.alpha.rows
    width, acc = getattr(given[name], "carrier_dim", len(rows)), {}
    for (p, q), v in index.parts[name].items():
        for x, w in rows[p if left else q]:
            out = acc.setdefault((x, q) if left else (p, x), [0] * width)
            for k, y in v:
                out[k] += w * y
    return grouped({key: [(k, y) for k, y in enumerate(v) if y] for key, v in acc.items()}, by)


def phi_columns(index: SparseIndex, family: ActionTensor, phi: Matrix) -> dict:
    """``index.phi_columns`` of ``family`` and the carrier twist ``phi`` as
    ``{(a, c): {k: int}}``: the nonzero entries of column ``c`` of
    ``F(e_a) phi``, times ``index.d ** 2``, for each nonzero column."""
    out = {}
    for a, mat in enumerate(family.mats):
        product = (mat @ phi).entries
        for c in range(phi.cols):
            if col := {k: row[c] * index.d ** 2 for k, row in enumerate(product) if row[c]}:
                out[a, c] = col
    return out


# ---- the direct sums, from homkit/representation.py and matched.py ---


def semidirect_product(alg: HomAlgebra, rep: Representation) -> HomAlgebra:
    """Algebra on A + V: products act on the V component through the action
    families, twist is alpha (+) phi.  Basis order: A basis first, then V."""
    _require_match(rep, alg)
    n, m = alg.dim, rep.carrier_dim

    def build(t: StructureTensor, left: ActionTensor,
              right: ActionTensor) -> StructureTensor:
        d = common_denominator(t, left, right)
        products = dict(sparse(t, d))
        for (i, c), col in sparse(left, d).items():  # A times V: left action
            products[(i, n + c)] = [(n + r, x) for r, x in col]
        for (j, c), col in sparse(right, d).items():  # V times A: right action
            products[(n + c, j)] = [(n + r, x) for r, x in col]
        return StructureTensor._from_form(n + m, d, products)

    alpha = Matrix.block_diag(alg.alpha, rep.phi)
    return HomAlgebra(n + m, alg.kind, alpha,
                      **{name: build(t, *rep.action_pair(name))
                         for name, t in alg.tensors().items()})


def matched_sum(mp: MatchedPair) -> HomAlgebra:
    """Bicrossed product on A1 + A2.

    The construction is total; whether the result satisfies the kind's
    axioms is decided by the checkers.  Basis order: A1 basis, then A2.
    """
    a1, a2 = mp.a1, mp.a2
    n1, total = a1.dim, a1.dim + a2.dim

    def build(name: str) -> StructureTensor:
        t1, t2 = getattr(a1, name), getattr(a2, name)
        act12_l, act12_r = mp.actions_1_on_2.action_pair(name)
        act21_l, act21_r = mp.actions_2_on_1.action_pair(name)
        d = common_denominator(t1, t2, act12_l, act12_r, act21_l, act21_r)
        products = dict(sparse(t1, d))
        products.update({(n1 + i, n1 + j): [(n1 + k, x) for k, x in v]
                         for (i, j), v in sparse(t2, d).items()})
        # A mixed product is an A1 column, then an A2 column.
        for (v, x), col in sparse(act21_r, d).items():  # lambda2_r(v) x, x in A1
            products[(x, n1 + v)] = list(col)
        for (u, y), col in sparse(act21_l, d).items():  # lambda2_l(u) y, u in A2
            products[(n1 + u, y)] = list(col)
        for (x, v), col in sparse(act12_l, d).items():  # ... + lambda1_l(x) v
            products.setdefault((x, n1 + v), []).extend((n1 + k, z) for k, z in col)
        for (y, u), col in sparse(act12_r, d).items():  # ... + lambda1_r(y) u
            products.setdefault((n1 + u, y), []).extend((n1 + k, z) for k, z in col)
        return StructureTensor._from_form(total, d, products)

    alpha = Matrix.block_diag(a1.alpha, a2.alpha)
    return HomAlgebra(total, a1.kind, alpha, **{name: build(name) for name in a1.tensors()})
