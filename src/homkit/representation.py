"""Representations of Hom-algebras: axioms, constructions, semidirect products.

A representation acts on a carrier space V through families of matrices,
one per basis element of the base algebra.  Associative-kind data is the
pair of action families (lambda_l, lambda_r) for the dot product;
Leibniz-kind data is (rho_l, rho_r) for the bracket; Poisson-kind data
carries all four over one carrier twist phi.  The semidirect product and
:func:`homkit.matched.matched_sum` are one builder, :func:`_direct_sum`.

All axiom checks are operator identities evaluated on every basis pair of
the base algebra and every carrier basis vector, which is exhaustive by
multilinearity, read off one :class:`homkit.kernel.SparseIndex` of the
base's tables and the families with the carrier twist named ``phi``.
"""

from __future__ import annotations

from math import lcm
from typing import Callable, Mapping, Sequence

from .algebra import (
    ACTIONS_OF, KINDS, POISSON, TENSORS_BY_KIND, HomAlgebra, StructureTensor, _GROUPS,
    _ideal, _require_self_morphism, _require_square, check_ideal, check_morphism,
)
from .errors import KindMismatchError, PreconditionError, ShapeError
from .kernel import SparseIndex, groups_then_vectors, row_term, walk
from .linalg import (
    Matrix, Vector, _applied, _cells, _echelon, _Stored, _Value, common_denominator, grouped,
    sparse, transposed,
)
from .reporting import CheckReport, CheckResult, require, scan_operator_identity


class ActionTensor(_Stored):
    """Linear family of carrier endomorphisms indexed by base basis
    elements; extends linearly to ``at(x) = sum_i x_i mats[i]``.

    It is kept as :meth:`stored` ``(den, columns)``: each nonzero column
    ``(i, c)``, column ``c`` of the matrix of ``e_i``, keys in sorted order,
    as the sparse vector of its entries times ``den``.  ``mats``, one
    ``Matrix`` per base basis element, is a read-only view computed on each read."""

    __slots__ = ("base_dim", "carrier_dim")

    def __init__(self, base_dim: int, carrier_dim: int, mats: Sequence[Matrix]):
        mats = tuple(mats)
        if len(mats) != base_dim:
            raise ShapeError("need one matrix per base basis element")
        if any(m.rows != carrier_dim or m.cols != carrier_dim for m in mats):
            raise ShapeError("action matrices must be carrier_dim square")
        den, columns = common_denominator(*mats), {}
        for i, m in enumerate(mats):
            columns.update(((i, c), col) for c, col in transposed(sparse(m, den)).items())
        self._store((den, columns), base_dim, carrier_dim)

    @classmethod
    def from_columns(cls, base_dim: int, carrier_dim: int,
                     columns: Mapping[tuple[int, int], Sequence]) -> "ActionTensor":
        """Build from nonzero columns: ``columns[(i, c)]`` is column ``c`` of
        the matrix of base basis element ``i``; unlisted columns are zero."""
        for (i, c), col in columns.items():
            if not (0 <= i < base_dim and 0 <= c < carrier_dim) or len(col) != carrier_dim:
                raise ShapeError(f"column {(i, c)} does not fit the action family")
        return cls._from_cells(base_dim, carrier_dim, _cells(columns))

    @property
    def mats(self) -> tuple[Matrix, ...]:
        (den, columns), m = self._ints, self.carrier_dim
        by_first, zero = grouped(columns), Matrix.zero(m, m)
        return tuple(Matrix._from_form(m, m, den, transposed(dict(by_first[i])))
                     if i in by_first else zero for i in range(self.base_dim))

    def at(self, x: Vector) -> Matrix:
        if x.dim != self.base_dim:
            raise ShapeError("action argument must have the base dimension")
        # Column c of the image sums x_i times stored column (i, c), over den * d.
        (den, columns), m = self._ints, self.carrier_dim
        d = lcm(*(q.denominator for q in x.entries))
        xs = [(i, q.numerator * (d // q.denominator)) for i, q in enumerate(x.entries) if q]
        terms = {c: [((i, c), y) for i, y in xs if (i, c) in columns] for c in range(m)}
        return Matrix._from_form(m, m, den * d, transposed(_applied(columns, terms, m)))


class Representation(_Value):
    """Carrier space with twist phi and the action families of its kind:
    the pair ``ACTIONS_OF[name]`` for each of the kind's tables."""

    __slots__ = ("kind", "base_dim", "carrier_dim", "phi", "lambda_l", "lambda_r",
                 "rho_l", "rho_r")

    def __init__(self, kind: str, base_dim: int, carrier_dim: int, phi: Matrix,
                 lambda_l: ActionTensor | None = None, lambda_r: ActionTensor | None = None,
                 rho_l: ActionTensor | None = None, rho_r: ActionTensor | None = None):
        self._set(kind, base_dim, carrier_dim, phi, lambda_l, lambda_r, rho_l, rho_r)
        if self.kind not in KINDS:
            raise KindMismatchError(f"unknown kind {self.kind!r}")
        needed = {a for name in TENSORS_BY_KIND[self.kind] for a in ACTIONS_OF[name]}
        for pair in ACTIONS_OF.values():
            for name in pair:
                if (getattr(self, name) is not None) != (name in needed):
                    raise KindMismatchError(
                        f"kind {self.kind!r} requires exactly its own action families"
                        f" (unexpected state for {name})")
        if self.phi.rows != self.carrier_dim or self.phi.cols != self.carrier_dim:
            raise ShapeError("phi must be carrier_dim square")
        if any(t.base_dim != self.base_dim or t.carrier_dim != self.carrier_dim
               for t in self.actions().values()):
            raise ShapeError("action family shape disagrees with the representation")

    def actions(self) -> dict[str, ActionTensor]:
        """The action families of this kind by name, table by table."""
        return {a: getattr(self, a)
                for name in TENSORS_BY_KIND[self.kind] for a in ACTIONS_OF[name]}

    def action_pair(self, name: str) -> tuple[ActionTensor, ActionTensor]:
        """The (left, right) action families paired with table ``name``."""
        left, right = ACTIONS_OF[name]
        return getattr(self, left), getattr(self, right)

    def __repr__(self) -> str:
        return (f"Representation(kind={self.kind!r}, base_dim={self.base_dim}, "
                f"carrier_dim={self.carrier_dim})")


def paired_families(alg: HomAlgebra,
                    family: Callable[[str, bool], ActionTensor]) -> dict[str, ActionTensor]:
    """Action families of ``alg``'s kind as ``Representation`` keywords:
    for each table ``name``, ``family(name, True)`` is its left action and
    ``family(name, False)`` its right action."""
    return {action: family(name, left) for name in alg.tensors()
            for action, left in zip(ACTIONS_OF[name], (True, False))}


def _require_match(rep: Representation, alg: HomAlgebra) -> None:
    """The one kind and shape match check of a representation and its base."""
    if rep.kind != alg.kind:
        raise KindMismatchError(
            f"representation kind {rep.kind!r} differs from algebra kind {alg.kind!r}")
    if rep.base_dim != alg.dim:
        raise ShapeError("representation base dim differs from algebra dim")


# Each action family's commutation axiom with phi.
_COMMUTES = {"lambda_l": "phi_commutes_left_mult", "lambda_r": "phi_commutes_right_mult",
             "rho_l": "phi_commutes_left_bracket", "rho_r": "phi_commutes_right_bracket"}

# The pair axioms of each table, then the Poisson cross axioms, at a basis
# pair (i, j): rows of :func:`homkit.kernel.row_term`, and the one form only
# these axioms have, ``(sign, F, table, swap)``, read by :func:`_through_phi`.
_PAIR_AXIOMS = {
    "dot": (
        ("left_mult_composition", (1, "lambda_l", "dot", 0), (-1, "lambda_l", "lambda_l")),
        ("right_mult_composition", (1, "lambda_r", "dot", 0), (-1, "lambda_r", "lambda_r", 0, 0)),
        ("left_right_mult_commute", (1, "lambda_l", "lambda_r"),
         (-1, "lambda_l", "lambda_r", 0, 0)),
    ),
    "bracket": (
        ("left_bracket_composition", (1, "rho_l", "bracket", 0), (-1, "rho_l", "rho_l"),
         (-1, "rho_l", "rho_r", 0, 0)),
        ("mixed_bracket_exchange", (1, "rho_l", "rho_r", 0, 0), (-1, "rho_l", "rho_r"),
         (-1, "rho_l", "bracket", 0)),
        ("right_bracket_composition", (1, "rho_r", "rho_r", 0, 0), (-1, "rho_r", "bracket", 0),
         (-1, "rho_r", "rho_r")),
        ("right_bracket_antisymmetry", (1, "rho_r", "bracket", 0), (1, "rho_r", "bracket", 1)),
    ),
    POISSON: (
        ("bracket_acts_on_left_mult", (1, "lambda_l", "rho_r", 0, 0),
         (-1, "lambda_l", "rho_r"), (-1, "lambda_l", "bracket", 0)),
        ("bracket_acts_on_right_mult", (1, "lambda_r", "rho_r", 0, 0),
         (-1, "lambda_r", "bracket", 0), (-1, "lambda_r", "rho_r")),
        ("left_bracket_of_product", (1, "rho_l", "dot", 0), (-1, "lambda_l", "rho_l"),
         (-1, "rho_l", "lambda_r", 0, 0)),
    ),
}


def _axioms(r: SparseIndex, groups: tuple) -> CheckReport:
    """Every axiom of a kind's ``groups``, group by group, from one index of a
    representation's base and families with its twist named ``phi``
    (:func:`check_representation`)."""
    m, n, checks = len(r.maps["phi"].cols), len(r.alpha.rows), []

    def scan(name: str, *terms) -> CheckResult:
        return scan_operator_identity(name, *walk(m * m, n, terms), width=m,
                                      denominator=r.d ** 3)
    for group in groups:
        for family in ACTIONS_OF.get(group, ()):
            checks.append(scan(_COMMUTES[family], *_commutes(r, family)))
        for name, *rows in _PAIR_AXIOMS[group]:
            checks.append(scan(name, *(
                _through_phi(r, *row) if len(row) == 4 else row_term(r, r, *row, width=m)
                for row in rows)))
    return CheckReport(tuple(checks))


def _commutes(r: SparseIndex, family: str) -> tuple:
    """The terms of ``d phi F(e_i) - F(alpha e_i) phi`` at ``(i,)``."""
    phi, times_phi = r.maps["phi"].cols, r.times_phi[family]
    # F(alpha e_i) phi sums F(e_a) phi over column i of alpha: one group per i
    alpha = {i: ((0, col),) for i, col in r.alpha.cols.items()}
    return (groups_then_vectors(r.d, r.by_first[family], phi, len(phi)),
            groups_then_vectors(-1, alpha, times_phi, len(phi)))


def _through_phi(r: SparseIndex, sign: int, family: str, table: str, swap: bool) -> tuple:
    """The term ``sign F(mu(e_i, e_j)) phi`` at ``(i, j)``, or
    ``sign F(mu(e_j, e_i)) phi`` if ``swap``."""
    products = r.by_second[table] if swap else r.by_first[table]
    return groups_then_vectors(sign, products, r.times_phi[family])


def check_representation(rep: Representation, alg: HomAlgebra) -> CheckReport:
    """Verify every axiom of the representation kind as operator identities.

    For the Leibniz part, the commutation axiom is taken as the two
    conditions ``phi rho^l(x) = rho^l(alpha x) phi`` and
    ``phi rho^r(x) = rho^r(alpha x) phi``, and the redundant consequence
    ``rho^r([x,y]) phi + rho^r([y,x]) phi = 0`` is reported as an extra
    consistency check.

    Each residual is summed over the nonzero products, twist entries and
    action columns only, keyed by basis tuple; an untouched tuple's
    residual is exactly zero.
    """
    _require_match(rep, alg)
    return _axioms(_paired_index(alg, rep), _GROUPS[alg.kind])


def _paired_index(alg: HomAlgebra, rep: Representation) -> SparseIndex:
    """The index of the algebra's tables and twist and the representation's
    families with its carrier twist ``phi``: what the axioms and the relative
    Rota-Baxter check read."""
    return SparseIndex(alg.alpha, {**alg.tensors(), **rep.actions()}, phi=rep.phi)


def regular_representation(alg: HomAlgebra) -> Representation:
    """The algebra acting on itself: left/right multiplication by each
    table, carrier twist alpha."""
    n = alg.dim

    def family(name: str, left: bool) -> ActionTensor:
        # Column j of the i-th matrix is mu(e_i, e_j) (left) or mu(e_j, e_i).
        den, products = getattr(alg, name).stored()
        return ActionTensor._from_form(n, n, den, {
            (i, j) if left else (j, i): v for (i, j), v in products.items()})

    return Representation(alg.kind, n, n, alg.alpha, **paired_families(alg, family))


def pullback_representation(f: Matrix, src: HomAlgebra, dst: HomAlgebra,
                            checked: bool = True) -> Representation:
    """Representation of ``src`` on ``dst``'s space along a morphism f:
    actions ``x . v = mu_dst(f x, v)`` etc., carrier twist ``dst.alpha``."""
    if src.kind != dst.kind:
        raise KindMismatchError("pullback endpoints must have the same kind")
    if f.rows != dst.dim or f.cols != src.dim:
        raise ShapeError("pullback map shape must be dst.dim x src.dim")
    if checked:
        require(check_morphism(f, src, dst), "pullback needs a morphism")
    n, m = src.dim, dst.dim
    a = SparseIndex(None, dst.tensors(), f=f)
    fm = a.maps["f"]

    def family(name: str, left: bool) -> ActionTensor:
        # mu_dst(f e_i, e_j) (left) or mu_dst(e_j, f e_i) at (i, j).
        table = (a.by_first if left else a.by_second)[name]
        return ActionTensor._from_form(n, m, a.d ** 2, fm.sums(m, fm.term(1, table, True, False)))

    return Representation(src.kind, n, m, dst.alpha, **paired_families(src, family))


def twist_representation(rep: Representation, beta: Matrix, alg: HomAlgebra,
                         checked: bool = True) -> Representation:
    """Precompose every action family with a self-morphism beta of the base
    algebra: new action ``x -> lambda(beta x)``; phi unchanged."""
    _require_match(rep, alg)
    _require_square(alg, beta, "twisting map")
    if checked:
        _require_self_morphism(beta, alg)
    b = SparseIndex(beta, rep.actions())
    # Column c of F(beta e_x) at (x, c), over the nonzero entries of beta and F.
    return Representation(rep.kind, rep.base_dim, rep.carrier_dim, rep.phi, **{
        name: ActionTensor._from_form(rep.base_dim, rep.carrier_dim, b.d ** 2,
                                      b.twisted[name, True]) for name in b.parts})


def power_twist_representation(rep: Representation, alg: HomAlgebra,
                               n: int) -> Representation:
    """Precompose every action with the n-th power of the algebra twist.

    The pair's kind and shape are checked first, then the twist, once, to be a
    self-morphism for ``n >= 1``; ``n <= 0`` returns ``rep`` itself."""
    _require_match(rep, alg)
    if n < 1:
        return rep
    _require_self_morphism(alg.alpha, alg)
    power = alg.alpha
    for _ in range(n - 1):
        power = power @ alg.alpha
    return twist_representation(rep, power, alg, checked=False)


def ideal_representation(basis: Sequence[Vector], alg: HomAlgebra,
                         checked: bool = True) -> Representation:
    """Representation on a two-sided ideal, in the coordinates of the given
    basis (all read off one reduction); actions are the restricted multiplications."""
    basis = list(basis)  # read again by check_ideal if a value lies outside the span
    d, cols, values = _ideal(basis, alg)
    k, keys = len(cols), [(check, key) for check, sums in values.items() for key in sums]
    columns = {**cols, **{j: values[check][key] for j, (check, key) in enumerate(keys, k)}}
    echelon = _echelon(map(dict, transposed(columns).values()))
    if set(echelon) != set(range(k)):  # a value outside the span, or a dependent basis
        if checked and any(p >= k for p in echelon):  # a value outside the span
            require(check_ideal(basis, alg), "not a two-sided ideal")
        raise PreconditionError(
            "ideal basis must be independent and closed (membership solve failed)")
    # Coordinate p of the value in column j is echelon[p][j] / (d echelon[p][p]);
    # the value mu(e_a, v_c) (or mu(v_c, e_a)) is column c of the a-th matrix.
    scale, forms = lcm(*(echelon[p][p] for p in range(k))), {check: {} for check in values}
    for p, j, x in ((p, j, x) for p in range(k) for j, x in echelon[p].items() if j >= k):
        check, (c, *a) = keys[j - k]
        forms[check].setdefault((*a, c), []).append((p, scale // echelon[p][p] * x))
    phi = transposed({c: v for (c,), v in sorted(forms["twist_stable"].items())})

    def family(name: str, left: bool) -> ActionTensor:
        return ActionTensor._from_form(
            alg.dim, k, d * scale, forms[f"closed_{'left' if left else 'right'}:{name}"])

    return Representation(alg.kind, alg.dim, k, Matrix._from_form(k, k, d * scale, phi),
                          **paired_families(alg, family))


def _direct_sum(a1: HomAlgebra, dim2: int, alpha2: Matrix, one_on_two: Representation,
                a2: HomAlgebra | None = None,
                two_on_one: Representation | None = None) -> HomAlgebra:
    """The algebra on A1 + A2, A1's basis first, twisted by alpha1 (+) alpha2:
    each table holds A1's products, A2's shifted past A1 (none for a carrier,
    ``a2`` None), and each mixed product as the back action's A1 column, if
    there is one, followed by the forward action's column shifted past A1."""
    n, tables = a1.dim, {}
    for name, t1 in a1.tensors().items():
        t2 = getattr(a2, name) if a2 else None
        back = two_on_one.action_pair(name) if two_on_one else ()
        forward = one_on_two.action_pair(name)
        d = common_denominator(t1, t2, *back, *forward)
        products = dict(sparse(t1, d))
        if t2 is not None:
            products.update(((n + i, n + j), [(n + k, x) for k, x in v])
                            for (i, j), v in sparse(t2, d).items())
        # Column c at (i, c) of a left family is e_i e_c, of a right one e_c e_i.
        for pair, shift in ((back, 0), (forward, n)):
            for family, left in zip(pair, (True, False)):
                for (i, c), col in sparse(family, d).items():
                    i, c = i + n - shift, c + shift
                    products.setdefault((i, c) if left else (c, i), []).extend([
                        (shift + k, x) for k, x in col])
        tables[name] = StructureTensor._from_form(n + dim2, d, products)
    return HomAlgebra(n + dim2, a1.kind, Matrix.block_diag(a1.alpha, alpha2), **tables)


def semidirect_product(alg: HomAlgebra, rep: Representation) -> HomAlgebra:
    """Algebra on A + V, A's basis first, twisted by alpha (+) phi: the direct
    sum with V's products zero, A acting on V by the families and V not back."""
    _require_match(rep, alg)
    return _direct_sum(alg, rep.carrier_dim, rep.phi, rep)
