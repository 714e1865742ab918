"""Representations of Hom-algebras: axioms, constructions, semidirect products.

A representation acts on a carrier space V through families of matrices,
one per basis element of the base algebra.  Associative-kind data is the
pair of action families (lambda_l, lambda_r) for the dot product;
Leibniz-kind data is (rho_l, rho_r) for the bracket; Poisson-kind data
carries all four over one carrier twist phi.

All axiom checks are operator identities evaluated on every basis pair of
the base algebra and every carrier basis vector, which is exhaustive by
multilinearity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from typing import Callable, Mapping, Sequence

from .algebra import (
    ACTIONS_OF, ASSOCIATIVE, KINDS, LEIBNIZ, POISSON, TENSORS_BY_KIND,
    HomAlgebra, StructureTensor, _require_self_morphism, check_ideal,
    check_morphism,
)
from .errors import KindMismatchError, PreconditionError, ShapeError
from .kernel import (
    Accumulator, IntAction, IntMatrix, IntTensor, common_denominator, mat_add,
    mat_mul, mat_sub, mat_times, sparse,
)
from .linalg import _ZERO, Matrix, Vector, solve_linear
from .reporting import CheckReport, require, scan_operator_identity


@dataclass(frozen=True, slots=True, repr=False)
class ActionTensor:
    """Linear family of carrier endomorphisms indexed by base basis
    elements; extends linearly to ``at(x) = sum_i x_i mats[i]``."""

    base_dim: int
    carrier_dim: int
    mats: tuple[Matrix, ...]

    def __post_init__(self):
        mats = tuple(self.mats)
        if len(mats) != self.base_dim:
            raise ShapeError("need one matrix per base basis element")
        if any(m.rows != self.carrier_dim or m.cols != self.carrier_dim for m in mats):
            raise ShapeError("action matrices must be carrier_dim square")
        object.__setattr__(self, "mats", mats)

    @classmethod
    def zero(cls, base_dim: int, carrier_dim: int) -> "ActionTensor":
        return cls.from_columns(base_dim, carrier_dim, {})

    @classmethod
    def from_columns(cls, base_dim: int, carrier_dim: int,
                     columns: Mapping[tuple[int, int], Sequence]) -> "ActionTensor":
        """Build from nonzero columns: ``columns[(i, c)]`` is column ``c`` of
        the matrix of base basis element ``i``; unlisted columns are zero."""
        grids = {}
        for (i, c), col in columns.items():
            if not (0 <= i < base_dim and 0 <= c < carrier_dim) or len(col) != carrier_dim:
                raise ShapeError(f"column {(i, c)} does not fit the action family")
            if i not in grids:
                grids[i] = [[_ZERO] * carrier_dim for _ in range(carrier_dim)]
            for row, x in zip(grids[i], col):
                if x is not _ZERO and x:  # every zero stays the shared one
                    row[c] = x
        zero = Matrix.zero(carrier_dim, carrier_dim)
        return cls(base_dim, carrier_dim,
                   [Matrix(grids[i], carrier_dim, carrier_dim) if i in grids else zero
                    for i in range(base_dim)])

    def at(self, x: Vector) -> Matrix:
        if x.dim != self.base_dim:
            raise ShapeError("action argument must have the base dimension")
        terms = [(xi, m.entries) for xi, m in zip(x.entries, self.mats) if xi]
        size = self.carrier_dim
        return Matrix([[sum(xi * rows[r][c] for xi, rows in terms if rows[r][c])
                        for c in range(size)] for r in range(size)], size, size)

    def columns(self):
        """Every nonzero column as ``(i, c, entries)``: column ``c`` of the
        matrix of base basis element ``i``, as a tuple of Fractions."""
        for i, m in enumerate(self.mats):
            for c, col in enumerate(zip(*m.entries)):
                # The shared zero is counted by identity, with no method call.
                if col.count(_ZERO) != len(col):
                    yield i, c, col

    def precompose(self, beta: Matrix) -> "ActionTensor":
        """New family x -> at(beta x)."""
        if beta.rows != self.base_dim or beta.cols != self.base_dim:
            raise ShapeError("precompose map must be square of the base dim")
        return ActionTensor(self.base_dim, self.carrier_dim,
                            [self.at(beta.col(i)) for i in range(self.base_dim)])


@dataclass(frozen=True, slots=True, repr=False)
class Representation:
    """Carrier space with twist phi and the action families of its kind:
    the pair ``ACTIONS_OF[name]`` for each of the kind's tables."""

    kind: str
    base_dim: int
    carrier_dim: int
    phi: Matrix
    lambda_l: ActionTensor | None = None
    lambda_r: ActionTensor | None = None
    rho_l: ActionTensor | None = None
    rho_r: ActionTensor | None = None

    def __post_init__(self):
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


def check_representation(rep: Representation, alg: HomAlgebra) -> CheckReport:
    """Verify every axiom of the representation kind as operator identities.

    For the Leibniz part, the commutation axiom is taken as the two
    conditions ``phi rho^l(x) = rho^l(alpha x) phi`` and
    ``phi rho^r(x) = rho^r(alpha x) phi``, and the redundant consequence
    ``rho^r([x,y]) phi + rho^r([y,x]) phi = 0`` is reported as an extra
    consistency check.
    """
    _require_match(rep, alg)
    n = alg.dim
    tensors, actions = alg.tensors(), rep.actions()
    d = common_denominator(alg.alpha, rep.phi, *tensors.values(), *actions.values())
    alpha = IntMatrix(alg.alpha, d).cols
    phi = IntMatrix(rep.phi, d).rows
    table = {name: IntTensor(t, d).table for name, t in tensors.items()}
    act = {name: IntAction(t, d) for name, t in actions.items()}
    # x -> act(alpha x), degree 2, for every action family and basis index.
    twisted = {name: [a.at(alpha[i]) for i in range(n)] for name, a in act.items()}
    checks = []

    def scan(name, indices, difference):
        checks.append(scan_operator_identity(name, indices, difference,
                                             denominator=d ** 3))

    def commutes(name, family):
        a, ta = act[family].mats, twisted[family]
        scan(name, ((i,) for i in range(n)),
             lambda i: mat_sub(mat_times(d, mat_mul(phi, a[i])), mat_mul(ta[i], phi)))

    def at_phi(family, v):
        return mat_mul(act[family].at(v), phi)

    def pairs():
        return iproduct(range(n), repeat=2)

    if rep.kind in (ASSOCIATIVE, POISSON):
        dot = table["dot"]
        ll, lr = act["lambda_l"].mats, act["lambda_r"].mats
        tll, tlr = twisted["lambda_l"], twisted["lambda_r"]
        commutes("phi_commutes_left_mult", "lambda_l")
        commutes("phi_commutes_right_mult", "lambda_r")
        scan("left_mult_composition", pairs(),
             lambda i, j: mat_sub(at_phi("lambda_l", dot[i][j]),
                                  mat_mul(tll[i], ll[j])))
        scan("right_mult_composition", pairs(),
             lambda i, j: mat_sub(at_phi("lambda_r", dot[i][j]),
                                  mat_mul(tlr[j], lr[i])))
        scan("left_right_mult_commute", pairs(),
             lambda i, j: mat_sub(mat_mul(tll[i], lr[j]), mat_mul(tlr[j], ll[i])))

    if rep.kind in (LEIBNIZ, POISSON):
        br = table["bracket"]
        rl, rr = act["rho_l"].mats, act["rho_r"].mats
        trl, trr = twisted["rho_l"], twisted["rho_r"]
        commutes("phi_commutes_left_bracket", "rho_l")
        commutes("phi_commutes_right_bracket", "rho_r")
        scan("left_bracket_composition", pairs(),
             lambda i, j: mat_sub(mat_sub(at_phi("rho_l", br[i][j]),
                                          mat_mul(trl[i], rl[j])),
                                  mat_mul(trr[j], rl[i])))
        scan("mixed_bracket_exchange", pairs(),
             lambda i, j: mat_sub(mat_sub(mat_mul(trr[j], rl[i]),
                                          mat_mul(trl[i], rr[j])),
                                  at_phi("rho_l", br[i][j])))
        scan("right_bracket_composition", pairs(),
             lambda i, j: mat_sub(mat_sub(mat_mul(trr[j], rr[i]),
                                          at_phi("rho_r", br[i][j])),
                                  mat_mul(trr[i], rr[j])))
        scan("right_bracket_antisymmetry", pairs(),
             lambda i, j: mat_add(at_phi("rho_r", br[i][j]),
                                  at_phi("rho_r", br[j][i])))

    if rep.kind == POISSON:
        scan("bracket_acts_on_left_mult", pairs(),
             lambda i, j: mat_sub(mat_sub(mat_mul(trr[j], ll[i]),
                                          mat_mul(tll[i], rr[j])),
                                  at_phi("lambda_l", br[i][j])))
        scan("bracket_acts_on_right_mult", pairs(),
             lambda i, j: mat_sub(mat_sub(mat_mul(trr[j], lr[i]),
                                          at_phi("lambda_r", br[i][j])),
                                  mat_mul(tlr[i], rr[j])))
        scan("left_bracket_of_product", pairs(),
             lambda i, j: mat_sub(mat_sub(at_phi("rho_l", dot[i][j]),
                                          mat_mul(tll[i], rl[j])),
                                  mat_mul(tlr[j], rl[i])))

    return CheckReport(tuple(checks))


def regular_representation(alg: HomAlgebra) -> Representation:
    """The algebra acting on itself: left/right multiplication by each
    table, carrier twist alpha."""
    n = alg.dim

    def family(name: str, left: bool) -> ActionTensor:
        # Column j of the i-th matrix is mu(e_i, e_j) (left) or mu(e_j, e_i).
        return ActionTensor.from_columns(n, n, {
            (i, j) if left else (j, i): v.entries
            for (i, j), v in getattr(alg, name).products.items()})

    return Representation(alg.kind, n, n, alg.alpha, **paired_families(alg, family))


def pulled_back(t: StructureTensor, f_rows: list, d: int, left: bool) -> Accumulator:
    """``d**2`` times ``mu(f e_i, e_j)`` (left) or ``mu(e_j, f e_i)`` at
    ``(i, j)``, where ``f_rows[k]`` is row ``k`` of ``f`` as a ``sparse``
    vector over ``d``: ``f[k][i] mu(e_k, e_j)`` summed over the nonzero
    products."""
    acc = Accumulator(t.dim)
    for (a, b), v in t.products.items():
        k, j = (a, b) if left else (b, a)
        terms = sparse(v.entries, d)
        for i, x in f_rows[k]:
            acc.add((i, j), x, terms)
    return acc


def pullback_representation(f: Matrix, src: HomAlgebra, dst: HomAlgebra,
                            checked: bool = True) -> Representation:
    """Representation of ``src`` on ``dst``'s space along a morphism f:
    actions ``x . v = mu_dst(f x, v)`` etc., carrier twist ``dst.alpha``."""
    if checked:
        require(check_morphism(f, src, dst), "pullback needs a morphism")
    n, m = src.dim, dst.dim
    d = common_denominator(f, *dst.tensors().values())
    f_rows = [sparse(row, d) for row in f.entries]

    def family(name: str, left: bool) -> ActionTensor:
        columns = pulled_back(getattr(dst, name), f_rows, d, left)
        return ActionTensor.from_columns(n, m, columns.rationals(d * d))

    return Representation(src.kind, n, m, dst.alpha, **paired_families(src, family))


def twist_representation(rep: Representation, beta: Matrix, alg: HomAlgebra,
                         checked: bool = True) -> Representation:
    """Precompose every action family with a self-morphism beta of the base
    algebra: new action ``x -> lambda(beta x)``; phi unchanged."""
    _require_match(rep, alg)
    if checked:
        _require_self_morphism(beta, alg)
    kw = {name: t.precompose(beta) for name, t in rep.actions().items()}
    return Representation(rep.kind, rep.base_dim, rep.carrier_dim, rep.phi, **kw)


def power_twist_representation(rep: Representation, alg: HomAlgebra,
                               n: int) -> Representation:
    """Precompose every action with the n-th power of the algebra twist.

    The twist is checked to be a self-morphism once, for ``n >= 1``;
    ``n <= 0`` returns ``rep`` itself."""
    if n < 1:
        return rep
    _require_match(rep, alg)
    _require_self_morphism(alg.alpha, alg)
    power = alg.alpha
    for _ in range(n - 1):
        power = power @ alg.alpha
    return twist_representation(rep, power, alg, checked=False)


def ideal_representation(basis: Sequence[Vector], alg: HomAlgebra,
                         checked: bool = True) -> Representation:
    """Representation on a two-sided ideal, in the coordinates of the given
    basis; actions are the restricted multiplications."""
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


def semidirect_product(alg: HomAlgebra, rep: Representation) -> HomAlgebra:
    """Algebra on A + V: products act on the V component through the action
    families, twist is alpha (+) phi.  Basis order: A basis first, then V."""
    _require_match(rep, alg)
    n, m = alg.dim, rep.carrier_dim
    total = n + m
    zeros_a, zeros_v = (_ZERO,) * n, (_ZERO,) * m

    def build(t: StructureTensor, left: ActionTensor,
              right: ActionTensor) -> StructureTensor:
        products = {key: Vector(v.entries + zeros_v) for key, v in t.products.items()}
        for i, c, col in left.columns():  # A times V: left action
            products[(i, n + c)] = Vector(zeros_a + col)
        for j, c, col in right.columns():  # V times A: right action
            products[(n + c, j)] = Vector(zeros_a + col)
        return StructureTensor.from_products(total, products)

    alpha = Matrix.block_diag(alg.alpha, rep.phi)
    return HomAlgebra(total, alg.kind, alpha,
                      **{name: build(t, *rep.action_pair(name))
                         for name, t in alg.tensors().items()})
