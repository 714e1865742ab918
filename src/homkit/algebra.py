"""Structure-constant model of Hom-algebras and the algebra-level checkers.

An algebra is given by one or two multiplication tables (structure
tensors) together with a twisting endomorphism alpha.  Checks are
exhaustive over basis tuples, which is sufficient by multilinearity, and
they are modular: an algebra may fail one axiom and still be fed to any
construction or solver that does not require it.  Each check and
construction names its inputs once, in one :class:`homkit.kernel.SparseIndex`.
"""

from __future__ import annotations

from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .errors import KindMismatchError, ShapeError
from .kernel import SparseIndex, SparseMap, groups_then_vectors, row_term, walk
from .linalg import (
    _ZERO, Matrix, Vector, _cells, _dense, _echelon, _lowest_terms, _remainder, _Stored, _Value,
    grouped, sparse,
)
from .reporting import CheckReport, CheckResult, Witness, require, scan_identity

ASSOCIATIVE = "associative"
LEIBNIZ = "leibniz"
POISSON = "poisson"
KINDS = (ASSOCIATIVE, LEIBNIZ, POISSON)

# Which multiplication tables each kind carries.
TENSORS_BY_KIND = {
    ASSOCIATIVE: ("dot",),
    LEIBNIZ: ("bracket",),
    POISSON: ("dot", "bracket"),
}

# The pairing table: each multiplication table and the (left, right)
# action families a representation pairs with it.
ACTIONS_OF = {"dot": ("lambda_l", "lambda_r"), "bracket": ("rho_l", "rho_r")}


def _check_pair(dim: int, key: tuple[int, int]) -> None:
    i, j = key
    if not (0 <= i < dim and 0 <= j < dim):
        raise ShapeError(f"product index {key} out of range for dim {dim}")


class StructureTensor(_Stored):
    """Bilinear product on a dim-dimensional space, kept as :meth:`stored`
    ``(den, products)``: each nonzero basis product ``mu(e_i, e_j)``, keys
    in sorted order, as the sparse vector of its entries times ``den``.

    ``products``, the read-only mapping ``(i, j) -> Vector`` of the nonzero
    products, is a view computed on each read; ``basis_product`` reads only
    its one stored product.  Two tensors with the same
    products are equal and hash equal however they were built, and every
    pass over a table costs time in its nonzero products only."""

    __slots__ = ("dim",)

    def __init__(self, dim: int, products: Mapping[tuple[int, int], Sequence]):
        vectors = {}
        for key, value in sorted(products.items(), key=itemgetter(0)):
            _check_pair(dim, key)
            vectors[key] = value.entries if isinstance(value, Vector) else tuple(value)
            if len(vectors[key]) != dim:
                raise ShapeError("product value has wrong dimension")
        self._store(_lowest_terms(_cells(vectors)), dim)

    @classmethod
    def from_products(cls, dim: int,
                      products: Mapping[tuple[int, int], Sequence]) -> "StructureTensor":
        """Build from basis products; unlisted and zero entries are zero."""
        return cls(dim, products)

    @property
    def products(self) -> Mapping[tuple[int, int], Vector]:
        (den, ints), made = self._ints, {}
        return MappingProxyType({key: Vector(_dense(den, v, self.dim, made))
                                 for key, v in ints.items()})

    @classmethod
    def from_function(cls, dim: int,
                      fn: Callable[[int, int], Vector]) -> "StructureTensor":
        return cls(dim, {(i, j): fn(i, j) for i in range(dim) for j in range(dim)})

    def basis_product(self, i: int, j: int) -> Vector:
        """``mu(e_i, e_j)``, a zero vector for an unlisted pair."""
        _check_pair(self.dim, (i, j))
        den, ints = self._ints
        return Vector(_dense(den, ints.get((i, j), ()), self.dim, {}))

    def product(self, x: Vector, y: Vector) -> Vector:
        """Bilinear extension of the table to arbitrary vectors."""
        if x.dim != self.dim or y.dim != self.dim:
            raise ShapeError("operand dimension does not match the tensor")
        xs, ys = x.entries, y.entries
        den, ints = self._ints
        out = [_ZERO] * self.dim
        for (i, j), v in ints.items():
            xi, yj = xs[i], ys[j]
            if xi and yj:
                c = xi * yj
                for k, e in v:
                    out[k] += c * e
        return Vector([q / den if q else _ZERO for q in out])

    def coefficient(self, i: int, j: int, k: int):
        """Structure constant: coefficient of ``e_k`` in ``mu(e_i, e_j)``."""
        if not 0 <= k < self.dim:
            raise ShapeError(f"basis index {k} out of range for dim {self.dim}")
        return self.basis_product(i, j)[k]

    def __repr__(self) -> str:
        return f"StructureTensor(dim={self.dim})"


class HomAlgebra(_Value):
    """Finite-dimensional algebra with a twist map.

    ``kind`` decides which tables are present: associative algebras carry
    ``dot``, Leibniz algebras carry ``bracket``, Poisson algebras carry
    both over one shared twist.
    """

    __slots__ = ("dim", "kind", "alpha", "dot", "bracket")

    def __init__(self, dim: int, kind: str, alpha: Matrix,
                 dot: StructureTensor | None = None,
                 bracket: StructureTensor | None = None):
        self._set(dim, kind, alpha, dot, bracket)
        if self.kind not in KINDS:
            raise KindMismatchError(f"unknown kind {self.kind!r}")
        needed = TENSORS_BY_KIND[self.kind]
        if any((name in needed) != (getattr(self, name) is not None)
               for name in ACTIONS_OF):
            raise KindMismatchError(
                f"kind {self.kind!r} requires exactly the tensors {needed}")
        if self.alpha.rows != self.dim or self.alpha.cols != self.dim:
            raise ShapeError("alpha must be a square matrix of the algebra dim")
        if any(t.dim != self.dim for t in self.tensors().values()):
            raise ShapeError("structure tensor dim differs from algebra dim")

    def tensors(self) -> dict[str, StructureTensor]:
        """The tables of this kind by name, in the order of ``ACTIONS_OF``."""
        return {name: getattr(self, name) for name in TENSORS_BY_KIND[self.kind]}

    def __repr__(self) -> str:
        return f"HomAlgebra(dim={self.dim}, kind={self.kind!r})"


# The identity groups of each kind: its tables, then the Poisson cross group.
_GROUPS = {**TENSORS_BY_KIND, POISSON: (*TENSORS_BY_KIND[POISSON], POISSON)}


# The degree-3 identity of each group at a basis triple (i, j, k), as rows
# of :func:`homkit.kernel.row_term`'s grammar.
_TRIPLES = {
    "dot": ("hom_associative", (1, "dot", "dot", 0, 1), (-1, "dot", "dot")),
    "bracket": ("hom_leibniz", (1, "bracket", "bracket", 0, 1), (-1, "bracket", "bracket"),
                (-1, "bracket", "bracket", 1, 1)),
    POISSON: ("poisson_compatibility", (1, "dot", "bracket", 0, 1), (-1, "dot", "bracket"),
              (-1, "bracket", "dot", 1, 1)),
}


def _identity(a: SparseIndex, group: str) -> CheckResult:
    """The degree-3 identity of ``group`` (:data:`_TRIPLES`), scanned slice by
    slice (:func:`walk`): the first failing touched key is the first failing tuple."""
    name, *rows = _TRIPLES[group]
    n = len(a.alpha.rows)
    return scan_identity(name, *walk(n, n, [row_term(a, a, *row) for row in rows]),
                         denominator=a.d ** 3)


def _carries(o: SparseMap, e: int, d: int, twist: tuple | None, products,
             sign: int = 1) -> CheckReport:
    """Does ``O: V -> A``, a map over ``e``, carry source products on V onto
    A's tables, over ``d``?  First, for a ``twist`` ``(name, phi, alpha)``,
    ``O(phi e_j) - alpha(O e_j)`` at ``(j,)`` over ``e d``, from the ``sparse``
    columns of phi and the map of alpha; then, for each ``(name, target,
    carried)`` of ``products``, ``sign mu(O e_u, O e_v)`` from the target table
    grouped by first index, plus the kernel terms ``carried`` of ``-sign
    O(src(e_u, e_v))``, at ``(u, v)`` over ``e**2 d``: the source is never
    summed.  The multiplicative, morphism, relative Rota-Baxter, Rota-Baxter
    and Nijenhuis checks are all this walk."""
    width, count = len(o.rows), len(o.cols)
    checks = []
    if twist is not None:  # each column j alone at (j,)
        name, phi, alpha = twist
        checks.append(scan_identity(name, *walk(width, count, [
            groups_then_vectors(c, {j: ((0, col),) for j, col in cols.items()}, vectors, True)
            for c, cols, vectors in ((1, phi, o.cols), (-1, o.cols, alpha.cols))]),
            denominator=e * d))
    for name, target, carried in products:
        checks.append(scan_identity(name, *walk(width, count, [o.term(sign, target), *carried]),
                                    denominator=e * e * d))
    return CheckReport(tuple(checks))


def _multiplicative(alg: HomAlgebra, a: SparseIndex) -> CheckReport:
    # d alpha(mu(e_i, e_j)) - mu(alpha e_i, alpha e_j): alpha carries each table onto itself
    products = ((f"multiplicative:{name}", a.by_first[name],
                 (groups_then_vectors(a.d, a.by_first[name], a.alpha.cols),))
                for name in alg.tensors())
    return _carries(a.alpha, a.d, a.d, None, products, sign=-1)


def check_multiplicative(alg: HomAlgebra) -> CheckReport:
    """Is alpha an endomorphism for every product?

    Verifies ``alpha(mu(e_i, e_j)) = mu(alpha e_i, alpha e_j)`` on all
    basis pairs, separately for each table.
    """
    return _multiplicative(alg, SparseIndex(alg.alpha, alg.tensors()))


def _one_table(t: StructureTensor, alpha: Matrix, name: str) -> CheckReport:
    if alpha.rows != t.dim or alpha.cols != t.dim:
        raise ShapeError("twist map size differs from tensor dim")
    return CheckReport((_identity(SparseIndex(alpha, {name: t}), name),))


def check_hom_associative(t: StructureTensor, alpha: Matrix) -> CheckReport:
    """Twisted associator test: ``mu(mu(x,y), alpha z) = mu(alpha x, mu(y,z))``
    on all basis triples."""
    return _one_table(t, alpha, "dot")


def check_hom_leibniz(t: StructureTensor, alpha: Matrix) -> CheckReport:
    """Right Leibniz test: ``[[x,y], alpha z] = [alpha x, [y,z]] + [[x,z], alpha y]``
    on all basis triples."""
    return _one_table(t, alpha, "bracket")


def check_poisson_compat(alg: HomAlgebra) -> CheckReport:
    """Compatibility of the two products:
    ``[x.y, alpha z] = (alpha x).[y,z] + [x,z].(alpha y)`` on basis triples."""
    if alg.kind != POISSON:
        raise KindMismatchError("poisson compatibility needs a poisson algebra")
    return CheckReport((_identity(SparseIndex(alg.alpha, alg.tensors()), POISSON),))


def check_algebra(alg: HomAlgebra) -> CheckReport:
    """All checks that apply to the algebra's kind, in a fixed order.

    Each identity sums its terms over the nonzero products and twist
    entries only, so a sparse algebra costs time in its nonzero structure
    constants, not in its ``dim**3`` basis triples."""
    a = SparseIndex(alg.alpha, alg.tensors())
    return CheckReport(_multiplicative(alg, a).checks
                       + tuple(_identity(a, group) for group in _GROUPS[alg.kind]))


def check_morphism(f: Matrix, src: HomAlgebra, dst: HomAlgebra) -> CheckReport:
    """Is ``f`` a morphism of Hom-algebras?

    Verifies ``f . alpha_src = alpha_dst . f`` and, for each table,
    ``f(mu_src(e_i, e_j)) = mu_dst(f e_i, f e_j)``.
    """
    if src.kind != dst.kind:
        raise KindMismatchError("morphism endpoints must have the same kind")
    if f.cols != src.dim or f.rows != dst.dim:
        raise ShapeError("morphism matrix shape must be dst.dim x src.dim")
    a = SparseIndex(dst.alpha, dst.tensors(), *src.tensors().values(), f=f, src=src.alpha)
    # d f(mu_src(e_i, e_j)) - mu_dst(f e_i, f e_j)
    f, twist = a.maps["f"], ("intertwines_twist", a.maps["src"].cols, a.alpha)
    products = ((f"preserves:{name}", a.by_first[name],
                 (groups_then_vectors(a.d, grouped(sparse(t, a.d)), f.cols),))
                for name, t in src.tensors().items())
    return _carries(f, a.d, a.d, twist, products, sign=-1)


def _require_square(alg: HomAlgebra, op: Matrix, what: str) -> None:
    if not op.is_square() or op.rows != alg.dim:
        raise ShapeError(f"{what} must be square of the algebra dim")


def _require_self_morphism(beta: Matrix, alg: HomAlgebra) -> None:
    require(check_morphism(beta, alg, alg), "twisting map is not a self-morphism")


def _ideal(basis: Sequence[Vector], alg: HomAlgebra) -> tuple[int, dict, dict]:
    """``(d, cols, values)`` of :func:`check_ideal`: the basis ``v_b`` as ``sparse``
    columns over ``d`` and, by check, the values ``alpha v_b`` at ``(b,)`` and per table
    ``mu(v_b, e_a)``, ``mu(e_a, v_b)`` at ``(b, a)``, from nonzero entries, over ``d**2``."""
    vecs = list(basis)
    if any(v.dim != alg.dim for v in vecs):
        raise ShapeError("ideal basis vectors must live in the algebra")
    a = SparseIndex(alg.alpha, alg.tensors(), span=Matrix.from_cols(vecs))
    s = a.maps["span"]
    values = {"twist_stable": {(b,): v for b, v in a.alpha.images(s.cols).items()}}
    for name in alg.tensors():
        for side, by in (("right", a.by_first), ("left", a.by_second)):
            values[f"closed_{side}:{name}"] = s.sums(alg.dim, s.term(1, by[name], right=False))
    return a.d, s.cols, values


def check_ideal(basis: Sequence[Vector], alg: HomAlgebra) -> CheckReport:
    """Two-sided ideal test for the span of the given vectors: twist stability and
    absorption on both sides per table.  The witness residual is the offending value."""
    d, cols, values = _ideal(basis, alg)
    pivots, checks = _echelon(map(dict, cols.values())), []
    for check, sums in values.items():
        # The witness: the first value in key order not cleared at the pivots.
        bad = next((key for key in sorted(sums) if _remainder(dict(sums[key]), pivots)), None)
        checks.append(CheckResult(check, bad is None, bad and Witness(
            bad, Vector(_dense(d ** 2, sums[bad], alg.dim, {})))))
    return CheckReport(tuple(checks))


def yau_twist(alg: HomAlgebra, beta: Matrix, checked: bool = True) -> HomAlgebra:
    """Twist every product by a self-morphism:
    ``mu_new(x, y) = mu(beta x, beta y)`` with new twist ``beta . alpha``.

    ``beta`` must be a self-morphism of the algebra (hence commuting with
    the twist); this is verified unless ``checked`` is False.
    """
    _require_square(alg, beta, "twisting map")
    if checked:
        _require_self_morphism(beta, alg)
    dim, a = alg.dim, SparseIndex(None, alg.tensors(), beta=beta)
    b = a.maps["beta"]
    # mu(beta e_i, beta e_j), over the nonzero products and entries of beta.
    return HomAlgebra(dim, alg.kind, beta @ alg.alpha, **{
        name: StructureTensor._from_form(
            dim, a.d ** 3, b.sums(dim, b.term(1, a.by_first[name])))
        for name in alg.tensors()})
