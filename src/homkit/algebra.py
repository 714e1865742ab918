"""Structure-constant model of Hom-algebras and the algebra-level checkers.

An algebra is given by one or two multiplication tables (structure
tensors) together with a twisting endomorphism alpha.  Checks are
exhaustive over basis tuples, which is sufficient by multilinearity, and
they are modular: an algebra may fail one axiom and still be fed to any
construction or solver that does not require it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .errors import KindMismatchError, ShapeError
from .kernel import Accumulator, common_denominator, grouped, rationals, sparse
from .linalg import _ZERO, Matrix, Vector, _nonzero_ints, span_membership
from .reporting import CheckReport, CheckResult, require, scan_identity, scan_membership

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


@dataclass(frozen=True, slots=True, repr=False)
class StructureTensor:
    """Bilinear product on a dim-dimensional space, stored as its nonzero
    basis products ``products[(i, j)] = mu(e_i, e_j)``.

    ``products`` is a read-only mapping with its keys in sorted ``(i, j)``
    order and no zero values, so two tensors with the same products are
    equal and hash equal however they were built, and every pass over a
    table costs time in its nonzero products only."""

    dim: int
    products: Mapping[tuple[int, int], Vector]
    _ints: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        dim, kept = self.dim, {}
        for key, value in sorted(self.products.items(), key=itemgetter(0)):
            i, j = key
            if not (0 <= i < dim and 0 <= j < dim):
                raise ShapeError(f"product index {key} out of range for dim {dim}")
            v = value if isinstance(value, Vector) else Vector(value)
            if v.dim != dim:
                raise ShapeError("product value has wrong dimension")
            if not v.is_zero():
                kept[(i, j)] = v
        object.__setattr__(self, "products", MappingProxyType(kept))

    def __hash__(self) -> int:
        return hash((self.dim, tuple(self.products.items())))

    @classmethod
    def zero(cls, dim: int) -> "StructureTensor":
        return cls(dim, {})

    @classmethod
    def from_products(cls, dim: int,
                      products: Mapping[tuple[int, int], Sequence]) -> "StructureTensor":
        """Build from basis products; unlisted and zero entries are zero."""
        return cls(dim, products)

    @classmethod
    def _from_form(cls, dim: int, den: int, products: dict) -> "StructureTensor":
        """The tensor of the sparse int ``products`` over ``den``, kept as :meth:`stored`."""
        form, fractions = rationals(den, products, dim)
        out = cls(dim, fractions)
        object.__setattr__(out, "_ints", form)
        return out

    def stored(self) -> tuple[int, dict]:
        """``(den, products)``: the lcm of the entry denominators and each nonzero
        product times it as a sparse vector, in key order; kept once computed."""
        if self._ints is None:
            object.__setattr__(self, "_ints", _nonzero_ints(
                {key: v.entries for key, v in self.products.items()}))
        return self._ints

    @classmethod
    def from_function(cls, dim: int,
                      fn: Callable[[int, int], Vector]) -> "StructureTensor":
        return cls(dim, {(i, j): fn(i, j) for i in range(dim) for j in range(dim)})

    def basis_product(self, i: int, j: int) -> Vector:
        v = self.products.get((i, j))
        return Vector.zero(self.dim) if v is None else v

    def product(self, x: Vector, y: Vector) -> Vector:
        """Bilinear extension of the table to arbitrary vectors."""
        if x.dim != self.dim or y.dim != self.dim:
            raise ShapeError("operand dimension does not match the tensor")
        xs, ys = x.entries, y.entries
        out = [_ZERO] * self.dim
        for (i, j), v in self.products.items():
            xi, yj = xs[i], ys[j]
            if xi and yj:
                c = xi * yj
                for k, e in enumerate(v.entries):
                    if e:
                        out[k] += c * e
        return Vector(out)

    def coefficient(self, i: int, j: int, k: int):
        """Structure constant: coefficient of ``e_k`` in ``mu(e_i, e_j)``."""
        return self.basis_product(i, j)[k]

    def __repr__(self) -> str:
        return f"StructureTensor(dim={self.dim})"


@dataclass(frozen=True, slots=True, repr=False)
class HomAlgebra:
    """Finite-dimensional algebra with a twist map.

    ``kind`` decides which tables are present: associative algebras carry
    ``dot``, Leibniz algebras carry ``bracket``, Poisson algebras carry
    both over one shared twist.
    """

    dim: int
    kind: str
    alpha: Matrix
    dot: StructureTensor | None = None
    bracket: StructureTensor | None = None

    def __post_init__(self):
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


class _Sparse:
    """A twist and its tables over their common denominator ``d`` and any
    ``more`` parts: the twist's nonzero rows and columns (``rows[a]``
    lists ``(k, d alpha[a][k])``, ``cols[k]`` lists ``(a, d alpha[a][k])``),
    each table's nonzero products as ``sparse`` vectors, also grouped by
    their first index (``by_first``), and each table twisted on one side,
    built on first use."""

    __slots__ = ("d", "alpha", "rows", "cols", "tables", "by_first", "_twisted")

    def __init__(self, alpha: Matrix, tensors: dict[str, StructureTensor], *more):
        d = self.d = common_denominator(alpha, *tensors.values(), *more)
        self.alpha = _SparseMap(alpha, d)
        self.rows, self.cols = self.alpha.rows, self.alpha.cols
        self.tables = {name: sparse(t, d) for name, t in tensors.items()}
        self.by_first = {name: grouped(table) for name, table in self.tables.items()}
        self._twisted = {}

    def twisted(self, name: str, left: bool, by: int = 0) -> dict:
        """``mu(alpha e_r, e_a)`` at ``(r, a)`` (``left``), or
        ``mu(e_a, alpha e_r)`` at ``(a, r)``, grouped by the first index
        of the key or, if ``by`` is 1, the second, as ``sparse`` vectors
        of degree 2, over the nonzero products and twist entries."""
        if (name, left, by) not in self._twisted:
            a = self.alpha
            acc = a.sums(len(self.rows), a.term(1, self.by_first[name], left, not left))
            self._twisted[name, left, by] = grouped(acc.terms(), by)
        return self._twisted[name, left, by]

    def scan(self, name: str, *adders) -> CheckResult:
        """Scan a degree-3 residual slice by slice (:meth:`Accumulator.slices`):
        an untouched tuple's residual is exactly zero, so the first failing
        key is the lexicographically first failing tuple."""
        n = len(self.rows)
        acc = Accumulator(n)
        return scan_identity(name, acc.slices(n, adders), lambda *key: acc[key],
                             denominator=self.d ** 3)

    def outer_left(self, sign: int, inner: str, outer: str, swap: bool = False):
        """Slices of ``sign mu_outer(mu_inner(e_i, e_j), alpha e_r)`` at
        ``(i, j, r)``, or at ``(i, r, j)`` if ``swap``."""
        by_left, twisted = self.by_first[inner], self.twisted(outer, False)

        def add(i, acc):
            for j, terms in by_left.get(i, ()):
                for a, c in terms:
                    for r, v in twisted.get(a, ()):
                        acc.add((i, r, j) if swap else (i, j, r), sign * c, v)
        return add

    def by_entry(self, name: str, sign: int) -> dict:
        """The products of table ``name`` by entry: ``by_entry[a]`` lists
        ``(p, q, sign c)`` for each entry ``c`` at ``e_a`` of ``mu(e_p, e_q)``."""
        out = {}
        for (p, q), terms in self.tables[name].items():
            for a, c in terms:
                out.setdefault(a, []).append((p, q, sign * c))
        return out

    def outer_right(self, sign: int, inner: str, outer: str):
        """Slices of ``sign mu_outer(alpha e_i, mu_inner(e_p, e_q))`` at
        ``(i, p, q)``."""
        by_entry, twisted = self.by_entry(inner, sign), self.twisted(outer, True)

        def add(i, acc):
            for a, v in twisted.get(i, ()):
                for p, q, c in by_entry.get(a, ()):
                    acc.add((i, p, q), c, v)
        return add

    def multiplicative(self, name: str) -> CheckResult:
        by_left, twisted = self.by_first[name], self.twisted(name, True)
        d, rows, cols = self.d, self.rows, self.cols

        def add(i, acc):
            # d alpha(mu(e_i, e_j)) - mu(alpha e_i, alpha e_j) at (i, j), the
            # second term as the sum of alpha[b][j] mu(alpha e_i, e_b)
            for j, terms in by_left.get(i, ()):
                for a, c in terms:
                    acc.add((i, j), d * c, cols[a])
            for b, v in twisted.get(i, ()):
                for j, y in rows[b]:
                    acc.add((i, j), -y, v)
        return self.scan(f"multiplicative:{name}", add)

    def hom_associative(self, mu: str) -> CheckResult:
        return self.scan("hom_associative", self.outer_left(1, mu, mu),
                         self.outer_right(-1, mu, mu))

    def hom_leibniz(self, mu: str) -> CheckResult:
        return self.scan("hom_leibniz", self.outer_left(1, mu, mu),
                         self.outer_right(-1, mu, mu),
                         self.outer_left(-1, mu, mu, swap=True))

    def poisson_compat(self) -> CheckResult:
        return self.scan("poisson_compatibility",
                         self.outer_left(1, "dot", "bracket"),
                         self.outer_right(-1, "bracket", "dot"),
                         self.outer_left(-1, "bracket", "dot", swap=True))


class _SparseMap:
    """A linear map ``T: V -> A`` over a common denominator ``d``: its
    nonzero rows (``rows[a]`` lists ``(u, d T[a][u])``), columns and unit
    vectors, and the adders of the terms of "product of images minus image
    of a degree-2 sum" at ``(u, v)`` in ``V x V``, checked by :meth:`walk`
    or summed by :meth:`sums` over the nonzero entries only."""

    __slots__ = ("rows", "cols", "units")

    def __init__(self, t: Matrix, d: int):
        self.rows, self.cols = sparse(t, d), {j: [] for j in range(t.cols)}
        for i, row in self.rows.items():
            for j, x in row:
                self.cols[j].append((i, x))
        self.units = [((k, 1),) for k in range(max(t.rows, t.cols))]

    def images(self, columns: dict) -> dict:
        """``T`` applied once to each ``sparse`` column, by the same key and
        one degree higher; zero images are left out."""
        acc = Accumulator(len(self.rows))
        for key, col in columns.items():
            for r, c in col:
                acc.add(key, c, self.cols[r])
        return {key: image for key, image in acc.terms().items() if image}

    def walk(self, *adders):
        """The ``indices`` and ``residual`` of ``scan_identity``: the touched
        keys slice by slice (:meth:`Accumulator.slices`) and their sums."""
        acc = Accumulator(len(self.rows))
        return acc.slices(len(self.cols), adders), lambda *key: acc[key]

    def sums(self, dim: int, *adders) -> Accumulator:
        """A construction's products or columns: the adders' terms, summed."""
        acc = Accumulator(dim)
        for u in range(len(self.cols)):
            for add in adders:
                add(u, acc)
        return acc

    def intertwines(self, phi_cols: dict, alpha: "_SparseMap"):
        """Adds ``T(phi e_j) - alpha(T e_j)`` at ``(j,)`` (degree 2), from
        the ``sparse`` columns of the twist of V and the twist of A."""
        sides = ((1, self.images(phi_cols)), (-1, alpha.images(self.cols)))

        def add(j, acc):
            for c, images in sides:
                if j in images:
                    acc.add((j,), c, images[j])
        return add

    def term(self, c: int, by_first: dict, left: bool = True, right: bool = True):
        """Adds ``c X(a, b)`` at ``(u, v)`` for each ``(b, X(a, b))`` in
        ``by_first[a]``, with ``a = T e_u`` if ``left`` (else ``u``) and
        ``b = T e_v`` if ``right`` (else ``v``): ``mu(T e_u, T e_v)`` from
        the products ``mu(e_a, e_b)``, ``T(act(T e_u) e_v)`` from the
        :meth:`images` of the action's columns, and so on."""
        firsts = self.cols if left else self.units
        seconds = self.rows if right else self.units

        def add(u, acc):
            for a, x in firsts[u]:
                for b, terms in by_first.get(a, ()):
                    for v, y in seconds[b]:
                        acc.add((u, v), c * x * y, terms)
        return add


def check_multiplicative(alg: HomAlgebra) -> CheckReport:
    """Is alpha an endomorphism for every product?

    Verifies ``alpha(mu(e_i, e_j)) = mu(alpha e_i, alpha e_j)`` on all
    basis pairs, separately for each table.
    """
    a = _Sparse(alg.alpha, alg.tensors())
    return CheckReport(tuple(a.multiplicative(name) for name in a.tables))


def _table_and_twist(t: StructureTensor, alpha: Matrix) -> _Sparse:
    if alpha.rows != t.dim or alpha.cols != t.dim:
        raise ShapeError("twist map size differs from tensor dim")
    return _Sparse(alpha, {"mu": t})


def check_hom_associative(t: StructureTensor, alpha: Matrix) -> CheckReport:
    """Twisted associator test: ``mu(mu(x,y), alpha z) = mu(alpha x, mu(y,z))``
    on all basis triples."""
    return CheckReport((_table_and_twist(t, alpha).hom_associative("mu"),))


def check_hom_leibniz(t: StructureTensor, alpha: Matrix) -> CheckReport:
    """Right Leibniz test: ``[[x,y], alpha z] = [alpha x, [y,z]] + [[x,z], alpha y]``
    on all basis triples."""
    return CheckReport((_table_and_twist(t, alpha).hom_leibniz("mu"),))


def check_poisson_compat(alg: HomAlgebra) -> CheckReport:
    """Compatibility of the two products:
    ``[x.y, alpha z] = (alpha x).[y,z] + [x,z].(alpha y)`` on basis triples."""
    if alg.kind != POISSON:
        raise KindMismatchError("poisson compatibility needs a poisson algebra")
    return CheckReport((_Sparse(alg.alpha, alg.tensors()).poisson_compat(),))


def check_algebra(alg: HomAlgebra) -> CheckReport:
    """All checks that apply to the algebra's kind, in a fixed order.

    Each identity sums its terms over the nonzero products and twist
    entries only, so a sparse algebra costs time in its nonzero structure
    constants, not in its ``dim**3`` basis triples."""
    a = _Sparse(alg.alpha, alg.tensors())
    checks = [a.multiplicative(name) for name in a.tables]
    if "dot" in a.tables:
        checks.append(a.hom_associative("dot"))
    if "bracket" in a.tables:
        checks.append(a.hom_leibniz("bracket"))
    if alg.kind == POISSON:
        checks.append(a.poisson_compat())
    return CheckReport(tuple(checks))


def check_morphism(f: Matrix, src: HomAlgebra, dst: HomAlgebra) -> CheckReport:
    """Is ``f`` a morphism of Hom-algebras?

    Verifies ``f . alpha_src = alpha_dst . f`` and, for each table,
    ``f(mu_src(e_i, e_j)) = mu_dst(f e_i, f e_j)``.
    """
    if src.kind != dst.kind:
        raise KindMismatchError("morphism endpoints must have the same kind")
    if f.cols != src.dim or f.rows != dst.dim:
        raise ShapeError("morphism matrix shape must be dst.dim x src.dim")
    dst_tensors = dst.tensors()
    a = _Sparse(src.alpha, src.tensors(), f, dst.alpha, *dst_tensors.values())
    d, fm = a.d, _SparseMap(f, a.d)
    checks = [scan_identity(
        "intertwines_twist", *fm.walk(fm.intertwines(a.cols, _SparseMap(dst.alpha, d))),
        denominator=d ** 2)]
    for name, table in a.tables.items():
        # d f(mu_src(e_i, e_j)) - mu_dst(f e_i, f e_j)
        checks.append(scan_identity(
            f"preserves:{name}",
            *fm.walk(fm.term(d, grouped(fm.images(table)), False, False),
                     fm.term(-1, grouped(sparse(dst_tensors[name], d)))),
            denominator=d ** 3))
    return CheckReport(tuple(checks))


def _require_self_morphism(beta: Matrix, alg: HomAlgebra) -> None:
    require(check_morphism(beta, alg, alg), "twisting map is not a self-morphism")


def check_ideal(basis: Sequence[Vector], alg: HomAlgebra) -> CheckReport:
    """Two-sided ideal test for the span of the given vectors.

    Verifies twist stability and two-sided absorption for every table via
    exact membership solves.  The witness residual is the offending value.
    """
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


def yau_twist(alg: HomAlgebra, beta: Matrix, checked: bool = True) -> HomAlgebra:
    """Twist every product by a self-morphism:
    ``mu_new(x, y) = mu(beta x, beta y)`` with new twist ``beta . alpha``.

    ``beta`` must be a self-morphism of the algebra (hence commuting with
    the twist); this is verified unless ``checked`` is False.
    """
    if beta.rows != alg.dim or beta.cols != alg.dim:
        raise ShapeError("twisting map must be square of the algebra dim")
    if checked:
        _require_self_morphism(beta, alg)

    dim = alg.dim
    d = common_denominator(beta, *alg.tensors().values())
    b = _SparseMap(beta, d)

    def twisted(t: StructureTensor) -> StructureTensor:
        # mu(beta e_i, beta e_j), over the nonzero products and entries of beta.
        acc = b.sums(dim, b.term(1, grouped(sparse(t, d))))
        return StructureTensor._from_form(dim, d ** 3, acc.terms())

    return HomAlgebra(dim, alg.kind, beta @ alg.alpha,
                      **{name: twisted(t) for name, t in alg.tensors().items()})
