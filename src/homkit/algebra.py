"""Structure-constant model of Hom-algebras and the algebra-level checkers.

An algebra is given by one or two multiplication tables (structure
tensors) together with a twisting endomorphism alpha.  Checks are
exhaustive over basis tuples, which is sufficient by multilinearity, and
they are modular: an algebra may fail one axiom and still be fed to any
construction or solver that does not require it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .errors import KindMismatchError, ShapeError
from .kernel import (
    Accumulator, IntMatrix, IntTensor, common_denominator, sparse, sub, times,
)
from .linalg import _ZERO, Matrix, Vector, span_membership
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


def _pairs(dim: int):
    return iproduct(range(dim), repeat=2)


def _triples(dim: int):
    return iproduct(range(dim), repeat=3)


class _IntAlgebra:
    """An algebra's twist and tables over their common denominator."""

    __slots__ = ("dim", "d", "alpha", "tensors")

    def __init__(self, alg: HomAlgebra):
        tensors = alg.tensors()
        self.dim = alg.dim
        self.d = common_denominator(alg.alpha, *tensors.values())
        self.alpha = IntMatrix(alg.alpha, self.d)
        self.tensors = {name: IntTensor(t, self.d) for name, t in tensors.items()}


def _multiplicative(a: _IntAlgebra) -> list[CheckResult]:
    d, alpha = a.d, a.alpha
    ac = alpha.cols
    return [scan_identity(
        f"multiplicative:{name}", _pairs(a.dim),
        lambda i, j, mu=mu: sub(times(d, alpha.apply(mu.table[i][j])),
                                mu.product(ac[i], ac[j])),
        denominator=d ** 3) for name, mu in a.tensors.items()]


def _hom_associative(mu: IntTensor, alpha: IntMatrix, d: int) -> CheckResult:
    ac, table = alpha.cols, mu.table
    return scan_identity(
        "hom_associative", _triples(mu.dim),
        lambda i, j, k: sub(mu.product(table[i][j], ac[k]),
                            mu.product(ac[i], table[j][k])),
        denominator=d ** 3)


def _hom_leibniz(mu: IntTensor, alpha: IntMatrix, d: int) -> CheckResult:
    ac, table = alpha.cols, mu.table
    return scan_identity(
        "hom_leibniz", _triples(mu.dim),
        lambda i, j, k: sub(sub(mu.product(table[i][j], ac[k]),
                                mu.product(ac[i], table[j][k])),
                            mu.product(table[i][k], ac[j])),
        denominator=d ** 3)


def _poisson_compat(a: _IntAlgebra) -> CheckResult:
    dot, br, ac = a.tensors["dot"], a.tensors["bracket"], a.alpha.cols
    return scan_identity(
        "poisson_compatibility", _triples(a.dim),
        lambda i, j, k: sub(sub(br.product(dot.table[i][j], ac[k]),
                                dot.product(ac[i], br.table[j][k])),
                            dot.product(br.table[i][k], ac[j])),
        denominator=a.d ** 3)


def check_multiplicative(alg: HomAlgebra) -> CheckReport:
    """Is alpha an endomorphism for every product?

    Verifies ``alpha(mu(e_i, e_j)) = mu(alpha e_i, alpha e_j)`` on all
    basis pairs, separately for each table.
    """
    return CheckReport(tuple(_multiplicative(_IntAlgebra(alg))))


def _tensor_and_twist(t: StructureTensor, alpha: Matrix):
    if alpha.rows != t.dim or alpha.cols != t.dim:
        raise ShapeError("twist map size differs from tensor dim")
    d = common_denominator(t, alpha)
    return IntTensor(t, d), IntMatrix(alpha, d), d


def check_hom_associative(t: StructureTensor, alpha: Matrix) -> CheckReport:
    """Twisted associator test: ``mu(mu(x,y), alpha z) = mu(alpha x, mu(y,z))``
    on all basis triples."""
    return CheckReport((_hom_associative(*_tensor_and_twist(t, alpha)),))


def check_hom_leibniz(t: StructureTensor, alpha: Matrix) -> CheckReport:
    """Right Leibniz test: ``[[x,y], alpha z] = [alpha x, [y,z]] + [[x,z], alpha y]``
    on all basis triples."""
    return CheckReport((_hom_leibniz(*_tensor_and_twist(t, alpha)),))


def check_poisson_compat(alg: HomAlgebra) -> CheckReport:
    """Compatibility of the two products:
    ``[x.y, alpha z] = (alpha x).[y,z] + [x,z].(alpha y)`` on basis triples."""
    if alg.kind != POISSON:
        raise KindMismatchError("poisson compatibility needs a poisson algebra")
    return CheckReport((_poisson_compat(_IntAlgebra(alg)),))


def check_algebra(alg: HomAlgebra) -> CheckReport:
    """All checks that apply to the algebra's kind, in a fixed order."""
    a = _IntAlgebra(alg)
    checks = _multiplicative(a)
    if "dot" in a.tensors:
        checks.append(_hom_associative(a.tensors["dot"], a.alpha, a.d))
    if "bracket" in a.tensors:
        checks.append(_hom_leibniz(a.tensors["bracket"], a.alpha, a.d))
    if alg.kind == POISSON:
        checks.append(_poisson_compat(a))
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
    src_tensors = src.tensors()
    dst_tensors = dst.tensors()
    d = common_denominator(f, src.alpha, dst.alpha,
                           *src_tensors.values(), *dst_tensors.values())
    fi = IntMatrix(f, d)
    src_alpha, dst_alpha = IntMatrix(src.alpha, d), IntMatrix(dst.alpha, d)
    checks = [scan_identity(
        "intertwines_twist", ((j,) for j in range(src.dim)),
        lambda j: sub(fi.apply(src_alpha.cols[j]), dst_alpha.apply(fi.cols[j])),
        denominator=d ** 2)]
    for name in src_tensors:
        ts, td = IntTensor(src_tensors[name], d), IntTensor(dst_tensors[name], d)
        checks.append(scan_identity(
            f"preserves:{name}", _pairs(src.dim),
            lambda i, j, ts=ts, td=td: sub(times(d, fi.apply(ts.table[i][j])),
                                           td.product(fi.cols[i], fi.cols[j])),
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
    rows = [sparse(row, d) for row in beta.entries]

    def twisted(t: StructureTensor) -> StructureTensor:
        # mu(beta e_i, beta e_j) = sum_{k,l} beta[k][i] beta[l][j] mu(e_k, e_l),
        # over the nonzero products mu(e_k, e_l).
        acc = Accumulator(dim)
        for (k, l), v in t.products.items():
            terms = sparse(v.entries, d)
            for i, x in rows[k]:
                for j, y in rows[l]:
                    acc.add((i, j), x * y, terms)
        return StructureTensor.from_products(dim, acc.rationals(d ** 3))

    return HomAlgebra(dim, alg.kind, beta @ alg.alpha,
                      **{name: twisted(t) for name, t in alg.tensors().items()})
