"""Exact rational vectors, matrices, and Gaussian elimination.

Every entry is a :class:`fractions.Fraction`, so all arithmetic in the
package is exact; there is no tolerance anywhere.  Values are immutable
after construction and all operations are pure functions.

Conventions fixed once for the whole package:

* a linear map sends the j-th basis vector to column j of its matrix,
  ``f(e_j) = sum_i M[i][j] e_i``;
* composition ``(f o g)(x) = f(g(x))`` corresponds to the product ``F @ G``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Callable, Iterable, Sequence, Union

from .errors import ShapeError

Rational = Union[Fraction, int, str]


_ZERO = Fraction(0)
_ONE = Fraction(1)


def frac(value: Rational) -> Fraction:
    """Coerce an int, a string like ``"3/2"``, or a Fraction to a Fraction.
    A zero that is not yet a Fraction becomes one shared ``Fraction(0)``,
    so the zero entries of vectors and matrices built from ints share it.
    A float is refused with ``TypeError``: ``0.1`` is not ``1/10``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"inexact float {value!r}: give an int, a Fraction or a string")
    return _ZERO if value == 0 else Fraction(value)


def _nonzero_ints(vectors: dict) -> tuple[int, dict]:
    """``(den, ints)`` of a dict of Fraction sequences: ``den`` is the lcm
    of their entries' denominators and ``ints[key]`` lists ``(k, den q)``
    for each nonzero entry ``q`` at index ``k`` of ``vectors[key]``."""
    nonzero = {key: [(k, q) for k, q in enumerate(v) if q is not _ZERO and q]
               for key, v in vectors.items()}
    den = lcm(*{q.denominator for v in nonzero.values() for _, q in v})
    return den, {key: [(k, q.numerator * (den // q.denominator)) for k, q in v]
                 for key, v in nonzero.items()}


def _fraction_row(entries: Iterable[Rational]) -> tuple[Fraction, ...]:
    """The entries as a tuple of Fractions.  Most rows are built from
    entries that are already Fractions, and such a tuple is kept as it is."""
    row = tuple(entries)
    if set(map(type, row)) <= {Fraction}:
        return row
    return tuple(map(frac, row))


class Vector:
    """Immutable vector with exact rational entries."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Rational]):
        object.__setattr__(self, "entries", _fraction_row(entries))

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    @classmethod
    def zero(cls, dim: int) -> "Vector":
        return cls([_ZERO] * dim)

    @classmethod
    def unit(cls, dim: int, index: int) -> "Vector":
        if not 0 <= index < dim:
            raise ShapeError(f"unit index {index} out of range for dim {dim}")
        return cls([_ONE if i == index else _ZERO for i in range(dim)])

    @property
    def dim(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        # The shared zero is skipped by identity, with no method call.
        for q in self.entries:
            if q is not _ZERO and q:
                return False
        return True

    def scale(self, c: Rational) -> "Vector":
        c = frac(c)
        return Vector(c * e for e in self.entries)

    def _check(self, other: "Vector") -> None:
        if self.dim != other.dim:
            raise ShapeError(f"vector dims differ: {self.dim} vs {other.dim}")

    def __add__(self, other: "Vector") -> "Vector":
        self._check(other)
        return Vector(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check(other)
        return Vector(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> "Vector":
        return Vector(-e for e in self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"Vector({list(self.entries)!r})"


class Matrix:
    """Immutable rows x cols matrix with exact rational entries."""

    __slots__ = ("rows", "cols", "entries", "_ints")

    def __init__(self, entries: Iterable[Iterable[Rational]], rows: int | None = None,
                 cols: int | None = None):
        grid = tuple(map(_fraction_row, entries))
        if rows is None:
            rows = len(grid)
        if cols is None:
            cols = len(grid[0]) if grid else 0
        if len(grid) != rows or any(len(r) != cols for r in grid):
            raise ShapeError("ragged or mis-sized matrix data")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", grid)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _trusted(cls, grid: tuple, rows: int, cols: int) -> "Matrix":
        """A matrix of ``grid``, a tuple of ``rows`` tuples of ``cols``
        Fractions each, kept as it is with no check or copy."""
        out = object.__new__(cls)
        object.__setattr__(out, "rows", rows)
        object.__setattr__(out, "cols", cols)
        object.__setattr__(out, "entries", grid)
        return out

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls([(_ZERO,) * cols] * rows, rows, cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)], n, n)

    @classmethod
    def from_cols(cls, cols: Sequence[Vector]) -> "Matrix":
        if not cols:
            return cls.zero(0, 0)
        dim = cols[0].dim
        if any(c.dim != dim for c in cols):
            raise ShapeError("columns of differing dimension")
        return cls([[c[i] for c in cols] for i in range(dim)], dim, len(cols))

    @classmethod
    def block(cls, grid: Sequence[Sequence["Matrix"]]) -> "Matrix":
        """Assemble a matrix from a grid of consistently sized blocks; its
        width is that of the block rows, even of a block row of height 0."""
        cols = sum(b.cols for b in grid[0]) if grid else 0
        rows = []
        for block_row in grid:
            height = block_row[0].rows
            if any(b.rows != height for b in block_row):
                raise ShapeError("block row heights differ")
            if sum(b.cols for b in block_row) != cols:
                raise ShapeError("block row widths differ")
            for i in range(height):
                rows.append(tuple(chain.from_iterable(b.entries[i] for b in block_row)))
        return cls(rows, len(rows), cols)

    @classmethod
    def block_diag(cls, a: "Matrix", b: "Matrix") -> "Matrix":
        """``a (+) b``, its :meth:`stored` rows built from theirs."""
        right, left = (_ZERO,) * b.cols, (_ZERO,) * a.cols
        out = cls([row + right for row in a.entries] + [left + row for row in b.entries],
                  a.rows + b.rows, a.cols + b.cols)
        (da, rows_a), (db, rows_b) = a.stored(), b.stored()
        d = lcm(da, db)
        rows = {i: [(k, d // da * x) for k, x in row] for i, row in rows_a.items()}
        rows.update({a.rows + i: [(a.cols + k, d // db * x) for k, x in row]
                     for i, row in rows_b.items()})
        object.__setattr__(out, "_ints", (d, rows))
        return out

    def stored(self) -> tuple[int, dict]:
        """``(den, rows)``: the lcm of the entry denominators and, for each row
        ``i``, ``rows[i]`` listing ``(j, den M[i][j])`` if nonzero; kept once computed."""
        try:
            return self._ints
        except AttributeError:
            object.__setattr__(self, "_ints", _nonzero_ints(dict(enumerate(self.entries))))
            return self._ints

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self.entries[i][j]

    def row(self, i: int) -> Vector:
        return Vector(self.entries[i])

    def col(self, j: int) -> Vector:
        return Vector(row[j] for row in self.entries)

    def is_zero(self) -> bool:
        return not any(map(any, self.entries))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def scale(self, c: Rational) -> "Matrix":
        c = frac(c)
        return Matrix((c * e for e in row) for row in self.entries)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("matrix shapes differ in addition")
        return Matrix((a + b for a, b in zip(r1, r2))
                      for r1, r2 in zip(self.entries, other.entries))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-1)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by "
                             f"{other.rows}x{other.cols}")
        # Both factors' stored ints: the product is an int matrix over da db.
        da, left = self.stored()
        db, right = other.stored()
        rows = []
        for i in range(self.rows):
            acc = [0] * other.cols
            for k, x in left[i]:
                for j, y in right[k]:
                    acc[j] += x * y
            rows.append(tuple([Fraction(v, da * db) if v else _ZERO for v in acc]))
        return Matrix(rows, self.rows, other.cols)

    def apply(self, v: Vector) -> Vector:
        if self.cols != v.dim:
            raise ShapeError(f"cannot apply {self.rows}x{self.cols} to dim-{v.dim}")
        return Vector(sum((a * b for a, b in zip(row, v.entries)), Fraction(0))
                      for row in self.entries)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"Matrix({[list(r) for r in self.entries]!r})"


@dataclass(frozen=True)
class AffineSolution:
    """Solution set of a consistent linear system: particular + kernel span."""

    particular: Vector
    kernel: tuple[Vector, ...]


def _clear(row: dict[int, int], pivot: dict[int, int], c: int) -> dict[int, int]:
    """``row`` with column ``c`` cleared by an integer combination with
    ``pivot`` (nonzero at ``c``), divided by its content."""
    f, p = row[c], pivot[c]
    g = gcd(f, p)
    f, p = f // g, p // g
    out = {k: p * x for k, x in row.items()}
    for k, y in pivot.items():
        v = out.get(k, 0) - f * y
        if v:
            out[k] = v
        else:
            del out[k]
    g = gcd(*out.values())
    return out if g == 1 else {k: x // g for k, x in out.items()}


def _echelon(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Fraction-free Gauss-Jordan on sparse int rows ``{column: int}``:
    ``{pivot column: reduced row}``.  A row is cleared at each pivot column
    it holds, then, if nonzero, pivots at its first column and is cleared
    from the other pivot rows.  Rows are kept divided by their content with
    a positive pivot entry; divided by it, each is its row of the (unique)
    reduced row echelon form."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        for c in [c for c in row if c in pivots]:
            row = _clear(row, pivots[c], c)
        if not row:
            continue
        lead = min(row)
        g = gcd(*row.values())
        if row[lead] < 0:
            g = -g
        if g != 1:
            row = {k: x // g for k, x in row.items()}
        for c, other in pivots.items():
            if lead in other:
                pivots[c] = _clear(other, row, lead)
        pivots[lead] = row
    return pivots


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of dense rational rows, by :func:`_echelon`
    on their ints: the pivot rows, 1 at their pivots, then the zero rows.
    Returns the reduced rows and the pivot columns."""
    ncols = len(rows[0]) if rows else 0
    echelon = _echelon(map(dict, _nonzero_ints(dict(enumerate(rows)))[1].values()))
    pivots = sorted(echelon)
    reduced = [[_ZERO] * ncols for _ in rows]
    for out, c in zip(reduced, pivots):
        for k, x in echelon[c].items():
            out[k] = Fraction(x, echelon[c][c])
    return reduced, pivots


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
    """Basis of the null space of ``a``; empty iff ``a`` is injective."""
    if a.cols == 0:
        return []
    if a.rows == 0:
        return [Vector.unit(a.cols, j) for j in range(a.cols)]
    rows, pivots = _rref([list(r) for r in a.entries])
    return _kernel_from_rref(rows, pivots, a.cols)


def solve_linear(a: Matrix, b: Vector) -> AffineSolution | None:
    """Solve ``a x = b`` exactly.

    Returns None iff the system is inconsistent, otherwise a particular
    solution together with a kernel basis describing all solutions.
    """
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


def format_lincomb(v: Iterable[Fraction], symbol: str = "e") -> str:
    """Render a vector, or a sequence of its entries, as a linear
    combination such as ``3/2 e1 - e2``; a zero vector is ``0``."""
    parts: list[str] = []
    for i, c in enumerate(v):
        if c is _ZERO or not c:  # the shared zero needs no method call
            continue
        name = f"{symbol}{i + 1}"
        mag = abs(c)
        body = name if mag == 1 else f"{mag} {name}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"
