"""Exact rational vectors, matrices, and Gaussian elimination.

Every entry is an exact rational: a :class:`fractions.Fraction` in a
vector, and in a matrix one of its nonzero ints over the matrix's
denominator, read as Fractions through the ``entries`` view.  So all
arithmetic in the package is exact; there is no tolerance anywhere.
Values are immutable after construction and all operations are pure
functions.

This module owns that stored form (:class:`_Stored`): every matrix,
structure tensor and action family is built, shape first, by ``zero``,
``_from_cells`` (coefficients in lowest terms, as :func:`_cells` scans
dense input) or ``_from_form`` (ints over a multiple of the denominator,
reduced by :func:`rationals`), each normalising once.  Its helpers bring
stored forms over one denominator (:func:`common_denominator`, :func:`sparse`)
and re-key them (:func:`grouped`, :func:`transposed`) for every module.

Conventions fixed once for the whole package:

* a linear map sends the j-th basis vector to column j of its matrix,
  ``f(e_j) = sum_i M[i][j] e_i``;
* composition ``(f o g)(x) = f(g(x))`` corresponds to the product ``F @ G``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence, Union

from .errors import ShapeError

Rational = Union[Fraction, int, str]


_ZERO = Fraction(0)
_ONE = Fraction(1)


def frac(value: Rational) -> Fraction:
    """Coerce an int, a string like ``"3/2"``, or a Fraction to a Fraction.
    A zero that is not yet a Fraction becomes one shared ``Fraction(0)``,
    so the zero entries of vectors built from ints share it.
    A float is refused with ``TypeError``: ``0.1`` is not ``1/10``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"inexact float {value!r}: give an int, a Fraction or a string")
    return _ZERO if value == 0 else Fraction(value)


_EXACT = {Fraction, int}


def _cells(vectors: dict) -> Iterator[tuple[tuple, tuple[int, int]]]:
    """``((key, k), (num, den))`` for each nonzero entry at index ``k`` of
    ``vectors[key]``, in lowest terms with ``den > 0``: the coefficients of
    a dict of sequences of rationals for :func:`_lowest_terms`.  Entries
    other than ints and Fractions go through :func:`frac`."""
    for key, v in vectors.items():
        if not set(map(type, v)) <= _EXACT:
            v = map(frac, v)
        for k, q in enumerate(v):
            if q is not _ZERO and q:
                yield (key, k), (q.numerator, q.denominator)


def _lowest_terms(cells: Iterable[tuple[tuple, tuple[int, int]]]) -> tuple[int, dict]:
    """``(den, ints)`` of the coefficients ``((key, k), (num, den))``, each
    in lowest terms with ``den > 0`` and each ``(key, k)`` once: the lcm of
    the nonzero ones' denominators and, by key in sorted order, ``(k, int)``
    for each nonzero one in order of ``k``."""
    cells = sorted(cell for cell in cells if cell[1][0])
    den = lcm(*{d for _, (_, d) in cells})
    ints: dict = {}
    for (key, k), (n, d) in cells:
        ints.setdefault(key, []).append((k, n * (den // d)))
    return den, ints


def rationals(den: int, ints: dict) -> tuple[int, dict]:
    """The stored form of the rationals ``ints / den``, sparse vectors by
    key: the nonzero vectors in key order, reduced by the gcd of ``den``
    and every int, so that ``den`` is the lcm of the entries' reduced
    denominators."""
    ints = {key: ints[key] for key in sorted(ints) if ints[key]}
    g = gcd(den, *(x for v in ints.values() for _, x in v))
    if g > 1:
        den, ints = den // g, {key: [(k, x // g) for k, x in v] for key, v in ints.items()}
    return den, ints


def common_denominator(*parts) -> int:
    """Least common multiple of the stored denominators of the given
    matrices, structure tensors and action tensors and of the given
    rationals (``None`` parts are skipped)."""
    # The exact type: ``Fraction`` is a ``numbers.Rational``, so an
    # ``isinstance`` test would run the ABC's check for every stored part.
    return lcm(*[p.denominator if type(p) in (Fraction, int) else p.stored()[0]
                 for p in parts if p is not None])


def sparse(part, d: int) -> dict:
    """The stored rows of a matrix, products of a structure tensor or columns
    of an action tensor as sparse vectors over ``d``, a multiple of their
    denominator: rescaled, or the stored dict itself (read only)."""
    den, ints = part.stored()
    if d == den:
        return ints
    f = d // den
    return {key: [(k, f * x) for k, x in v] for key, v in ints.items()}


def grouped(mapping: dict, by: int = 0) -> dict:
    """``{(k0, k1): value}`` as ``{k_by: [(k_other, value), ...]}``."""
    out = {}
    for key, value in mapping.items():
        out.setdefault(key[by], []).append((key[1 - by], value))
    return out


def transposed(vectors: dict) -> dict:
    """Sparse vectors ``{key: [(k, x), ...]}`` by entry index:
    ``{k: [(key, x), ...]}``, in order of ``k`` and then of ``key``; the
    rows of a matrix as its columns, or a table's products by entry."""
    out: dict = {}
    for key, v in vectors.items():
        for k, x in v:
            out.setdefault(k, []).append((key, x))
    return {k: out[k] for k in sorted(out)}


def _applied(columns: dict, vectors: dict, width: int) -> dict:
    """The map whose sparse ``columns`` (``columns[r]`` lists ``(k, x)``) are
    ``width`` long, applied once to each sparse vector of ``vectors``, by the
    same key; zero images are left out.  A matrix product maps the left
    factor's rows by the right factor's rows."""
    out = {}
    for key, v in vectors.items():
        acc = [0] * width
        for r, c in v:
            for k, x in columns[r]:
                acc[k] += c * x
        if image := [(k, x) for k, x in enumerate(acc) if x]:
            out[key] = image
    return out


def _dense(den: int, terms: list, width: int, made: dict) -> tuple[Fraction, ...]:
    """The ``width`` Fraction entries of the sparse int vector ``terms``
    over ``den``: each zero the shared one, each value built once per ``made``."""
    out = [_ZERO] * width
    for k, x in terms:
        out[k] = made[x] if x in made else made.setdefault(x, Fraction(x, den))
    return tuple(out)


# Sets a slot of an immutable value, past its ``__setattr__``.
_put = object.__setattr__


class _Frozen:
    """Base of the package's immutable values: assignment and deletion
    raise ``AttributeError``, so a constructor sets its slots with one
    :meth:`_set` call.  A subclass lists its own ``__slots__`` in the
    order of its constructor's parameters: ``_key(value)`` is the tuple of
    the value's type and those slots' values, and by default a pickle or a
    copy calls the constructor with the slots' values again (:meth:`__reduce__`)."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter("__class__", *cls.__slots__)

    def _set(self, *values) -> None:
        """Set the class's own slots to ``values``, in slot order."""
        for name, value in zip(type(self).__slots__, values, strict=True):
            _put(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._key(self)[1:]


class _Value(_Frozen):
    """An immutable value with fields, its slots: equal to a value of the
    same type with equal fields, hashed by type and fields, shown as
    ``Name(field=value, ...)``."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class _Stored(_Frozen):
    """An immutable value kept only as its shape, the values of the class's
    own slots, and its nonzero entries, ints over one denominator
    (:meth:`stored`).  Equality and hashing compare those, and a pickle or
    copy is rebuilt from them; a view of the entries as Fractions is built
    on first read and then kept (:meth:`_cached`)."""

    __slots__ = ("_ints", "_view")

    def _store(self, form: tuple[int, dict], *shape) -> None:
        """Keep ``form`` and the shape, the values of the class's own slots."""
        if min(shape) < 0:
            raise ShapeError(f"negative dimension in shape {shape}")
        self._set(*shape)
        _put(self, "_ints", form)

    @classmethod
    def _new(cls, form: tuple[int, dict], *shape):
        out = object.__new__(cls)
        out._store(form, *shape)
        return out

    @classmethod
    def _from_form(cls, *args):
        """``_from_form(*shape, den, ints)``: the value of the sparse int
        vectors ``ints`` over ``den``, each ``(k, int)`` pairs in order of
        ``k``, none zero; vectors left out are zero.  Kept in lowest terms."""
        *shape, den, ints = args
        return cls._new(rationals(den, ints), *shape)

    @classmethod
    def _from_cells(cls, *args):
        """``_from_cells(*shape, cells)``: the value of the coefficients
        ``((key, k), (num, den))``, each already in lowest terms
        (:func:`_lowest_terms`), kept as :meth:`stored`."""
        *shape, cells = args
        return cls._new(_lowest_terms(cells), *shape)

    @classmethod
    def zero(cls, *shape):
        return cls._new((1, {}), *shape)

    def __reduce__(self):
        return type(self)._new, (self._ints, *self._key(self)[1:])

    def stored(self) -> tuple[int, dict]:
        """``(den, ints)``: the lcm of the entries' reduced denominators and
        each row, product or column (by key, in key order) as the sparse
        vector of its nonzero entries times ``den``."""
        return self._ints

    def _cached(self, build: Callable):
        try:
            return self._view
        except AttributeError:
            _put(self, "_view", build())
            return self._view

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self._key(self) == other._key(other)
                and self._ints == other._ints)

    def __hash__(self) -> int:
        den, ints = self._ints
        return hash((self._key(self), den, tuple((key, tuple(v)) for key, v in ints.items())))


class Vector(_Frozen):
    """Immutable vector with exact rational entries."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Rational]):
        # Most vectors are built from entries that are already Fractions.
        row = tuple(entries)
        if not set(map(type, row)) <= {Fraction}:
            row = tuple(map(frac, row))
        self._set(row)

    @classmethod
    def zero(cls, dim: int) -> "Vector":
        if dim < 0:
            raise ShapeError(f"negative dimension {dim}")
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


class Matrix(_Stored):
    """Immutable rows x cols matrix with exact rational entries, kept as
    :meth:`stored` ``(den, rows)``: ``rows[i]`` lists ``(j, den M[i][j])``
    for each nonzero entry, every row index kept.  ``entries``, the dense
    tuple of ``Fraction`` rows, is a read-only view built on first read;
    arithmetic reads the ints."""

    __slots__ = ("rows", "cols")

    def __init__(self, entries: Iterable[Iterable[Rational]], rows: int | None = None,
                 cols: int | None = None):
        grid = list(map(tuple, entries))
        if rows is None:
            rows = len(grid)
        if cols is None:
            cols = len(grid[0]) if grid else 0
        if len(grid) != rows or any(len(r) != cols for r in grid):
            raise ShapeError("ragged or mis-sized matrix data")
        self._store(_lowest_terms(_cells(dict(enumerate(grid)))), rows, cols)

    def _store(self, form: tuple[int, dict], rows: int, cols: int) -> None:
        """Keep ``form`` with an empty entry for each row it leaves out."""
        den, ints = form
        if len(ints) < rows:
            # The rows are allocated at once, so a count beyond memory fails here.
            full = dict(enumerate([[]] * rows))
            full.update(ints)
            form = den, full
        super()._store(form, rows, cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._from_form(n, n, 1, {i: [(i, 1)] for i in range(n)})

    @classmethod
    def from_cols(cls, cols: Sequence[Vector]) -> "Matrix":
        if not cols:
            return cls.zero(0, 0)
        dim = cols[0].dim
        if any(c.dim != dim for c in cols):
            raise ShapeError("columns of differing dimension")
        return cls(zip(*(c.entries for c in cols)), dim, len(cols))

    @classmethod
    def block(cls, grid: Sequence[Sequence["Matrix"]]) -> "Matrix":
        """Assemble a matrix from a grid of consistently sized blocks; its
        width is that of the block rows, even of a block row of height 0."""
        cols = sum(b.cols for b in grid[0]) if grid else 0
        d = common_denominator(*(b for block_row in grid for b in block_row))
        rows: dict = {}
        for block_row in grid:
            if not block_row:
                raise ShapeError("empty block row")
            height = block_row[0].rows
            if any(b.rows != height for b in block_row):
                raise ShapeError("block row heights differ")
            if sum(b.cols for b in block_row) != cols:
                raise ShapeError("block row widths differ")
            top, left = len(rows), 0
            for b in block_row:
                for i, row in sparse(b, d).items():
                    rows.setdefault(top + i, []).extend((left + j, x) for j, x in row)
                left += b.cols
        return cls._from_form(len(rows), cols, d, rows)

    @classmethod
    def block_diag(cls, a: "Matrix", b: "Matrix") -> "Matrix":
        """``a (+) b``: the rows of ``a``, then those of ``b`` shifted past
        ``a``'s columns, over the lcm of both denominators (so in lowest terms)."""
        d, top, left = common_denominator(a, b), a.rows, a.cols
        rows = dict(sparse(a, d))
        rows.update((top + i, [(left + j, x) for j, x in row]) for i, row in sparse(b, d).items())
        return cls._new((d, rows), a.rows + b.rows, a.cols + b.cols)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        def build():
            den, ints = self._ints
            zero, made = (_ZERO,) * self.cols, {}
            return tuple(_dense(den, row, self.cols, made) if row else zero
                         for row in ints.values())
        return self._cached(build)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self.entries[i][j]

    def col(self, j: int) -> Vector:
        return Vector(row[j] for row in self.entries)

    def is_zero(self) -> bool:
        return not any(self._ints[1].values())

    def is_square(self) -> bool:
        return self.rows == self.cols

    def _combine(self, *terms: tuple["Matrix", Rational]) -> "Matrix":
        """``sum c M`` over the ``(M, c)`` terms, all of this shape, on their ints."""
        scaled = [(m._ints, frac(c)) for m, c in terms]
        d = lcm(*(den * c.denominator for (den, _), c in scaled))
        sums: dict = {}
        for (den, ints), c in scaled:
            f = c.numerator * (d // (den * c.denominator))
            for i, row in ints.items():
                if row and f:
                    acc = sums.setdefault(i, {})
                    for j, x in row:
                        acc[j] = acc.get(j, 0) + f * x
        return Matrix._from_form(self.rows, self.cols, d, {
            i: [(j, acc[j]) for j in sorted(acc) if acc[j]] for i, acc in sums.items()})

    def scale(self, c: Rational) -> "Matrix":
        return self._combine((self, c))

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("matrix shapes differ in addition")
        return self._combine((self, 1), (other, 1))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-1)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by "
                             f"{other.rows}x{other.cols}")
        # Both factors' stored ints: the product is an int matrix over da db.
        (da, left), (db, right) = self._ints, other._ints
        return Matrix._from_form(self.rows, other.cols, da * db, _applied(right, left, other.cols))

    def apply(self, v: Vector) -> Vector:
        if self.cols != v.dim:
            raise ShapeError(f"cannot apply {self.rows}x{self.cols} to dim-{v.dim}")
        den, ints = self._ints
        sums = [sum([x * v.entries[j] for j, x in row], _ZERO) for row in ints.values()]
        return Vector([s / den if s else _ZERO for s in sums])

    def __repr__(self) -> str:
        return f"Matrix({[list(r) for r in self.entries]!r})"


class AffineSolution(_Value):
    """Solution set of a consistent linear system: particular + kernel span."""

    __slots__ = ("particular", "kernel")

    def __init__(self, particular: Vector, kernel: tuple[Vector, ...]):
        self._set(particular, kernel)


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


def _remainder(row: dict[int, int], pivots: dict[int, dict[int, int]]) -> dict[int, int]:
    """``row`` cleared at the pivots of an :func:`_echelon`: empty iff in their span."""
    for c in [c for c in row if c in pivots]:
        row = _clear(row, pivots[c], c)
    return row


def _echelon(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Fraction-free Gauss-Jordan on sparse int rows ``{column: int}``:
    ``{pivot column: reduced row}``.  A row is cleared at each pivot column
    it holds, then, if nonzero, pivots at its first column and is cleared
    from the other pivot rows.  Rows are kept divided by their content with
    a positive pivot entry; divided by it, each is its row of the (unique)
    reduced row echelon form."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = _remainder(row, pivots)
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
    Returns the reduced rows and the pivot columns.  Nothing in the package
    calls it; it is kept for its differential test and for the benchmark's
    tracer, which wraps it."""
    ncols = len(rows[0]) if rows else 0
    echelon = _echelon(map(dict, _lowest_terms(_cells(dict(enumerate(rows))))[1].values()))
    pivots = sorted(echelon)
    reduced = [[_ZERO] * ncols for _ in rows]
    for out, c in zip(reduced, pivots):
        for k, x in echelon[c].items():
            out[k] = Fraction(x, echelon[c][c])
    return reduced, pivots


def _null_space(echelon: dict[int, dict[int, int]], ncols: int) -> list[Vector]:
    """The null space basis read off :func:`_echelon` rows: for each free
    column ``f < ncols``, 1 at ``f`` and ``-row[f] / row[p]`` at each pivot ``p``."""
    basis = []
    for f in range(ncols):
        if f not in echelon:
            v = [_ZERO] * ncols
            v[f] = _ONE
            for p, row in echelon.items():
                if f in row:
                    v[p] = Fraction(-row[f], row[p])
            basis.append(Vector(v))
    return basis


def kernel_basis(a: Matrix) -> list[Vector]:
    """Basis of the null space of ``a``; empty iff ``a`` is injective."""
    return _null_space(_echelon(map(dict, a.stored()[1].values())), a.cols)


def solve_linear(a: Matrix, b: Vector) -> AffineSolution | None:
    """Solve ``a x = b`` exactly.

    Returns None iff the system is inconsistent, otherwise a particular
    solution together with a kernel basis describing all solutions.
    """
    if a.rows != b.dim:
        raise ShapeError(f"matrix has {a.rows} rows but rhs has dim {b.dim}")
    # Row i of the stored ints, with b_i at column a.cols, both times den b_i.denominator.
    den, ints = a.stored()
    rows = []
    for row, q in zip(ints.values(), b.entries):
        rows.append({j: q.denominator * x for j, x in row})
        if q:
            rows[-1][a.cols] = den * q.numerator
    echelon = _echelon(rows)
    if a.cols in echelon:
        return None
    particular = [_ZERO] * a.cols
    for p, row in echelon.items():
        if a.cols in row:
            particular[p] = Fraction(row[a.cols], row[p])
    return AffineSolution(Vector(particular), tuple(_null_space(echelon, a.cols)))


def _format_terms(terms: Iterable[tuple[str, int, int]], joiner: str = " ") -> str:
    """Render ``(label, num, den)`` terms, nonzero coefficients ``num/den``
    with ``den > 0``, as a linear combination such as ``3/2 e1 - e2``, or
    ``3/2*x1 - x2`` with ``joiner`` ``"*"``; an empty label marks a constant
    term, and no terms is ``0``."""
    parts: list[str] = []
    for label, n, d in terms:
        g = gcd(n, d)
        n, d = n // g, d // g
        mag = f"{abs(n)}/{d}" if d != 1 else "" if n in (1, -1) and label else str(abs(n))
        sign = ("- " if n < 0 else "+ ") if parts else "-" if n < 0 else ""
        parts.append(f"{sign}{mag}{joiner}{label}" if mag and label else f"{sign}{mag}{label}")
    return " ".join(parts) if parts else "0"


def format_lincomb(v: Iterable[Fraction], symbol: str = "e") -> str:
    """Render a vector, or a sequence of its entries, as a linear
    combination such as ``3/2 e1 - e2``; a zero vector is ``0``."""
    # The shared zero needs no method call.
    return _format_terms((f"{symbol}{i + 1}", c.numerator, c.denominator)
                         for i, c in enumerate(v) if c is not _ZERO and c)
