"""Exact integer kernel for the identity checkers and the constructions.

The ints are the objects: every ``Matrix``, ``StructureTensor`` and
``ActionTensor`` keeps only its nonzero entries, as ints over its own
denominator (the lcm of its entries' reduced denominators), converted
once, by the shared builders of :mod:`homkit.linalg`, from the input of a
public constructor or handed over by the construction that built it
(``stored()``).  :mod:`homkit.linalg` also holds the rescale and re-key rules:
a check fixes one denominator ``D``, the lcm of the stored ones (``common_denominator``),
and rescales each stored list by ``D // den`` (``sparse``).  A term
of an identity that multiplies ``d`` constants is then an ``int``
multiple of ``1/D**d``; an identity of degree at most ``k`` multiplies
lower-degree terms up by the missing powers of ``D`` and compares pure
``int`` lists (an identity homogeneous in a map may read it over its own ``den``).
The exact rational residual is that list over ``D**k``, and
:func:`homkit.reporting.scan_identity` builds it only for a witness.

Terms are data.  Each term of an identity or a construction is a plain
tuple that names the sparse tables it reads, made by :func:`row_term`
from a row of the one grammar of every degree-3 identity, by
:func:`groups_then_vectors` or by :meth:`SparseMap.term`.  One function,
:func:`sum_slice`, sums every term at one first index straight into one
dict of int vectors keyed by basis tuple, with one loop per kind of
term, and lists the keys it creates.  A check runs it slice by slice
(:func:`walk`): a tuple no term touches has a zero residual, a scan
reads the residual of a touched tuple by that tuple, straight from the
dict, and a scan that stops at a witness sums no later slice.  An
operator identity keeps each residual as one flat column-major vector
of its carrier matrix, ``m * m`` ints.  A construction sums its
degree-``k`` terms at every first index into a plain dict
(:meth:`SparseMap.sums`) and hands the sparse vectors to its result's
``_from_form``, which reduces them to lowest terms
(:func:`homkit.linalg.rationals`).

Every check and construction names its inputs once, in one
:class:`SparseIndex`, and reads off it its maps and its grouped and twisted
parts, each table made on first lookup by a dict subclass that holds no
closure and no index.  One merge (:func:`_merged`) twists a part along the
rows of a map in one pass over its sparse vectors, summing only a key hit
twice, in a dense list: a table or family along alpha, and a family along
the carrier twist ``phi``.  A map applied once to each vector runs the loop
of a matrix product (:meth:`SparseMap.images`).  Only a construction that
merely re-keys stored ints rescales them itself, through the same two helpers;
the relative Rota-Baxter check maps its operator outside a shared index.

Sparse vectors are lists of ``(index, int)`` pairs of their nonzero
entries.  The column convention of :mod:`homkit.linalg` holds unchanged.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator

from .linalg import _applied, common_denominator, grouped, sparse, transposed


_by_second = partial(grouped, by=1)

# The unit vectors ``((k, 1),)`` of every map, shared and grown on demand
# (:meth:`SparseMap.term`), so that no map allocates one per dimension;
# entry ``k`` depends on ``k`` alone, so sharing is safe between callers.
_UNITS: list = []


class SparseMap:
    """A linear map ``T: V -> A`` over a common denominator ``d``: its
    nonzero rows (``rows[a]`` lists ``(u, d T[a][u])``) and columns, and the
    terms of a degree-2 sum at ``(u, v)`` in ``V x V``, summed over the
    nonzero entries only (:meth:`sums`)."""

    __slots__ = ("rows", "cols")

    def __init__(self, t, d: int):
        self.rows, self.cols = sparse(t, d), {j: [] for j in range(t.cols)}
        for i, row in self.rows.items():
            for j, x in row:
                self.cols[j].append((i, x))

    def images(self, columns: dict) -> dict:
        """``T`` applied once to each ``sparse`` column, by the same key and
        one degree higher; zero images are left out."""
        return _applied(self.cols, columns, len(self.rows))

    def sums(self, dim: int, *terms) -> dict:
        """A construction's products or columns: the terms, summed at every
        first index (:func:`sum_slice`), as ``sparse`` vectors by key."""
        acc: dict = {}
        for u in range(len(self.cols)):
            sum_slice(acc, dim, u, terms)
        return {key: [(k, x) for k, x in enumerate(v) if x] for key, v in acc.items()}

    def term(self, c: int, by_first: dict, left: bool = True, right: bool = True) -> tuple:
        """The term ``c X(a, b)`` at ``(u, v)`` for each ``(b, X(a, b))`` in
        ``by_first[a]``, with ``a = T e_u`` if ``left`` (else ``u``) and
        ``b = T e_v`` if ``right`` (else ``v``): ``mu(T e_u, T e_v)`` from
        the products ``mu(e_a, e_b)``, ``act_l(T e_u) e_v`` from the
        action's columns, and so on."""
        if not (left and right):
            for k in range(len(_UNITS), max(len(self.rows), len(self.cols))):
                _UNITS.append(((k, 1),))
        return (_MAP, c, self.cols if left else _UNITS, by_first,
                self.rows if right else _UNITS)


class _Table(dict):
    """An index's tables by name (or key), each made on first lookup by
    :meth:`make`, by default ``arg(parts[name])``: no table refers to its
    index, so reference counting frees the index."""

    __slots__ = ("parts", "arg")

    def __init__(self, parts: dict, arg):
        self.parts, self.arg = parts, arg

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value

    def make(self, name):
        return self.arg(self.parts[name])


def _merged(part: dict, rows: dict, width: int, left: bool) -> dict:
    """``part``'s vectors at ``(p, q)`` twisted along the sparse ``rows`` of a
    map: at ``(x, q)`` for each ``(x, w)`` in ``rows[p]`` (``left``), or at
    ``(p, x)`` for each in ``rows[q]``, times ``w``, in one pass.  A key hit
    once holds its vector times one entry (for 1 the vector itself: parts are
    read only), one hit again a dense sum of ``width`` ints."""
    out, sums = {}, {}
    for (p, q), v in part.items():
        for x, w in rows[p if left else q]:
            at = (x, q) if left else (p, x)
            if (old := out.get(at)) is None:
                out[at] = v if w == 1 else [(k, w * y) for k, y in v]
                continue
            if (acc := sums.get(at)) is None:
                acc = sums[at] = [0] * width
                for k, y in old:
                    acc[k] = y
            for k, y in v:
                acc[k] += w * y
    out.update((at, [(k, y) for k, y in enumerate(acc) if y]) for at, acc in sums.items())
    return out


class _Twisted(_Table):
    def make(self, key):
        if len(key) == 3:
            return grouped(self[key[:2]], key[2])
        (name, left), (rows, given) = key, self.arg
        width = getattr(given[name], "carrier_dim", len(rows))
        return _merged(self.parts[name], rows, width, left)


def _phi_columns(rows: dict, m: int, family: dict) -> dict:
    return grouped(_merged(family, rows, m, False))


def _flat(m: int, columns: dict) -> dict:
    return {a: [(c * m + k, y) for c, v in cols for k, y in v] for a, cols in columns.items()}


class SparseIndex:
    """The inputs of one check or construction over their common denominator
    ``d``, and of any ``more`` parts: a twist (or None) and each named map as a
    :class:`SparseMap` (``alpha``, ``maps[name]``), each named table or action
    family as its nonzero vectors (``parts``), also, on first lookup, grouped
    by the first or second key index (``by_first``, ``by_second``), by entry
    (``entries``) and twisted: ``twisted[name, left]`` holds
    ``mu(alpha e_r, e_a)`` at ``(r, a)`` (``left``) or ``mu(e_a, alpha e_r)``
    at ``(a, r)``, or column ``a`` of ``F(alpha e_r)`` at ``(r, a)`` for a
    family, merged along alpha's rows (:func:`_merged`).
    ``twisted[name, left, by]`` groups it by key index ``by``.  With a
    carrier twist map ``phi``, a family ``F`` also has its columns
    ``(c, F(e_a) phi e_c)`` by ``a``, merged along phi's rows
    (``phi_columns``), and ``F(e_a) phi`` as a flat column-major ``m*m``
    ``sparse`` vector (``times_phi``), the layout of the representation
    axioms' sums."""

    __slots__ = ("d", "alpha", "maps", "parts", "by_first", "by_second", "entries", "twisted",
                 "times_phi", "phi_columns")

    def __init__(self, alpha, given: dict, /, *more, **maps):
        d = self.d = common_denominator(alpha, *given.values(), *maps.values(), *more)
        self.alpha = None if alpha is None else SparseMap(alpha, d)
        maps = self.maps = {name: SparseMap(t, d) for name, t in maps.items()}
        parts = self.parts = {name: sparse(p, d) for name, p in given.items()}
        self.by_first, self.by_second = _Table(parts, grouped), _Table(parts, _by_second)
        self.entries = _Table(parts, transposed)
        self.twisted = _Twisted(parts, ({} if alpha is None else self.alpha.rows, given))
        if (phi := maps.get("phi")) is not None:
            self.phi_columns = _Table(parts, partial(_phi_columns, phi.rows, len(phi.cols)))
            self.times_phi = _Table(self.phi_columns, partial(_flat, len(phi.cols)))


# The kinds of term, each a tuple ``(kind, sign, firsts, seconds, last)``
# made by :func:`row_term` (the entry and twisted kinds),
# :func:`groups_then_vectors` or :meth:`SparseMap.term`.  For every kind but
# ``_MAP``, a nonzero ``last`` is a carrier width: the term writes at a
# carrier column's offset of a flat column-major layout.
_ENTRIES, _ENTRIES_SWAPPED, _TWISTED, _GROUPS, _MAP = range(5)


def sum_slice(acc: dict, width: int, i: int, terms) -> list:
    """Add every term at the keys starting with ``i`` into ``acc``, vectors of
    ``width`` ints by key tuple, each zero until first added to, and return the
    keys this creates, in order of creation.  One loop per kind of term, with
    the addition of ``c`` times a ``sparse`` vector at a key inlined."""
    new, get = [], acc.get
    for kind, sign, firsts, seconds, last in terms:
        if kind == _TWISTED:
            for a, v in firsts.get(i, ()):
                for (p, q), c in seconds.get(a, ()):
                    key, offset = ((i, p), q * last) if last else ((i, p, q), 0)
                    if (out := get(key)) is None:
                        out = acc[key] = [0] * width
                        new.append(key)
                    c *= sign
                    for k, x in v:
                        out[offset + k] += c * x
        elif kind == _GROUPS:
            for w, col in firsts.get(i, ()):
                key, offset = ((i,), w * last) if last else ((i, w), 0)
                out = None
                for r, c in col:
                    if v := seconds.get(r):
                        if out is None and (out := get(key)) is None:
                            out = acc[key] = [0] * width
                            new.append(key)
                        c *= sign
                        for k, x in v:
                            out[offset + k] += c * x
        elif kind == _MAP:
            for a, x in firsts[i]:
                for b, v in seconds.get(a, ()):
                    for z, y in last[b]:
                        if (out := get(key := (i, z))) is None:
                            out = acc[key] = [0] * width
                            new.append(key)
                        c = sign * x * y
                        for k, g in v:
                            out[k] += c * g
        else:
            swapped = kind == _ENTRIES_SWAPPED
            for w, col in firsts.get(i, ()):
                offset = w * last
                for a, g in col:
                    c = sign * g
                    for z, v in seconds.get(a, ()):
                        key = (i, z) if last else (i, z, w) if swapped else (i, w, z)
                        if (out := get(key)) is None:
                            out = acc[key] = [0] * width
                            new.append(key)
                        for k, x in v:
                            out[offset + k] += c * x
    return new


def _slices(acc: dict, width: int, count: int, terms) -> Iterator:
    """The keys of each first index below ``count`` in turn, sorted, as
    :func:`sum_slice` creates them; lazily, so a scan that stops at a witness
    sums no later slice."""
    for i in range(count):
        yield from sorted(sum_slice(acc, width, i, terms))


def walk(width: int, count: int, terms) -> tuple:
    """The ``indices`` and ``residual`` of a scan: the keys the terms touch, slice by
    slice over first indices below ``count`` (:func:`_slices`), and the lookup of their
    sums by key tuple (their dict's ``__getitem__``), each a list of ``width`` ints."""
    acc: dict = {}
    terms = [t for t in terms if t[2] and t[3]]  # a term with an empty table adds nothing
    return _slices(acc, width, count if terms else 0, terms), acc.__getitem__


def row_term(a: SparseIndex, b: SparseIndex, sign: int, *row, width: int = 0) -> tuple:
    """The term of one row of a degree-3 identity at ``(i, w, z)``, or at
    ``(i, z, w)`` if ``swap``, summed over the nonzero entries of its tables:

    - ``(sign, F, X)`` is ``sign F(alpha e_i, X(e_w, e_z))``;
    - ``(sign, F, X, swap)`` is ``sign F(X(e_w, e_i), phi e_z)``;
    - ``(sign, X, F, swap, first)`` is ``sign F(X(e_i, e_w), alpha e_z)``, or
      ``sign F(alpha e_z, X(e_i, e_w))`` if not ``first``.

    The row's first name is read off ``a`` and its second off ``b``, one index
    for an algebra's identities and a representation's axioms; a family is a
    bilinear map, ``X(e_a, f_c) = X(e_a) f_c``.  With a ``width``, the term
    writes at ``(i, j)``, ``j`` a base index, from offset ``c * width`` of a
    flat column-major layout for a carrier column ``c``."""
    if len(row) == 2:  # the twisted columns of F(alpha e_i), then X's entries
        return (_TWISTED, sign, a.twisted[row[0], True, 0], b.entries[row[1]], width)
    if len(row) == 3:  # the entries of X(e_w, e_i), then F's columns times phi
        f, x, swap = row
        firsts, seconds = b.by_second[x], a.phi_columns[f]
    else:  # the entries of X(e_i, e_w), then F twisted on its other side
        x, f, swap, first = row
        firsts, seconds = a.by_first[x], b.twisted[f, not first, int(not first)]
    return (_ENTRIES_SWAPPED if swap else _ENTRIES, sign, firsts, seconds, width)


def groups_then_vectors(sign: int, groups: dict, vectors: dict, width: int = 0) -> tuple:
    """The term ``sign c vectors[r]`` at ``(i, w)`` for each ``(w, col)`` in
    ``groups[i]`` and each entry ``c`` of ``col`` at ``r`` with a nonzero
    ``vectors[r]``; with a ``width``, at ``(i,)`` from offset ``w * width``,
    ``w`` being a carrier column."""
    return (_GROUPS, sign, groups, vectors, width)
