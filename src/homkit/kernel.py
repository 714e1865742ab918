"""Exact integer kernel for the identity checkers and the constructions.

The ints live on the objects: every ``Matrix``, ``StructureTensor`` and
``ActionTensor`` keeps its nonzero entries once, as ints over its own
denominator (the lcm of its entries' reduced denominators), computed on
first use or handed over by the construction that built it
(``stored()``).  A check fixes one common denominator ``D``, the lcm of
the stored ones (:func:`common_denominator`), and rescales each stored
list by ``D // den`` (:func:`sparse`).  A term of an identity that
multiplies ``d`` constants is then an ``int`` multiple of ``1/D**d``; an
identity of degree at most ``k`` multiplies lower-degree terms up by the
missing powers of ``D`` and compares pure ``int`` lists.  The exact
rational residual is that list over ``D**k``, and
:func:`homkit.reporting.scan_identity` builds it only for a witness.

The checks sum each identity's terms into an :class:`Accumulator` keyed
by basis tuple, one slice of tuples with the same first index at a time
(:func:`walk`): a tuple no term touches has a zero residual.  Each
degree-3 term of an algebra, representation or matched-pair identity is
one of two walks over nonzero entries (:func:`entries_then_index`,
:func:`twisted_then_entries`).
A construction sums its degree-``k`` terms the same way and keeps them as
its result's stored form, building each ``Fraction`` once (:func:`rationals`).

Sparse vectors are lists of ``(index, int)`` pairs of their nonzero
entries.  The column convention of :mod:`homkit.linalg` holds unchanged.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterator

from .linalg import _ZERO


def common_denominator(*parts) -> int:
    """Least common multiple of the stored denominators of the given
    matrices, structure tensors and action tensors and of the given
    rationals (``None`` parts are skipped)."""
    return lcm(*[p.denominator if isinstance(p, (Fraction, int)) else p.stored()[0]
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


def rationals(den: int, ints: dict, dim: int) -> tuple[tuple[int, dict], dict]:
    """The nonzero sparse vectors ``ints / den`` as a stored form, in key
    order and reduced by the gcd of ``den`` and every int, and as tuples of
    ``dim`` Fractions, each zero ``linalg._ZERO`` and each value built once."""
    ints = {key: ints[key] for key in sorted(ints) if ints[key]}
    g = gcd(den, *(x for v in ints.values() for _, x in v))
    if g > 1:
        den, ints = den // g, {key: [(k, x // g) for k, x in v] for key, v in ints.items()}
    made, out = {}, {}
    for key, v in ints.items():
        row = out[key] = [_ZERO] * dim
        for k, x in v:
            row[k] = made[x] if x in made else made.setdefault(x, Fraction(x, den))
    return (den, ints), {key: tuple(row) for key, row in out.items()}


class Accumulator(dict):
    """Integer vectors of one dimension by key, each zero until first
    added to: the products or action columns a construction sums."""

    __slots__ = ("dim",)

    def __init__(self, dim: int):
        self.dim = dim

    def __missing__(self, key):
        out = self[key] = [0] * self.dim
        return out

    def add(self, key, c: int, terms: list[tuple[int, int]], offset: int = 0) -> None:
        """Add ``c`` times the :func:`sparse` vector ``terms``, shifted by
        ``offset``, at ``key``."""
        out = self[key]
        for k, x in terms:
            out[offset + k] += c * x

    def __call__(self, *key) -> list[int]:
        """The sum at ``key``: the ``residual`` of a scan."""
        return self[key]

    def terms(self) -> dict:
        """Every sum as a :func:`sparse` vector of its nonzero entries."""
        return {key: [(k, x) for k, x in enumerate(v) if x] for key, v in self.items()}

    def slices(self, count: int, adders) -> Iterator:
        """The touched keys in sorted order, one slice at a time: for each
        first key index ``i < count``, every ``adder(i, part)`` adds its
        terms at keys starting with ``i``; the sums join this accumulator
        and their keys are yielded.  Lazily, so a scan that stops at a
        witness adds no later slice."""
        for i in range(count):
            part = Accumulator(self.dim)
            for add in adders:
                add(i, part)
            self.update(part)
            yield from sorted(part)


class Lazy(dict):
    """Values by key, each made by ``make(key)`` on first lookup."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def grouped(mapping: dict, by: int = 0) -> dict:
    """``{(k0, k1): value}`` as ``{k_by: [(k_other, value), ...]}``."""
    out = {}
    for key, value in mapping.items():
        out.setdefault(key[by], []).append((key[1 - by], value))
    return out


def by_entry(part: dict) -> dict:
    """``{(p, q): sparse vector}`` by entry: ``by_entry[a]`` lists
    ``(p, q, c)`` for each entry ``c`` at ``a`` of the vector at ``(p, q)``."""
    out = {}
    for (p, q), terms in part.items():
        for a, c in terms:
            out.setdefault(a, []).append((p, q, c))
    return out


def walk(width: int, count: int, adders) -> tuple:
    """The ``indices`` and ``residual`` of a scan: the keys the adders touch, slice by
    slice over first indices below ``count``, and the accumulator of their sums."""
    acc = Accumulator(width)
    return acc.slices(count, adders), acc


def entries_then_index(sign: int, firsts: dict, seconds: dict, swap: bool = False,
                       width: int = 0):
    """Adds ``sign g v`` at ``(i, w, z)``, or ``(i, z, w)`` if ``swap``, for
    each ``(w, col)`` in ``firsts[i]``, each entry ``g`` of ``col`` at ``a``
    and each ``(z, v)`` in ``seconds[a]``.  With a ``width``, ``w`` is a
    carrier column: ``v`` goes to ``(i, z)`` from offset ``w * width`` of a
    flat column-major layout."""
    if width:
        def add(i, acc):
            for w, col in firsts.get(i, ()):
                offset = w * width
                for a, g in col:
                    c = sign * g
                    for z, v in seconds.get(a, ()):
                        acc.add((i, z), c, v, offset)
    else:
        def add(i, acc):
            for w, col in firsts.get(i, ()):
                for a, g in col:
                    c = sign * g
                    for z, v in seconds.get(a, ()):
                        acc.add((i, z, w) if swap else (i, w, z), c, v)
    return add


def twisted_then_entries(sign: int, twisted: dict, entries: dict, width: int = 0):
    """Adds ``sign c v`` at ``(i, p, q)`` for each ``(a, v)`` in ``twisted[i]``
    and each ``(p, q, c)`` in ``entries[a]`` (:func:`by_entry`); with a ``width``,
    at ``(i, p)`` from offset ``q * width``, ``q`` being a carrier column."""
    if width:
        def add(i, acc):
            for a, v in twisted.get(i, ()):
                for p, q, c in entries.get(a, ()):
                    acc.add((i, p), sign * c, v, q * width)
    else:
        def add(i, acc):
            for a, v in twisted.get(i, ()):
                for p, q, c in entries.get(a, ()):
                    acc.add((i, p, q), sign * c, v)
    return add
