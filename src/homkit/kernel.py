"""Exact integer kernel for the identity checkers and the constructions.

A check first fixes one common denominator ``D``: the least common
multiple of the denominators of every rational constant it reads
(structure tables, twists, action families, operators, weights).  Each
constant times ``D`` is an ``int``, so a term of an identity that
multiplies ``d`` constants is an ``int`` multiple of ``1/D**d``.  An
identity whose terms have degree at most ``k`` multiplies every
lower-degree term up by the missing powers of ``D`` and compares pure
``int`` lists; the exact rational residual is that list over ``D**k``,
and :func:`homkit.reporting.scan_identity` builds it only for a witness.

A construction works the same way: it sums degree-``k`` terms into an
:class:`Accumulator`, walking only the nonzero products, action columns
and operator entries (:func:`sparse`), and builds each ``Fraction`` once,
at the end, over ``D**k``.  The checks sum each identity's terms into an
:class:`Accumulator` keyed by basis tuple, one slice of tuples with the
same first index at a time (:meth:`Accumulator.slices`): a tuple no term
touches has a zero residual.

Sparse vectors are lists of ``(index, int)`` pairs of their nonzero
entries.  The column convention of :mod:`homkit.linalg` holds unchanged.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Iterator

from .linalg import _ZERO, Matrix


def _entries(part):
    if part is None:
        return ()
    if isinstance(part, (Fraction, int)):
        return (part,)
    if isinstance(part, Matrix):
        return chain.from_iterable(part.entries)
    if hasattr(part, "products"):  # a structure tensor
        return chain.from_iterable(v.entries for v in part.products.values())
    if hasattr(part, "mats"):  # an action tensor
        return chain.from_iterable(row for m in part.mats for row in m.entries)
    raise TypeError(f"no rational entries in {type(part).__name__}")


def common_denominator(*parts) -> int:
    """Least common multiple of the denominators of every entry of the
    given rationals, matrices, structure tensors and action tensors
    (``None`` parts and the shared zero are skipped)."""
    return lcm(*{q.denominator for part in parts for q in _entries(part) if q is not _ZERO})


def sparse(values, d: int) -> list[tuple[int, int]]:
    """The nonzero entries of ``d`` times ``values`` as ``(index, int)``
    pairs; ``d`` must be a multiple of every denominator."""
    return [(k, q.numerator * (d // q.denominator))
            for k, q in enumerate(values) if q is not _ZERO and q.numerator]


def sparse_cols(m: Matrix, d: int) -> list:
    """The columns of ``m`` as :func:`sparse` vectors over ``d``, one for
    each of its ``m.cols`` columns even when ``m`` has no rows."""
    if not m.rows:
        return [[] for _ in range(m.cols)]
    return [sparse(col, d) for col in zip(*m.entries)]


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

    def rationals(self, den: int) -> dict:
        """Every nonzero sum over ``den`` as a tuple of Fractions, each
        zero the shared ``linalg._ZERO``: the products of a
        ``StructureTensor`` or the columns of an ``ActionTensor``."""
        return {key: tuple([Fraction(x, den) if x else _ZERO for x in v])
                for key, v in self.items() if any(v)}


def grouped(mapping: dict, by: int = 0) -> dict:
    """``{(k0, k1): value}`` as ``{k_by: [(k_other, value), ...]}``."""
    out = {}
    for key, value in mapping.items():
        out.setdefault(key[by], []).append((key[1 - by], value))
    return out
