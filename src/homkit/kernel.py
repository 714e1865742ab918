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
(:meth:`Accumulator.slices`): a tuple no term touches has a zero residual.
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


def grouped(mapping: dict, by: int = 0) -> dict:
    """``{(k0, k1): value}`` as ``{k_by: [(k_other, value), ...]}``."""
    out = {}
    for key, value in mapping.items():
        out.setdefault(key[by], []).append((key[1 - by], value))
    return out
