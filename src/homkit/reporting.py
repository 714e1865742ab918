"""Check reports: named identities with pass flags and failure witnesses.

A witness records the lexicographically first basis tuple on which an
identity fails, together with the nonzero residual vector (left side minus
right side of the identity, except for membership checks where it is the
offending value itself).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .errors import PreconditionError
from .linalg import Vector, _put, _Value, format_lincomb


class Witness(_Value):
    __slots__ = ("indices", "residual")

    def __init__(self, indices: tuple[int, ...], residual: Vector):
        self._set(indices, residual)

    def render(self) -> str:
        where = ", ".join(str(i + 1) for i in self.indices)
        return f"at ({where}): residual = {format_lincomb(self.residual)}"


class CheckResult(_Value):
    __slots__ = ("identity", "passed", "witness")

    def __init__(self, identity: str, passed: bool, witness: Witness | None = None):
        # Every identity of every check makes one, about half the slot
        # settings of an ``audit`` pass: direct writes, as ``Polynomial._of``.
        _put(self, "identity", identity)
        _put(self, "passed", passed)
        _put(self, "witness", witness)

    def render(self) -> str:
        if self.passed:
            return f"PASS {self.identity}"
        tail = f" {self.witness.render()}" if self.witness is not None else ""
        return f"FAIL {self.identity}{tail}"


class CheckReport(_Value):
    __slots__ = ("checks",)

    def __init__(self, checks: tuple[CheckResult, ...]):
        _put(self, "checks", checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def result(self, identity: str) -> CheckResult:
        for c in self.checks:
            if c.identity == identity:
                return c
        raise KeyError(identity)

    def prefixed(self, prefix: str) -> "CheckReport":
        return CheckReport(tuple(
            CheckResult(f"{prefix}{c.identity}", c.passed, c.witness)
            for c in self.checks))

    def render(self) -> str:
        return "\n".join(c.render() for c in self.checks)

    def __iter__(self) -> Iterator[CheckResult]:
        return iter(self.checks)


def concat(*reports: CheckReport) -> CheckReport:
    checks: list[CheckResult] = []
    for r in reports:
        checks.extend(r.checks)
    return CheckReport(tuple(checks))


def require(report: CheckReport, what: str) -> None:
    """The precondition gate: raise :class:`PreconditionError` with
    ``what`` and the rendered failures unless ``report`` passed."""
    if not report.passed:
        raise PreconditionError(
            f"{what}: " + "; ".join(c.render() for c in report.failures()))


def _witness_vector(residual, denominator: int) -> Vector:
    return Vector(Fraction(r, denominator) for r in residual)


def scan_identity(name: str, indices: Iterable[tuple[int, ...]],
                  residual: Callable[[tuple[int, ...]], list[int]], *,
                  denominator: int = 1) -> CheckResult:
    """Evaluate ``residual`` on every index tuple; record the first failure.

    ``residual(idx)`` takes the key tuple itself (such as an accumulator's
    ``__getitem__``, :func:`homkit.kernel.walk`) and returns the exact
    residual times ``denominator`` as a list of ints (see
    :mod:`homkit.kernel`); only a witness divides it back.  The scan order
    of ``indices`` must be lexicographic so that reported witnesses are
    deterministic.
    """
    for idx in indices:
        r = residual(idx)
        if any(r):
            return CheckResult(name, False,
                               Witness(tuple(idx), _witness_vector(r, denominator)))
    return CheckResult(name, True)


def scan_operator_identity(name: str, indices: Iterable[tuple[int, ...]],
                           residual: Callable[[tuple[int, ...]], list[int]], *,
                           width: int, denominator: int = 1) -> CheckResult:
    """Like :func:`scan_identity` for operator equalities on a carrier of
    dimension ``width``.

    ``residual(idx)`` returns an int matrix as one flat column-major list
    of ``width * width`` ints, column ``k`` at ``[k * width, (k + 1) * width)``.
    Each is tested whole; on failure the witness appends the first carrier
    index whose column is nonzero, and that column is its residual.
    """
    for idx in indices:
        r = residual(idx)
        if any(r):
            for k in range(0, len(r), width):
                col = r[k:k + width]
                if any(col):
                    return CheckResult(name, False, Witness(
                        tuple(idx) + (k // width,), _witness_vector(col, denominator)))
    return CheckResult(name, True)
