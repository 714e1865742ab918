"""Constraint generation and exact solving for relative Rota-Baxter
operators with unknown matrix entries.

The unknowns are the entries of T.  Intertwining the twists contributes
linear equations; each product-splitting condition contributes quadratic
equations, one per carrier basis pair and output coordinate.  The solver
eliminates the linear part exactly, then reduces the quadratic residue by
substitution: univariate equations with rational roots, single-monomial
equations (a product of unknowns forced to vanish branches on its
factors), and rank-one quadrics ``c * L^2`` with L linear.  Anything
outside that class is returned unsolved as a residual system rather than
guessed at.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Mapping, Sequence

from .algebra import HomAlgebra
from .errors import ShapeError, SoundnessError
from .linalg import Matrix, Vector, frac, rational_sqrt, span_membership, _rref
from .operators import OperatorContext, check_relative_rbo
from .representation import Representation, _require_match
from .reporting import CheckReport, CheckResult

Monomial = tuple[int, ...]  # sorted variable ids; () is the constant monomial


def _accumulate(out: dict[Monomial, Fraction], terms) -> None:
    """Add ``(monomial, coefficient)`` pairs into ``out``; cancelled
    entries stay as zeros until :func:`_nonzero`."""
    for m, c in terms:
        prev = out.get(m)
        out[m] = c if prev is None else prev + c


def _nonzero(terms: dict[Monomial, Fraction]) -> dict[Monomial, Fraction]:
    return {m: c for m, c in terms.items() if c}


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients.

    ``terms`` maps sorted monomials to nonzero ``Fraction`` coefficients.
    The constructor normalises any mapping; the arithmetic builds each
    result in one dict and hands it to ``_clean``, which trusts it.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = frac(coeff)
                if c != 0:
                    clean[tuple(sorted(mono))] = clean.get(tuple(sorted(mono)), 0) + c
        object.__setattr__(self, "terms",
                           {m: c for m, c in clean.items() if c != 0})

    @classmethod
    def _clean(cls, terms: dict[Monomial, Fraction]) -> "Polynomial":
        """Wrap terms that are already sorted, nonzero Fractions."""
        p = object.__new__(cls)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls({(): frac(c)})

    @classmethod
    def variable(cls, v: int) -> "Polynomial":
        return cls._clean({(v,): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((len(m) for m in self.terms), default=0)

    def variables(self) -> set[int]:
        return {v for m in self.terms for v in m}

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(tuple(sorted(mono)), Fraction(0))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        _accumulate(out, other.terms.items())
        return Polynomial._clean(_nonzero(out))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1)

    def __neg__(self) -> "Polynomial":
        return self.scale(-1)

    def scale(self, c) -> "Polynomial":
        c = frac(c)
        if c == 0:
            return Polynomial._clean({})
        return Polynomial._clean({m: c * v for m, v in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out: dict[Monomial, Fraction] = {}
        _accumulate(out, ((tuple(sorted(m1 + m2)), c1 * c2)
                          for m1, c1 in self.terms.items()
                          for m2, c2 in other.terms.items()))
        return Polynomial._clean(_nonzero(out))

    def substitute(self, mapping: Mapping[int, "Polynomial"]) -> "Polynomial":
        """Replace each mapped variable by a polynomial; every term is
        expanded straight into one accumulator."""
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            images = [mapping[v].terms for v in mono if v in mapping]
            if not images:
                _accumulate(out, ((mono, coeff),))
                continue
            expansion = [(tuple(v for v in mono if v not in mapping), coeff)]
            for image in images:
                expansion = [(m1 + m2, c1 * c2) for m1, c1 in expansion
                             for m2, c2 in image.items()]
            _accumulate(out, ((m if len(m) < 2 else tuple(sorted(m)), c)
                              for m, c in expansion))
        return Polynomial._clean(_nonzero(out))

    def evaluate(self, assignment: Mapping[int, Fraction]) -> Fraction:
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            value = coeff
            for v in mono:
                value *= assignment[v]
            total += value
        return total

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def render(self, name: Callable[[int], str]) -> str:
        if not self.terms:
            return "0"
        def mono_str(m: Monomial) -> str:
            if not m:
                return ""
            parts = []
            i = 0
            while i < len(m):
                j = i
                while j < len(m) and m[j] == m[i]:
                    j += 1
                parts.append(name(m[i]) if j - i == 1 else f"{name(m[i])}^{j - i}")
                i = j
            return "*".join(parts)
        ordered = sorted(self.terms.items(), key=lambda kv: (-len(kv[0]), kv[0]))
        out = []
        for mono, coeff in ordered:
            ms = mono_str(mono)
            if not ms:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = ms
            else:
                body = f"{abs(coeff)}*{ms}"
            if not out:
                out.append(body if coeff > 0 else f"-{body}")
            else:
                out.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(out)

    def __repr__(self) -> str:
        return f"Polynomial({self.render(lambda v: f'x{v}')})"


@dataclass(frozen=True, slots=True, repr=False, eq=False)
class PolySystem:
    """Equations (each polynomial = 0) in the entries of an unknown
    rows x cols matrix; variable id of entry (r, c) is r*cols + c.  Zero
    equations are dropped."""

    rows: int
    cols: int
    equations: tuple[Polynomial, ...]

    def __post_init__(self):
        object.__setattr__(self, "equations",
                           tuple(e for e in self.equations if not e.is_zero()))

    @property
    def nvars(self) -> int:
        return self.rows * self.cols

    def var_id(self, r: int, c: int) -> int:
        return r * self.cols + c

    def var_rc(self, v: int) -> tuple[int, int]:
        return divmod(v, self.cols)

    def var_name(self, v: int) -> str:
        r, c = self.var_rc(v)
        if self.rows <= 9 and self.cols <= 9:
            return f"t{r + 1}{c + 1}"
        return f"t[{r + 1},{c + 1}]"

    def render(self) -> str:
        return "\n".join(f"{e.render(self.var_name)} = 0" for e in self.equations)

    def __repr__(self) -> str:
        return f"PolySystem({self.rows}x{self.cols}, {len(self.equations)} equations)"


def generate_constraints(alg: HomAlgebra, rep: Representation) -> PolySystem:
    """Polynomial system whose solutions are exactly the relative
    Rota-Baxter operators for (alg, rep).

    The nonzero entries of the twists, tables and actions are collected
    once; each equation is then written straight into one
    ``{monomial: coefficient}`` dict."""
    _require_match(rep, alg)
    n, m = alg.dim, rep.carrier_dim

    def pair(u: int, w: int) -> Monomial:
        return (u, w) if u <= w else (w, u)

    equations: list[Polynomial] = []

    # Linear part: (T phi - alpha T)[a][j] = 0.
    phi = rep.phi.entries
    alpha = alg.alpha.entries
    phi_cols = [[(q, phi[q][j]) for q in range(m) if phi[q][j]] for j in range(m)]
    alpha_rows = [[(b, -alpha[a][b]) for b in range(n) if alpha[a][b]]
                  for a in range(n)]
    for a in range(n):
        for j in range(m):
            out: dict[Monomial, Fraction] = {}
            _accumulate(out, (((a * m + q,), c) for q, c in phi_cols[j]))
            _accumulate(out, (((b * m + j,), c) for b, c in alpha_rows[a]))
            equations.append(Polynomial._clean(_nonzero(out)))

    # Quadratic part, per table: for carrier pair (i, j) and output
    # coordinate k,
    #   sum_{a,b} C[a][b][k] T[a][i] T[b][j]
    #     - sum_q T[k][q] * (sum_a L_a[q][j] T[a][i] + sum_b R_b[q][i] T[b][j]) = 0.
    for name, tensor in alg.tensors().items():
        left, right = rep.action_pair(name)
        consts = [[] for _ in range(n)]  # k -> [(a, b, C[a][b][k])]
        for (a, b), v in tensor.stored()[1].items():
            for k, _ in v:
                consts[k].append((a, b, tensor.products[a, b][k]))
        # j -> [(q, a, -L_a[q][j])] and i -> [(q, b, -R_b[q][i])], sorted
        lefts, rights = [[] for _ in range(m)], [[] for _ in range(m)]
        for family, out in ((left, lefts), (right, rights)):
            for (a, j), col in family.stored()[1].items():
                out[j] += [(q, a, -family.mats[a].entries[q][j]) for q, _ in col]
        for terms in (*lefts, *rights):
            terms.sort()
        for i in range(m):
            for j in range(m):
                for k in range(n):
                    out = {}
                    _accumulate(out, ((pair(a * m + i, b * m + j), c)
                                      for a, b, c in consts[k]))
                    _accumulate(out, ((pair(k * m + q, a * m + i), c)
                                      for q, a, c in lefts[j]))
                    _accumulate(out, ((pair(k * m + q, b * m + j), c)
                                      for q, b, c in rights[i]))
                    equations.append(Polynomial._clean(_nonzero(out)))
    return PolySystem(n, m, equations)


@dataclass(frozen=True)
class Elimination:
    """Result of solving the linear part: a substitution for the pinned
    variables, the surviving system over the free ones, and a flag for an
    inconsistent linear part (then there are no solutions at all)."""

    system: PolySystem
    substitution: dict[int, Polynomial]
    free_vars: tuple[int, ...]
    inconsistent: bool = False


def _solve_linear_part(linear: Sequence[Polynomial], variables: Sequence[int]):
    """Solve linear polynomials over the given variables.

    Returns (pivot substitution keyed by variable id, surviving free
    variables) or None if inconsistent.  Pinned variables are preferred
    from the high end so that low-index unknowns stay free, matching the
    usual presentation of parameter families.
    """
    ordered = sorted(variables, reverse=True)
    var_index = {v: i for i, v in enumerate(ordered)}
    rows = []
    for p in linear:
        row = [Fraction(0)] * (len(ordered) + 1)
        for mono, coeff in p.terms.items():
            if mono == ():
                row[-1] = coeff
            else:
                row[var_index[mono[0]]] = coeff
        rows.append(row)
    if not rows:
        return {}, tuple(sorted(variables))
    reduced, pivots = _rref(rows)
    if len(ordered) in pivots:
        return None
    mapping: dict[int, Polynomial] = {}
    for r, p in enumerate(pivots):
        row = reduced[r]
        terms = {(ordered[c],): -row[c] for c in range(p + 1, len(ordered)) if row[c]}
        terms[()] = -row[-1]
        mapping[ordered[p]] = Polynomial(terms)
    free = tuple(sorted(v for i, v in enumerate(ordered) if i not in pivots))
    return mapping, free


def eliminate_linear(system: PolySystem) -> Elimination:
    """Eliminate the degree-one subsystem exactly and substitute into the
    rest.  The substitution sends every pinned variable to an affine
    polynomial in the free variables."""
    variables = list(range(system.nvars))
    linear = [e for e in system.equations if e.degree() <= 1]
    rest = [e for e in system.equations if e.degree() > 1]
    solved = _solve_linear_part(linear, variables)
    if solved is None:
        return Elimination(PolySystem(system.rows, system.cols, []),
                           {}, (), inconsistent=True)
    mapping, free = solved
    residual = [e.substitute(mapping) for e in rest]
    return Elimination(PolySystem(system.rows, system.cols, residual),
                       mapping, free)


@dataclass(frozen=True)
class AffineFamily:
    """Affine set of solution matrices: particular + span of the basis,
    one basis matrix per free parameter."""

    particular: Matrix
    basis: tuple[Matrix, ...]
    params: tuple[str, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def member(self, values: Sequence) -> Matrix:
        if len(values) != len(self.basis):
            raise ShapeError("need one value per free parameter")
        out = self.particular
        for v, b in zip(values, self.basis):
            out = out + b.scale(frac(v))
        return out


@dataclass(frozen=True)
class SolutionSet:
    """Outcome of :func:`solve`.

    * ``finite``: all solutions listed in ``points`` (possibly none);
    * ``affine_family``: solutions form the affine set ``family``, whose
      parameterization vanishes in all equations by symbolic substitution;
    * ``residual``: the reduction got stuck; ``residual`` holds the
      unsolved system after linear elimination, with no claim attached.
    """

    status: str
    points: tuple[Matrix, ...] = ()
    family: AffineFamily | None = None
    residual: PolySystem | None = None


@dataclass
class _Leaf:
    subst: dict[int, Polynomial]
    free: tuple[int, ...]
    residual: tuple[Polynomial, ...] = ()


def _perfect_square_root(p: Polynomial) -> Polynomial | None:
    """If ``p = c * L^2`` with L linear and c nonzero, return L."""
    if p.is_zero() or p.degree() != 2:
        return None
    square_vars = [m[0] for m in p.terms if len(m) == 2 and m[0] == m[1]]
    if not square_vars:
        return None
    x = min(square_vars)
    c = p.coefficient((x, x))
    # Candidate L = x + sum_y (coef(x,y)/(2c)) y + coef(x)/(2c).
    terms = {(x,): Fraction(1)}
    for mono, coeff in p.terms.items():
        if len(mono) == 2 and x in mono and mono != (x, x):
            y = mono[0] if mono[1] == x else mono[1]
            terms[(y,)] = coeff / (2 * c)
    lin = p.coefficient((x,))
    if lin != 0:
        terms[()] = lin / (2 * c)
    candidate = Polynomial(terms)
    if (candidate * candidate).scale(c) == p:
        return candidate
    return None


def _univariate_roots(p: Polynomial) -> list[Fraction] | None:
    """Rational roots of a polynomial in one variable of degree <= 2, or
    None if the polynomial is not univariate or has a higher degree."""
    vs = p.variables()
    if len(vs) != 1 or p.degree() > 2:
        return None
    (x,) = vs
    a = p.coefficient((x, x))
    b = p.coefficient((x,))
    c = p.coefficient(())
    if a == 0:
        return [] if b == 0 else [-c / b]
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    s = rational_sqrt(disc)
    if s is None:
        return []
    roots = {(-b + s) / (2 * a), (-b - s) / (2 * a)}
    return sorted(roots)


def _apply(subst: dict[int, Polynomial],
           mapping: dict[int, Polynomial]) -> dict[int, Polynomial]:
    return {v: p.substitute(mapping) for v, p in subst.items()}


def _reduce(equations: list[Polynomial], subst: dict[int, Polynomial],
            free: tuple[int, ...]) -> list[_Leaf]:
    equations = [e for e in equations if not e.is_zero()]
    while True:
        if any(e.degree() == 0 for e in equations):
            return []  # a nonzero constant: no solutions on this branch
        linear = [e for e in equations if e.degree() == 1]
        if not linear:
            break
        solved = _solve_linear_part(linear, list(free))
        if solved is None:
            return []
        mapping, free = solved
        if not mapping:
            break
        subst = _apply(subst, mapping)
        equations = [e2 for e in equations
                     if (e2 := e.substitute(mapping)) and not e2.is_zero()]
    if not equations:
        return [_Leaf(subst, free)]

    for idx, eq in enumerate(equations):
        roots = _univariate_roots(eq)
        if roots is not None:
            (x,) = eq.variables()
            leaves: list[_Leaf] = []
            for r in roots:
                mapping = {x: Polynomial.constant(r)}
                rest = [e.substitute(mapping) for e in equations[:idx]
                        + equations[idx + 1:]]
                leaves.extend(_reduce(rest, _apply(subst, mapping),
                                      tuple(v for v in free if v != x)))
            return leaves
        line = _perfect_square_root(eq)
        if line is not None:
            rest = equations[:idx] + equations[idx + 1:] + [line]
            return _reduce(rest, subst, free)
        if len(eq.terms) == 1:
            (mono,) = eq.terms
            leaves = []
            for x in sorted(set(mono)):
                mapping = {x: Polynomial.constant(0)}
                rest = [e.substitute(mapping) for e in equations]
                leaves.extend(_reduce(rest, _apply(subst, mapping),
                                      tuple(v for v in free if v != x)))
            return leaves
    return [_Leaf(subst, free, tuple(equations))]


def _leaf_family(leaf: _Leaf, system: PolySystem) -> AffineFamily:
    def matrix_of(values: Callable[[int], Fraction]) -> Matrix:
        return Matrix([[values(system.var_id(r, c)) for c in range(system.cols)]
                       for r in range(system.rows)])

    particular = matrix_of(lambda v: leaf.subst[v].coefficient(()))
    basis = []
    for f in leaf.free:
        basis.append(matrix_of(lambda v, f=f: leaf.subst[v].coefficient((f,))))
    return AffineFamily(particular, tuple(basis),
                        tuple(system.var_name(f) for f in leaf.free))


def _vectorize(m: Matrix) -> Vector:
    return Vector([e for row in m.entries for e in row])


def _family_contains(big: AffineFamily, small: AffineFamily) -> bool:
    member = span_membership([_vectorize(b) for b in big.basis])
    if not member(_vectorize(small.particular) - _vectorize(big.particular)):
        return False
    return all(member(_vectorize(b)) for b in small.basis)


def solve(system: PolySystem) -> SolutionSet:
    """Reduce the system by exact substitution and classify the solutions.

    Family results are verified symbolically: the parameterization is
    substituted back into every input equation, which must vanish
    identically in the free parameters.
    """
    identity_subst = {v: Polynomial.variable(v) for v in range(system.nvars)}
    leaves = _reduce(list(system.equations), dict(identity_subst),
                     tuple(range(system.nvars)))
    stuck = [leaf for leaf in leaves if leaf.residual]
    if stuck:
        return SolutionSet("residual",
                           residual=PolySystem(system.rows, system.cols,
                                               stuck[0].residual))
    families = [_leaf_family(leaf, system) for leaf in leaves]
    kept: list[AffineFamily] = []
    for fam in families:
        if any(_family_contains(other, fam) for other in kept):
            continue
        kept = [other for other in kept if not _family_contains(fam, other)]
        kept.append(fam)
    if all(f.dim == 0 for f in kept):
        points = sorted({f.particular for f in kept},
                        key=lambda m: tuple(tuple(r) for r in m.entries))
        return SolutionSet("finite", points=tuple(points))
    if len(kept) == 1 and kept[0].dim >= 1:
        leaf = leaves[families.index(kept[0])]
        for eq in system.equations:
            if not eq.substitute(leaf.subst).is_zero():
                raise SoundnessError(
                    "family verification failed on: " + eq.render(system.var_name))
        return SolutionSet("affine_family", family=kept[0])
    # Mixed points and families cannot be expressed in this schema; hand
    # back the post-elimination system without a claim.
    return SolutionSet("residual", residual=eliminate_linear(system).system)


def parameter_sequence():
    """Deterministic sample values 1, -1, 2, -1/2, 3, -1/3, ..."""
    k = 1
    while True:
        yield Fraction(k)
        yield Fraction(-1, k)
        k += 1


def _take_parameters(count: int, offset: int = 0) -> list[Fraction]:
    return list(islice(parameter_sequence(), offset, offset + count))


def solve_relative_rbo(alg: HomAlgebra, rep: Representation) -> SolutionSet:
    """Generate the constraint system for (alg, rep) and solve it."""
    return solve(generate_constraints(alg, rep))


def verify_solution(alg: HomAlgebra, rep: Representation, sol: SolutionSet,
                    samples: int = 3) -> CheckReport:
    """Re-check every reported solution against the direct operator test.

    Finite points are checked one by one; a family is instantiated at
    ``samples`` deterministic parameter choices.  Any failure raises
    :class:`SoundnessError` naming the offending matrix.
    """
    checks = []

    def run(label: str, t: Matrix):
        report = check_relative_rbo(OperatorContext(alg, rep, t))
        if not report.passed:
            raise SoundnessError(
                f"{label} = {t!r} fails: "
                + "; ".join(c.render() for c in report.failures()))
        checks.append(CheckResult(label, True))

    for i, point in enumerate(sol.points):
        run(f"point[{i}]", point)
    if sol.family is not None:
        for s in range(samples):
            values = _take_parameters(sol.family.dim, offset=s)
            run(f"family_sample[{s}]", sol.family.member(values))
    return CheckReport(tuple(checks))
