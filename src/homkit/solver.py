"""Constraint generation and exact solving for relative Rota-Baxter
operators with unknown matrix entries.

The unknowns are the entries of T.  Intertwining the twists contributes
linear equations; each product-splitting condition contributes quadratic
equations, one per carrier basis pair and output coordinate.  ``solve``
runs four stages.  Generate: :func:`generate_constraints`.  Eliminate:
:func:`eliminate_linear`, the first linear round (:func:`_linear_round`),
over every unknown.  Reduce: :func:`_reduce`, further linear rounds and
the branch rules: univariate equations with rational roots,
single-monomial equations (a product of unknowns forced to vanish
branches on its factors), and rank-one quadrics ``c * L^2`` with L
linear; anything outside that class is returned unsolved as a residual
system rather than guessed at.  Verify: the leaves' affine families are
compared, and a family is substituted back into every equation.

Every stage computes in ints: a polynomial keeps its coefficients as ints
over one denominator, the generator reads the stored ints of the twists,
tables and actions, and the linear rounds and the family comparison
eliminate fraction-free on sparse int rows.  A leaf's substitution maps
only its pinned variables; the free ones stay themselves.  Each
substitution round makes one substitution object, which expands each
monomial once for all the polynomials of the round.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd, isqrt, lcm
from typing import Callable, Mapping, Sequence

from .algebra import HomAlgebra
from .errors import ShapeError, SoundnessError
from .linalg import (
    Matrix, Rational, _echelon, _Frozen, _lowest_terms, _put, _remainder, _Value, frac,
)
from .operators import OperatorContext, check_relative_rbo
from .representation import Representation, _require_match
from .reporting import CheckReport, CheckResult

Monomial = tuple[int, ...]  # sorted variable ids; () is the constant monomial


class Polynomial(_Frozen):
    """Sparse multivariate polynomial with exact rational coefficients,
    kept as nonzero ints over one denominator.

    ``ints`` maps sorted monomials to nonzero ints and ``den`` is a
    positive int with ``gcd(den, *ints.values()) == 1``; the coefficient
    of ``m`` is ``ints[m] / den``.  This form is canonical, so equal
    polynomials have equal forms.  The arithmetic works on the ints and
    builds no Fraction; ``terms`` is the ``{monomial: Fraction}`` view.
    """

    __slots__ = ("ints", "den")

    def __init__(self, terms: Mapping[Monomial, Rational] | None = None):
        coeffs: dict[Monomial, Fraction] = {}
        for mono, c in (terms or {}).items():
            key = tuple(sorted(mono))
            coeffs[key] = coeffs.get(key, 0) + frac(c)
        coeffs = {m: c for m, c in coeffs.items() if c}
        den = lcm(*(c.denominator for c in coeffs.values()))
        self._set({m: c.numerator * (den // c.denominator) for m, c in coeffs.items()}, den)

    @classmethod
    def _of(cls, ints: dict[Monomial, int], den: int = 1) -> "Polynomial":
        """The polynomial ``ints / den``, from sorted monomials, nonzero
        ints and a positive ``den``, in canonical form."""
        if den != 1:
            g = gcd(den, *ints.values())
            if g != 1:
                ints = {m: c // g for m, c in ints.items()}
                den //= g
        # The solver makes tens of thousands of these per solve: two direct
        # slot writes, as ``_set``'s generic loop costs about a tenth of a
        # pass over the benchmark's ``solve`` pool.
        p = object.__new__(cls)
        _put(p, "ints", ints)
        _put(p, "den", den)
        return p

    def __reduce__(self):
        return Polynomial._of, (self.ints, self.den)

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """The nonzero coefficients as ``{monomial: Fraction}``."""
        den = self.den
        return {m: Fraction(c, den) for m, c in self.ints.items()}

    @classmethod
    def constant(cls, c: Rational) -> "Polynomial":
        c = frac(c)
        return cls._of({(): c.numerator} if c else {}, c.denominator)

    @classmethod
    def variable(cls, v: int) -> "Polynomial":
        return cls._of({(v,): 1})

    def is_zero(self) -> bool:
        return not self.ints

    def degree(self) -> int:
        return max(map(len, self.ints), default=0)

    def variables(self) -> set[int]:
        return {v for m in self.ints for v in m}

    def coefficient(self, mono: Monomial) -> Fraction:
        return Fraction(self.ints.get(tuple(sorted(mono)), 0), self.den)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        d = lcm(self.den, other.den)
        s1, s2 = d // self.den, d // other.den
        out = dict(self.ints) if s1 == 1 else {m: c * s1 for m, c in self.ints.items()}
        for m, c in other.ints.items():
            out[m] = out.get(m, 0) + c * s2
        return Polynomial._of({m: c for m, c in out.items() if c}, d)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1)

    def __neg__(self) -> "Polynomial":
        return self.scale(-1)

    def scale(self, c: Rational) -> "Polynomial":
        c = frac(c)
        return Polynomial._of({m: c.numerator * v for m, v in self.ints.items()} if c else {},
                              self.den * c.denominator)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out: dict[Monomial, int] = {}
        for m1, c1 in self.ints.items():
            for m2, c2 in other.ints.items():
                m = tuple(sorted(m1 + m2))
                out[m] = out.get(m, 0) + c1 * c2
        return Polynomial._of({m: c for m, c in out.items() if c}, self.den * other.den)

    def substitute(self, mapping: "Mapping[int, Polynomial] | _Substitution") -> "Polynomial":
        """Replace each mapped variable by a polynomial (one-shot, unless ``mapping`` is a
        shared :class:`_Substitution`); an unmapped polynomial is returned as it is."""
        if not isinstance(mapping, _Substitution):
            mapping = _Substitution(mapping)
        return mapping.apply(self)

    def evaluate(self, assignment: Mapping[int, Fraction]) -> Fraction:
        total = Fraction(0)
        for mono, coeff in self.ints.items():
            value = coeff
            for v in mono:
                value *= assignment[v]
            total += value
        return total / self.den

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial) and self.den == other.den
                and self.ints == other.ints)

    def __hash__(self) -> int:
        return hash((self.den, frozenset(self.ints.items())))

    def render(self, name: Callable[[int], str]) -> str:
        if not self.ints:
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


class _Substitution:
    """A mapping ``{variable: Polynomial}`` to apply to many polynomials.
    Each monomial is expanded once, as ints over the product of its images'
    denominators, for every polynomial holding it; a polynomial sums its
    expansions in one dict, over their lcm."""

    __slots__ = ("mapping", "expansions")

    def __init__(self, mapping: Mapping[int, Polynomial]):
        self.mapping = mapping
        self.expansions: dict[Monomial, tuple[int, list]] = {}

    def _expand(self, mono: Monomial) -> tuple[int, list]:
        """``(den, [(monomial, int), ...])``, the image of ``mono`` as ints over ``den``;
        kept for the next polynomial holding ``mono``."""
        mapping, den = self.mapping, 1
        expansion = {tuple([v for v in mono if v not in mapping]): 1}
        for image in [mapping[v] for v in mono if v in mapping]:
            if not image.ints:  # a zero image: the monomial vanishes
                expansion, den = {}, 1
                break
            den *= image.den
            out: dict[Monomial, int] = {}
            for m1, c1 in expansion.items():
                for m2, c2 in image.ints.items():
                    m = tuple(sorted(m1 + m2))
                    out[m] = out.get(m, 0) + c1 * c2
            expansion = out
        found = self.expansions[mono] = den, [(m, c) for m, c in expansion.items() if c]
        return found

    def apply(self, p: Polynomial) -> Polynomial:
        expansions, out, den = self.expansions, {}, 1
        for mono, coeff in p.ints.items():
            d, terms = expansions.get(mono) or self._expand(mono)
            if den % d:  # bring the sum over lcm(den, d)
                s = d // gcd(den, d)
                out = {m: c * s for m, c in out.items()}
                den *= s
            coeff *= den // d
            for m, c in terms:
                out[m] = out.get(m, 0) + c * coeff
        if den == 1 and out == p.ints:  # unmapped, or mapped onto itself
            return p
        return Polynomial._of({m: c for m, c in out.items() if c}, p.den * den)


class PolySystem(_Frozen):
    """Equations (each polynomial = 0) in the entries of an unknown
    rows x cols matrix; variable id of entry (r, c) is r*cols + c.  Zero
    equations are dropped.  Systems compare by identity."""

    __slots__ = ("rows", "cols", "equations")

    def __init__(self, rows: int, cols: int, equations: tuple[Polynomial, ...]):
        self._set(rows, cols, tuple(e for e in equations if not e.is_zero()))

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

    The stored ints of the twists, tables and actions are read once and
    brought over the lcm of their denominators; each equation is then
    written straight into one ``{monomial: int}`` dict over that lcm, by
    plain loops over its terms.  An equation with no term is not built."""
    _require_match(rep, alg)
    n, m = alg.dim, rep.carrier_dim
    equations: list[Polynomial] = []

    # Linear part: (T phi - alpha T)[a][j] = 0.
    (dphi, phi), (dalpha, alpha) = rep.phi.stored(), alg.alpha.stored()
    d = lcm(dphi, dalpha)
    phi_cols = [[] for _ in range(m)]  # j -> [(q, phi[q][j])]
    for q, row in phi.items():
        for j, x in row:
            phi_cols[j].append((q, x * (d // dphi)))
    for a in range(n):
        alpha_row = [(b * m, -x * (d // dalpha)) for b, x in alpha.get(a, ())]
        for j in range(m):
            out = {(a * m + q,): c for q, c in phi_cols[j]}
            for b, c in alpha_row:
                out[b + j,] = out.get((b + j,), 0) + c
            if out:
                equations.append(Polynomial._of({u: c for u, c in out.items() if c}, d))

    # Quadratic part, per table: for carrier pair (i, j) and output
    # coordinate k,
    #   sum_{a,b} C[a][b][k] T[a][i] T[b][j]
    #     - sum_q T[k][q] * (sum_a L_a[q][j] T[a][i] + sum_b R_b[q][i] T[b][j]) = 0.
    for name, tensor in alg.tensors().items():
        left, right = rep.action_pair(name)
        (dt, products), (dl, lcols), (dr, rcols) = (tensor.stored(), left.stored(),
                                                     right.stored())
        d = lcm(dt, dl, dr)
        consts = [[] for _ in range(n)]  # k -> [(a*m, b*m, C[a][b][k])]
        for (a, b), v in products.items():
            for k, x in v:
                consts[k].append((a * m, b * m, x * (d // dt)))
        # j -> [(q, a, -L_a[q][j])] and i -> [(q, b, -R_b[q][i])], sorted
        lefts, rights = [[] for _ in range(m)], [[] for _ in range(m)]
        for cols, s, out in ((lcols, d // dl, lefts), (rcols, d // dr, rights)):
            for (a, j), col in cols.items():
                out[j] += [(q, a, -x * s) for q, x in col]
        for terms in (*lefts, *rights):
            terms.sort()
        for i in range(m):
            for j in range(m):
                # (q, w, c): the action terms c T[k][q] T_w, the same for every k
                acts = ([(q, a * m + i, c) for q, a, c in lefts[j]]
                        + [(q, b * m + j, c) for q, b, c in rights[i]])
                for k in range(n):
                    out = {}
                    for a, b, c in consts[k]:
                        u, w = a + i, b + j
                        key = (u, w) if u <= w else (w, u)
                        out[key] = out.get(key, 0) + c
                    for q, w, c in acts:
                        u = k * m + q
                        key = (u, w) if u <= w else (w, u)
                        out[key] = out.get(key, 0) + c
                    if out:
                        equations.append(Polynomial._of({u: c for u, c in out.items() if c}, d))
    return PolySystem(n, m, equations)


class Elimination(_Value):
    """Result of solving the linear part: a substitution for the pinned
    variables, the surviving system over the free ones, and a flag for an
    inconsistent linear part (then there are no solutions at all)."""

    __slots__ = ("system", "substitution", "free_vars", "inconsistent")

    def __init__(self, system: PolySystem, substitution: dict[int, Polynomial],
                 free_vars: tuple[int, ...], inconsistent: bool = False):
        self._set(system, substitution, free_vars, inconsistent)


def _solve_linear_part(linear: Sequence[Polynomial], variables: Sequence[int]):
    """Solve linear polynomials over the given variables.

    Returns (pivot substitution keyed by variable id, surviving free
    variables) or None if inconsistent.  Pinned variables are preferred
    from the high end so that low-index unknowns stay free, matching the
    usual presentation of parameter families.

    Each equation's ints are a sparse row ``{column: int}`` (variables in
    descending order, then the constant), reduced by ``linalg._echelon``.
    The system is inconsistent iff the constant column is a pivot;
    otherwise each pivot's image is an int polynomial over its pivot entry.
    """
    ordered = sorted(variables, reverse=True)
    const = len(ordered)
    column = {v: i for i, v in enumerate(ordered)}
    pivots = _echelon({column[mono[0]] if mono else const: c for mono, c in p.ints.items()}
                      for p in linear)
    if const in pivots:
        return None
    mapping: dict[int, Polynomial] = {}
    for c in sorted(pivots):
        row = pivots[c]
        mapping[ordered[c]] = Polynomial._of(
            {(ordered[k],) if k != const else (): -x for k, x in row.items() if k != c},
            row[c])
    free = tuple(sorted(v for i, v in enumerate(ordered) if i not in pivots))
    return mapping, free


def _linear_round(equations: Sequence[Polynomial], free: Sequence[int]):
    """One linear round over the variables ``free``: solve the equations
    of degree <= 1, substitute into the others and drop those that become
    zero.  Returns ``(substitution, free variables left, remaining
    equations)``, or None if the round is inconsistent (a nonzero constant
    among the equations, or linear equations with no common solution)."""
    linear, rest = [], []
    for e in equations:
        (rest if e.degree() > 1 else linear).append(e)
    solved = _solve_linear_part(linear, free)
    if solved is None:
        return None
    sub = _Substitution(solved[0])
    if sub.mapping:
        rest = [e2 for e in rest if not (e2 := e.substitute(sub)).is_zero()]
    return sub, solved[1], rest


def eliminate_linear(system: PolySystem) -> Elimination:
    """Eliminate the degree-one subsystem exactly and substitute into the
    rest: the first linear round, over every variable.  The substitution
    sends every pinned variable to an affine polynomial in the free ones."""
    solved = _linear_round(system.equations, range(system.nvars))
    if solved is None:
        return Elimination(PolySystem(system.rows, system.cols, ()),
                           {}, (), inconsistent=True)
    sub, free, rest = solved
    return Elimination(PolySystem(system.rows, system.cols, rest), sub.mapping, free)


class AffineFamily(_Value):
    """Affine set of solution matrices: particular + span of the basis,
    one basis matrix per free parameter."""

    __slots__ = ("particular", "basis", "params")

    def __init__(self, particular: Matrix, basis: tuple[Matrix, ...],
                 params: tuple[str, ...]):
        self._set(particular, basis, params)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def member(self, values: Sequence) -> Matrix:
        if len(values) != len(self.basis):
            raise ShapeError("need one value per free parameter")
        return self.particular._combine((self.particular, 1), *zip(self.basis, values))


class SolutionSet(_Value):
    """Outcome of :func:`solve`.

    * ``finite``: all solutions listed in ``points`` (possibly none);
    * ``affine_family``: solutions form the affine set ``family``, whose
      parameterization vanishes in all equations by symbolic substitution;
    * ``residual``: the reduction got stuck; ``residual`` holds the
      unsolved system after linear elimination, with no claim attached.
    """

    __slots__ = ("status", "points", "family", "residual")

    def __init__(self, status: str, points: tuple[Matrix, ...] = (),
                 family: AffineFamily | None = None,
                 residual: PolySystem | None = None):
        self._set(status, points, family, residual)


class _Leaf(_Value):
    __slots__ = ("subst", "free", "residual")

    def __init__(self, subst: dict[int, Polynomial], free: tuple[int, ...],
                 residual: tuple[Polynomial, ...] = ()):
        self._set(subst, free, residual)


def _perfect_square_root(p: Polynomial) -> Polynomial | None:
    """If ``p = c * L^2`` with L linear and c nonzero, return L, with
    coefficient 1 at the least variable squared in ``p``."""
    if p.degree() != 2:
        return None
    ints = p.ints
    square_vars = [m[0] for m in ints if len(m) == 2 and m[0] == m[1]]
    if not square_vars:
        return None
    x = min(square_vars)
    a = ints[(x, x)]
    # 2a L = 2a x + sum_y coef(x,y) y + coef(x), so p = c L^2 (c = a / den)
    # iff (2a L)^2 = 4a times p's ints.
    line = {(x,): 2 * a}
    for mono, coeff in ints.items():
        if len(mono) == 2 and x in mono and mono != (x, x):
            line[(mono[0] if mono[1] == x else mono[1],)] = coeff
    if (x,) in ints:
        line[()] = ints[(x,)]
    candidate = Polynomial._of(line)
    if (candidate * candidate).ints != {m: 4 * a * c for m, c in ints.items()}:
        return None
    if a < 0:
        line = {m: -c for m, c in line.items()}
    return Polynomial._of(line, 2 * abs(a))


def _univariate_roots(p: Polynomial) -> list[Fraction] | None:
    """Rational roots of a polynomial in one variable of degree <= 2, or
    None if the polynomial is not univariate or has a higher degree."""
    vs = p.variables()
    if len(vs) != 1 or p.degree() > 2:
        return None
    (x,) = vs
    a, b, c = (p.ints.get(m, 0) for m in ((x, x), (x,), ()))
    if a == 0:
        return [] if b == 0 else [Fraction(-c, b)]
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    s = isqrt(disc)
    if s * s != disc:
        return []
    return sorted({Fraction(-b + s, 2 * a), Fraction(-b - s, 2 * a)})


def _apply(subst: dict[int, Polynomial], sub: _Substitution) -> dict[int, Polynomial]:
    """``subst`` after the round ``sub``: its images substituted, the round's pins added."""
    return {**{v: p.substitute(sub) for v, p in subst.items()}, **sub.mapping}


def _reduce(equations: list[Polynomial], subst: dict[int, Polynomial],
            free: tuple[int, ...]) -> list[_Leaf]:
    """The leaves of a branch: ``subst`` maps its pinned variables into the
    ``free`` ones, which the nonzero ``equations`` hold.  Linear rounds run
    while an equation has degree <= 1, then the first branch rule applies."""
    while any(e.degree() <= 1 for e in equations):
        solved = _linear_round(equations, free)
        if solved is None:
            return []  # no solutions on this branch
        sub, free, equations = solved
        subst = _apply(subst, sub)
    if not equations:
        return [_Leaf(subst, free)]

    for idx, eq in enumerate(equations):
        roots = _univariate_roots(eq)
        if roots is not None:
            (x,) = eq.variables()
            pins = [(x, r) for r in roots]
        elif (line := _perfect_square_root(eq)) is not None:
            return _reduce(equations[:idx] + equations[idx + 1:] + [line], subst, free)
        elif len(eq.ints) == 1:
            (mono,) = eq.ints
            pins = [(x, 0) for x in sorted(set(mono))]
        else:
            continue
        # Branch on each pin; ``eq`` vanishes under every one of them.
        rest = equations[:idx] + equations[idx + 1:]
        leaves: list[_Leaf] = []
        for x, value in pins:
            sub = _Substitution({x: Polynomial.constant(value)})
            leaves.extend(_reduce([e2 for e in rest if not (e2 := e.substitute(sub)).is_zero()],
                                  _apply(subst, sub), tuple(v for v in free if v != x)))
        return leaves
    return [_Leaf(subst, free, tuple(equations))]


def _leaf_family(leaf: _Leaf, system: PolySystem) -> AffineFamily:
    """The affine family of a resolved leaf, whose substitution sends each
    pinned variable to an affine polynomial in the free ones; every matrix
    is filled in one pass over the substitution, and each free variable is
    1 at its own cell of its basis matrix."""
    rows, cols = system.rows, system.cols
    slot = {f: k for k, f in enumerate(leaf.free, 1)}  # 0: the particular
    cells = [{} for _ in range(len(slot) + 1)]
    for f, k in slot.items():
        cells[k][system.var_rc(f)] = (1, 1)
    for v, p in leaf.subst.items():
        r, c = system.var_rc(v)
        for mono, x in p.ints.items():
            g = gcd(x, p.den)
            cells[slot[mono[0]] if mono else 0][r, c] = (x // g, p.den // g)
    particular, *basis = (Matrix._from_form(rows, cols, *_lowest_terms(m.items()))
                         for m in cells)
    return AffineFamily(particular, tuple(basis),
                        tuple(system.var_name(f) for f in leaf.free))


def _flat(m: Matrix) -> dict[int, int]:
    """The stored ints of ``m`` as one sparse row ``{r*cols + c: int}``."""
    cols = m.cols
    return {r * cols + c: x for r, row in m.stored()[1].items() for c, x in row}


def _family_contains(big: AffineFamily, small: AffineFamily) -> bool:
    """Whether ``small`` lies in ``big``: ``small.particular - big.particular``
    and each matrix of ``small.basis`` clear at one :func:`linalg._echelon`
    of ``big.basis``, all as flat int rows."""
    pivots = _echelon(map(_flat, big.basis))
    return all(not _remainder(_flat(m), pivots)
               for m in (small.particular - big.particular, *small.basis))


def solve(system: PolySystem) -> SolutionSet:
    """Reduce the system by exact substitution and classify the solutions.

    Family results are verified symbolically: the parameterization is
    substituted back into every input equation, which must vanish
    identically in the free parameters.
    """
    elim = eliminate_linear(system)
    leaves = [] if elim.inconsistent else _reduce(
        list(elim.system.equations), elim.substitution, elim.free_vars)
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
        sub = _Substitution(leaves[families.index(kept[0])].subst)
        for eq in system.equations:
            if not eq.substitute(sub).is_zero():
                raise SoundnessError(
                    "family verification failed on: " + eq.render(system.var_name))
        return SolutionSet("affine_family", family=kept[0])
    # Mixed points and families cannot be expressed in this schema; hand
    # back the post-elimination system without a claim.
    return SolutionSet("residual", residual=elim.system)


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
