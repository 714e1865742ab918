"""Line-oriented text format for algebras, linear maps, and representations.

Example::

    # two-dimensional example
    algebra A2leib {
      dim 2
      kind leibniz
      bracket {
        [e1,e2] = e1
        [e2,e1] = -e1
      }
      alpha {
        e1 -> -e1
        e2 -> e1 + e2
      }
    }

    map beta : A2leib -> A2leib {
      e1 -> -e1
      e2 -> e1 + e2
    }

    representation reg on A2leib {
      dim 2
      phi {
        f1 -> -f1
        f2 -> f1 + f2
      }
      rho_l e1 { f2 -> f1 }
      rho_l e2 { f1 -> -f1 }
      rho_r e1 { f2 -> -f1 }
      rho_r e2 { f1 -> f1 }
    }

Basis symbols are ``e1..eN`` for algebra spaces and map endpoints, and
``f1..fM`` for representation carriers.  Coefficients are exact rationals
such as ``3/2``.  Anything unlisted is zero, ``#`` starts a comment, and
names must be unique.  Serialization is canonical: fields in a fixed
order, entries sorted by basis index, zero entries omitted, coefficients
in lowest terms; parsing a serialized document reproduces it exactly.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import islice
from math import gcd
from typing import Iterable

from .algebra import (
    ACTIONS_OF, ASSOCIATIVE, LEIBNIZ, POISSON, TENSORS_BY_KIND, HomAlgebra,
    StructureTensor,
)
from .errors import ParseError, UnknownNameError
from .linalg import Matrix, _format_terms, _Value, grouped, transposed
from .representation import ActionTensor, Representation

KIND_TOKENS = {"assoc": ASSOCIATIVE, "leibniz": LEIBNIZ, "poisson": POISSON}
KIND_NAMES = {v: k for k, v in KIND_TOKENS.items()}
# The table each action family pairs with, by the family's block name.
_TABLE_OF = {action: name for name, pair in ACTIONS_OF.items() for action in pair}

_BASIS_RE = re.compile(r"([a-z])([1-9][0-9]*)$")


class DocAlgebra(_Value):
    __slots__ = ("name", "algebra")

    def __init__(self, name: str, algebra: HomAlgebra):
        self._set(name, algebra)


class DocMap(_Value):
    __slots__ = ("name", "src", "dst", "matrix")

    def __init__(self, name: str, src: str, dst: str, matrix: Matrix):
        self._set(name, src, dst, matrix)


class DocRepresentation(_Value):
    __slots__ = ("name", "base", "rep")

    def __init__(self, name: str, base: str, rep: Representation):
        self._set(name, base, rep)


class Document:
    """Ordered collection of named definitions."""

    def __init__(self, items: Iterable = ()):
        self.items: list = []
        self._by_name: dict[str, object] = {}
        for item in items:
            self.add(item)

    def add(self, item) -> None:
        if item.name in self._by_name:
            raise ValueError(f"duplicate name {item.name!r}")
        self.items.append(item)
        self._by_name[item.name] = item

    def get(self, name: str):
        return self._by_name.get(name)

    def _typed(self, name: str, cls: type, what: str):
        item = self.get(name)
        if not isinstance(item, cls):
            raise UnknownNameError(f"no {what} named {name!r}")
        return item

    def algebra(self, name: str) -> HomAlgebra:
        return self._typed(name, DocAlgebra, "algebra").algebra

    def representation(self, name: str) -> DocRepresentation:
        return self._typed(name, DocRepresentation, "representation")

    def map(self, name: str) -> DocMap:
        return self._typed(name, DocMap, "map")

    def __eq__(self, other) -> bool:
        return isinstance(other, Document) and self.items == other.items

    def __repr__(self) -> str:
        return f"Document({[i.name for i in self.items]})"


# The reader's lexer.  In front of each token it skips blanks, the
# characters at which ``str.splitlines`` breaks a line, and comments, which
# end at such a character; its group is the token's text, and the empty
# text at the end of the input.
_BREAKS = r"\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029"
_SKIP = rf"[ \t{_BREAKS}]*"
_SCAN_RE = re.compile(
    rf"{_SKIP}(?:\#[^{_BREAKS}]*{_SKIP})*"
    r"(->|[{}\[\],*=+\-/:]|[A-Za-z_][A-Za-z0-9_]*|[0-9]+|)")
_COMMENT_RE = re.compile(rf"\#[^{_BREAKS}]*")
# Outside comments, a character that no token, blank or line break holds;
# a ``>`` is one unless it ends a ``->``.
_BAD_RE = re.compile(rf"[^ \t{_BREAKS}A-Za-z0-9_{{}}\[\],*=+\-/:](?<!->)")


def _error(message: str, text: str, at: int | None) -> ParseError:
    """The error at offset ``at`` of ``text``, on the line after the ``str.splitlines``
    breaks before it; ``None`` is the end of input, after the last line feed."""
    if at is None:
        return ParseError(message, text.count("\n") + 1, 1)
    lines = text[:at + 1].splitlines()
    return ParseError(message, len(lines), len(lines[-1]))


class _Reader:
    """The parser: it walks ``toks``, the token texts of the whole text, by
    index.  A name is a text that ``isidentifier()``, a number one that
    ``isdigit()``, and ``""`` is the end of input.  Only an error needs a
    position: that of the token at fault is read from ``_SCAN_RE.finditer``,
    and an unexpected character is where the scan first finds no token."""

    def __init__(self, text: str):
        plain = _COMMENT_RE.sub("", text) if "#" in text else text
        if _BAD_RE.search(plain):
            at = next(m.start(1) for m in _SCAN_RE.finditer(text) if not m.group(1))
            raise _error(f"unexpected character {text[at]!r}", text, at)
        self.text = text
        self.toks: list[str] = _SCAN_RE.findall(text)
        self.pos = 0
        self.symbols: dict[tuple[str, str, int], int] = {}
        self.lowest: dict[tuple[int, int], tuple[int, int]] = {}

    def fail(self, message: str, pos: int | None = None):
        pos = self.pos if pos is None else pos
        at = next(islice(_SCAN_RE.finditer(self.text), pos, None)).start(1)
        raise _error(message, self.text, at if self.toks[pos] else None)

    def expect(self, text: str) -> int:
        pos = self.pos
        tok = self.toks[pos]
        if tok != text:
            self.fail(f"expected {text!r}, found {tok or 'end of input'!r}")
        self.pos = pos + 1
        return pos

    def expect_name(self, what: str) -> int:
        pos = self.pos
        tok = self.toks[pos]
        if not tok.isidentifier():
            self.fail(f"expected {what}, found {repr(tok) if tok else 'end of input'}")
        self.pos = pos + 1
        return pos

    # ---- shared pieces -------------------------------------------------

    def _int_value(self, pos: int) -> int:
        """The value of the INT token at ``pos``; one with more digits than
        the interpreter converts is a parse error at its token."""
        try:
            return int(self.toks[pos])
        except ValueError:
            self.fail(f"number with {len(self.toks[pos])} digits is too long", pos)

    def parse_dim(self, what: str) -> int:
        """A dimension; one beyond the platform's index range is a parse
        error at its token, since no list of that length can exist."""
        pos = self.pos
        if not self.toks[pos].isdigit():
            self.fail(f"expected {what}")
        dim = self._int_value(pos)
        if dim > sys.maxsize:
            self.fail(f"dimension {dim} is too large to index", pos)
        self.pos = pos + 1
        return dim

    def parse_lincomb(self) -> list[tuple[int, int, int]]:
        """Terms as ``(num, den, pos)``: the coefficient ``num/den`` of the
        basis symbol at token ``pos``, ``den > 0``; a lone 0 is empty."""
        toks = self.toks
        pos = self.pos
        terms = []
        sign = 1
        tok = toks[pos]
        if tok == "-":
            sign = -1
            pos += 1
            tok = toks[pos]
        elif tok == "+":
            self.fail("a linear combination cannot start with '+'", pos)
        while True:
            if tok.isidentifier():
                terms.append((sign, 1, pos))
                pos += 1
            elif tok.isdigit():
                num = self._int_value(pos)
                pos += 1
                den = 1
                if toks[pos] == "/":
                    pos += 1
                    den = self._int_value(pos) if toks[pos].isdigit() else 0
                    if den == 0:
                        self.fail("expected a nonzero denominator", pos)
                    pos += 1
                if toks[pos].isidentifier():
                    terms.append((sign * num, den, pos))
                    pos += 1
                elif num:
                    self.fail("expected a basis symbol after the coefficient", pos)
            else:
                self.fail("expected a term", pos)
            tok = toks[pos]
            if tok == "-":
                sign = -1
            elif tok == "+":
                sign = 1
            else:
                break
            pos += 1
            tok = toks[pos]
        self.pos = pos
        return terms

    # ---- resolution ----------------------------------------------------

    def _basis_index(self, pos: int, prefix: str, dim: int) -> int:
        """The index of the basis symbol at token ``pos``, resolved once per
        ``(text, prefix, dim)`` and kept in ``symbols``."""
        text = self.toks[pos]
        k = self.symbols.get((text, prefix, dim))
        if k is not None:
            return k
        m = _BASIS_RE.match(text)
        if not m or m.group(1) != prefix:
            self.fail(f"expected a basis symbol {prefix}1..{prefix}{dim}, found {text!r}",
                      pos)
        digits = m.group(2)
        # More digits than the dimension is out of range whatever the value.
        if len(digits) > len(str(dim)) or int(digits) > dim:
            self.fail(f"basis symbol {text!r} out of range for dimension {dim}", pos)
        k = self.symbols[(text, prefix, dim)] = int(digits) - 1
        return k

    def _terms(self, terms, prefix: str, dim: int) -> dict[int, tuple[int, int]]:
        """``{k: (num, den)}``: for each basis index ``k`` the terms name,
        the sum of its coefficients in lowest terms (perhaps zero); each
        coefficient is reduced once per parse."""
        toks, symbols, lowest = self.toks, self.symbols, self.lowest
        out: dict[int, tuple[int, int]] = {}
        for num, den, pos in terms:
            k = symbols.get((toks[pos], prefix, dim))
            if k is None:
                k = self._basis_index(pos, prefix, dim)
            q = lowest.get((num, den))
            if q is None:
                g = gcd(num, den)
                q = lowest[(num, den)] = (num // g, den // g)
            if k in out:  # a symbol named twice
                q = Fraction(*out[k]) + Fraction(*q)
                q = q.numerator, q.denominator
            out[k] = q
        return out

    def _columns(self, entries, src_prefix: str, src_dim: int, dst_prefix: str,
                 dst_dim: int) -> list[tuple[int, int, tuple[int, int]]]:
        """``(j, i, (num, den))`` for each coefficient of ``e_i`` in the linear
        combination given for basis symbol ``j``, each ``(j, i)`` once."""
        out = []
        seen = set()
        for (pos, terms) in entries:
            j = self._basis_index(pos, src_prefix, src_dim)
            if j in seen:
                self.fail(f"duplicate entry for {self.toks[pos]!r}", pos)
            seen.add(j)
            out += [(j, i, q) for i, q in self._terms(terms, dst_prefix, dst_dim).items()]
        return out

    def _matrix(self, entries, src_prefix: str, src_dim: int,
                dst_prefix: str, dst_dim: int) -> Matrix:
        """The matrix whose column ``j`` is the linear combination given for
        basis symbol ``j``, built from its nonzero entries only."""
        cells = [((i, j), q) for j, i, q in
                 self._columns(entries, src_prefix, src_dim, dst_prefix, dst_dim)]
        return Matrix._from_cells(dst_dim, src_dim, cells)

    # ---- items ---------------------------------------------------------

    def parse_document(self) -> Document:
        doc = Document()
        toks = self.toks
        while toks[self.pos]:
            start = self.pos
            tok = toks[start]
            if not tok.isidentifier():
                self.fail("expected 'algebra', 'map', or 'representation'")
            if tok == "algebra":
                item = self.parse_algebra()
            elif tok == "map":
                item = self.parse_map(doc)
            elif tok == "representation":
                item = self.parse_representation(doc)
            else:
                self.fail(f"unknown item {tok!r}")
            if doc.get(item.name) is not None:
                self.fail(f"duplicate name {item.name!r}", start)
            doc.add(item)
        return doc

    def parse_algebra(self) -> DocAlgebra:
        toks = self.toks
        start = self.expect("algebra")
        name = toks[self.expect_name("an algebra name")]
        self.expect("{")
        dim: int | None = None
        kind: str | None = None
        raw: dict[str, list] = {"dot": [], "bracket": [], "alpha": []}
        seen: set[str] = set()
        while toks[self.pos] != "}":
            at = self.expect_name("an algebra field")
            field = toks[at]
            if field in seen:
                self.fail(f"duplicate field {field!r}", at)
            seen.add(field)
            if field == "dim":
                dim_at, dim = self.pos, self.parse_dim("the dimension")
            elif field == "kind":
                k = self.expect_name("a kind")
                if toks[k] not in KIND_TOKENS:
                    self.fail("kind must be assoc, leibniz, or poisson", k)
                kind = KIND_TOKENS[toks[k]]
            elif field in ACTIONS_OF:
                raw[field] = self.parse_product_block(star=field == "dot")
            elif field == "alpha":
                raw["alpha"] = self.parse_arrow_block()
            else:
                self.fail(f"unknown algebra field {field!r}", at)
        self.expect("}")
        if dim is None:
            self.fail(f"algebra {name!r} has no dim", start)
        if kind is None:
            self.fail(f"algebra {name!r} has no kind", start)
        for block in ACTIONS_OF:
            if raw[block] and block not in TENSORS_BY_KIND[kind]:
                self.fail(f"kind {KIND_NAMES[kind]!r} does not take a"
                          f" {block} block", start)
        try:
            tensors = {}
            for block in TENSORS_BY_KIND[kind]:
                seen, cells = set(), []
                for (ipos, jpos, terms) in raw[block]:
                    key = (self._basis_index(ipos, "e", dim), self._basis_index(jpos, "e", dim))
                    if key in seen:
                        self.fail(f"duplicate product entry for ({toks[ipos]},{toks[jpos]})",
                                  ipos)
                    seen.add(key)
                    cells += [((key, k), q) for k, q in self._terms(terms, "e", dim).items()]
                tensors[block] = StructureTensor._from_cells(dim, cells)
            alpha = self._matrix(raw["alpha"], "e", dim, "e", dim)
            return DocAlgebra(name, HomAlgebra(dim, kind, alpha, **tensors))
        except MemoryError:
            self.fail(f"dimension {dim} is too large to allocate", dim_at)

    def parse_product_block(self, star: bool) -> list:
        self.expect("{")
        toks = self.toks
        entries = []
        while toks[self.pos] != "}":
            if star:
                ipos = self.expect_name("a basis symbol")
                self.expect("*")
                jpos = self.expect_name("a basis symbol")
            else:
                self.expect("[")
                ipos = self.expect_name("a basis symbol")
                self.expect(",")
                jpos = self.expect_name("a basis symbol")
                self.expect("]")
            self.expect("=")
            entries.append((ipos, jpos, self.parse_lincomb()))
        self.expect("}")
        return entries

    def parse_arrow_block(self) -> list:
        self.expect("{")
        toks = self.toks
        entries = []
        while toks[self.pos] != "}":
            src = self.expect_name("a basis symbol")
            self.expect("->")
            entries.append((src, self.parse_lincomb()))
        self.expect("}")
        return entries

    def _space_dim(self, doc: Document, pos: int) -> int:
        name = self.toks[pos]
        item = doc.get(name)
        if item is None:
            self.fail(f"unknown name {name!r}", pos)
        if isinstance(item, DocAlgebra):
            return item.algebra.dim
        if isinstance(item, DocRepresentation):
            return item.rep.carrier_dim
        self.fail(f"{name!r} is a map, not a space", pos)

    def parse_map(self, doc: Document) -> DocMap:
        toks = self.toks
        self.expect("map")
        name = toks[self.expect_name("a map name")]
        self.expect(":")
        src = self.expect_name("a source space")
        self.expect("->")
        dst = self.expect_name("a destination space")
        src_dim = self._space_dim(doc, src)
        dst_dim = self._space_dim(doc, dst)
        entries = self.parse_arrow_block()
        matrix = self._matrix(entries, "e", src_dim, "e", dst_dim)
        return DocMap(name, toks[src], toks[dst], matrix)

    def parse_representation(self, doc: Document) -> DocRepresentation:
        toks = self.toks
        start = self.expect("representation")
        name = toks[self.expect_name("a representation name")]
        self.expect("on")
        base_pos = self.expect_name("a base algebra")
        base_name = toks[base_pos]
        base_item = doc.get(base_name)
        if not isinstance(base_item, DocAlgebra):
            self.fail(f"unknown algebra {base_name!r}", base_pos)
        base = base_item.algebra
        self.expect("{")
        dim: int | None = None
        phi_entries: list | None = None
        actions: dict[str, dict[int, list]] = {a: {} for a in _TABLE_OF}
        while toks[self.pos] != "}":
            at = self.expect_name("a representation field")
            field = toks[at]
            if field == "dim":
                if dim is not None:
                    self.fail("duplicate field 'dim'", at)
                dim_at, dim = self.pos, self.parse_dim("the carrier dimension")
            elif field == "phi":
                if phi_entries is not None:
                    self.fail("duplicate field 'phi'", at)
                phi_entries = self.parse_arrow_block()
            elif field in _TABLE_OF:
                if _TABLE_OF[field] not in TENSORS_BY_KIND[base.kind]:
                    self.fail(f"kind {KIND_NAMES[base.kind]!r} takes no"
                              f" {field} block", at)
                sel = self.expect_name("a base basis symbol")
                i = self._basis_index(sel, "e", base.dim)
                if i in actions[field]:
                    self.fail(f"duplicate block {field} {toks[sel]}", sel)
                actions[field][i] = self.parse_arrow_block()
            else:
                self.fail(f"unknown representation field {field!r}", at)
        self.expect("}")
        if dim is None:
            self.fail(f"representation {name!r} has no dim", start)

        def family(action: str) -> ActionTensor:
            # Column c of the matrix of e_a is the family's column (a, c).
            cells: list = []
            for a in sorted(actions[action]):
                cells += [(((a, c), r), q) for c, r, q in
                          self._columns(actions[action][a], "f", dim, "f", dim)]
            return ActionTensor._from_cells(base.dim, dim, cells)

        try:
            phi = self._matrix(phi_entries or [], "f", dim, "f", dim)
            rep = Representation(base.kind, base.dim, dim, phi, **{
                a: family(a) for name in base.tensors() for a in ACTIONS_OF[name]})
        except MemoryError:
            self.fail(f"dimension {dim} is too large to allocate", dim_at)
        return DocRepresentation(name, base_name, rep)


def parse(text: str) -> Document:
    """Parse DSL text into a resolved document."""
    return _Reader(text).parse_document()


# ---- serialization -----------------------------------------------------


def _block(head: str, lines: list[str]) -> list[str]:
    """``lines`` inside a ``head { ... }`` block, or nothing if empty."""
    return [f"  {head} {{", *lines, "  }"] if lines else []


def _lincomb(terms: list[tuple[int, int]], den: int, prefix: str) -> str:
    """The text of the sparse int vector ``terms`` over ``den``."""
    return _format_terms((f"{prefix}{k + 1}", x, den) for k, x in terms)


def _serialize_columns(m: Matrix, src_prefix: str, dst_prefix: str,
                       indent: str = "    ") -> list[str]:
    """One line per nonzero column, read off the nonzero entries by row."""
    den, rows = m.stored()
    return [f"{indent}{src_prefix}{j + 1} -> {_lincomb(col, den, dst_prefix)}"
            for j, col in transposed(rows).items()]


def _serialize_algebra(item: DocAlgebra) -> list[str]:
    alg = item.algebra
    lines = [f"algebra {item.name} {{",
             f"  dim {alg.dim}",
             f"  kind {KIND_NAMES[alg.kind]}"]
    for name, t in alg.tensors().items():
        head = "e{}*e{}" if name == "dot" else "[e{},e{}]"
        den, products = t.stored()
        lines.extend(_block(name, [f"    {head.format(i + 1, j + 1)} = {_lincomb(v, den, 'e')}"
                                   for (i, j), v in products.items()]))
    lines.extend(_block("alpha", _serialize_columns(alg.alpha, "e", "e")))
    lines.append("}")
    return lines


def _serialize_map(item: DocMap) -> list[str]:
    return [f"map {item.name} : {item.src} -> {item.dst} {{",
            *_serialize_columns(item.matrix, "e", "e", indent="  "), "}"]


def _serialize_representation(item: DocRepresentation) -> list[str]:
    rep = item.rep
    lines = [f"representation {item.name} on {item.base} {{",
             f"  dim {rep.carrier_dim}"]
    lines.extend(_block("phi", _serialize_columns(rep.phi, "f", "f")))
    for action, tensor in rep.actions().items():
        den, columns = tensor.stored()
        for i, cols in grouped(columns).items():
            lines.extend(_block(f"{action} e{i + 1}", [
                f"    f{c + 1} -> {_lincomb(col, den, 'f')}" for c, col in cols]))
    lines.append("}")
    return lines


def serialize(doc: Document) -> str:
    """Canonical text for a document; empty document gives empty text."""
    chunks = []
    for item in doc.items:
        if isinstance(item, DocAlgebra):
            chunks.append("\n".join(_serialize_algebra(item)))
        elif isinstance(item, DocMap):
            chunks.append("\n".join(_serialize_map(item)))
        elif isinstance(item, DocRepresentation):
            chunks.append("\n".join(_serialize_representation(item)))
        else:
            raise TypeError(f"cannot serialize {item!r}")
    return "\n\n".join(chunks) + ("\n" if chunks else "")
