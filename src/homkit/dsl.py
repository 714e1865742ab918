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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from .algebra import (
    ACTIONS_OF, ASSOCIATIVE, LEIBNIZ, POISSON, TENSORS_BY_KIND, HomAlgebra,
    StructureTensor,
)
from .errors import ParseError, UnknownNameError
from .linalg import _ZERO, Matrix, Vector, format_lincomb
from .representation import ActionTensor, Representation

KIND_TOKENS = {"assoc": ASSOCIATIVE, "leibniz": LEIBNIZ, "poisson": POISSON}
KIND_NAMES = {v: k for k, v in KIND_TOKENS.items()}
# The table each action family pairs with, by the family's block name.
_TABLE_OF = {action: name for name, pair in ACTIONS_OF.items() for action in pair}

_BASIS_RE = re.compile(r"([a-z])([1-9][0-9]*)$")


@dataclass(frozen=True)
class DocAlgebra:
    name: str
    algebra: HomAlgebra


@dataclass(frozen=True)
class DocMap:
    name: str
    src: str
    dst: str
    matrix: Matrix


@dataclass(frozen=True)
class DocRepresentation:
    name: str
    base: str
    rep: Representation


class Document:
    """Ordered collection of named definitions."""

    def __init__(self, items: Iterable = ()):
        self.items: list = []
        self._by_name: dict[str, object] = {}
        for item in items:
            self.add(item)

    def add(self, item) -> None:
        if item.name in self._by_name:
            raise ParseError(f"duplicate name {item.name!r}", 0)
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


class Token(NamedTuple):
    kind: str  # NAME | INT | PUNCT | EOF
    text: str
    line: int
    col: int


# One alternative per token kind; whitespace and comments are skipped and
# any other character is an error, so every character of a line matches.
_TOKEN_RE = re.compile(r"""
    [ \t\r]+
  | (?P<COMMENT>\#)
  | (?P<PUNCT>->|[{}\[\],*=+\-/:])
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<INT>[0-9]+)
  | (?P<BAD>.)
""", re.VERBOSE)


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in _TOKEN_RE.finditer(line):
            kind = m.lastgroup
            if kind is None:
                continue
            if kind == "COMMENT":
                break
            if kind == "BAD":
                raise ParseError(f"unexpected character {m.group()!r}",
                                 lineno, m.start() + 1)
            tokens.append(Token(kind, m.group(), lineno, m.start() + 1))
    last_line = text.count("\n") + 1
    tokens.append(Token("EOF", "", last_line, 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            got = tok.text if tok.text else "end of input"
            self.fail(f"expected {want!r}, found {got!r}")
        return self.advance()

    def expect_name(self, what: str) -> Token:
        tok = self.peek()
        if tok.kind != "NAME":
            got = repr(tok.text) if tok.text else "end of input"
            self.fail(f"expected {what}, found {got}")
        return self.advance()

    # ---- shared pieces -------------------------------------------------

    def parse_int(self, what: str) -> int:
        tok = self.peek()
        if tok.kind != "INT":
            self.fail(f"expected {what}")
        return self._int_value(self.advance())

    def _int_value(self, tok: Token) -> int:
        """An INT token's value; one with more digits than the interpreter
        converts is a parse error at its token."""
        try:
            return int(tok.text)
        except ValueError:
            self.fail(f"number with {len(tok.text)} digits is too long", tok)

    def parse_dim(self, what: str) -> int:
        """A dimension; one beyond the platform's index range is a parse
        error at its token, since no list of that length can exist."""
        tok = self.peek()
        dim = self.parse_int(what)
        if dim > sys.maxsize:
            self.fail(f"dimension {dim} is too large to index", tok)
        return dim

    def parse_lincomb(self) -> list[tuple[Fraction, Token]]:
        """Terms as (coefficient, basis-symbol token); a lone 0 is empty."""
        terms: list[tuple[Fraction, Token]] = []
        first = True
        while True:
            sign = Fraction(1)
            tok = self.peek()
            if tok.kind == "PUNCT" and tok.text in ("+", "-"):
                if first and tok.text == "+":
                    self.fail("a linear combination cannot start with '+'")
                sign = Fraction(-1) if tok.text == "-" else Fraction(1)
                self.advance()
                tok = self.peek()
            elif not first:
                break
            if tok.kind == "INT":
                num_tok = self.advance()
                coeff = Fraction(self._int_value(num_tok))
                if self.peek().kind == "PUNCT" and self.peek().text == "/":
                    self.advance()
                    den_tok = self.peek()
                    den = self._int_value(den_tok) if den_tok.kind == "INT" else 0
                    if den == 0:
                        self.fail("expected a nonzero denominator")
                    self.advance()
                    coeff /= den
                if self.peek().kind == "NAME":
                    sym = self.advance()
                    terms.append((sign * coeff, sym))
                elif coeff == 0:
                    pass  # a literal zero term
                else:
                    self.fail("expected a basis symbol after the coefficient")
            elif tok.kind == "NAME":
                sym = self.advance()
                terms.append((sign, sym))
            else:
                self.fail("expected a term")
            first = False
        return terms

    # ---- items ---------------------------------------------------------

    def parse_document(self) -> Document:
        doc = Document()
        while self.peek().kind != "EOF":
            tok = self.peek()
            if tok.kind != "NAME":
                self.fail("expected 'algebra', 'map', or 'representation'")
            if tok.text == "algebra":
                item = self.parse_algebra()
            elif tok.text == "map":
                item = self.parse_map(doc)
            elif tok.text == "representation":
                item = self.parse_representation(doc)
            else:
                self.fail(f"unknown item {tok.text!r}")
            if doc.get(item.name) is not None:
                self.fail(f"duplicate name {item.name!r}", tok)
            doc.add(item)
        return doc

    def _basis_index(self, tok: Token, prefix: str, dim: int) -> int:
        m = _BASIS_RE.match(tok.text)
        if not m or m.group(1) != prefix:
            raise ParseError(
                f"expected a basis symbol {prefix}1..{prefix}{dim}, found {tok.text!r}",
                tok.line, tok.col)
        digits = m.group(2)
        # More digits than the dimension is out of range whatever the value.
        if len(digits) > len(str(dim)) or int(digits) > dim:
            raise ParseError(
                f"basis symbol {tok.text!r} out of range for dimension {dim}",
                tok.line, tok.col)
        return int(digits) - 1

    def _resolve_lincomb(self, terms, prefix: str, dim: int) -> Vector:
        entries = [_ZERO] * dim
        for coeff, tok in terms:
            entries[self._basis_index(tok, prefix, dim)] += coeff
        return Vector(entries)

    def parse_algebra(self) -> DocAlgebra:
        start = self.expect("NAME", "algebra")
        name = self.expect_name("an algebra name").text
        self.expect("PUNCT", "{")
        dim: int | None = None
        kind: str | None = None
        raw: dict[str, list] = {"dot": [], "bracket": [], "alpha": []}
        seen: set[str] = set()
        while not (self.peek().kind == "PUNCT" and self.peek().text == "}"):
            field = self.expect_name("an algebra field")
            if field.text in seen and field.text in ("dim", "kind", "dot",
                                                     "bracket", "alpha"):
                self.fail(f"duplicate field {field.text!r}", field)
            seen.add(field.text)
            if field.text == "dim":
                dim = self.parse_dim("the dimension")
            elif field.text == "kind":
                ktok = self.expect_name("a kind")
                if ktok.text not in KIND_TOKENS:
                    self.fail("kind must be assoc, leibniz, or poisson", ktok)
                kind = KIND_TOKENS[ktok.text]
            elif field.text in ACTIONS_OF:
                raw[field.text] = self.parse_product_block(star=field.text == "dot")
            elif field.text == "alpha":
                raw["alpha"] = self.parse_arrow_block()
            else:
                self.fail(f"unknown algebra field {field.text!r}", field)
        self.expect("PUNCT", "}")
        if dim is None:
            self.fail(f"algebra {name!r} has no dim", start)
        if kind is None:
            self.fail(f"algebra {name!r} has no kind", start)
        for block in ACTIONS_OF:
            if raw[block] and block not in TENSORS_BY_KIND[kind]:
                self.fail(f"kind {KIND_NAMES[kind]!r} does not take a"
                          f" {block} block", start)
        tensors = {}
        for block in TENSORS_BY_KIND[kind]:
            products = {}
            for (itok, jtok, terms) in raw[block]:
                i = self._basis_index(itok, "e", dim)
                j = self._basis_index(jtok, "e", dim)
                if (i, j) in products:
                    raise ParseError(
                        f"duplicate product entry for ({itok.text},{jtok.text})",
                        itok.line, itok.col)
                products[(i, j)] = self._resolve_lincomb(terms, "e", dim)
            tensors[block] = StructureTensor.from_products(dim, products)
        alpha = self._resolve_columns(raw["alpha"], "e", dim, "e", dim)
        return DocAlgebra(name, HomAlgebra(dim, kind, alpha, **tensors))

    def parse_product_block(self, star: bool) -> list:
        self.expect("PUNCT", "{")
        entries = []
        while not (self.peek().kind == "PUNCT" and self.peek().text == "}"):
            if star:
                itok = self.expect_name("a basis symbol")
                self.expect("PUNCT", "*")
                jtok = self.expect_name("a basis symbol")
            else:
                self.expect("PUNCT", "[")
                itok = self.expect_name("a basis symbol")
                self.expect("PUNCT", ",")
                jtok = self.expect_name("a basis symbol")
                self.expect("PUNCT", "]")
            self.expect("PUNCT", "=")
            entries.append((itok, jtok, self.parse_lincomb()))
        self.expect("PUNCT", "}")
        return entries

    def parse_arrow_block(self) -> list:
        self.expect("PUNCT", "{")
        entries = []
        while not (self.peek().kind == "PUNCT" and self.peek().text == "}"):
            src = self.expect_name("a basis symbol")
            self.expect("PUNCT", "->")
            entries.append((src, self.parse_lincomb()))
        self.expect("PUNCT", "}")
        return entries

    def _resolve_columns(self, entries, src_prefix: str, src_dim: int,
                         dst_prefix: str, dst_dim: int) -> Matrix:
        cols = [Vector.zero(dst_dim) for _ in range(src_dim)]
        seen = set()
        for (tok, terms) in entries:
            j = self._basis_index(tok, src_prefix, src_dim)
            if j in seen:
                raise ParseError(f"duplicate entry for {tok.text!r}",
                                 tok.line, tok.col)
            seen.add(j)
            cols[j] = self._resolve_lincomb(terms, dst_prefix, dst_dim)
        return Matrix.from_cols(cols) if src_dim else Matrix.zero(dst_dim, 0)

    def _space_dim(self, doc: Document, name_tok: Token) -> int:
        item = doc.get(name_tok.text)
        if item is None:
            self.fail(f"unknown name {name_tok.text!r}", name_tok)
        if isinstance(item, DocAlgebra):
            return item.algebra.dim
        if isinstance(item, DocRepresentation):
            return item.rep.carrier_dim
        self.fail(f"{name_tok.text!r} is a map, not a space", name_tok)

    def parse_map(self, doc: Document) -> DocMap:
        self.expect("NAME", "map")
        name = self.expect_name("a map name").text
        self.expect("PUNCT", ":")
        src_tok = self.expect_name("a source space")
        self.expect("PUNCT", "->")
        dst_tok = self.expect_name("a destination space")
        src_dim = self._space_dim(doc, src_tok)
        dst_dim = self._space_dim(doc, dst_tok)
        entries = self.parse_arrow_block()
        matrix = self._resolve_columns(entries, "e", src_dim, "e", dst_dim)
        return DocMap(name, src_tok.text, dst_tok.text, matrix)

    def parse_representation(self, doc: Document) -> DocRepresentation:
        start = self.expect("NAME", "representation")
        name = self.expect_name("a representation name").text
        self.expect("NAME", "on")
        base_tok = self.expect_name("a base algebra")
        base_item = doc.get(base_tok.text)
        if not isinstance(base_item, DocAlgebra):
            self.fail(f"unknown algebra {base_tok.text!r}", base_tok)
        base = base_item.algebra
        self.expect("PUNCT", "{")
        dim: int | None = None
        phi_entries: list | None = None
        actions: dict[str, dict[int, list]] = {a: {} for a in _TABLE_OF}
        while not (self.peek().kind == "PUNCT" and self.peek().text == "}"):
            field = self.expect_name("a representation field")
            if field.text == "dim":
                if dim is not None:
                    self.fail("duplicate field 'dim'", field)
                dim = self.parse_dim("the carrier dimension")
            elif field.text == "phi":
                if phi_entries is not None:
                    self.fail("duplicate field 'phi'", field)
                phi_entries = self.parse_arrow_block()
            elif field.text in _TABLE_OF:
                if _TABLE_OF[field.text] not in TENSORS_BY_KIND[base.kind]:
                    self.fail(f"kind {KIND_NAMES[base.kind]!r} takes no"
                              f" {field.text} block", field)
                sel = self.expect_name("a base basis symbol")
                i = self._basis_index(sel, "e", base.dim)
                if i in actions[field.text]:
                    self.fail(f"duplicate block {field.text} {sel.text}", sel)
                actions[field.text][i] = self.parse_arrow_block()
            else:
                self.fail(f"unknown representation field {field.text!r}", field)
        self.expect("PUNCT", "}")
        if dim is None:
            self.fail(f"representation {name!r} has no dim", start)
        phi = self._resolve_columns(phi_entries or [], "f", dim, "f", dim)

        def family(action: str) -> ActionTensor:
            return ActionTensor(base.dim, dim, [
                self._resolve_columns(actions[action].get(i, []), "f", dim, "f", dim)
                for i in range(base.dim)])

        rep = Representation(base.kind, base.dim, dim, phi, **{
            a: family(a) for name in base.tensors() for a in ACTIONS_OF[name]})
        return DocRepresentation(name, base_tok.text, rep)


def parse(text: str) -> Document:
    """Parse DSL text into a resolved document."""
    return _Parser(text).parse_document()


# ---- serialization -----------------------------------------------------


def _block(head: str, lines: list[str]) -> list[str]:
    """``lines`` inside a ``head { ... }`` block, or nothing if empty."""
    return [f"  {head} {{", *lines, "  }"] if lines else []


def _serialize_columns(m: Matrix, src_prefix: str, dst_prefix: str,
                       indent: str = "    ") -> list[str]:
    lines = []
    for j, col in enumerate(zip(*m.entries)):
        value = format_lincomb(col, dst_prefix)
        if value != "0":
            lines.append(f"{indent}{src_prefix}{j + 1} -> {value}")
    return lines


def _serialize_algebra(item: DocAlgebra) -> list[str]:
    alg = item.algebra
    lines = [f"algebra {item.name} {{",
             f"  dim {alg.dim}",
             f"  kind {KIND_NAMES[alg.kind]}"]
    for name, t in alg.tensors().items():
        head = "e{}*e{}" if name == "dot" else "[e{},e{}]"
        lines.extend(_block(name, [f"    {head.format(i + 1, j + 1)} = {format_lincomb(v, 'e')}"
                                   for (i, j), v in t.products.items()]))
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
        for i, mat in enumerate(tensor.mats):
            lines.extend(_block(f"{action} e{i + 1}", _serialize_columns(mat, "f", "f")))
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
