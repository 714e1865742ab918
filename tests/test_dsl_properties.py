"""Properties of the DSL on generated documents and on damaged text:
round trips, idempotent serialization, ``ParseError`` as the only
failure, and the parser and its lexer against the reference ones in
``oracle.py``."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from homkit.algebra import ACTIONS_OF, KINDS, TENSORS_BY_KIND, HomAlgebra, StructureTensor
from homkit.dsl import (
    DocAlgebra, DocMap, DocRepresentation, Document, _Reader, parse, serialize,
)
from homkit.errors import ParseError
from homkit.linalg import Matrix, Vector
from homkit.representation import ActionTensor, Representation
from test_stored_ints import reference

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)

rationals = st.builds(Fraction, st.integers(-7, 7), st.sampled_from([1, 1, 2, 3, 10]))


def vectors(dim: int):
    """Vectors with at most three nonzero entries, zero ones included."""
    if dim == 0:
        return st.just(Vector([]))
    return st.dictionaries(st.integers(0, dim - 1), rationals, max_size=3).map(
        lambda entries: Vector([entries.get(k, 0) for k in range(dim)]))


def matrices(rows: int, cols: int):
    if cols == 0:
        return st.just(Matrix.zero(rows, 0))
    return st.lists(vectors(rows), min_size=cols, max_size=cols).map(Matrix.from_cols)


def tables(dim: int):
    keys = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    return st.dictionaries(keys, vectors(dim), max_size=2 * dim).map(
        lambda products: StructureTensor.from_products(dim, products))


@st.composite
def documents(draw):
    """One to three sparse algebras of every kind, each maybe with a
    representation, a self-map and a map from the first algebra."""
    items, dims = [], []
    for n in range(draw(st.integers(1, 3))):
        dim, kind = draw(st.integers(1, 6)), draw(st.sampled_from(KINDS))
        name = f"A{n}"
        tensors = {t: draw(tables(dim)) for t in TENSORS_BY_KIND[kind]}
        alg = HomAlgebra(dim, kind, draw(matrices(dim, dim)), **tensors)
        items.append(DocAlgebra(name, alg))
        dims.append(dim)
        if draw(st.booleans()):
            m = draw(st.integers(0, 3))
            families = {f: ActionTensor(dim, m, [draw(matrices(m, m)) for _ in range(dim)])
                        for t in tensors for f in ACTIONS_OF[t]}
            rep = Representation(kind, dim, m, draw(matrices(m, m)), **families)
            items.append(DocRepresentation(f"R{n}", name, rep))
        if draw(st.booleans()):
            items.append(DocMap(f"f{n}", name, name, draw(matrices(dim, dim))))
        if n and draw(st.booleans()):
            items.append(DocMap(f"g{n}", "A0", name, draw(matrices(dim, dims[0]))))
    return Document(items)


@PROPERTY
@given(documents())
def test_round_trip_and_idempotent_serialization(doc):
    text = serialize(doc)
    again = parse(text)
    assert again == doc
    assert serialize(again) == text


def stored_parts(doc: Document):
    """Every matrix, table and action family of a document."""
    for item in doc.items:
        if isinstance(item, DocAlgebra):
            yield item.algebra.alpha
            yield from item.algebra.tensors().values()
        elif isinstance(item, DocMap):
            yield item.matrix
        else:
            yield item.rep.phi
            yield from item.rep.actions().values()


def assert_canonical_forms(doc: Document):
    for part in stored_parts(doc):
        assert part.stored() == reference(part), part


@PROPERTY
@given(documents())
def test_parsed_forms_are_canonical(doc):
    """The reader's forms equal those recomputed from their Fractions: the
    lcm of the reduced denominators, nonzero entries only, keys in order."""
    assert_canonical_forms(parse(serialize(doc)))


def test_forms_of_cancelling_repeated_and_unreduced_terms_are_canonical():
    text = """
    algebra A {
      dim 3
      kind poisson
      dot { e1*e2 = e1 - e1  e2*e2 = 1/2 e3 + 1/2 e3  e1*e1 = 2/4 e1 + 6/4 e2 }
      bracket { [e1,e2] = 0 e1 + 3/6 e2 - 1/3 e2  [e3,e3] = 4/6 e3 - 2/3 e3 }
      alpha { e1 -> e2 - e2 + 4/8 e1  e2 -> 2/2 e2  e3 -> 10/5 e3 }
    }
    map m : A -> A { e3 -> 1/3 e1 + 2/3 e1 - e1  e2 -> 3/9 e1 + 0 e3 }
    representation R on A {
      dim 2
      phi { f1 -> 2/4 f1 + 1/4 f1  f2 -> f2 - f2 }
      lambda_l e1 { f1 -> f2 - f2 }
      lambda_r e2 { f2 -> 10/4 f1 + 1/2 f1 }
      rho_l e3 { f1 -> 6/8 f2  f2 -> 1/6 f1 + 1/3 f1 }
      rho_r e1 { f2 -> 2/2 f2 }
    }
    """
    doc = parse(text)
    assert_canonical_forms(doc)
    alg, h = doc.algebra("A"), Fraction(1, 2)
    assert alg.dot.stored() == (2, {(0, 0): [(0, 1), (1, 3)], (1, 1): [(2, 2)]})
    assert alg.bracket.stored() == (6, {(0, 1): [(1, 1)]})
    assert alg.alpha == Matrix([[h, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert doc.map("m").matrix == Matrix([[0, Fraction(1, 3), 0], [0, 0, 0], [0, 0, 0]])
    rep = doc.representation("R").rep
    assert rep.phi == Matrix([[Fraction(3, 4), 0], [0, 0]])
    assert rep.lambda_l == ActionTensor.zero(3, 2)
    assert rep.lambda_r.stored() == (1, {(1, 1): [(0, 3)]})
    assert rep.rho_l.stored() == (4, {(2, 0): [(1, 3)], (2, 1): [(0, 2)]})
    assert serialize(doc) == serialize(oracle.parse(text))


# Characters and words a damaged document may gain: the DSL's own, odd
# whitespace and line breaks, and characters it does not allow.
CHARS = list("ef1209{}[],*=+-/:>#_ \t\r\x0b\x0c\x85\u2028\u00e9!.")
WORDS = ["algebra", "map", "representation", "on", "dim", "kind", "assoc",
         "leibniz", "poisson", "dot", "bracket", "alpha", "phi", "rho_l",
         "lambda_r", "e3", "f2", "e0", "e10", "->", "1/0", "0", " ", "\n"]
pieces = st.one_of(st.sampled_from(CHARS), st.sampled_from(WORDS))


@st.composite
def damaged_texts(draw):
    """The text of a generated document with one to four edits: a cut,
    an insertion, a replaced character or two lines swapped."""
    text = serialize(draw(documents()))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("cut", "insert", "replace", "swap")))
        if edit == "cut":
            text = text[:at] + text[at + draw(st.integers(1, 12)):]
        elif edit == "insert":
            text = text[:at] + draw(pieces) + text[at:]
        elif edit == "replace":
            text = text[:at] + draw(pieces) + text[at + 1:]
        else:
            lines = text.split("\n")
            i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
            lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
    return text


@PROPERTY
@given(damaged_texts())
def test_damaged_text_raises_only_parse_errors(text):
    try:
        doc = parse(text)
    except ParseError:
        return
    assert parse(serialize(doc)) == doc


def document_or_error(parse_text, text):
    try:
        doc = parse_text(text)
    except ParseError as e:
        return ("error", str(e), e.line, e.column)
    return ("document", doc, serialize(doc))


@settings(PROPERTY, max_examples=200)
@given(st.one_of(documents().map(serialize), damaged_texts(),
                 st.lists(pieces, max_size=40).map("".join), st.text(max_size=40)))
def test_parser_matches_reference(text):
    assert document_or_error(parse, text) == document_or_error(oracle.parse, text)


# Right-hand sides of every shape a linear combination may take or get
# wrong: signs, literal zeros, fractions, repeated symbols, missing pieces.
LINCOMBS = ["e1", "-e1", "+ e1", "- - e1", "2 e1", "-3/6 e2", "2/4 e1 - e1",
            "0", "-0", "0/3", "0 e1", "0 + e2", "e1 + 0", "e1 - e1", "e1 + e1 - 1/2 e1",
            "1", "3", "1 + e1", "1/0 e1", "2/", "2/ e1", "2/e1", "e1 +", "e1 e2",
            "e3", "e0", "f1", "e01", "x", "", "}", "7/-2 e1", "1 / 2 e2 + -e1"]


@pytest.mark.parametrize("body", LINCOMBS)
def test_linear_combinations_match_reference(body):
    for text in (f"algebra A {{ dim 2 kind assoc alpha {{ e1 -> {body} }} }}",
                 f"algebra A {{ dim 2 kind assoc dot {{ e2*e1 = {body} }} }}"):
        assert document_or_error(parse, text) == document_or_error(oracle.parse, text)


def tokens_or_error(text):
    """The reader's tokens of ``text`` as ``oracle._tokenize`` gives them:
    kind, text, and the line and column at which ``_Reader.fail`` places an
    error at that token, up to the first end of input (a text ending in
    blanks scans one more); or the unexpected-character error."""
    try:
        reader = _Reader(text)
    except ParseError as e:
        return ("error", str(e), e.line, e.column)
    tokens = []
    for pos, tok in enumerate(reader.toks[:reader.toks.index("") + 1]):
        with pytest.raises(ParseError) as info:
            reader.fail("", pos)
        kind = ("EOF" if not tok else "NAME" if tok.isidentifier()
                else "INT" if tok.isdigit() else "PUNCT")
        tokens.append((kind, tok, info.value.line, info.value.column))
    return tokens


def oracle_tokens_or_error(text):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in oracle._tokenize(text)]
    except ParseError as e:
        return ("error", str(e), e.line, e.column)


@PROPERTY
@given(st.one_of(damaged_texts(), st.lists(pieces, max_size=40).map("".join),
                 st.text(max_size=40)))
def test_tokenizer_matches_reference(text):
    assert tokens_or_error(text) == oracle_tokens_or_error(text)


def test_overlong_numbers_are_parse_errors():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter converts integers of any length")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        long = "7" * 700
        for text in (f"algebra A {{ dim {long} kind assoc }}",
                     f"algebra A {{ dim 1 kind assoc dot {{ e1*e1 = {long} e1 }} }}",
                     f"algebra A {{ dim 1 kind assoc dot {{ e1*e1 = 1/{long} e1 }} }}"):
            with pytest.raises(ParseError) as info:
                parse(text)
            assert (info.value.line, info.value.column) == (1, text.index(long) + 1)
            assert "number with 700 digits is too long" in str(info.value)
        # A basis index longer than the dimension is out of range whatever
        # the interpreter's limit.
        with pytest.raises(ParseError, match="out of range for dimension 1"):
            parse(f"algebra A {{ dim 1 kind assoc dot {{ e{long}*e1 = e1 }} }}")
    finally:
        sys.set_int_max_str_digits(limit)
