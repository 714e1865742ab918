"""Parser, resolver, and canonical serializer."""

import random
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from homkit.algebra import ASSOCIATIVE, LEIBNIZ, POISSON
from homkit.dsl import (
    DocAlgebra, DocMap, DocRepresentation, Document, parse, serialize,
)
from homkit.errors import ParseError
from homkit.fixtures import (
    TWIST, leibniz_rbo, two_dim_associative, two_dim_leibniz, two_dim_poisson,
)
from homkit.linalg import _ZERO, Matrix, Vector
from homkit.representation import regular_representation

FIXTURES_PATH = Path(__file__).resolve().parents[1] / "demos" / "fixtures.hla"


def test_parse_leibniz_fixture_source():
    text = """
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
    """
    doc = parse(text)
    assert doc.algebra("A2leib") == two_dim_leibniz()


def test_parse_minimal_algebra_defaults():
    doc = parse("algebra Z { dim 1 kind leibniz alpha { e1 -> e1 } }")
    alg = doc.algebra("Z")
    assert alg.bracket.basis_product(0, 0).is_zero()
    assert alg.alpha == Matrix.identity(1)


def test_parse_rational_coefficients():
    doc = parse("algebra X { dim 2 kind assoc dot { e1*e1 = 3/2 e1 - e2 } }")
    assert doc.algebra("X").dot.basis_product(0, 0) == Vector([Fraction(3, 2), -1])


def test_parse_coefficient_normalization():
    doc = parse("algebra X { dim 1 kind assoc dot { e1*e1 = 2/4 e1 } }")
    assert doc.algebra("X").dot.basis_product(0, 0) == Vector([Fraction(1, 2)])
    assert "1/2 e1" in serialize(doc)


def test_unknown_basis_symbol_reports_line():
    text = "algebra X {\n  dim 2\n  kind leibniz\n  bracket {\n    [e1,e3] = e1\n  }\n}"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == 5


@pytest.mark.parametrize("bad, line", [
    ("algebra X { dim 2 }", 1),                      # missing kind
    ("algebra X { dim 2 kind nope }", 1),            # bad kind
    ("algebra X { dim 2 kind assoc dot { e1 e2 = e1 } }", 1),  # missing *
    ("map f : A -> B { }", 1),                       # unknown endpoints
    ("algebra X { dim 2 kind assoc }\nalgebra X { dim 1 kind assoc }", 2),
    ("representation r on nope { dim 1 }", 1),
    ("algebra X { dim 1 kind leibniz }\n"
     "representation r on X { dim 1 lambda_l e1 { f1 -> f1 } }", 2),
    ("algebra X { dim 1 kind leibniz }\n"              # phi given twice, the first empty
     "representation r on X {\n  dim 1\n  phi { }\n  phi { f1 -> 2 f1 }\n}", 5),
])
def test_syntax_and_resolution_errors_carry_lines(bad, line):
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert err.value.line == line


def test_duplicate_product_entry_rejected():
    with pytest.raises(ParseError):
        parse("algebra X { dim 1 kind assoc dot { e1*e1 = e1 e1*e1 = -e1 } }")


def test_duplicate_name_in_a_document_built_in_code():
    # No source position exists, so the error is a plain ValueError, not a ParseError.
    alg = two_dim_leibniz()
    with pytest.raises(ValueError) as err:
        Document([DocAlgebra("A", alg), DocAlgebra("A", alg)])
    assert type(err.value) is ValueError
    assert str(err.value) == "duplicate name 'A'"


def test_comments_and_whitespace_ignored():
    doc = parse("# header\nalgebra X {  # trailing\n dim 1\n kind assoc\n}\n")
    assert doc.algebra("X").dim == 1


def full_document():
    l = two_dim_leibniz()
    return Document([
        DocAlgebra("A2assoc", two_dim_associative()),
        DocAlgebra("A2leib", l),
        DocAlgebra("A2poisson", two_dim_poisson()),
        DocMap("beta", "A2leib", "A2leib", TWIST),
        DocMap("T", "A2leib", "A2leib", leibniz_rbo(1)),
        DocRepresentation("reg", "A2leib", regular_representation(l)),
    ])


def test_round_trip_identity_on_fixture_document():
    doc = full_document()
    assert parse(serialize(doc)) == doc


def test_serialize_parse_idempotent():
    doc = full_document()
    text = serialize(doc)
    assert serialize(parse(text)) == text


def test_shipped_fixture_file_round_trips():
    text = FIXTURES_PATH.read_text()
    doc = parse(text)
    assert {i.name for i in doc.items} == {
        "A2assoc", "A2leib", "A2poisson", "beta", "T", "reg"}
    assert doc.algebra("A2poisson") == two_dim_poisson()
    assert parse(serialize(doc)) == doc
    assert serialize(parse(serialize(doc))) == serialize(doc)


def test_empty_document_serializes_to_empty_text():
    assert serialize(Document()) == ""
    assert parse("").items == []


def random_document(rng: random.Random) -> Document:
    from homkit.algebra import HomAlgebra, StructureTensor
    from homkit.representation import ActionTensor, Representation
    items = []
    for n in range(rng.randint(1, 3)):
        dim = rng.randint(1, 3)
        kind = rng.choice((ASSOCIATIVE, LEIBNIZ, POISSON))
        def rv():
            return Vector([Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
                           for _ in range(dim)])
        kw = {}
        if kind in (ASSOCIATIVE, POISSON):
            kw["dot"] = StructureTensor.from_function(dim, lambda i, j: rv())
        if kind in (LEIBNIZ, POISSON):
            kw["bracket"] = StructureTensor.from_function(dim, lambda i, j: rv())
        alpha = Matrix([[Fraction(rng.randint(-2, 2)) for _ in range(dim)]
                        for _ in range(dim)])
        name = f"A{n}"
        items.append(DocAlgebra(name, HomAlgebra(dim, kind, alpha, **kw)))
        if rng.random() < 0.6:
            m = rng.randint(0, 2)
            phi = Matrix([[Fraction(rng.randint(-1, 1)) for _ in range(m)]
                          for _ in range(m)])
            akw = {}
            families = (["lambda_l", "lambda_r"] if kind != LEIBNIZ else []) \
                + (["rho_l", "rho_r"] if kind != ASSOCIATIVE else [])
            for fam in families:
                akw[fam] = ActionTensor(dim, m, [
                    Matrix([[Fraction(rng.randint(-1, 1)) for _ in range(m)]
                            for _ in range(m)]) for _ in range(dim)])
            items.append(DocRepresentation(
                f"R{n}", name, Representation(kind, dim, m, phi, **akw)))
        if rng.random() < 0.4:
            items.append(DocMap(
                f"f{n}", name, name,
                Matrix([[Fraction(rng.randint(-2, 2)) for _ in range(dim)]
                        for _ in range(dim)])))
    return Document(items)


def test_randomized_round_trips():
    rng = random.Random(2024)
    for _ in range(120):
        doc = random_document(rng)
        text = serialize(doc)
        again = parse(text)
        assert again == doc
        assert serialize(again) == text


def test_empty_tables_share_one_zero():
    # Unlisted products are one shared zero vector, so an empty header
    # costs memory quadratic, not cubic, in the dimension.
    tracemalloc.start()
    try:
        doc = parse("algebra A { dim 120 kind poisson }")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert doc.algebra("A").dot.basis_product(119, 119).is_zero()
    assert peak < 5_000_000


# Every character at which ``str.splitlines`` breaks a line, and ``\r\n``.
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]


def test_line_breaks_are_those_of_splitlines():
    # Unicode has no line break above U+2029.
    breaks = {chr(c) for c in range(0x3000) if len(f"a{chr(c)}b".splitlines()) == 2}
    assert breaks == {sep for sep in LINE_BREAKS if len(sep) == 1}


@pytest.mark.parametrize("sep", LINE_BREAKS)
def test_every_line_break_separates_lines(sep):
    # The fixture file has comments, so each separator also ends a comment.
    text = FIXTURES_PATH.read_text()
    assert parse(text.replace("\n", sep)) == parse(text)


def test_comment_may_hold_any_character():
    doc = parse("# é -> > ∂ \x00\nalgebra A { dim 1 kind assoc } # é>\n")
    assert doc.algebra("A").dim == 1


@pytest.mark.parametrize("text, message, line, column", [
    ("algebra A { dim 1 > kind assoc }", "unexpected character '>'", 1, 19),
    ("map f : A -> B {\n e1 => e1 }", "unexpected character '>'", 2, 6),
    ("algebra A {\n  dim 1\n  kind assoc\n  dot { e1*e1 = e1 }\x00\n}",
     "unexpected character '\\x00'", 4, 21),
    ("algebra A {\n  dim 1 kind assoc\n  alpha { e1 -> é1 }\n}",
     "unexpected character 'é'", 3, 17),
    # An unexpected character is reported before an earlier syntax error.
    ("algebra { dim 1 } !", "unexpected character '!'", 1, 19),
])
def test_unexpected_characters_are_located(text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (str(err.value), err.value.line, err.value.column) == (
        f"line {line}, column {column}: {message}", line, column)


def test_unexpected_character_after_many_comments_fails_fast():
    text = "# a comment -> with > and é\n" * 2000 + "!"
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse(text)
    assert time.perf_counter() - start < 1.0
    assert (err.value.line, err.value.column) == (2001, 1)


def parsed_matrices(doc: Document):
    """Every matrix a parsed document holds, by where it was found."""
    for item in doc.items:
        if isinstance(item, DocAlgebra):
            yield f"{item.name}.alpha", item.algebra.alpha
        elif isinstance(item, DocMap):
            yield item.name, item.matrix
        else:
            yield f"{item.name}.phi", item.rep.phi
            for action, tensor in item.rep.actions().items():
                for i, m in enumerate(tensor.mats):
                    yield f"{item.name}.{action}[{i}]", m


def test_entries_the_text_leaves_out_are_the_shared_zero():
    # Canonical text leaves out exactly the zero entries.
    rng = random.Random(7)
    docs = [parse(FIXTURES_PATH.read_text())] + [
        parse(serialize(random_document(rng))) for _ in range(40)]
    for doc in docs:
        for where, m in parsed_matrices(doc):
            assert all(x is _ZERO for row in m.entries for x in row if x == 0), where
        for item in doc.items:
            if isinstance(item, DocAlgebra):
                for t in item.algebra.tensors().values():
                    assert all(x is _ZERO for v in t.products.values()
                               for x in v if x == 0)


def test_empty_header_holds_no_dense_matrix():
    # The rows of an unlisted alpha are one shared tuple of the shared zero.
    tracemalloc.start()
    try:
        doc = parse("algebra A { dim 1500 kind poisson }")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert doc.algebra("A").alpha == Matrix.zero(1500, 1500)
    assert peak < 1_000_000


@pytest.mark.parametrize("text, line, column", [
    ("algebra A { dim 1000000000000000 kind assoc }", 1, 17),
    ("algebra A {\n dim 10000000000000000\n kind leibniz\n bracket { [e1,e1] = e1 }\n}", 2, 6),
    ("algebra A { dim 1 kind assoc }\nrepresentation R on A {\n  dim 1000000000000000\n}", 3, 7),
    ("algebra A { dim 1 kind assoc }\nrepresentation R on A { dim 10000000000000000\n"
     "  phi { f1 -> f1 } lambda_l e1 { f1 -> f1 } }", 2, 29),
])
def test_dim_too_large_to_allocate_is_a_parse_error(text, line, column):
    # Dims of 10**15 and more fail their first allocation at once.
    with pytest.raises(ParseError) as info:
        parse(text)
    assert (info.value.line, info.value.column) == (line, column)
    assert str(info.value).endswith(" is too large to allocate")
