"""The shared cursor's own contract: words, the end of the text, and the term readers.

Each test pins a behaviour that the SQL, RDQL and N-Triples readers rely on
but that no parser test reached (see ``tools/MUTANTS.md``).
"""

import re

import pytest

from medquery.dtypes import Dtype, Iri, TypedLiteral
from medquery.errors import NtParseError, ParseError, RdqlParseError, SqlParseError
from medquery.rdql_engine import parse_rdql
from medquery.scanner import Scanner
from medquery.sql_frontend import parse_view_select
from medquery.triple_store import TripleStore, export_ntriples, import_ntriples


def test_a_word_may_start_with_an_underscore_and_hold_digits():
    query = parse_view_select("SELECT _A1, B2 FROM _T WHERE _ > 1")
    assert [f.field for f in query.select] == ["_A1", "B2"]
    assert query.from_tables == ("_T",) and query.filters[0].lhs.field == "_"


def test_the_end_of_the_text_reads_as_empty_after_whitespace():
    scanner = Scanner(" \t\r\n")
    assert scanner.peek() == "" and scanner.eof()


def test_an_ntriples_line_may_end_in_whitespace_and_cr():
    store = TripleStore.from_rows([Iri("http://x/p")], [(Iri("http://x/s"), [TypedLiteral("a b", Dtype.STRING)])])
    text = export_ntriples(store)
    assert import_ntriples(text.replace("\n", " \t\r\n")) == store


@pytest.mark.parametrize("parse, text, error, fault", [
    (parse_rdql, "SELECT ?x WHERE (?x <http://p> ?y ", RdqlParseError, "at offset 34: expected ')'"),
    (parse_rdql, "SELECT ?x WHERE (?x <http://p> ?y) AND ?y 5", RdqlParseError,
     "at offset 42: expected comparison operator"),
    (parse_view_select, "SELECT A FROM T WHERE A 5", SqlParseError, "at offset 24: expected comparison operator"),
], ids=["rdql paren", "rdql operator", "sql operator"])
def test_a_missing_token_is_a_fault_where_it_should_stand(parse, text, error, fault):
    with pytest.raises(error, match=f"^{re.escape(fault)}$"):
        parse(text)


def test_term_readers_skip_whitespace_and_need_their_opening_character():
    assert Scanner(' \t"a"').quoted_literal(Dtype.STRING) == TypedLiteral("a", Dtype.STRING)
    assert Scanner(" <http://x>").iri() == Iri("http://x")
    for read, message in ((lambda s: s.quoted_literal(Dtype.STRING), "expected '\"'"),
                          (Scanner.iri, "expected '<'")):
        with pytest.raises(ParseError, match=f"^at offset 1: {re.escape(message)}$"):
            read(Scanner(" x"))


@pytest.mark.parametrize("obj, message", [
    ('"ab\\', "at offset 22: dangling escape"),
    ('"7" .', "at offset 25: literal missing '^^<datatype>'"),
])
def test_an_ntriples_literal_fault_names_itself(obj, message):
    with pytest.raises(NtParseError, match=f"^line 1: {re.escape(message)}$"):
        import_ntriples(f"<http://s> <http://p> {obj}\n")


@pytest.mark.parametrize("datatype, message", [
    ("<o>", "at offset 5: IRI must be absolute: 'o'"),
    (" <o>", "at offset 6: IRI must be absolute: 'o'"),
    ("<http://bad>", "at offset 17: unknown datatype IRI: http://bad"),
    ("<http://www.w3.org/2001/XMLSchema#int>", "at offset 43: unknown datatype IRI: "
                                               "http://www.w3.org/2001/XMLSchema#int"),
])
def test_a_datatype_fault_is_reported_where_it_is_found(datatype, message):
    """A relative datatype IRI fails at its ``<``, an unknown absolute one after its ``>``."""
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        Scanner(f'"a"^^{datatype}').quoted_literal(None)


def test_a_literal_builds_no_iri_for_its_datatype(monkeypatch):
    built = []
    post_init = Iri.__post_init__
    monkeypatch.setattr(Iri, "__post_init__", lambda iri: built.append(iri.value) or post_init(iri))
    for lexical, dtype in (("a", Dtype.STRING), ("1", Dtype.INTEGER), ("1.5", Dtype.DECIMAL),
                           ("true", Dtype.BOOLEAN)):
        scanner = Scanner(f'"{lexical}"^^<http://www.w3.org/2001/XMLSchema#{dtype.value}> <http://x>')
        assert scanner.quoted_literal(None) == TypedLiteral(lexical, dtype)
        assert built == [] and scanner.iri() == Iri("http://x")  # the reader still makes IRIs
        built.clear()
    assert Scanner(" <http://x>").iri(str) == "http://x" and built == []
