import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medquery import rdql_engine
from medquery.dtypes import Dtype
from medquery.errors import (
    NtParseError,
    RdqlParseError,
    SqlParseError,
    UnboundFilterVarError,
    UnboundSelectVarError,
)
from medquery.rdql_engine import (
    FilterAtom,
    RdqlQuery,
    TriplePattern,
    Var,
    evaluate,
    parse_rdql,
)
from medquery.sql_frontend import parse_view_select
from medquery.triple_store import Iri, Triple, TripleStore, TypedLiteral, format_term, import_ntriples

from conftest import FIG2_RDQL
from generators import random_rdql_query, random_store
from oracles import compare_terms, enumerate_rdql, single_pattern_warnings


def lit(lexical, dtype=Dtype.INTEGER):
    return TypedLiteral(lexical, dtype)


def test_parse_two_table_query():
    query = parse_rdql(FIG2_RDQL)
    assert len(query.select) == 4
    assert len(query.patterns) == 6
    assert len(query.filters) == 1
    atom = query.filters[0]
    assert atom.lhs == Var("DEBT") and atom.op == ">" and atom.rhs == lit("2000")


def test_parse_minimal():
    query = parse_rdql('SELECT ?x WHERE (?x <http://p> "a")')
    assert query.patterns == (
        TriplePattern(Var("x"), Iri("http://p"), lit("a", Dtype.STRING)),
    )
    assert query.filters == ()


def test_unbound_select_var():
    with pytest.raises(UnboundSelectVarError):
        parse_rdql('SELECT ?y WHERE (?x <http://p> "a")')


def test_unbound_filter_var():
    with pytest.raises(UnboundFilterVarError):
        parse_rdql('SELECT ?x WHERE (?x <http://p> "a") AND ?z > 1')


@pytest.mark.parametrize("text", [
    "WHERE (?x <http://p> ?y)",
    "SELECT ?x WHERE",
    "SELECT ?x WHERE (?x <http://p>)",
    'SELECT ?x WHERE ("lit" <http://p> ?x)',
    "SELECT ?x WHERE (?x <http://p> ?y) AND ?x ~ 1",
    'SELECT ?x WHERE (?x <http://p> "a"^^<http://bad>)',
])
def test_parse_errors(text):
    with pytest.raises(RdqlParseError):
        parse_rdql(text)


def test_quoted_literal_unescapes_like_ntriples():
    query = parse_rdql('SELECT ?x WHERE (?x <http://p> "a\\"b\\\\c\\nd\\re\\tf")')
    assert query.patterns[0].o == lit('a"b\\c\nd\re\tf', Dtype.STRING)


_XSD = "<http://www.w3.org/2001/XMLSchema#"
_RDQL_BEFORE, _NT_BEFORE = "SELECT ?x WHERE (?x <http://p> ", "<http://s> <http://p> "


def _read_back(text):
    """The term ``text`` read as an RDQL pattern object and as an N-Triples object."""
    rdql = parse_rdql(f"{_RDQL_BEFORE}{text})").patterns[0].o
    (triple,) = import_ntriples(f"{_NT_BEFORE}{text} .\n")
    return rdql, triple.object


@pytest.mark.parametrize("term, message", [
    ('"\\q"', "unknown escape '\\q'"),
    ('"\\u0041"^^' + _XSD + 'string>', "unknown escape '\\u'"),
    ('"open', "unterminated literal"),
    ("<http://o", "unterminated IRI"),
    ("<o>", "IRI must be absolute"),
    ("<>", "IRI must be absolute: ''"),
    ('"a"^^x', "expected '<'"),
    ('"a"^^ <o>', "IRI must be absolute"),
    ('"a"^^<http://bad>', "unknown datatype IRI: http://bad"),
    ('"a"^^' + _XSD + 'string', "unterminated IRI"),
    ('"007"^^' + _XSD + 'integer>', "'007' is not canonical integer"),
    # zero is written 0.0 only, so the value has one term
    ('"-0.0"^^' + _XSD + 'decimal>', "'-0.0' is not canonical decimal"),
])
def test_term_errors_read_alike_in_rdql_and_ntriples(term, message):
    with pytest.raises(RdqlParseError, match=re.escape(message)) as rdql:
        parse_rdql(f"{_RDQL_BEFORE}{term})")
    with pytest.raises(NtParseError, match=re.escape(message)) as nt:
        import_ntriples(f"{_NT_BEFORE}{term} .\n")
    # one reader: each fault is found at the same offset in the term
    nt_offset = int(re.search(r"at offset (\d+)", str(nt.value)).group(1))
    assert rdql.value.position - len(_RDQL_BEFORE) == nt_offset - len(_NT_BEFORE)
    assert nt.value.line_number == 1


_TEXT = st.text(st.sampled_from('\\"\n\r\t^<>') | st.characters(), max_size=20)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    _TEXT.map(lambda text: TypedLiteral(text, Dtype.STRING)),
    st.integers().map(lambda number: TypedLiteral(str(number), Dtype.INTEGER)),
    st.decimals(allow_nan=False, allow_infinity=False, places=4).map(
        lambda number: TypedLiteral.canonical(format(number, "f"), Dtype.DECIMAL)),
    st.booleans().map(lambda truth: TypedLiteral(str(truth).lower(), Dtype.BOOLEAN)),
))
def test_rdql_and_ntriples_read_a_formatted_literal_back(term):
    assert _read_back(format_term(term)) == (term, term)


def test_a_long_literal_of_escapes_reads_back():
    term = TypedLiteral('a\\b"c\nd\r' * 25_000, Dtype.STRING)
    assert len(term.lexical) == 200_000 and sum(map('\\"\n\r'.__contains__, term.lexical)) == 100_000
    assert _read_back(format_term(term)) == (term, term)


def test_typed_literal_and_boolean_atoms():
    query = parse_rdql(
        'SELECT ?x WHERE (?x <http://p> ?y) '
        'AND ?y >= 2.5 && ?y != "a" && ?x = true'
    )
    assert query.filters[0].rhs == lit("2.5", Dtype.DECIMAL)
    assert query.filters[1].rhs == lit("a", Dtype.STRING)
    assert query.filters[2].rhs == lit("true", Dtype.BOOLEAN)


@pytest.mark.parametrize("text, expected", [
    ("5", lit("5")),
    ("+5", lit("5")),
    ("- 5", lit("-5")),
    ("007", lit("7")),
    ("2.50", lit("2.5", Dtype.DECIMAL)),
    ("-0.0", lit("0.0", Dtype.DECIMAL)),
    ("TRUE", lit("true", Dtype.BOOLEAN)),
    ("false", lit("false", Dtype.BOOLEAN)),
    ("FAL\u017fE", lit("false", Dtype.BOOLEAN)),  # long s: "\u017f".upper() == "S"
])
def test_sql_and_rdql_read_bare_constants_alike(text, expected):
    sql = parse_view_select(f"SELECT A FROM T WHERE A > {text}")
    rdql = parse_rdql(f"SELECT ?a WHERE (?t <http://p> ?a) AND ?a > {text}")
    assert sql.filters[0].rhs == rdql.filters[0].rhs == expected


@pytest.mark.parametrize("parse, text, error", [
    (parse_view_select, "SELECT A FROM T WHERE A > - x", SqlParseError),
    (parse_rdql, "SELECT ?a WHERE (?t <http://p> ?a) AND ?a > - x", RdqlParseError),
], ids=["sql", "rdql"])
def test_a_sign_without_a_number_fails_alike(parse, text, error):
    with pytest.raises(error, match="expected numeric literal"):
        parse(text)


def _student_grade_store():
    triples = []
    students = [("1", "Ann", "K", "1500"), ("2", "Bob", "L", "2500")]
    for n, (sid, first, last, debt) in enumerate(students):
        subject = Iri(f"http://integratedDB/STUDENT/row/{n}")
        triples.append(Triple(subject, Iri("http://integratedDB/STUDENT#ID"), lit(sid)))
        triples.append(Triple(subject, Iri("http://integratedDB/STUDENT#FIRSTNAME"),
                              lit(first, Dtype.STRING)))
        triples.append(Triple(subject, Iri("http://integratedDB/STUDENT#LASTNAME"),
                              lit(last, Dtype.STRING)))
        triples.append(Triple(subject, Iri("http://integratedDB/STUDENT#DEBT"), lit(debt)))
    grades = [("1", "17"), ("2", "12")]
    for n, (sid, avg) in enumerate(grades):
        subject = Iri(f"http://integratedDB/GRADE/row/{n}")
        triples.append(Triple(subject, Iri("http://integratedDB/GRADE#STUDENTID"), lit(sid)))
        triples.append(Triple(subject, Iri("http://integratedDB/GRADE#AVERAGE"), lit(avg)))
    return TripleStore.from_triples(triples)


def test_two_table_query_over_fixture():
    # nested-loop oracle by hand: only Bob (debt 2500 > 2000) joins grade 12
    result = evaluate(parse_rdql(FIG2_RDQL), _student_grade_store())
    assert result.columns == ["FIRSTNAME", "LASTNAME", "AVERAGE", "DEBT"]
    assert [[t.lexical for t in row] for row in result.rows] == [
        ["Bob", "L", "12", "2500"],
    ]


def test_empty_store_yields_no_rows():
    result = evaluate(parse_rdql(FIG2_RDQL), TripleStore())
    assert result.rows == []


def test_spo_pattern_yields_row_per_triple():
    store = _student_grade_store()
    result = evaluate(parse_rdql("SELECT ?s, ?p, ?o WHERE (?s ?p ?o)"), store)
    assert len(result.rows) == len(store)


def test_duplicates_are_kept():
    store = _student_grade_store()
    result = evaluate(parse_rdql(
        "SELECT ?s WHERE (?s <http://integratedDB/STUDENT#ID> ?v)"), store)
    assert len(result.rows) == 2
    result = evaluate(parse_rdql("SELECT ?p WHERE (?s ?p ?o)"), store)
    assert len(result.rows) == len(store)  # repeated predicate terms survive


def test_repeated_variable_within_pattern():
    store = TripleStore.from_triples([
        *(Triple(Iri(f"http://x/{s}"), Iri(f"http://x/{p}"), Iri(f"http://x/{o}"))
          for s, p, o in [("a", "p", "a"), ("a", "p", "b"), ("r", "r", "r"), ("b", "r", "r")]),
        Triple(Iri("http://x/a"), Iri("http://x/q"), lit("3")),
    ])
    for text, expected in [
        ("SELECT ?s WHERE (?s <http://x/p> ?s)", [["http://x/a"]]),
        # ?v is bound to the literal 3 first (its atom makes that pattern the
        # smallest), so the subject of the second pattern can match no triple
        ("SELECT ?v WHERE (?s <http://x/q> ?v), (?v <http://x/p> ?o) AND ?v = 3", []),
        ("SELECT ?s, ?p WHERE (?s ?p ?p)", [["http://x/b", "http://x/r"],
                                            ["http://x/r", "http://x/r"]]),
        ("SELECT ?x WHERE (?x ?x ?x)", [["http://x/r"]]),
        ("SELECT ?s, ?s WHERE (?s <http://x/q> ?v)", [["http://x/a", "http://x/a"]]),
    ]:
        query = parse_rdql(text)
        result = evaluate(query, store)
        assert result.rows == enumerate_rdql(query, store), text
        assert [[t.value for t in row] for row in result.rows] == expected, text


def test_oracle_unifies_repeated_variable_within_pattern():
    store = TripleStore.from_triples([
        Triple(Iri("http://x/a"), Iri("http://x/p"), Iri("http://x/a")),
        Triple(Iri("http://x/a"), Iri("http://x/p"), Iri("http://x/b")),
    ])
    query = parse_rdql("SELECT ?s WHERE (?s <http://x/p> ?s)")
    assert enumerate_rdql(query, store) == [(Iri("http://x/a"),)]


def test_cross_type_comparison_is_false_and_counted():
    store = TripleStore.from_triples([
        Triple(Iri("http://x/a"), Iri("http://x/p"), lit("a", Dtype.STRING)),
        Triple(Iri("http://x/b"), Iri("http://x/p"), lit("3")),
    ])
    result = evaluate(parse_rdql(
        "SELECT ?v WHERE (?s <http://x/p> ?v) AND ?v > 1"), store)
    assert [[t.lexical for t in row] for row in result.rows] == [["3"]]
    assert result.cross_type_warnings == 1


def test_iri_bindings_never_satisfy_comparisons():
    store = TripleStore.from_triples([Triple(Iri("http://x/a"), Iri("http://x/p"), Iri("http://x/o"))])
    for atom in ('?v = "http://x/o"', "?s != ?v", "?s < 3"):
        result = evaluate(parse_rdql(f"SELECT ?v WHERE (?s <http://x/p> ?v) AND {atom}"), store)
        assert result.rows == [], atom
        assert result.cross_type_warnings == 1, atom


def test_incomparable_count_stops_at_first_failing_atom():
    store = TripleStore.from_triples([
        Triple(Iri("http://x/a"), Iri("http://x/p"), lit("true", Dtype.BOOLEAN)),
        Triple(Iri("http://x/b"), Iri("http://x/p"), lit("3")),
    ])
    # true is incomparable with both atoms but counts once; 3 fails the first
    # atom, a plain comparison, and is never compared with the string
    result = evaluate(parse_rdql(
        'SELECT ?v WHERE (?s <http://x/p> ?v) AND ?v > 5 && ?v != "x"'), store)
    assert result.rows == []
    assert result.cross_type_warnings == 1


def test_incomparable_count_is_per_binding_checked_not_per_row():
    store = TripleStore.from_triples([
        Triple(Iri("http://x/a"), Iri("http://x/p"), lit("a", Dtype.STRING)),
        *(Triple(Iri("http://x/a"), Iri("http://x/q"), lit(str(n))) for n in range(3)),
    ])
    # ?v is bound by the one-triple pattern and checked there, before the
    # three ?w triples are joined
    result = evaluate(parse_rdql(
        "SELECT ?v, ?w WHERE (?s <http://x/q> ?w), (?s <http://x/p> ?v) AND ?v > 1"), store)
    assert result.rows == []
    assert result.cross_type_warnings == 1


def test_hand_built_query_with_unbound_filter_var_raises():
    store = TripleStore.from_triples([Triple(Iri("http://x/a"), Iri("http://x/p"), lit("3"))])
    query = RdqlQuery(
        (Var("s"),),
        (TriplePattern(Var("s"), Iri("http://x/p"), Var("v")),),
        (FilterAtom(Var("z"), ">", lit("1")),),
    )
    with pytest.raises(UnboundFilterVarError, match=r"\?z"):
        evaluate(query, store)


def _fig2_store(n):
    """n students; those with i % 10 != 0 have one grade, debts spread over 0..3999."""
    triples = []
    student, grade = "http://integratedDB/STUDENT", "http://integratedDB/GRADE"
    for i in range(n):
        row = Iri(f"{student}/row/{i}")
        triples.append(Triple(row, Iri(f"{student}#ID"), lit(str(i))))
        triples.append(Triple(row, Iri(f"{student}#FIRSTNAME"), lit(f"F{i}", Dtype.STRING)))
        triples.append(Triple(row, Iri(f"{student}#LASTNAME"), lit(f"L{i}", Dtype.STRING)))
        triples.append(Triple(row, Iri(f"{student}#DEBT"), lit(str(i * 37 % 4000))))
        if i % 10:
            row = Iri(f"{grade}/row/{i}")
            triples.append(Triple(row, Iri(f"{grade}#STUDENTID"), lit(str(i))))
            triples.append(Triple(row, Iri(f"{grade}#AVERAGE"), lit(str(i % 20))))
    return TripleStore.from_triples(triples)


def _count_matched(monkeypatch, bound):
    """Make the steps of ``TripleStore.reader`` and the reads of ``TripleStore.in_range`` tally the
    matches they return in ``tally["matched"]``.

    Each step is applied to one binding at a time, and the tally checked
    after each, so a join that outgrows ``bound`` fails before its cross
    product is built.
    """
    tally = {"matched": 0}
    reader, in_range = TripleStore.reader, TripleStore.in_range

    def add(found):
        tally["matched"] += len(found)
        if tally["matched"] > bound:
            raise AssertionError(f"steps returned more than {bound} matches")
        return found

    def counting_reader(self, s, p, o):
        step = reader(self, s, p, o)
        return lambda bindings: [e for binding in bindings for e in add(step([binding]))]

    def counting_in_range(self, p, op, literal):
        matches, incomparable = in_range(self, p, op, literal)
        return add(matches), incomparable

    monkeypatch.setattr(TripleStore, "reader", counting_reader)
    monkeypatch.setattr(TripleStore, "in_range", counting_in_range)
    return tally


def test_fig2_join_matches_linearly_many_triples(monkeypatch):
    n = 2000
    store = _fig2_store(n)
    bound = 6 * n
    tally = _count_matched(monkeypatch, bound)
    result = evaluate(parse_rdql(FIG2_RDQL), store)
    expected = sorted(
        (f"F{i}", f"L{i}", str(i % 20), str(i * 37 % 4000))
        for i in range(n) if i % 10 and i * 37 % 4000 > 2000
    )
    assert sorted(tuple(t.lexical for t in row) for row in result.rows) == expected
    # each kept row needs its four STUDENT and two GRADE triples, so an
    # evaluator that reads the store around match() fails the lower bound
    assert 6 * len(expected) <= tally["matched"] <= bound


def test_selective_scan_matches_few_triples(monkeypatch):
    """A scan keeping k of n rows reads the k triples its atom keeps, then 2 per kept row."""
    n = 2000
    debts = [lit(str(i * 37 % 5000)) for i in range(n)]
    # scan_export's credit scan, with credit 3 once written as the decimal 3.0
    credits = [lit("3.0", Dtype.DECIMAL) if i == 7 else lit(str(i % 10 + 1)) for i in range(n)]
    for table, key, label, column, values, atom in [
        ("STUDENT", "ID", "NAME", "DEBT", debts, "> 4800"),
        ("COURSE", "CODE", "TITLE", "CREDITS", credits, "= 3"),
    ]:
        ns = f"http://integratedDB/{table}"
        store = TripleStore.from_triples(
            triple for i, value in enumerate(values) for row in [Iri(f"{ns}/row/{i}")]
            for triple in [Triple(row, Iri(f"{ns}#{key}"), lit(str(i))),
                           Triple(row, Iri(f"{ns}#{label}"), lit(f"N{i}", Dtype.STRING)),
                           Triple(row, Iri(f"{ns}#{column}"), value)])
        op, bound = atom.split()
        expected = sorted((str(i), f"N{i}") for i, value in enumerate(values)
                          if compare_terms(op, value, lit(bound)))
        k = len(expected)
        with monkeypatch.context() as patch:
            # the constrained pattern goes first and reads k triples, then each
            # kept row reads its key and its label: one triple of slack per pattern
            tally = _count_matched(patch, 3 * k + 3)
            result = evaluate(parse_rdql(
                f"SELECT ?{key}, ?{label} WHERE (?r <{ns}#{key}> ?{key}), "
                f"(?r <{ns}#{label}> ?{label}), (?r <{ns}#{column}> ?V) AND ?V {atom}"
            ), store)
        assert sorted(tuple(t.lexical for t in row) for row in result.rows) == expected, atom
        assert 3 * k <= tally["matched"] <= 3 * k + 3, atom
    assert ("7", "N7") in expected  # 3.0 = 3 by value, though not by term


def test_ranged_reads_see_every_triple_of_a_store_built_from_another():
    p = Iri("http://x/p")
    store = TripleStore.from_triples(Triple(Iri(f"http://x/s{i}"), p, lit(str(i))) for i in range(20))
    query = parse_rdql("SELECT ?s, ?v WHERE (?s <http://x/p> ?v) AND ?v >= 15 && ?v < 18")
    assert [row[1].lexical for row in evaluate(query, store).rows] == ["15", "16", "17"]
    # the same triples with an in-range decimal, an out-of-range integer and a
    # string, after the first range read has ordered the first store's objects
    store = TripleStore.from_triples([*store, *(
        Triple(Iri(f"http://x/t{i}"), p, obj)
        for i, obj in enumerate([lit("16.5", Dtype.DECIMAL), lit("40"), lit("16", Dtype.STRING)]))])
    result = evaluate(query, store)
    assert result.rows == enumerate_rdql(query, store)
    assert sorted(row[1].lexical for row in result.rows) == ["15", "16", "16.5", "17"]
    assert result.cross_type_warnings == 1  # the string, incomparable with 15


def test_join_order_independence():
    store = _student_grade_store()
    base = parse_rdql(FIG2_RDQL)
    expected = evaluate(base, store).rows
    for perm in itertools.permutations(range(len(base.patterns))):
        query = RdqlQuery(base.select, tuple(base.patterns[i] for i in perm), base.filters)
        assert evaluate(query, store).rows == expected


def test_adding_triples_is_monotone():
    rng = random.Random(11)
    store = random_store(rng, 60)
    query = random_rdql_query(rng, store)
    before = evaluate(query, store).rows
    store = TripleStore.from_triples([*store, Triple(Iri("http://example/s0"), Iri("http://example/p0"),
                                                     lit("5"))])
    after = evaluate(query, store).rows
    for row in set(before):
        assert before.count(row) <= after.count(row)


def _enumeration_cases(seed):
    """The stores and queries of ``test_matches_exhaustive_enumeration[seed]``.

    Seed ``1000 + seed`` and 39 more, 25 apart; every other query has at
    most two patterns, since random joins of more rarely answer.
    """
    for k in range(40):
        rng = random.Random(1000 + seed + 25 * k)
        store = random_store(rng, 120)
        yield store, random_rdql_query(rng, store, max_patterns=2 if k % 2 else 5)


@pytest.mark.parametrize("seed", range(25))
def test_matches_exhaustive_enumeration(seed):
    for store, query in _enumeration_cases(seed):
        result = evaluate(query, store)
        assert result.rows == enumerate_rdql(query, store), query
        if len(query.patterns) == 1:
            assert result.cross_type_warnings == single_pattern_warnings(query, store), query


def test_exhaustive_enumeration_compares_enough_answers():
    """The 1,000 queries above must not all answer nothing, or their rows compare only empty lists."""
    answered = joined = 0
    for seed in range(25):
        for store, query in _enumeration_cases(seed):
            rows = evaluate(query, store).rows
            answered += bool(rows)
            joined += bool(rows) and len(query.patterns) > 1
    assert answered >= 100 and joined >= 50, (answered, joined)


def test_single_pattern_warnings_match_the_oracle():
    for seed in range(300):
        rng = random.Random(3000 + seed)
        store = random_store(rng, 120)
        query = random_rdql_query(rng, store, max_patterns=1)
        result = evaluate(query, store)
        assert result.rows == enumerate_rdql(query, store), seed
        assert result.cross_type_warnings == single_pattern_warnings(query, store), seed


def _segmented(rng, store):
    """``store``'s triples as the mediator loads them: ``from_rows`` segments joined by a union.

    Each predicate falls into one of two segments at random. A segment's
    subjects are renamed apart from the other's, and so is an IRI object,
    which may name a subject; the k-th object of one subject and predicate
    goes to that subject's k-th row, so each object slot is a 1-tuple.
    Returns the union and a ``from_triples`` store of the same triples.
    """
    # drawn in IRI order: a set's order follows the per-process string hash
    sides = {p: int(rng.random() < 0.5)
             for p in sorted({triple.predicate for triple in store}, key=lambda p: p.value)}
    rows: tuple[dict, dict] = ({}, {})  # per segment: row subject -> {predicate: object}
    for s, p, o in store:
        side = sides[p]
        o = Iri(f"{o.value}/{side}/0") if isinstance(o, Iri) else o
        k = 0
        while p in rows[side].setdefault(Iri(f"{s.value}/{side}/{k}"), {}):
            k += 1
        rows[side][Iri(f"{s.value}/{side}/{k}")][p] = o
    segments = []
    for segment_rows in rows:
        predicates = sorted({p for cells in segment_rows.values() for p in cells}, key=lambda p: p.value)
        segments.append(TripleStore.from_rows(predicates, [(s, [cells.get(p) for p in predicates])
                                                           for s, cells in segment_rows.items() if cells]))
    reference = TripleStore.from_triples(Triple(s, p, o) for segment_rows in rows
                                         for s, cells in segment_rows.items() for p, o in cells.items())
    return TripleStore.union(segments), reference


def test_matches_exhaustive_enumeration_on_loaded_segments():
    answered = warned = 0
    for seed in range(200):
        rng = random.Random(5000 + seed)
        store, reference = _segmented(rng, random_store(rng, 120))
        assert store == reference, seed
        for max_patterns in (5, 1):
            query = random_rdql_query(rng, store, max_patterns=max_patterns)
            result = evaluate(query, store)
            assert result.rows == enumerate_rdql(query, reference), (seed, max_patterns)
            if len(query.patterns) == 1:
                assert result.cross_type_warnings == single_pattern_warnings(query, reference), seed
            answered += bool(result.rows)
            warned += bool(result.cross_type_warnings)
    assert answered >= 20 and warned >= 20, (answered, warned)


def test_each_plan_step_chooses_its_read_once(monkeypatch):
    store = _fig2_store(2000)
    chosen, ranged = [], []
    reader, in_range = TripleStore.reader, TripleStore.in_range
    monkeypatch.setattr(TripleStore, "reader",
                        lambda self, *pattern: chosen.append(pattern) or reader(self, *pattern))
    monkeypatch.setattr(TripleStore, "in_range",
                        lambda self, *bound: ranged.append(bound) or in_range(self, *bound))
    monkeypatch.setattr(TripleStore, "match", lambda *args: pytest.fail("evaluate called match"))
    result = evaluate(parse_rdql(FIG2_RDQL), store)
    assert len(result.rows) == sum(1 for i in range(2000) if i % 10 and i * 37 % 4000 > 2000)
    # one choice per pattern, however many bindings each step extends; the
    # debt pattern goes first, as a range read, and the other five get a reader
    assert len(chosen) == 5
    assert ranged == [(Iri("http://integratedDB/STUDENT#DEBT"), ">", lit("2000"))]


def test_a_range_read_atom_is_compared_once_per_kept_row(monkeypatch):
    n = 2000
    ns = "http://integratedDB/STUDENT"
    debts = [lit(str(i * 37 % 5000)) for i in range(n)]
    debts[3], debts[5] = lit("many", Dtype.STRING), Iri(f"{ns}/row/0")
    store = TripleStore.from_triples(
        triple for i, debt in enumerate(debts) for row in [Iri(f"{ns}/row/{i}")]
        for triple in [Triple(row, Iri(f"{ns}#ID"), lit(str(i))), Triple(row, Iri(f"{ns}#DEBT"), debt)])
    calls = []
    compare = rdql_engine.compare
    monkeypatch.setattr(rdql_engine, "compare", lambda *args: calls.append(args) or compare(*args))
    result = evaluate(parse_rdql(f"SELECT ?ID WHERE (?r <{ns}#ID> ?ID), (?r <{ns}#DEBT> ?V) "
                                 f"AND ?V > 4800 && ?V != 4837"), store)
    kept = [i for i, debt in enumerate(debts)
            if isinstance(debt, TypedLiteral) and debt.dtype is Dtype.INTEGER and int(debt.lexical) > 4800]
    assert sorted(int(row[0].lexical) for row in result.rows) == [
        i for i in kept if debts[i].lexical != "4837"]
    # the range read decided ?V > 4800 on each numeric debt and counted the
    # string and the IRI as incomparable, so no debt meets that atom in a
    # comparison, and ?V != 4837 is compared once per kept debt
    assert len(calls) == len(kept)
    assert result.cross_type_warnings == 2


def test_a_range_read_counts_incomparable_triples_without_comparing_them(monkeypatch):
    """A numeric atom on a string predicate, behind 50 bindings, compares nothing: each string
    would be incomparable with the literal, so each is counted once per binding."""
    store = TripleStore.from_triples([
        *(Triple(Iri(f"http://x/a{i}"), Iri("http://x/q"), lit(str(i))) for i in range(50)),
        *(Triple(Iri(f"http://x/s{i}"), Iri("http://x/p"), lit(f"N{i}", Dtype.STRING)) for i in range(2000)),
    ])
    calls = []
    compare = rdql_engine.compare
    monkeypatch.setattr(rdql_engine, "compare", lambda *args: calls.append(args) or compare(*args))
    result = evaluate(parse_rdql("SELECT ?a WHERE (?a <http://x/q> ?b), (?s <http://x/p> ?v) AND ?v > 3"),
                      store)
    assert result.rows == []
    assert calls == []
    assert result.cross_type_warnings == 50 * 2000


def test_a_deep_query_plans_each_pattern_once(monkeypatch):
    # at every step the planner once recomputed the variables of every
    # pattern left, and compared the estimates of every pattern left: both
    # a quadratic number of calls
    n = 2000
    store = TripleStore.from_triples([Triple(Iri("http://x/s"), Iri("http://x/p"), lit("1"))])
    query = parse_rdql("SELECT ?s WHERE " + ", ".join(f"(?s <http://x/p> ?o{i})" for i in range(n)))
    calls = []
    pattern_variables = rdql_engine._pattern_variables
    monkeypatch.setattr(rdql_engine, "_pattern_variables",
                        lambda pattern: calls.append(pattern) or pattern_variables(pattern))
    comparisons = []

    class Estimate(int):  # an int that counts the comparisons made on it
        __hash__ = int.__hash__

        def __lt__(self, other):
            return comparisons.append(self) or int.__lt__(self, other)

        def __eq__(self, other):
            return comparisons.append(self) or int.__eq__(self, other)

    estimate = rdql_engine._estimate
    monkeypatch.setattr(rdql_engine, "_estimate", lambda *args: Estimate(estimate(*args)))
    assert evaluate(query, store).rows == [(Iri("http://x/s"),)]
    assert len(calls) <= 2 * n
    assert 0 < len(comparisons) <= n * math.log2(n)


_SELECTIVITY = {"=": Fraction(1, 10), "!=": Fraction(1), "<": Fraction(1, 3),
                "<=": Fraction(1, 3), ">": Fraction(1, 3), ">=": Fraction(1, 3)}


def _fraction_plan(query, store):
    """``_plan``'s greedy connected order, the estimates computed as exact fractions."""
    variables = [{t.name for t in (p.s, p.p, p.o) if isinstance(t, Var)} for p in query.patterns]
    estimates = []
    for pattern, names in zip(query.patterns, variables):
        estimate = Fraction(len(store.match(*(None if isinstance(t, Var) else t
                                               for t in (pattern.s, pattern.p, pattern.o)))))
        for atom in query.filters:
            if not isinstance(atom.rhs, Var) and atom.lhs.name in names:
                estimate *= _SELECTIVITY[atom.op]
        estimates.append(estimate)
    remaining = sorted(range(len(query.patterns)), key=estimates.__getitem__)
    order, bound = [], set()
    while remaining:
        best = next((i for i in remaining if variables[i] & bound), remaining[0])
        remaining.remove(best)
        bound |= variables[best]
        order.append(best)
    return order


def test_plan_orders_patterns_as_fraction_estimates_do(monkeypatch):
    """Integer estimates give ``_plan`` the order of exact fractions, ties included."""
    counts = []
    count = TripleStore.count
    monkeypatch.setattr(TripleStore, "count", lambda *args: counts.append(args) or count(*args))
    literal_atoms = 0
    for seed in range(300):
        rng = random.Random(6000 + seed)
        store = random_store(rng, 120)
        query = random_rdql_query(rng, store, max_patterns=8)
        names = sorted({v.name for p in query.patterns for v in (p.s, p.p, p.o) if isinstance(v, Var)})
        extra = []
        for _ in range(rng.choice([0, 5, 20, 30])):  # many atoms: a large common denominator
            dtype = rng.choice([Dtype.INTEGER, Dtype.DECIMAL, Dtype.STRING])
            extra.append(FilterAtom(Var(rng.choice(names)), rng.choice(["=", "!=", "<", "<=", ">", ">="]),
                                    lit(str(rng.randrange(10)) + ".5" * (dtype is Dtype.DECIMAL), dtype)))
        query = RdqlQuery(query.select, query.patterns, query.filters + tuple(extra))
        literal_atoms = max(literal_atoms, sum(not isinstance(a.rhs, Var) for a in query.filters))
        expected = [query.patterns[i] for i in _fraction_plan(query, store)]
        counts.clear()
        steps = rdql_engine._plan(query, store)
        assert len(counts) == len(query.patterns), seed  # one count per pattern
        # by identity: equal patterns of one query are told apart by their position
        assert [id(pattern) for pattern, _ in steps] == [id(pattern) for pattern in expected], seed
        assert sorted(id(atom) for _, atoms in steps for atom in atoms) == sorted(map(id, query.filters))
    assert literal_atoms >= 20


def _probe_counts(monkeypatch, store, query):
    """Evaluate ``query``; count ``reader`` calls, step calls, compiled steps and their reads,
    and the ``Iri.__eq__`` calls made while a step runs."""
    tally = {"reader": 0, "step": 0, "compiled": 0, "read": 0, "eq": 0, "probing": False}
    reader, compile_step, iri_eq = TripleStore.reader, rdql_engine._compile, Iri.__eq__

    def counting_reader(self, *pattern):
        tally["reader"] += 1
        step = reader(self, *pattern)

        def counting_step(bindings):
            tally["step"] += 1
            tally["probing"] = True
            try:
                return step(bindings)
            finally:
                tally["probing"] = False

        return counting_step

    def counting_compile(*args):
        read, checks, incomparable = compile_step(*args)
        tally["compiled"] += 1
        return (lambda bindings: tally.__setitem__("read", tally["read"] + 1) or read(bindings),
                checks, incomparable)

    def counting_eq(a, b):
        tally["eq"] += tally["probing"]
        return iri_eq(a, b)

    monkeypatch.setattr(TripleStore, "reader", counting_reader)
    monkeypatch.setattr(rdql_engine, "_compile", counting_compile)
    monkeypatch.setattr(Iri, "__eq__", counting_eq)
    result = evaluate(query, store)
    monkeypatch.undo()
    return result, tally


def test_each_step_reads_once_for_all_its_bindings(monkeypatch):
    store = _fig2_store(2000)
    query = parse_rdql(FIG2_RDQL)
    result, tally = _probe_counts(monkeypatch, store, query)
    assert result == evaluate(query, store)
    assert len(result.rows) == sum(1 for i in range(2000) if i % 10 and i * 37 % 4000 > 2000)
    # one reader and one step call per pattern but the debt pattern's, which
    # is a range read; each compiled step is read once
    assert tally["reader"] == tally["step"] == len(query.patterns) - 1 == 5
    assert tally["compiled"] == tally["read"] == 6


def _fig2_segments(n):
    """``_fig2_store(n)`` as the mediator builds it: a ``from_rows`` segment per table, joined by ``union``."""
    student, grade = "http://integratedDB/STUDENT", "http://integratedDB/GRADE"
    students = TripleStore.from_rows(
        [Iri(f"{student}#{column}") for column in ("ID", "FIRSTNAME", "LASTNAME", "DEBT")],
        [(Iri(f"{student}/row/{i}"), [lit(str(i)), lit(f"F{i}", Dtype.STRING),
                                      lit(f"L{i}", Dtype.STRING), lit(str(i * 37 % 4000))])
         for i in range(n)])
    grades = TripleStore.from_rows(
        [Iri(f"{grade}#STUDENTID"), Iri(f"{grade}#AVERAGE")],
        [(Iri(f"{grade}/row/{i}"), [lit(str(i)), lit(str(i % 20))]) for i in range(n) if i % 10])
    return TripleStore.union([students, grades])


def test_steps_find_constant_predicates_by_identity(monkeypatch):
    """The store keys each predicate by one object, so no probe runs ``Iri.__eq__``.

    ``_fig2_store`` builds a new, equal ``Iri`` for each triple's predicate,
    and the query parses its own.
    """
    for store in (_fig2_store(2000), _fig2_segments(2000)):
        assert store == _fig2_store(2000)
        for text in (FIG2_RDQL, "SELECT ?ID, ?A WHERE (?g <http://integratedDB/GRADE#STUDENTID> ?ID), "
                                "(?g <http://integratedDB/GRADE#AVERAGE> ?A), (?s ?p ?ID)"):
            result, tally = _probe_counts(monkeypatch, store, parse_rdql(text))
            assert result.rows
            assert tally["eq"] == 0, text


_WIDE = "http://integratedDB/T"
_VARIABLE_PREDICATE_QUERIES = {
    "object": f"SELECT ?p WHERE (?x <{_WIDE}0#A> ?v), (?s ?p ?v)",
    "subject": f"SELECT ?p WHERE (?s <{_WIDE}0#A> ?x), (?s ?p ?o)",
}


def _wide_segments(rows, predicates):
    """``predicates`` predicates over one-table segments: T0's field A holds i in its i-th of
    ``rows`` rows and its field B holds the same in the even rows; each other table Tk has one
    row, whose field A holds k % rows."""
    segments = [TripleStore.from_rows([Iri(f"{_WIDE}0#A"), Iri(f"{_WIDE}0#B")], [
        (Iri(f"{_WIDE}0/row/{i}"), [lit(str(i)), None if i % 2 else lit(str(i))]) for i in range(rows)])]
    return segments + [
        TripleStore.from_rows([Iri(f"{_WIDE}{k}#A")], [(Iri(f"{_WIDE}{k}/row/0"), [lit(str(k % rows))])])
        for k in range(1, predicates - 1)]


def _variable_predicate_rows(shape, rows, predicates):
    """The answer of that shape's query over ``_wide_segments(rows, predicates)``, worked out from
    how they are built: T0#A once per row, T0#B once per even row and, for the bound object, each
    Tk#A once."""
    found = [f"{_WIDE}0#A"] * rows + [f"{_WIDE}0#B"] * ((rows + 1) // 2)
    if shape == "object":
        found += [f"{_WIDE}{k}#A" for k in range(1, predicates - 1)]
    return sorted([(Iri(p),) for p in found], key=lambda row: format_term(row[0]))


@pytest.mark.parametrize("shape", sorted(_VARIABLE_PREDICATE_QUERIES))
def test_a_variable_predicate_step_hashes_terms_linearly(monkeypatch, shape):
    """A variable predicate whose subject or object a binding holds reads the entries of that
    term, not every predicate once per binding, in a fresh union as each query gets one."""
    query = parse_rdql(_VARIABLE_PREDICATE_QUERIES[shape])
    small = TripleStore.union(_wide_segments(10, 20))
    expected = _variable_predicate_rows(shape, 10, 20)
    assert evaluate(query, small).rows == enumerate_rdql(query, small) == expected

    rows, predicates = 1000, 2000  # rows: the bindings of the first step
    segments = _wide_segments(rows, predicates)
    bound = 4 * (rows + sum(map(len, segments)))
    hashes = 0

    def counting(original):
        def hash_term(term):
            nonlocal hashes
            hashes += 1
            if hashes > bound:  # fail before a walk of every predicate per binding runs its course
                raise AssertionError(f"terms hashed more than {bound} times")
            return original(term)
        return hash_term

    with monkeypatch.context() as patched:
        for cls in (Iri, TypedLiteral):
            patched.setattr(cls, "__hash__", counting(cls.__hash__))
        result = evaluate(query, TripleStore.union(segments))
    assert result.rows == _variable_predicate_rows(shape, rows, predicates)
