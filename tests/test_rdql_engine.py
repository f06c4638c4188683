import itertools
import math
import random
import re
from fractions import Fraction

import pytest

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
from medquery.triple_store import Iri, Range, Triple, TripleStore, TypedLiteral, import_ntriples

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


@pytest.mark.parametrize("term, message", [
    ('"\\q"', "unknown escape '\\q'"),
    ('"open', "unterminated literal"),
    ("<http://o", "unterminated IRI"),
    ("<o>", "IRI must be absolute"),
    # zero is written 0.0 only, so the value has one term
    ('"-0.0"^^<http://www.w3.org/2001/XMLSchema#decimal>', "'-0.0' is not canonical decimal"),
])
def test_term_errors_read_alike_in_rdql_and_ntriples(term, message):
    with pytest.raises(RdqlParseError, match=re.escape(message)):
        parse_rdql(f"SELECT ?x WHERE (?x <http://p> {term})")
    with pytest.raises(NtParseError, match=re.escape(message)):
        import_ntriples(f"<http://s> <http://p> {term} .\n")


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
    store = TripleStore()
    students = [("1", "Ann", "K", "1500"), ("2", "Bob", "L", "2500")]
    for n, (sid, first, last, debt) in enumerate(students):
        subject = Iri(f"http://integratedDB/STUDENT/row/{n}")
        store.insert(Triple(subject, Iri("http://integratedDB/STUDENT#ID"), lit(sid)))
        store.insert(Triple(subject, Iri("http://integratedDB/STUDENT#FIRSTNAME"),
                            lit(first, Dtype.STRING)))
        store.insert(Triple(subject, Iri("http://integratedDB/STUDENT#LASTNAME"),
                            lit(last, Dtype.STRING)))
        store.insert(Triple(subject, Iri("http://integratedDB/STUDENT#DEBT"), lit(debt)))
    grades = [("1", "17"), ("2", "12")]
    for n, (sid, avg) in enumerate(grades):
        subject = Iri(f"http://integratedDB/GRADE/row/{n}")
        store.insert(Triple(subject, Iri("http://integratedDB/GRADE#STUDENTID"), lit(sid)))
        store.insert(Triple(subject, Iri("http://integratedDB/GRADE#AVERAGE"), lit(avg)))
    return store


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
    store = TripleStore()
    for s, p, o in [("a", "p", "a"), ("a", "p", "b"), ("r", "r", "r"), ("b", "r", "r")]:
        store.insert(Triple(Iri(f"http://x/{s}"), Iri(f"http://x/{p}"), Iri(f"http://x/{o}")))
    store.insert(Triple(Iri("http://x/a"), Iri("http://x/q"), lit("3")))
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
    store = TripleStore()
    store.insert(Triple(Iri("http://x/a"), Iri("http://x/p"), Iri("http://x/a")))
    store.insert(Triple(Iri("http://x/a"), Iri("http://x/p"), Iri("http://x/b")))
    query = parse_rdql("SELECT ?s WHERE (?s <http://x/p> ?s)")
    assert enumerate_rdql(query, store) == [(Iri("http://x/a"),)]


def test_cross_type_comparison_is_false_and_counted():
    store = TripleStore()
    store.insert(Triple(Iri("http://x/a"), Iri("http://x/p"), lit("a", Dtype.STRING)))
    store.insert(Triple(Iri("http://x/b"), Iri("http://x/p"), lit("3")))
    result = evaluate(parse_rdql(
        "SELECT ?v WHERE (?s <http://x/p> ?v) AND ?v > 1"), store)
    assert [[t.lexical for t in row] for row in result.rows] == [["3"]]
    assert result.cross_type_warnings == 1


def test_iri_bindings_never_satisfy_comparisons():
    store = TripleStore()
    store.insert(Triple(Iri("http://x/a"), Iri("http://x/p"), Iri("http://x/o")))
    for atom in ('?v = "http://x/o"', "?s != ?v", "?s < 3"):
        result = evaluate(parse_rdql(f"SELECT ?v WHERE (?s <http://x/p> ?v) AND {atom}"), store)
        assert result.rows == [], atom
        assert result.cross_type_warnings == 1, atom


def test_incomparable_count_stops_at_first_failing_atom():
    store = TripleStore()
    store.insert(Triple(Iri("http://x/a"), Iri("http://x/p"), lit("true", Dtype.BOOLEAN)))
    store.insert(Triple(Iri("http://x/b"), Iri("http://x/p"), lit("3")))
    # true is incomparable with both atoms but counts once; 3 fails the first
    # atom, a plain comparison, and is never compared with the string
    result = evaluate(parse_rdql(
        'SELECT ?v WHERE (?s <http://x/p> ?v) AND ?v > 5 && ?v != "x"'), store)
    assert result.rows == []
    assert result.cross_type_warnings == 1


def test_incomparable_count_is_per_binding_checked_not_per_row():
    store = TripleStore()
    store.insert(Triple(Iri("http://x/a"), Iri("http://x/p"), lit("a", Dtype.STRING)))
    for n in range(3):
        store.insert(Triple(Iri("http://x/a"), Iri("http://x/q"), lit(str(n))))
    # ?v is bound by the one-triple pattern and checked there, before the
    # three ?w triples are joined
    result = evaluate(parse_rdql(
        "SELECT ?v, ?w WHERE (?s <http://x/q> ?w), (?s <http://x/p> ?v) AND ?v > 1"), store)
    assert result.rows == []
    assert result.cross_type_warnings == 1


def test_hand_built_query_with_unbound_filter_var_raises():
    store = TripleStore()
    store.insert(Triple(Iri("http://x/a"), Iri("http://x/p"), lit("3")))
    query = RdqlQuery(
        (Var("s"),),
        (TriplePattern(Var("s"), Iri("http://x/p"), Var("v")),),
        (FilterAtom(Var("z"), ">", lit("1")),),
    )
    with pytest.raises(UnboundFilterVarError, match=r"\?z"):
        evaluate(query, store)


def _fig2_store(n):
    """n students; those with i % 10 != 0 have one grade, debts spread over 0..3999."""
    store = TripleStore()
    student, grade = "http://integratedDB/STUDENT", "http://integratedDB/GRADE"
    for i in range(n):
        row = Iri(f"{student}/row/{i}")
        store.insert(Triple(row, Iri(f"{student}#ID"), lit(str(i))))
        store.insert(Triple(row, Iri(f"{student}#FIRSTNAME"), lit(f"F{i}", Dtype.STRING)))
        store.insert(Triple(row, Iri(f"{student}#LASTNAME"), lit(f"L{i}", Dtype.STRING)))
        store.insert(Triple(row, Iri(f"{student}#DEBT"), lit(str(i * 37 % 4000))))
        if i % 10:
            row = Iri(f"{grade}/row/{i}")
            store.insert(Triple(row, Iri(f"{grade}#STUDENTID"), lit(str(i))))
            store.insert(Triple(row, Iri(f"{grade}#AVERAGE"), lit(str(i % 20))))
    return store


def _count_matched(monkeypatch, bound):
    """Make the readers of ``TripleStore.reader`` tally the matches they return in ``tally["matched"]``."""
    tally = {"matched": 0}
    reader = TripleStore.reader

    def counting_reader(self, s, p, o):
        read = reader(self, s, p, o)

        def counting_read(binding):
            found = read(binding)
            tally["matched"] += len(found)
            if tally["matched"] > bound:  # fail before a cross product is built
                raise AssertionError(f"readers returned more than {bound} matches")
            return found

        return counting_read

    monkeypatch.setattr(TripleStore, "reader", counting_reader)
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
        store = TripleStore()
        for i, value in enumerate(values):
            row = Iri(f"{ns}/row/{i}")
            store.insert(Triple(row, Iri(f"{ns}#{key}"), lit(str(i))))
            store.insert(Triple(row, Iri(f"{ns}#{label}"), lit(f"N{i}", Dtype.STRING)))
            store.insert(Triple(row, Iri(f"{ns}#{column}"), value))
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


def test_ranged_reads_see_later_inserts():
    store = TripleStore()
    p = Iri("http://x/p")
    for i in range(20):
        store.insert(Triple(Iri(f"http://x/s{i}"), p, lit(str(i))))
    query = parse_rdql("SELECT ?s, ?v WHERE (?s <http://x/p> ?v) AND ?v >= 15 && ?v < 18")
    assert [row[1].lexical for row in evaluate(query, store).rows] == ["15", "16", "17"]
    # an in-range decimal, an out-of-range integer and a string, after the
    # first range read has ordered the predicate's objects
    for i, obj in enumerate([lit("16.5", Dtype.DECIMAL), lit("40"), lit("16", Dtype.STRING)]):
        store.insert(Triple(Iri(f"http://x/t{i}"), p, obj))
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
    store.insert(Triple(Iri("http://example/s0"), Iri("http://example/p0"), lit("5")))
    after = evaluate(query, store).rows
    for row in set(before):
        assert before.count(row) <= after.count(row)


@pytest.mark.parametrize("seed", range(25))
def test_matches_exhaustive_enumeration(seed):
    rng = random.Random(1000 + seed)
    store = random_store(rng, 120)
    query = random_rdql_query(rng, store)
    result = evaluate(query, store)
    assert result.rows == enumerate_rdql(query, store)
    if len(query.patterns) == 1:
        assert result.cross_type_warnings == single_pattern_warnings(query, store)


def test_single_pattern_warnings_match_the_oracle():
    for seed in range(300):
        rng = random.Random(3000 + seed)
        store = random_store(rng, 120)
        query = random_rdql_query(rng, store, max_patterns=1)
        result = evaluate(query, store)
        assert result.rows == enumerate_rdql(query, store), seed
        assert result.cross_type_warnings == single_pattern_warnings(query, store), seed


def _segmented(rng, store):
    """``store``'s triples as the mediator loads them: ``load_rows`` segments joined by a union.

    Each predicate falls into one of two segments at random. A segment's
    subjects are renamed apart from the other's, and so is an IRI object,
    which may name a subject; the k-th object of one subject and predicate
    goes to that subject's k-th row, so each object slot is a 1-tuple.
    Returns the union and an ``insert``-built store of the same triples.
    """
    sides = {p: int(rng.random() < 0.5) for p in {triple.predicate for triple in store}}
    rows: tuple[dict, dict] = ({}, {})  # per segment: row subject -> {predicate: object}
    for s, p, o in store:
        side = sides[p]
        o = Iri(f"{o.value}/{side}/0") if isinstance(o, Iri) else o
        k = 0
        while p in rows[side].setdefault(Iri(f"{s.value}/{side}/{k}"), {}):
            k += 1
        rows[side][Iri(f"{s.value}/{side}/{k}")][p] = o
    segments, reference = [], TripleStore()
    for segment_rows in rows:
        predicates = sorted({p for cells in segment_rows.values() for p in cells}, key=lambda p: p.value)
        segment = TripleStore()
        segment.load_rows(predicates, [(s, [cells.get(p) for p in predicates])
                                       for s, cells in segment_rows.items() if cells])
        segments.append(segment)
        for s, cells in segment_rows.items():
            for p, o in cells.items():
                reference.insert(Triple(s, p, o))
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
    chosen = []
    reader = TripleStore.reader
    monkeypatch.setattr(TripleStore, "reader",
                        lambda self, *pattern: chosen.append(pattern) or reader(self, *pattern))
    monkeypatch.setattr(TripleStore, "match", lambda *args: pytest.fail("evaluate called match"))
    result = evaluate(parse_rdql(FIG2_RDQL), store)
    assert len(result.rows) == sum(1 for i in range(2000) if i % 10 and i * 37 % 4000 > 2000)
    # one choice per pattern, however many bindings each step extends; the
    # debt pattern goes first, as a range read
    assert len(chosen) == 6
    assert isinstance(chosen[0][2], Range)


def test_a_range_read_atom_is_compared_once_per_kept_row(monkeypatch):
    n = 2000
    ns = "http://integratedDB/STUDENT"
    debts = [lit(str(i * 37 % 5000)) for i in range(n)]
    debts[3], debts[5] = lit("many", Dtype.STRING), Iri(f"{ns}/row/0")
    store = TripleStore()
    for i, debt in enumerate(debts):
        row = Iri(f"{ns}/row/{i}")
        store.insert(Triple(row, Iri(f"{ns}#ID"), lit(str(i))))
        store.insert(Triple(row, Iri(f"{ns}#DEBT"), debt))
    calls = []
    compare = rdql_engine.compare
    monkeypatch.setattr(rdql_engine, "compare", lambda *args: calls.append(args) or compare(*args))
    result = evaluate(parse_rdql(f"SELECT ?ID WHERE (?r <{ns}#ID> ?ID), (?r <{ns}#DEBT> ?V) "
                                 f"AND ?V > 4800 && ?V != 4837"), store)
    kept = [i for i, debt in enumerate(debts)
            if isinstance(debt, TypedLiteral) and debt.dtype is Dtype.INTEGER and int(debt.lexical) > 4800]
    assert sorted(int(row[0].lexical) for row in result.rows) == [
        i for i in kept if debts[i].lexical != "4837"]
    # the range read decided ?V > 4800 on each numeric debt it kept, so only
    # the string meets that atom in a comparison (the IRI is incomparable
    # without one), and ?V != 4837 is compared once per kept debt
    assert len(calls) == 1 + len(kept)
    assert result.cross_type_warnings == 2


def test_a_deep_query_plans_each_pattern_once(monkeypatch):
    # at every step the planner once recomputed the variables of every
    # pattern left, and compared the estimates of every pattern left: both
    # a quadratic number of calls
    n = 2000
    store = TripleStore()
    store.insert(Triple(Iri("http://x/s"), Iri("http://x/p"), lit("1")))
    query = parse_rdql("SELECT ?s WHERE " + ", ".join(f"(?s <http://x/p> ?o{i})" for i in range(n)))
    calls = []
    pattern_variables = rdql_engine._pattern_variables
    monkeypatch.setattr(rdql_engine, "_pattern_variables",
                        lambda pattern: calls.append(pattern) or pattern_variables(pattern))
    comparisons = []
    for name in ("__lt__", "__eq__"):
        compare = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda a, b, compare=compare:
                            comparisons.append(a) or compare(a, b))
    assert evaluate(query, store).rows == [(Iri("http://x/s"),)]
    assert len(calls) <= 2 * n
    assert len(comparisons) <= n * math.log2(n)
