import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medquery import triple_store
from medquery.dtypes import Dtype, canonicalize
from medquery.errors import NtParseError
from medquery.triple_store import (
    Iri,
    Triple,
    TripleStore,
    TypedLiteral,
    export_ntriples,
    format_term,
    import_ntriples,
)

from generators import random_store
from oracles import compare_terms, scan_match


def t(s, p, o):
    return Triple(Iri(s), Iri(p), o)


S, P = "http://x/s", "http://x/p"
LIT = TypedLiteral("7", Dtype.INTEGER)


def test_insert_is_set_semantics():
    store = TripleStore()
    assert store.insert(t(S, P, LIT)) is True
    assert len(store) == 1
    assert store.insert(t(S, P, LIT)) is False
    assert len(store) == 1
    assert store.insert(t(S, P, TypedLiteral("8", Dtype.INTEGER))) is True
    assert len(store) == 2


def test_from_rows_equals_inserts_and_refuses_repeats():
    q = "http://x/q"
    store = TripleStore.from_rows([Iri(P), Iri(q)], [(Iri(S), [LIT, None]), (Iri("http://x/s2"), [None, None]),
                                                     (Iri("http://x/s3"), [LIT, LIT])])
    reference = TripleStore()
    for triple in (t(S, P, LIT), t("http://x/s3", P, LIT), t("http://x/s3", q, LIT)):
        reference.insert(triple)
    assert store == reference and len(store) == 3
    assert store.count(None, Iri(P), LIT) == 2
    with pytest.raises(ValueError):
        TripleStore.from_rows([Iri(P), Iri(P)], [])
    with pytest.raises(ValueError):  # a subject repeated within the rows
        TripleStore.from_rows([Iri(P)], [(Iri(S), [LIT]), (Iri(S), [TypedLiteral("8", Dtype.INTEGER)])])


def _table_segment(table, rows):
    """A store built like one integrated table's triples."""
    return TripleStore.from_rows([Iri(f"http://x/{table}#{f}") for f in "AB"], [
        (Iri(f"http://x/{table}/row/{i}"), cells) for i, cells in enumerate(rows)])


def test_union_answers_like_one_store_and_refuses_writes():
    one = TypedLiteral("1", Dtype.INTEGER)
    two = TypedLiteral("2", Dtype.STRING)
    segments = [_table_segment("T", [[one, two], [one, None]]),
                _table_segment("U", [[None, one], [two, two], [one, one]])]
    union = TripleStore.union(segments)
    reference = TripleStore()
    for triple in itertools.chain(*segments):
        reference.insert(triple)
    # the segments are sealed, so the union reads as before
    with pytest.raises(ValueError):
        segments[0].insert(Triple(Iri("http://x/T/row/5"), Iri("http://x/T#A"), two))
    with pytest.raises(ValueError):
        segments[1].insert(Triple(Iri("http://x/U/row/0"), Iri("http://x/U#A"), one))
    exports = [export_ntriples(segment) for segment in segments]
    assert len(list(union)) == 8 and union.count(None, Iri("http://x/T#A"), None) == 2
    assert union == reference and reference == union and len(union) == 8
    subjects = [None, *{triple.subject for triple in reference}, Iri("http://x/T/row/9")]
    predicates = [None, *{triple.predicate for triple in reference}]
    for s, p, o in itertools.product(subjects, predicates, [None, one, two]):
        assert set(union.match(s, p, o)) == set(reference.match(s, p, o)), (s, p, o)
        assert union.count(s, p, o) == reference.count(s, p, o), (s, p, o)

    # so is the union, and a refused write changes nothing
    with pytest.raises(ValueError):
        union.insert(Triple(Iri("http://x/T/row/1"), Iri("http://x/T#B"), one))
    assert len(union) == 8 and union.count(None, Iri("http://x/T#B"), None) == 1
    assert union == reference
    assert [export_ntriples(segment) for segment in segments] == exports
    assert len(TripleStore.union(segments)) == 8


def test_union_refuses_shared_predicates_and_joins_shared_subjects():
    store = _table_segment("T", [[LIT, LIT]])
    with pytest.raises(ValueError):
        TripleStore.union([store, _table_segment("T", [])])  # the same predicates
    # a subject of both stores: each triple lives in its own predicate's entry
    shared_subject = TripleStore()
    shared_subject.insert(t("http://x/T/row/0", "http://x/q", LIT))
    shared_subject.insert(t("http://x/T/row/1", "http://x/q", Iri("http://x/T/row/0")))
    union = TripleStore.union([store, shared_subject])
    reference = TripleStore()
    for triple in itertools.chain(store, shared_subject):
        reference.insert(triple)
    assert union == reference and len(union) == 4
    subjects = [None, Iri("http://x/T/row/0"), Iri("http://x/T/row/1"), Iri("http://x/absent")]
    predicates = [None, Iri("http://x/T#A"), Iri("http://x/T#B"), Iri("http://x/q")]
    objects = [None, LIT, Iri("http://x/T/row/0"), TypedLiteral("8", Dtype.INTEGER)]
    for s, p, o in itertools.product(subjects, predicates, objects):
        expected = sorted(reference.match(s, p, o), key=_key)
        assert sorted(union.match(s, p, o), key=_key) == expected, (s, p, o)
        assert union.count(s, p, o) == reference.count(s, p, o) == len(expected), (s, p, o)


def test_variable_predicate_reads_see_each_write():
    store = TripleStore()
    store.insert(t(S, P, LIT))
    for write in (t(S, "http://x/q", LIT), t("http://x/s2", P, LIT)):
        assert store.count(None, None, LIT) == len(store)  # a variable-predicate read before the write
        store.insert(write)
        triples = list(store)
        for s, o in ((Iri(S), None), (None, LIT), (Iri(write.subject.value), LIT)):
            expected = sorted(scan_match(triples, s, None, o), key=_key)
            assert sorted(store.match(s, None, o), key=_key) == expected, (write, s, o)
            assert store.count(s, None, o) == len(expected), (write, s, o)


def test_insert_into_a_from_rows_store_raises():
    store = _table_segment("T", [[LIT, None]])
    subject, predicate = "http://x/T/row/0", "http://x/T#A"
    before = export_ntriples(store)
    for obj in (LIT, TypedLiteral("8", Dtype.INTEGER)):  # a present triple and a new one
        with pytest.raises(ValueError):
            store.insert(t(subject, predicate, obj))
    assert export_ntriples(store) == before and len(store) == 1
    assert store.count(None, Iri(predicate), LIT) == 1


def test_match_wildcards():
    store = TripleStore()
    triples = [
        t(S, P, LIT),
        t(S, "http://x/q", TypedLiteral("a", Dtype.STRING)),
        t("http://x/s2", P, LIT),
    ]
    for triple in triples:
        store.insert(triple)
    assert len(store.match(None, None, None)) == 3
    assert store.match(Iri("http://x/absent"), None, None) == []
    assert len(store.match(Iri(S), None, None)) == 2
    assert len(store.match(None, Iri(P), None)) == 2
    assert len(store.match(None, None, LIT)) == 2
    assert store.match(Iri(S), Iri(P), LIT) == [triples[0]]
    # no triple has a literal subject or predicate
    for s, p, o in ((LIT, None, None), (None, LIT, None), (LIT, LIT, LIT)):
        assert store.match(s, p, o) == [] and store.count(s, p, o) == 0, (s, p, o)


def _key(triple):
    s, p, o = triple
    return (s.value, p.value, format_term(o))


@pytest.mark.parametrize("seed", range(10))
def test_match_agrees_with_linear_scan(seed):
    rng = random.Random(seed)
    store = random_store(rng, 200)
    triples = list(store)
    subjects = [t_.subject for t_ in triples] or [Iri(S)]
    predicates = [t_.predicate for t_ in triples] or [Iri(P)]
    objects = [t_.object for t_ in triples] or [LIT]
    for _ in range(30):
        s = rng.choice(subjects) if rng.random() < 0.5 else None
        p = rng.choice(predicates) if rng.random() < 0.5 else None
        o = rng.choice(objects) if rng.random() < 0.5 else None
        assert sorted(store.match(s, p, o), key=_key) == sorted(scan_match(triples, s, p, o), key=_key)


def _segments_of(store):
    """``store``'s triples as the mediator's stores hold them: a union of one ``from_rows`` segment per
    predicate, each object slot a 1-tuple. A subject's k-th object of one predicate, k > 0, moves
    to the subject ``<subject>/k``."""
    rows = {}  # predicate -> row subject -> object
    for s, p, o in store:
        cells, k = rows.setdefault(p, {}), 0
        while (Iri(f"{s.value}/{k}") if k else s) in cells:
            k += 1
        cells[Iri(f"{s.value}/{k}") if k else s] = o
    return TripleStore.union([TripleStore.from_rows([p], [(s, [o]) for s, o in cells.items()])
                              for p, cells in rows.items()])


def _position(rng, terms_of, position):
    """A pattern position: free, a binding slot (mostly the one its triple fills) or a constant."""
    roll = rng.random()
    if roll < 0.4:
        return None
    if roll < 0.8:
        return position if rng.random() < 0.8 else rng.randrange(4)
    return rng.choice(terms_of)[position]


# patterns whose predicate slot holds a binding's object, mostly a literal
_OBJECT_PREDICATES = ([0, 2, None], [None, 3, 2], [None, 3, None])


def _check_reader(rng, store):
    """Each position constant, taken from the bindings or free: the step extends
    each binding, in input order, by the free terms of each of its matches."""
    triples = list(store)
    terms_of = triples or [t(S, P, LIT)]  # an empty store matches nothing
    for case in range(200 + len(_OBJECT_PREDICATES)):
        # each binding holds one triple's terms, so a position read from it often matches
        bindings = [tuple(rng.choice(terms_of)) + (rng.choice(terms_of).object,)
                    for _ in range(rng.randrange(4))]
        pattern = ([_position(rng, terms_of, position) for position in range(3)] if case < 200
                   else _OBJECT_PREDICATES[case - 200])
        free = [i for i, x in enumerate(pattern) if x is None]
        found = store.reader(*pattern)(bindings)
        start = 0
        for binding in bindings:
            terms = [binding[x] if isinstance(x, int) else x for x in pattern]
            expected = [tuple(triple[i] for i in free) for triple in scan_match(triples, *terms)]
            extended, start = found[start:start + len(expected)], start + len(expected)
            assert all(e[:len(binding)] == binding for e in extended), pattern
            assert sorted(str(e[len(binding):]) for e in extended) == sorted(map(str, expected)), pattern
        assert start == len(found), pattern


@pytest.mark.parametrize("seed", range(10))
def test_reader_agrees_with_linear_scan(seed):
    rng = random.Random(900 + seed)
    _check_reader(rng, random_store(rng, 200))


@pytest.mark.parametrize("seed", range(10))
def test_reader_agrees_with_linear_scan_on_segments(seed):
    rng = random.Random(1900 + seed)
    _check_reader(rng, _segments_of(random_store(rng, 200)))


def _check_count(rng, store):
    triples = list(store) or [t(S, P, LIT)]  # an empty store counts 0 for any pattern
    for _ in range(20):
        # one stored triple, and terms of three triples that may not co-occur
        stored = rng.choice(triples)
        mixed = (rng.choice(triples).subject, rng.choice(triples).predicate,
                 rng.choice(triples).object)
        for terms in ((stored.subject, stored.predicate, stored.object), mixed):
            for mask in itertools.product((False, True), repeat=3):
                s, p, o = (term if keep else None for term, keep in zip(terms, mask))
                assert store.count(s, p, o) == len(store.match(s, p, o)), (s, p, o)


@pytest.mark.parametrize("seed", range(20))
def test_count_agrees_with_match(seed):
    rng = random.Random(500 + seed)
    _check_count(rng, random_store(rng, 200))


@pytest.mark.parametrize("seed", range(20))
def test_count_agrees_with_match_on_segments(seed):
    rng = random.Random(1500 + seed)
    _check_count(rng, _segments_of(random_store(rng, 200)))


@pytest.mark.parametrize("seed", range(10))
def test_range_match_agrees_with_linear_scan(seed):
    rng = random.Random(700 + seed)
    store = random_store(rng, 200)
    # equal values in both numeric dtypes, beside random_store's 4.0 and 4
    for i, lexical in enumerate(["2", "2.0", "-1", "-1.0", "7.5"]):
        dtype = Dtype.DECIMAL if "." in lexical else Dtype.INTEGER
        store.insert(t(f"http://example/s{i}", f"http://example/p{i % 5}",
                       TypedLiteral(lexical, dtype)))
    literals = [TypedLiteral(x, Dtype.INTEGER) for x in ("-2", "0", "2", "4", "8")] + [
        TypedLiteral(x, Dtype.DECIMAL) for x in ("-1.0", "1.5", "2.0", "4.0", "9.5")]
    incomparable = 0
    for reading in (store, _segments_of(store)):
        triples = list(reading)
        for p, op, literal in itertools.product(sorted({t_.predicate for t_ in triples}, key=str),
                                                ["<", "<=", "=", ">=", ">"], literals):
            verdicts = [(s, o, compare_terms(op, o, literal)) for s, _, o in scan_match(triples, None, p, None)]
            matches, count = reading.in_range(p, op, literal)
            # the pairs whose comparison holds, and the number of comparisons that are incomparable
            assert sorted(matches, key=_pair_key) == sorted([(s, o) for s, o, v in verdicts if v], key=_pair_key)
            assert count == sum(v is None for _, _, v in verdicts), (p, op, literal)
            incomparable += count
        assert reading.in_range(Iri("http://example/absent"), "<", literals[0]) == ([], 0)
    assert incomparable > 0


def _pair_key(pair):
    return (pair[0].value, format_term(pair[1]))


def test_range_read_needs_an_order_or_equality_and_a_numeric_literal():
    store = TripleStore()
    store.insert(t(S, P, LIT))
    for op, literal in [("!=", LIT), ("<>", LIT), ("<", TypedLiteral("7", Dtype.STRING)),
                        ("=", TypedLiteral("true", Dtype.BOOLEAN))]:
        with pytest.raises(ValueError):
            store.in_range(Iri(P), op, literal)


def test_a_segment_is_ordered_once_for_every_union_reading_it(monkeypatch):
    n = 500
    segment = _table_segment("T", [[TypedLiteral(str(i * 7 % n), Dtype.INTEGER), None]
                                   for i in range(n)])
    predicate, bound = Iri("http://x/T#A"), TypedLiteral(str(n - 10), Dtype.INTEGER)
    assert len(TripleStore.union([segment]).in_range(predicate, ">", bound)[0]) == 9
    calls = []
    value = triple_store._value
    monkeypatch.setattr(triple_store, "_value", lambda term: calls.append(term) or value(term))
    for _ in range(3):
        assert len(TripleStore.union([segment]).in_range(predicate, ">", bound)[0]) == 9
    # the literal and two binary searches per read, no sort
    assert len(calls) <= 3 * (1 + 2 * math.ceil(math.log2(n + 1)))
    # a union refuses a write, so the segment keeps its order
    written = TripleStore.union([segment])
    with pytest.raises(ValueError):
        written.insert(t("http://x/T/row/0", "http://x/T#A", TypedLiteral(str(n), Dtype.INTEGER)))
    assert len(written.in_range(predicate, ">", bound)[0]) == 9
    assert len(TripleStore.union([segment]).in_range(predicate, ">", bound)[0]) == 9
    # an open store drops its order on a write
    store = TripleStore()
    for triple in segment:
        store.insert(triple)
    assert len(store.in_range(predicate, ">", bound)[0]) == 9
    store.insert(t("http://x/T/row/0", "http://x/T#A", TypedLiteral(str(n), Dtype.INTEGER)))
    assert len(store.in_range(predicate, ">", bound)[0]) == 10


@pytest.mark.parametrize("seed", range(10))
def test_predicate_sizes_follow_inserts_loads_and_unions(seed):
    rng = random.Random(800 + seed)
    values = [None, LIT, TypedLiteral("8", Dtype.INTEGER), TypedLiteral("a", Dtype.STRING)]

    def check(stores):
        for store in stores:
            triples = list(store)
            for predicate in {triple.predicate for triple in triples} | {Iri("http://x/T#A")}:
                assert store.count(None, predicate, None) == len(
                    scan_match(triples, None, predicate, None)) == len(
                    store.match(None, predicate, None)), predicate

    # an open store per table, inserted from a table's rows; writes go to open stores
    # and loads make new segments, and only then are they unioned
    opened = {table: TripleStore() for table in "TUVW"}
    for table, store in opened.items():
        for triple in _table_segment(table, [[rng.choice(values), rng.choice(values)]
                                             for _ in range(rng.randrange(8))]):
            store.insert(triple)
    loaded = {}
    for _ in range(30):
        if rng.random() < 0.7:
            table = rng.choice("TUVW")
            opened[table].insert(t(f"http://x/{table}/row/{rng.randrange(10)}",
                                   f"http://x/{table}#{rng.choice('AB')}", rng.choice(values[1:])))
        else:
            table = f"X{rng.randrange(1000)}"
            loaded[table] = TripleStore.from_rows([Iri(f"http://x/{table}#A")],
                                                  [(Iri(f"http://x/{table}/row/0"), [rng.choice(values)])])
        check([*opened.values(), *loaded.values()])
    unions = [TripleStore.union([opened["T"], opened["U"]])]
    unions.append(TripleStore.union([unions[-1], opened["W"]]))
    unions.append(TripleStore.union([opened["V"], *loaded.values()]))
    check([*opened.values(), *loaded.values(), *unions])
    with pytest.raises(ValueError):  # a union seals the open stores it reads
        opened["T"].insert(t("http://x/T/row/0", "http://x/T#A", LIT))


def test_export_line_format():
    store = TripleStore()
    store.insert(t("http://integratedDB/STUDENT/row/0",
                   "http://integratedDB/STUDENT#ID", LIT))
    assert export_ntriples(store) == (
        "<http://integratedDB/STUDENT/row/0> <http://integratedDB/STUDENT#ID> "
        '"7"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
    )


def test_empty_store_exports_empty_text():
    assert export_ntriples(TripleStore()) == ""
    assert len(import_ntriples("")) == 0


def test_string_escaping_roundtrip():
    tricky = TypedLiteral('a"b\\c\nd\re', Dtype.STRING)
    store = TripleStore()
    store.insert(t(S, P, tricky))
    text = export_ntriples(store)
    assert "\n" not in text.rstrip("\n")
    assert import_ntriples(text) == store


def test_export_orders_by_key_and_escapes_each_literal():
    texts = ['say "hi"', "back\\slash", "two\nlines", "cr\rhere", "raw\ttab",
             "Ren\u00e9 \u6f22\u5b57 \U0001F600"]
    store = TripleStore()
    for subject in ("http://x/a/b", "http://x/a"):
        for text in texts:
            store.insert(t(subject, P, TypedLiteral(text, Dtype.STRING)))
        store.insert(t(subject, P + "/q", Iri("http://x/a")))
        store.insert(t(subject, P + "/q", TypedLiteral("-3", Dtype.INTEGER)))

    lines = export_by_hand(store)
    assert sorted(lines) != lines
    text = export_ntriples(store)
    assert text == "".join(lines)
    assert "\t" in text and "\u6f22" in text  # tabs and non-ASCII text stay raw
    assert import_ntriples(text) == store


def render_by_hand(term):
    """The term in N-Triples syntax, escaped here by hand."""
    if isinstance(term, Iri):
        return f"<{term.value}>"
    text = term.lexical
    for char, escaped in (("\\", "\\\\"), ('"', '\\"'), ("\n", "\\n"), ("\r", "\\r")):
        text = text.replace(char, escaped)
    return f'"{text}"^^<http://www.w3.org/2001/XMLSchema#{term.dtype.value}>'


def export_by_hand(store):
    """The export's lines, in the documented order: by (subject IRI, predicate
    IRI, object text), not by whole line."""
    keys = sorted((s.value, p.value, render_by_hand(o)) for s, p, o in store.match(None, None, None))
    return [f"<{s}> <{p}> {o} .\n" for s, p, o in keys]


# characters that need an escape, a tab, other control characters, digits and
# signs that numeric dtypes read, and non-ASCII text up to a lone surrogate
_WEIGHTED = '\\"\n\r\t\x00\x1b\x7f\x85\u2028-+.0159\u00e9\u6f22\U0001F600\ud800'


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.none(), st.sampled_from(["true", " FALSE "]),
                          st.text(st.one_of(st.sampled_from(_WEIGHTED), st.characters()), max_size=10)),
                min_size=1, max_size=8))
def test_rendering_agrees_with_the_hand_escaper_for_both_slot_shapes(texts):
    # one row per text, one cell per dtype that reads it, None where none does;
    # from_rows keeps 1-tuple slots, insert keeps sets
    predicates = [Iri(f"http://x/T#{dtype.value}") for dtype in Dtype]
    rows = []
    for number, text in enumerate(texts):
        cells = []
        for dtype in Dtype:
            try:
                cells.append(None if text is None else TypedLiteral(canonicalize(text, dtype), dtype))
            except ValueError:  # text the dtype does not read
                cells.append(None)
        rows.append((Iri(f"http://x/T/row/{number}"), cells))
    loaded, inserted = TripleStore.from_rows(predicates, rows), TripleStore()
    for subject, cells in rows:
        for predicate, cell in zip(predicates, cells):
            if cell is not None:
                assert format_term(cell) == render_by_hand(cell)
                inserted.insert(Triple(subject, predicate, cell))
    text = export_ntriples(loaded)
    assert text == export_ntriples(inserted) == "".join(export_by_hand(inserted))
    assert import_ntriples(text) == loaded == inserted


def test_iri_objects_roundtrip():
    store = TripleStore()
    store.insert(t(S, P, Iri("http://x/o")))
    assert import_ntriples(export_ntriples(store)) == store


@pytest.mark.parametrize("seed", range(10))
def test_roundtrip_on_random_stores(seed):
    store = random_store(random.Random(seed), 250)
    text = export_ntriples(store)
    again = import_ntriples(text)
    assert again == store
    assert export_ntriples(again) == text


def test_export_order_is_insertion_independent():
    rng = random.Random(3)
    store = random_store(rng, 150)
    triples = list(store)
    for seed in (1, 2):
        shuffled = TripleStore()
        order = triples[:]
        random.Random(seed).shuffle(order)
        for triple in order:
            shuffled.insert(triple)
        assert export_ntriples(shuffled) == export_ntriples(store)


@pytest.mark.parametrize("line", [
    "<http://x/s> <http://x/p> \"7\"^^<http://www.w3.org/2001/XMLSchema#integer>",
    "<http://x/s> <http://x/p> \"7\" .",
    "<http://x/s> <http://x/p> \"7\"^^<http://x/unknown> .",
    "<http://x/s> \"p\" \"7\"^^<http://www.w3.org/2001/XMLSchema#integer> .",
    "<http://x/s> <http://x/p> \"\\q\"^^<http://www.w3.org/2001/XMLSchema#string> .",
    "not a triple",
])
def test_parse_errors(line):
    with pytest.raises(NtParseError) as info:
        import_ntriples(line + "\n")
    assert info.value.line_number == 1


def test_iri_must_be_absolute():
    with pytest.raises(ValueError):
        Iri("relative/path")


def test_literal_must_be_canonical():
    with pytest.raises(ValueError):
        TypedLiteral("007", Dtype.INTEGER)
    with pytest.raises(ValueError):
        TypedLiteral("2.50", Dtype.DECIMAL)
