"""Derivation memos seen through the library.

A long-lived project answers exactly as a freshly opened one over the same
files, whatever changed in between, and a repeated query derives nothing
again: no view, integrated table or triple segment is rebuilt.
"""

import logging
import os
import random
import shlex
import tempfile
from collections import Counter
from pathlib import Path
from xml.sax.saxutils import quoteattr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medquery import dtypes, rdql_engine
from medquery.descriptors import parse_project
from medquery.cli import result_triples
from medquery.dtypes import Dtype
from medquery.errors import MedQueryError, TypeCoercionError
from medquery.extraction import build_triples, materialize_required
from medquery.iris import property_iri, subject_iri
from medquery.mediator import execute_query, open_project
from medquery.triple_store import Iri, Triple, TripleStore, TypedLiteral, export_ntriples
from medquery.wrappers import AccessLog

from conftest import (
    COMBINED_SCHEMA_XML,
    FIG2_SQL,
    SCHEMA_XML,
    SOURCES_XML,
    THREE_STUDENTS,
    TWO_GRADES,
    TWO_STUDENTS,
    write_project,
)
from generators import random_data_files, random_project, random_sql_text

FIG2_ANSWER = [("Bob", "L", "12", "2500")]
JOIN_SQL = ("SELECT STUDENT.FIRSTNAME, GRADE.AVERAGE FROM STUDENT, GRADE "
            "ON STUDENT.ID=GRADE.STUDENTID")


def _rows(result):
    return [tuple(term.lexical for term in row) for row in result.rows]


def _students(paths):
    return paths[0].parent / "students.txt"


def test_same_size_rewrite_with_mtime_restored_is_answered(fig2_paths):
    project = open_project(*fig2_paths)
    assert _rows(execute_query(project, FIG2_SQL)) == FIG2_ANSWER
    path = _students(fig2_paths)
    before = path.stat()
    rewritten = TWO_STUDENTS.replace("Bob", "Bea")
    assert len(rewritten) == len(TWO_STUDENTS)
    path.write_text(rewritten, encoding="utf-8")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert _rows(execute_query(project, FIG2_SQL)) == [("Bea", "L", "12", "2500")]


def test_corrupt_then_fixed_then_corrupt(fig2_paths):
    project = open_project(*fig2_paths)
    assert _rows(execute_query(project, FIG2_SQL)) == FIG2_ANSWER
    path = _students(fig2_paths)
    corrupt = TWO_STUDENTS.replace("2500", "25x0")
    outcomes = []
    for content in (corrupt, TWO_STUDENTS, corrupt):
        path.write_text(content, encoding="utf-8")
        try:
            outcomes.append(_rows(execute_query(project, FIG2_SQL)))
        except TypeCoercionError as exc:
            outcomes.append((exc.row, exc.field))
    assert outcomes == [(2, "DEBT"), FIG2_ANSWER, (2, "DEBT")]


XML_SOURCES = """<datasources>
  <datasource name="web" kind="xml" location="students.xml">
    <table name="STUDENT">
      <field name="ID" type="integer"/>
      <xmlbinding record="student" transform={command}><map field="ID" element="id"/></xmlbinding>
    </table>
  </datasource>
</datasources>
"""
XML_SCHEMA = """<schema name="s">
  <table name="STUDENT">
    <field name="ID" type="integer" source="web" sourcetable="STUDENT" sourcefield="ID"/>
  </table>
</schema>
"""


def test_changed_transform_output_is_answered(tmp_path):
    # the transform ignores its input: the stored document never changes
    out = tmp_path / "out.xml"
    command = quoteattr(f"cat {shlex.quote(str(out))}")
    paths = write_project(tmp_path, XML_SOURCES.format(command=command), XML_SCHEMA,
                          {"students.xml": "<students/>"})
    project = open_project(*paths)
    answers = []
    for ident in ("1", "2", "2"):
        out.write_text(f"<s><student><id>{ident}</id></student></s>", encoding="utf-8")
        answers.append(_rows(execute_query(project, "SELECT STUDENT.ID FROM STUDENT")))
    assert answers == [[("1",)], [("2",)], [("2",)]]


def test_reparsed_project_sees_a_changed_dtype(fig2_paths):
    old = open_project(*fig2_paths)
    query = "SELECT STUDENT.DEBT FROM STUDENT WHERE STUDENT.ID = 1"
    assert execute_query(old, query).rows[0][0] == TypedLiteral("1500", Dtype.INTEGER)
    fig2_paths[1].write_text(SCHEMA_XML.replace(
        '<field name="DEBT" type="integer"', '<field name="DEBT" type="string"'), encoding="utf-8")
    new = open_project(*fig2_paths)
    assert execute_query(new, query).rows[0][0] == TypedLiteral("1500", Dtype.STRING)
    assert execute_query(old, query).rows[0][0] == TypedLiteral("1500", Dtype.INTEGER)


def test_multi_match_warning_is_logged_again_on_a_hit(tmp_path, caplog):
    paths = write_project(tmp_path, schema_xml=COMBINED_SCHEMA_XML, files={
        "students.txt": THREE_STUDENTS, "grades.txt": TWO_GRADES + "1|9\n"})
    project = open_project(*paths)
    query = "SELECT STUDENT.FIRSTNAME, STUDENT.AVERAGE FROM STUDENT"
    logged = []
    for _ in range(2):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="medquery.extraction"):
            assert _rows(execute_query(project, query)) == [("Ann", "17"), ("Bob", "12")]
        logged.append([record.getMessage() for record in caplog.records])
    assert logged[0] == [
        "1 master rows match several rows of GRADE.AVERAGE for field AVERAGE; "
        "keeping the first in source order"]
    assert logged[1] == logged[0]


def _entries(project):
    log = AccessLog()
    materialize_required(project, ["STUDENT"], log=log)
    return log.entries


def test_access_log_is_the_same_on_hits_and_misses(combined_paths):
    # the COMBINED integrated STUDENT reads uni.STUDENT, then reg.GRADE
    project = parse_project(*combined_paths)
    both = (("uni", "STUDENT"), ("reg", "GRADE"))
    assert _entries(project) == both  # full miss
    assert _entries(project) == both  # hit
    grades = combined_paths[0].parent / "grades.txt"
    grades.write_text(TWO_GRADES, encoding="utf-8")
    assert _entries(project) == both  # miss at the second read
    students = _students(combined_paths)
    students.write_text("ID|FIRSTNAME|LASTNAME|DEBT\n", encoding="utf-8")
    assert _entries(project) == (("uni", "STUDENT"),)  # no row reaches GRADE
    assert _entries(project) == (("uni", "STUDENT"),)
    students.write_text(THREE_STUDENTS, encoding="utf-8")
    assert _entries(project) == both  # miss at the first read
    fresh = parse_project(*combined_paths)
    assert _entries(fresh) == both
    assert (materialize_required(project, ["STUDENT"]).tables
            == materialize_required(fresh, ["STUDENT"]).tables)


def test_insert_into_a_returned_store_changes_no_later_answer(fig2_paths):
    project = open_project(*fig2_paths)
    store = build_triples(materialize_required(project, ["STUDENT", "GRADE"]))
    before = export_ntriples(store)
    # Ann's DEBT of 1500 keeps her out of the Fig. 2 answer; a second DEBT would not
    ann_debt = Triple(Iri(subject_iri("STUDENT", 0)), Iri(property_iri("STUDENT", "DEBT")),
                      TypedLiteral("9999", Dtype.INTEGER))
    with pytest.raises(ValueError):  # the returned union is sealed
        store.insert(ann_debt)
    assert ann_debt not in set(store.match(None, None, None))
    assert export_ntriples(store) == before
    assert export_ntriples(build_triples(materialize_required(project, ["STUDENT", "GRADE"]))) == before
    assert _rows(execute_query(project, FIG2_SQL)) == FIG2_ANSWER


def test_insert_into_a_returned_store_changes_no_later_ranged_answer(fig2_paths):
    project = open_project(*fig2_paths)
    debt = Iri(property_iri("STUDENT", "DEBT"))
    query = rdql_engine.parse_rdql(f"SELECT ?r WHERE (?r {debt} ?d) AND ?d > 2000")
    store = build_triples(materialize_required(project, ["STUDENT"]))
    before = rdql_engine.evaluate(query, store).rows  # orders the segment's DEBT objects
    ann = Iri(subject_iri("STUDENT", 0))
    assert before and (ann,) not in before
    with pytest.raises(ValueError):
        store.insert(Triple(ann, debt, TypedLiteral("9999", Dtype.INTEGER)))
    assert rdql_engine.evaluate(query, store).rows == before
    again = build_triples(materialize_required(project, ["STUDENT"]))
    assert rdql_engine.evaluate(query, again).rows == before


def test_every_store_the_mediator_shares_refuses_writes(fig2_paths):
    project = open_project(*fig2_paths)
    answer = execute_query(project, JOIN_SQL)
    data = materialize_required(project, ["STUDENT", "GRADE"])

    def unmade():
        raise AssertionError("the segment is not memoized")

    segments = [project.derive(("triples", name), (table,), unmade) for name, table in data.tables.items()]
    stores = [build_triples(data), *segments, result_triples(answer)]
    exports = [export_ntriples(store) for store in stores]
    for store in stores:
        subject, predicate, obj = next(iter(store))
        for new in (obj, TypedLiteral("9999", Dtype.INTEGER)):  # a present triple and a new one
            with pytest.raises(ValueError):
                store.insert(Triple(subject, predicate, new))
    assert [export_ntriples(store) for store in stores] == exports
    assert execute_query(project, JOIN_SQL) == answer
    assert _rows(execute_query(project, FIG2_SQL)) == FIG2_ANSWER
    assert export_ntriples(build_triples(materialize_required(project, ["STUDENT", "GRADE"]))) == exports[0]


@pytest.fixture
def derivations(monkeypatch):
    """Counts of ``TripleStore.from_rows`` and ``dtypes.canonicalize`` calls from here on."""
    calls = Counter()
    from_rows, canonicalize = TripleStore.from_rows.__func__, dtypes.canonicalize

    def counting_from_rows(cls, *args):
        calls["from_rows"] += 1
        return from_rows(cls, *args)

    def counting_canonicalize(*args):
        calls["canonicalize"] += 1
        return canonicalize(*args)

    monkeypatch.setattr(TripleStore, "from_rows", classmethod(counting_from_rows))
    monkeypatch.setattr(dtypes, "canonicalize", counting_canonicalize)
    return calls


def test_a_repeated_query_derives_nothing_again(fig2_paths, derivations):
    project = open_project(*fig2_paths)
    first = execute_query(project, JOIN_SQL)
    assert derivations["from_rows"] == 2
    assert derivations["canonicalize"] > 0
    derivations.clear()
    assert execute_query(project, JOIN_SQL) == first
    assert derivations == Counter()


def test_same_values_in_other_bytes_load_no_triples_again(fig2_paths, derivations):
    project = open_project(*fig2_paths)
    first = execute_query(project, FIG2_SQL)
    path = _students(fig2_paths)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    derivations.clear()
    assert execute_query(project, FIG2_SQL) == first
    assert derivations["canonicalize"] > 0  # the new bytes are parsed
    assert derivations["from_rows"] == 0


@pytest.mark.parametrize("student_source, grade_source",
                         [("integrated", "triples"), ("triples", "integrated"),
                          ("source", "triples")])
def test_source_names_cannot_share_a_memo_slot(tmp_path, derivations,
                                               student_source, grade_source):
    # each source table is named like the integrated table built from it
    def rename(xml):
        return xml.replace('"uni"', f'"{student_source}"').replace('"reg"', f'"{grade_source}"')

    paths = write_project(tmp_path, rename(SOURCES_XML), rename(SCHEMA_XML))
    project = open_project(*paths)

    def outcomes(p):
        return [execute_query(p, JOIN_SQL)] + [
            export_ntriples(build_triples(materialize_required(p, [table])))
            for table in ("STUDENT", "GRADE")]

    first = outcomes(project)
    assert _rows(first[0]) == [("Ann", "17"), ("Bob", "12")]
    derivations.clear()
    assert outcomes(project) == first
    assert derivations == Counter()
    assert outcomes(open_project(*paths)) == first


# --- differential: one long-lived project against fresh ones ------------------

_STEP = st.tuples(st.sampled_from(("query", "extract", "rewrite", "corrupt", "respell")),
                  st.integers(0, 2**32 - 1))


def _outcome(run, project):
    try:
        return run(project)
    except MedQueryError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), steps=st.lists(_STEP, min_size=1, max_size=10))
def test_long_lived_project_answers_like_a_fresh_one(seed, steps):
    with tempfile.TemporaryDirectory() as directory:
        generated = random_project(random.Random(seed), Path(directory))
        paths = (generated.sources_path, generated.schema_path)
        project = open_project(*paths)
        for kind, step_seed in steps:
            rng = random.Random(step_seed)
            if kind in ("rewrite", "corrupt", "respell"):
                path, text = rng.choice(sorted(random_data_files(rng, project).items()))
                if kind == "respell":  # the same values in other bytes: toggle CRLF
                    data = path.read_bytes()
                    crlf = b"\r\n" in data
                    path.write_bytes(data.replace(b"\r\n", b"\n") if crlf
                                     else data.replace(b"\n", b"\r\n"))
                else:  # a one-cell row, or text after the XML root element
                    path.write_text(text + "x\n" if kind == "corrupt" else text, encoding="utf-8")
                kind = rng.choice(("query", "extract"))
            if kind == "query":
                text = random_sql_text(rng, project)

                def run(p):
                    return execute_query(p, text)
            else:
                table = rng.choice(project.schema.tables).name

                def run(p):
                    return export_ntriples(build_triples(materialize_required(p, [table])))
            assert _outcome(run, project) == _outcome(run, open_project(*paths))
