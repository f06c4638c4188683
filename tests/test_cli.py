"""The CLI's exit-code contract (0 ok, 1 domain error, 2 descriptor or file error)."""

import io
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import pytest

import medquery
from medquery.cli import main, render_dot
from medquery.descriptors import (EqualityRelation, FieldRef, IntegratedFieldDef, IntegratedSchema,
                                   IntegratedTableDef, parse_project, parse_schema_xml)
from medquery.dtypes import Dtype
from medquery.extraction import build_triples, materialize_required
from medquery.errors import MedQueryError
from medquery.iris import property_iri, subject_iri
from medquery.mediator import execute_query, open_project
from medquery.rdql_engine import parse_rdql
from medquery.sql_frontend import parse_sql
from medquery.sql_to_rdql import convert
from medquery.triple_store import import_ntriples

from conftest import (FIG2_RDQL, FIG2_ROW_ANSWER, FIG2_ROW_RDQL, FIG2_SQL, FIG2_STUDENT_NTRIPLES, SCHEMA_XML,
                      SOURCES_XML, write_project)
from generators import random_project, random_sql_text


def _run(capsys, command, paths, *extra):
    sources, schema = paths
    code = main([command, "--sources", str(sources), "--schema", str(schema), *extra])
    return code, capsys.readouterr().out


def test_query_exits_0_with_the_answer(fig2_paths, capsys):
    code, out = _run(capsys, "query", fig2_paths, "--query", FIG2_SQL)
    assert code == 0
    assert out == "FIRSTNAME|LASTNAME|AVERAGE|DEBT\nBob|L|12|2500\n"


def test_convert_prints_the_fig2_rdql(fig2_paths, capsys):
    assert _run(capsys, "convert", fig2_paths, "--query", FIG2_SQL) == (0, FIG2_RDQL)


def test_a_variable_predicate_query_prints_a_whole_row(fig2_paths, capsys):
    assert _run(capsys, "query", fig2_paths, "--lang", "rdql", "--query", FIG2_ROW_RDQL) == (0, FIG2_ROW_ANSWER)


def test_show_schema_as_xml_reparses_to_the_same_schema(fig2_paths, capsys):
    code, out = _run(capsys, "show-schema", fig2_paths, "--format", "xml")
    assert code == 0
    assert parse_schema_xml(out.encode("utf-8")) == parse_project(*fig2_paths).schema


FIG2_DOT = r"""graph integrated_schema {
  node [shape=record];
  "STUDENT" [label="{STUDENT|ID : integer\lFIRSTNAME : string\lLASTNAME : string\lDEBT : integer\l}"];
  "GRADE" [label="{GRADE|STUDENTID : integer\lAVERAGE : integer\l}"];
  "STUDENT" -- "GRADE" [label="="];
}
"""


def test_show_schema_as_dot_draws_fig2(fig2_paths, capsys):
    assert _run(capsys, "show-schema", fig2_paths, "--format", "dot") == (0, FIG2_DOT)


def test_dot_rendering_visits_each_field_a_bounded_number_of_times():
    # 2,000 one-field tables over a 1,999-link equality chain: each relation
    # side once scanned every table's fields, a quadratic walk
    count = 2000
    visits = []

    class Fields(tuple):
        def __iter__(self):
            visits.append(len(self))
            if sum(visits) > 2 * count:  # fail before the quadratic walk runs its course
                raise AssertionError(f"field visits exceed {2 * count}")
            return super().__iter__()

    refs = [FieldRef("s", f"T{i}", "K") for i in range(count)]
    tables = tuple(IntegratedTableDef(f"I{i}", Fields([IntegratedFieldDef("K", Dtype.INTEGER, ref)]))
                   for i, ref in enumerate(refs))
    relations = tuple(EqualityRelation((refs[i],), (refs[i + 1],)) for i in range(count - 1))
    dot = render_dot(IntegratedSchema("g", tables, relations))
    assert dot.count(" -- ") == count - 1
    assert '  "I0" -- "I1" [label="="];\n' in dot and f'"I{count - 2}" -- "I{count - 1}"' in dot


def test_dot_draws_each_side_of_a_relation_in_schema_order():
    refs = [FieldRef("s", f"T{i}", "K") for i in range(3)]
    tables = tuple(IntegratedTableDef(f"I{i}", (IntegratedFieldDef("K", Dtype.INTEGER, ref),))
                   for i, ref in enumerate(refs))
    dot = render_dot(IntegratedSchema("g", tables, (EqualityRelation((refs[2], refs[0]), (refs[1],)),)))
    assert dot.endswith('  "I0" -- "I1" [label="="];\n  "I2" -- "I1" [label="="];\n}\n')


@pytest.mark.parametrize("query, out, note", [
    ("SELECT STUDENT.FIRSTNAME FROM STUDENT WHERE STUDENT.FIRSTNAME > 3",
     "FIRSTNAME\n", "# incomparable comparisons: 2"),  # one per student
    (FIG2_SQL, "FIRSTNAME|LASTNAME|AVERAGE|DEBT\nBob|L|12|2500\n", None),
], ids=["string-against-number", "clean"])
def test_query_reports_incomparable_comparisons(fig2_paths, capsys, monkeypatch, query, out, note):
    monkeypatch.delenv("MEDQUERY_LOG", raising=False)
    sources, schema = fig2_paths
    code = main(["query", "--sources", str(sources), "--schema", str(schema), "--query", query])
    captured = capsys.readouterr()
    assert (code, captured.out) == (0, out)
    notes = [line for line in captured.err.splitlines() if "incomparable" in line]
    assert notes == ([note] if note else [])


def test_unknown_field_exits_1(fig2_paths, capsys):
    code, out = _run(capsys, "query", fig2_paths, "--query", "SELECT STUDENT.NOPE FROM STUDENT")
    assert (code, out) == (1, "")


@pytest.mark.parametrize("command, extra", [
    ("query", ("--query", "SELECT STUDENT.ID FROM STUDENT")),
    ("extract", ("--table", "STUDENT")),
])
def test_unsatisfiable_schema_exits_1(tmp_path, capsys, command, extra):
    schema = SCHEMA_XML.replace('field="STUDENTID"/></rhs>', 'field="NOPE"/></rhs>')
    assert schema != SCHEMA_XML
    code, out = _run(capsys, command, write_project(tmp_path, schema_xml=schema), *extra)
    assert (code, out) == (1, "")


def test_malformed_descriptor_exits_2(tmp_path, capsys):
    paths = write_project(tmp_path, sources_xml=SOURCES_XML.replace("</datasources>", ""))
    assert _run(capsys, "validate", paths) == (2, "")


XML_SOURCES = """<datasources>
  <datasource name="web" kind="xml" location="feed.xml">
    <table name="STUDENT">
      <field name="ID" type="integer"/>
      <xmlbinding record="student"><map field="ID" element="id"/></xmlbinding>
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


@pytest.mark.parametrize("old, new", [
    ('element="id"', 'element="["'),
    ('record="student"', 'record="student" transform="\'"'),
    ('record="student"', 'record="student" transform=""'),
], ids=["element-path", "transform-unclosed-quote", "transform-empty"])
def test_unusable_xml_binding_exits_2(tmp_path, capsys, old, new):
    paths = write_project(tmp_path, XML_SOURCES, XML_SCHEMA, files={})
    assert _run(capsys, "validate", paths) == (0, "0 errors, 0 warnings\n")
    paths[0].write_text(XML_SOURCES.replace(old, new), encoding="utf-8")
    code = main(["validate", "--sources", str(paths[0]), "--schema", str(paths[1])])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("medquery: descriptor error: ")


def test_missing_file_exits_2(fig2_paths, capsys):
    sources, _ = fig2_paths
    assert _run(capsys, "query", (sources, sources.parent / "absent.xml"),
                "--query", FIG2_SQL) == (2, "")


def test_extract_roundtrips_through_import(fig2_paths, capsys):
    code, out = _run(capsys, "extract", fig2_paths, "--table", "STUDENT")
    assert (code, out) == (0, FIG2_STUDENT_NTRIPLES)
    expected = build_triples(materialize_required(parse_project(*fig2_paths), ["STUDENT"]))
    assert len(expected) == 8
    assert import_ntriples(out) == expected


@pytest.mark.parametrize("name, content, code", [
    ("students.txt", b"ID|FIRSTNAME|LASTNAME|DEBT\n1|Ren\xe9|K|1500\n", 1),
    ("query.sql", b"SELECT STUDENT.ID FROM STUDENT WHERE STUDENT.FIRSTNAME = 'Ren\xe9'", 2),
], ids=["data-file", "query-file"])
def test_undecodable_input_file_is_classified(fig2_paths, capsys, name, content, code):
    sources, _ = fig2_paths
    query_file = sources.parent / "query.sql"
    query_file.write_text(FIG2_SQL, encoding="utf-8")
    (sources.parent / name).write_bytes(content)
    assert _run(capsys, "query", fig2_paths, "--query-file", str(query_file)) == (code, "")


@pytest.mark.parametrize("lang, query, students", [
    ("sql", "SELECT STUDENT.ID FROM STUDENT WHERE STUDENT.DEBT>\u00b2", None),
    ("rdql", "SELECT ?x WHERE (?r <http://integratedDB/STUDENT#DEBT> ?x) AND ?x > 1.\u0665",
     None),
    ("sql", "SELECT STUDENT.ID FROM STUDENT",
     "ID|FIRSTNAME|LASTNAME|DEBT\n1|Ann|K|1\u0662\n"),
], ids=["sql-superscript", "rdql-arabic-indic", "data-arabic-indic"])
def test_non_ascii_digits_are_not_numbers(fig2_paths, capsys, lang, query, students):
    if students is not None:
        fig2_paths[0].with_name("students.txt").write_text(students, encoding="utf-8")
    assert _run(capsys, "query", fig2_paths, "--lang", lang, "--query", query) == (1, "")


@pytest.mark.parametrize("select", ["?D, ?D", "?D, ?N, ?D"])
def test_ntriples_result_has_one_triple_per_row_and_column(fig2_paths, capsys, select):
    query = (f"SELECT {select} WHERE (?r <http://integratedDB/STUDENT#DEBT> ?D), "
             "(?r <http://integratedDB/STUDENT#FIRSTNAME> ?N)")
    code, out = _run(capsys, "query", fig2_paths, "--lang", "rdql", "--query", query,
                     "--out", "ntriples")
    xsd = "http://www.w3.org/2001/XMLSchema#"
    cells = {"D": [f'"1500"^^<{xsd}integer>', f'"2500"^^<{xsd}integer>'],
             "N": [f'"Ann"^^<{xsd}string>', f'"Bob"^^<{xsd}string>']}
    columns = sorted(set(select.replace("?", "").split(", ")))
    assert code == 0
    assert out == "".join(
        f"<{subject_iri('result', row)}> <{property_iri('result', column)}> {cells[column][row]} .\n"
        for row in range(2) for column in columns
    )


LONG_DEBT = "2" + "0" * 4999  # more digits than int() accepts from a string
LONG_BOUND = "1" * 5000


@pytest.mark.parametrize("lang, query", [
    ("sql", f"SELECT STUDENT.FIRSTNAME, STUDENT.DEBT FROM STUDENT WHERE STUDENT.DEBT>{LONG_BOUND}"),
    ("rdql", "SELECT ?FIRSTNAME, ?DEBT WHERE (?r <http://integratedDB/STUDENT#FIRSTNAME> "
             f"?FIRSTNAME), (?r <http://integratedDB/STUDENT#DEBT> ?DEBT) AND ?DEBT > {LONG_BOUND}"),
], ids=["sql", "rdql"])
def test_integers_have_no_digit_limit(fig2_paths, capsys, lang, query):
    students = f"ID|FIRSTNAME|LASTNAME|DEBT\n1|Ann|K|{LONG_BOUND[:-1]}\n2|Bob|L|+00{LONG_DEBT}\n"
    fig2_paths[0].with_name("students.txt").write_text(students, encoding="utf-8")
    code, out = _run(capsys, "query", fig2_paths, "--lang", lang, "--query", query)
    assert (code, out) == (0, f"FIRSTNAME|DEBT\nBob|{LONG_DEBT}\n")


@pytest.mark.parametrize("declared, code", [("UTF-8", 2), ("ISO-8859-1", 0)])
def test_descriptor_bytes_decode_as_declared(fig2_paths, capsys, declared, code):
    sources, _ = fig2_paths
    text = SOURCES_XML.replace('encoding="UTF-8"', f'encoding="{declared}"')
    sources.write_bytes(text.replace("<datasources>", "<datasources><!-- Ren\xe9 -->")
                        .encode("latin-1"))
    assert _run(capsys, "validate", fig2_paths)[0] == code


# encodings the XML parser cannot use: unknown, not a text codec, multi-byte
# outside expat's own, and one whose decoder refuses the parser's error handler
UNUSABLE_ENCODINGS = ["UTF-80", "rot13", "utf-7", "idna"]


@pytest.mark.parametrize("declared", UNUSABLE_ENCODINGS)
def test_descriptor_in_an_unusable_encoding_is_a_descriptor_error(fig2_paths, capsys, declared):
    sources, _ = fig2_paths
    sources.write_text(SOURCES_XML.replace('encoding="UTF-8"', f'encoding="{declared}"'),
                       encoding="ascii")
    code = main(["validate", "--sources", str(sources), "--schema", str(fig2_paths[1])])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("medquery: descriptor error: cannot decode the declared encoding: ")


@pytest.mark.parametrize("declared", UNUSABLE_ENCODINGS)
def test_xml_source_in_an_unusable_encoding_is_an_io_error(tmp_path, capsys, declared):
    feed = f'<?xml version="1.0" encoding="{declared}"?><students><student><id>1</id></student></students>'
    paths = write_project(tmp_path, XML_SOURCES, XML_SCHEMA, files={"feed.xml": feed})
    code = main(["extract", "--sources", str(paths[0]), "--schema", str(paths[1]), "--table", "STUDENT"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("medquery: '")
    assert ": cannot decode the declared encoding: " in captured.err


JOIN_SQL = ("SELECT STUDENT.FIRSTNAME, GRADE.AVERAGE FROM STUDENT, GRADE "
            "ON STUDENT.ID=GRADE.STUDENTID")
XML_QUERY = "SELECT STUDENT.FIRSTNAME FROM STUDENT"


def test_output_formats_carry_the_same_cells(fig2_paths, capsys):
    code, table = _run(capsys, "query", fig2_paths, "--query", JOIN_SQL)
    assert code == 0
    header, *rows = table.splitlines()
    expected = {
        (index, column): value
        for index, row in enumerate(rows)
        for column, value in zip(header.split("|"), row.split("|"))
    }
    assert len(expected) == 4

    code, xml = _run(capsys, "query", fig2_paths, "--query", JOIN_SQL, "--out", "xml")
    assert code == 0
    from_xml = {
        (index, col.get("name")): col.text
        for index, row in enumerate(ET.fromstring(xml).iter("row"))
        for col in row.iter("col")
    }
    assert from_xml == expected

    code, nt = _run(capsys, "query", fig2_paths, "--query", JOIN_SQL, "--out", "ntriples")
    assert code == 0
    cells = {
        (t.subject.value, t.predicate.value): t.object.lexical for t in import_ntriples(nt)
    }
    assert cells == {
        (subject_iri("result", index), property_iri("result", column)): value
        for (index, column), value in expected.items()
    }


@pytest.mark.parametrize("literal", ["a\rb", "a\r\nb", 'a\r"\\\n', 'a\\"y'])
def test_converted_string_literals_survive_a_query_file(fig2_paths, capsys, tmp_path, literal):
    # a carriage return written raw would read back from a text-mode file as a line feed
    sql = f"SELECT STUDENT.FIRSTNAME FROM STUDENT WHERE STUDENT.LASTNAME < '{literal}'"
    code, rdql = _run(capsys, "convert", fig2_paths, "--query", sql)
    assert code == 0
    path = tmp_path / "query.rdql"
    path.write_text(rdql, encoding="utf-8")
    schema = parse_project(*fig2_paths).schema
    with open(path, encoding="utf-8") as handle:
        assert parse_rdql(handle.read()).filters == convert(parse_sql(sql, schema), schema)[1].filters
    answer = _run(capsys, "query", fig2_paths, "--query", sql)
    assert answer == (0, "FIRSTNAME\nAnn\nBob\n")
    assert _run(capsys, "query", fig2_paths, "--lang", "rdql", "--query-file", str(path)) == answer


# every C0 control, U+FFFE and U+FFFF (XML 1.0 holds only tab, line feed and
# carriage return of them), markup characters and text
_XML_TEST_CHARS = [chr(c) for c in range(0x20)] + ["￾", "￿", "<", "&", "é", "a"]
XML_STUDENT_SOURCES = """<datasources>
  <datasource name="web" kind="xml" location="feed.xml">
    <table name="STUDENT">
      <field name="FIRSTNAME" type="string"/>
      <xmlbinding record="student"><map field="FIRSTNAME" element="name"/></xmlbinding>
    </table>
  </datasource>
</datasources>
"""
XML_STUDENT_SCHEMA = """<schema name="s">
  <table name="STUDENT">
    <field name="FIRSTNAME" type="string" source="web" sourcetable="STUDENT" sourcefield="FIRSTNAME"/>
  </table>
</schema>
"""


def _xml_forbids(text):
    return any(c in "￾￿" or (c < " " and c not in "\t\n\r") for c in text)


def test_xml_output_reads_back_each_value_or_exits_1(tmp_path, capsys):
    outcomes = Counter()
    for seed in range(120):
        rng = random.Random(seed)
        value = "x" + "".join(rng.choice(_XML_TEST_CHARS) for _ in range(rng.randint(1, 4))) + "x"
        directory = tmp_path / str(seed)
        directory.mkdir()
        if "\r" in value or "\n" in value:  # a line break: an XML source, which holds no forbidden character
            value = "".join(c for c in value if not _xml_forbids(c))
            feed = "".join(f"&#{ord(c)};" for c in value)
            paths = write_project(directory, XML_STUDENT_SOURCES, XML_STUDENT_SCHEMA,
                                  {"feed.xml": f"<s><student><name>{feed}</name></student></s>"})
        else:  # a pipe file, whose cells may hold any other character
            paths = write_project(directory, files={"students.txt": f"ID|FIRSTNAME|LASTNAME|DEBT\n1|{value}|K|1\n",
                                                    "grades.txt": ""})
        assert [row[0].lexical for row in execute_query(open_project(*paths), XML_QUERY).rows] == [value]
        code = main(["query", "--sources", str(paths[0]), "--schema", str(paths[1]),
                     "--query", XML_QUERY, "--out", "xml"])
        out, err = capsys.readouterr()
        if _xml_forbids(value):
            assert (code, out) == (1, ""), repr(value)
            assert "row 1, column FIRSTNAME" in err, repr(value)
        else:
            assert code == 0, repr(value)
            assert [col.text for col in ET.fromstring(out).iter("col")] == [value], repr(value)
        outcomes[code, "\r" in value] += 1
    assert len(outcomes) == 3, outcomes  # refused, read back with a carriage return, and without


TWO_FIELD_SOURCES = """<datasources>
  <datasource name="web" kind="xml" location="feed.xml">
    <table name="STUDENT">
      <field name="FIRSTNAME" type="string"/>
      <field name="LASTNAME" type="string"/>
      <xmlbinding record="student">
        <map field="FIRSTNAME" element="first"/><map field="LASTNAME" element="last"/>
      </xmlbinding>
    </table>
  </datasource>
</datasources>
"""
TWO_FIELD_SCHEMA = """<schema name="s">
  <table name="STUDENT">
    <field name="FIRSTNAME" type="string" source="web" sourcetable="STUDENT" sourcefield="FIRSTNAME"/>
    <field name="LASTNAME" type="string" source="web" sourcetable="STUDENT" sourcefield="LASTNAME"/>
  </table>
</schema>
"""
_TABLE_UNESCAPES = {"\\": "\\", "|": "|", "n": "\n", "r": "\r"}


def _table_cells(line):
    """A table line's cells: split at each unescaped ``|``, each escape undone."""
    cells, cell, chars = [], [], iter(line)
    for char in chars:
        if char == "\\":
            cell.append(_TABLE_UNESCAPES[next(chars)])
        elif char == "|":
            cells.append("".join(cell))
            cell = []
        else:
            cell.append(char)
    return cells + ["".join(cell)]


def test_table_output_escapes_separators_and_line_breaks(tmp_path, capsys):
    values = [("a|b", "x\ny"), ("back\\slash", "c\rr"), ("e\\|f", "g\\nh"), ("i\\", "|j|"), ("plain", "k")]
    feed = "".join(f"<student><first>{first}</first><last>{last}</last></student>" for first, last in values)
    paths = write_project(tmp_path, TWO_FIELD_SOURCES, TWO_FIELD_SCHEMA,
                          {"feed.xml": "<s>" + feed.replace("\n", "&#10;").replace("\r", "&#13;") + "</s>"})
    query = ["--query", "SELECT STUDENT.FIRSTNAME, STUDENT.LASTNAME FROM STUDENT"]
    code, table = _run(capsys, "query", paths, *query)
    assert code == 0
    code, xml = _run(capsys, "query", paths, *query, "--out", "xml")
    assert code == 0
    header, *lines = table.split("\n")
    assert header == "FIRSTNAME|LASTNAME" and lines.pop() == ""  # one line per row, each ended by LF
    assert len(lines) == len(values)
    cells = [[col.text for col in row] for row in ET.fromstring(xml)]
    assert [_table_cells(line) for line in lines] == cells
    assert sorted(map(tuple, cells)) == sorted(values)


@pytest.mark.parametrize("command", [
    ["query", "--query", FIG2_SQL],
    ["query", "--query", JOIN_SQL, "--out", "ntriples"],
    ["extract", "--table", "STUDENT"],
    ["extract", "--table", "GRADE"],
], ids=["query", "query-ntriples", "extract-student", "extract-grade"])
def test_output_does_not_depend_on_the_hash_seed(fig2_paths, command):
    # set iteration order follows the hash seed; no output may
    src = Path(medquery.__file__).resolve().parents[1]
    sources, schema = fig2_paths
    outputs = set()
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-m", "medquery.cli", command[0], "--sources", str(sources),
             "--schema", str(schema), *command[1:]],
            env=env, capture_output=True, check=True, timeout=60,
        )
        outputs.add(done.stdout)
    assert len(outputs) == 1 and outputs != {b""}


def _view_paths(tmp_path, view_sql):
    """The Fig. 2 project plus a view RICH over uni.STUDENT declaring ID only."""
    rich = f'<table name="RICH"><field name="ID" type="integer"/><view>{view_sql}</view></table>'
    rich_field = '<field name="ID" type="integer" source="uni" sourcetable="RICH" sourcefield="ID"/>'
    return write_project(
        tmp_path, SOURCES_XML.replace("</table>", "</table>" + rich, 1),
        SCHEMA_XML.replace("</schema>", f'<table name="RICH">{rich_field}</table></schema>'),
    )


RICH_LOCATION = "datasources/datasource[uni]/table[RICH]"


def test_view_shape_error_lists_columns_with_their_dtypes(tmp_path, capsys):
    paths = _view_paths(tmp_path, "SELECT ID, DEBT FROM STUDENT")
    code = main(["query", "--sources", str(paths[0]), "--schema", str(paths[1]),
                 "--query", "SELECT RICH.ID FROM RICH"])
    assert code == 1
    assert capsys.readouterr().err == (
        "medquery: schema is not satisfiable:\n"
        f"  error INVALID_VIEW {RICH_LOCATION}: "
        "view 'RICH' projects [ID integer, DEBT integer] but declares [ID integer]\n"
    )


@pytest.mark.parametrize("view_sql, message", [
    ("SELECT ID, DEBT FROM STUDENT",
     "view 'RICH' projects [ID integer, DEBT integer] but declares [ID integer]"),
    ("SELEC nonsense",
     "view SQL does not parse: at offset 0: expected SELECT"),
    ("SELECT ID FROM GRADE", "view reads table 'GRADE', which 'uni' does not declare"),
    ("SELECT ID FROM STUDENT WHERE NOPE > 1",
     "view reads field 'NOPE', which 'uni.STUDENT' does not declare"),
    ("SELECT ID FROM STUDENT WHERE GRADE.AVERAGE > 1",
     "view reads table 'GRADE', which is not its FROM table 'STUDENT'"),
    ("SELECT ID FROM STUDENT WHERE FIRSTNAME > 3",
     "view filter STUDENT.FIRSTNAME > 3 can never hold: > does not compare string with integer"),
    ("SELECT ID FROM RICH", "view reference cycle through 'uni.RICH'"),
])
def test_validate_rejects_a_view_that_cannot_fetch(tmp_path, capsys, view_sql, message):
    code, out = _run(capsys, "validate", _view_paths(tmp_path, view_sql))
    assert code == 1
    assert out.splitlines()[0] == f"error INVALID_VIEW {RICH_LOCATION}: {message}"
    assert out.splitlines()[-1].startswith("1 errors, ")


# two views that read each other, as in test_wrappers.py: neither can fetch
VIEW_CYCLE_SOURCES_XML = """<datasources>
  <datasource name="uni" kind="tabular" location=".">
    <table name="A">
      <field name="X" type="integer"/>
      <view>SELECT X FROM B</view>
    </table>
    <table name="B">
      <field name="X" type="integer"/>
      <view>SELECT X FROM A</view>
    </table>
  </datasource>
</datasources>"""
VIEW_CYCLE_SCHEMA_XML = """<schema name="s">
  <table name="A">
    <field name="X" type="integer" source="uni" sourcetable="A" sourcefield="X"/>
  </table>
</schema>"""


def test_validate_rejects_a_view_cycle(tmp_path, capsys):
    paths = write_project(tmp_path, VIEW_CYCLE_SOURCES_XML, VIEW_CYCLE_SCHEMA_XML, files={})
    code, out = _run(capsys, "validate", paths)
    assert code == 1
    assert out.splitlines()[:2] == [
        f"error INVALID_VIEW datasources/datasource[uni]/table[{name}]: "
        f"view reference cycle through 'uni.{name}'" for name in "AB"]
    assert out.splitlines()[-1].startswith("2 errors, ")


def test_validate_accepts_a_view_that_fits(tmp_path, capsys):
    code, out = _run(capsys, "validate", _view_paths(tmp_path, "SELECT ID FROM STUDENT WHERE DEBT > 1"))
    assert code == 0
    assert "INVALID_VIEW" not in out


# --- the exit contract under mutated inputs -----------------------------------

# spans spliced into a descriptor or data file: delimiters, markup, a NUL, a
# lone surrogate (written as bytes that are not UTF-8), a number too long for
# int(), a character reference past Unicode, and a document type declaring an entity
MUTATION_SPANS = ["|", "<", "&", "\x00", "\ud800", "9" * 5000, "&#x110000;",
                  '<!DOCTYPE d [<!ENTITY e "x">]>']


# spans spliced into a query text: quotes, variable and IRI marks, punctuation,
# operators, keywords out of place, a NUL, a lone surrogate (what argv decoding
# makes of a byte that is not UTF-8), a long number, and spans that may leave
# the query well formed (white space, a digit, an underscore)
QUERY_SPANS = ["'", '"', "?", "<", ">", "(", ")", ",", ".", "&&", "\\", "#", "\x00", "\udcff",
               "9" * 5000, "1.5e3", " AND ", " WHERE ", " FROM ", "SELECT ", " ON ",
               " ", "\n\t", "0", "_"]


def _spliced(rng, text, spans):
    """``text`` with one to three of ``spans`` inserted at random places."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice(spans) + text[at:]
    return text


def test_mutated_inputs_keep_the_exit_contract(tmp_path, capsys):
    codes = Counter()
    for seed in range(150):
        rng = random.Random(seed)
        generated = random_project(rng, tmp_path / str(seed))
        query = random_sql_text(rng, generated.project)
        table = generated.project.schema.tables[0].name
        victim = rng.choice(sorted((tmp_path / str(seed)).iterdir()))
        text = _spliced(rng, victim.read_text(encoding="utf-8"), MUTATION_SPANS)
        victim.write_bytes(text.encode("utf-8", "surrogatepass"))
        paths = ("--sources", str(generated.sources_path), "--schema", str(generated.schema_path))
        for command in (["validate"], ["extract", "--table", table], ["query", "--query", query]):
            code = main([command[0], *paths, *command[1:]])  # an escaped exception fails the test
            capsys.readouterr()
            assert code in (0, 1, 2), (seed, command)
            codes[code] += 1
    assert min(codes[code] for code in (0, 1, 2)) > 0  # each outcome is reached


def test_an_error_echoing_a_lone_surrogate_exits_1_on_a_strict_stderr(fig2_paths, monkeypatch):
    # a byte that is not UTF-8 reaches --query as a lone surrogate, which a
    # strict stderr cannot encode; the error names it escaped
    written = io.BytesIO()
    monkeypatch.setattr(sys, "stderr", io.TextIOWrapper(written, "utf-8", "strict", write_through=True))
    query = "SELECT ?x WHERE (?x <http://a\udcff> ?y)"
    assert main(["query", "--sources", str(fig2_paths[0]), "--schema", str(fig2_paths[1]),
                 "--query", query, "--lang", "rdql"]) == 1
    assert written.getvalue() == b"medquery: not an integrated property IRI: http://a\\udcff\n"


def test_mutated_queries_keep_the_exit_contract(tmp_path, capsys, monkeypatch):
    # stderr as the interpreter opens it, so an error naming a lone surrogate prints escaped
    monkeypatch.setattr(sys, "stderr", io.TextIOWrapper(io.BytesIO(), "utf-8", "backslashreplace"))
    codes = Counter()
    for seed in range(150):
        rng = random.Random(seed)
        generated = random_project(rng, tmp_path / str(seed))
        schema = generated.project.schema
        sql = random_sql_text(rng, generated.project)
        try:
            rdql, _ = convert(parse_sql(sql, schema), schema)
        except MedQueryError:  # a FROM table that no field names
            rdql = f"SELECT ?x WHERE (?s <{property_iri(schema.tables[0].name, 'KEY')}> ?x)"
        paths = ("--sources", str(generated.sources_path), "--schema", str(generated.schema_path))
        for text in (_spliced(rng, sql, QUERY_SPANS), _spliced(rng, rdql, QUERY_SPANS)):
            for lang in ("sql", "rdql"):
                code = main(["query", *paths, "--query", text, "--lang", lang])  # nothing escapes
                capsys.readouterr()
                assert code in (0, 1, 2), (seed, lang, text)
                codes[code] += 1
    assert codes[0] > 0 and codes[1] > 0, codes


def test_a_field_no_relation_reaches_fails_validate_and_the_query(tmp_path, capsys):
    # GRADE.AVERAGE integrated into STUDENT with no relation between the two tables
    schema = SCHEMA_XML.replace(
        '</table>\n  <table name="GRADE">',
        '<field name="AVERAGE" type="integer" source="reg" sourcetable="GRADE" sourcefield="AVERAGE"/>'
        '</table>\n  <table name="GRADE">', 1)
    schema = schema[:schema.index("  <relation")] + "</schema>\n"
    paths = write_project(tmp_path, schema_xml=schema)
    finding = ("error UNREACHABLE_FIELD schema/table[STUDENT]/field[AVERAGE]: no equality relation "
               "connects reg.GRADE to master table uni.STUDENT")
    code, out = _run(capsys, "validate", paths)
    assert (code, out) == (1, finding + "\n1 errors, 0 warnings\n")
    sources, schema_path = paths
    code = main(["query", "--sources", str(sources), "--schema", str(schema_path),
                 "--query", "SELECT STUDENT.ID FROM STUDENT"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == f"medquery: schema is not satisfiable:\n  {finding}\n"


def test_an_rdql_predicate_on_a_table_the_schema_lacks_exits_1(fig2_paths, capsys):
    sources, schema = fig2_paths
    code = main(["query", "--sources", str(sources), "--schema", str(schema), "--lang", "rdql", "--query",
                 "SELECT ?x WHERE (?s <http://integratedDB/STUDENT#ID> ?x), (?s <http://integratedDB/NOPE#ID> ?x)"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "medquery: query references integrated table(s) ['NOPE'] not in the schema\n"
