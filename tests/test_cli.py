"""The CLI's exit-code contract (0 ok, 1 domain error, 2 descriptor or file error)."""

import pytest

from medquery.cli import main
from medquery.descriptors import parse_project
from medquery.extraction import build_triples, materialize_required
from medquery.triple_store import import_ntriples

from conftest import FIG2_SQL, SCHEMA_XML, SOURCES_XML, write_project


def _run(capsys, command, paths, *extra):
    sources, schema = paths
    code = main([command, "--sources", str(sources), "--schema", str(schema), *extra])
    return code, capsys.readouterr().out


def test_query_exits_0_with_the_answer(fig2_paths, capsys):
    code, out = _run(capsys, "query", fig2_paths, "--query", FIG2_SQL)
    assert code == 0
    assert out == "FIRSTNAME|LASTNAME|AVERAGE|DEBT\nBob|L|12|2500\n"


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


def test_missing_file_exits_2(fig2_paths, capsys):
    sources, _ = fig2_paths
    assert _run(capsys, "query", (sources, sources.parent / "absent.xml"),
                "--query", FIG2_SQL) == (2, "")


def test_extract_roundtrips_through_import(fig2_paths, capsys):
    code, out = _run(capsys, "extract", fig2_paths, "--table", "STUDENT")
    assert code == 0
    expected = build_triples(materialize_required(parse_project(*fig2_paths), ["STUDENT"]))
    assert len(expected) == 8
    assert import_ntriples(out) == expected
