import random

import pytest

from medquery.descriptors import (
    Credentials,
    FieldRef,
    FileBinding,
    SourceKind,
    ViewBinding,
    XmlBinding,
    parse_project,
    parse_schema_xml,
    parse_sources_xml,
    resolve_field_ref,
    serialize_schema,
)
from medquery.dtypes import Dtype
from medquery.errors import (
    DuplicateNameError,
    MalformedXmlError,
    UnresolvedFieldRefError,
)

from conftest import SCHEMA_XML, SOURCES_XML, write_project
from generators import random_project, serialize_sources

MINIMAL_SOURCES = """<datasources>
  <datasource name="uni" kind="tabular" location=".">
    <table name="STUDENT">
      <field name="ID" type="integer"/>
      <field name="DEBT" type="integer"/>
      <file path="students.txt"/>
    </table>
  </datasource>
</datasources>
"""

MINIMAL_SCHEMA = """<schema name="mini">
  <table name="STUDENT">
    <field name="ID" type="integer" source="uni" sourcetable="STUDENT" sourcefield="ID"/>
    <field name="DEBT" type="integer" source="uni" sourcetable="STUDENT" sourcefield="DEBT"/>
  </table>
</schema>
"""


@pytest.fixture
def minimal_project(tmp_path):
    paths = write_project(tmp_path, MINIMAL_SOURCES, MINIMAL_SCHEMA, files={})
    return parse_project(*paths)


def test_minimal_project(minimal_project):
    assert len(minimal_project.sources) == 1
    assert len(minimal_project.schema.tables) == 1
    table = minimal_project.sources[0].tables[0]
    assert table.binding == FileBinding("students.txt")
    assert [f.dtype for f in table.fields] == [Dtype.INTEGER, Dtype.INTEGER]


def test_unresolved_mapping_is_rejected(tmp_path):
    schema = MINIMAL_SCHEMA.replace('sourcefield="DEBT"', 'sourcefield="GPA"')
    paths = write_project(tmp_path, MINIMAL_SOURCES, schema, files={})
    with pytest.raises(UnresolvedFieldRefError) as info:
        parse_project(*paths)
    assert "GPA" in str(info.value)


def test_resolve_field_ref(minimal_project):
    fdef = resolve_field_ref(minimal_project, FieldRef("uni", "STUDENT", "ID"))
    assert fdef.name == "ID" and fdef.dtype is Dtype.INTEGER

    with pytest.raises(UnresolvedFieldRefError):
        resolve_field_ref(minimal_project, FieldRef("uni", "STUDENT", "NOPE"))
    with pytest.raises(UnresolvedFieldRefError) as info:
        resolve_field_ref(minimal_project, FieldRef("ghost", "STUDENT", "ID"))
    assert "ghost" in str(info.value)


def test_missing_file_raises_filenotfound(tmp_path):
    (tmp_path / "schema.xml").write_text(MINIMAL_SCHEMA, encoding="utf-8")
    with pytest.raises(FileNotFoundError):
        parse_project(tmp_path / "nope.xml", tmp_path / "schema.xml")


def test_malformed_xml_reports_line():
    with pytest.raises(MalformedXmlError) as info:
        parse_sources_xml("<datasources>\n<datasource\n</datasources>")
    assert info.value.line is not None


def test_malformed_xml_names_the_line_once():
    text = SOURCES_XML.encode("utf-8").replace(b'name="STUDENT"', b'name="ST\xffUDENT"')
    assert text.splitlines()[3].startswith(b'    <table name="ST\xff')  # line 4
    with pytest.raises(MalformedXmlError) as info:
        parse_sources_xml(text)
    assert info.value.line == 4
    assert str(info.value).count("line 4") == 1


@pytest.mark.parametrize("mutate,kind", [
    (lambda t: t.replace('name="reg"', 'name="uni"'), "datasource"),
    (lambda t: t.replace('name="GRADE"', 'name="STUDENT"', 1), "table"),
    (lambda t: t.replace('name="LASTNAME"', 'name="FIRSTNAME"'), "field"),
])
def test_duplicate_names(mutate, kind):
    text = mutate(SOURCES_XML)
    if kind == "table":
        # move the renamed table into the first source to create the clash
        text = SOURCES_XML.replace(
            "</table>\n  </datasource>\n  <datasource name=\"reg\" kind=\"tabular\" location=\".\">",
            "</table>", 1,
        ).replace('name="GRADE"', 'name="STUDENT"')
    with pytest.raises(DuplicateNameError) as info:
        parse_sources_xml(text)
    assert info.value.kind == kind


def test_duplicate_integrated_table():
    text = SCHEMA_XML.replace('<table name="GRADE">', '<table name="STUDENT">')
    with pytest.raises(DuplicateNameError):
        parse_schema_xml(text)


def test_binding_must_match_source_kind():
    text = SOURCES_XML.replace('kind="tabular"', 'kind="xml"', 1)
    with pytest.raises(MalformedXmlError):
        parse_sources_xml(text)


def test_table_requires_exactly_one_binding():
    text = SOURCES_XML.replace(
        '<file path="students.txt"/>',
        '<file path="students.txt"/><file path="other.txt"/>',
    )
    with pytest.raises(MalformedXmlError):
        parse_sources_xml(text)


def test_unknown_dtype_rejected():
    with pytest.raises(MalformedXmlError):
        parse_sources_xml(SOURCES_XML.replace('type="integer"', 'type="float"', 1))


def test_empty_integrated_table_rejected():
    text = '<schema name="s"><table name="T"></table></schema>'
    with pytest.raises(MalformedXmlError):
        parse_schema_xml(text)


def test_credentials_and_xml_binding_parse():
    text = """<datasources>
      <datasource name="web" kind="xml" location="feed.xml">
        <credentials user="u" password="p"/>
        <table name="STUDENT">
          <field name="ID" type="integer"/>
          <xmlbinding record="student" transform="tr a b">
            <map field="ID" element="id"/>
          </xmlbinding>
        </table>
      </datasource>
    </datasources>"""
    (source,) = parse_sources_xml(text)
    assert source.kind is SourceKind.XML
    assert source.credentials == Credentials("u", "p")
    binding = source.tables[0].binding
    assert isinstance(binding, XmlBinding)
    assert binding.record_element == "student"
    assert binding.field_elements == {"ID": "id"}
    assert binding.transform == "tr a b"


def test_xml_map_must_name_declared_field():
    text = """<datasources>
      <datasource name="web" kind="xml" location="feed.xml">
        <table name="T">
          <field name="ID" type="integer"/>
          <xmlbinding record="r"><map field="TYPO" element="id"/></xmlbinding>
        </table>
      </datasource>
    </datasources>"""
    with pytest.raises(MalformedXmlError) as info:
        parse_sources_xml(text)
    assert "TYPO" in str(info.value)


def test_view_binding_parses():
    text = SOURCES_XML.replace(
        '<file path="grades.txt"/>',
        "<view>SELECT STUDENTID, AVERAGE FROM RAW</view>",
    )
    sources = parse_sources_xml(text)
    binding = sources[1].tables[0].binding
    assert binding == ViewBinding("SELECT STUDENTID, AVERAGE FROM RAW")


def test_relation_refs_not_resolved_at_parse_time(tmp_path):
    # relations may dangle at parse time; the satisfiability checker owns them
    schema = SCHEMA_XML.replace(
        '<ref source="reg" table="GRADE" field="STUDENTID"/>',
        '<ref source="reg" table="GRADE" field="NOPE"/>',
    )
    paths = write_project(tmp_path, schema_xml=schema)
    project = parse_project(*paths)
    assert len(project.schema.relations) == 1


def test_roundtrip_is_structural_identity(fig2_project, tmp_path):
    again_dir = tmp_path / "again"
    again_dir.mkdir()
    paths = write_project(
        again_dir,
        serialize_sources(fig2_project.sources),
        serialize_schema(fig2_project.schema),
        files={},
    )
    reparsed = parse_project(*paths)
    assert reparsed == fig2_project


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_roundtrip_on_generated_projects(tmp_path, seed):
    rng = random.Random(seed)
    generated = random_project(rng, tmp_path / "gen")
    roundtrip_dir = tmp_path / "round"
    roundtrip_dir.mkdir()
    paths = write_project(
        roundtrip_dir,
        serialize_sources(generated.project.sources),
        serialize_schema(generated.project.schema),
        files={},
    )
    assert parse_project(*paths) == generated.project
