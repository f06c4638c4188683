import random
import re

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


XML_SOURCE = """<datasources>
  <datasource name="web" kind="xml" location="feed.xml">
    <table name="T">
      <field name="ID" type="integer"/>
      <xmlbinding record="r"><map field="ID" element="id"/></xmlbinding>
    </table>
  </datasource>
</datasources>"""

DERIVED = """<relation kind="derived" op="add">
    <target source="uni" table="STUDENT" field="DEBT"/>
    <operand source="uni" table="STUDENT" field="ID"/>
    <operand source="reg" table="GRADE" field="AVERAGE"/>
  </relation>
</schema>"""
DERIVED_SCHEMA = SCHEMA_XML.replace("</schema>", DERIVED)

ID_FIELD = '<field name="ID" type="integer" source="uni" sourcetable="STUDENT" sourcefield="ID"/>'
LHS = '<lhs><ref source="uni" table="STUDENT" field="ID"/></lhs>'
TABLE = "datasource 'uni' table 'STUDENT'"

# one single-fault descriptor per message template: (parser, base, old, new, error, message)
MESSAGE_CASES = {
    "missing attribute": (
        parse_sources_xml, SOURCES_XML, '<field name="ID" type="integer"/>', '<field name="ID"/>',
        MalformedXmlError, f"{TABLE}: missing attribute 'type' on <field>"),
    "missing table name": (
        parse_sources_xml, SOURCES_XML, '<table name="STUDENT">', "<table>",
        MalformedXmlError, "datasource 'uni': missing attribute 'name' on <table>"),
    "unexpected attribute": (
        parse_sources_xml, SOURCES_XML, 'path="students.txt"', 'path="students.txt" mode="r"',
        MalformedXmlError, f"{TABLE}: unexpected attribute(s) ['mode'] on <file>"),
    "unexpected datasource attribute": (
        parse_sources_xml, SOURCES_XML, 'name="uni"', 'name="uni" port="1"',
        MalformedXmlError, "datasource 'uni': unexpected attribute(s) ['port'] on <datasource>"),
    "bad identifier": (
        parse_sources_xml, SOURCES_XML, 'name="FIRSTNAME"', 'name="FIRST NAME"',
        MalformedXmlError, f"{TABLE}: 'FIRST NAME' is not a valid identifier"),
    "bad datasource name": (
        parse_sources_xml, SOURCES_XML, 'name="uni"', 'name="9uni"',
        MalformedXmlError, "datasources: '9uni' is not a valid identifier"),
    "bad ref identifier": (
        parse_schema_xml, SCHEMA_XML, 'ref source="reg" table="GRADE"', 'ref source="reg" table="GR-ADE"',
        MalformedXmlError, "relation[1]: 'GR-ADE' is not a valid identifier"),
    "unknown type": (
        parse_sources_xml, SOURCES_XML, 'type="integer"', 'type="float"',
        MalformedXmlError, f"{TABLE}: unknown type 'float'"),
    "unknown kind": (
        parse_sources_xml, SOURCES_XML, 'kind="tabular"', 'kind="csv"',
        MalformedXmlError, "datasource 'uni': unknown kind 'csv'"),
    "unknown op": (
        parse_schema_xml, DERIVED_SCHEMA, 'op="add"', 'op="mul"',
        MalformedXmlError, "relation[2]: unknown op 'mul'"),
    "unknown relation kind": (
        parse_schema_xml, SCHEMA_XML, 'kind="equality"', 'kind="subset"',
        MalformedXmlError, "relation[1]: unknown relation kind 'subset'"),
    "unexpected element": (
        parse_sources_xml, SOURCES_XML, "<file ", "<note/><file ",
        MalformedXmlError, f"{TABLE}: unexpected element <note>"),
    "child of a leaf element": (
        parse_sources_xml, SOURCES_XML, '<field name="ID" type="integer"/>',
        '<field name="ID" type="integer"><bogus/></field>',
        MalformedXmlError, f"{TABLE}: unexpected element <bogus> in <field>"),
    "attribute on the sources root": (
        parse_sources_xml, SOURCES_XML, "<datasources>", '<datasources extra="1">',
        MalformedXmlError, "datasources: unexpected attribute(s) ['extra'] on <datasources>"),
    "attribute on an equality side": (
        parse_schema_xml, SCHEMA_XML, "<lhs>", '<lhs extra="1">',
        MalformedXmlError, "relation[1]: unexpected attribute(s) ['extra'] on <lhs>"),
    "duplicate datasource": (
        parse_sources_xml, SOURCES_XML, 'name="reg"', 'name="uni"',
        DuplicateNameError, "duplicate datasource 'uni'"),
    "duplicate table": (
        parse_sources_xml, SOURCES_XML, "</datasource>",
        '<table name="STUDENT"><file path="x"/></table></datasource>',
        DuplicateNameError, "duplicate table 'STUDENT' in datasource 'uni'"),
    "duplicate field": (
        parse_sources_xml, SOURCES_XML, 'name="LASTNAME"', 'name="FIRSTNAME"',
        DuplicateNameError, f"duplicate field 'FIRSTNAME' in {TABLE}"),
    "duplicate xml field mapping": (
        parse_sources_xml, XML_SOURCE, "</xmlbinding>", '<map field="ID" element="x"/></xmlbinding>',
        DuplicateNameError, "duplicate xml field mapping 'ID' in datasource 'web' table 'T'"),
    "duplicate integrated table": (
        parse_schema_xml, SCHEMA_XML, '<table name="GRADE">', '<table name="STUDENT">',
        DuplicateNameError, "duplicate integrated table 'STUDENT'"),
    "duplicate integrated field": (
        parse_schema_xml, SCHEMA_XML, ID_FIELD, ID_FIELD * 2,
        DuplicateNameError, "duplicate field 'ID' in integrated table 'STUDENT'"),
    "more than one binding": (
        parse_sources_xml, SOURCES_XML, '<file path="students.txt"/>', '<file path="a"/><file path="b"/>',
        MalformedXmlError, f"{TABLE}: more than one binding element"),
    "more than one credentials": (
        parse_sources_xml, SOURCES_XML, '<table name="STUDENT">',
        '<credentials user="u" password="p"/><credentials user="v" password="q"/><table name="STUDENT">',
        MalformedXmlError, "datasource 'uni': more than one <credentials>"),
    "more than one target": (
        parse_schema_xml, DERIVED_SCHEMA, "<operand", '<target source="s" table="T" field="F"/><operand',
        MalformedXmlError, "relation[2]: more than one <target>"),
    "more than one lhs": (
        parse_schema_xml, SCHEMA_XML, LHS, LHS * 2,
        MalformedXmlError, "relation[1]: more than one <lhs>"),
    "missing binding": (
        parse_sources_xml, SOURCES_XML, '<file path="students.txt"/>', "",
        MalformedXmlError, f"{TABLE}: missing binding element (file, view or xmlbinding)"),
    "xml binding in tabular source": (
        parse_sources_xml, XML_SOURCE, 'kind="xml"', 'kind="tabular"',
        MalformedXmlError, "datasource 'web' table 'T': tabular sources take file or view bindings"),
    "file binding in xml source": (
        parse_sources_xml, SOURCES_XML, 'kind="tabular"', 'kind="xml"',
        MalformedXmlError, f"{TABLE}: xml sources take xmlbinding elements"),
    "undeclared map field": (
        parse_sources_xml, XML_SOURCE, 'field="ID" element', 'field="TYPO" element',
        MalformedXmlError, "datasource 'web' table 'T': xml map names undeclared field 'TYPO'"),
    "empty view": (
        parse_sources_xml, SOURCES_XML, '<file path="students.txt"/>', "<view> </view>",
        MalformedXmlError, f"{TABLE}: empty view query"),
    "table with no fields": (
        parse_schema_xml, SCHEMA_XML, '<table name="GRADE">', '<table name="EMPTY"/><table name="GRADE">',
        MalformedXmlError, "integrated table 'EMPTY': integrated table has no fields"),
    "equality without rhs": (
        parse_schema_xml, SCHEMA_XML, '<rhs><ref source="reg" table="GRADE" field="STUDENTID"/></rhs>', "",
        MalformedXmlError, "relation[1]: equality needs <lhs> and <rhs>"),
    "derived without target": (
        parse_schema_xml, DERIVED_SCHEMA, '<target source="uni" table="STUDENT" field="DEBT"/>', "",
        MalformedXmlError, "relation[2]: derived relation needs a <target>"),
}


@pytest.mark.parametrize("case", MESSAGE_CASES.values(), ids=MESSAGE_CASES.keys())
def test_descriptor_error_messages(case):
    parse, base, old, new, error, message = case
    assert base.count(old) >= 1
    with pytest.raises(error) as info:
        parse(base.replace(old, new, 1))
    assert type(info.value) is error
    assert str(info.value) == message


STUDENT_REF = '<ref source="uni" table="STUDENT" field="ID"/>'
OPERAND = '<operand source="uni" table="STUDENT" field="ID"/>'
CREDENTIALS = '<credentials user="u" password="p"/>'


def _tag(element):
    return re.match(r"<(\w+)", element).group(1)


LEAF_CASES = [
    (parse_sources_xml, SOURCES_XML, '<field name="ID" type="integer"/>'),
    (parse_sources_xml, SOURCES_XML, '<file path="students.txt"/>'),
    (parse_sources_xml, SOURCES_XML.replace('<file path="students.txt"/>', "<view>SELECT ID FROM G</view>"),
     "<view>SELECT ID FROM G</view>"),
    (parse_sources_xml, SOURCES_XML.replace('<table name="STUDENT">', CREDENTIALS + '<table name="STUDENT">'),
     CREDENTIALS),
    (parse_sources_xml, XML_SOURCE, '<map field="ID" element="id"/>'),
    (parse_schema_xml, SCHEMA_XML, ID_FIELD),
    (parse_schema_xml, SCHEMA_XML, STUDENT_REF),
    (parse_schema_xml, DERIVED_SCHEMA, '<target source="uni" table="STUDENT" field="DEBT"/>'),
    (parse_schema_xml, DERIVED_SCHEMA, OPERAND),
]


@pytest.mark.parametrize("parse, base, old", LEAF_CASES,
                         ids=[f"{case[0].__name__}-{_tag(case[2])}" for case in LEAF_CASES])
def test_leaf_elements_take_no_child_elements(parse, base, old):
    tag = _tag(old)
    if old.endswith("/>"):
        new = old[:-2] + f"><bogus/></{tag}>"
    else:
        new = old.replace(f"</{tag}>", f"<bogus/></{tag}>")
    parse(base)  # the element as it stands is accepted
    with pytest.raises(MalformedXmlError, match=f"unexpected element <bogus> in <{tag}>$"):
        parse(base.replace(old, new, 1))


@pytest.mark.parametrize("tag", ["lhs", "rhs"])
def test_equality_sides_take_no_attributes(tag):
    with pytest.raises(MalformedXmlError, match=rf"unexpected attribute\(s\) \['extra'\] on <{tag}>$"):
        parse_schema_xml(SCHEMA_XML.replace(f"<{tag}>", f'<{tag} extra="1">'))


@pytest.mark.parametrize("old, new", [
    ('record="r"', 'record="a/b"'),
    ('record="r"', 'record="*"'),
    ('element="id"', 'element="["'),
    ('element="id"', 'element=".."'),
    ('element="id"', 'element="9id"'),
    ('record="r"', 'record="r" transform="\'"'),
    ('record="r"', 'record="r" transform=""'),
    ('record="r"', 'record="r" transform="  "'),
])
def test_xml_binding_takes_element_names_and_a_command(old, new):
    # ElementTree would read a path or wildcard; shlex cannot split these transforms
    with pytest.raises(MalformedXmlError) as info:
        parse_sources_xml(XML_SOURCE.replace(old, new))
    assert str(info.value).startswith("datasource 'web' table 'T': ")


@pytest.mark.parametrize("name", ["a.b", "a-b", "número", "_x"])
def test_xml_binding_element_names_parse(name):
    text = XML_SOURCE.replace('record="r"', f'record="{name}" transform="tr a b"')
    (source,) = parse_sources_xml(text.replace('element="id"', f'element="{name}"'))
    assert source.tables[0].binding == XmlBinding(name, {"ID": name}, "tr a b")
