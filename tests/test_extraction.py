"""Materialization cell path: pass-through, dtype conversion, coercion errors."""

import pytest

from medquery.descriptors import parse_project
from medquery.errors import TypeCoercionError
from medquery.extraction import build_triples, materialize_integrated_table, materialize_required
from medquery.triple_store import export_ntriples
from medquery.wrappers import fetch_table

from conftest import SOURCES_XML, write_project

XSD = "http://www.w3.org/2001/XMLSchema#"


def _student_schema(*fields):
    """Schema with one STUDENT table of (name, dtype, source field) triples."""
    lines = "".join(
        f'<field name="{name}" type="{dtype}" source="uni" sourcetable="STUDENT" '
        f'sourcefield="{source_field}"/>'
        for name, dtype, source_field in fields
    )
    return f'<schema name="s"><table name="STUDENT">{lines}</table></schema>'


def _extract(project):
    return export_ntriples(build_triples(materialize_required(project, ["STUDENT"])))


def test_cell_with_matching_dtype_reaches_the_store_unchanged(fig2_project):
    fetched = {}

    def fetch(project, source, table, log=None):
        fetched[table] = fetch_table(project, source, table, log)
        return fetched[table]

    data = materialize_required(fig2_project, ["STUDENT"], fetch=fetch)
    source_cells = [cell for row in fetched["STUDENT"].rows for cell in row]
    cells = [cell for row in data.tables["STUDENT"].rows for cell in row]
    assert len(cells) == len(source_cells) == 8
    assert all(cell is source for cell, source in zip(cells, source_cells))
    # build_triples inserts the materialized literals themselves
    store = build_triples(data)
    assert len(store) == 8
    assert all(any(t.object is cell for cell in cells) for t in store)


def test_integrated_dtype_converts_an_integer_source_field(tmp_path):
    schema = _student_schema(("ID", "integer", "ID"), ("IDDEC", "decimal", "ID"),
                             ("IDSTR", "string", "ID"))
    project = parse_project(*write_project(tmp_path, SOURCES_XML, schema))
    lines = _extract(project).splitlines()
    row0 = "<http://integratedDB/STUDENT/row/0> <http://integratedDB/STUDENT#"
    assert f'{row0}ID> "1"^^<{XSD}integer> .' in lines
    assert f'{row0}IDDEC> "1.0"^^<{XSD}decimal> .' in lines
    assert f'{row0}IDSTR> "1"^^<{XSD}string> .' in lines


def test_uncoercible_cell_names_row_and_field(tmp_path):
    schema = _student_schema(("ID", "integer", "ID"), ("FIRSTNUM", "integer", "FIRSTNAME"))
    project = parse_project(*write_project(tmp_path, SOURCES_XML, schema))
    with pytest.raises(TypeCoercionError) as info:
        materialize_integrated_table(project, "STUDENT")
    assert (info.value.row, info.value.field, info.value.lexical) == (1, "FIRSTNUM", "Ann")


# the derived target lives outside the master table: a master field is copied as is
ADD_SOURCES = """<datasources>
  <datasource name="uni" kind="tabular" location=".">
    <table name="STUDENT">
      <field name="ID" type="integer"/>
      <field name="A" type="decimal"/>
      <field name="B" type="decimal"/>
      <file path="students.txt"/>
    </table>
    <table name="CALC">
      <field name="TOTAL" type="decimal"/>
      <file path="calc.txt"/>
    </table>
  </datasource>
</datasources>
"""

ADD_SCHEMA = """<schema name="s">
  <table name="STUDENT">
    <field name="ID" type="integer" source="uni" sourcetable="STUDENT" sourcefield="ID"/>
    <field name="TOTAL" type="decimal" source="uni" sourcetable="CALC" sourcefield="TOTAL"/>
  </table>
  <relation kind="derived" op="add">
    <target source="uni" table="CALC" field="TOTAL"/>
    <operand source="uni" table="STUDENT" field="A"/>
    <operand source="uni" table="STUDENT" field="B"/>
  </relation>
</schema>
"""


@pytest.mark.parametrize("a, total", [
    ("0.0000001", "0.0000001"),  # str() of the sum is exponent form, 1E-7
    ("1234567890123456789012345678.9", "1234567890123456789012345678.9"),  # 29 digits
], ids=["tiny", "long"])
def test_derived_add_of_small_decimals_is_fixed_point(tmp_path, a, total):
    files = {"students.txt": f"ID|A|B\n1|{a}|0.0\n", "calc.txt": "TOTAL\n"}
    project = parse_project(*write_project(tmp_path, ADD_SOURCES, ADD_SCHEMA, files))
    assert (
        '<http://integratedDB/STUDENT/row/0> <http://integratedDB/STUDENT#TOTAL> '
        f'"{total}"^^<{XSD}decimal> .'
    ) in _extract(project).splitlines()
