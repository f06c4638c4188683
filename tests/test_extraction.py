"""Materialization: cell path, dtype conversion, coercion errors, the oracle, deep shapes."""

import itertools
import logging
import random

import pytest

from medquery import extraction
from medquery.cli import main
from medquery.descriptors import DerivedRelation, parse_project
from medquery.errors import MedQueryError, TypeCoercionError
from medquery.extraction import build_triples, materialize_integrated_table, materialize_required
from medquery.iris import property_iri, subject_iri
from medquery.schema_check import check_schema
from medquery.triple_store import Iri, Triple, TripleStore, TypedLiteral, export_ntriples
from medquery.wrappers import AccessLog, Table, fetch_table

from conftest import COMBINED_SCHEMA_XML, SOURCES_XML, THREE_STUDENTS, write_project
from generators import random_project
from oracles import materialize_table

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
    # build_triples publishes the materialized literals themselves
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


def test_a_whole_sum_is_an_integer_even_where_a_string_field_reads_it(tmp_path):
    # 3 + 4 is the integer 7, so the string field reads "7", not the decimal's "7.0"
    files = {"students.txt": "ID|A|B\n1|3|4\n", "calc.txt": "TOTAL\n"}
    schema = ADD_SCHEMA.replace('name="TOTAL" type="decimal"', 'name="TOTAL" type="string"')
    project = parse_project(*write_project(tmp_path, ADD_SOURCES, schema, files))
    assert check_schema(project).accepted
    assert (
        '<http://integratedDB/STUDENT/row/0> <http://integratedDB/STUDENT#TOTAL> '
        f'"7"^^<{XSD}string> .'
    ) in _extract(project).splitlines()


@pytest.mark.parametrize("first_seed", range(0, 200, 20))
def test_materialization_agrees_with_nested_loop_oracle(tmp_path, first_seed):
    for seed in range(first_seed, first_seed + 20):
        project = random_project(random.Random(seed), tmp_path / str(seed)).project
        names = [t.name for t in project.schema.tables]
        data = materialize_required(project, names)
        for name in names:
            assert data.tables[name] == materialize_table(project, name), (seed, name)


def test_generated_projects_cover_derived_chains_and_master_targets(tmp_path):
    """The seeds the oracle differential runs hold each shape the column loop orders."""
    shapes = {"derived operand": 0, "repeated operand": 0, "master target": 0}
    for seed in range(200):
        schema = random_project(random.Random(seed), tmp_path / str(seed)).project.schema
        derived = {r.target: r for r in schema.relations if isinstance(r, DerivedRelation)}
        mapped = {f.mapping for table in schema.tables for f in table.fields}
        masters = {(t.fields[0].mapping.source, t.fields[0].mapping.table) for t in schema.tables}
        for target, relation in derived.items():
            if (target.source, target.table) in masters:
                shapes["master target"] += 1
            elif target in mapped:
                shapes["derived operand"] += any(op in derived for op in relation.operands)
                shapes["repeated operand"] += len(set(relation.operands)) < len(relation.operands)
    assert all(shapes.values()), shapes


@pytest.mark.parametrize("first_seed", range(0, 60, 20))
def test_build_triples_equals_inserting_each_cell(tmp_path, first_seed):
    missing = 0
    for seed in range(first_seed, first_seed + 20):
        project = random_project(random.Random(seed), tmp_path / str(seed)).project
        data = materialize_required(project, [t.name for t in project.schema.tables])
        triples = []
        for name, table in data.tables.items():
            for index, row in enumerate(table.rows):
                for fdef, cell in zip(table.fields, row):
                    if cell is None:
                        missing += 1
                        continue
                    triples.append(Triple(Iri(subject_iri(name, index)),
                                          Iri(property_iri(name, fdef.name)), cell))
        reference = TripleStore.from_triples(triples)
        store = build_triples(data)
        assert store == reference, seed
        assert len(store) == len(reference), seed
        patterns = {
            tuple(term if keep else None
                  for term, keep in zip((t.subject, t.predicate, t.object), mask))
            for t in reference for mask in itertools.product((False, True), repeat=3)
        }
        matched = 0
        for pattern in patterns:
            expected, got = reference.match(*pattern), store.match(*pattern)
            assert store.count(*pattern) == reference.count(*pattern) == len(expected)
            assert len(got) == len(expected) and set(got) == set(expected), (seed, pattern)
            matched += len(expected)
        assert matched >= len(reference), seed
    assert missing > 0  # the loader skips missing cells


def _chain_project(tmp_path, students, grades):
    """COMBINED schema: FIRSTNAME from STUDENT, AVERAGE over STUDENT.ID = GRADE.STUDENTID."""
    files = {"students.txt": students, "grades.txt": grades}
    return parse_project(*write_project(tmp_path, SOURCES_XML, COMBINED_SCHEMA_XML, files))


def test_chain_lookup_compares_linearly_many_cells(tmp_path, monkeypatch):
    n = 400
    students = "ID|FIRSTNAME|LASTNAME|DEBT\n" + "".join(f"{i}|f{i}|l{i}|{i}\n" for i in range(n))
    grades = "STUDENTID|AVERAGE\n" + "".join(f"{i}|{i % 20}\n" for i in reversed(range(n)))
    project = _chain_project(tmp_path, students, grades)
    calls = 0
    equals = TypedLiteral.__eq__

    def counting_eq(self, other):
        nonlocal calls
        calls += 1
        return equals(self, other)

    monkeypatch.setattr(TypedLiteral, "__eq__", counting_eq)
    table = materialize_integrated_table(project, "STUDENT")
    assert [row[1].lexical for row in table.rows] == [str(i % 20) for i in range(n)]
    assert calls <= 4 * (n + n)


def test_master_without_rows_fetches_no_other_table(tmp_path):
    project = _chain_project(tmp_path, "ID|FIRSTNAME|LASTNAME|DEBT\n", "STUDENTID|AVERAGE\n1|17\n")
    log = AccessLog()
    assert materialize_integrated_table(project, "STUDENT", log=log).rows == ()
    assert log.entries == (("uni", "STUDENT"),)


def test_multi_match_warns_once_per_field_with_the_row_count(tmp_path, caplog):
    grades = "STUDENTID|AVERAGE\n1|17\n1|9\n3|12\n3|4\n2|8\n"
    project = _chain_project(tmp_path, THREE_STUDENTS, grades)
    with caplog.at_level(logging.WARNING, logger="medquery.extraction"):
        table = materialize_integrated_table(project, "STUDENT")
    assert [row[1].lexical for row in table.rows] == ["17", "8", "12"]
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    message = warnings[0].getMessage()
    assert message.startswith("2 master rows ")
    assert "keeping the first in source order" in message


# --- deep shapes, counted: each column and each hop is made once ---------------

def _derived_chain_paths(tmp_path, links, repeated, students="ID|G\n1|5\n2|-3\n4|0\n"):
    """STUDENT(ID, G) and a chain of derived CALC fields, F0 integrated beside ID.

    F{i} = F{i+1} + ID (or F{i+1} + F{i+1} when ``repeated``), and the last
    link reads G: F0 is G + links * ID (or 2**links * G).
    """
    calc = "".join(f'<field name="F{i}" type="integer"/>' for i in range(links))
    sources = f"""<datasources><datasource name="uni" kind="tabular" location=".">
      <table name="STUDENT"><field name="ID" type="integer"/><field name="G" type="integer"/>
        <file path="students.txt"/></table>
      <table name="CALC">{calc}<file path="calc.txt"/></table>
    </datasource></datasources>"""

    def ref(tag, field):
        table = "STUDENT" if field in ("ID", "G") else "CALC"
        return f'<{tag} source="uni" table="{table}" field="{field}"/>'

    relations = []
    for i in range(links):
        below = f"F{i + 1}" if i + 1 < links else "G"
        relations.append(f'<relation kind="derived" op="add">{ref("target", f"F{i}")}'
                         f'{ref("operand", below)}{ref("operand", below if repeated else "ID")}'
                         '</relation>')
    schema = f"""<schema name="s"><table name="STUDENT">
      <field name="ID" type="integer" source="uni" sourcetable="STUDENT" sourcefield="ID"/>
      <field name="F0" type="integer" source="uni" sourcetable="CALC" sourcefield="F0"/>
    </table>{''.join(relations)}</schema>"""
    files = {"students.txt": students, "calc.txt": "|".join(f"F{i}" for i in range(links)) + "\n"}
    return write_project(tmp_path, sources, schema, files)


@pytest.mark.parametrize("repeated", [False, True], ids=["distinct", "repeated"])
def test_a_2000_link_derived_chain_derives_each_cell_once(tmp_path, monkeypatch, repeated):
    links = 2000
    project = parse_project(*_derived_chain_paths(tmp_path, links, repeated))
    calls = 0
    derive = extraction._derive

    def counting_derive(op, values):
        nonlocal calls
        calls += 1
        return derive(op, values)

    monkeypatch.setattr(extraction, "_derive", counting_derive)
    table = materialize_integrated_table(project, "STUDENT")
    students = [(1, 5), (2, -3), (4, 0)]
    assert [row[1].lexical for row in table.rows] == [
        str(2 ** links * g if repeated else g + links * i) for i, g in students]
    assert calls == links * len(students)  # once per (derived field, row)


def test_extract_on_a_1200_link_derived_chain_exits_0(tmp_path, capsys):
    sources, schema = _derived_chain_paths(tmp_path, 1200, repeated=False)
    assert main(["extract", "--sources", str(sources), "--schema", str(schema),
                 "--table", "STUDENT"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert '<http://integratedDB/STUDENT/row/1> <http://integratedDB/STUDENT#F0> ' \
        '"2397"^^<http://www.w3.org/2001/XMLSchema#integer> .' in lines


def test_an_unchecked_derivation_cycle_raises_a_classified_error(tmp_path):
    sources, schema = _derived_chain_paths(tmp_path, 3, repeated=False)
    # F2 reads F0 instead of G: F0 -> F1 -> F2 -> F0, which check_schema refuses
    schema.write_text(schema.read_text().replace(
        '<operand source="uni" table="STUDENT" field="G"/>',
        '<operand source="uni" table="CALC" field="F0"/>'))
    with pytest.raises(MedQueryError, match="^derivation cycle through uni.CALC.F0$"):
        materialize_integrated_table(parse_project(sources, schema), "STUDENT")


CHAIN_SOURCES = """<datasources><datasource name="uni" kind="tabular" location=".">
  <table name="STUDENT"><field name="ID" type="integer"/><file path="students.txt"/></table>
  <table name="GRADE"><field name="STUDENTID" type="integer"/><field name="CID" type="integer"/>
    <file path="grades.txt"/></table>
  <table name="COURSE"><field name="CID" type="integer"/><field name="TITLE" type="string"/>
    <field name="CREDITS" type="integer"/><field name="LEVEL" type="integer"/>
    <file path="courses.txt"/></table>
</datasource></datasources>"""

CHAIN_SCHEMA = """<schema name="s"><table name="STUDENT">
  <field name="ID" type="integer" source="uni" sourcetable="STUDENT" sourcefield="ID"/>
  <field name="TITLE" type="string" source="uni" sourcetable="COURSE" sourcefield="TITLE"/>
  <field name="CREDITS" type="integer" source="uni" sourcetable="COURSE" sourcefield="CREDITS"/>
  <field name="LEVEL" type="integer" source="uni" sourcetable="COURSE" sourcefield="LEVEL"/>
</table>
<relation kind="equality"><lhs><ref source="uni" table="STUDENT" field="ID"/></lhs>
  <rhs><ref source="uni" table="GRADE" field="STUDENTID"/></rhs></relation>
<relation kind="equality"><lhs><ref source="uni" table="GRADE" field="CID"/></lhs>
  <rhs><ref source="uni" table="COURSE" field="CID"/></rhs></relation>
</schema>"""


def test_three_fields_behind_one_two_hop_chain_index_each_hop_once(tmp_path):
    files = {"students.txt": "ID\n1\n2\n3\n",
             "grades.txt": "STUDENTID|CID\n1|10\n2|20\n2|10\n",
             "courses.txt": "CID|TITLE|CREDITS|LEVEL\n10|Logic|6|1\n20|Sets|3|2\n"}
    project = parse_project(*write_project(tmp_path, CHAIN_SOURCES, CHAIN_SCHEMA, files))
    reads: dict[str, int] = {}

    class CountedRows(tuple):
        """Rows that count how often they are read through: once per index built."""

        def __iter__(self):
            reads[self.table] = reads.get(self.table, 0) + 1
            return super().__iter__()

    def fetch(project, source, table, log=None):
        fetched = fetch_table(project, source, table, log)
        rows = CountedRows(fetched.rows)
        rows.table = table
        return Table(fetched.name, fetched.fields, rows)

    table = materialize_integrated_table(project, "STUDENT", fetch=fetch)
    assert reads == {"STUDENT": 1, "GRADE": 1, "COURSE": 1}
    assert [[cell.lexical if cell else None for cell in row] for row in table.rows] == [
        ["1", "Logic", "6", "1"], ["2", "Sets", "3", "2"], ["3", None, None, None]]
    assert table == materialize_table(project, "STUDENT")


CONCAT_SOURCES = """<datasources>
  <datasource name="uni" kind="tabular" location=".">
    <table name="STUDENT">
      <field name="ID" type="integer"/>
      <field name="FIRST" type="string"/>
      <field name="LAST" type="string"/>
      <file path="students.txt"/>
    </table>
    <table name="CALC">
      <field name="FULL" type="string"/>
      <file path="calc.txt"/>
    </table>
  </datasource>
</datasources>
"""

# the concatenated target lives outside the master table, in CALC, which holds no row
CONCAT_SCHEMA = """<schema name="s">
  <table name="STUDENT">
    <field name="ID" type="integer" source="uni" sourcetable="STUDENT" sourcefield="ID"/>
    <field name="FULL" type="string" source="uni" sourcetable="CALC" sourcefield="FULL"/>
  </table>
  <relation kind="derived" op="concat">
    <target source="uni" table="CALC" field="FULL"/>
    <operand source="uni" table="STUDENT" field="FIRST"/>
    <operand source="uni" table="STUDENT" field="LAST"/>
  </relation>
</schema>
"""


def test_derived_concat_joins_its_operands_and_misses_with_one(tmp_path):
    files = {"students.txt": "ID|FIRST|LAST\n1|Ann|Lee\n2|Bob|\n3||Ng\n4|Di|O'Day\n", "calc.txt": "FULL\n"}
    project = parse_project(*write_project(tmp_path, CONCAT_SOURCES, CONCAT_SCHEMA, files))
    assert check_schema(project).accepted
    table = materialize_integrated_table(project, "STUDENT")
    # row 2 lacks LAST and row 3 FIRST, so their FULL is missing
    assert [tuple(cell and cell.lexical for cell in row) for row in table.rows] == [
        ("1", "AnnLee"), ("2", None), ("3", None), ("4", "DiO'Day")]
    assert table == materialize_table(project, "STUDENT")
    full = "<http://integratedDB/STUDENT#FULL>"
    assert [line for line in _extract(project).splitlines() if full in line] == [
        f'<http://integratedDB/STUDENT/row/{i}> {full} "{text}"^^<{XSD}string> .'
        for i, text in [(0, "AnnLee"), (3, "DiO'Day")]]
