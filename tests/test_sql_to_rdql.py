import re

import pytest

from medquery.dtypes import Dtype
from medquery.rdql_engine import Var, evaluate, parse_rdql
from medquery.sql_frontend import parse_sql
from medquery.sql_to_rdql import convert
from medquery.triple_store import Iri, Triple, TripleStore, TypedLiteral

from conftest import FIG2_RDQL, FIG2_SQL


def normalize(text: str) -> str:
    return "\n".join(
        re.sub(r"\s+", " ", line).strip() for line in text.strip().splitlines()
    )


@pytest.fixture
def schema(fig2_project):
    return fig2_project.schema


def test_two_table_join_conversion_golden(schema):
    text, ast = convert(parse_sql(FIG2_SQL, schema), schema)
    assert normalize(text) == normalize(FIG2_RDQL)
    assert [v.name for v in ast.select] == ["FIRSTNAME", "LASTNAME", "AVERAGE", "DEBT"]
    assert len(ast.patterns) == 6
    assert len(ast.filters) == 1


@pytest.fixture
def three_table_schema(tmp_path):
    """Fig. 2's schema plus DEBTOR(ID, DEBT), drawn from the student source."""
    from conftest import SCHEMA_XML, write_project
    from medquery.descriptors import parse_project

    debtor = """<table name="DEBTOR">
    <field name="ID" type="integer" source="uni" sourcetable="STUDENT" sourcefield="ID"/>
    <field name="DEBT" type="integer" source="uni" sourcetable="STUDENT" sourcefield="DEBT"/>
  </table>
  <relation"""
    schema_xml = SCHEMA_XML.replace("<relation", debtor, 1)
    return parse_project(*write_project(tmp_path, schema_xml=schema_xml)).schema


@pytest.mark.parametrize("sql, rdql", [
    # a chain whose two ends are selected: B.Y takes A.X's variable, and the
    # join that would merge two selected fields stays an atom
    ("SELECT STUDENT.ID, DEBTOR.ID FROM STUDENT, GRADE, DEBTOR "
     "ON STUDENT.ID = GRADE.STUDENTID AND GRADE.STUDENTID = DEBTOR.ID",
     """SELECT ?STUDENT_ID, ?DEBTOR_ID
        WHERE
        (?tbl_0 <http://integratedDB/STUDENT#ID> ?STUDENT_ID),
        (?tbl_2 <http://integratedDB/DEBTOR#ID> ?DEBTOR_ID),
        (?tbl_1 <http://integratedDB/GRADE#STUDENTID> ?STUDENT_ID)
        AND ?STUDENT_ID = ?DEBTOR_ID"""),
    # an unselected class of three fields shares one fresh variable
    ("SELECT STUDENT.FIRSTNAME FROM STUDENT, GRADE, DEBTOR "
     "ON STUDENT.ID = GRADE.STUDENTID AND DEBTOR.ID = GRADE.STUDENTID",
     """SELECT ?FIRSTNAME
        WHERE
        (?tbl_0 <http://integratedDB/STUDENT#FIRSTNAME> ?FIRSTNAME),
        (?tbl_0 <http://integratedDB/STUDENT#ID> ?fld_0),
        (?tbl_1 <http://integratedDB/GRADE#STUDENTID> ?fld_0),
        (?tbl_2 <http://integratedDB/DEBTOR#ID> ?fld_0)"""),
    # unselected classes are numbered by their first field in the query
    ("SELECT GRADE.AVERAGE FROM STUDENT, GRADE, DEBTOR "
     "ON DEBTOR.DEBT = STUDENT.DEBT AND STUDENT.ID = GRADE.STUDENTID WHERE DEBTOR.ID > 1",
     """SELECT ?AVERAGE
        WHERE
        (?tbl_1 <http://integratedDB/GRADE#AVERAGE> ?AVERAGE),
        (?tbl_2 <http://integratedDB/DEBTOR#DEBT> ?fld_0),
        (?tbl_0 <http://integratedDB/STUDENT#DEBT> ?fld_0),
        (?tbl_0 <http://integratedDB/STUDENT#ID> ?fld_1),
        (?tbl_1 <http://integratedDB/GRADE#STUDENTID> ?fld_1),
        (?tbl_2 <http://integratedDB/DEBTOR#ID> ?fld_2)
        AND ?fld_2 > 1"""),
    # a field joined to itself is one class already: no atom
    ("SELECT STUDENT.ID FROM STUDENT WHERE STUDENT.ID = STUDENT.ID",
     "SELECT ?ID\nWHERE\n(?tbl_0 <http://integratedDB/STUDENT#ID> ?ID)"),
], ids=["chain_with_selected_ends", "unselected_class_of_three", "two_unselected_classes",
        "field_joined_to_itself"])
def test_join_class_goldens(three_table_schema, sql, rdql):
    text, ast = convert(parse_sql(sql, three_table_schema), three_table_schema)
    assert normalize(text) == normalize(rdql)
    assert parse_rdql(text) == ast


def test_single_field_degenerate_case(schema):
    text, ast = convert(parse_sql("SELECT STUDENT.ID FROM STUDENT", schema), schema)
    assert normalize(text) == normalize(
        "SELECT ?ID\nWHERE\n(?tbl_0 <http://integratedDB/STUDENT#ID> ?ID)"
    )
    assert ast.filters == ()


def test_conversion_is_deterministic(schema):
    query = parse_sql(FIG2_SQL, schema)
    assert convert(query, schema) == convert(query, schema)


def test_selected_join_field_reuses_select_variable(schema):
    sql = ("SELECT STUDENT.ID, GRADE.AVERAGE FROM STUDENT, GRADE "
           "ON STUDENT.ID=GRADE.STUDENTID")
    text, ast = convert(parse_sql(sql, schema), schema)
    assert "?fld_" not in text
    # both join-side patterns bind ?ID
    id_patterns = [p for p in ast.patterns
                   if p.p.value.endswith("#ID") or p.p.value.endswith("#STUDENTID")]
    assert [p.o for p in id_patterns] == [Var("ID"), Var("ID")]


def test_field_name_collision_qualifies_all_sides(schema):
    sql = "SELECT STUDENT.ID, GRADE.STUDENTID FROM STUDENT, GRADE"
    text, ast = convert(parse_sql(sql, schema), schema)
    assert [v.name for v in ast.select] == ["ID", "STUDENTID"]

    # same bare field name from two tables: every one is table-qualified
    sql = ("SELECT STUDENT.AVERAGE, GRADE.AVERAGE FROM STUDENT, GRADE"
           .replace("STUDENT.AVERAGE", "STUDENT.DEBT"))
    text, ast = convert(parse_sql(sql, schema), schema)
    assert [v.name for v in ast.select] == ["DEBT", "AVERAGE"]


def test_true_collision(fig2_project, tmp_path):
    from conftest import SCHEMA_XML, write_project
    from medquery.descriptors import parse_project

    # give GRADE an ID field so SELECT STUDENT.ID, GRADE.ID collides
    schema_xml = SCHEMA_XML.replace(
        '<field name="STUDENTID" type="integer" source="reg" sourcetable="GRADE" sourcefield="STUDENTID"/>',
        '<field name="ID" type="integer" source="reg" sourcetable="GRADE" sourcefield="STUDENTID"/>',
    )
    project = parse_project(*write_project(tmp_path, schema_xml=schema_xml))
    sql = "SELECT STUDENT.ID, GRADE.ID FROM STUDENT, GRADE"
    text, ast = convert(parse_sql(sql, project.schema), project.schema)
    assert [v.name for v in ast.select] == ["STUDENT_ID", "GRADE_ID"]
    assert "?STUDENT_ID" in text and "?GRADE_ID" in text


def test_both_sides_selected_join_moves_to_and_clause(tmp_path):
    from conftest import SCHEMA_XML, write_project
    from medquery.descriptors import parse_project

    project = parse_project(*write_project(tmp_path))
    sql = ("SELECT STUDENT.ID, GRADE.STUDENTID FROM STUDENT, GRADE "
           "ON STUDENT.ID=GRADE.STUDENTID")
    text, ast = convert(parse_sql(sql, project.schema), project.schema)
    assert len(ast.patterns) == 2
    assert len(ast.filters) == 1
    atom = ast.filters[0]
    assert atom.op == "=" and atom.lhs == Var("ID") and atom.rhs == Var("STUDENTID")


def test_filter_only_field_gets_fresh_variable(schema):
    sql = "SELECT STUDENT.FIRSTNAME FROM STUDENT WHERE STUDENT.DEBT > 2000"
    text, ast = convert(parse_sql(sql, schema), schema)
    assert "(?tbl_0 <http://integratedDB/STUDENT#DEBT> ?fld_0)" in text
    assert "AND ?fld_0 > 2000" in text


def test_string_filter_renders_quoted(schema):
    sql = "SELECT STUDENT.ID FROM STUDENT WHERE STUDENT.FIRSTNAME = 'Ann'"
    text, _ = convert(parse_sql(sql, schema), schema)
    assert 'AND ?fld_0 = "Ann"' in text


def test_converted_text_reparses_to_same_ast(schema):
    for sql in (
        FIG2_SQL,
        "SELECT STUDENT.ID FROM STUDENT",
        "SELECT STUDENT.ID FROM STUDENT WHERE STUDENT.FIRSTNAME = 'Ann'",
    ):
        text, ast = convert(parse_sql(sql, schema), schema)
        assert parse_rdql(text) == ast


def test_variable_soundness(schema):
    sql = ("SELECT STUDENT.FIRSTNAME FROM STUDENT, GRADE "
           "ON STUDENT.ID=GRADE.STUDENTID WHERE GRADE.AVERAGE >= 10")
    _, ast = convert(parse_sql(sql, schema), schema)
    pattern_vars = set()
    for pattern in ast.patterns:
        for term in (pattern.s, pattern.p, pattern.o):
            if isinstance(term, Var):
                pattern_vars.add(term.name)
    for var in ast.select:
        assert var.name in pattern_vars
    for atom in ast.filters:
        assert atom.lhs.name in pattern_vars
        if isinstance(atom.rhs, Var):
            assert atom.rhs.name in pattern_vars


def _store_from(rows_by_table):
    store = TripleStore()
    for table, rows in rows_by_table.items():
        for n, cells in enumerate(rows):
            subject = Iri(f"http://integratedDB/{table}/row/{n}")
            for field, (lexical, dtype) in cells.items():
                store.insert(Triple(
                    subject, Iri(f"http://integratedDB/{table}#{field}"),
                    TypedLiteral(lexical, dtype),
                ))
    return store


def test_selected_join_evaluates_like_handwritten_rdql(schema):
    store = _store_from({
        "STUDENT": [
            {"ID": ("1", Dtype.INTEGER), "FIRSTNAME": ("Ann", Dtype.STRING)},
            {"ID": ("2", Dtype.INTEGER), "FIRSTNAME": ("Bob", Dtype.STRING)},
        ],
        "GRADE": [
            {"STUDENTID": ("2", Dtype.INTEGER), "AVERAGE": ("12", Dtype.INTEGER)},
        ],
    })
    sql = ("SELECT STUDENT.ID, GRADE.AVERAGE FROM STUDENT, GRADE "
           "ON STUDENT.ID=GRADE.STUDENTID")
    _, ast = convert(parse_sql(sql, schema), schema)
    by_hand = parse_rdql(
        "SELECT ?ID, ?AVERAGE WHERE "
        "(?s <http://integratedDB/STUDENT#ID> ?ID), "
        "(?g <http://integratedDB/GRADE#STUDENTID> ?ID), "
        "(?g <http://integratedDB/GRADE#AVERAGE> ?AVERAGE)"
    )
    assert evaluate(ast, store).rows == evaluate(by_hand, store).rows
    assert [(t.lexical) for t in evaluate(ast, store).rows[0]] == ["2", "12"]


# T, U and V name fields after the variables the translation makes up
COLLIDING_FILES = {"t.txt": "ID|fld_0|tbl_0\n1|a|p\n2|b|q\n", "u.txt": "ID|X\n1|x1\n2|x2\n",
                   "v.txt": "ID|T_ID\n1|v1\n2|v2\n"}
COLLIDING_FIELDS = {"T": {"ID": "integer", "fld_0": "string", "tbl_0": "string"},
                    "U": {"ID": "integer", "X": "string"}, "V": {"ID": "integer", "T_ID": "string"}}


@pytest.fixture
def colliding_project(tmp_path):
    from conftest import write_project
    from medquery.mediator import open_project

    def fields(table, mapped):
        return "".join(f'<field name="{name}" type="{dtype}"'
                       + (f' source="s" sourcetable="{table}" sourcefield="{name}"/>' if mapped else "/>")
                       for name, dtype in COLLIDING_FIELDS[table].items())

    sources = ('<datasources><datasource name="s" kind="tabular" location=".">'
               + "".join(f'<table name="{t}">{fields(t, False)}<file path="{t.lower()}.txt"/></table>'
                         for t in COLLIDING_FIELDS)
               + "</datasource></datasources>")
    schema = ('<schema name="c">' + "".join(f'<table name="{t}">{fields(t, True)}</table>'
                                            for t in COLLIDING_FIELDS) + "</schema>")
    return open_project(*write_project(tmp_path, sources, schema, COLLIDING_FILES))


def _answer(project, sql):
    from medquery.mediator import execute_query

    result = execute_query(project, sql)
    return result.columns, [[term.lexical for term in row] for row in result.rows]


def test_a_join_class_does_not_take_a_selected_field_named_like_a_fresh_variable(colliding_project):
    sql = "SELECT T.fld_0, U.X FROM T, U ON T.ID = U.ID"
    text, _ = convert(parse_sql(sql, colliding_project.schema), colliding_project.schema)
    assert "(?tbl_0 <http://integratedDB/T#ID> ?fld_0_2)" in text
    assert _answer(colliding_project, sql) == (["fld_0", "X"], [["a", "x1"], ["b", "x2"]])


def test_a_table_does_not_take_a_selected_field_named_like_a_table_variable(colliding_project):
    sql = "SELECT T.tbl_0 FROM T"
    text, _ = convert(parse_sql(sql, colliding_project.schema), colliding_project.schema)
    assert text == "SELECT ?tbl_0\nWHERE\n(?tbl_0_2 <http://integratedDB/T#tbl_0> ?tbl_0)\n"
    assert _answer(colliding_project, sql) == (["tbl_0"], [["p"], ["q"]])


def test_a_selected_field_does_not_take_the_qualified_name_of_another(colliding_project):
    sql = "SELECT T.ID, U.ID, V.T_ID FROM T, U, V ON T.ID = U.ID AND U.ID = V.ID"
    _, ast = convert(parse_sql(sql, colliding_project.schema), colliding_project.schema)
    assert [v.name for v in ast.select] == ["T_ID", "U_ID", "T_ID_2"]
    assert _answer(colliding_project, sql) == (["T_ID", "U_ID", "T_ID_2"],
                                               [["1", "1", "v1"], ["2", "2", "v2"]])
