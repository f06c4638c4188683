"""The library pipeline against the relational oracle on generated projects."""

import random
import re
import xml.etree.ElementTree as ET

import pytest

from medquery.descriptors import parse_project
from medquery.dtypes import Dtype
from medquery.errors import UnsupportedSqlError
from medquery.extraction import materialize_required
from medquery.iris import subject_iri
from medquery.mediator import execute_query, open_project
from medquery.sql_frontend import parse_sql
from medquery.sql_to_rdql import convert
from medquery.triple_store import Iri, TypedLiteral, format_term

from conftest import write_project
from generators import random_data_files, random_project, random_sql_text
from oracles import relational_eval, result_counter

SEEDS_PER_BLOCK = 20
QUERIES_PER_PROJECT = 5


def _unreferenced_from_tables(text):
    """FROM tables of a generated query that no ``T.F`` in it names."""
    from_list = re.search(r" FROM (.*?)(?: ON | WHERE |$)", text).group(1)
    return [t for t in from_list.split(", ") if not re.search(rf"\b{t}\.", text)]


def _rewritten(path):
    """Half the rows of a generated data file, the rest in reverse order."""
    if path.suffix == ".xml":
        root = ET.fromstring(path.read_bytes())
        for record in list(root)[::2]:
            root.remove(record)
        return ET.tostring(root)
    header, *rows = path.read_bytes().splitlines(keepends=True)
    return b"".join([header, *rows[::-2]])


@pytest.mark.parametrize("first_seed", range(0, 200, SEEDS_PER_BLOCK))
def test_execute_query_agrees_with_relational_eval(tmp_path, first_seed):
    # each query runs on the original data files, then on rewritten ones, all
    # through one project; the oracle reads each version through a fresh one
    checked = rejected = changed = 0
    for seed in range(first_seed, first_seed + SEEDS_PER_BLOCK):
        rng = random.Random(seed)
        generated = random_project(rng, tmp_path / str(seed))
        project = generated.project
        data_files = [p for p in generated.sources_path.parent.iterdir()
                      if p not in (generated.sources_path, generated.schema_path)]
        versions = [{p: p.read_bytes() for p in data_files},
                    {p: _rewritten(p) for p in data_files}]
        for _ in range(QUERIES_PER_PROJECT):
            text = random_sql_text(rng, project)
            unreferenced = _unreferenced_from_tables(text)
            if unreferenced:
                with pytest.raises(UnsupportedSqlError, match=unreferenced[0]):
                    execute_query(project, text)
                rejected += 1
                continue
            query = parse_sql(text, project.schema)
            answers = []
            for version in versions:
                for path, content in version.items():
                    path.write_bytes(content)
                fresh = parse_project(generated.sources_path, generated.schema_path)
                expected = relational_eval(query, materialize_required(fresh, query.from_tables).tables)
                answers.append(result_counter(execute_query(project, text)))
                assert answers[-1] == expected, (seed, text)
            checked += 1
            changed += answers[0] != answers[1]
    assert checked > rejected
    assert changed > 0  # the rewrites reach the answers


def test_a_warm_variable_predicate_query_hashes_per_predicate_and_answer(tmp_path, monkeypatch):
    """A query whose predicate is a variable, with a known subject and then a known object, reads
    the entries that hold that term: its term hashes are bounded by the predicates and the
    answers, not by the triples, although each query joins the memoized segments afresh."""
    rng = random.Random(14)  # tabular and XML sources, one table over a two-hop chain
    generated = random_project(rng, tmp_path, n_groups=3)
    project = generated.project
    for path, text in random_data_files(rng, project, n_rows=300).items():
        path.write_text(text, encoding="utf-8")
    predicates = sum(len(table.fields) for table in project.schema.tables)
    subject = f"<{subject_iri(project.schema.tables[0].name, 0)}>"
    row = execute_query(project, f"SELECT ?p, ?o WHERE ({subject} ?p ?o)", "rdql").rows
    assert row  # the row has cells
    queries = [f"SELECT ?p, ?o WHERE ({subject} ?p ?o)",
               f"SELECT ?s, ?p WHERE (?s ?p {format_term(row[-1][1])})"]
    for text in queries:
        warm = execute_query(project, text, "rdql")
        hashes = 0

        def counting(original):
            def hash_term(term):
                nonlocal hashes
                hashes += 1
                return original(term)
            return hash_term

        with monkeypatch.context() as patched:
            for cls in (Iri, TypedLiteral):
                patched.setattr(cls, "__hash__", counting(cls.__hash__))
            result = execute_query(project, text, "rdql")
        assert result == warm and len(result.rows) > 0
        assert hashes <= 4 * (predicates + len(result.rows)), (text, hashes, predicates, len(result.rows))


APOSTROPHE_SOURCES = """<datasources>
  <datasource name="web" kind="xml" location="feed.xml">
    <table name="PERSON">
      <field name="NAME" type="string"/>
      <xmlbinding record="person"><map field="NAME" element="name"/></xmlbinding>
    </table>
  </datasource>
  <datasource name="uni" kind="tabular" location=".">
    <table name="STUDENT">
      <field name="ID" type="integer"/>
      <field name="NAME" type="string"/>
      <file path="students.txt"/>
    </table>
    <table name="IRISH">
      <field name="ID" type="integer"/>
      <field name="NAME" type="string"/>
      <view>SELECT ID, NAME FROM STUDENT WHERE NAME = 'O''Brien'</view>
    </table>
  </datasource>
</datasources>
"""
APOSTROPHE_SCHEMA = """<schema name="s">
  <table name="PERSON">
    <field name="NAME" type="string" source="web" sourcetable="PERSON" sourcefield="NAME"/>
  </table>
  <table name="IRISH">
    <field name="ID" type="integer" source="uni" sourcetable="IRISH" sourcefield="ID"/>
    <field name="NAME" type="string" source="uni" sourcetable="IRISH" sourcefield="NAME"/>
  </table>
</schema>
"""


def test_sql_names_a_value_holding_an_apostrophe(tmp_path):
    names = ["O'Brien", "OBrien", "O''Brien", "O'"]
    feed = "".join(f"<person><name>{name}</name></person>" for name in names)
    project = open_project(*write_project(tmp_path, APOSTROPHE_SOURCES, APOSTROPHE_SCHEMA, {
        "feed.xml": f"<people>{feed}</people>",
        "students.txt": "ID|NAME\n" + "".join(f"{i}|{name}\n" for i, name in enumerate(names)),
    }))
    sql = execute_query(project, "SELECT PERSON.NAME FROM PERSON WHERE PERSON.NAME = 'O''Brien'")
    rdql = execute_query(project, "SELECT ?NAME WHERE (?r <http://integratedDB/PERSON#NAME> ?NAME) "
                                  "AND ?NAME = \"O'Brien\"", "rdql")
    assert sql.rows == rdql.rows == [(TypedLiteral("O'Brien", Dtype.STRING),)]
    # the view's filter doubles the quote too, and fetches only that row
    irish = execute_query(project, "SELECT IRISH.ID, IRISH.NAME FROM IRISH")
    assert irish.rows == [(TypedLiteral("0", Dtype.INTEGER), TypedLiteral("O'Brien", Dtype.STRING))]


MIXED_SOURCES = """<datasources>
  <datasource name="a" kind="tabular" location=".">
    <table name="S">
      <field name="ID" type="integer"/>
      <field name="N" type="string"/>
      <file path="s.txt"/>
    </table>
    <table name="G">
      <field name="SID" type="decimal"/>
      <field name="AV" type="integer"/>
      <file path="g.txt"/>
    </table>
  </datasource>
</datasources>
"""
MIXED_SCHEMA = """<schema name="s">
  <table name="S">
    <field name="ID" type="integer" source="a" sourcetable="S" sourcefield="ID"/>
    <field name="N" type="string" source="a" sourcetable="S" sourcefield="N"/>
  </table>
  <table name="G">
    <field name="SID" type="decimal" source="a" sourcetable="G" sourcefield="SID"/>
    <field name="AV" type="integer" source="a" sourcetable="G" sourcefield="AV"/>
  </table>
</schema>
"""


@pytest.mark.parametrize("sql, expected, warnings", [
    # 3 = 3.0 and 5 = 5.0 by value; 4 meets 4.5 and no other SID
    ("SELECT S.ID, G.AV FROM S, G WHERE S.ID = G.SID", [("3", "12"), ("5", "9")], 0),
    ("SELECT S.N, G.AV FROM S, G WHERE S.ID = G.SID", [("Ann", "12"), ("Cem", "9")], 0),
    ("SELECT S.ID, G.SID FROM S, G WHERE S.ID = G.SID", [("3", "3.0"), ("5", "5.0")], 0),
    # a string meets an integer in each of the 3 x 3 pairs, and never compares
    ("SELECT S.ID FROM S, G WHERE S.N = G.AV", [], 9),
])
def test_a_join_of_two_dtypes_compares_by_value(tmp_path, sql, expected, warnings):
    project = open_project(*write_project(tmp_path, MIXED_SOURCES, MIXED_SCHEMA, {
        "s.txt": "ID|N\n3|Ann\n4|Bob\n5|Cem\n", "g.txt": "SID|AV\n3.0|12\n4.5|7\n5.0|9\n"}))
    result = execute_query(project, sql)
    assert sorted(tuple(term.lexical for term in row) for row in result.rows) == expected
    assert result.cross_type_warnings == warnings
    # the SQL answer is the RDQL answer of its conversion
    rdql, _ = convert(parse_sql(sql, project.schema), project.schema)
    assert execute_query(project, rdql, "rdql") == result
