"""Shared fixtures: the two-source student/grade project in several layouts."""

from __future__ import annotations

import pytest

from medquery.descriptors import parse_project

FIG2_SQL = """SELECT STUDENT.FIRSTNAME,
       STUDENT.LASTNAME,
       GRADE.AVERAGE,
       STUDENT.DEBT
FROM STUDENT, GRADE
ON STUDENT.ID=GRADE.STUDENTID
WHERE STUDENT.DEBT>2000"""

FIG2_RDQL = """SELECT ?FIRSTNAME, ?LASTNAME, ?AVERAGE, ?DEBT
WHERE
(?tbl_0 <http://integratedDB/STUDENT#FIRSTNAME> ?FIRSTNAME),
(?tbl_0 <http://integratedDB/STUDENT#LASTNAME> ?LASTNAME),
(?tbl_1 <http://integratedDB/GRADE#AVERAGE> ?AVERAGE),
(?tbl_0 <http://integratedDB/STUDENT#DEBT> ?DEBT),
(?tbl_0 <http://integratedDB/STUDENT#ID> ?fld_0),
(?tbl_1 <http://integratedDB/GRADE#STUDENTID> ?fld_0)
AND ?DEBT > 2000
"""

# what ``medquery extract --table STUDENT`` prints for the project write_project writes
FIG2_STUDENT_NTRIPLES = """\
<http://integratedDB/STUDENT/row/0> <http://integratedDB/STUDENT#DEBT> "1500"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://integratedDB/STUDENT/row/0> <http://integratedDB/STUDENT#FIRSTNAME> "Ann"^^<http://www.w3.org/2001/XMLSchema#string> .
<http://integratedDB/STUDENT/row/0> <http://integratedDB/STUDENT#ID> "1"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://integratedDB/STUDENT/row/0> <http://integratedDB/STUDENT#LASTNAME> "K"^^<http://www.w3.org/2001/XMLSchema#string> .
<http://integratedDB/STUDENT/row/1> <http://integratedDB/STUDENT#DEBT> "2500"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://integratedDB/STUDENT/row/1> <http://integratedDB/STUDENT#FIRSTNAME> "Bob"^^<http://www.w3.org/2001/XMLSchema#string> .
<http://integratedDB/STUDENT/row/1> <http://integratedDB/STUDENT#ID> "2"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://integratedDB/STUDENT/row/1> <http://integratedDB/STUDENT#LASTNAME> "L"^^<http://www.w3.org/2001/XMLSchema#string> .
"""

# everything the RDF view holds about STUDENT's first row, and what ``medquery query --lang rdql``
# prints for it on the project write_project writes
FIG2_ROW_RDQL = "SELECT ?p, ?o WHERE (<http://integratedDB/STUDENT/row/0> ?p ?o)"
FIG2_ROW_ANSWER = """\
p|o
http://integratedDB/STUDENT#DEBT|1500
http://integratedDB/STUDENT#FIRSTNAME|Ann
http://integratedDB/STUDENT#ID|1
http://integratedDB/STUDENT#LASTNAME|K
"""

SOURCES_XML = """<?xml version="1.0" encoding="UTF-8"?>
<datasources>
  <datasource name="uni" kind="tabular" location=".">
    <table name="STUDENT">
      <field name="ID" type="integer"/>
      <field name="FIRSTNAME" type="string"/>
      <field name="LASTNAME" type="string"/>
      <field name="DEBT" type="integer"/>
      <file path="students.txt"/>
    </table>
  </datasource>
  <datasource name="reg" kind="tabular" location=".">
    <table name="GRADE">
      <field name="STUDENTID" type="integer"/>
      <field name="AVERAGE" type="integer"/>
      <file path="grades.txt"/>
    </table>
  </datasource>
</datasources>
"""

SCHEMA_XML = """<?xml version="1.0" encoding="UTF-8"?>
<schema name="campus">
  <table name="STUDENT">
    <field name="ID" type="integer" source="uni" sourcetable="STUDENT" sourcefield="ID"/>
    <field name="FIRSTNAME" type="string" source="uni" sourcetable="STUDENT" sourcefield="FIRSTNAME"/>
    <field name="LASTNAME" type="string" source="uni" sourcetable="STUDENT" sourcefield="LASTNAME"/>
    <field name="DEBT" type="integer" source="uni" sourcetable="STUDENT" sourcefield="DEBT"/>
  </table>
  <table name="GRADE">
    <field name="STUDENTID" type="integer" source="reg" sourcetable="GRADE" sourcefield="STUDENTID"/>
    <field name="AVERAGE" type="integer" source="reg" sourcetable="GRADE" sourcefield="AVERAGE"/>
  </table>
  <relation kind="equality">
    <lhs><ref source="uni" table="STUDENT" field="ID"/></lhs>
    <rhs><ref source="reg" table="GRADE" field="STUDENTID"/></rhs>
  </relation>
</schema>
"""

# single integrated table drawing from both sources; FIRSTNAME is the master field
COMBINED_SCHEMA_XML = """<?xml version="1.0" encoding="UTF-8"?>
<schema name="campus">
  <table name="STUDENT">
    <field name="FIRSTNAME" type="string" source="uni" sourcetable="STUDENT" sourcefield="FIRSTNAME"/>
    <field name="AVERAGE" type="integer" source="reg" sourcetable="GRADE" sourcefield="AVERAGE"/>
  </table>
  <relation kind="equality">
    <lhs><ref source="uni" table="STUDENT" field="ID"/></lhs>
    <rhs><ref source="reg" table="GRADE" field="STUDENTID"/></rhs>
  </relation>
</schema>
"""

TWO_STUDENTS = "ID|FIRSTNAME|LASTNAME|DEBT\n1|Ann|K|1500\n2|Bob|L|2500\n"
TWO_GRADES = "STUDENTID|AVERAGE\n1|17\n2|12\n"

THREE_STUDENTS = "ID|FIRSTNAME|LASTNAME|DEBT\n1|Ann|K|1500\n2|Bob|L|2500\n3|Cem|M|900\n"
SPARSE_GRADES = "STUDENTID|AVERAGE\n1|17\n3|12\n"


def write_project(tmp_path, sources_xml=SOURCES_XML, schema_xml=SCHEMA_XML,
                  files=None):
    files = files if files is not None else {
        "students.txt": TWO_STUDENTS, "grades.txt": TWO_GRADES,
    }
    for name, content in files.items():
        (tmp_path / name).write_text(content, encoding="utf-8")
    sources_path = tmp_path / "sources.xml"
    schema_path = tmp_path / "schema.xml"
    sources_path.write_text(sources_xml, encoding="utf-8")
    schema_path.write_text(schema_xml, encoding="utf-8")
    return sources_path, schema_path


@pytest.fixture
def fig2_paths(tmp_path):
    return write_project(tmp_path)


@pytest.fixture
def fig2_project(fig2_paths):
    return parse_project(*fig2_paths)


@pytest.fixture
def combined_paths(tmp_path):
    """Master table with a sparsely matched foreign table (ID 2 has no grade)."""
    return write_project(
        tmp_path, schema_xml=COMBINED_SCHEMA_XML,
        files={"students.txt": THREE_STUDENTS, "grades.txt": SPARSE_GRADES},
    )


@pytest.fixture
def combined_project(combined_paths):
    return parse_project(*combined_paths)
