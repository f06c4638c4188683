"""Seeded workload generators, operation streams and oracles.

Each workload writes a two-descriptor project and its data files into a
directory, then hands out an endless, seeded stream of operations. Every
operation carries the answer the benchmark's own oracle expects, computed
from the generated rows without going through ``medquery``:

  fig2_join       hash join of the generated STUDENT and GRADE rows
  combined_chain  first-match dict lookup from student ID to GRADE row
  scan_export     plain filter over the generated rows; extracts are checked
                  against N-Triples lines rendered from the generated rows

Table sizes are fixed counts (never drawn at random), so the work an
operation does depends on the seed only through values and row order.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from functools import partial
from pathlib import Path

NS = "http://integratedDB/"
XSD = "http://www.w3.org/2001/XMLSchema#"


@dataclass(frozen=True)
class Op:
    """One closed-loop request: a query (SQL or RDQL text) or a table extract."""

    kind: str               # "query" or "extract"
    lang: str = ""          # "sql" or "rdql" for queries
    text: str = ""          # query text
    table: str = ""         # integrated table for extracts
    expected: tuple = ()    # sorted answer rows (lexical forms) for queries


def _name(rng: random.Random) -> str:
    return "".join(rng.choice(string.ascii_letters) for _ in range(rng.randint(3, 8)))


def _tabular(header: str, rows) -> str:
    return "".join(line + "\n" for line in [header] + ["|".join(map(str, r)) for r in rows])


def _field(name: str, dtype: str, source: str, table: str) -> str:
    return (f'    <field name="{name}" type="{dtype}" source="{source}" '
            f'sourcetable="{table}" sourcefield="{name}"/>\n')


def _ntriple(table: str, row: int, field: str, lexical, dtype: str) -> str:
    return (f"<{NS}{table}/row/{row}> <{NS}{table}#{field}> "
            f'"{lexical}"^^<{XSD}{dtype}> .')


def _extract(table: str):
    return lambda rng: Op("extract", table=table)


class Workload:
    name = ""

    def write(self, directory: Path) -> tuple[Path, Path]:
        for file_name, text in self.files().items():
            (directory / file_name).write_text(text, encoding="utf-8")
        sources, schema = directory / "sources.xml", directory / "schema.xml"
        sources.write_text(self.sources_xml(), encoding="utf-8")
        schema.write_text(self.schema_xml(), encoding="utf-8")
        return sources, schema

    def ops(self, seed: int):
        """The seeded, endless op stream: a round robin over ``op_makers``, so the
        op mix is fixed; the same seed always yields the same ops."""
        rng = random.Random(seed)
        makers = self.op_makers()
        while True:
            for make in makers:
                yield make(rng)

    def expected_ntriples(self, table: str) -> list[str]:
        """Sorted N-Triples lines an extract of ``table`` must produce."""
        raise NotImplementedError

    def files(self) -> dict[str, str]:
        raise NotImplementedError

    def sources_xml(self) -> str:
        raise NotImplementedError

    def schema_xml(self) -> str:
        raise NotImplementedError

    def op_makers(self):
        raise NotImplementedError


# --- Fig. 2: two tabular sources joined on STUDENT.ID = GRADE.STUDENTID ------

_STUDENT_GRADE_SOURCES = """<?xml version="1.0" encoding="UTF-8"?>
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

_ID_EQUALS_STUDENTID = """  <relation kind="equality">
    <lhs><ref source="uni" table="STUDENT" field="ID"/></lhs>
    <rhs><ref source="reg" table="GRADE" field="STUDENTID"/></rhs>
  </relation>
"""


def _students(rng: random.Random, n: int) -> list[tuple[int, str, str, int]]:
    ids = rng.sample(range(1, 100 * n + 1), n)
    return [(i, _name(rng), _name(rng), rng.randint(0, 5000)) for i in ids]


class Fig2Join(Workload):
    """The join is evaluated as a cross product: evaluate and match dominate."""

    name = "fig2_join"
    BASE_STUDENTS = 60

    def __init__(self, seed: int, scale: int = 1):
        rng = random.Random(f"{self.name}/{seed}")
        n = self.BASE_STUDENTS * scale
        self.students = _students(rng, n)
        graded = rng.sample(self.students, round(0.9 * n))
        self.grades = [(s[0], rng.randint(0, 20)) for s in graded]
        rng.shuffle(self.grades)
        self.rows = n

    def files(self):
        return {
            "students.txt": _tabular("ID|FIRSTNAME|LASTNAME|DEBT", self.students),
            "grades.txt": _tabular("STUDENTID|AVERAGE", self.grades),
        }

    def sources_xml(self):
        return _STUDENT_GRADE_SOURCES

    def schema_xml(self):
        return ('<?xml version="1.0" encoding="UTF-8"?>\n<schema name="campus">\n'
                '  <table name="STUDENT">\n'
                + "".join(_field(f, t, "uni", "STUDENT") for f, t in (
                    ("ID", "integer"), ("FIRSTNAME", "string"),
                    ("LASTNAME", "string"), ("DEBT", "integer")))
                + '  </table>\n  <table name="GRADE">\n'
                + _field("STUDENTID", "integer", "reg", "GRADE")
                + _field("AVERAGE", "integer", "reg", "GRADE")
                + "  </table>\n" + _ID_EQUALS_STUDENTID + "</schema>\n")

    def op_makers(self):
        # three queries to one extract, as in every workload
        return [self._query, self._query, self._query, _extract("STUDENT")]

    def expected_ntriples(self, table: str) -> list[str]:
        dtypes = ("integer", "string", "string", "integer")
        return sorted(
            _ntriple("STUDENT", index, field, value, dtype)
            for index, row in enumerate(self.students)
            for field, value, dtype in zip(("ID", "FIRSTNAME", "LASTNAME", "DEBT"), row, dtypes)
        )

    def _query(self, rng: random.Random) -> Op:
        threshold = rng.randint(0, 5000)
        text = ("SELECT STUDENT.FIRSTNAME, STUDENT.LASTNAME, GRADE.AVERAGE, STUDENT.DEBT "
                "FROM STUDENT, GRADE ON STUDENT.ID=GRADE.STUDENTID "
                f"WHERE STUDENT.DEBT>{threshold}")
        by_id = {s[0]: s for s in self.students}
        expected = sorted(
            (s[1], s[2], str(average), str(s[3]))
            for sid, average in self.grades
            if (s := by_id.get(sid)) is not None and s[3] > threshold
        )
        return Op("query", "sql", text, expected=tuple(expected))


# --- COMBINED: one integrated table reaching GRADE through an equality chain --


class CombinedChain(Workload):
    """Every row follows the STUDENT-to-GRADE chain: materialization dominates."""

    name = "combined_chain"
    BASE_STUDENTS = 240

    def __init__(self, seed: int, scale: int = 1):
        rng = random.Random(f"{self.name}/{seed}")
        n = self.BASE_STUDENTS * scale
        self.students = _students(rng, n)
        matched = rng.sample(self.students, round(0.9 * n))
        doubled = matched[:round(0.05 * n)]
        self.grades = [(s[0], rng.randint(0, 20)) for s in matched + doubled]
        rng.shuffle(self.grades)
        self.rows = n

    def files(self):
        return {
            "students.txt": _tabular("ID|FIRSTNAME|LASTNAME|DEBT", self.students),
            "grades.txt": _tabular("STUDENTID|AVERAGE", self.grades),
        }

    def sources_xml(self):
        return _STUDENT_GRADE_SOURCES

    def schema_xml(self):
        return ('<?xml version="1.0" encoding="UTF-8"?>\n<schema name="campus">\n'
                '  <table name="STUDENT">\n'
                + _field("FIRSTNAME", "string", "uni", "STUDENT")
                + _field("AVERAGE", "integer", "reg", "GRADE")
                + "  </table>\n" + _ID_EQUALS_STUDENTID + "</schema>\n")

    def op_makers(self):
        return [self._query, self._query, self._query, _extract("STUDENT")]

    def expected_ntriples(self, table: str) -> list[str]:
        first = self._first_average()
        lines = []
        for index, (sid, firstname, _, _) in enumerate(self.students):
            lines.append(_ntriple("STUDENT", index, "FIRSTNAME", firstname, "string"))
            if sid in first:  # an unmatched chain leaves the cell, and its triple, missing
                lines.append(_ntriple("STUDENT", index, "AVERAGE", first[sid], "integer"))
        return sorted(lines)

    def _first_average(self) -> dict[int, int]:
        first: dict[int, int] = {}
        for sid, average in self.grades:
            first.setdefault(sid, average)
        return first

    def _query(self, rng: random.Random) -> Op:
        threshold = rng.randint(0, 20)
        text = ("SELECT STUDENT.FIRSTNAME, STUDENT.AVERAGE FROM STUDENT "
                f"WHERE STUDENT.AVERAGE>{threshold}")
        first = self._first_average()
        expected = sorted(
            (s[1], str(first[s[0]]))
            for s in self.students
            if s[0] in first and first[s[0]] > threshold
        )
        return Op("query", "sql", text, expected=tuple(expected))


# --- scans and extracts over a file, a view over it and an XML document -------


class ScanExport(Workload):
    """No join and no chain: time spreads over fetch, build_triples, evaluate and export."""

    name = "scan_export"
    BASE_ROWS = 600
    VIEW_FLOOR = 2000

    def __init__(self, seed: int, scale: int = 1):
        rng = random.Random(f"{self.name}/{seed}")
        n = self.BASE_ROWS * scale
        ids = rng.sample(range(1, 100 * n + 1), n)
        # exactly half the students are debtors, so the view has a fixed size
        debts = ([rng.randint(0, self.VIEW_FLOOR) for _ in range(n // 2)]
                 + [rng.randint(self.VIEW_FLOOR + 1, 5000) for _ in range(n - n // 2)])
        rng.shuffle(debts)
        self.students = [(i, _name(rng), d) for i, d in zip(ids, debts)]
        codes = rng.sample(range(1000, 1000 + 100 * n), n)
        self.courses = [(f"C{c}", _name(rng), rng.randint(1, 10)) for c in codes]
        self.rows = n

    def files(self):
        records = "".join(
            f"  <course><code>{c}</code><title>{t}</title><credits>{k}</credits></course>\n"
            for c, t, k in self.courses
        )
        return {
            "students.txt": _tabular("ID|NAME|DEBT", self.students),
            "courses.xml": f'<?xml version="1.0" encoding="UTF-8"?>\n<courses>\n{records}</courses>\n',
        }

    def sources_xml(self):
        return f"""<?xml version="1.0" encoding="UTF-8"?>
<datasources>
  <datasource name="uni" kind="tabular" location=".">
    <table name="STUDENT">
      <field name="ID" type="integer"/>
      <field name="NAME" type="string"/>
      <field name="DEBT" type="integer"/>
      <file path="students.txt"/>
    </table>
    <table name="DEBTOR">
      <field name="ID" type="integer"/>
      <field name="NAME" type="string"/>
      <field name="DEBT" type="integer"/>
      <view>SELECT ID, NAME, DEBT FROM STUDENT WHERE DEBT &gt; {self.VIEW_FLOOR}</view>
    </table>
  </datasource>
  <datasource name="cat" kind="xml" location="courses.xml">
    <table name="COURSE">
      <field name="CODE" type="string"/>
      <field name="TITLE" type="string"/>
      <field name="CREDITS" type="integer"/>
      <xmlbinding record="course">
        <map field="CODE" element="code"/>
        <map field="TITLE" element="title"/>
        <map field="CREDITS" element="credits"/>
      </xmlbinding>
    </table>
  </datasource>
</datasources>
"""

    def schema_xml(self):
        student = (("ID", "integer"), ("NAME", "string"), ("DEBT", "integer"))
        course = (("CODE", "string"), ("TITLE", "string"), ("CREDITS", "integer"))
        body = "".join(
            f'  <table name="{table}">\n'
            + "".join(_field(f, t, source, table) for f, t in fields)
            + "  </table>\n"
            for table, source, fields in (
                ("STUDENT", "uni", student), ("DEBTOR", "uni", student), ("COURSE", "cat", course))
        )
        return f'<?xml version="1.0" encoding="UTF-8"?>\n<schema name="campus">\n{body}</schema>\n'

    def _debtors(self):
        return [s for s in self.students if s[2] > self.VIEW_FLOOR]

    def _rows(self, table: str):
        return {"STUDENT": self.students, "DEBTOR": self._debtors(), "COURSE": self.courses}[table]

    def op_makers(self):
        # three queries to one extract; every table is queried and extracted
        return [
            partial(self._debt_scan, "STUDENT", "sql"),
            partial(self._credit_scan, "rdql"),
            partial(self._debt_scan, "DEBTOR", "sql"),
            _extract("STUDENT"),
            partial(self._credit_scan, "sql"),
            partial(self._debt_scan, "STUDENT", "rdql"),
            partial(self._debt_scan, "DEBTOR", "rdql"),
            _extract("COURSE"),
            partial(self._debt_scan, "STUDENT", "sql"),
            partial(self._credit_scan, "rdql"),
            partial(self._debt_scan, "DEBTOR", "sql"),
            _extract("DEBTOR"),
        ]

    def _debt_scan(self, table: str, lang: str, rng: random.Random) -> Op:
        threshold = rng.randint(4700, 4900)
        if lang == "sql":
            text = (f"SELECT {table}.ID, {table}.NAME FROM {table} "
                    f"WHERE {table}.DEBT>{threshold}")
        else:
            text = (f"SELECT ?ID, ?NAME WHERE (?r <{NS}{table}#ID> ?ID), "
                    f"(?r <{NS}{table}#NAME> ?NAME), (?r <{NS}{table}#DEBT> ?DEBT) "
                    f"AND ?DEBT > {threshold}")
        expected = sorted((str(i), name) for i, name, debt in self._rows(table) if debt > threshold)
        return Op("query", lang, text, expected=tuple(expected))

    def _credit_scan(self, lang: str, rng: random.Random) -> Op:
        credits = rng.randint(1, 10)
        if lang == "sql":
            text = f"SELECT COURSE.CODE, COURSE.TITLE FROM COURSE WHERE COURSE.CREDITS={credits}"
        else:
            text = (f"SELECT ?CODE, ?TITLE WHERE (?c <{NS}COURSE#CODE> ?CODE), "
                    f"(?c <{NS}COURSE#TITLE> ?TITLE), (?c <{NS}COURSE#CREDITS> ?CREDITS) "
                    f"AND ?CREDITS = {credits}")
        expected = sorted((code, title) for code, title, k in self.courses if k == credits)
        return Op("query", lang, text, expected=tuple(expected))

    def expected_ntriples(self, table: str) -> list[str]:
        names = ("CODE", "TITLE", "CREDITS") if table == "COURSE" else ("ID", "NAME", "DEBT")
        dtypes = ("string", "string", "integer") if table == "COURSE" else (
            "integer", "string", "integer")
        return sorted(
            _ntriple(table, index, field, value, dtype)
            for index, row in enumerate(self._rows(table))
            for field, value, dtype in zip(names, row, dtypes)
        )


WORKLOADS = {w.name: w for w in (Fig2Join, CombinedChain, ScanExport)}
