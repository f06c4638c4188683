import os
import random
import shlex
import time
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

import pytest

from medquery import descriptors, dtypes, sql_frontend, wrappers
from medquery.cli import main
from medquery.descriptors import SourceFieldDef, parse_project
from medquery.dtypes import Dtype, canonicalize, is_canonical
from medquery.errors import IoError, TypeCoercionError, UnknownTableError
from medquery.mediator import execute_query, open_project
from medquery.schema_check import check_schema
from medquery.triple_store import TypedLiteral
from medquery.wrappers import AccessLog, fetch_table

from conftest import SOURCES_XML, TWO_GRADES, TWO_STUDENTS, write_project
from generators import random_project

XML_SOURCES = """<datasources>
  <datasource name="web" kind="xml" location="students.xml">
    <table name="STUDENT">
      <field name="ID" type="integer"/>
      <field name="NAME" type="string"/>
      <xmlbinding record="student">
        <map field="ID" element="id"/>
        <map field="NAME" element="name"/>
      </xmlbinding>
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


def test_tabular_fetch_preserves_file_order(fig2_project):
    log = AccessLog()
    table = fetch_table(fig2_project, "uni", "STUDENT", log)
    assert [f.name for f in table.fields] == ["ID", "FIRSTNAME", "LASTNAME", "DEBT"]
    assert table.rows == (
        (TypedLiteral("1", Dtype.INTEGER), TypedLiteral("Ann", Dtype.STRING),
         TypedLiteral("K", Dtype.STRING), TypedLiteral("1500", Dtype.INTEGER)),
        (TypedLiteral("2", Dtype.INTEGER), TypedLiteral("Bob", Dtype.STRING),
         TypedLiteral("L", Dtype.STRING), TypedLiteral("2500", Dtype.INTEGER)),
    )
    assert log.entries == (("uni", "STUDENT"),)


def test_fetch_is_deterministic(fig2_project):
    first = fetch_table(fig2_project, "reg", "GRADE")
    second = fetch_table(fig2_project, "reg", "GRADE")
    assert first == second


def test_columns_are_matched_by_header_name(tmp_path):
    paths = write_project(tmp_path, files={
        "students.txt": "DEBT|ID|LASTNAME|FIRSTNAME\n1500|1|K|Ann\n",
        "grades.txt": "STUDENTID|AVERAGE\n",
    })
    project = parse_project(*paths)
    table = fetch_table(project, "uni", "STUDENT")
    assert [f.name for f in table.fields] == ["ID", "FIRSTNAME", "LASTNAME", "DEBT"]
    assert table.rows[0][0] == TypedLiteral("1", Dtype.INTEGER)


def test_header_mismatch_is_an_io_error(tmp_path):
    paths = write_project(tmp_path, files={
        "students.txt": "ID|FIRSTNAME\n", "grades.txt": "STUDENTID|AVERAGE\n",
    })
    project = parse_project(*paths)
    with pytest.raises(IoError):
        fetch_table(project, "uni", "STUDENT")


def test_bad_cell_names_row_and_field(tmp_path):
    paths = write_project(tmp_path, files={
        "students.txt": "ID|FIRSTNAME|LASTNAME|DEBT\nabc|Ann|K|1\n",
        "grades.txt": "STUDENTID|AVERAGE\n",
    })
    project = parse_project(*paths)
    with pytest.raises(TypeCoercionError) as info:
        fetch_table(project, "uni", "STUDENT")
    assert info.value.row == 1
    assert info.value.field == "ID"
    assert info.value.lexical == "abc"


def test_empty_cell_is_missing(tmp_path):
    paths = write_project(tmp_path, files={
        "students.txt": "ID|FIRSTNAME|LASTNAME|DEBT\n1||K|2000\n",
        "grades.txt": "STUDENTID|AVERAGE\n",
    })
    project = parse_project(*paths)
    table = fetch_table(project, "uni", "STUDENT")
    assert table.rows[0][1] is None


def test_unknown_table_and_source(fig2_project):
    with pytest.raises(UnknownTableError):
        fetch_table(fig2_project, "uni", "NOPE")
    with pytest.raises(UnknownTableError):
        fetch_table(fig2_project, "ghost", "STUDENT")


def _xml_project(tmp_path, doc, sources=XML_SOURCES):
    return parse_project(*write_project(
        tmp_path, sources, XML_SCHEMA, files={"students.xml": doc},
    ))


def test_xml_binding_single_record(tmp_path):
    project = _xml_project(
        tmp_path, "<students><student><id>7</id></student></students>",
    )
    table = fetch_table(project, "web", "STUDENT")
    assert len(table.rows) == 1
    assert table.rows[0][0] == TypedLiteral("7", Dtype.INTEGER)
    assert table.rows[0][1] is None  # name element absent


def test_xml_rows_follow_document_order(tmp_path):
    doc = """<students>
      <student><id>1</id><name>Ann</name></student>
      <student><name>Bob</name><id>2</id></student>
    </students>"""
    table = fetch_table(_xml_project(tmp_path, doc), "web", "STUDENT")
    assert [row[0].lexical for row in table.rows] == ["1", "2"]
    assert [row[1].lexical for row in table.rows] == ["Ann", "Bob"]


def test_xml_coercion_error(tmp_path):
    doc = "<students><student><id>seven</id></student></students>"
    with pytest.raises(TypeCoercionError):
        fetch_table(_xml_project(tmp_path, doc), "web", "STUDENT")


def test_xml_transform_runs_external_command(tmp_path):
    sources = XML_SOURCES.replace(
        '<xmlbinding record="student">',
        '<xmlbinding record="student" transform="sed s/7/8/">',
    )
    doc = "<students><student><id>7</id></student></students>"
    project = _xml_project(tmp_path, doc, sources=sources)
    table = fetch_table(project, "web", "STUDENT")
    assert table.rows[0][0] == TypedLiteral("8", Dtype.INTEGER)


def test_failing_transform_is_io_error(tmp_path):
    sources = XML_SOURCES.replace(
        '<xmlbinding record="student">',
        '<xmlbinding record="student" transform="medquery-no-such-tool">',
    )
    doc = "<students/>"
    with pytest.raises(IoError):
        fetch_table(_xml_project(tmp_path, doc, sources=sources), "web", "STUDENT")


def test_transform_past_its_timeout_is_io_error(tmp_path, monkeypatch):
    monkeypatch.setattr(wrappers, "_TRANSFORM_TIMEOUT_S", 0.2)
    sources = XML_SOURCES.replace(
        '<xmlbinding record="student">',
        '<xmlbinding record="student" transform="sleep 5">',
    )
    project = _xml_project(tmp_path, "<students/>", sources=sources)
    started = time.monotonic()
    message = r"table 'STUDENT': transform 'sleep 5' timed out after 0\.2 s"
    with pytest.raises(IoError, match=message):
        fetch_table(project, "web", "STUDENT")
    assert time.monotonic() - started < 4


# --- views -------------------------------------------------------------------

VIEW_SOURCES = """<datasources>
  <datasource name="uni" kind="tabular" location=".">
    <table name="STUDENT">
      <field name="ID" type="integer"/>
      <field name="DEBT" type="integer"/>
      <file path="students.txt"/>
    </table>
    <table name="RICH">
      <field name="ID" type="integer"/>
      <view>SELECT ID FROM STUDENT WHERE DEBT &gt; 2000</view>
    </table>
  </datasource>
</datasources>
"""

VIEW_SCHEMA = """<schema name="s">
  <table name="RICH">
    <field name="ID" type="integer" source="uni" sourcetable="RICH" sourcefield="ID"/>
  </table>
</schema>
"""


@pytest.fixture
def view_project(tmp_path):
    files = {"students.txt": "ID|DEBT\n1|1500\n2|2500\n3|3000\n"}
    return parse_project(*write_project(tmp_path, VIEW_SOURCES, VIEW_SCHEMA, files))


def _fetch_view(tmp_path, view_sql):
    """Fetch the view ``RICH`` of VIEW_SOURCES, redefined as ``view_sql``."""
    sources = VIEW_SOURCES.replace("SELECT ID FROM STUDENT WHERE DEBT &gt; 2000", escape(view_sql))
    files = {"students.txt": "ID|DEBT\n1|1500\n2|2500\n3|3000\n"}
    return fetch_table(parse_project(*write_project(tmp_path, sources, VIEW_SCHEMA, files)),
                       "uni", "RICH")


def test_view_projection_only(tmp_path):
    table = _fetch_view(tmp_path, "SELECT ID FROM STUDENT")
    assert [f.name for f in table.fields] == ["ID"]
    assert [row[0].lexical for row in table.rows] == ["1", "2", "3"]


def test_view_filter_matches_row_scan(view_project):
    # oracle: scan rows by hand -> DEBT in {2500, 3000} passes
    table = fetch_table(view_project, "uni", "RICH")
    assert [row[0].lexical for row in table.rows] == ["2", "3"]


def test_view_filter_on_unknown_field_raises_when_no_row_reaches_it(tmp_path):
    with pytest.raises(IoError):
        _fetch_view(tmp_path, "SELECT ID FROM STUDENT WHERE DEBT > 9000 AND NOPE = 1")


def test_view_join_is_unsupported(tmp_path):
    with pytest.raises(IoError):
        _fetch_view(tmp_path, "SELECT ID FROM STUDENT, GRADE ON STUDENT.ID=GRADE.ID")


def test_fetch_view_table_logs_view_and_base(view_project):
    log = AccessLog()
    table = fetch_table(view_project, "uni", "RICH", log)
    assert [row[0].lexical for row in table.rows] == ["2", "3"]
    assert log.entries == (("uni", "RICH"), ("uni", "STUDENT"))


def test_view_is_filtered_once_per_base_snapshot(view_project, monkeypatch):
    filtered = []
    view = wrappers._view
    monkeypatch.setattr(wrappers, "_view", lambda *args: filtered.append(1) or view(*args))
    first = fetch_table(view_project, "uni", "RICH")
    assert fetch_table(view_project, "uni", "RICH") is first
    assert len(filtered) == 1
    (Path(view_project.base_dir) / "students.txt").write_text("ID|DEBT\n4|2100\n", encoding="utf-8")
    assert [row[0].lexical for row in fetch_table(view_project, "uni", "RICH").rows] == ["4"]
    assert len(filtered) == 2


def test_view_must_project_declared_fields(tmp_path):
    sources = VIEW_SOURCES.replace(
        "SELECT ID FROM STUDENT WHERE DEBT &gt; 2000",
        "SELECT ID, DEBT FROM STUDENT",
    )
    files = {"students.txt": "ID|DEBT\n1|1500\n"}
    project = parse_project(*write_project(tmp_path, sources, VIEW_SCHEMA, files))
    with pytest.raises(IoError):
        fetch_table(project, "uni", "RICH")


def test_view_cycle_detected(tmp_path):
    sources = """<datasources>
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
    schema = """<schema name="s">
      <table name="A">
        <field name="X" type="integer" source="uni" sourcetable="A" sourcefield="X"/>
      </table>
    </schema>"""
    project = parse_project(*write_project(tmp_path, sources, schema, files={}))
    with pytest.raises(IoError) as info:
        fetch_table(project, "uni", "A")
    assert "cycle" in str(info.value)


def test_a_view_leading_into_a_cycle_fails_there(tmp_path):
    sources = """<datasources>
      <datasource name="uni" kind="tabular" location=".">
        <table name="A">
          <field name="X" type="integer"/>
          <view>SELECT X FROM B</view>
        </table>
        <table name="B">
          <field name="X" type="integer"/>
          <view>SELECT X FROM C</view>
        </table>
        <table name="C">
          <field name="X" type="integer"/>
          <view>SELECT X FROM B</view>
        </table>
      </datasource>
    </datasources>"""
    schema = """<schema name="s">
      <table name="A">
        <field name="X" type="integer" source="uni" sourcetable="A" sourcefield="X"/>
      </table>
    </schema>"""
    project = parse_project(*write_project(tmp_path, sources, schema, files={}))
    src = project.source("uni")
    a = wrappers.source_plan(project, src)["A"]
    assert (a.base.name, a.fault) == ("B", None)
    assert [f.location for f in check_schema(project).errors] == [
        f"datasources/datasource[uni]/table[{name}]" for name in "BC"]
    log = AccessLog()
    with pytest.raises(IoError, match=r"^view reference cycle through 'uni\.B'$"):
        fetch_table(project, "uni", "A", log)
    assert log.entries == (("uni", "A"), ("uni", "B"))


def _view_chain(count: int) -> tuple[str, str]:
    """Descriptors of ``count`` chained views over the file table BASE.

    V0 reads BASE, V1 reads V0, and so on; the integrated table reads the last.
    """
    views = "".join(
        f'<table name="V{i}"><field name="X" type="integer"/>'
        f'<view>SELECT X FROM {f"V{i - 1}" if i else "BASE"}</view></table>\n'
        for i in range(count))
    sources = f"""<datasources><datasource name="s" kind="tabular" location=".">
      <table name="BASE"><field name="X" type="integer"/><file path="base.txt"/></table>
      {views}</datasource></datasources>"""
    schema = f"""<schema name="g"><table name="I">
      <field name="X" type="integer" source="s" sourcetable="V{count - 1}" sourcefield="X"/>
    </table></schema>"""
    return sources, schema


def test_a_long_chain_of_views_checks_and_fetches_in_linear_work(tmp_path, monkeypatch, capsys):
    # deeper than the default recursion limit, so a recursive walk would fail
    count = 2000
    paths = write_project(tmp_path, *_view_chain(count), files={"base.txt": "X\n1\n2\n"})
    assert main(["validate", "--sources", str(paths[0]), "--schema", str(paths[1])]) == 0
    # the mapped last view reads BASE through every other view, so none is unmapped
    assert capsys.readouterr().out == "0 errors, 0 warnings\n"

    parses = []
    parse = sql_frontend.parse_view_select
    monkeypatch.setattr(sql_frontend, "parse_view_select",
                        lambda text: parses.append(text) or parse(text))
    project = parse_project(*paths)
    assert check_schema(project).accepted
    assert len(parses) == count  # each view's SQL once, not once per view it leads to

    log = AccessLog()
    table = fetch_table(project, "s", f"V{count - 1}", log)
    assert [row[0].lexical for row in table.rows] == ["1", "2"]
    assert log.entries == (*(("s", f"V{i}") for i in reversed(range(count))), ("s", "BASE"))
    assert len(parses) == count

    # a warm fetch finds each view's definition in the plan, not by a scan of the source's tables
    lookups = []
    named = descriptors._named
    monkeypatch.setattr(descriptors, "_named",
                        lambda owner, elements, name: lookups.append(name) or named(owner, elements, name))
    assert fetch_table(project, "s", f"V{count - 1}") is table
    assert len(lookups) <= 2


def _equality_chain(count: int) -> tuple[str, str]:
    """Descriptors of file tables T0..T{count-1}, all reading t.txt, joined T0.K = T1.K = ...

    The integrated table takes K from T0 and V from the last table.
    """
    tables = "".join(f'<table name="T{i}"><field name="K" type="integer"/>'
                     f'<field name="V" type="string"/><file path="t.txt"/></table>\n'
                     for i in range(count))
    relations = "".join(
        f'<relation kind="equality"><lhs><ref source="s" table="T{i}" field="K"/></lhs>'
        f'<rhs><ref source="s" table="T{i + 1}" field="K"/></rhs></relation>\n'
        for i in range(count - 1))
    sources = f"""<datasources><datasource name="s" kind="tabular" location=".">
      {tables}</datasource></datasources>"""
    schema = f"""<schema name="g"><table name="I">
      <field name="K" type="integer" source="s" sourcetable="T0" sourcefield="K"/>
      <field name="V" type="string" source="s" sourcetable="T{count - 1}" sourcefield="V"/>
    </table>{relations}</schema>"""
    return sources, schema


@pytest.mark.parametrize("descriptors_of, count, column", [
    (_equality_chain, 2000, "V"), (_view_chain, 4000, "X")])
def test_name_lookups_visit_each_declared_element_a_bounded_number_of_times(
        tmp_path, monkeypatch, descriptors_of, count, column):
    visits = []  # one item per declared element a name lookup visits
    named = descriptors._named

    def counting(*args):  # the arguments end with the elements and the name
        *owner, elements, name = args
        return named(*owner, (visits.append(1) or element for element in elements), name)

    monkeypatch.setattr(descriptors, "_named", counting)
    paths = write_project(tmp_path, *descriptors_of(count), files={"t.txt": "K|V\n1|a\n2|b\n",
                                                                    "base.txt": "X\n1\n2\n"})
    project = open_project(*paths)
    result = execute_query(project, f"SELECT I.{column} FROM I")
    assert [row[0].lexical for row in result.rows] == (["a", "b"] if column == "V" else ["1", "2"])
    declared = (len(project.sources) + len(project.schema.tables)
                + sum(len(t.fields) for t in project.schema.tables)
                + sum(len(s.tables) + sum(len(t.fields) for t in s.tables) for s in project.sources))
    # each owner's index is built once, from its elements: linear in the declarations
    assert len(visits) <= declared <= 3 * count + 5


def test_view_sql_is_parsed_once_per_project(tmp_path, monkeypatch):
    parses = []
    parse = sql_frontend.parse_view_select
    monkeypatch.setattr(sql_frontend, "parse_view_select",
                        lambda text: parses.append(text) or parse(text))
    files = {"students.txt": "ID|DEBT\n1|1500\n2|2500\n3|3000\n"}
    project = open_project(*write_project(tmp_path, VIEW_SOURCES, VIEW_SCHEMA, files))
    for _ in range(5):
        assert [row[0].lexical for row in fetch_table(project, "uni", "RICH").rows] == ["2", "3"]
    assert len(parses) == 1


def test_a_source_plan_is_built_once_per_project_and_only_for_views(tmp_path, monkeypatch):
    searches = []  # each plan built runs one cycle search
    search = wrappers.strong_components
    monkeypatch.setattr(wrappers, "strong_components",
                        lambda edges: searches.append(dict(edges)) or search(edges))
    for directory in ("views", "files"):
        (tmp_path / directory).mkdir()
    files = {"students.txt": "ID|DEBT\n1|1500\n2|2500\n3|3000\n"}
    project = open_project(*write_project(tmp_path / "views", VIEW_SOURCES, VIEW_SCHEMA, files))
    for table in ("RICH", "STUDENT", "RICH"):
        fetch_table(project, "uni", table)
    assert check_schema(project).accepted
    assert searches == [{"RICH": ["STUDENT"]}]

    searches.clear()
    assert check_schema(parse_project(*write_project(tmp_path / "files"))).accepted
    assert searches == []  # a schema over files alone asks for no plan


@pytest.mark.parametrize("seed", range(6))
def test_all_fetched_cells_are_canonical(tmp_path, seed):
    generated = random_project(random.Random(seed), tmp_path / f"g{seed}")
    project = generated.project
    for source in project.sources:
        for tdef in source.tables:
            table = fetch_table(project, source.name, tdef.name)
            for row in table.rows:
                assert len(row) == len(table.fields)
                for cell, fdef in zip(row, table.fields):
                    if cell is not None:
                        assert cell.dtype is fdef.dtype
                        assert is_canonical(cell.lexical, cell.dtype)


# --- line ends and the fetch memo ---------------------------------------------


@pytest.mark.parametrize("eol", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_line_ends_fetch_like_their_lf_twin(tmp_path, eol):
    tables = []
    for name, end in (("lf", "\n"), ("other", eol)):
        (tmp_path / name).mkdir()
        paths = write_project(tmp_path / name, files={"grades.txt": TWO_GRADES})
        (tmp_path / name / "students.txt").write_bytes(TWO_STUDENTS.replace("\n", end).encode())
        tables.append(fetch_table(parse_project(*paths), "uni", "STUDENT"))
    assert len(tables[0].rows) == 2
    assert tables[1] == tables[0]


@pytest.fixture
def student_file(tmp_path):
    """A project over the two-student file, and that file's path."""
    return parse_project(*write_project(tmp_path)), tmp_path / "students.txt"


@pytest.fixture
def parses(monkeypatch):
    """Cells coerced by wrappers from here on, one list entry each.

    ``coerce`` canonicalizes a cell once, through ``TypedLiteral.canonical``."""
    calls = []

    def counting(text, dtype):
        calls.append(text)
        return canonicalize(text, dtype)

    monkeypatch.setattr(dtypes, "canonicalize", counting)
    return calls


def test_unchanged_bytes_are_not_parsed_again(student_file, parses):
    project, path = student_file
    first = fetch_table(project, "uni", "STUDENT")
    assert len(parses) == 8
    assert fetch_table(project, "uni", "STUDENT") is first
    assert len(parses) == 8
    path.write_text(TWO_STUDENTS + "3|Cem|M|900\n", encoding="utf-8")
    assert len(fetch_table(project, "uni", "STUDENT").rows) == 3
    assert len(parses) == 8 + 12


def test_rewrite_keeping_size_and_mtime_is_seen(student_file):
    project, path = student_file
    fetch_table(project, "uni", "STUDENT")
    before = path.stat()
    rewritten = TWO_STUDENTS.replace("Ann", "Amy")
    assert len(rewritten) == len(TWO_STUDENTS)
    path.write_text(rewritten, encoding="utf-8")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert path.stat().st_mtime_ns == before.st_mtime_ns
    table = fetch_table(project, "uni", "STUDENT")
    assert table.rows[0][1] == TypedLiteral("Amy", Dtype.STRING)


def test_failed_fetches_are_not_kept(student_file, parses):
    project, path = student_file
    corrupt = TWO_STUDENTS.replace("2500", "25x0")
    outcomes = []
    for content in (corrupt, corrupt, TWO_STUDENTS, corrupt):
        path.write_text(content, encoding="utf-8")
        parsed_before = len(parses)
        try:
            outcomes.append(len(fetch_table(project, "uni", "STUDENT").rows))
        except TypeCoercionError as exc:
            outcomes.append((exc.row, exc.field))
        assert len(parses) > parsed_before  # each of these bytes is parsed anew
    assert outcomes == [(2, "DEBT"), (2, "DEBT"), 2, (2, "DEBT")]


def test_transform_runs_on_every_fetch(tmp_path):
    # the transform ignores its input: the stored document never changes
    (tmp_path / "out.xml").write_text("<s><student><id>1</id></student></s>", encoding="utf-8")
    command = quoteattr(f"cat {shlex.quote(str(tmp_path / 'out.xml'))}")
    sources = XML_SOURCES.replace(
        '<xmlbinding record="student">', f'<xmlbinding record="student" transform={command}>',
    )
    project = _xml_project(tmp_path, "<students/>", sources=sources)
    assert [row[0].lexical for row in fetch_table(project, "web", "STUDENT").rows] == ["1"]
    (tmp_path / "out.xml").write_text("<s><student><id>2</id></student></s>", encoding="utf-8")
    assert [row[0].lexical for row in fetch_table(project, "web", "STUDENT").rows] == ["2"]


def test_reparsed_project_sees_a_changed_dtype(tmp_path):
    paths = write_project(tmp_path)
    old = parse_project(*paths)
    assert fetch_table(old, "uni", "STUDENT").rows[0][3].dtype is Dtype.INTEGER
    paths[0].write_text(SOURCES_XML.replace(
        '<field name="DEBT" type="integer"/>', '<field name="DEBT" type="string"/>'), encoding="utf-8")
    new = parse_project(*paths)
    assert fetch_table(new, "uni", "STUDENT").rows[0][3] == TypedLiteral("1500", Dtype.STRING)
    assert fetch_table(old, "uni", "STUDENT").rows[0][3].dtype is Dtype.INTEGER


def test_access_log_counts_memoized_fetches(view_project):
    log = AccessLog()
    for _ in range(2):
        fetch_table(view_project, "uni", "STUDENT", log)
        fetch_table(view_project, "uni", "RICH", log)
    assert log.entries == (("uni", "STUDENT"), ("uni", "RICH"), ("uni", "STUDENT")) * 2


def test_coercing_a_cell_canonicalizes_it_once(monkeypatch):
    cells = [("007", Dtype.INTEGER), ("-0", Dtype.INTEGER), ("2.50", Dtype.DECIMAL),
             ("+.5", Dtype.DECIMAL), (" TRUE ", Dtype.BOOLEAN), ("a b", Dtype.STRING)] * 50
    expected = [TypedLiteral(canonicalize(text, dtype), dtype) for text, dtype in cells]
    calls = []

    def counting(text, dtype):
        calls.append(text)
        return canonicalize(text, dtype)

    # wherever the name is looked up: the check of a literal's text runs through dtypes
    for module in (dtypes, wrappers):
        monkeypatch.setattr(module, "canonicalize", counting, raising=False)
    coerced = [wrappers.coerce(text, SourceFieldDef("F", dtype), 1) for text, dtype in cells]
    assert coerced == expected
    assert [hash(term) for term in coerced] == [hash(term) for term in expected]
    assert len(calls) == len(cells)  # not once more in TypedLiteral's own check
    with pytest.raises(TypeCoercionError):
        wrappers.coerce("7x", SourceFieldDef("F", Dtype.INTEGER), 1)


@pytest.mark.parametrize("view_sql, kept", [
    ("SELECT ID FROM STUDENT WHERE DEBT > ID", ["2"]),
    ("SELECT ID FROM STUDENT WHERE DEBT >= ID", ["2", "3"]),
    ("SELECT ID FROM STUDENT WHERE DEBT = ID", ["3"]),
    ("SELECT ID FROM STUDENT WHERE ID != DEBT", ["1", "2"]),
])
def test_a_view_filter_compares_two_fields_of_one_row(tmp_path, view_sql, kept):
    # row 1 has DEBT 0 < ID, row 2 DEBT 2500 > ID, row 3 DEBT = ID, and row 4 no DEBT,
    # so no comparison with its DEBT holds
    sources = VIEW_SOURCES.replace("SELECT ID FROM STUDENT WHERE DEBT &gt; 2000", escape(view_sql))
    files = {"students.txt": "ID|DEBT\n1|0\n2|2500\n3|3\n4|\n"}
    table = fetch_table(parse_project(*write_project(tmp_path, sources, VIEW_SCHEMA, files)), "uni", "RICH")
    assert [row[0].lexical for row in table.rows] == kept
