import pytest

from medquery import scanner
from medquery.dtypes import Dtype
from medquery.errors import (
    SqlParseError,
    UnknownFieldError,
    UnknownTableError,
    UnsupportedSqlError,
)
from medquery.sql_frontend import (
    Condition,
    QualifiedField,
    SqlQuery,
    parse_sql,
    parse_view_select,
)
from medquery.triple_store import TypedLiteral

from conftest import FIG2_SQL


@pytest.fixture
def schema(fig2_project):
    return fig2_project.schema


def test_two_table_join_query_ast(schema):
    query = parse_sql(FIG2_SQL, schema)
    assert query.select == (
        QualifiedField("STUDENT", "FIRSTNAME"),
        QualifiedField("STUDENT", "LASTNAME"),
        QualifiedField("GRADE", "AVERAGE"),
        QualifiedField("STUDENT", "DEBT"),
    )
    assert query.from_tables == ("STUDENT", "GRADE")
    assert query.join_conds == (
        Condition(QualifiedField("STUDENT", "ID"), "=",
                  QualifiedField("GRADE", "STUDENTID")),
    )
    assert query.filters == (
        Condition(QualifiedField("STUDENT", "DEBT"), ">",
                  TypedLiteral("2000", Dtype.INTEGER)),
    )


def test_minimal_query(schema):
    query = parse_sql("SELECT STUDENT.ID FROM STUDENT", schema)
    assert query.select == (QualifiedField("STUDENT", "ID"),)
    assert query.join_conds == () and query.filters == ()


def test_join_keyword_equals_comma_on_form(schema):
    q1 = parse_sql(FIG2_SQL, schema)
    q2 = parse_sql(
        "SELECT STUDENT.FIRSTNAME, STUDENT.LASTNAME, GRADE.AVERAGE, STUDENT.DEBT "
        "FROM STUDENT JOIN GRADE ON STUDENT.ID=GRADE.STUDENTID "
        "WHERE STUDENT.DEBT>2000",
        schema,
    )
    assert q1 == q2


def test_where_equality_between_fields_becomes_join(schema):
    query = parse_sql(
        "SELECT STUDENT.FIRSTNAME FROM STUDENT, GRADE WHERE STUDENT.ID=GRADE.STUDENTID",
        schema,
    )
    assert len(query.join_conds) == 1
    assert query.filters == ()


def test_aggregate_is_rejected(schema):
    with pytest.raises(UnsupportedSqlError) as info:
        parse_sql("SELECT COUNT(*) FROM STUDENT", schema)
    assert "aggregate" in str(info.value)


@pytest.mark.parametrize("text,construct", [
    ("SELECT SUM(STUDENT.DEBT) FROM STUDENT", "aggregate"),
    ("SELECT AVG(STUDENT.DEBT) FROM STUDENT", "aggregate"),
    ("SELECT MIN(STUDENT.DEBT) FROM STUDENT", "aggregate"),
    ("SELECT MAX(STUDENT.DEBT) FROM STUDENT", "aggregate"),
    ("SELECT STUDENT.ID FROM (SELECT * FROM STUDENT)", "subquery"),
    ("SELECT STUDENT.ID FROM STUDENT WHERE STUDENT.ID = (SELECT 1)", "subquery"),
    ("SELECT STUDENT.DEBT + 1 FROM STUDENT", "expression"),
    ("SELECT STUDENT.ID FROM STUDENT ORDER BY STUDENT.ID", "ORDER"),
    ("SELECT STUDENT.ID FROM STUDENT GROUP BY STUDENT.ID", "GROUP"),
    ("SELECT STUDENT.ID FROM STUDENT WHERE STUDENT.DEBT>1 OR STUDENT.DEBT<0", "OR"),
    ("SELECT DISTINCT STUDENT.ID FROM STUDENT", "DISTINCT"),
    # the first fault in reading order is reported, not the later ';'
    ("SELECT DISTINCT STUDENT.ID FROM STUDENT ;", "DISTINCT"),
    ("SELECT * FROM STUDENT", "SELECT *"),
    ("SELECT STUDENT.ID AS X FROM STUDENT", "alias"),
    ("SELECT STUDENT.ID FROM STUDENT, STUDENT", "self-join"),
    ("SELECT STUDENT.ID FROM STUDENT LIMIT 5", "LIMIT"),
    ("SELECT STUDENT.FIRSTNAME FROM STUDENT, GRADE", "table 'GRADE'"),
])
def test_rejection_is_total(schema, text, construct):
    with pytest.raises(UnsupportedSqlError) as info:
        parse_sql(text, schema)
    assert construct.lower() in str(info.value).lower()


def test_unqualified_field_is_a_parse_error(schema):
    with pytest.raises(SqlParseError):
        parse_sql("SELECT ID FROM STUDENT", schema)


def test_unknown_table_and_field(schema):
    with pytest.raises(UnknownTableError):
        parse_sql("SELECT NOPE.ID FROM NOPE", schema)
    with pytest.raises(UnknownFieldError):
        parse_sql("SELECT STUDENT.NOPE FROM STUDENT", schema)
    with pytest.raises(UnknownTableError):
        # qualified by a table that is not in FROM
        parse_sql("SELECT GRADE.AVERAGE FROM STUDENT", schema)
    with pytest.raises(UnknownTableError):
        parse_sql("SELECT É.ID FROM É", schema)  # a non-ASCII identifier is still a name


def test_literal_typing(schema):
    query = parse_sql(
        "SELECT STUDENT.ID FROM STUDENT "
        "WHERE STUDENT.FIRSTNAME = 'Ann' AND STUDENT.DEBT >= -5 "
        "AND STUDENT.DEBT < 2.50",
        schema,
    )
    literals = [c.rhs for c in query.filters]
    assert literals == [
        TypedLiteral("Ann", Dtype.STRING),
        TypedLiteral("-5", Dtype.INTEGER),
        TypedLiteral("2.5", Dtype.DECIMAL),
    ]
    query = parse_sql("SELECT STUDENT.ID FROM STUDENT WHERE STUDENT.DEBT > - 5 "
                      "AND STUDENT.DEBT != FALſE", schema)  # keywords compare upper-cased
    assert [c.rhs for c in query.filters] == [
        TypedLiteral("-5", Dtype.INTEGER), TypedLiteral("false", Dtype.BOOLEAN),
    ]


def test_boolean_literals(schema):
    query = parse_sql("SELECT STUDENT.ID FROM STUDENT WHERE STUDENT.ID != 1 "
                      "AND STUDENT.FIRSTNAME != 'x'", schema)
    assert len(query.filters) == 2


def test_parse_errors_carry_positions(schema):
    with pytest.raises(SqlParseError) as info:
        parse_sql("SELECT STUDENT.ID FROM", schema)
    assert info.value.position == len("SELECT STUDENT.ID FROM")
    with pytest.raises(SqlParseError):
        parse_sql("SELECT STUDENT.ID FROM STUDENT WHERE STUDENT.ID ~ 1", schema)
    with pytest.raises(SqlParseError):
        parse_sql("FROM STUDENT", schema)
    for text, position, message in [
        # the first fault in reading order, not the later '~'
        ("SELECT FROM STUDENT WHERE STUDENT.ID ~ 1", 7, "expected field name"),
        ("SELECT STUDENT.ID FROM STUDENT WHERE STUDENT.ID ~ 1", 48, "unexpected character '~'"),
        ("SELECT STUDENT.ID FROM STUDENT WHERE STUDENT.FIRSTNAME = 'Ann", 57,
         "unterminated string literal"),
        ("SELECT \u00b2X FROM STUDENT", 7, "unexpected character"),  # superscript two
        ("SELECT STUDENT.ID FROM STUDENT WHERE STUDENT.DEBT > \u0661", 52,
         "unexpected character"),  # Arabic-Indic digit one
        ("SELECT ORDER.ID FROM STUDENT", 7, "expected field name"),
        # a quoted string is a literal, never punctuation
        ("SELECT STUDENT.ID ',' STUDENT.DEBT FROM STUDENT", 18, "expected FROM"),
        ("SELECT STUDENT'.'ID FROM STUDENT", 14, "must be table-qualified"),
        ("SELECT STUDENT.ID FROM STUDENT WHERE STUDENT.ID = 1 'x'", 52, "unexpected input 'x'"),
        # '' stands for a quote within a string: the first two never end, and the third is one token
        ("SELECT STUDENT.ID FROM STUDENT WHERE STUDENT.FIRSTNAME = 'O''Brien", 57,
         "unterminated string literal"),
        ("SELECT STUDENT.ID FROM STUDENT WHERE STUDENT.FIRSTNAME = 'x''", 57,
         "unterminated string literal"),
        ("SELECT STUDENT.ID FROM STUDENT WHERE STUDENT.ID = 1 'O''Brien'", 52,
         "unexpected input \"O''Brien\""),
    ]:
        with pytest.raises(SqlParseError) as info:
            parse_sql(text, schema)
        assert info.value.position == position, text
        assert message in str(info.value), text


@pytest.mark.parametrize("text, value", [
    ("'O''Brien'", "O'Brien"), ("''''", "'"), ("''", ""), ("'a'''", "a'"), ("'''b'", "'b"),
])
def test_a_doubled_quote_stands_for_one_quote(schema, text, value):
    query = parse_sql(f"SELECT STUDENT.ID FROM STUDENT WHERE STUDENT.FIRSTNAME = {text}", schema)
    cond = query.filters[0]
    assert cond.rhs == TypedLiteral(value, Dtype.STRING)
    assert str(cond) == f"STUDENT.FIRSTNAME = {text}"
    assert parse_sql(f"SELECT STUDENT.ID FROM STUDENT WHERE {cond}", schema) == query


def unparse(query: SqlQuery) -> str:
    """Render a query back to canonical SQL text; parsing it reproduces the AST."""
    parts = ["SELECT " + ", ".join(str(f) for f in query.select)]
    parts.append("FROM " + ", ".join(query.from_tables))
    if query.join_conds:
        parts.append("ON " + " AND ".join(str(c) for c in query.join_conds))
    if query.filters:
        parts.append("WHERE " + " AND ".join(str(c) for c in query.filters))
    return " ".join(parts)


@pytest.mark.parametrize("text", [
    FIG2_SQL,
    "SELECT STUDENT.ID FROM STUDENT",
    "SELECT STUDENT.ID FROM STUDENT WHERE STUDENT.FIRSTNAME = 'Ann'",
    "SELECT STUDENT.ID FROM STUDENT WHERE STUDENT.FIRSTNAME = '('",
    "SELECT GRADE.AVERAGE, STUDENT.ID FROM STUDENT, GRADE "
    "ON STUDENT.ID=GRADE.STUDENTID WHERE STUDENT.DEBT <= 100",
    "SELECT STUDENT.ID FROM STUDENT, GRADE WHERE STUDENT.ID=GRADE.STUDENTID "
    "AND GRADE.AVERAGE > 10",
])
def test_unparse_parse_fixpoint(schema, text):
    query = parse_sql(text, schema)
    assert parse_sql(unparse(query), schema) == query


def test_view_select_qualifies_bare_names():
    query = parse_view_select("SELECT ID FROM STUDENT WHERE DEBT > 2000")
    assert query.select == (QualifiedField("STUDENT", "ID"),)
    assert query.filters[0].lhs == QualifiedField("STUDENT", "DEBT")
    assert query.join_conds == ()


def test_view_select_keeps_intra_table_equality_as_filter():
    query = parse_view_select("SELECT ID FROM T WHERE A = B")
    assert query.join_conds == ()
    assert len(query.filters) == 1


@pytest.mark.parametrize("parse", [
    lambda schema: parse_sql(FIG2_SQL, schema),
    lambda schema: parse_view_select("SELECT ID, NAME, DEBT FROM STUDENT WHERE DEBT > 2000"),
], ids=["fig2", "view"])
def test_a_parse_reads_the_word_at_each_offset_once(schema, monkeypatch, parse):
    # JOIN, ON and WHERE are probed at one offset, and a select item's first
    # word is probed for an aggregate before it is read as a field
    offsets = []
    word_re = scanner._WORD_RE

    class CountingWordRe:
        def match(self, string, pos):
            offsets.append(pos)
            return word_re.match(string, pos)

    monkeypatch.setattr(scanner, "_WORD_RE", CountingWordRe())
    parse(schema)
    assert offsets and len(offsets) == len(set(offsets))


@pytest.mark.parametrize("text, at", [
    ("SELECT STUDENT.ID FROM STUDENT JOIN GRADE WHERE STUDENT.ID = GRADE.STUDENTID", "WHERE"),
    ("SELECT STUDENT.ID FROM STUDENT JOIN GRADE", None),
    ("SELECT STUDENT.ID FROM STUDENT JOIN GRADE, STUDENT ON STUDENT.ID = GRADE.STUDENTID", ","),
])
def test_a_join_without_on_is_a_parse_error(schema, text, at):
    with pytest.raises(SqlParseError) as info:
        parse_sql(text, schema)
    # reported where ON should stand: the next token after the joined table, or the end
    assert info.value.position == (len(text) if at is None else text.index(at))
    assert "expected ON" in str(info.value)
