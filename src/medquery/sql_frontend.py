"""Parser for the supported SQL subset over the integrated schema.

Grammar::

    SELECT field {, field}
    FROM table {, table} [ON cond {AND cond}]
    [WHERE cond {AND cond}]

with ``T1 JOIN T2 ON cond {AND cond}`` accepted as equivalent to the
comma-plus-ON form. Fields must be table-qualified. Conditions compare a
field against a field or a literal with one of = != < <= > >=. Equality
conditions between two fields are classified as join conditions no matter
whether they were written in ON or WHERE; everything else is a filter.

Aggregation functions, subqueries, expressions in SELECT, ORDER BY,
GROUP BY, DISTINCT and OR are rejected as unsupported rather than
mis-parsed. So is a FROM table with no field named in the query: a row exists
in the RDF view only through its cells, so no pattern enumerates all its rows.

The text is read left to right on the cursor the RDQL parser also uses
(:mod:`medquery.scanner`), with no separate tokenizer. Identifiers start with
a letter or ``_`` and go on with letters, digits or ``_``; keywords are not
identifiers; numbers are ASCII ``[0-9]+(.[0-9]+)?`` and may carry a sign
written apart from them; a string is single-quoted, with ``''`` for a quote
in it. The first fault in reading order is reported, whether it is a
malformed token or a construct out of place.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .descriptors import IntegratedSchema
from .dtypes import Dtype, TypedLiteral
from .errors import SqlParseError, UnknownFieldError, UnknownTableError, UnsupportedSqlError
from .scanner import NUMBER_RE, Scanner

_AGGREGATES = {"COUNT", "SUM", "AVG", "MIN", "MAX"}
_KEYWORDS = {  # reserved: never an identifier
    "SELECT", "FROM", "WHERE", "ON", "AND", "OR", "JOIN", "AS",
    "ORDER", "GROUP", "BY", "HAVING", "LIMIT", "UNION", "DISTINCT",
    "TRUE", "FALSE", *_AGGREGATES,
}
# characters that may start a token, besides letters and the "!" of "!="
_TOKEN_CHARS = frozenset("_0123456789'.,()*+-/=<>")
# a string literal, in which '' stands for one '
_STRING_RE = re.compile(r"'((?:[^']|'')*)'(?!')")
# one token, for quoting in an error message; a string is quoted without its quotes
_TOKEN_RE = re.compile(rf"{_STRING_RE.pattern}|{NUMBER_RE.pattern}|\w+|[!<>]=|.", re.DOTALL)


@dataclass(frozen=True)
class QualifiedField:
    table: str
    field: str

    def __str__(self) -> str:
        return f"{self.table}.{self.field}"


@dataclass(frozen=True)
class Condition:
    lhs: QualifiedField
    op: str
    rhs: Union[QualifiedField, TypedLiteral]

    def __str__(self) -> str:
        """SQL text of the condition; string literals are single-quoted, each ' doubled."""
        rhs = self.rhs
        if isinstance(rhs, TypedLiteral):
            rhs = "'" + rhs.lexical.replace("'", "''") + "'" if rhs.dtype is Dtype.STRING else rhs.lexical
        return f"{self.lhs} {self.op} {rhs}"


@dataclass(frozen=True)
class SqlQuery:
    select: tuple[QualifiedField, ...]
    from_tables: tuple[str, ...]
    join_conds: tuple[Condition, ...]
    filters: tuple[Condition, ...]


# --- parser ------------------------------------------------------------------


class _Parser(Scanner):
    error = SqlParseError

    def __init__(self, text: str, allow_unqualified: bool):
        super().__init__(text)
        self.allow_unqualified = allow_unqualified

    def fail(self, message: str):
        """Raise at the cursor, naming a malformed token there in place of ``message``."""
        ch = self.peek()
        if ch == "'" and not _STRING_RE.match(self.text, self.pos):
            message = "unterminated string literal"
        elif ch and not (ch.isalpha() or ch in _TOKEN_CHARS or self.text.startswith("!=", self.pos)):
            message = f"unexpected character {ch!r}"
        super().fail(message)

    def ident(self, what: str) -> str:
        word = self.word()
        if not word or word.upper() in _KEYWORDS:
            self.fail(f"expected {what}")
        self.pos += len(word)
        return word

    def parse_query(self) -> tuple[list, list[str], list[Condition], list[Condition]]:
        if not self.keyword("SELECT"):
            self.fail("expected SELECT")
        if self.keyword("DISTINCT"):
            raise UnsupportedSqlError("DISTINCT")
        select = [self.select_item()]
        while self.take(","):
            select.append(self.select_item())

        if not self.keyword("FROM"):
            self.fail("expected FROM")
        tables = [self.from_item()]
        on_conds: list[Condition] = []
        while (join := self.keyword("JOIN")) or self.take(","):
            tables.append(self.from_item())
            if join:
                if not self.keyword("ON"):
                    self.fail("expected ON")
                on_conds.extend(self.condition_list())
        if self.keyword("ON"):
            on_conds.extend(self.condition_list())

        where_conds = self.condition_list() if self.keyword("WHERE") else []

        word = self.word().upper()
        if word in ("ORDER", "GROUP", "HAVING", "LIMIT", "UNION", "OR"):
            raise UnsupportedSqlError(word)
        if not self.eof():
            token = _TOKEN_RE.match(self.text, self.pos)
            self.fail(f"unexpected input {token.group(token.lastindex or 0)!r}")
        return select, tables, on_conds, where_conds

    def select_item(self) -> QualifiedField:
        word = self.word().upper()
        if word in _AGGREGATES:
            raise UnsupportedSqlError(f"aggregate {word}")
        if self.peek() == "*":
            raise UnsupportedSqlError("SELECT *")
        if self.peek() == "(":
            raise UnsupportedSqlError("expression in SELECT")
        fld = self.field()
        if self.peek() in ("+", "-", "*", "/"):
            raise UnsupportedSqlError("expression in SELECT")
        if self.keyword("AS"):
            raise UnsupportedSqlError("column alias")
        return fld

    def from_item(self) -> str:
        if self.peek() == "(":
            raise UnsupportedSqlError("subquery")
        return self.ident("table name")

    def field(self) -> QualifiedField:
        name = self.ident("field name")
        if self.take("."):
            return QualifiedField(name, self.ident("field name"))
        if self.allow_unqualified:
            return QualifiedField("", name)
        self.fail(f"field '{name}' must be table-qualified")

    def condition_list(self) -> list[Condition]:
        conds = [self.condition()]
        while self.keyword("AND"):
            conds.append(self.condition())
        return conds

    def condition(self) -> Condition:
        if self.peek() == "(":
            raise UnsupportedSqlError("parenthesized condition")
        return Condition(self.field(), self.operator(), self.comparand())

    def comparand(self) -> Union[QualifiedField, TypedLiteral]:
        ch = self.peek()
        if ch == "(":
            raise UnsupportedSqlError("subquery")
        if ch == "'":
            string = _STRING_RE.match(self.text, self.pos)
            if not string:
                self.fail("unterminated string literal")
            self.pos = string.end()
            return TypedLiteral(string.group(1).replace("''", "'"), Dtype.STRING)
        return self.bare_literal() or self.field()


def _is_join(cond: Condition) -> bool:
    return cond.op == "=" and isinstance(cond.rhs, QualifiedField)


def _build_query(select, tables, on_conds, where_conds) -> SqlQuery:
    join_conds = [c for c in on_conds + where_conds if _is_join(c)]
    filters = [c for c in on_conds + where_conds if not _is_join(c)]
    return SqlQuery(tuple(select), tuple(tables), tuple(join_conds), tuple(filters))


def parse_sql(text: str, schema: IntegratedSchema) -> SqlQuery:
    """Parse a mediator query and validate it against the integrated schema."""
    parser = _Parser(text, allow_unqualified=False)
    select, tables, on_conds, where_conds = parser.parse_query()

    seen: set[str] = set()
    for name in tables:
        if name in seen:
            raise UnsupportedSqlError(f"table '{name}' listed twice in FROM (self-join)")
        seen.add(name)
        if schema.table(name) is None:
            raise UnknownTableError(f"integrated schema has no table '{name}'")

    query = _build_query(select, tables, on_conds, where_conds)
    for fld in referenced_fields(query):
        if fld.table not in seen:
            raise UnknownTableError(f"'{fld}' references a table missing from FROM")
        if schema.table(fld.table).field_def(fld.field) is None:  # FROM names declared tables
            raise UnknownFieldError(f"integrated table '{fld.table}' has no field '{fld.field}'")
    used = {fld.table for fld in referenced_fields(query)}
    for name in tables:
        if name not in used:
            raise UnsupportedSqlError(f"table '{name}' in FROM with no field referenced")
    return query


def parse_view_select(text: str) -> SqlQuery:
    """Parse a wrapper-side view definition: one table, projection, filters.

    Unqualified field names are allowed and resolve to the single FROM
    table. Joins are rejected; ``wrappers.source_plan`` checks the view
    against its source table, including a name qualified by another table.
    """
    parser = _Parser(text, allow_unqualified=True)
    select, tables, on_conds, where_conds = parser.parse_query()
    if len(tables) > 1 or on_conds:
        raise UnsupportedSqlError("join in view definition")
    base = tables[0]

    def qualify(fld: QualifiedField) -> QualifiedField:
        return QualifiedField(base, fld.field) if fld.table == "" else fld

    select = [qualify(f) for f in select]
    where = [
        Condition(qualify(c.lhs), c.op,
                  qualify(c.rhs) if isinstance(c.rhs, QualifiedField) else c.rhs)
        for c in where_conds
    ]
    # inside a single table every condition is a plain filter
    return SqlQuery(tuple(select), tuple(tables), (), tuple(where))


def referenced_fields(query: SqlQuery):
    """Every field the query names: its SELECT list, then each condition's sides."""
    for fld in query.select:
        yield fld
    for cond in query.join_conds + query.filters:
        yield cond.lhs
        if isinstance(cond.rhs, QualifiedField):
            yield cond.rhs

