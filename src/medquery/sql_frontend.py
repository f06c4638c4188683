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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .descriptors import IntegratedSchema
from .dtypes import Dtype, canonicalize
from .errors import SqlParseError, UnknownFieldError, UnknownTableError, UnsupportedSqlError
from .triple_store import TypedLiteral

_KEYWORDS = {
    "SELECT", "FROM", "WHERE", "ON", "AND", "OR", "JOIN", "AS",
    "ORDER", "GROUP", "BY", "HAVING", "LIMIT", "UNION", "DISTINCT",
    "TRUE", "FALSE",
}
_AGGREGATES = {"COUNT", "SUM", "AVG", "MIN", "MAX"}
_COMPARATORS = {"=", "!=", "<", "<=", ">", ">="}
_DIGITS = frozenset("0123456789")  # str.isdigit also accepts other scripts' digits


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
        """SQL text of the condition; string literals are single-quoted."""
        rhs = self.rhs
        if isinstance(rhs, TypedLiteral):
            rhs = f"'{rhs.lexical}'" if rhs.dtype is Dtype.STRING else rhs.lexical
        return f"{self.lhs} {self.op} {rhs}"


@dataclass(frozen=True)
class SqlQuery:
    select: tuple[QualifiedField, ...]
    from_tables: tuple[str, ...]
    join_conds: tuple[Condition, ...]
    filters: tuple[Condition, ...]


# --- tokenizer ---------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT KEYWORD NUMBER STRING OP PUNCT EOF
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            kind = "KEYWORD" if word.upper() in _KEYWORDS or word.upper() in _AGGREGATES else "IDENT"
            tokens.append(_Token(kind, word, start))
            continue
        if ch in _DIGITS:
            start = i
            while i < n and text[i] in _DIGITS:
                i += 1
            if i < n and text[i] == "." and i + 1 < n and text[i + 1] in _DIGITS:
                i += 1
                while i < n and text[i] in _DIGITS:
                    i += 1
            tokens.append(_Token("NUMBER", text[start:i], start))
            continue
        if ch == "'":
            end = text.find("'", i + 1)
            if end < 0:
                raise SqlParseError("unterminated string literal", i)
            tokens.append(_Token("STRING", text[i + 1:end], i))
            i = end + 1
            continue
        two = text[i:i + 2]
        if two in ("!=", "<=", ">="):
            tokens.append(_Token("OP", two, i))
            i += 2
            continue
        if ch in "=<>":
            tokens.append(_Token("OP", ch, i))
            i += 1
            continue
        if ch in ".,()*+-/":
            tokens.append(_Token("PUNCT", ch, i))
            i += 1
            continue
        raise SqlParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("EOF", "", n))
    return tokens


# --- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, allow_unqualified: bool):
        self.tokens = _tokenize(text)
        self.index = 0
        self.allow_unqualified = allow_unqualified

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.current
        self.index += 1
        return token

    def fail(self, message: str):
        raise SqlParseError(message, self.current.pos)

    def keyword(self, word: str) -> None:
        token = self.current
        if token.kind != "KEYWORD" or token.text.upper() != word:
            self.fail(f"expected {word}")
        self.advance()

    def at_keyword(self, *words: str) -> bool:
        token = self.current
        return token.kind == "KEYWORD" and token.text.upper() in words

    def ident(self, what: str) -> str:
        token = self.current
        if token.kind != "IDENT":
            self.fail(f"expected {what}")
        self.advance()
        return token.text

    def parse_query(self) -> tuple[list, list[str], list[Condition], list[Condition]]:
        self.keyword("SELECT")
        if self.at_keyword("DISTINCT"):
            raise UnsupportedSqlError("DISTINCT")
        select = [self.select_item()]
        while self.current.text == ",":
            self.advance()
            select.append(self.select_item())

        self.keyword("FROM")
        tables = [self.from_item()]
        on_conds: list[Condition] = []
        while True:
            if self.current.text == ",":
                self.advance()
                tables.append(self.from_item())
                continue
            if self.at_keyword("JOIN"):
                self.advance()
                tables.append(self.from_item())
                self.keyword("ON")
                on_conds.extend(self.condition_list())
                continue
            break
        if self.at_keyword("ON"):
            self.advance()
            on_conds.extend(self.condition_list())

        where_conds: list[Condition] = []
        if self.at_keyword("WHERE"):
            self.advance()
            where_conds.extend(self.condition_list())

        token = self.current
        if token.kind == "KEYWORD" and token.text.upper() in (
            "ORDER", "GROUP", "HAVING", "LIMIT", "UNION", "OR",
        ):
            raise UnsupportedSqlError(token.text.upper())
        if token.kind != "EOF":
            self.fail(f"unexpected input {token.text!r}")
        return select, tables, on_conds, where_conds

    def select_item(self) -> QualifiedField:
        token = self.current
        if token.kind == "KEYWORD" and token.text.upper() in _AGGREGATES:
            raise UnsupportedSqlError(f"aggregate {token.text.upper()}")
        if token.text == "*":
            raise UnsupportedSqlError("SELECT *")
        if token.text == "(":
            raise UnsupportedSqlError("expression in SELECT")
        fld = self.field()
        follow = self.current
        if follow.kind == "PUNCT" and follow.text in "+-*/":
            raise UnsupportedSqlError("expression in SELECT")
        if self.at_keyword("AS"):
            raise UnsupportedSqlError("column alias")
        return fld

    def from_item(self) -> str:
        if self.current.text == "(":
            raise UnsupportedSqlError("subquery")
        return self.ident("table name")

    def field(self) -> QualifiedField:
        name = self.ident("field name")
        if self.current.text == ".":
            self.advance()
            return QualifiedField(name, self.ident("field name"))
        if self.allow_unqualified:
            return QualifiedField("", name)
        self.fail(f"field '{name}' must be table-qualified")

    def condition_list(self) -> list[Condition]:
        conds = [self.condition()]
        while True:
            if self.at_keyword("AND"):
                self.advance()
                conds.append(self.condition())
                continue
            if self.at_keyword("OR"):
                raise UnsupportedSqlError("OR")
            break
        return conds

    def condition(self) -> Condition:
        if self.current.text == "(":
            raise UnsupportedSqlError("parenthesized condition")
        lhs = self.field()
        token = self.current
        if token.kind != "OP" or token.text not in _COMPARATORS:
            self.fail("expected comparison operator")
        self.advance()
        rhs = self.comparand()
        return Condition(lhs, token.text, rhs)

    def comparand(self) -> Union[QualifiedField, TypedLiteral]:
        token = self.current
        if token.text == "(":
            raise UnsupportedSqlError("subquery")
        if token.kind == "STRING":
            self.advance()
            return TypedLiteral(token.text, Dtype.STRING)
        if token.kind == "KEYWORD" and token.text.upper() in ("TRUE", "FALSE"):
            self.advance()
            return TypedLiteral(token.text.lower(), Dtype.BOOLEAN)
        sign = ""
        if token.kind == "PUNCT" and token.text in "+-":
            sign = token.text
            self.advance()
            token = self.current
        if token.kind == "NUMBER":
            self.advance()
            dtype = Dtype.DECIMAL if "." in token.text else Dtype.INTEGER
            return TypedLiteral(canonicalize(sign + token.text, dtype), dtype)
        if sign:
            self.fail("expected numeric literal")
        return self.field()


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
    for fld in _referenced_fields(query):
        if fld.table not in seen:
            raise UnknownTableError(f"'{fld}' references a table missing from FROM")
        table = schema.table(fld.table)
        assert table is not None
        if table.field_def(fld.field) is None:
            raise UnknownFieldError(f"integrated table '{fld.table}' has no field '{fld.field}'")
    used = {fld.table for fld in _referenced_fields(query)}
    for name in tables:
        if name not in used:
            raise UnsupportedSqlError(f"table '{name}' in FROM with no field referenced")
    return query


def parse_view_select(text: str) -> SqlQuery:
    """Parse a wrapper-side view definition: one table, projection, filters.

    Unqualified field names are allowed and resolve to the single FROM
    table. Joins are rejected; validation against the source table happens
    at fetch time.
    """
    parser = _Parser(text, allow_unqualified=True)
    select, tables, on_conds, where_conds = parser.parse_query()
    if len(tables) > 1 or on_conds:
        raise UnsupportedSqlError("join in view definition")
    base = tables[0]

    def qualify(fld: QualifiedField) -> QualifiedField:
        if fld.table == "":
            return QualifiedField(base, fld.field)
        if fld.table != base:
            raise UnknownTableError(f"view references table '{fld.table}', not '{base}'")
        return fld

    select = [qualify(f) for f in select]
    where = [
        Condition(qualify(c.lhs), c.op,
                  qualify(c.rhs) if isinstance(c.rhs, QualifiedField) else c.rhs)
        for c in where_conds
    ]
    # inside a single table every condition is a plain filter
    return SqlQuery(tuple(select), tuple(tables), (), tuple(where))


def _referenced_fields(query: SqlQuery):
    for fld in query.select:
        yield fld
    for cond in query.join_conds + query.filters:
        yield cond.lhs
        if isinstance(cond.rhs, QualifiedField):
            yield cond.rhs

