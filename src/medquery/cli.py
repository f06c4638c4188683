"""Command-line surface of the mediator.

    medquery validate    --sources s.xml --schema i.xml
    medquery show-schema --sources s.xml --schema i.xml [--format dot|xml]
    medquery convert     --sources s.xml --schema i.xml --query "SELECT ..."
    medquery query       --sources s.xml --schema i.xml --query "..."
                         [--lang sql|rdql] [--out table|xml|ntriples]
    medquery extract     --sources s.xml --schema i.xml --table T [--out ntriples]

Result payload goes to stdout only; diagnostics and the extraction/query
timing line go to stderr. Exit status is 0 on success, 1 on a domain error
(bad query, unsatisfiable schema, failed extraction) and 2 on usage or
descriptor/file problems. ``MEDQUERY_LOG`` (quiet, info, debug) controls
diagnostic verbosity. The query pipeline itself is :mod:`medquery.mediator`;
this module parses arguments, renders results and prints the timing line.
"""

from __future__ import annotations

import argparse
import logging
import os
import re
import sys
import time
import xml.etree.ElementTree as ET

from . import sql_to_rdql
from .descriptors import EqualityRelation, FieldRef, IntegratedSchema, parse_project, serialize_schema
from .dtypes import TypedLiteral
from .errors import (
    DuplicateNameError,
    MalformedXmlError,
    MedQueryError,
    UnresolvedFieldRefError,
)
from .extraction import build_triples, materialize_required, publish
from .mediator import execute_query, open_project
from .rdql_engine import ResultSet
from .schema_check import check_schema
from .sql_frontend import parse_sql
from .triple_store import TripleStore, export_ntriples

_DESCRIPTOR_ERRORS = (MalformedXmlError, DuplicateNameError, UnresolvedFieldRefError)
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
_TABLE_ESCAPES = str.maketrans({"\\": "\\\\", "|": "\\|", "\n": "\\n", "\r": "\\r"})


_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> str:
    """Log to stderr at the ``MEDQUERY_LOG`` level; returns the level's name."""
    level = os.environ.get("MEDQUERY_LOG", "info").lower()
    level = level if level in _LOG_LEVELS else "info"
    logging.basicConfig(stream=sys.stderr, level=_LOG_LEVELS[level], format="%(message)s")
    return level


# --- commands ----------------------------------------------------------------


def cmd_validate(sources: str, schema: str) -> int:
    report = check_schema(parse_project(sources, schema))
    sys.stdout.write(report.to_text())
    return 0 if report.accepted else 1


def cmd_show_schema(sources: str, schema: str, fmt: str) -> int:
    render = serialize_schema if fmt == "xml" else render_dot
    sys.stdout.write(render(parse_project(sources, schema).schema))
    return 0


def cmd_convert(sources: str, schema: str, sql_text: str) -> int:
    project = parse_project(sources, schema)
    text, _ = sql_to_rdql.convert(parse_sql(sql_text, project.schema), project.schema)
    sys.stdout.write(text)
    return 0


def cmd_query(sources: str, schema: str, query_text: str, lang: str, out_format: str,
              log_level: str) -> int:
    project = open_project(sources, schema)
    started = time.perf_counter()
    result = execute_query(project, query_text, lang)
    elapsed_ms = round((time.perf_counter() - started) * 1000)
    if out_format == "table":
        sys.stdout.write(render_result_table(result))
    elif out_format == "xml":
        sys.stdout.write(render_result_xml(result))
    else:
        sys.stdout.write(export_ntriples(result_triples(result)))
    if log_level != "quiet":
        print(f"# extraction+query time: {elapsed_ms} ms", file=sys.stderr)
        if result.cross_type_warnings:
            print(f"# incomparable comparisons: {result.cross_type_warnings}", file=sys.stderr)
    return 0


def cmd_extract(sources: str, schema: str, table: str) -> int:
    data = materialize_required(open_project(sources, schema), [table])
    sys.stdout.write(export_ntriples(build_triples(data)))
    return 0


# --- renderers ----------------------------------------------------------------


def _term_text(term) -> str:
    return term.lexical if isinstance(term, TypedLiteral) else term.value


def render_result_table(result: ResultSet) -> str:
    """A ``|``-separated line per row, each value's backslash, ``|`` and line breaks escaped."""
    lines = ["|".join(result.columns)]
    lines.extend("|".join(_term_text(t).translate(_TABLE_ESCAPES) for t in row) for row in result.rows)
    return "".join(line + "\n" for line in lines)


def render_result_xml(result: ResultSet) -> str:
    """The rows as XML; a value holding a character XML 1.0 forbids is refused."""
    root = ET.Element("results")
    for number, row in enumerate(result.rows, start=1):
        row_el = ET.SubElement(root, "row")
        for name, term in zip(result.columns, row):
            text = _term_text(term)
            if found := _NOT_XML_CHAR.search(text):
                raise MedQueryError(f"row {number}, column {name}: XML 1.0 cannot hold U+{ord(found[0]):04X}")
            ET.SubElement(row_el, "col", name=name).text = text
    ET.indent(root, space="  ")
    # a raw carriage return would read back as a line feed; only values can hold one
    return ET.tostring(root, encoding="unicode").replace("\r", "&#13;") + "\n"


def result_triples(result: ResultSet) -> TripleStore:
    # a repeated column repeats its variable's value, so its first copy suffices
    first = {name: result.columns.index(name) for name in result.columns}
    return publish("result", list(first), ([row[column] for column in first.values()] for row in result.rows))


def render_dot(schema: IntegratedSchema) -> str:
    """Entity-relationship sketch: one node per table, one edge per relation."""
    lines = ["graph integrated_schema {", "  node [shape=record];"]
    owners: dict[FieldRef, set[int]] = {}  # each mapped ref -> the tables mapping a field onto it
    for index, table in enumerate(schema.tables):
        fields = "\\l".join(f"{f.name} : {f.dtype.value}" for f in table.fields)
        lines.append(f'  "{table.name}" [label="{{{table.name}|{fields}\\l}}"];')
        for f in table.fields:
            owners.setdefault(f.mapping, set()).add(index)
    for relation in schema.relations:
        equality = isinstance(relation, EqualityRelation)
        label = "=" if equality else relation.op.value
        sides = (relation.lhs, relation.rhs) if equality else ([relation.target], relation.operands)
        left, right = (_touching_tables(schema, owners, refs) for refs in sides)
        drawn: dict[frozenset[str], tuple[str, str]] = {}  # each pair of tables, as first met
        for a in left:
            for b in right:
                if a != b:
                    drawn.setdefault(frozenset((a, b)), (a, b))
        lines.extend(f'  "{a}" -- "{b}" [label="{label}"];' for a, b in drawn.values())
    lines.append("}")
    return "".join(line + "\n" for line in lines)


def _touching_tables(schema: IntegratedSchema, owners: dict[FieldRef, set[int]], refs) -> list[str]:
    """Integrated tables having a field mapped onto any of the given refs, in schema order."""
    return [schema.tables[i].name for i in sorted(set().union(*(owners.get(r, ()) for r in refs)))]


# --- argument parsing -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medquery",
        description="Query heterogeneous sources through an integrated schema.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--sources", required=True, help="data-source descriptor file")
        p.add_argument("--schema", required=True, help="integrated-schema descriptor file")

    common(sub.add_parser("validate", help="check descriptors and schema satisfiability"))

    show = sub.add_parser("show-schema", help="render the integrated schema")
    common(show)
    show.add_argument("--format", choices=("dot", "xml"), default="dot")

    convert = sub.add_parser("convert", help="translate a SQL query to RDQL")
    common(convert)
    _query_args(convert)

    query = sub.add_parser("query", help="answer a query over the integrated view")
    common(query)
    _query_args(query)
    query.add_argument("--lang", choices=("sql", "rdql"), default="sql")
    query.add_argument("--out", choices=("table", "xml", "ntriples"), default="table")

    extract = sub.add_parser("extract", help="materialize one integrated table as triples")
    common(extract)
    extract.add_argument("--table", required=True, help="integrated table name")
    extract.add_argument("--out", choices=("ntriples",), default="ntriples")
    return parser


def _query_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--query", help="query text")
    group.add_argument("--query-file", help="file containing the query text")


def _query_text(args: argparse.Namespace) -> str:
    if args.query is not None:
        return args.query
    with open(args.query_file, encoding="utf-8") as handle:
        return handle.read()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    level = _setup_logging()
    paths = (args.sources, args.schema)
    try:
        if args.command == "validate":
            return cmd_validate(*paths)
        if args.command == "show-schema":
            return cmd_show_schema(*paths, args.format)
        if args.command == "convert":
            return cmd_convert(*paths, _query_text(args))
        if args.command == "query":
            return cmd_query(*paths, _query_text(args), args.lang, args.out, level)
        return cmd_extract(*paths, args.table)
    except _DESCRIPTOR_ERRORS as exc:
        message, status = f"descriptor error: {exc}", 2
    except (OSError, UnicodeDecodeError) as exc:  # also an undecodable --query-file
        message, status = str(exc), 2
    except MedQueryError as exc:
        message, status = str(exc), 1
    # escaped for stderr's encoding: argv decoding leaves lone surrogates in echoed query text
    encoding = sys.stderr.encoding or "utf-8"
    print(f"medquery: {message}".encode(encoding, "backslashreplace").decode(encoding), file=sys.stderr)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
