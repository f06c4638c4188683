"""The query pipeline as a library: open a checked project, answer a query."""

from __future__ import annotations

import logging
from pathlib import Path

from .descriptors import Project, parse_project
from .errors import MedQueryError
from .extraction import build_triples, materialize_required, required_tables
from .rdql_engine import ResultSet, evaluate, parse_rdql
from .schema_check import check_schema
from .sql_frontend import parse_sql
from .sql_to_rdql import convert

logger = logging.getLogger(__name__)


def open_project(sources: str | Path, schema: str | Path) -> Project:
    """Parse the descriptors and refuse a schema the checker rejects."""
    project = parse_project(sources, schema)
    report = check_schema(project)
    if not report.accepted:
        errors = "".join(f"\n  {f}" for f in report.errors)
        raise MedQueryError(f"schema is not satisfiable:{errors}")
    return project


def execute_query(project: Project, text: str, lang: str = "sql") -> ResultSet:
    """Answer a ``"sql"`` or ``"rdql"`` query over the integrated view.

    Every query fetches its sources again; what is derived from them is
    reused as :meth:`~medquery.descriptors.Project.derive` states.
    """
    if lang == "sql":
        _, query = convert(parse_sql(text, project.schema), project.schema)
    elif lang == "rdql":
        query = parse_rdql(text)
    else:
        raise ValueError(f"unknown query language: {lang!r}")
    data = materialize_required(project, required_tables(query, project.schema))
    store = build_triples(data)
    logger.debug("materialized %d table(s), %d triple(s)", len(data.tables), len(store))
    return evaluate(query, store)
