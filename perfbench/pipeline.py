"""The two operation types, stage by stage, driven through the package exports.

A ``query`` runs the stages of the mediator's query command: parse (SQL then
convert, or RDQL), ``required_tables``, ``materialize_required``,
``build_triples`` and ``evaluate``. An ``extract`` runs the stages of the
extract command: ``materialize_required`` for one table, ``build_triples``
and ``export_ntriples``. ``tracer.span`` brackets each stage; the untraced
run passes a tracer whose spans do nothing.
"""

from __future__ import annotations

from contextlib import nullcontext

import medquery as mq

_NO_SPAN = nullcontext()


class NoTrace:
    """Tracer stand-in for the timed, untraced run."""

    fetch = staticmethod(mq.fetch_table)

    def span(self, name: str, **attrs):
        return _NO_SPAN

    def begin_op(self, op_id: int) -> None:
        pass


def run_query(project: mq.Project, op, tracer):
    schema = project.schema
    if op.lang == "sql":
        with tracer.span("sql_frontend.parse_sql"):
            sql = mq.parse_sql(op.text, schema)
        with tracer.span("sql_to_rdql.convert"):
            _, query = mq.convert(sql, schema)
    else:
        with tracer.span("rdql_engine.parse_rdql"):
            query = mq.parse_rdql(op.text)
    with tracer.span("extraction.required_tables"):
        needed = mq.required_tables(query, schema)
    ordered = [t.name for t in schema.tables if t.name in needed]
    if len(ordered) != len(needed):
        raise mq.MedQueryError(f"query references tables outside the schema: {sorted(needed)}")
    with tracer.span("extraction.materialize_required"):
        data = mq.materialize_required(project, ordered, fetch=tracer.fetch, log=mq.AccessLog())
    with tracer.span("extraction.build_triples"):
        store = mq.build_triples(data)
    with tracer.span("rdql_engine.evaluate"):
        result = mq.evaluate(query, store)
    return result, data, store


def run_extract(project: mq.Project, op, tracer):
    with tracer.span("extraction.materialize_required"):
        data = mq.materialize_required(project, [op.table], fetch=tracer.fetch,
                                       log=mq.AccessLog())
    with tracer.span("extraction.build_triples"):
        store = mq.build_triples(data)
    with tracer.span("triple_store.export_ntriples"):
        text = mq.export_ntriples(store)
    return text, data, store


def run_op(project: mq.Project, op, tracer):
    """Run one op; returns (answer, materialized data, built store)."""
    if op.kind == "query":
        return run_query(project, op, tracer)
    return run_extract(project, op, tracer)


def setup(sources_path, schema_path, tracer) -> mq.Project:
    """What every command invocation pays before its first op."""
    with tracer.span("descriptors.parse_project"):
        project = mq.parse_project(sources_path, schema_path)
    with tracer.span("schema_check.check_schema"):
        report = mq.check_schema(project)
    if not report.accepted:
        raise mq.MedQueryError("schema is not satisfiable:\n" + report.to_text())
    return project
