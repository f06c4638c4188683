"""Uniform access to heterogeneous sources.

Every source, whatever its native shape, is fetched as a typed tabular
snapshot. Tabular sources are pipe-delimited text files with a header line;
XML sources bind a record element and per-field child elements (optionally
after piping the document through an external transform command); views are
single-table selections evaluated on top of another table of the same
source.

Cells are either ``None`` (missing) or a :class:`TypedLiteral` carrying a
canonical lexical form, so repeated fetches of an unchanged source are
bit-identical and joins over fetched data behave by value. Materialization
hands these literals on to the triple store unchanged unless the integrated
field declares another dtype.

Each fetch reads the source's bytes again, and runs an XML transform again
(an external command is never assumed to be deterministic). Parsing those
bytes, and selecting a view's rows from its base table, go through
:meth:`~medquery.descriptors.Project.derive`, which states when a result is
reused. So does, once per project, a source's plan (:func:`source_plan`):
each table's path, or its view's definition, base, parsed SQL and fault,
from one pass over the source; so ``validate`` and fetch are linear in a
chain of views, and a fetch looks no view up by name.
"""

from __future__ import annotations

import shlex
import subprocess
import threading
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import sql_frontend
from .descriptors import (
    DataSourceDescriptor,
    FileBinding,
    IntegratedFieldDef,
    Project,
    SourceFieldDef,
    SourceTableDef,
    ViewBinding,
    XmlBinding,
    strong_components,
)
from .dtypes import TypedLiteral, comparable, passing
from .errors import IoError, MedQueryError, TypeCoercionError, UnknownFieldError, UnknownTableError

Cell = Optional[TypedLiteral]
Row = tuple[Cell, ...]


@dataclass(frozen=True)
class Table:
    name: str
    fields: tuple[SourceFieldDef, ...]
    rows: tuple[Row, ...]

    def column(self, name: str) -> int:
        for i, f in enumerate(self.fields):
            if f.name == name:
                return i
        raise UnknownFieldError(f"table '{self.name}' has no field '{name}'")


class AccessLog:
    """Append-only record of which (source, table) pairs were fetched."""

    def __init__(self) -> None:
        self._entries: list[tuple[str, str]] = []
        self._lock = threading.Lock()

    def append(self, source: str, table: str) -> None:
        with self._lock:
            self._entries.append((source, table))

    @property
    def entries(self) -> tuple[tuple[str, str], ...]:
        return tuple(self._entries)


def coerce(text: str, field: SourceFieldDef | IntegratedFieldDef, row_number: int) -> Cell:
    """Cell text read as ``field``'s dtype: missing if empty, else its canonical literal."""
    if text == "":
        return None
    try:
        return TypedLiteral.canonical(text, field.dtype)
    except ValueError:
        raise TypeCoercionError(row_number, field.name, text) from None


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read '{path}': {exc}") from None


def _parse_tabular(data: bytes, table: SourceTableDef, path: Path) -> tuple[Row, ...]:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IoError(f"cannot read '{path}': {exc}") from None
    # universal newlines, as text-mode reading gives them
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise IoError(f"'{path}': empty file, expected a header line")
    header = lines[0].split("|")
    declared = [f.name for f in table.fields]
    if sorted(header) != sorted(declared):
        raise IoError(
            f"'{path}': header {header} does not match declared fields {declared}"
        )
    positions = [header.index(name) for name in declared]
    rows: list[Row] = []
    for number, line in enumerate(lines[1:], start=1):
        cells = line.split("|")
        if len(cells) != len(header):
            raise IoError(f"'{path}' row {number}: expected {len(header)} cells, found {len(cells)}")
        rows.append(tuple(
            coerce(cells[pos], field, number)
            for pos, field in zip(positions, table.fields)
        ))
    return tuple(rows)


# seconds an XML transform may run before the fetch gives up on it
_TRANSFORM_TIMEOUT_S = 60.0


def _run_transform(command: str, document: bytes, context: str) -> bytes:
    try:
        result = subprocess.run(
            shlex.split(command), input=document, capture_output=True, check=True,
            timeout=_TRANSFORM_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise IoError(
            f"{context}: transform '{command}' timed out after {_TRANSFORM_TIMEOUT_S:g} s"
        ) from None
    except (OSError, subprocess.CalledProcessError) as exc:
        raise IoError(f"{context}: transform '{command}' failed: {exc}") from None
    return result.stdout


def _parse_xml(document: bytes, table: SourceTableDef, path: Path) -> tuple[Row, ...]:
    binding = table.binding
    assert isinstance(binding, XmlBinding)
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        raise IoError(f"'{path}': not well-formed XML: {exc}") from None
    except (LookupError, ValueError) as exc:  # an encoding Python has no text codec for
        raise IoError(f"'{path}': cannot decode the declared encoding: {exc}") from None

    rows: list[Row] = []
    for number, record in enumerate(root.iter(binding.record_element), start=1):
        cells: list[Cell] = []
        for field in table.fields:
            element_name = binding.field_elements.get(field.name)
            element = record.find(element_name) if element_name else None
            text = element.text or "" if element is not None else ""
            cells.append(coerce(text.strip(), field, number))
        rows.append(tuple(cells))
    return tuple(rows)


def fetch_table(project: Project, source: str, table: str, log: AccessLog | None = None) -> Table:
    """Fetch one declared table as a typed snapshot.

    Appends (source, table) to the access log exactly once per call; view
    bindings additionally log the tables they read underneath, the view
    first, then its base, and so on down the chain.

    A file or XML table is read on every call and an XML transform run on
    every call; parsing and view selection go through ``Project.derive``.
    What each table reads comes from :func:`source_plan`, and the first view
    down the chain that cannot fetch raises its fault as an ``IoError``.
    """
    src = project.source(source)
    if src is None:
        raise UnknownTableError(f"unknown data source '{source}'")
    plan = source_plan(project, src)
    if table not in plan:
        raise UnknownTableError(f"data source '{source}' has no table '{table}'")

    views: list[PlannedView] = []  # from ``table`` down
    while True:
        if log is not None:
            log.append(source, table)
        view = plan[table]
        if not isinstance(view, PlannedView):
            break
        if view.fault is not None:
            raise IoError(view.fault)
        views.append(view)
        table = view.base.name  # declared: a view that reads no declared table has a fault

    path, tdef = plan[table], views[-1].base if views else src.table(table)
    binding = tdef.binding
    data = _read_bytes(path)
    if isinstance(binding, FileBinding):
        parse = _parse_tabular
    else:
        parse = _parse_xml
        if binding.transform is not None:
            data = _run_transform(binding.transform, data, f"table '{tdef.name}'")
    base = project.derive(("source", source, tdef.name), (data,),
                          lambda: Table(tdef.name, tdef.fields, parse(data, tdef, path)))
    for view in reversed(views):
        base = project.derive(("source", source, view.table.name), (base,),
                              lambda: _view(view.table, base, view.query))
    return base


@dataclass(frozen=True)
class PlannedView:
    """A view in a source plan: its definition, the table its SQL reads, that
    SQL parsed, and why it cannot fetch.

    ``query`` is None if the SQL does not parse, ``base`` also if it reads
    no declared table, and ``fault`` if the view can fetch.
    """

    table: SourceTableDef
    base: SourceTableDef | None
    query: sql_frontend.SqlQuery | None
    fault: str | None


def source_plan(project: Project, src: DataSourceDescriptor) -> dict[str, Path | PlannedView]:
    """What fetching each table of ``src`` reads, decided once per project.

    A file or XML table maps to the path it reads, a view to a
    :class:`PlannedView`. Each view's SQL is parsed once, then one search
    finds the cycles of views. The one view rule, for ``fetch_table`` and
    ``check_schema`` alike: the SQL parses, ``src`` declares the table and
    every field it reads, each filter's dtypes are
    :func:`~medquery.dtypes.comparable`, it projects the declared fields in
    order, and it does not lie on a cycle of views. A view that only leads
    into a faulty view passes; fetching it fails there.
    """
    def build() -> dict[str, Path | PlannedView]:
        plan: dict[str, Path | PlannedView] = {}
        views: list[tuple[SourceTableDef, sql_frontend.SqlQuery]] = []  # each view that parses
        for tdef in src.tables:
            binding = tdef.binding
            if isinstance(binding, ViewBinding):
                try:
                    views.append((tdef, sql_frontend.parse_view_select(binding.query)))
                except MedQueryError as exc:
                    plan[tdef.name] = PlannedView(tdef, None, None, f"view SQL does not parse: {exc}")
            else:  # an absolute location or file path replaces what comes before it
                parts = (src.location, binding.path) if isinstance(binding, FileBinding) else (src.location,)
                plan[tdef.name] = Path(project.base_dir, *parts)
        edges = {tdef.name: [query.from_tables[0]] for tdef, query in views}
        cycles = {name for component in strong_components(edges)
                  if len(component) > 1 or component[0] in edges.get(component[0], ())
                  for name in component}
        for tdef, query in views:
            base = src.table(query.from_tables[0])
            plan[tdef.name] = PlannedView(tdef, base, query,
                                          _check_view(src, tdef, query, base, tdef.name in cycles))
        return plan
    return project.derive(("plan", src.name), (), build)


def _check_view(src: DataSourceDescriptor, tdef: SourceTableDef, query: sql_frontend.SqlQuery,
                base: SourceTableDef | None, on_cycle: bool) -> str | None:
    """Why view ``tdef``, parsed as ``query`` to read ``base`` (None if
    ``src`` does not declare it), cannot fetch; None if it can."""
    if base is None:
        return f"view reads table '{query.from_tables[0]}', which '{src.name}' does not declare"
    for fld in sql_frontend.referenced_fields(query):
        if fld.table != base.name:
            return f"view reads table '{fld.table}', which is not its FROM table '{base.name}'"
        if base.field_def(fld.field) is None:
            return f"view reads field '{fld.field}', which '{src.name}.{base.name}' does not declare"
    for cond in query.filters:
        lhs = base.field_def(cond.lhs.field).dtype
        rhs = (cond.rhs if isinstance(cond.rhs, TypedLiteral) else base.field_def(cond.rhs.field)).dtype
        if not comparable(cond.op, lhs, rhs):
            return (f"view filter {cond} can never hold: "
                    f"{cond.op} does not compare {lhs.value} with {rhs.value}")
    # names are identifiers, so "name dtype" compares as the pair does
    shown = ", ".join(f"{f.field} {base.field_def(f.field).dtype.value}" for f in query.select)
    declared = ", ".join(f"{f.name} {f.dtype.value}" for f in tdef.fields)
    if shown != declared:
        return f"view '{tdef.name}' projects [{shown}] but declares [{declared}]"
    # a view on a cycle never reaches a file
    return f"view reference cycle through '{src.name}.{tdef.name}'" if on_cycle else None


def _view(tdef: SourceTableDef, base: Table, query: sql_frontend.SqlQuery) -> Table:
    """The view ``tdef``: the rows of ``base`` that pass every filter of ``query``, projected.

    The filters are checked by :func:`~medquery.dtypes.passing`: a comparison
    touching a missing cell is incomparable, and excludes the row as a false one does.
    """
    # (lhs column, op, rhs column or literal), resolved once for every row
    conditions = [
        (base.column(cond.lhs.field), cond.op,
         base.column(cond.rhs.field) if isinstance(cond.rhs, sql_frontend.QualifiedField)
         else cond.rhs)
        for cond in query.filters
    ]
    columns = [base.column(f.field) for f in query.select]
    kept, _ = passing(base.rows, conditions)
    return Table(tdef.name, tdef.fields, tuple(tuple(row[i] for i in columns) for row in kept))
