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
reused. A view's SQL was parsed once, with its descriptor.
"""

from __future__ import annotations

import shlex
import subprocess
import threading
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from . import sql_frontend
from .descriptors import (
    FileBinding,
    Project,
    SourceFieldDef,
    SourceTableDef,
    ViewBinding,
    XmlBinding,
)
from .dtypes import canonicalize, compare
from .errors import IoError, TypeCoercionError, UnknownFieldError, UnknownTableError
from .triple_store import TypedLiteral

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


def _coerce(text: str, field: SourceFieldDef, row_number: int) -> Cell:
    if text == "":
        return None
    try:
        return TypedLiteral(canonicalize(text, field.dtype), field.dtype)
    except ValueError:
        raise TypeCoercionError(row_number, field.name, text) from None


def _resolve_path(project: Project, *parts: str) -> Path:
    path = Path(project.base_dir)
    for part in parts:
        if part:
            candidate = Path(part)
            path = candidate if candidate.is_absolute() else path / candidate
    return path


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
            _coerce(cells[pos], field, number)
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

    rows: list[Row] = []
    for number, record in enumerate(root.iter(binding.record_element), start=1):
        cells: list[Cell] = []
        for field in table.fields:
            element_name = binding.field_elements.get(field.name)
            element = record.find(element_name) if element_name else None
            text = element.text or "" if element is not None else ""
            cells.append(_coerce(text.strip(), field, number))
        rows.append(tuple(cells))
    return tuple(rows)


def fetch_table(project: Project, source: str, table: str, log: AccessLog | None = None,
                _active: frozenset[tuple[str, str]] = frozenset()) -> Table:
    """Fetch one declared table as a typed snapshot.

    Appends (source, table) to the access log exactly once per call; view
    bindings additionally log the tables they read underneath.

    A file or XML table is read on every call and an XML transform run on
    every call; parsing and view selection go through ``Project.derive``.
    """
    src = project.source(source)
    if src is None:
        raise UnknownTableError(f"unknown data source '{source}'")
    tdef = src.table(table)
    if tdef is None:
        raise UnknownTableError(f"data source '{source}' has no table '{table}'")
    if (source, table) in _active:
        raise IoError(f"view reference cycle through '{source}.{table}'")
    if log is not None:
        log.append(source, table)

    binding = tdef.binding
    if isinstance(binding, ViewBinding):
        # a view that does not parse raises here what parsing raises
        query = binding.select or sql_frontend.parse_view_select(binding.query)
        base = fetch_table(project, source, query.from_tables[0], log,
                           _active=_active | {(source, table)})
        return project.derive(("source", source, table), (base,),
                              lambda: _view(tdef, base, query))
    if isinstance(binding, FileBinding):
        path = _resolve_path(project, src.location, binding.path)
        data, parse = _read_bytes(path), _parse_tabular
    else:
        path = _resolve_path(project, src.location)
        data, parse = _read_bytes(path), _parse_xml
        if binding.transform is not None:
            data = _run_transform(binding.transform, data, f"table '{table}'")
    return project.derive(("source", source, table), (data,),
                          lambda: Table(table, tdef.fields, parse(data, tdef, path)))


def view_shape_error(tdef: SourceTableDef, projected: Iterable[SourceFieldDef]) -> str | None:
    """Why a view projecting ``projected`` does not fit its declaration ``tdef``, if it does not."""
    # names are identifiers, so "name dtype" compares as the pair does
    shown = ", ".join(f"{f.name} {f.dtype.value}" for f in projected)
    declared = ", ".join(f"{f.name} {f.dtype.value}" for f in tdef.fields)
    if shown != declared:
        return f"view '{tdef.name}' projects [{shown}] but declares [{declared}]"
    return None


def _view(tdef: SourceTableDef, base: Table, query: sql_frontend.SqlQuery) -> Table:
    """The view ``tdef``: the rows of ``base`` that pass every filter of ``query``, projected.

    Comparisons follow the typed rules of :func:`~medquery.dtypes.compare`; a
    comparison touching a missing cell excludes the row, and incomparable
    pairs never match. A projection other than the declared fields raises.
    """
    # (lhs column, op, rhs column or literal), resolved once for every row
    conditions = [
        (base.column(cond.lhs.field), cond.op,
         base.column(cond.rhs.field) if isinstance(cond.rhs, sql_frontend.QualifiedField)
         else cond.rhs)
        for cond in query.filters
    ]

    def passes(row: Row) -> bool:
        for lhs_column, op, rhs in conditions:
            lhs = row[lhs_column]
            if isinstance(rhs, int):
                rhs = row[rhs]
            if lhs is None or rhs is None:
                return False
            if compare(op, lhs.lexical, lhs.dtype, rhs.lexical, rhs.dtype) is not True:
                return False
        return True

    columns = [base.column(f.field) for f in query.select]
    shape_error = view_shape_error(tdef, (base.fields[i] for i in columns))
    if shape_error:
        raise IoError(shape_error)
    rows = tuple(
        tuple(row[i] for i in columns)
        for row in base.rows if passes(row)
    )
    return Table(tdef.name, tdef.fields, rows)
