"""Materialize integrated tables lazily and turn them into RDF triples.

Only the integrated tables a query touches are built. The first integrated
field names the master source table; every master row becomes one
integrated row. A field mapped into the master table is that column of it.
A field whose mapping is the target of a derived relation adds or
concatenates its operand columns. Any other field is looked up by following
declared equality relations from the master table (transitively, shortest
chain first, descriptor order breaking ties). A materialization makes each
column and follows each hop once, indexing a hop's far table by key: work
linear in the rows read. It loops, never recursing, so no chain is too deep.

A lookup that matches nothing leaves the cell missing; one that matches
several rows takes the first in source order, and each source field looked
up logs one warning with the number of master rows that did so. Missing
cells produce no triple, so such rows fail triple patterns over that property.

Both steps go through :meth:`~medquery.descriptors.Project.derive`, which
states when a result is reused. On reuse an integrated table's multi-match
warnings are logged again, as a fresh materialization would log them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from decimal import MAX_PREC, Decimal, localcontext
from typing import Callable, Iterable, Sequence

from .descriptors import (
    DerivedOp,
    FieldRef,
    IntegratedSchema,
    Project,
    SourceFieldDef,
    TableNode,
    derivation_order,
    relation_graph,
    shortest_walk,
)
from .dtypes import Dtype, Iri, Term, TypedLiteral
from .errors import NoRelationPathError, UnknownTableError
from .iris import property_iri, split_property_iri, subject_iri
from .rdql_engine import RdqlQuery, Var
from .triple_store import TripleStore
from .wrappers import AccessLog, Cell, Row, Table, coerce, fetch_table

logger = logging.getLogger(__name__)

FetchFn = Callable[[Project, str, str, AccessLog | None], Table]


@dataclass
class IntegratedData:
    """Materialized integrated tables, keyed by integrated table name, and their project."""

    project: Project = field(compare=False, repr=False)
    tables: dict[str, Table] = field(default_factory=dict)


def required_tables(query: RdqlQuery, schema: IntegratedSchema) -> list[str]:
    """Integrated tables a query can touch, in schema order.

    A concrete predicate names its table through the property IRI scheme;
    a variable predicate may match anything, so it conservatively requires
    every table in the schema. An unknown table raises UnknownTableError.
    """
    names: set[str] = set()
    for pattern in query.patterns:
        if isinstance(pattern.p, Var):
            names.update(t.name for t in schema.tables)
        elif isinstance(pattern.p, Iri):
            names.add(split_property_iri(pattern.p.value)[0])
    ordered = [t.name for t in schema.tables if t.name in names]
    if len(ordered) != len(names):
        unknown = sorted(names.difference(ordered))
        raise UnknownTableError(f"query references integrated table(s) {unknown} not in the schema")
    return ordered


# --- column builder -----------------------------------------------------------

_MULTI_MATCH = ("%d master rows match several rows of %s.%s for field %s; "
                "keeping the first in source order")


class _Materializer:
    def __init__(self, project: Project, master: TableNode, fetch: FetchFn, log: AccessLog | None):
        self.read = lambda node: fetch(project, node[0], node[1], log)
        self.master = master
        self.edges, self.derived_by_target = relation_graph(project)
        self.cache: dict[TableNode, Table] = {}  # every table fetched, in fetch order: the read record
        self.warnings: list[tuple] = []  # the arguments of each multi-match warning
        self.columns: dict[FieldRef, list[Cell]] = {}  # the raw cells of each field built
        # per table walked to, per master row: the distinct rows reached, in first-reached order
        self.reached: dict[TableNode, list[list[Row]]] = {}

    def table(self, node: TableNode) -> Table:
        if node not in self.cache:
            self.cache[node] = self.read(node)
        return self.cache[node]

    def column(self, ref: FieldRef, field_name: str) -> list[Cell]:
        """The raw cells of ``ref`` for every master row, in master row order."""
        if ref not in self.columns:
            for top, derived in derivation_order(self.derived_by_target, self.master, ref, self.columns):
                if derived is None:
                    self.columns[top] = self.lookup(top, field_name)
                    continue
                operands = [self.columns[op] for op in derived.operands]
                self.columns[top] = [_derive(derived.op, [cells[i] for cells in operands])
                                     for i in range(len(self.table(self.master).rows))]
        return self.columns[ref]

    def lookup(self, ref: FieldRef, field_name: str) -> list[Cell]:
        """``ref`` in the first row each master row reaches; missing where it reaches none."""
        master, node = self.master, (ref.source, ref.table)
        # the shortest chain of hops, ties to the first hop in descriptor order
        walk = [master] if node == master else shortest_walk(self.edges, master, node)
        if walk is None:
            raise NoRelationPathError(field_name, f"no equality relation connects {node[0]}."
                                      f"{node[1]} to master table {master[0]}.{master[1]}")
        if master not in self.reached:
            self.reached[master] = [[row] for row in self.table(master).rows]
        # one breadth-first search gives every walk, so the walk to a table on
        # this one is its prefix: walks share the hops they have in common
        for near, far in zip(walk, walk[1:]):
            reached = self.reached[near]
            if far in self.reached or not any(reached):
                # followed already; or no master row reaches ``near``, so ``far`` is not fetched
                self.reached.setdefault(far, reached)
                continue
            near_fields, far_fields = self.edges[near][far]
            far_table = self.table(far)
            by_key: dict[tuple[Cell, ...], list[Row]] = {}
            far_columns = [far_table.column(f) for f in far_fields]
            for far_row in far_table.rows:
                key = tuple(far_row[c] for c in far_columns)
                if all(k is not None for k in key):  # a missing cell matches nothing
                    by_key.setdefault(key, []).append(far_row)
            near_columns = [self.cache[near].column(f) for f in near_fields]
            self.reached[far] = [list(dict.fromkeys(
                far_row for row in rows
                for far_row in by_key.get(tuple(row[c] for c in near_columns), ())))
                for rows in reached]
        reached = self.reached[node]
        several = sum(len(rows) > 1 for rows in reached)
        if several:
            self.warnings.append((several, node[1], ref.field, field_name))
            logger.warning(_MULTI_MATCH, *self.warnings[-1])
        if not any(reached):
            return [None] * len(reached)  # ``node`` may not have been fetched
        index = self.cache[node].column(ref.field)
        return [rows[0][index] if rows else None for rows in reached]


def _derive(op: DerivedOp, values: list[Cell]) -> Cell:
    """Concatenate or add (exactly) the operand cells; missing if any is."""
    if any(v is None for v in values):
        return None
    if op is DerivedOp.CONCAT:
        return TypedLiteral("".join(v.lexical for v in values), Dtype.STRING)
    with localcontext() as ctx:
        ctx.prec = MAX_PREC  # exact: the default 28 digits round long sums
        total = sum(Decimal(v.lexical) for v in values)
    dtype = Dtype.INTEGER if total == total.to_integral_value() else Dtype.DECIMAL
    # fixed point: str() switches to exponent notation (1E-7) for small sums
    return TypedLiteral.canonical(format(total, "f"), dtype)


def materialize_integrated_table(project: Project, table_name: str,
                                 fetch: FetchFn = fetch_table,
                                 log: AccessLog | None = None) -> Table:
    """Build one integrated table from its sources, or return it again.

    ``fetch`` is the wrapper entry point and exists as a parameter so tests
    can interpose caching or scheduling; the result is a pure function of
    the fetched table contents. The tables last read are replayed through
    ``fetch``, in read order, to decide whether the last result still holds
    (see :class:`~medquery.descriptors.Project`); the replay stops at the
    first table that changed, and a rebuild reuses what it fetched.
    """
    tdef = project.schema.table(table_name)
    if tdef is None:
        raise UnknownTableError(f"integrated schema has no table '{table_name}'")
    key = ("integrated", table_name)
    master = (tdef.fields[0].mapping.source, tdef.fields[0].mapping.table)
    materializer = _Materializer(project, master, fetch, log)
    slot = project._memo.get(key)
    if slot is not None and all(materializer.table(node) == read for node, read in slot[0]):
        table, warnings = slot[1]
        for args in warnings:
            logger.warning(_MULTI_MATCH, *args)
    else:
        columns = [materializer.column(fdef.mapping, fdef.name) for fdef in tdef.fields]
        # the integrated table carries the integrated names and dtypes; cells are
        # converted row by row so an error names the first bad row, then field
        fields = tuple(SourceFieldDef(fdef.name, fdef.dtype) for fdef in tdef.fields)
        rows = tuple(
            tuple(cell if cell is None or cell.dtype is fdef.dtype
                  else coerce(cell.lexical, fdef, number)
                  for cell, fdef in zip(cells, tdef.fields))
            for number, cells in enumerate(zip(*columns), start=1)
        )
        table, warnings = Table(tdef.name, fields, rows), tuple(materializer.warnings)
    project._memo[key] = (tuple(materializer.cache.items()), (table, warnings))
    return table


def materialize_required(project: Project, names: Iterable[str],
                         fetch: FetchFn = fetch_table,
                         log: AccessLog | None = None) -> IntegratedData:
    """Materialize the named integrated tables, in the order given."""
    data = IntegratedData(project)
    for name in names:
        data.tables[name] = materialize_integrated_table(project, name, fetch, log)
    return data


def publish(name: str, field_names: Sequence[str], rows: Iterable[Sequence[Term | None]]) -> TripleStore:
    """Table ``name`` as RDF: the subject ``subject_iri(name, i)`` for row ``i``, the predicate
    ``property_iri(name, f)`` for field ``f``, and one triple per non-missing cell."""
    return TripleStore.from_rows([Iri(property_iri(name, f)) for f in field_names], (
        (Iri(subject_iri(name, index)), row) for index, row in enumerate(rows)))


def build_triples(data: IntegratedData) -> TripleStore:
    """The union of each table's segment: :func:`publish` of its rows, derived through ``data.project``.

    Table names key ``data.tables`` and field names are unique within a table,
    so every (row subject, field predicate) pair occurs once. Predicates carry
    the table name, so the segments share none. No store is written once
    built, so a memoized segment reads the same to every query that shares it.
    """
    return TripleStore.union([
        data.project.derive(("triples", name), (table,),
                            lambda: publish(name, [f.name for f in table.fields], table.rows))
        for name, table in data.tables.items()
    ])
