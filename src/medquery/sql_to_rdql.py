"""Translate a parsed SQL query into RDQL text and its engine AST.

The translation works field by field:

  1. every FROM entry k gets the table variable ``?tbl_k``;
  2. every selected field T.F gets ``?F`` (or ``?T_F`` for every field
     whose bare name is selected from more than one table);
  3. every field occurring anywhere in the query yields exactly one triple
     pattern ``(?tbl_k <http://integratedDB/T#F> ?var)``; the two sides of
     an equality join share one variable, either a selected field's
     variable or a fresh ``?fld_j``;
  4. the remaining conditions become comparison atoms in the AND clause.

When both sides of a join are selected under different names the equality
moves into the AND clause instead, so every variable stays bound by its
own pattern.
"""

from __future__ import annotations

from .descriptors import IntegratedSchema
from .dtypes import Dtype
from .iris import property_iri
from .rdql_engine import FilterAtom, RdqlQuery, TriplePattern, Var
from .sql_frontend import QualifiedField, SqlQuery
from .triple_store import Iri, TypedLiteral


def convert(query: SqlQuery, schema: IntegratedSchema) -> tuple[str, RdqlQuery]:
    """Pure function from a validated SQL AST to (RDQL text, RDQL AST)."""
    from_index = {name: k for k, name in enumerate(query.from_tables)}

    # distinct fields in first-occurrence order drive pattern order
    occurrence: list[QualifiedField] = []
    seen: set[QualifiedField] = set()

    def note(field: QualifiedField) -> None:
        if field not in seen:
            seen.add(field)
            occurrence.append(field)

    for field in query.select:
        note(field)
    for cond in query.join_conds + query.filters:
        note(cond.lhs)
        if isinstance(cond.rhs, QualifiedField):
            note(cond.rhs)

    variables = _allocate_variables(query, occurrence)

    patterns = tuple(
        TriplePattern(
            Var(f"tbl_{from_index[field.table]}"),
            Iri(property_iri(field.table, field.field)),
            Var(variables.var_of(field)),
        )
        for field in occurrence
    )

    atoms: list[FilterAtom] = []
    for lhs_field, rhs_field in variables.residual_joins:
        atoms.append(FilterAtom(Var(variables.var_of(lhs_field)), "=",
                                Var(variables.var_of(rhs_field))))
    for cond in query.filters:
        rhs = cond.rhs
        if isinstance(rhs, QualifiedField):
            rhs = Var(variables.var_of(rhs))
        atoms.append(FilterAtom(Var(variables.var_of(cond.lhs)), cond.op, rhs))

    select_vars = tuple(Var(variables.var_of(field)) for field in query.select)
    ast = RdqlQuery(select_vars, patterns, tuple(atoms))
    return _render(ast), ast


class _Variables:
    """Field-to-variable assignment with join-side unification."""

    def __init__(self) -> None:
        self._parent: dict[QualifiedField, QualifiedField] = {}
        self._pinned: dict[QualifiedField, str] = {}
        self._assigned: dict[QualifiedField, str] = {}
        self.residual_joins: list[tuple[QualifiedField, QualifiedField]] = []

    def _find(self, field: QualifiedField) -> QualifiedField:
        root = field
        while self._parent.get(root, root) != root:
            root = self._parent[root]
        while self._parent.get(field, field) != field:
            self._parent[field], field = root, self._parent[field]
        return root

    def pin(self, field: QualifiedField, var: str) -> None:
        self._pinned[self._find(field)] = var

    def unify(self, a: QualifiedField, b: QualifiedField) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        va, vb = self._pinned.get(ra), self._pinned.get(rb)
        if va is not None and vb is not None:
            # both sides already named by SELECT: keep both, equate later
            self.residual_joins.append((a, b))
            return
        self._parent[rb] = ra
        if vb is not None:
            self._pinned[ra] = vb

    def assign_fresh(self, occurrence: list[QualifiedField]) -> None:
        counter = 0
        for field in occurrence:
            root = self._find(field)
            if root in self._pinned or root in self._assigned:
                continue
            self._assigned[root] = f"fld_{counter}"
            counter += 1

    def var_of(self, field: QualifiedField) -> str:
        root = self._find(field)
        return self._pinned.get(root) or self._assigned[root]


def _allocate_variables(query: SqlQuery, occurrence: list[QualifiedField]) -> _Variables:
    variables = _Variables()

    selected = []
    for field in query.select:
        if field not in selected:
            selected.append(field)
    tables_by_name: dict[str, set[str]] = {}
    for field in selected:
        tables_by_name.setdefault(field.field, set()).add(field.table)
    for field in selected:
        if len(tables_by_name[field.field]) > 1:
            variables.pin(field, f"{field.table}_{field.field}")
        else:
            variables.pin(field, field.field)

    for cond in query.join_conds:
        assert isinstance(cond.rhs, QualifiedField)
        variables.unify(cond.lhs, cond.rhs)

    variables.assign_fresh(occurrence)
    return variables


def _render_atom_rhs(rhs: Var | TypedLiteral) -> str:
    if isinstance(rhs, Var):
        return f"?{rhs.name}"
    if rhs.dtype is Dtype.STRING:
        escaped = rhs.lexical.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return rhs.lexical


def _render(ast: RdqlQuery) -> str:
    lines = ["SELECT " + ", ".join(f"?{v.name}" for v in ast.select), "WHERE"]
    for i, pattern in enumerate(ast.patterns):
        assert isinstance(pattern.p, Iri)
        assert isinstance(pattern.s, Var) and isinstance(pattern.o, Var)
        line = f"(?{pattern.s.name} <{pattern.p.value}> ?{pattern.o.name})"
        if i < len(ast.patterns) - 1:
            line += ","
        lines.append(line)
    if ast.filters:
        rendered = [
            f"?{atom.lhs.name} {atom.op} {_render_atom_rhs(atom.rhs)}"
            for atom in ast.filters
        ]
        lines.append("AND " + " && ".join(rendered))
    return "\n".join(lines) + "\n"
