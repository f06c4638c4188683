"""Translate a parsed SQL query into RDQL text and its engine AST.

The translation works field by field:

  1. every selected field T.F gets ``?F`` (or ``?T_F`` for every field
     whose bare name is selected from more than one table);
  2. every FROM entry k gets the table variable ``?tbl_k``;
  3. every field occurring anywhere in the query yields exactly one triple
     pattern ``(?tbl_k <http://integratedDB/T#F> ?var)``. The equality
     joins group the fields into classes, and each class shares one
     variable: that of the selected field it holds, or else a fresh
     ``?fld_j``, numbered in order of the class's first field in the query;
  4. the remaining conditions become comparison atoms in the AND clause.

Names are claimed in that order, and a name already claimed takes the first
free suffix ``_2``, ``_3``, ...; so distinct classes and tables never share
a variable, even where a field is named ``fld_0``, ``tbl_0`` or ``T_F``.

A join between two classes that each hold a selected field merges nothing:
the equality moves into the AND clause instead, so every variable stays
bound by its own pattern and a class never holds two selected fields. So
does a join of two fields of different dtypes: a shared variable joins by
term, and equal values are equal terms only within one dtype (the integer
``3`` and the decimal ``3.0`` are not), where the atom compares by value.
"""

from __future__ import annotations

from collections import Counter

from .descriptors import IntegratedSchema
from .dtypes import LEXICAL_ESCAPES, Dtype, Iri, TypedLiteral
from .iris import property_iri
from .rdql_engine import FilterAtom, RdqlQuery, TriplePattern, Var
from .sql_frontend import Condition, QualifiedField, SqlQuery, referenced_fields


def convert(query: SqlQuery, schema: IntegratedSchema) -> tuple[str, RdqlQuery]:
    """Pure function from a SQL AST validated against ``schema`` to (RDQL text, RDQL AST)."""
    # distinct fields in first-occurrence order drive pattern order
    fields = list(dict.fromkeys(referenced_fields(query)))
    var_of, table_var, residual_joins = _variables(query, fields, schema)

    patterns = tuple(
        TriplePattern(table_var[field.table], Iri(property_iri(field.table, field.field)), var_of[field])
        for field in fields
    )

    atoms = [FilterAtom(var_of[cond.lhs], "=", var_of[cond.rhs]) for cond in residual_joins]
    for cond in query.filters:
        rhs = var_of[cond.rhs] if isinstance(cond.rhs, QualifiedField) else cond.rhs
        atoms.append(FilterAtom(var_of[cond.lhs], cond.op, rhs))

    select_vars = tuple(var_of[field] for field in query.select)
    ast = RdqlQuery(select_vars, patterns, tuple(atoms))
    return _render(ast), ast


def _variables(query: SqlQuery, fields: list[QualifiedField], schema: IntegratedSchema
               ) -> tuple[dict[QualifiedField, Var], dict[str, Var], list[Condition]]:
    """Each field's variable, each table's, and the joins left for the AND clause."""
    taken: set[str] = set()

    def claim(name: str) -> str:
        unique, suffix = name, 1
        while unique in taken:
            suffix += 1
            unique = f"{name}_{suffix}"
        taken.add(unique)
        return unique

    selected = dict.fromkeys(query.select)
    tables_per_name = Counter(field.field for field in selected)
    # a class is [its variable's name, or None, *its fields]
    classes = {field: [None, field] for field in fields}
    for field in selected:
        qualified = tables_per_name[field.field] > 1
        classes[field][0] = claim(f"{field.table}_{field.field}" if qualified else field.field)
    table_var = {name: Var(claim(f"tbl_{k}")) for k, name in enumerate(query.from_tables)}

    residual_joins = []
    dtype = {f: schema.table(f.table).field_def(f.field).dtype for f in fields}
    for cond in query.join_conds:
        a, b = classes[cond.lhs], classes[cond.rhs]
        if a is b:
            continue
        if (a[0] is not None and b[0] is not None) or dtype[cond.lhs] is not dtype[cond.rhs]:
            residual_joins.append(cond)
            continue
        if len(a) < len(b):
            a, b = b, a  # merge the smaller class, so a chain of n joins is O(n log n)
        if a[0] is None:
            a[0] = b[0]
        a.extend(b[1:])
        for field in b[1:]:
            classes[field] = a

    fresh = 0
    for field in fields:
        if classes[field][0] is None:
            classes[field][0] = claim(f"fld_{fresh}")
            fresh += 1
    return {field: Var(cls[0]) for field, cls in classes.items()}, table_var, residual_joins


def _render_atom_rhs(rhs: Var | TypedLiteral) -> str:
    if isinstance(rhs, Var):
        return f"?{rhs.name}"
    if rhs.dtype is Dtype.STRING:  # escaped as N-Triples escapes it, so a line break survives a text file
        return '"' + rhs.lexical.translate(LEXICAL_ESCAPES) + '"'
    return rhs.lexical


def _render(ast: RdqlQuery) -> str:
    # every pattern convert makes is (?table <property> ?variable)
    lines = ["SELECT " + ", ".join(f"?{v.name}" for v in ast.select), "WHERE",
             ",\n".join(f"(?{p.s.name} <{p.p.value}> ?{p.o.name})" for p in ast.patterns)]
    if ast.filters:
        rendered = [
            f"?{atom.lhs.name} {atom.op} {_render_atom_rhs(atom.rhs)}"
            for atom in ast.filters
        ]
        lines.append("AND " + " && ".join(rendered))
    return "\n".join(lines) + "\n"
