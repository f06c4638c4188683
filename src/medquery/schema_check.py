"""Structural satisfiability checking of an integrated schema.

A schema is accepted when none of these checks produce an error finding:

  UNRESOLVED_REF      a relation references a source field that is not declared
  TYPE_MISMATCH       equality pairs fields of different dtypes, or a derived
                      relation mixes incompatible dtypes (add needs numeric
                      operands and a numeric target, concat a string target)
  ARITY_MISMATCH      equality sides differ in length, or a derived relation
                      has fewer than two operands
  CYCLIC_DERIVATION   the target -> operand graph over derived relations
                      contains a cycle: one finding per strongly connected
                      component, showing a shortest cycle
  INVALID_VIEW        a view cannot fetch: its SQL does not parse, reads a
                      table or field its data source does not declare,
                      filters on a comparison that never holds, projects
                      other fields (names and dtypes, in order) than it
                      declares, or lies on a cycle of views
                      (``wrappers.source_plan`` decides, for fetch too)
  UNREACHABLE_FIELD   the materializer cannot build an integrated field
                      outside its table's master table (the table of the
                      first field): a derived one needs every operand, any
                      other a chain of equality relations from the master
                      table to its own

Unreferenced source tables additionally produce UNMAPPED_TABLE warnings:
sources are allowed to be broader than the schema. A table that a mapping
or relation names is referenced, and so is each table a referenced view
reads, directly or through other views.

All problems are reported as findings, never raised, and the report is a
pure, deterministic function of the project: findings appear in descriptor
document order. View faults and the tables a view reads come from one plan
per source; derivation cycles here, like view cycles there, are found by the
shared ``descriptors.strong_components``, which does not recurse.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .descriptors import (
    DerivedOp,
    DerivedRelation,
    EqualityRelation,
    FieldRef,
    Project,
    TableNode,
    ViewBinding,
    derivation_order,
    relation_graph,
    resolve_field_ref,
    shortest_walk,
    strong_components,
)
from .dtypes import NUMERIC_DTYPES, Dtype
from .errors import MedQueryError, UnresolvedFieldRefError
from .wrappers import PlannedView, source_plan


class Severity(str, enum.Enum):
    ERROR = "error"
    WARNING = "warning"


class FindingCode(str, enum.Enum):
    UNRESOLVED_REF = "UNRESOLVED_REF"
    TYPE_MISMATCH = "TYPE_MISMATCH"
    ARITY_MISMATCH = "ARITY_MISMATCH"
    CYCLIC_DERIVATION = "CYCLIC_DERIVATION"
    INVALID_VIEW = "INVALID_VIEW"
    UNREACHABLE_FIELD = "UNREACHABLE_FIELD"
    UNMAPPED_TABLE = "UNMAPPED_TABLE"


@dataclass(frozen=True)
class Finding:
    severity: Severity
    code: FindingCode
    location: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity.value} {self.code.value} {self.location}: {self.message}"


@dataclass(frozen=True)
class SatisfiabilityReport:
    findings: tuple[Finding, ...]

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity is Severity.ERROR)

    @property
    def accepted(self) -> bool:
        return not self.errors

    def to_text(self) -> str:
        lines = [str(f) for f in self.findings]
        lines.append(f"{len(self.errors)} errors, {len(self.findings) - len(self.errors)} warnings")
        return "\n".join(lines) + "\n"


def check_schema(project: Project) -> SatisfiabilityReport:
    """Run all structural checks and collect the findings."""
    findings: list[Finding] = []

    def err(code: FindingCode, location: str, message: str) -> None:
        findings.append(Finding(Severity.ERROR, code, location, message))

    referenced: set[tuple[str, str]] = set()

    def resolved(ref: FieldRef, role: str) -> Dtype | None:
        """The dtype of ``ref``, noted as referenced; None, reported at ``loc``, if it dangles."""
        try:
            dtype = resolve_field_ref(project, ref).dtype
        except UnresolvedFieldRefError:
            err(FindingCode.UNRESOLVED_REF, loc, f"{role} references undeclared field {ref}")
            return None
        referenced.add((ref.source, ref.table))
        return dtype

    # each field decided as the materializer builds it, in ``derivation_order``: one in the master
    # table is its column, a derived one needs its operands, any other a walk of equality relations
    edges, derived_by_target = relation_graph(project)
    for table in project.schema.tables:
        master = (table.fields[0].mapping.source, table.fields[0].mapping.table)
        blocked: dict[FieldRef, TableNode | None] = {}  # the first table on the way no relation reaches
        for fdef in table.fields:
            home = (fdef.mapping.source, fdef.mapping.table)
            referenced.add(home)
            if home == master:
                continue
            try:
                order = derivation_order(derived_by_target, master, fdef.mapping, blocked)
            except MedQueryError:  # a derivation cycle: CYCLIC_DERIVATION
                continue
            for ref, derived in order:
                walked = (ref.source, ref.table)
                if derived:
                    blocked[ref] = next(filter(None, map(blocked.get, derived.operands)), None)
                else:
                    blocked[ref] = None if walked == master or shortest_walk(edges, master, walked) else walked
            if blocker := blocked[fdef.mapping]:
                err(FindingCode.UNREACHABLE_FIELD, f"schema/table[{table.name}]/field[{fdef.name}]",
                    f"no equality relation connects {'.'.join(blocker)} to master table {'.'.join(master)}")

    for index, relation in enumerate(project.schema.relations, start=1):
        loc = f"schema/relation[{index}]"
        if isinstance(relation, EqualityRelation):
            types = {ref: resolved(ref, "equality") for ref in relation.lhs + relation.rhs}
            for left, right in zip(relation.lhs, relation.rhs):
                lt, rt = types[left], types[right]
                if lt is not None and rt is not None and lt is not rt:
                    err(
                        FindingCode.TYPE_MISMATCH, loc,
                        f"equality pairs {left} ({lt.value}) with {right} ({rt.value})",
                    )
            if len(relation.lhs) != len(relation.rhs):
                err(
                    FindingCode.ARITY_MISMATCH, loc,
                    f"equality sides differ in length ({len(relation.lhs)} vs {len(relation.rhs)})",
                )
        else:
            target_type = resolved(relation.target, "derived target")
            operand_types = [resolved(ref, "derived operand") for ref in relation.operands]
            if relation.op is DerivedOp.ADD:
                for ref, dtype in zip(relation.operands, operand_types):
                    if dtype is not None and dtype not in NUMERIC_DTYPES:
                        err(FindingCode.TYPE_MISMATCH, loc,
                            f"add operand {ref} is {dtype.value}, expected numeric")
                if target_type is not None and target_type not in NUMERIC_DTYPES:
                    err(FindingCode.TYPE_MISMATCH, loc,
                        f"add target {relation.target} is {target_type.value}, expected numeric")
            else:
                if target_type is not None and target_type is not Dtype.STRING:
                    err(FindingCode.TYPE_MISMATCH, loc,
                        f"concat target {relation.target} is {target_type.value}, expected string")
            if len(relation.operands) < 2:
                err(FindingCode.ARITY_MISMATCH, loc,
                    f"derived relation has {len(relation.operands)} operand(s), needs at least 2")

    findings.extend(_cycle_findings(project))

    # what a referenced view reads, directly or through other views, is referenced too
    for source, table in list(referenced):
        src = project.source(source)
        tdef = src.table(table) if src is not None else None
        is_view = tdef is not None and isinstance(tdef.binding, ViewBinding)
        plan = source_plan(project, src) if is_view else {}  # none for a file or XML table
        while isinstance(view := plan.get(table), PlannedView) and view.base is not None:
            table = view.base.name
            if (source, table) in referenced:
                break  # a cycle of views ends here
            referenced.add((source, table))

    for src in project.sources:
        for table in src.tables:
            loc = f"datasources/datasource[{src.name}]/table[{table.name}]"
            view = source_plan(project, src)[table.name] if isinstance(table.binding, ViewBinding) else None
            if view is not None and view.fault is not None:
                err(FindingCode.INVALID_VIEW, loc, view.fault)
            if (src.name, table.name) not in referenced:
                findings.append(Finding(
                    Severity.WARNING, FindingCode.UNMAPPED_TABLE, loc,
                    f"source table '{src.name}.{table.name}' is referenced by no mapping or relation",
                ))

    return SatisfiabilityReport(tuple(findings))


def _cycle_findings(project: Project) -> list[Finding]:
    """One CYCLIC_DERIVATION error per strongly connected derivation cycle.

    Each shows a shortest cycle through its field named first (by relation,
    then by name); they come in that field's relation order.
    """
    edges: dict[FieldRef, list[FieldRef]] = {}  # target -> operands
    first_relation: dict[FieldRef, int] = {}
    for index, relation in enumerate(project.schema.relations, start=1):
        if isinstance(relation, DerivedRelation):
            for ref in (relation.target, *relation.operands):
                edges.setdefault(ref, [])
                first_relation.setdefault(ref, index)
            edges[relation.target].extend(relation.operands)

    starts = [
        min(component, key=lambda ref: (first_relation[ref], str(ref)))
        for component in strong_components(edges)
        if len(component) > 1 or component[0] in edges[component[0]]
    ]
    return [
        Finding(
            Severity.ERROR, FindingCode.CYCLIC_DERIVATION,
            f"schema/relation[{first_relation[start]}]",
            "derivation cycle: " + " -> ".join(map(str, shortest_walk(edges, start, start))),
        )
        for start in sorted(starts, key=first_relation.__getitem__)
    ]
