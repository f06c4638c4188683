"""Descriptor files and the in-memory integration project.

Two XML files drive the mediator. The data-source descriptor declares the
sources subject to integration (tabular files, per-source views, or XML
documents) together with the tables and typed fields each one provides. The
integrated-schema descriptor declares the unified virtual tables, maps each
integrated field onto a source field, and states inter-table relations
(field or field-set equalities, and derived fields built by addition or
concatenation).

Data-source descriptor::

    <datasources>
      <datasource name="uni" kind="tabular" location="data">
        <credentials user="u" password="p"/>          <!-- optional -->
        <table name="STUDENT">
          <field name="ID" type="integer"/>
          <field name="FIRSTNAME" type="string"/>
          <file path="students.txt"/>
        </table>
      </datasource>
    </datasources>

A table carries exactly one binding: ``<file path="..."/>``,
``<view>SELECT ...</view>`` or ``<xmlbinding record="..." transform="...">``
with ``<map field="..." element="..."/>`` children. ``kind="tabular"``
sources use file or view bindings; ``kind="xml"`` sources use xml bindings
and their ``location`` names the XML document itself.

Integrated-schema descriptor::

    <schema name="campus">
      <table name="STUDENT">
        <field name="ID" type="integer" source="uni"
               sourcetable="STUDENT" sourcefield="ID"/>
      </table>
      <relation kind="equality">
        <lhs><ref source="uni" table="STUDENT" field="ID"/></lhs>
        <rhs><ref source="reg" table="GRADE" field="STUDENTID"/></rhs>
      </relation>
      <relation kind="derived" op="add">
        <target source="uni" table="STUDENT" field="TOTAL"/>
        <operand source="uni" table="STUDENT" field="DEBT"/>
        <operand source="uni" table="STUDENT" field="FEES"/>
      </relation>
    </schema>

Parsing is strict and total: any malformed input raises exactly one
classified error and never yields a partial project. Elements take only
the attributes and child elements shown above (``<datasources>``,
``<lhs>`` and ``<rhs>`` take no attribute, and the elements shown empty
take no child). Names and references are identifiers; ``type``, ``kind`` and ``op`` take their enum's values;
``record`` and ``element`` are plain XML element names, not paths; and a
``transform`` splits, shell-style, into at least one word. Field mappings
are resolved at parse time; relation references are deliberately left to
the satisfiability checker so that it can report them as findings. So is a
view's SQL: ``wrappers.source_plan`` parses and checks it, and the checker
reports a view that does not parse or does not fit its base table.

Every lookup by name (``source``, ``table``, ``field_def``) reads one dict per
owner, built from its element tuple on first use and kept outside its fields,
so equality, hash, repr and ``asdict`` ignore it. A parser collects elements
in a dict, where a membership test rejects a repeated name; tuples keep
document order.
"""

from __future__ import annotations

import enum
import os
import re
import shlex
import xml.etree.ElementTree as ET
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Container, Iterable, Iterator, Mapping, Union
from xml.parsers.expat import ErrorString

from .dtypes import IDENTIFIER_RE, Dtype
from .errors import DuplicateNameError, MalformedXmlError, MedQueryError, UnresolvedFieldRefError


# --- domain types ----------------------------------------------------------


def _named(owner: Any, elements: tuple[Any, ...], name: str) -> Any:
    """The element of ``owner``'s ``elements`` named ``name``, or None: the one name index."""
    index = owner.__dict__.get("_names")
    if index is None:
        index = {element.name: element for element in elements}
        object.__setattr__(owner, "_names", index)
    return index.get(name)


class SourceKind(str, enum.Enum):
    TABULAR = "tabular"
    XML = "xml"


class DerivedOp(str, enum.Enum):
    ADD = "add"
    CONCAT = "concat"


@dataclass(frozen=True)
class FieldRef:
    """A (source, table, field) coordinate into the declared sources."""

    source: str
    table: str
    field: str

    def __str__(self) -> str:
        return f"{self.source}.{self.table}.{self.field}"


@dataclass(frozen=True)
class SourceFieldDef:
    name: str
    dtype: Dtype


@dataclass(frozen=True)
class FileBinding:
    path: str


@dataclass(frozen=True)
class ViewBinding:
    query: str


@dataclass(frozen=True)
class XmlBinding:
    record_element: str
    field_elements: Mapping[str, str]
    transform: str | None = None


Binding = Union[FileBinding, ViewBinding, XmlBinding]


@dataclass(frozen=True)
class SourceTableDef:
    name: str
    fields: tuple[SourceFieldDef, ...]
    binding: Binding

    def field_def(self, name: str) -> SourceFieldDef | None:
        return _named(self, self.fields, name)


@dataclass(frozen=True)
class Credentials:
    user: str
    password: str


@dataclass(frozen=True)
class DataSourceDescriptor:
    name: str
    kind: SourceKind
    location: str
    credentials: Credentials | None
    tables: tuple[SourceTableDef, ...]

    def table(self, name: str) -> SourceTableDef | None:
        return _named(self, self.tables, name)


@dataclass(frozen=True)
class IntegratedFieldDef:
    name: str
    dtype: Dtype
    mapping: FieldRef


@dataclass(frozen=True)
class IntegratedTableDef:
    """An integrated virtual table; the first field is the extraction master."""

    name: str
    fields: tuple[IntegratedFieldDef, ...]

    def field_def(self, name: str) -> IntegratedFieldDef | None:
        return _named(self, self.fields, name)


@dataclass(frozen=True)
class EqualityRelation:
    lhs: tuple[FieldRef, ...]
    rhs: tuple[FieldRef, ...]


@dataclass(frozen=True)
class DerivedRelation:
    target: FieldRef
    op: DerivedOp
    operands: tuple[FieldRef, ...]


Relation = Union[EqualityRelation, DerivedRelation]


@dataclass(frozen=True)
class IntegratedSchema:
    name: str
    tables: tuple[IntegratedTableDef, ...]
    relations: tuple[Relation, ...]

    def table(self, name: str) -> IntegratedTableDef | None:
        return _named(self, self.tables, name)


@dataclass(frozen=True)
class Project:
    """A parsed, cross-validated pair of descriptors.

    ``base_dir`` anchors relative source locations to the directory of the
    data-source descriptor file; it is excluded from structural equality.
    ``source`` and the lookups under it read the name index (module docstring).

    ``derive`` is the one memo rule of the pipeline, a build system's
    verifying trace; a ``make`` reads only its inputs and the descriptors.
    Each slot of ``_memo`` keeps a value with the inputs it came from and
    returns it again while later inputs compare equal (a tuple compares its
    items by identity first, so a hit on the same ``Table`` compares no
    rows). A hit keeps the newer inputs, so the next hit is by identity
    again. Keys name their layer first, so no data source or table name can
    make two layers share a slot:

    - ``("plan", source)``: what fetching each of the source's tables
      reads, from no inputs (``wrappers.source_plan``);
    - ``("source", source, table)``: a file or XML table from its bytes, a
      view from its base ``Table`` (``wrappers.fetch_table``);
    - ``("integrated", name)``: an integrated table and its multi-match
      warnings from the source tables it read, compared by replaying those
      reads in order and stopping at the first that changed
      (``extraction.materialize_integrated_table``);
    - ``("triples", name)``: an integrated table's triples from that table
      (``extraction.build_triples``);
    - ``("relations",)``: the schema's join graph and its first derived
      relation per target field, from no inputs, since the schema never
      changes (:func:`relation_graph`, which the checker and the
      materializer both read).

    A call that raises leaves its slot as it was. A slot is replaced whole,
    so callers sharing a project may derive a slot twice but never read a
    torn one.
    """

    sources: tuple[DataSourceDescriptor, ...]
    schema: IntegratedSchema
    base_dir: str = field(default=".", compare=False)
    _memo: dict[tuple, tuple[tuple, Any]] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    def derive(self, key: tuple, inputs: tuple, make: Callable[[], Any]) -> Any:
        """``make()``, or the value kept under ``key`` while its inputs equal ``inputs``."""
        slot = self._memo.get(key)
        value = slot[1] if slot is not None and slot[0] == inputs else make()
        self._memo[key] = (inputs, value)
        return value

    def source(self, name: str) -> DataSourceDescriptor | None:
        return _named(self, self.sources, name)


def resolve_field_ref(project: Project, ref: FieldRef) -> SourceFieldDef:
    """Look a FieldRef up in the project's sources.

    Pure function of the project; raises UnresolvedFieldRefError naming the
    first missing component.
    """
    source = project.source(ref.source)
    if source is None:
        raise UnresolvedFieldRefError(ref, f"unknown data source '{ref.source}'")
    table = source.table(ref.table)
    if table is None:
        raise UnresolvedFieldRefError(ref, f"data source '{ref.source}' has no table '{ref.table}'")
    fdef = table.field_def(ref.field)
    if fdef is None:
        raise UnresolvedFieldRefError(
            ref, f"table '{ref.source}.{ref.table}' has no field '{ref.field}'"
        )
    return fdef


TableNode = tuple[str, str]  # (source, table)
# one hop: the near table's key fields, and the far table's fields that match them
Hop = tuple[tuple[str, ...], tuple[str, ...]]


def relation_graph(project: Project) -> tuple[dict[TableNode, dict[TableNode, Hop]],
                                              dict[FieldRef, DerivedRelation]]:
    """The join graph over source tables, and the first derived relation per target, built once.

    An equality relation joins two tables, both ways, when each side sits entirely in
    one of them and they differ; the first such between two tables is their hop.
    """
    def build():
        edges: dict[TableNode, dict[TableNode, Hop]] = {}
        derived_by_target: dict[FieldRef, DerivedRelation] = {}
        for relation in project.schema.relations:
            if isinstance(relation, DerivedRelation):
                derived_by_target.setdefault(relation.target, relation)
                continue
            if not relation.lhs or len(relation.lhs) != len(relation.rhs):
                continue
            sides = [{(r.source, r.table) for r in side} for side in (relation.lhs, relation.rhs)]
            if len(sides[0]) != 1 or len(sides[1]) != 1 or sides[0] == sides[1]:
                continue
            (left,), (right,) = sides
            lhs_fields, rhs_fields = [tuple(r.field for r in side) for side in (relation.lhs, relation.rhs)]
            edges.setdefault(left, {}).setdefault(right, (lhs_fields, rhs_fields))
            edges.setdefault(right, {}).setdefault(left, (rhs_fields, lhs_fields))
        return edges, derived_by_target
    return project.derive(("relations",), (), build)


def derivation_order(derived_by_target: Mapping[FieldRef, DerivedRelation], master: TableNode, ref: FieldRef,
                     done: Container[FieldRef]) -> list[tuple[FieldRef, DerivedRelation | None]]:
    """``ref`` and each field it is derived from that ``done`` lacks, after its operands, depth first.

    Each comes with the first relation targeting it, for a field outside the ``master``
    table, or None for a field read from its table. A loop, so no chain is too deep; a cycle raises.
    """
    order: dict[FieldRef, DerivedRelation | None] = {}
    path = {ref: None}  # fields waiting for an operand, each an operand of the one before
    while path:
        top = next(reversed(path))
        derived = (top.source, top.table) != master and derived_by_target.get(top) or None
        waiting = derived and next((o for o in derived.operands if o not in done and o not in order), None)
        if waiting in path:  # only on a project that check_schema did not accept
            raise MedQueryError(f"derivation cycle through {waiting}")
        if waiting:
            path[waiting] = None
        else:
            order[path.popitem()[0]] = derived
    return list(order.items())


# --- graphs over descriptor names: ``edges`` maps a node to its successors ---


def shortest_walk(edges: Mapping[Any, Iterable[Any]], start: Any, goal: Any) -> list[Any] | None:
    """The nodes of a shortest walk of one or more steps from ``start`` to ``goal``, or None.

    Breadth first, so ties go to successors in ``edges`` order; a walk from
    ``start`` to itself is a shortest cycle through it.
    """
    parent = {start: start}
    frontier = [start]
    for node in frontier:  # grows while it is read: the breadth-first queue
        for succ in edges.get(node, ()):
            if succ == goal:
                walk = [succ, node]
                while walk[-1] != start:
                    walk.append(parent[walk[-1]])
                return walk[::-1]
            if succ not in parent:
                parent[succ] = node
                frontier.append(succ)
    return None


def strong_components(edges: Mapping[Any, Iterable[Any]]) -> list[list[Any]]:
    """The strongly connected components of ``edges``, by Tarjan's algorithm (1972), iteratively.

    Roots go in ``edges`` order and successors in theirs; a successor that
    is not a key has no successors.
    """
    index: dict[Any, int] = {}
    lowlink: dict[Any, int] = {}
    stack: list[Any] = []  # visited nodes whose component is not complete
    on_stack: set[Any] = set()
    components: list[list[Any]] = []

    def visit(node: Any) -> tuple[Any, Iterator[Any]]:
        index[node] = lowlink[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        return node, iter(edges.get(node, ()))

    for root in edges:
        work = [] if root in index else [visit(root)]  # the depth-first path
        while work:
            node, successors = work[-1]
            for succ in successors:
                if succ not in index:
                    work.append(visit(succ))
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            else:  # every successor is done
                work.pop()
                if work:
                    lowlink[work[-1][0]] = min(lowlink[work[-1][0]], lowlink[node])
                if lowlink[node] == index[node]:
                    component = [stack.pop()]
                    while component[-1] != node:
                        component.append(stack.pop())
                    on_stack.difference_update(component)
                    components.append(component)
    return components


# --- parsing ---------------------------------------------------------------


def _parse_root(text: str | bytes, expected_tag: str) -> ET.Element:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        line, column = exc.position  # MalformedXmlError puts the line in front
        raise MalformedXmlError(f"{ErrorString(exc.code)}: column {column}", line) from None
    except (LookupError, ValueError) as exc:  # an encoding Python has no text codec for
        raise MalformedXmlError(f"cannot decode the declared encoding: {exc}") from None
    if root.tag != expected_tag:
        raise MalformedXmlError(f"expected root <{expected_tag}>, found <{root.tag}>")
    return root


# attribute name -> the pattern its whole value must match, and what a match is;
# ElementTree's iter and find read anything but a plain name as a path or wildcard
_VALUE_PATTERNS = {
    **dict.fromkeys(("name", "source", "table", "field", "sourcetable", "sourcefield"),
                    (IDENTIFIER_RE, "a valid identifier")),
    **dict.fromkeys(("record", "element"), (re.compile(r"[^\W\d][\w.-]*"), "a valid XML element name")),
}

# (element tag, attribute name) -> the members of its enum, by value
_ENUM_ATTRS = {
    ("field", "type"): {dtype.value: dtype for dtype in Dtype},
    ("datasource", "kind"): {kind.value: kind for kind in SourceKind},
    ("relation", "op"): {op.value: op for op in DerivedOp},
}

# elements that may carry attributes (and, for <view>, text) but no child element
_LEAF_TAGS = frozenset({"field", "credentials", "file", "view", "map", "ref", "target", "operand"})


def _attrs(el: ET.Element, where: str, names: list[str], allowed: Iterable[str] = ()) -> list[Any]:
    """Check ``el``'s attributes against the tables above; return those in ``names``.

    Each of ``names`` is required and ``allowed`` lists the optional ones; any
    other attribute is an error, and so is any child of a leaf element.
    Enum-valued attributes are returned converted.
    An element named in its own context takes two calls: ``name`` in the
    enclosing context (with ``el.keys()`` allowed), then the rest in its own.
    """
    extra = set(el.keys()).difference(names, allowed)
    if extra:
        raise MalformedXmlError(f"{where}: unexpected attribute(s) {sorted(extra)} on <{el.tag}>")
    if el.tag in _LEAF_TAGS and len(el):
        raise MalformedXmlError(f"{where}: unexpected element <{el[0].tag}> in <{el.tag}>")
    values: list[Any] = []
    for name in names:
        value = el.get(name)
        if value is None:
            raise MalformedXmlError(f"{where}: missing attribute '{name}' on <{el.tag}>")
        pattern, what = _VALUE_PATTERNS.get(name, (None, ""))
        if pattern is not None and not pattern.fullmatch(value):
            raise MalformedXmlError(f"{where}: '{value}' is not {what}")
        members = _ENUM_ATTRS.get((el.tag, name))
        if members is not None and value not in members:
            raise MalformedXmlError(f"{where}: unknown {name} '{value}'")
        values.append(value if members is None else members[value])
    return values


def _add_unique(items: dict[str, Any], item: Any, kind: str, context: str = "") -> None:
    if item.name in items:
        raise DuplicateNameError(kind, item.name, context)
    items[item.name] = item


def _parse_source_table(el: ET.Element, source_name: str, kind: SourceKind) -> SourceTableDef:
    (name,) = _attrs(el, f"datasource '{source_name}'", ["name"], el.keys())
    where = f"datasource '{source_name}' table '{name}'"
    _attrs(el, where, [], ["name"])

    fields: dict[str, SourceFieldDef] = {}
    binding: Binding | None = None
    for child in el:
        if child.tag == "field":
            _add_unique(fields, SourceFieldDef(*_attrs(child, where, ["name", "type"])), "field", where)
        elif child.tag in ("file", "view", "xmlbinding"):
            if binding is not None:
                raise MalformedXmlError(f"{where}: more than one binding element")
            binding = _parse_binding(child, where)
        else:
            raise MalformedXmlError(f"{where}: unexpected element <{child.tag}>")
    if binding is None:
        raise MalformedXmlError(f"{where}: missing binding element (file, view or xmlbinding)")

    if kind is SourceKind.TABULAR and isinstance(binding, XmlBinding):
        raise MalformedXmlError(f"{where}: tabular sources take file or view bindings")
    if kind is SourceKind.XML and not isinstance(binding, XmlBinding):
        raise MalformedXmlError(f"{where}: xml sources take xmlbinding elements")
    if isinstance(binding, XmlBinding):
        for mapped in binding.field_elements:
            if mapped not in fields:
                raise MalformedXmlError(f"{where}: xml map names undeclared field '{mapped}'")
    return SourceTableDef(name, tuple(fields.values()), binding)


def _parse_binding(el: ET.Element, where: str) -> Binding:
    if el.tag == "file":
        return FileBinding(*_attrs(el, where, ["path"]))
    if el.tag == "view":
        _attrs(el, where, [])
        query = (el.text or "").strip()
        if not query:
            raise MalformedXmlError(f"{where}: empty view query")
        return ViewBinding(query)
    # xmlbinding
    (record,) = _attrs(el, where, ["record"], ["transform"])
    transform = el.get("transform")
    if transform is not None:
        try:
            words = shlex.split(transform)
        except ValueError:  # an unclosed quotation
            words = []
        if not words:
            raise MalformedXmlError(f"{where}: transform '{transform}' names no command")
    mapping: dict[str, str] = {}
    for child in el:
        if child.tag != "map":
            raise MalformedXmlError(f"{where}: unexpected element <{child.tag}> in xmlbinding")
        fname, element = _attrs(child, where, ["field", "element"])
        if fname in mapping:
            raise DuplicateNameError("xml field mapping", fname, where)
        mapping[fname] = element
    return XmlBinding(record, mapping, transform)


def parse_sources_xml(text: str | bytes) -> tuple[DataSourceDescriptor, ...]:
    sources: dict[str, DataSourceDescriptor] = {}
    root = _parse_root(text, "datasources")
    _attrs(root, "datasources", [])
    for el in root:
        if el.tag != "datasource":
            raise MalformedXmlError(f"unexpected element <{el.tag}> under <datasources>")
        (name,) = _attrs(el, "datasources", ["name"], el.keys())
        where = f"datasource '{name}'"
        kind, location = _attrs(el, where, ["kind", "location"], ["name"])

        credentials: Credentials | None = None
        tables: dict[str, SourceTableDef] = {}
        for child in el:
            if child.tag == "credentials":
                if credentials is not None:
                    raise MalformedXmlError(f"{where}: more than one <credentials>")
                credentials = Credentials(*_attrs(child, where, ["user", "password"]))
            elif child.tag == "table":
                _add_unique(tables, _parse_source_table(child, name, kind), "table", where)
            else:
                raise MalformedXmlError(f"{where}: unexpected element <{child.tag}>")
        _add_unique(sources, DataSourceDescriptor(name, kind, location, credentials, tuple(tables.values())),
                    "datasource")
    return tuple(sources.values())


def _parse_ref(el: ET.Element, where: str) -> FieldRef:
    return FieldRef(*_attrs(el, where, ["source", "table", "field"]))


def _parse_relation(el: ET.Element, index: int) -> Relation:
    where = f"relation[{index}]"
    # which other attributes are allowed depends on the kind
    (kind,) = _attrs(el, where, ["kind"], el.keys())
    if kind == "equality":
        _attrs(el, where, [], ["kind"])
        sides: dict[str, list[FieldRef]] = {}
        for child in el:
            if child.tag not in ("lhs", "rhs"):
                raise MalformedXmlError(f"{where}: unexpected element <{child.tag}>")
            if child.tag in sides:
                raise MalformedXmlError(f"{where}: more than one <{child.tag}>")
            _attrs(child, where, [])
            sides[child.tag] = []
            for ref_el in child:
                if ref_el.tag != "ref":
                    raise MalformedXmlError(f"{where}: unexpected element <{ref_el.tag}>")
                sides[child.tag].append(_parse_ref(ref_el, where))
        if sides.keys() != {"lhs", "rhs"}:
            raise MalformedXmlError(f"{where}: equality needs <lhs> and <rhs>")
        return EqualityRelation(tuple(sides["lhs"]), tuple(sides["rhs"]))
    if kind == "derived":
        (op,) = _attrs(el, where, ["op"], ["kind"])
        target: FieldRef | None = None
        operands: list[FieldRef] = []
        for child in el:
            if child.tag == "target":
                if target is not None:
                    raise MalformedXmlError(f"{where}: more than one <target>")
                target = _parse_ref(child, where)
            elif child.tag == "operand":
                operands.append(_parse_ref(child, where))
            else:
                raise MalformedXmlError(f"{where}: unexpected element <{child.tag}>")
        if target is None:
            raise MalformedXmlError(f"{where}: derived relation needs a <target>")
        return DerivedRelation(target, op, tuple(operands))
    raise MalformedXmlError(f"{where}: unknown relation kind '{kind}'")


def parse_schema_xml(text: str | bytes) -> IntegratedSchema:
    root = _parse_root(text, "schema")
    (name,) = _attrs(root, "schema", ["name"])

    tables: dict[str, IntegratedTableDef] = {}
    relations: list[Relation] = []
    for el in root:
        if el.tag == "table":
            (tname,) = _attrs(el, "schema", ["name"], el.keys())
            where = f"integrated table '{tname}'"
            _attrs(el, where, [], ["name"])
            fields: dict[str, IntegratedFieldDef] = {}
            for child in el:
                if child.tag != "field":
                    raise MalformedXmlError(f"{where}: unexpected element <{child.tag}>")
                names = ["name", "type", "source", "sourcetable", "sourcefield"]
                fname, dtype, *ref = _attrs(child, where, names)
                _add_unique(fields, IntegratedFieldDef(fname, dtype, FieldRef(*ref)), "field", where)
            if not fields:
                raise MalformedXmlError(f"{where}: integrated table has no fields")
            _add_unique(tables, IntegratedTableDef(tname, tuple(fields.values())), "integrated table")
        elif el.tag == "relation":
            relations.append(_parse_relation(el, len(relations) + 1))
        else:
            raise MalformedXmlError(f"unexpected element <{el.tag}> under <schema>")
    return IntegratedSchema(name, tuple(tables.values()), tuple(relations))


def parse_project(source_desc_path: str | Path, schema_desc_path: str | Path) -> Project:
    """Parse and cross-validate the two descriptor files.

    Every integrated field mapping must resolve against the declared sources;
    relation references are left for the satisfiability checker. The result
    is immutable and independent of when or where parsing happens.
    """
    # as bytes: the parser honours a declared encoding and reports bad bytes by line
    # (open() and os.path, not pathlib: pathlib's objects and its extra stat
    # call are a measurable share of a small project's parse)
    with open(source_desc_path, "rb") as handle:
        sources = parse_sources_xml(handle.read())
    with open(schema_desc_path, "rb") as handle:
        schema = parse_schema_xml(handle.read())
    project = Project(sources, schema, base_dir=os.path.dirname(os.path.realpath(source_desc_path)))
    for table in schema.tables:
        for fdef in table.fields:
            resolve_field_ref(project, fdef.mapping)
    return project


# --- serialization ----------------------------------------------------------


def serialize_schema(schema: IntegratedSchema) -> str:
    """Render an integrated schema back into the descriptor grammar."""
    root = ET.Element("schema", name=schema.name)
    for table in schema.tables:
        tel = ET.SubElement(root, "table", name=table.name)
        for fdef in table.fields:
            ET.SubElement(
                tel, "field", name=fdef.name, type=fdef.dtype.value,
                source=fdef.mapping.source, sourcetable=fdef.mapping.table,
                sourcefield=fdef.mapping.field,
            )
    for relation in schema.relations:
        if isinstance(relation, EqualityRelation):
            rel = ET.SubElement(root, "relation", kind="equality")
            for side, refs in (("lhs", relation.lhs), ("rhs", relation.rhs)):
                side_el = ET.SubElement(rel, side)
                for ref in refs:
                    ET.SubElement(side_el, "ref", asdict(ref))
        else:
            rel = ET.SubElement(root, "relation", kind="derived", op=relation.op.value)
            ET.SubElement(rel, "target", asdict(relation.target))
            for ref in relation.operands:
                ET.SubElement(rel, "operand", asdict(ref))
    ET.indent(root, space="  ")
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + ET.tostring(root, encoding="unicode") + "\n"
