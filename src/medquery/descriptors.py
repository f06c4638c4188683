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
classified error and never yields a partial project. Field mappings are
resolved at parse time; relation references are deliberately left to the
satisfiability checker so that it can report them as findings.
"""

from __future__ import annotations

import enum
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Union
from xml.parsers.expat import ErrorString

from .dtypes import Dtype, is_identifier
from .errors import DuplicateNameError, MalformedXmlError, UnresolvedFieldRefError


# --- domain types ----------------------------------------------------------


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
        for f in self.fields:
            if f.name == name:
                return f
        return None


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
        for t in self.tables:
            if t.name == name:
                return t
        return None


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
        for f in self.fields:
            if f.name == name:
                return f
        return None


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
        for t in self.tables:
            if t.name == name:
                return t
        return None


@dataclass(frozen=True)
class Project:
    """A parsed, cross-validated pair of descriptors.

    ``base_dir`` anchors relative source locations to the directory of the
    data-source descriptor file; it is excluded from structural equality.
    """

    sources: tuple[DataSourceDescriptor, ...]
    schema: IntegratedSchema
    base_dir: str = field(default=".", compare=False)

    def source(self, name: str) -> DataSourceDescriptor | None:
        for s in self.sources:
            if s.name == name:
                return s
        return None


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


# --- parsing ---------------------------------------------------------------


def _parse_root(text: str | bytes, expected_tag: str) -> ET.Element:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        line, column = exc.position  # MalformedXmlError puts the line in front
        raise MalformedXmlError(f"{ErrorString(exc.code)}: column {column}", line) from None
    if root.tag != expected_tag:
        raise MalformedXmlError(f"expected root <{expected_tag}>, found <{root.tag}>")
    return root


def _require_attr(el: ET.Element, name: str, where: str) -> str:
    value = el.get(name)
    if value is None:
        raise MalformedXmlError(f"{where}: missing attribute '{name}' on <{el.tag}>")
    return value


def _check_attrs(el: ET.Element, allowed: Iterable[str], where: str) -> None:
    extra = set(el.keys()) - set(allowed)
    if extra:
        raise MalformedXmlError(f"{where}: unexpected attribute(s) {sorted(extra)} on <{el.tag}>")


def _ident_attr(el: ET.Element, name: str, where: str) -> str:
    value = _require_attr(el, name, where)
    if not is_identifier(value):
        raise MalformedXmlError(f"{where}: '{value}' is not a valid identifier")
    return value


def _dtype_attr(el: ET.Element, where: str) -> Dtype:
    value = _require_attr(el, "type", where)
    try:
        return Dtype(value)
    except ValueError:
        raise MalformedXmlError(f"{where}: unknown type '{value}'") from None


def _parse_source_table(el: ET.Element, source_name: str, kind: SourceKind) -> SourceTableDef:
    where = f"datasource '{source_name}'"
    name = _ident_attr(el, "name", where)
    where = f"{where} table '{name}'"
    _check_attrs(el, ["name"], where)

    fields: list[SourceFieldDef] = []
    binding: Binding | None = None
    for child in el:
        if child.tag == "field":
            _check_attrs(child, ["name", "type"], where)
            fname = _ident_attr(child, "name", where)
            if any(f.name == fname for f in fields):
                raise DuplicateNameError("field", fname, where)
            fields.append(SourceFieldDef(fname, _dtype_attr(child, where)))
            continue
        if child.tag in ("file", "view", "xmlbinding"):
            if binding is not None:
                raise MalformedXmlError(f"{where}: more than one binding element")
            binding = _parse_binding(child, where)
            continue
        raise MalformedXmlError(f"{where}: unexpected element <{child.tag}>")
    if binding is None:
        raise MalformedXmlError(f"{where}: missing binding element (file, view or xmlbinding)")

    if kind is SourceKind.TABULAR and isinstance(binding, XmlBinding):
        raise MalformedXmlError(f"{where}: tabular sources take file or view bindings")
    if kind is SourceKind.XML and not isinstance(binding, XmlBinding):
        raise MalformedXmlError(f"{where}: xml sources take xmlbinding elements")
    if isinstance(binding, XmlBinding):
        declared = {f.name for f in fields}
        for mapped in binding.field_elements:
            if mapped not in declared:
                raise MalformedXmlError(f"{where}: xml map names undeclared field '{mapped}'")
    return SourceTableDef(name, tuple(fields), binding)


def _parse_binding(el: ET.Element, where: str) -> Binding:
    if el.tag == "file":
        _check_attrs(el, ["path"], where)
        return FileBinding(_require_attr(el, "path", where))
    if el.tag == "view":
        _check_attrs(el, [], where)
        query = (el.text or "").strip()
        if not query:
            raise MalformedXmlError(f"{where}: empty view query")
        return ViewBinding(query)
    # xmlbinding
    _check_attrs(el, ["record", "transform"], where)
    record = _require_attr(el, "record", where)
    mapping: dict[str, str] = {}
    for child in el:
        if child.tag != "map":
            raise MalformedXmlError(f"{where}: unexpected element <{child.tag}> in xmlbinding")
        _check_attrs(child, ["field", "element"], where)
        fname = _require_attr(child, "field", where)
        element = _require_attr(child, "element", where)
        if fname in mapping:
            raise DuplicateNameError("xml field mapping", fname, where)
        mapping[fname] = element
    return XmlBinding(record, mapping, el.get("transform"))


def parse_sources_xml(text: str | bytes) -> tuple[DataSourceDescriptor, ...]:
    return _parse_sources_root(_parse_root(text, "datasources"))


def _parse_sources_root(root: ET.Element) -> tuple[DataSourceDescriptor, ...]:
    sources: list[DataSourceDescriptor] = []
    for el in root:
        if el.tag != "datasource":
            raise MalformedXmlError(f"unexpected element <{el.tag}> under <datasources>")
        name = _ident_attr(el, "name", "datasources")
        where = f"datasource '{name}'"
        _check_attrs(el, ["name", "kind", "location"], where)
        if any(s.name == name for s in sources):
            raise DuplicateNameError("datasource", name)
        kind_text = _require_attr(el, "kind", where)
        try:
            kind = SourceKind(kind_text)
        except ValueError:
            raise MalformedXmlError(f"{where}: unknown kind '{kind_text}'") from None
        location = _require_attr(el, "location", where)

        credentials: Credentials | None = None
        tables: list[SourceTableDef] = []
        for child in el:
            if child.tag == "credentials":
                if credentials is not None:
                    raise MalformedXmlError(f"{where}: more than one <credentials>")
                _check_attrs(child, ["user", "password"], where)
                credentials = Credentials(
                    _require_attr(child, "user", where),
                    _require_attr(child, "password", where),
                )
            elif child.tag == "table":
                table = _parse_source_table(child, name, kind)
                if any(t.name == table.name for t in tables):
                    raise DuplicateNameError("table", table.name, where)
                tables.append(table)
            else:
                raise MalformedXmlError(f"{where}: unexpected element <{child.tag}>")
        sources.append(DataSourceDescriptor(name, kind, location, credentials, tuple(tables)))
    return tuple(sources)


def _parse_ref(el: ET.Element, where: str) -> FieldRef:
    _check_attrs(el, ["source", "table", "field"], where)
    return FieldRef(
        _ident_attr(el, "source", where),
        _ident_attr(el, "table", where),
        _ident_attr(el, "field", where),
    )


def _parse_relation(el: ET.Element, index: int) -> Relation:
    where = f"relation[{index}]"
    kind = _require_attr(el, "kind", where)
    if kind == "equality":
        _check_attrs(el, ["kind"], where)
        lhs: list[FieldRef] = []
        rhs: list[FieldRef] = []
        seen: set[str] = set()
        for child in el:
            if child.tag not in ("lhs", "rhs"):
                raise MalformedXmlError(f"{where}: unexpected element <{child.tag}>")
            if child.tag in seen:
                raise MalformedXmlError(f"{where}: more than one <{child.tag}>")
            seen.add(child.tag)
            bucket = lhs if child.tag == "lhs" else rhs
            for ref_el in child:
                if ref_el.tag != "ref":
                    raise MalformedXmlError(f"{where}: unexpected element <{ref_el.tag}>")
                bucket.append(_parse_ref(ref_el, where))
        if seen != {"lhs", "rhs"}:
            raise MalformedXmlError(f"{where}: equality needs <lhs> and <rhs>")
        return EqualityRelation(tuple(lhs), tuple(rhs))
    if kind == "derived":
        _check_attrs(el, ["kind", "op"], where)
        op_text = _require_attr(el, "op", where)
        try:
            op = DerivedOp(op_text)
        except ValueError:
            raise MalformedXmlError(f"{where}: unknown op '{op_text}'") from None
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
    return _parse_schema_root(_parse_root(text, "schema"))


def _parse_schema_root(root: ET.Element) -> IntegratedSchema:
    name = _ident_attr(root, "name", "schema")
    _check_attrs(root, ["name"], "schema")

    tables: list[IntegratedTableDef] = []
    relations: list[Relation] = []
    relation_index = 0
    for el in root:
        if el.tag == "table":
            tname = _ident_attr(el, "name", "schema")
            where = f"integrated table '{tname}'"
            _check_attrs(el, ["name"], where)
            if any(t.name == tname for t in tables):
                raise DuplicateNameError("integrated table", tname)
            fields: list[IntegratedFieldDef] = []
            for child in el:
                if child.tag != "field":
                    raise MalformedXmlError(f"{where}: unexpected element <{child.tag}>")
                _check_attrs(child, ["name", "type", "source", "sourcetable", "sourcefield"], where)
                fname = _ident_attr(child, "name", where)
                if any(f.name == fname for f in fields):
                    raise DuplicateNameError("field", fname, where)
                mapping = FieldRef(
                    _ident_attr(child, "source", where),
                    _ident_attr(child, "sourcetable", where),
                    _ident_attr(child, "sourcefield", where),
                )
                fields.append(IntegratedFieldDef(fname, _dtype_attr(child, where), mapping))
            if not fields:
                raise MalformedXmlError(f"{where}: integrated table has no fields")
            tables.append(IntegratedTableDef(tname, tuple(fields)))
        elif el.tag == "relation":
            relation_index += 1
            relations.append(_parse_relation(el, relation_index))
        else:
            raise MalformedXmlError(f"unexpected element <{el.tag}> under <schema>")
    return IntegratedSchema(name, tuple(tables), tuple(relations))


def parse_project(source_desc_path: str | Path, schema_desc_path: str | Path) -> Project:
    """Parse and cross-validate the two descriptor files.

    Every integrated field mapping must resolve against the declared sources;
    relation references are left for the satisfiability checker. The result
    is immutable and independent of when or where parsing happens.
    """
    # as bytes: the parser honours a declared encoding and reports bad bytes by line
    sources = parse_sources_xml(Path(source_desc_path).read_bytes())
    schema = parse_schema_xml(Path(schema_desc_path).read_bytes())
    project = Project(sources, schema, base_dir=str(Path(source_desc_path).resolve().parent))
    for table in schema.tables:
        for fdef in table.fields:
            resolve_field_ref(project, fdef.mapping)
    return project


# --- serialization ----------------------------------------------------------


def _to_xml_text(root: ET.Element) -> str:
    ET.indent(root, space="  ")
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + ET.tostring(root, encoding="unicode") + "\n"


def _ref_attrs(ref: FieldRef) -> dict[str, str]:
    return {"source": ref.source, "table": ref.table, "field": ref.field}


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
            lhs = ET.SubElement(rel, "lhs")
            for ref in relation.lhs:
                ET.SubElement(lhs, "ref", _ref_attrs(ref))
            rhs = ET.SubElement(rel, "rhs")
            for ref in relation.rhs:
                ET.SubElement(rhs, "ref", _ref_attrs(ref))
        else:
            rel = ET.SubElement(root, "relation", kind="derived", op=relation.op.value)
            ET.SubElement(rel, "target", _ref_attrs(relation.target))
            for ref in relation.operands:
                ET.SubElement(rel, "operand", _ref_attrs(ref))
    return _to_xml_text(root)
