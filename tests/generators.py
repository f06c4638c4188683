"""Seeded random inputs: desk-scale projects, SQL texts, views, stores, RDQL queries.

Projects are built as descriptor objects, serialized (the sources by
:func:`serialize_sources` here, the schema by the package's writer),
written to disk next to their data files and parsed back, so every
generated case also exercises the descriptor round trip.

Join conditions are only generated between same-dtype fields; with
canonical lexical forms that makes term equality and value equality agree,
so the relational oracle can compare cells directly.
"""

from __future__ import annotations

import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from hypothesis import strategies as st

from medquery.descriptors import (
    DataSourceDescriptor,
    DerivedOp,
    DerivedRelation,
    EqualityRelation,
    FieldRef,
    FileBinding,
    IntegratedFieldDef,
    IntegratedSchema,
    IntegratedTableDef,
    Project,
    SourceFieldDef,
    SourceKind,
    SourceTableDef,
    ViewBinding,
    XmlBinding,
    parse_project,
    serialize_schema,
)
from medquery.dtypes import Dtype
from medquery.rdql_engine import FilterAtom, RdqlQuery, TriplePattern, Var
from medquery.triple_store import Iri, Triple, TripleStore, TypedLiteral

_VALUE_POOLS = {
    Dtype.INTEGER: [str(i) for i in range(8)],
    Dtype.STRING: ["a", "b", "ab", "x", "yz"],
    Dtype.DECIMAL: ["0.5", "1.5", "2.25", "4.0"],
    Dtype.BOOLEAN: ["true", "false"],
}
_DATA_DTYPES = [Dtype.INTEGER, Dtype.INTEGER, Dtype.STRING, Dtype.DECIMAL, Dtype.BOOLEAN]


def rand_value(rng: random.Random, dtype: Dtype) -> str:
    return rng.choice(_VALUE_POOLS[dtype])


def serialize_sources(sources: Iterable[DataSourceDescriptor]) -> str:
    """Render data-source descriptors back into the descriptor grammar."""
    root = ET.Element("datasources")
    for src in sources:
        el = ET.SubElement(
            root, "datasource", name=src.name, kind=src.kind.value, location=src.location
        )
        if src.credentials is not None:
            ET.SubElement(el, "credentials", user=src.credentials.user,
                          password=src.credentials.password)
        for table in src.tables:
            tel = ET.SubElement(el, "table", name=table.name)
            for fdef in table.fields:
                ET.SubElement(tel, "field", name=fdef.name, type=fdef.dtype.value)
            binding = table.binding
            if isinstance(binding, FileBinding):
                ET.SubElement(tel, "file", path=binding.path)
            elif isinstance(binding, ViewBinding):
                ET.SubElement(tel, "view").text = binding.query
            else:
                attrs = {"record": binding.record_element}
                if binding.transform is not None:
                    attrs["transform"] = binding.transform
                bel = ET.SubElement(tel, "xmlbinding", attrs)
                for fname, element in binding.field_elements.items():
                    ET.SubElement(bel, "map", field=fname, element=element)
    ET.indent(root, space="  ")
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + ET.tostring(root, encoding="unicode") + "\n"


@dataclass
class GenProject:
    sources_path: Path
    schema_path: Path
    project: Project
    # per integrated table: the source tables reachable from its mappings
    reachable: dict[str, set[tuple[str, str]]]


def _source_field_block(rng: random.Random, prefix: str, count: int) -> list[SourceFieldDef]:
    fields = [SourceFieldDef("KEY", Dtype.INTEGER)]
    for i in range(count):
        fields.append(SourceFieldDef(f"{prefix}{i}", rng.choice(_DATA_DTYPES)))
    return fields


def _rows_text(rng: random.Random, fields: list[SourceFieldDef], n_rows: int) -> str:
    lines = ["|".join(f.name for f in fields)]
    for _ in range(n_rows):
        cells = []
        for f in fields:
            miss_chance = 0.05 if f.name == "KEY" else 0.12
            cells.append("" if rng.random() < miss_chance else rand_value(rng, f.dtype))
        lines.append("|".join(cells))
    return "".join(line + "\n" for line in lines)


def _xml_doc(rng: random.Random, tables: list[tuple[str, list[SourceFieldDef]]],
             n_records: int | None = None) -> str:
    parts = ["<data>"]
    for record, fields in tables:
        for _ in range(rng.randrange(0, 16) if n_records is None else n_records):
            parts.append(f"  <{record}>")
            for f in fields:
                miss_chance = 0.05 if f.name == "KEY" else 0.12
                if rng.random() >= miss_chance:
                    parts.append(f"    <{f.name.lower()}>{rand_value(rng, f.dtype)}</{f.name.lower()}>")
            parts.append(f"  </{record}>")
    parts.append("</data>")
    return "\n".join(parts) + "\n"


def random_project(rng: random.Random, directory: Path,
                   n_groups: int | None = None) -> GenProject:
    """One independent source group per integrated table."""
    directory.mkdir(parents=True, exist_ok=True)
    n_groups = n_groups or rng.randrange(1, 4)

    sources: list[DataSourceDescriptor] = []
    integrated_tables: list[IntegratedTableDef] = []
    relations: list = []
    reachable: dict[str, set[tuple[str, str]]] = {}
    files: dict[str, str] = {}

    for g in range(n_groups):
        src_name = f"src{g}"
        use_xml = rng.random() < 0.25
        master_name = f"T{g}M"
        master_fields = _source_field_block(rng, "M", rng.randrange(1, 4))
        group_tables: list[tuple[str, list[SourceFieldDef]]] = [(master_name, master_fields)]
        group_reachable = {(src_name, master_name)}

        foreign_name = None
        foreign_fields: list[SourceFieldDef] = []
        hop2_name = None
        hop2_fields: list[SourceFieldDef] = []
        has_foreign = rng.random() < 0.6
        if has_foreign:
            foreign_name = f"T{g}F"
            foreign_fields = _source_field_block(rng, "F", rng.randrange(1, 3))
            group_tables.append((foreign_name, foreign_fields))
            relations.append(EqualityRelation(
                (FieldRef(src_name, master_name, "KEY"),),
                (FieldRef(src_name, foreign_name, "KEY"),),
            ))
            group_reachable.add((src_name, foreign_name))
            if rng.random() < 0.25:
                hop2_name = f"T{g}G"
                hop2_fields = _source_field_block(rng, "G", rng.randrange(1, 3))
                group_tables.append((hop2_name, hop2_fields))
                relations.append(EqualityRelation(
                    (FieldRef(src_name, foreign_name, "KEY"),),
                    (FieldRef(src_name, hop2_name, "KEY"),),
                ))
                group_reachable.add((src_name, hop2_name))
            numeric = [f.name for f in foreign_fields if f.dtype is Dtype.INTEGER][:2]
            if len(numeric) == 2 and rng.random() < 0.3:
                foreign_fields.append(SourceFieldDef("DSUM", Dtype.INTEGER))
                relations.append(DerivedRelation(
                    FieldRef(src_name, foreign_name, "DSUM"),
                    DerivedOp.ADD,
                    tuple(FieldRef(src_name, foreign_name, n) for n in numeric),
                ))
                if rng.random() < 0.6:
                    # an operand that is itself derived, sometimes repeated
                    operands = rng.choice([("DSUM", "DSUM"), ("DSUM", numeric[1]),
                                           (numeric[0], "DSUM", "DSUM")])
                    foreign_fields.append(SourceFieldDef("DSUM2", Dtype.INTEGER))
                    relations.append(DerivedRelation(
                        FieldRef(src_name, foreign_name, "DSUM2"),
                        DerivedOp.ADD,
                        tuple(FieldRef(src_name, foreign_name, n) for n in operands),
                    ))
                if rng.random() < 0.3:
                    # a derived target in the master table: the master column wins
                    relations.append(DerivedRelation(
                        FieldRef(src_name, master_name, "KEY"),
                        DerivedOp.ADD,
                        (FieldRef(src_name, foreign_name, "DSUM"),
                         FieldRef(src_name, foreign_name, numeric[0])),
                    ))

        view_base = None
        if not use_xml and has_foreign and rng.random() < 0.25:
            view_base = f"T{g}FB"
            group_tables.append((view_base, foreign_fields))
            group_reachable.add((src_name, view_base))

        # source descriptor for the group
        table_defs: list[SourceTableDef] = []
        if use_xml:
            location = f"{src_name}.xml"
            for table_name, fields in group_tables:
                binding = XmlBinding(
                    f"rec{table_name}", {f.name: f.name.lower() for f in fields}
                )
                table_defs.append(SourceTableDef(table_name, tuple(fields), binding))
            files[location] = _xml_doc(
                rng, [(f"rec{name}", fields) for name, fields in group_tables]
            )
        else:
            location = "."
            for table_name, fields in group_tables:
                if view_base is not None and table_name == foreign_name:
                    projection = ", ".join(f.name for f in fields)
                    table_defs.append(SourceTableDef(
                        table_name, tuple(fields),
                        ViewBinding(f"SELECT {projection} FROM {view_base}"),
                    ))
                    continue
                path = f"{src_name}_{table_name}.txt"
                table_defs.append(SourceTableDef(table_name, tuple(fields), FileBinding(path)))
                files[path] = _rows_text(rng, fields, rng.randrange(0, 21))
        sources.append(DataSourceDescriptor(
            src_name, SourceKind.XML if use_xml else SourceKind.TABULAR,
            location, None, tuple(table_defs),
        ))

        # integrated table over the group
        int_name = f"I{g}"
        candidates: list[tuple[str, SourceFieldDef]] = [
            (master_name, f) for f in master_fields
        ]
        if foreign_name is not None:
            candidates.extend((foreign_name, f) for f in foreign_fields)
        if hop2_name is not None:
            candidates.extend((hop2_name, f) for f in hop2_fields)
        int_fields = [IntegratedFieldDef(
            "KEY", Dtype.INTEGER, FieldRef(src_name, master_name, "KEY"),
        )]
        for _ in range(rng.randrange(1, 5)):
            table_name, fdef = rng.choice(candidates)
            draw = rng.random()
            # now and then a name the SQL translation also makes up for a variable
            name = (fdef.name if draw < 0.7 else f"{fdef.name}_{len(int_fields)}" if draw < 0.9
                    else ("tbl_0", "fld_0", f"I{g}_KEY")[len(int_fields) % 3])
            if any(f.name == name for f in int_fields):
                continue
            int_fields.append(IntegratedFieldDef(
                name, fdef.dtype, FieldRef(src_name, table_name, fdef.name),
            ))
        integrated_tables.append(IntegratedTableDef(int_name, tuple(int_fields)))
        reachable[int_name] = group_reachable

    schema = IntegratedSchema("gen", tuple(integrated_tables), tuple(relations))
    sources_xml = serialize_sources(sources)
    schema_xml = serialize_schema(schema)

    for name, content in files.items():
        (directory / name).write_text(content, encoding="utf-8")
    sources_path = directory / "sources.xml"
    schema_path = directory / "schema.xml"
    sources_path.write_text(sources_xml, encoding="utf-8")
    schema_path.write_text(schema_xml, encoding="utf-8")

    project = parse_project(sources_path, schema_path)
    return GenProject(sources_path, schema_path, project, reachable)


def random_data_files(rng: random.Random, project: Project, n_rows: int | None = None) -> dict[Path, str]:
    """New random content for every data file of a generated project, by path: ``n_rows`` rows
    or records per source table, or a random number up to 20 (15 in an XML document)."""
    files: dict[Path, str] = {}
    base = Path(project.base_dir)
    for src in project.sources:
        if src.kind is SourceKind.XML:
            tables = [(t.binding.record_element, list(t.fields)) for t in src.tables]
            files[base / src.location] = _xml_doc(rng, tables, n_rows)
            continue
        for table in src.tables:
            if isinstance(table.binding, FileBinding):
                path = base / src.location / table.binding.path
                files[path] = _rows_text(rng, list(table.fields),
                                         rng.randrange(0, 21) if n_rows is None else n_rows)
    return files


def random_sql_text(rng: random.Random, project: Project) -> str:
    """A supported SQL query over the project's integrated schema."""
    schema = project.schema
    n_from = min(len(schema.tables), rng.choices([1, 2, 3], weights=[4, 4, 1])[0])
    tables = rng.sample(list(schema.tables), n_from)

    def random_field(table):
        return rng.choice(table.fields)

    select = []
    for _ in range(rng.randrange(1, 4)):
        table = rng.choice(tables)
        select.append(f"{table.name}.{random_field(table).name}")

    joins = []
    for left, right in zip(tables, tables[1:]):
        if rng.random() < 0.9:
            pairs = [
                (lf, rf)
                for lf in left.fields for rf in right.fields
                if lf.dtype is rf.dtype
            ]
            if pairs:
                lf, rf = rng.choice(pairs)
                joins.append(f"{left.name}.{lf.name}={right.name}.{rf.name}")

    filters = []
    for _ in range(rng.randrange(0, 3)):
        table = rng.choice(tables)
        fdef = random_field(table)
        op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        if rng.random() < 0.2:
            other = rng.choice(tables)
            pairs = [f for f in other.fields if f.dtype is fdef.dtype]
            if not pairs:
                continue
            rhs = f"{other.name}.{rng.choice(pairs).name}"
        else:
            value = rand_value(rng, fdef.dtype)
            rhs = f"'{value}'" if fdef.dtype is Dtype.STRING else value
        filters.append(f"{table.name}.{fdef.name} {op} {rhs}")

    text = "SELECT " + ", ".join(select)
    text += " FROM " + ", ".join(t.name for t in tables)
    if joins:
        text += " ON " + " AND ".join(joins)
    if filters:
        text += " WHERE " + " AND ".join(filters)
    return text


# --- views, well formed and faulty -------------------------------------------

# the one file table of view_projects; every view reads it, directly or through views
VIEW_BASE_FIELDS = (
    SourceFieldDef("KEY", Dtype.INTEGER), SourceFieldDef("S", Dtype.STRING),
    SourceFieldDef("N", Dtype.DECIMAL), SourceFieldDef("B", Dtype.BOOLEAN),
)
_VIEW_FAULTS = ("none", "none", "parse", "table", "field", "qualifier", "shape", "cycle",
                "filter")
# per dtype, a literal that never compares with it, and an operator to use it with
_INCOMPARABLE = {
    Dtype.INTEGER: ("'a'", "="), Dtype.DECIMAL: ("true", "!="),
    Dtype.STRING: ("3", ">"), Dtype.BOOLEAN: ("true", "<"),
}


@st.composite
def view_projects(draw) -> tuple[str, str, dict[str, str]]:
    """Sources and schema XML text and data files: file table BASE, views V0.. over it.

    A view reads BASE or another view (itself included, which makes chains and
    cycles). Most are well formed; the others carry one fault: SQL that does
    not parse, an undeclared base table or field, a field qualified by another
    table, a projection other than the declared fields, a read of itself, or a
    filter whose sides never compare.
    """
    names = [f"V{i}" for i in range(draw(st.integers(1, 4)))]
    declared = {"BASE": VIEW_BASE_FIELDS}
    for name in names:
        kept = tuple(f for f in VIEW_BASE_FIELDS if draw(st.booleans()))
        declared[name] = kept or VIEW_BASE_FIELDS[:1]
    tables = [SourceTableDef("BASE", VIEW_BASE_FIELDS, FileBinding("base.txt"))]
    for name in names:
        fault = draw(st.sampled_from(_VIEW_FAULTS))
        base = name if fault == "cycle" else draw(st.sampled_from(["BASE", "BASE", *names]))
        if fault == "table":
            base = "NOPE"
        available = declared.get(base, VIEW_BASE_FIELDS)
        select = [f.name for f in declared[name]]
        where = []
        for _ in range(draw(st.integers(0, 2))):
            fdef = draw(st.sampled_from(available))
            op = "=" if fdef.dtype is Dtype.BOOLEAN else draw(st.sampled_from(("=", "!=", "<", ">=")))
            value = draw(st.sampled_from(_VALUE_POOLS[fdef.dtype]))
            where.append(f"{fdef.name} {op} " + (f"'{value}'" if fdef.dtype is Dtype.STRING else value))
        if fault == "field":
            if draw(st.booleans()):
                select.append("NOPE")
            else:
                where.append("NOPE = 1")
        elif fault == "qualifier":
            where.append("OTHER.KEY = 1")
        elif fault == "shape":
            select.append(draw(st.sampled_from(available)).name)
        elif fault == "filter":
            fdef = draw(st.sampled_from(available))
            literal, op = _INCOMPARABLE[fdef.dtype]
            where.append(f"{fdef.name} {op} {literal}")
        sql = f"SELECT {', '.join(select)} FROM {base}"
        if where:
            sql += " WHERE " + " AND ".join(where)
        if fault == "parse":
            sql = draw(st.sampled_from((sql.replace("SELECT", "SELEC"), sql + " ORDER BY KEY",
                                        sql.replace(" FROM ", " FROM BASE, "), sql + " WHERE")))
        tables.append(SourceTableDef(name, declared[name], ViewBinding(sql)))

    rows = draw(st.lists(st.tuples(*(
        st.sampled_from(["", *_VALUE_POOLS[f.dtype]]) for f in VIEW_BASE_FIELDS)), max_size=6))
    data = "".join("|".join(row) + "\n" for row in [[f.name for f in VIEW_BASE_FIELDS], *rows])
    source = DataSourceDescriptor("uni", SourceKind.TABULAR, ".", None, tuple(tables))
    key = IntegratedFieldDef("KEY", Dtype.INTEGER, FieldRef("uni", "BASE", "KEY"))
    schema = IntegratedSchema("views", (IntegratedTableDef("I", (key,)),), ())
    return serialize_sources([source]), serialize_schema(schema), {"base.txt": data}


# --- stores and RDQL queries --------------------------------------------------


def random_store(rng: random.Random, max_triples: int) -> TripleStore:
    subjects = [Iri(f"http://example/s{i}") for i in range(8)]
    predicates = [Iri(f"http://example/p{i}") for i in range(5)]
    store = TripleStore()
    for _ in range(rng.randrange(0, max_triples + 1)):
        roll = rng.random()
        if roll < 0.15:
            obj: Iri | TypedLiteral = rng.choice(subjects)
        else:
            dtype = rng.choice(_DATA_DTYPES)
            obj = TypedLiteral(rand_value(rng, dtype), dtype)
        store.insert(Triple(rng.choice(subjects), rng.choice(predicates), obj))
    return store


def random_rdql_query(rng: random.Random, store: TripleStore, max_patterns: int = 5) -> RdqlQuery:
    """Connected conjunctive queries that an exhaustive oracle can afford.

    Some patterns use one variable at every variable position and at the
    object, such as ``(?x <p> ?x)`` or ``(?x ?x ?x)``. Some queries lead
    with an atom comparing an object variable with a numeric literal, so
    the step binding that variable checks it first and can read a range.
    Half the queries join triples of one subject, as a table row's fields do.
    """
    triples = list(store)  # canonical order, so a seed always picks the same terms
    subjects = sorted({t.subject for t in triples}, key=lambda i: i.value)
    predicates = sorted({t.predicate for t in triples}, key=lambda i: i.value)
    var_pool = ["v0", "v1", "v2", "v3"]

    patterns: list[TriplePattern] = []
    used_vars: list[str] = []

    def subject_term(first: bool):
        if not first and used_vars and rng.random() < 0.75:
            return Var(rng.choice(used_vars))
        if rng.random() < 0.7 or not subjects:
            return Var(rng.choice(var_pool))
        return rng.choice(subjects)

    def object_term():
        roll = rng.random()
        if roll < 0.45:
            return Var(rng.choice(var_pool))
        if triples and roll < 0.85:
            return rng.choice(triples).object
        dtype = rng.choice(_DATA_DTYPES)
        return TypedLiteral(rand_value(rng, dtype), dtype)

    # half the queries read the triples of one subject, so their joins often answer: each
    # pattern is one of that subject's triples, its object kept or made another variable
    anchored = []
    if triples and rng.random() < 0.5:
        anchor = rng.choice(triples).subject
        anchored = [t for t in triples if t.subject == anchor]
        anchor_var = rng.choice(var_pool)
        other_vars = [name for name in var_pool if name != anchor_var]
    n_patterns = rng.randrange(1, max_patterns + 1)
    for i in range(n_patterns):
        if anchored:
            _, p, o = rng.choice(anchored)
            s, o = Var(anchor_var), o if rng.random() < 0.5 else Var(rng.choice(other_vars))
        else:
            s = subject_term(first=(i == 0))
            if predicates and rng.random() < 0.85:
                p = rng.choice(predicates)
            else:
                p = Var(rng.choice(var_pool))
            o = object_term()
            if rng.random() < 0.2:  # one variable repeated within the pattern
                name = s.name if isinstance(s, Var) else rng.choice(var_pool)
                s, p, o = (Var(name) if isinstance(term, Var) or position == 2 else term
                           for position, term in enumerate((s, p, o)))
        pattern = TriplePattern(s, p, o)
        patterns.append(pattern)
        for term in (s, p, o):
            if isinstance(term, Var) and term.name not in used_vars:
                used_vars.append(term.name)

    if not used_vars:
        patterns[0] = TriplePattern(Var("v0"), patterns[0].p, patterns[0].o)
        used_vars.append("v0")

    filters: list[FilterAtom] = []
    for _ in range(rng.randrange(0, 4)):
        lhs = Var(rng.choice(used_vars))
        op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        if rng.random() < 0.3:
            rhs: Var | TypedLiteral = Var(rng.choice(used_vars))
        else:
            dtype = rng.choice(_DATA_DTYPES)
            rhs = TypedLiteral(rand_value(rng, dtype), dtype)
        filters.append(FilterAtom(lhs, op, rhs))
    object_vars = [pattern.o.name for pattern in patterns if isinstance(pattern.o, Var)]
    if object_vars and rng.random() < 0.4:
        dtype = rng.choice([Dtype.INTEGER, Dtype.DECIMAL])
        filters.insert(0, FilterAtom(Var(rng.choice(object_vars)), rng.choice(["<", "<=", "=", ">=", ">"]),
                                     TypedLiteral(rand_value(rng, dtype), dtype)))

    select = tuple(Var(name) for name in rng.sample(used_vars, rng.randrange(1, min(3, len(used_vars)) + 1)))
    return RdqlQuery(select, tuple(patterns), tuple(filters))
