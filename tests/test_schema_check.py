import random
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

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
    parse_project,
)
from medquery.dtypes import Dtype
from medquery.errors import IoError, NoRelationPathError
from medquery.extraction import materialize_integrated_table
from medquery.schema_check import FindingCode, Severity, check_schema
from medquery.sql_frontend import parse_view_select
from medquery.wrappers import fetch_table

from conftest import write_project
from generators import view_projects
from oracles import cyclic_components, dfs_has_cycle, shortest_cycle_length


def ref(field: str) -> FieldRef:
    return FieldRef("s", "T", field)


def project_with(relations, field_names="ABCDEFGH", dtype=Dtype.INTEGER,
                 extra_tables=()) -> Project:
    fields = tuple(SourceFieldDef(name, dtype) for name in field_names)
    tables = [SourceTableDef("T", fields, FileBinding("t.txt"))]
    for name in extra_tables:
        tables.append(SourceTableDef(name, fields, FileBinding(f"{name}.txt")))
    source = DataSourceDescriptor("s", SourceKind.TABULAR, ".", None, tuple(tables))
    schema = IntegratedSchema(
        "g",
        (IntegratedTableDef("I", (IntegratedFieldDef("A", dtype, ref("A")),)),),
        tuple(relations),
    )
    return Project((source,), schema)


def codes(report):
    return [f.code for f in report.findings]


def test_clean_fig2_schema_has_no_errors(fig2_project):
    report = check_schema(fig2_project)
    assert report.accepted
    assert report.findings == ()


def test_type_mismatch_on_equality(fig2_project):
    # pair an integer field with a string field
    schema = fig2_project.schema
    bad = EqualityRelation(
        (FieldRef("uni", "STUDENT", "ID"),),
        (FieldRef("uni", "STUDENT", "FIRSTNAME"),),
    )
    project = Project(fig2_project.sources,
                      IntegratedSchema(schema.name, schema.tables, (bad,)))
    report = check_schema(project)
    errors = report.errors
    assert [f.code for f in errors] == [FindingCode.TYPE_MISMATCH]
    assert "integer" in errors[0].message and "string" in errors[0].message


def test_arity_mismatch():
    relation = EqualityRelation((ref("A"), ref("B")), (ref("C"),))
    report = check_schema(project_with([relation]))
    assert FindingCode.ARITY_MISMATCH in codes(report)
    # the comparable prefix is still type checked, so no other error appears
    assert [f.code for f in report.errors] == [FindingCode.ARITY_MISMATCH]


def test_unresolved_relation_ref():
    relation = EqualityRelation((ref("A"),), (ref("NOPE"),))
    report = check_schema(project_with([relation]))
    assert [f.code for f in report.errors] == [FindingCode.UNRESOLVED_REF]
    assert "NOPE" in report.errors[0].message


def test_cycle_is_reported_once_with_path():
    relations = [
        DerivedRelation(ref("A"), DerivedOp.ADD, (ref("B"), ref("C"))),
        DerivedRelation(ref("B"), DerivedOp.ADD, (ref("A"), ref("C"))),
    ]
    report = check_schema(project_with(relations))
    cyclic = [f for f in report.findings if f.code is FindingCode.CYCLIC_DERIVATION]
    assert len(cyclic) == 1
    assert "s.T.A -> s.T.B -> s.T.A" in cyclic[0].message


def test_derived_type_rules():
    relations = [
        DerivedRelation(ref("A"), DerivedOp.ADD, (ref("B"), ref("C"))),
    ]
    report = check_schema(project_with(relations, dtype=Dtype.STRING))
    mismatches = [f for f in report.errors if f.code is FindingCode.TYPE_MISMATCH]
    assert len(mismatches) == 3  # two operands and the target are all strings

    relations = [DerivedRelation(ref("A"), DerivedOp.CONCAT, (ref("B"), ref("C")))]
    report = check_schema(project_with(relations, dtype=Dtype.INTEGER))
    assert [f.code for f in report.errors] == [FindingCode.TYPE_MISMATCH]


def test_derived_needs_two_operands():
    relations = [DerivedRelation(ref("A"), DerivedOp.ADD, (ref("B"),))]
    report = check_schema(project_with(relations))
    assert FindingCode.ARITY_MISMATCH in [f.code for f in report.errors]


def test_unmapped_table_is_a_warning_only():
    report = check_schema(project_with([], extra_tables=("SPARE",)))
    warnings = [f for f in report.findings if f.severity is Severity.WARNING]
    assert [f.code for f in warnings] == [FindingCode.UNMAPPED_TABLE]
    assert "SPARE" in warnings[0].message
    assert report.accepted


def test_relation_reference_counts_as_mapped():
    relation = EqualityRelation(
        (ref("A"),), (FieldRef("s", "SPARE", "A"),),
    )
    report = check_schema(project_with([relation], extra_tables=("SPARE",)))
    assert FindingCode.UNMAPPED_TABLE not in codes(report)


def _view_chain_project(views: dict[str, str]) -> Project:
    """Source s: file STUDENT(ID, DEBT), file SPARE, and ``views`` by name; BROKE is mapped."""
    fields = (SourceFieldDef("ID", Dtype.INTEGER), SourceFieldDef("DEBT", Dtype.INTEGER))
    tables = [SourceTableDef("STUDENT", fields, FileBinding("students.txt")),
              SourceTableDef("SPARE", fields, FileBinding("spare.txt"))]
    tables += [SourceTableDef(name, fields, ViewBinding(sql)) for name, sql in views.items()]
    source = DataSourceDescriptor("s", SourceKind.TABULAR, ".", None, tuple(tables))
    mapping = IntegratedFieldDef("ID", Dtype.INTEGER, FieldRef("s", "BROKE", "ID"))
    schema = IntegratedSchema("g", (IntegratedTableDef("BROKE", (mapping,)),), ())
    return Project((source,), schema)


def _unmapped(report) -> list[str]:
    return [f.location for f in report.findings if f.code is FindingCode.UNMAPPED_TABLE]


def test_tables_a_mapped_view_reads_through_views_are_referenced():
    report = check_schema(_view_chain_project({
        "RICH": "SELECT ID, DEBT FROM STUDENT WHERE DEBT < 1000",
        "BROKE": "SELECT ID, DEBT FROM RICH WHERE DEBT > 2000",
    }))
    assert report.accepted
    assert _unmapped(report) == ["datasources/datasource[s]/table[SPARE]"]


def test_the_referenced_view_walk_ends_on_a_cycle_of_views():
    report = check_schema(_view_chain_project({
        "A": "SELECT ID, DEBT FROM BROKE", "BROKE": "SELECT ID, DEBT FROM A",
        "C": "SELECT ID, DEBT FROM STUDENT",
    }))
    assert [f.location for f in report.errors] == [
        f"datasources/datasource[s]/table[{name}]" for name in ("A", "BROKE")]
    assert _unmapped(report) == [
        f"datasources/datasource[s]/table[{name}]" for name in ("STUDENT", "SPARE", "C")]


def test_report_is_deterministic(fig2_project):
    bad = EqualityRelation(
        (FieldRef("uni", "STUDENT", "ID"), FieldRef("uni", "STUDENT", "DEBT")),
        (FieldRef("uni", "STUDENT", "FIRSTNAME"),),
    )
    schema = fig2_project.schema
    project = Project(fig2_project.sources,
                      IntegratedSchema(schema.name, schema.tables, schema.relations + (bad,)))
    first = check_schema(project).to_text()
    second = check_schema(project).to_text()
    assert first == second
    assert "error TYPE_MISMATCH schema/relation[2]:" in first


def test_text_rendering():
    relation = EqualityRelation((ref("A"),), (ref("NOPE"),))
    report = check_schema(project_with([relation], extra_tables=("SPARE",)))
    text = report.to_text()
    assert text.splitlines()[0].startswith("error UNRESOLVED_REF schema/relation[1]:")
    assert text.splitlines()[1].startswith("warning UNMAPPED_TABLE ")
    assert text.rstrip().endswith("1 errors, 1 warnings")


def _random_derived_relations(rng, n_fields=6, n_relations=8):
    names = [chr(ord("A") + i) for i in range(n_fields)]
    relations = []
    for _ in range(rng.randrange(1, n_relations + 1)):
        target = rng.choice(names)
        operands = rng.sample(names, rng.randrange(2, 4))
        relations.append(DerivedRelation(
            ref(target), DerivedOp.ADD, tuple(ref(n) for n in operands),
        ))
    return names, relations


@pytest.mark.parametrize("seed", range(100))
def test_cycle_detection_matches_dfs_oracle(seed):
    rng = random.Random(seed)
    # fewer fields make sparser graphs, with longer cycles
    names, relations = _random_derived_relations(rng, n_fields=rng.randrange(3, 9))
    report = check_schema(project_with(relations, field_names=names))
    flagged = FindingCode.CYCLIC_DERIVATION in codes(report)

    edges = {ref(n): [] for n in names}
    first_relation = {}
    for index, relation in enumerate(relations, start=1):
        for field in (relation.target, *relation.operands):
            first_relation.setdefault(field, index)
        for operand in relation.operands:
            edges[relation.target].append(operand)
    assert flagged == dfs_has_cycle(edges)

    # one finding per cyclic component, in the order of the relation that
    # first names the component's first-declared field
    components = cyclic_components(edges)
    cyclic = [f for f in report.findings if f.code is FindingCode.CYCLIC_DERIVATION]
    starts, found = [], []
    for finding in cyclic:
        path = [FieldRef(*step.split("."))
                for step in finding.message.removeprefix("derivation cycle: ").split(" -> ")]
        # every rendered step is a real target -> operand edge
        for target, operand in zip(path, path[1:]):
            assert operand in edges[target]
        start = path[0]
        (component,) = [c for c in components if start in c]
        assert start == min(component, key=lambda f: (first_relation[f], str(f)))
        assert path[-1] == start
        assert len(path) - 1 == shortest_cycle_length(edges, start)
        assert finding.location == f"schema/relation[{first_relation[start]}]"
        starts.append(start)
        found.append(component)
    assert len(found) == len(components) and set(found) == set(components)
    locations = [first_relation[start] for start in starts]
    assert locations == sorted(locations)


def _named_fields(count):
    return [f"F{i}" for i in range(count)]


def test_a_derivation_chain_deeper_than_the_recursion_limit_has_no_cycle():
    names = _named_fields(2001)
    assert len(names) > sys.getrecursionlimit()
    relations = [
        DerivedRelation(ref(names[i]), DerivedOp.ADD, (ref(names[i + 1]), ref(names[i + 1])))
        for i in range(2000)]
    report = check_schema(project_with(relations, field_names=names))
    assert report.findings == ()


def test_a_ring_deeper_than_the_recursion_limit_is_one_cycle():
    names = _named_fields(2000)
    assert len(names) > sys.getrecursionlimit()
    relations = [DerivedRelation(ref(name), DerivedOp.ADD, (ref(names[i - 1]), ref(names[i - 1])))
                 for i, name in enumerate(names)]
    report = check_schema(project_with(relations, field_names=names))
    ring = [names[0], *reversed(names)]
    assert [str(f) for f in report.findings] == [
        "error CYCLIC_DERIVATION schema/relation[1]: derivation cycle: "
        + " -> ".join(f"s.T.{name}" for name in ring)]


def test_cycle_path_follows_edges():
    # the component is {A, B, C}, but C's operands are B and D: no C -> A edge
    relations = [
        DerivedRelation(ref("A"), DerivedOp.ADD, (ref("B"), ref("D"))),
        DerivedRelation(ref("B"), DerivedOp.ADD, (ref("C"), ref("A"))),
        DerivedRelation(ref("C"), DerivedOp.ADD, (ref("B"), ref("D"))),
    ]
    report = check_schema(project_with(relations))
    cyclic = [f for f in report.findings if f.code is FindingCode.CYCLIC_DERIVATION]
    assert [f.message for f in cyclic] == ["derivation cycle: s.T.A -> s.T.B -> s.T.A"]


def test_cycle_path_is_a_shortest_cycle():
    # A -> C -> D -> A is found first depth first; A -> B -> A is shorter
    relations = [
        DerivedRelation(ref("A"), DerivedOp.ADD, (ref("B"), ref("C"))),
        DerivedRelation(ref("C"), DerivedOp.ADD, (ref("D"), ref("D"))),
        DerivedRelation(ref("D"), DerivedOp.ADD, (ref("A"), ref("A"))),
        DerivedRelation(ref("B"), DerivedOp.ADD, (ref("A"), ref("A"))),
    ]
    report = check_schema(project_with(relations))
    cyclic = [f for f in report.findings if f.code is FindingCode.CYCLIC_DERIVATION]
    assert [f.message for f in cyclic] == ["derivation cycle: s.T.A -> s.T.B -> s.T.A"]


@pytest.mark.parametrize("seed", range(8))
def test_adding_relation_is_monotone_for_local_findings(seed):
    # cycle findings merge when components join, so they are excluded here;
    # presence of a cycle is still monotone and checked below
    rng = random.Random(seed)
    names, relations = _random_derived_relations(rng)
    base = check_schema(project_with(relations, field_names=names))
    extended = check_schema(project_with(
        relations + [EqualityRelation((ref("A"),), (ref("NOPE"),))],
        field_names=names,
    ))

    def local_errors(report):
        return [f for f in report.errors if f.code is not FindingCode.CYCLIC_DERIVATION]

    assert set(local_errors(base)) <= set(local_errors(extended))

    had_cycle = FindingCode.CYCLIC_DERIVATION in codes(base)
    has_cycle = FindingCode.CYCLIC_DERIVATION in codes(extended)
    assert has_cycle or not had_cycle


# --- views: one rule for the checker and for fetch ----------------------------


@pytest.mark.parametrize("where, message", [
    ("S > 3", "view filter T.S > 3 can never hold: > does not compare string with integer"),
    ("B < true", "view filter T.B < true can never hold: < does not compare boolean with boolean"),
    ("A = S", "view filter T.A = T.S can never hold: = does not compare integer with string"),
    ("A = 2.5 AND S >= 'a' AND B != false AND A < A", None),
])
def test_view_filter_that_never_holds_is_invalid(where, message):
    fields = (SourceFieldDef("A", Dtype.INTEGER), SourceFieldDef("S", Dtype.STRING),
              SourceFieldDef("B", Dtype.BOOLEAN))
    tables = (SourceTableDef("T", fields, FileBinding("t.txt")),
              SourceTableDef("V", fields[:1], ViewBinding(f"SELECT A FROM T WHERE {where}")))
    key = IntegratedFieldDef("A", Dtype.INTEGER, FieldRef("s", "V", "A"))
    project = Project((DataSourceDescriptor("s", SourceKind.TABULAR, ".", None, tables),),
                      IntegratedSchema("g", (IntegratedTableDef("I", (key,)),), ()))
    assert [f.message for f in check_schema(project).errors] == ([message] if message else [])


@settings(max_examples=150, deadline=None)
@given(case=view_projects())
def test_every_view_fetches_as_the_checker_says(case):
    with tempfile.TemporaryDirectory() as directory:
        paths = write_project(Path(directory), *case)
        report = check_schema(parse_project(*paths))
        assert {f.code for f in report.errors} <= {FindingCode.INVALID_VIEW}
        faults = {f.location: f.message for f in report.errors}
        project = parse_project(*paths)  # fetch with no check run before it
        src = project.source("uni")

        def first_fault(tdef):
            """The fault a fetch of ``tdef`` meets first: its own, else its base's."""
            if not isinstance(tdef.binding, ViewBinding):
                return None
            own = faults.get(f"datasources/datasource[uni]/table[{tdef.name}]")
            if own is not None:
                return own
            return first_fault(src.table(parse_view_select(tdef.binding.query).from_tables[0]))

        for tdef in src.tables:
            try:
                fetch_table(project, "uni", tdef.name)
                outcome = None
            except IoError as exc:
                outcome = str(exc)
            assert outcome == first_fault(tdef), tdef.binding


# --- unreachable fields: one rule for the checker and the materializer ----------


def _reach_project(directory: Path, fields, relations) -> Project:
    """Integrated table I: field A of master table s.T, then F0, F1, ... mapped to ``fields``.

    Tables T, U and V each hold integer fields A to D and one row of 1s.
    """
    sources = []
    for name in "TUV":
        (directory / f"{name}.txt").write_text("A|B|C|D\n1|1|1|1\n", encoding="utf-8")
        sources.append(SourceTableDef(name, tuple(SourceFieldDef(f, Dtype.INTEGER) for f in "ABCD"),
                                      FileBinding(f"{name}.txt")))
    source = DataSourceDescriptor("s", SourceKind.TABULAR, ".", None, tuple(sources))
    table = IntegratedTableDef("I", (IntegratedFieldDef("A", Dtype.INTEGER, FieldRef("s", "T", "A")), *(
        IntegratedFieldDef(f"F{i}", Dtype.INTEGER, field) for i, field in enumerate(fields))))
    return Project((source,), IntegratedSchema("g", (table,), tuple(relations)), str(directory))


def _at(table: str, field: str) -> FieldRef:
    return FieldRef("s", table, field)


def _equal(a: FieldRef, b: FieldRef) -> EqualityRelation:
    return EqualityRelation((a,), (b,))


def _add(target: FieldRef, *operands: FieldRef) -> DerivedRelation:
    return DerivedRelation(target, DerivedOp.ADD, operands)


def _unreachable_as_the_materializer_finds(project: Project) -> list[str]:
    """The UNREACHABLE_FIELD findings, checked against what materializing the table raises."""
    report = check_schema(project)
    found = [f for f in report.findings if f.code is FindingCode.UNREACHABLE_FIELD]
    assert all(f.severity is Severity.ERROR for f in found)
    if FindingCode.CYCLIC_DERIVATION not in codes(report):
        try:
            materialize_integrated_table(project, "I")
        except NoRelationPathError as exc:
            assert found and str(exc) == (f"no relation path for field {found[0].location[-3:-1]!r}: "
                                          f"{found[0].message}")
        else:
            assert found == []
    return [f"{f.location}: {f.message}" for f in found]


@pytest.mark.parametrize("fields, relations, expected", [
    ([_at("U", "B")], [], ["s.U"]),
    ([_at("U", "B")], [_equal(_at("T", "A"), _at("U", "A"))], []),
    ([_at("V", "B")], [_equal(_at("T", "A"), _at("U", "A")), _equal(_at("U", "B"), _at("V", "A"))], []),
    # a derived target outside the master table needs every operand
    ([_at("U", "C")], [_add(_at("U", "C"), _at("U", "A"), _at("U", "B"))], ["s.U"]),
    ([_at("U", "C")], [_add(_at("U", "C"), _at("T", "B"), _at("T", "C"))], []),
    ([_at("U", "C")], [_equal(_at("T", "A"), _at("U", "A")),
                       _add(_at("U", "C"), _at("U", "A"), _at("V", "B"))], ["s.V"]),
    # in the master table a derived target is the master column
    ([_at("T", "D")], [_add(_at("T", "D"), _at("U", "A"), _at("U", "B"))], []),
    # one finding per field, each naming its own table
    ([_at("U", "B"), _at("T", "B"), _at("V", "C")], [], ["s.U", "s.V"]),
], ids=["no relation", "an equality", "a chain", "derived, operands unreachable",
        "derived, operands in master", "derived, one operand unreachable", "derived in master",
        "two fields"])
def test_a_field_the_materializer_cannot_reach_is_an_error(tmp_path, fields, relations, expected):
    found = _unreachable_as_the_materializer_finds(_reach_project(tmp_path, fields, relations))
    assert [line.split("connects ")[1].split(" ")[0] for line in found] == expected
    assert all(line.startswith("schema/table[I]/field[F") and line.endswith("to master table s.T")
               for line in found)


def test_a_field_on_a_derivation_cycle_is_reported_as_the_cycle_only(tmp_path):
    relations = [_add(_at("U", "C"), _at("U", "D"), _at("T", "B")),
                 _add(_at("U", "D"), _at("U", "C"), _at("T", "A"))]
    report = check_schema(_reach_project(tmp_path, [_at("U", "C")], relations))
    assert [f.code for f in report.errors] == [FindingCode.CYCLIC_DERIVATION]


def test_a_derivation_chain_deeper_than_the_recursion_limit_is_followed_to_its_end():
    names = _named_fields(2001)
    assert len(names) > sys.getrecursionlimit()
    u, master = [FieldRef("s", "U", name) for name in names], FieldRef("s", "T", names[0])
    relations = [_add(u[i], u[i + 1], master) for i in range(2000)]
    for last, expected in (("V", ["s.V"]), ("T", [])):  # the chain ends outside reach, then in master
        project = project_with(relations + [_add(u[-1], FieldRef("s", last, names[1]), master)],
                               field_names=names, extra_tables=("U", "V"))
        table = IntegratedTableDef("I", (IntegratedFieldDef("A", Dtype.INTEGER, master),
                                         IntegratedFieldDef("Z", Dtype.INTEGER, u[0])))
        report = check_schema(Project(project.sources, IntegratedSchema("g", (table,), project.schema.relations)))
        assert [f.message.split(" ")[4] for f in report.errors] == expected


@pytest.mark.parametrize("seed", range(60))
def test_unreachable_fields_match_the_materializer_on_random_schemas(tmp_path, seed):
    rng = random.Random(seed)
    refs = [_at(table, field) for table in "TUV" for field in "ABCD"]
    relations = []
    for _ in range(rng.randrange(0, 5)):
        if rng.random() < 0.5:
            relations.append(_equal(*rng.sample(refs, 2)))
        else:
            relations.append(_add(*rng.sample(refs, 3)))
    fields = rng.sample(refs, rng.randrange(1, 4))
    _unreachable_as_the_materializer_finds(_reach_project(tmp_path, fields, relations))
