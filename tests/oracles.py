"""Independent reference implementations the tests check against.

Everything here deliberately avoids the package's indexes, candidate
ordering and Decimal arithmetic: matching is linear scan, joins are
exhaustive enumeration with backtracking over the raw triple list (a
repeated variable, within one pattern or across patterns, must take one
value), and numeric comparison goes through Fraction.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product

from medquery.descriptors import DerivedRelation, EqualityRelation, SourceFieldDef
from medquery.dtypes import Dtype, canonicalize
from medquery.errors import NoRelationPathError, TypeCoercionError
from medquery.rdql_engine import RdqlQuery, Var
from medquery.sql_frontend import QualifiedField, SqlQuery
from medquery.triple_store import TripleStore, TypedLiteral, format_term
from medquery.wrappers import Table, fetch_table


def scan_match(triples, s, p, o):
    """Filter a plain triple list the slow way; None is a wildcard."""
    return [
        t for t in triples
        if (s is None or t.subject == s)
        and (p is None or t.predicate == p)
        and (o is None or t.object == o)
    ]


def compare_terms(op, lhs, rhs):
    """Typed comparison re-done from scratch; None when incomparable."""
    if not isinstance(lhs, TypedLiteral) or not isinstance(rhs, TypedLiteral):
        return None
    numeric = (Dtype.INTEGER, Dtype.DECIMAL)
    if lhs.dtype in numeric and rhs.dtype in numeric:
        a, b = Fraction(lhs.lexical), Fraction(rhs.lexical)
    elif lhs.dtype == rhs.dtype == Dtype.STRING:
        a, b = lhs.lexical, rhs.lexical
    elif lhs.dtype == rhs.dtype == Dtype.BOOLEAN and op in ("=", "!="):
        a, b = lhs.lexical, rhs.lexical
    else:
        return None
    if op == "=":
        return a == b
    if op == "!=":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    return a >= b


def enumerate_rdql(query: RdqlQuery, store: TripleStore) -> list[tuple]:
    """Try every assignment of patterns to triples, depth first, in query order.

    A variable that occurs more than once, whether within one pattern or
    across patterns, must bind to one term: an assignment that gives it two
    different values is rejected.
    """
    triples = list(store)
    results: list[tuple] = []

    def walk(index, env):
        if index == len(query.patterns):
            if all(_verdict(atom, env) is True for atom in query.filters):
                results.append(tuple(env[v.name] for v in query.select))
            return
        pattern = query.patterns[index]
        for triple in triples:
            new_env = _bind(pattern, triple, env)
            if new_env is not None:
                walk(index + 1, new_env)

    walk(0, {})
    results.sort(key=lambda row: tuple(format_term(t) for t in row))
    return results


def single_pattern_warnings(query: RdqlQuery, store: TripleStore) -> int:
    """``cross_type_warnings`` of a one-pattern query, counted from its definition.

    Every binding of the pattern meets the atoms in query order and counts
    once when the first atom that does not hold is incomparable. With more
    patterns the count would depend on the join order, so none is offered.
    """
    (pattern,) = query.patterns
    warnings = 0
    for triple in store:
        env = _bind(pattern, triple, {})
        if env is None:
            continue
        for atom in query.filters:
            verdict = _verdict(atom, env)
            if verdict is not True:
                warnings += verdict is None
                break
    return warnings


def _bind(pattern, triple, env):
    """``env`` extended by the pattern's variables, or None when the triple does not fit."""
    new_env = dict(env)
    for term, value in zip((pattern.s, pattern.p, pattern.o), triple):
        if isinstance(term, Var):
            if new_env.setdefault(term.name, value) != value:
                return None
        elif term != value:
            return None
    return new_env


def _verdict(atom, env):
    rhs = env[atom.rhs.name] if isinstance(atom.rhs, Var) else atom.rhs
    return compare_terms(atom.op, env[atom.lhs.name], rhs)


def relational_eval(query: SqlQuery, tables) -> Counter:
    """Nested-loop join, filter, project over materialized integrated tables.

    A row combination participates only when every referenced field is
    present (a missing cell publishes no triple, so no pattern can match
    it). Join conditions compare cells directly; the query generators only
    join same-dtype fields, where that coincides with value equality.
    """
    referenced: list[QualifiedField] = list(query.select)
    for cond in query.join_conds + query.filters:
        referenced.append(cond.lhs)
        if isinstance(cond.rhs, QualifiedField):
            referenced.append(cond.rhs)

    columns = {
        (f.table, f.field): tables[f.table].column(f.field) for f in referenced
    }

    out: Counter = Counter()
    for combo in product(*[tables[name].rows for name in query.from_tables]):
        env = dict(zip(query.from_tables, combo))

        def cell(field: QualifiedField):
            return env[field.table][columns[(field.table, field.field)]]

        if any(cell(f) is None for f in referenced):
            continue
        ok = True
        for cond in query.join_conds:
            if cell(cond.lhs) != cell(cond.rhs):
                ok = False
                break
        if ok:
            for cond in query.filters:
                lhs = cell(cond.lhs)
                if isinstance(cond.rhs, QualifiedField):
                    rhs_lex, rhs_dt = cell(cond.rhs).lexical, cell(cond.rhs).dtype
                else:
                    rhs_lex, rhs_dt = cond.rhs.lexical, cond.rhs.dtype
                verdict = compare_terms(
                    cond.op,
                    TypedLiteral(lhs.lexical, lhs.dtype),
                    TypedLiteral(rhs_lex, rhs_dt),
                )
                if verdict is not True:
                    ok = False
                    break
        if ok:
            out[tuple((cell(f).lexical, cell(f).dtype) for f in query.select)] += 1
    return out


def materialize_table(project, name) -> Table:
    """Build one integrated table from fetched source rows with nested loops.

    Shares no code with the extraction module. The first field's source
    table is the master; each master row gives one row. A field in another
    table is computed from the first derived relation that targets it, or
    else reached over the shortest chain of equality relations (every
    path of a length is tried, relations in descriptor order), keeping the
    first far row in (hop-1 row order, hop-2 row order, ...) order. A key
    holding a missing cell matches nothing, and no match leaves the cell
    missing. Derived add is exact; a cell whose dtype differs from its
    integrated field's is converted.
    """
    tdef = project.schema.table(name)
    fetched: dict = {}

    def rows_of(node):
        if node not in fetched:
            fetched[node] = fetch_table(project, *node)
        return fetched[node]

    master_ref = tdef.fields[0].mapping
    master = (master_ref.source, master_ref.table)
    hops = _equality_hops(project.schema.relations)

    def value(ref, row, field_name, stack=()):
        node = (ref.source, ref.table)
        if node == master:
            return row[rows_of(master).column(ref.field)]
        derived = [r for r in project.schema.relations
                   if isinstance(r, DerivedRelation) and r.target == ref]
        if derived and ref not in stack:
            operands = [value(op, row, field_name, stack + (ref,)) for op in derived[0].operands]
            if any(v is None for v in operands):
                return None
            lexicals = [v.lexical for v in operands]
            if derived[0].op.value == "concat":
                return TypedLiteral("".join(lexicals), Dtype.STRING)
            return _exact_sum(lexicals)
        chain = _shortest_chain(hops, master, node)
        if chain is None:
            raise NoRelationPathError(
                field_name,
                f"no equality relation connects {ref.source}.{ref.table} "
                f"to master table {master[0]}.{master[1]}",
            )
        far = _first_reached(rows_of, chain, row)
        return None if far is None else far[rows_of(node).column(ref.field)]

    rows = []
    for number, row in enumerate(rows_of(master).rows, start=1):
        cells = []
        for fdef in tdef.fields:
            cell = value(fdef.mapping, row, fdef.name)
            if cell is not None and cell.dtype != fdef.dtype:
                try:
                    cell = TypedLiteral(canonicalize(cell.lexical, fdef.dtype), fdef.dtype)
                except ValueError:
                    raise TypeCoercionError(number, fdef.name, cell.lexical) from None
            cells.append(cell)
        rows.append(tuple(cells))
    fields = tuple(SourceFieldDef(fdef.name, fdef.dtype) for fdef in tdef.fields)
    return Table(name, fields, tuple(rows))


def _equality_hops(relations) -> list:
    """(near table, near fields, far table, far fields), both directions of each
    equality relation whose sides sit in two distinct tables, in descriptor order."""
    hops = []
    for rel in relations:
        if not isinstance(rel, EqualityRelation) or not rel.lhs or len(rel.lhs) != len(rel.rhs):
            continue
        lhs_tables = {(r.source, r.table) for r in rel.lhs}
        rhs_tables = {(r.source, r.table) for r in rel.rhs}
        if len(lhs_tables) != 1 or len(rhs_tables) != 1 or lhs_tables == rhs_tables:
            continue
        left, right = lhs_tables.pop(), rhs_tables.pop()
        lhs_fields = [r.field for r in rel.lhs]
        rhs_fields = [r.field for r in rel.rhs]
        hops.append((left, lhs_fields, right, rhs_fields))
        hops.append((right, rhs_fields, left, lhs_fields))
    return hops


def _shortest_chain(hops, start, goal):
    """The first simple path of the smallest length, trying hops in list order."""
    def paths(node, depth, seen):
        if depth == 0:
            if node == goal:
                yield []
            return
        for hop in hops:
            if hop[0] == node and hop[2] not in seen:
                for rest in paths(hop[2], depth - 1, seen | {hop[2]}):
                    yield [hop] + rest

    for depth in range(len(hops) + 1):
        for path in paths(start, depth, {start}):
            return path
    return None


def _first_reached(rows_of, chain, row):
    """Depth first along the chain: the first row of the last table reached."""
    if not chain:
        return row
    near, near_fields, far, far_fields = chain[0]
    keys = [row[rows_of(near).column(f)] for f in near_fields]
    far_table = rows_of(far)
    for far_row in far_table.rows:
        if all(key is not None and far_row[far_table.column(f)] == key
               for key, f in zip(keys, far_fields)):
            found = _first_reached(rows_of, chain[1:], far_row)
            if found is not None:
                return found
    return None


def _exact_sum(lexicals) -> TypedLiteral:
    """Add canonical decimal/integer lexicals as scaled integers; an integral
    sum is an integer, any other a decimal."""
    places = max((len(text.partition(".")[2]) for text in lexicals), default=0)
    total = 0
    for text in lexicals:
        whole, _, frac = text.partition(".")
        total += int(whole + frac.ljust(places, "0"))
    whole, frac = divmod(abs(total), 10 ** places)
    sign = "-" if total < 0 else ""
    if frac == 0:
        return TypedLiteral(f"{sign}{whole}", Dtype.INTEGER)
    digits = str(frac).rjust(places, "0").rstrip("0")
    return TypedLiteral(f"{sign}{whole}.{digits}", Dtype.DECIMAL)


def result_counter(result) -> Counter:
    """Project a ResultSet to the oracle's (lexical, dtype) multiset shape."""
    out: Counter = Counter()
    for row in result.rows:
        key = []
        for term in row:
            assert isinstance(term, TypedLiteral)
            key.append((term.lexical, term.dtype))
        out[tuple(key)] += 1
    return out


def dfs_has_cycle(edges: dict) -> bool:
    """Plain three-color depth-first search."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in edges}

    def visit(node):
        color[node] = GRAY
        for succ in edges.get(node, ()):
            if succ not in color:
                continue
            if color[succ] == GRAY:
                return True
            if color[succ] == WHITE and visit(succ):
                return True
        color[node] = BLACK
        return False

    return any(color[node] == WHITE and visit(node) for node in list(edges))


def reachable(edges: dict, start) -> set:
    """Every node reached from ``start`` by one or more steps, by an explicit stack."""
    seen: set = set()
    todo = list(edges.get(start, ()))
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo.extend(edges.get(node, ()))
    return seen


def cyclic_components(edges: dict) -> list[frozenset]:
    """The node sets on some cycle, grouped by mutual reachability, by brute force."""
    reach = {node: reachable(edges, node) for node in edges}
    return list(dict.fromkeys(
        frozenset(other for other in reach if other in reach[node] and node in reach[other])
        for node in edges if node in reach[node]
    ))


def shortest_cycle_length(edges: dict, start):
    """The fewest steps from ``start`` back to itself, trying every simple path."""
    def walks(node, depth, seen):
        """Whether a simple path of ``depth`` steps leads from ``node`` back to ``start``."""
        if depth == 1:
            return start in edges.get(node, ())
        return any(walks(succ, depth - 1, seen | {succ})
                   for succ in edges.get(node, ()) if succ not in seen)

    for depth in range(1, len(edges) + 1):
        if walks(start, depth, {start}):
            return depth
    return None
