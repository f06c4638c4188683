"""RDQL subset: conjunctive triple patterns plus a comparison conjunction.

Concrete syntax::

    SELECT ?FIRSTNAME, ?DEBT
    WHERE
    (?tbl_0 <http://integratedDB/STUDENT#FIRSTNAME> ?FIRSTNAME),
    (?tbl_0 <http://integratedDB/STUDENT#DEBT> ?DEBT)
    AND ?DEBT > 2000 && ?FIRSTNAME != "Ann"

Patterns are parenthesized subject/predicate/object terms; terms are
variables, angle-bracketed IRIs or quoted literals with an optional
``^^<datatype>`` (string by default), read by ``Scanner.iri`` and
``Scanner.quoted_literal`` as N-Triples reads them. Constraint atoms
compare a variable against a variable or a literal; bare numerals, whose
sign may stand apart from them (``- 5``), and ``true``/``false`` in any
case are typed literals, read as SQL reads them (``Scanner.bare_literal``).

Evaluation joins the patterns one at a time in a greedy connected order
(each pattern after the first shares a variable bound before it, when one
does), checks each constraint atom by ``dtypes.passing`` as soon as its
variables are bound, and projects onto the selected variables. Each step is
compiled once to fixed variable slots and a ``TripleStore.reader`` step,
which extends the whole list of partial answers (plain tuples of terms) at
once. A step that scans a constant predicate for a new subject and a new
object, and whose first constraint compares that object with a numeric
literal by ``<``, ``<=``, ``=``, ``>=`` or ``>``, reads once, by
``TripleStore.in_range``, only the triples whose numeric object passes that
atom; each other triple of the predicate would fail it as incomparable, and
is counted once per binding, not built. The order ranks patterns by
estimated size: the triples matching their constant terms, times a fixed
selectivity for each atom comparing one of their variables with a literal
(1/10 for ``=``, 1/3 for ``<``, ``<=``, ``>`` and ``>=``, 1 for ``!=``;
System R's defaults, Selinger et al., SIGMOD 1979). The answer does not
depend on the order. Duplicates are kept and rows come back in a canonical
order, so equal queries over equal stores render identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

from .dtypes import IDENTIFIER_RE, NUMERIC_DTYPES, Dtype, Iri, Term, TypedLiteral, format_term, passing
from .errors import (
    RdqlParseError,
    UnboundFilterVarError,
    UnboundSelectVarError,
)
from .scanner import Scanner
from .triple_store import TripleStore

# 1 / the share of a pattern's candidates expected to pass an atom comparing
# one of its variables with a literal
_DENOMINATORS = {"=": 10, "!=": 1, "<": 3, "<=": 3, ">": 3, ">=": 3}


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


PatternTerm = Union[Var, Iri, TypedLiteral]


@dataclass(frozen=True)
class TriplePattern:
    s: PatternTerm
    p: PatternTerm
    o: PatternTerm


@dataclass(frozen=True)
class FilterAtom:
    lhs: Var
    op: str
    rhs: Union[Var, TypedLiteral]


@dataclass(frozen=True)
class RdqlQuery:
    select: tuple[Var, ...]
    patterns: tuple[TriplePattern, ...]
    filters: tuple[FilterAtom, ...] = ()


@dataclass
class ResultSet:
    """Selected columns and rows of one evaluation.

    ``cross_type_warnings`` is the number of comparisons that were made and
    found incomparable (different dtype families, an IRI operand). A binding
    is checked against each atom once, in the join step that binds the
    atom's last variable, by :func:`~medquery.dtypes.passing`, where the
    first atom that does not hold decides: a partial binding counts at most
    once, however many rows it would have joined into. A range read counts,
    without making them, the incomparable comparisons of its atom: one per
    binding and triple with a non-numeric object.
    """

    columns: list[str]
    rows: list[tuple[Term, ...]]
    cross_type_warnings: int = 0


# --- parsing -----------------------------------------------------------------


class _Scanner(Scanner):
    """The shared cursor, which reads IRIs and literals, plus RDQL's variables and term choices."""

    error = RdqlParseError

    def variable(self) -> Var:
        self.expect("?")
        match = IDENTIFIER_RE.match(self.text, self.pos)
        if not match:
            self.fail("expected variable name after '?'")
        self.pos = match.end()
        return Var(match.group())

    def pattern_term(self) -> PatternTerm:
        ch = self.peek()
        if ch == "?":
            return self.variable()
        if ch == "<":
            return self.iri()
        if ch == '"':
            return self.quoted_literal(Dtype.STRING)
        self.fail("expected variable, IRI or literal")

    def atom_rhs(self) -> Union[Var, TypedLiteral]:
        ch = self.peek()
        if ch == "?":
            return self.variable()
        if ch == '"':
            return self.quoted_literal(Dtype.STRING)
        literal = self.bare_literal()
        if literal is None:
            self.fail("expected variable or literal")
        return literal


def parse_rdql(text: str) -> RdqlQuery:
    scanner = _Scanner(text)
    if not scanner.keyword("SELECT"):
        scanner.fail("expected SELECT")
    select = [scanner.variable()]
    while scanner.take(","):
        select.append(scanner.variable())

    if not scanner.keyword("WHERE"):
        scanner.fail("expected WHERE")
    patterns = [_parse_pattern(scanner)]
    while scanner.take(","):
        patterns.append(_parse_pattern(scanner))

    filters: list[FilterAtom] = []
    if scanner.keyword("AND"):
        filters.append(_parse_atom(scanner))
        while scanner.take("&&"):
            filters.append(_parse_atom(scanner))

    if not scanner.eof():
        scanner.fail("unexpected trailing input")

    query = RdqlQuery(tuple(select), tuple(patterns), tuple(filters))
    _check_variables(query)
    return query


def _check_variables(query: RdqlQuery) -> None:
    bound = set().union(*map(_pattern_variables, query.patterns))
    for var in query.select:
        if var.name not in bound:
            raise UnboundSelectVarError(f"selected variable ?{var.name} occurs in no pattern")
    for atom in query.filters:
        for side in (atom.lhs, atom.rhs):
            if isinstance(side, Var) and side.name not in bound:
                raise UnboundFilterVarError(
                    f"constraint variable ?{side.name} occurs in no pattern"
                )


def _parse_pattern(scanner: _Scanner) -> TriplePattern:
    scanner.expect("(")
    s = scanner.pattern_term()
    p = scanner.pattern_term()
    o = scanner.pattern_term()
    scanner.expect(")")
    if isinstance(s, TypedLiteral):
        scanner.fail("literal subjects are not allowed")
    if isinstance(p, TypedLiteral):
        scanner.fail("literal predicates are not allowed")
    return TriplePattern(s, p, o)


def _parse_atom(scanner: _Scanner) -> FilterAtom:
    if scanner.peek() != "?":
        scanner.fail("constraint must start with a variable")
    return FilterAtom(scanner.variable(), scanner.operator(), scanner.atom_rhs())


def _pattern_variables(pattern: TriplePattern) -> set[str]:
    return {term.name for term in (pattern.s, pattern.p, pattern.o) if isinstance(term, Var)}


def _atom_variables(atom: FilterAtom) -> set[str]:
    names = {atom.lhs.name}
    if isinstance(atom.rhs, Var):
        names.add(atom.rhs.name)
    return names


# --- evaluation --------------------------------------------------------------


def evaluate(query: RdqlQuery, store: TripleStore) -> ResultSet:
    """Conjunctive match with early constraint checks, projection, sorting.

    Patterns are joined in :func:`_plan` order, each step compiled once by
    :func:`_compile` to one read and its checks. A binding is a tuple with one
    slot per variable bound so far; ``read`` extends the whole list of bindings
    by the step's new terms at once. Each constraint atom is checked in the
    step that binds its last variable; the result does not depend on the
    order. Rows are sorted over their terms' N-Triples text and duplicates
    are kept. A selected or constraint variable that no pattern binds
    raises before any pattern is matched.
    """
    _check_variables(query)
    slots: dict[str, int] = {}
    bindings: list[tuple[Term, ...]] = [()]
    warnings = 0
    for pattern, atoms in _plan(query, store):
        read, checks, incomparable = _compile(pattern, atoms, slots, store)
        warnings += incomparable * len(bindings)
        bindings = read(bindings)
        if checks:
            bindings, incomparable = passing(bindings, checks)
            warnings += incomparable
        if not bindings:
            break

    columns = [var.name for var in query.select]
    rows = [tuple([binding[slots[name]] for name in columns]) for binding in bindings]
    rows.sort(key=lambda row: tuple([format_term(term) for term in row]))
    return ResultSet(columns, rows, warnings)


def _compile(pattern: TriplePattern, atoms: list[FilterAtom], slots: dict[str, int],
             store: TripleStore) -> tuple[Callable, list, int]:
    """One plan step as ``(read, checks, incomparable)``; adds its new variables to ``slots``.

    ``read`` is the step of ``store.reader`` of the pattern's constants, earlier
    steps' slots and None where this step binds, keeping the extended bindings
    whose repeats of a new variable agree. ``checks`` has a ``(slot, op, slot or
    literal)`` per atom. When s and o are two new variables, p is constant and the
    first check compares o with a numeric literal, that check is decided by one
    :meth:`TripleStore.in_range` read, whose count of triples incomparable with it
    is ``incomparable`` (else 0), per binding.
    """
    bound, inputs, free = len(slots), [], []  # free: the slot of each term this step binds
    for term in (pattern.s, pattern.p, pattern.o):
        if isinstance(term, Var):
            term = slots.setdefault(term.name, len(slots))
            if term >= bound:
                free.append(term)
                term = None
        inputs.append(term)
    checks = [(slots[atom.lhs.name], atom.op,
               slots[atom.rhs.name] if isinstance(atom.rhs, Var) else atom.rhs)
              for atom in atoms]
    if inputs[0] is None and isinstance(inputs[1], Iri) and inputs[2] is None and checks:
        slot, op, rhs = checks[0]
        if (slot == free[1] != free[0] and op != "!=" and isinstance(rhs, TypedLiteral)
                and rhs.dtype in NUMERIC_DTYPES):
            matches, incomparable = store.in_range(inputs[1], op, rhs)
            return (lambda bindings: [b + e for b in bindings for e in matches]), checks[1:], incomparable
    read = whole = store.reader(*inputs)
    if len(free) > len(slots) - bound:  # a new variable repeats: keep the extensions that agree
        first = {slot: bound + free.index(slot) for slot in range(bound, len(slots))}
        read = lambda bindings: [e[:bound] + tuple([e[k] for k in first.values()]) for e in whole(bindings)
                                 if all(e[bound + k] == e[first[slot]] for k, slot in enumerate(free))]
    return read, checks, 0


def _plan(query: RdqlQuery, store: TripleStore) -> list[tuple[TriplePattern, list[FilterAtom]]]:
    """Greedy connected join order, each step with the atoms it completes.

    A pattern's estimated size is the number of triples matching its
    constant terms, divided by ``_DENOMINATORS[op]`` for each atom comparing
    one of its variables with a literal (System R's defaults: 1/10 for
    ``=``, 1/3 for the order comparisons, 1 for ``!=``), scaled by all those
    atoms' denominators to an exact integer. The first pattern is the
    one with the smallest estimate. Each later one has the smallest among
    those sharing a variable already bound (among all the rest when none
    does), so a join key is bound before the pattern it joins on. Ties go
    to the earlier pattern.
    """
    variables = [_pattern_variables(pattern) for pattern in query.patterns]
    scale = math.prod(_DENOMINATORS[atom.op] for atom in query.filters if not isinstance(atom.rhs, Var))
    estimates = [_estimate(pattern, names, query.filters, scale, store)
                 for pattern, names in zip(query.patterns, variables)]
    # ranked once, smallest estimate first; the sort is stable, so ties keep query order
    remaining = sorted(range(len(query.patterns)), key=estimates.__getitem__)
    bound: set[str] = set()
    pending = list(query.filters)
    steps: list[tuple[TriplePattern, list[FilterAtom]]] = []
    while remaining:
        best = next((i for i in remaining if variables[i] & bound), remaining[0])
        remaining.remove(best)
        bound |= variables[best]
        ready = [atom for atom in pending if _atom_variables(atom) <= bound]
        pending = [atom for atom in pending if not _atom_variables(atom) <= bound]
        steps.append((query.patterns[best], ready))
    return steps


def _estimate(pattern: TriplePattern, names: set[str], atoms: tuple[FilterAtom, ...], scale: int,
              store: TripleStore) -> int:
    """``scale`` times the candidate triples, over each literal atom's denominator on ``names``."""
    estimate = scale * store.count(
        pattern.s if isinstance(pattern.s, Iri) else None,
        pattern.p if isinstance(pattern.p, Iri) else None,
        pattern.o if not isinstance(pattern.o, Var) else None,
    )
    for atom in atoms:
        if not isinstance(atom.rhs, Var) and atom.lhs.name in names:
            estimate //= _DENOMINATORS[atom.op]
    return estimate
