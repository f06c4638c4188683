"""In-memory RDF triple store, and its N-Triples export and import.

Terms are ``dtypes.Iri`` or ``dtypes.TypedLiteral`` (no blank nodes, no
untyped literals), which this module stores and does not define. The
store keeps set semantics over triples, split by predicate as in a
vertically partitioned store: one map from each predicate to its entry,
which holds subject -> objects, object -> subjects and the predicate's
triple count, and nothing else is kept in step with it. ``reader`` picks
a pattern's access path once per join step, for the whole list of its
bindings; ``match`` reads through it, and ``count`` adds up entry sizes
instead of building the matches, in O(1) for a predicate alone. A free
predicate's step meets each entry once with the terms its bindings hold,
so a store keeps only its entries. ``Triple`` is a NamedTuple, equal to the
plain ``(s, p, o)`` tuple that ``match`` returns.

A store is built whole and never written after: ``TripleStore.from_triples``
keeps each triple once, in a set per object slot (:func:`import_ntriples`);
``from_rows`` builds a table's store from rows whose (subject, predicate)
pairs cannot repeat, so it probes for no duplicate and keeps 1-tuple slots;
``union`` joins stores with disjoint predicates (the integrated view's
per-table segments) by sharing their entries, and so their value orders.

``in_range(p, op, literal)`` is a range read: the (subject, object) pairs
of ``p`` whose object is numeric and has ``object op literal`` under
:func:`dtypes.compare`, found by ``bisect`` over ``p``'s numeric objects
sorted by exact ``Decimal`` value, and the number of ``p``'s other
triples, which that comparison cannot decide: it counts them and builds
none. The order and the count are built on the first range read of ``p``
and kept in its entry: a segment is sorted once, however many read it.

Matches come in no particular order; iteration and exports are
canonically ordered by (subject IRI, predicate IRI, object in N-Triples
syntax), which makes them diffable even though RDF itself is unordered.
An export walks the predicate entries, renders each triple's object once
(``dtypes.format_term``, which escapes only a literal that holds a character
needing it), sorts those keys and writes each line from its key. An import
reads each line with ``scanner.Scanner``, the reader of RDQL's terms too.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from decimal import Decimal
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .dtypes import NUMERIC_DTYPES, Iri, Term, TypedLiteral, format_term
from .errors import NtParseError, ParseError
from .scanner import Scanner

_RANGE_OPS = frozenset({"<", "<=", "=", ">=", ">"})


class Triple(NamedTuple):
    subject: Iri
    predicate: Iri
    object: Term


def is_numeric(term: Term) -> bool:
    return isinstance(term, TypedLiteral) and term.dtype in NUMERIC_DTYPES


def _value(literal: TypedLiteral) -> Decimal:
    return Decimal(literal.lexical)


class _Entry:
    """One predicate's triples: subject -> objects in ``by_subject`` (sets where from_triples filled
    them, 1-tuples where from_rows did), object -> subjects in ``by_object``, the triple count in ``size``
    and, once a range read has built it, the numeric objects by value in ``order``."""

    __slots__ = ("by_subject", "by_object", "size", "order")

    def __init__(self) -> None:
        self.by_subject: dict[Iri, set[Term] | tuple[Term]] = {}
        self.by_object: dict[Term, set[Iri]] = {}
        self.size = 0
        self.order: tuple[list[TypedLiteral], int] | None = None

    def by_value(self) -> tuple[list[TypedLiteral], int]:
        """The numeric objects in ascending value, and the number of triples with another object."""
        if self.order is None:
            numeric = sorted(filter(is_numeric, self.by_object), key=_value)
            self.order = numeric, self.size - sum(len(self.by_object[o]) for o in numeric)
        return self.order


def _triple_key(t: Triple) -> tuple[str, str, str]:
    return (t.subject.value, t.predicate.value, format_term(t.object))


class TripleStore:
    """Triples in one entry per predicate, built whole; ``TripleStore()`` is the empty store."""

    def __init__(self) -> None:
        self._preds: dict[Iri, _Entry] = {}

    @classmethod
    def from_triples(cls, triples: Iterable[tuple[Iri, Iri, Term]]) -> TripleStore:
        """A store of ``triples``, each kept once however often it comes."""
        store = cls()
        for s, p, o in triples:
            entry = store._preds.get(p) or store._preds.setdefault(p, _Entry())
            objects = entry.by_subject.setdefault(s, set())
            if o not in objects:
                objects.add(o)
                entry.by_object.setdefault(o, set()).add(s)
                entry.size += 1
        return store

    @classmethod
    def from_rows(cls, predicates: Sequence[Iri],
                  rows: Iterable[tuple[Iri, Sequence[Term | None]]]) -> TripleStore:
        """A store of a triple ``(subject, predicates[i], cells[i])`` per non-missing cell.

        Each row is ``(subject, cells)`` with one cell per predicate; ``None``
        is a missing cell. The predicates must be distinct and no subject may
        repeat, so no triple can repeat: unlike :meth:`from_triples`, nothing
        is probed cell by cell.
        """
        if len(set(predicates)) != len(predicates):
            raise ValueError("from_rows needs distinct predicates")
        store = cls()
        entries = [store._preds.setdefault(p, _Entry()) for p in predicates]
        seen: set[Iri] = set()
        for subject, cells in rows:
            if subject in seen:
                raise ValueError(f"subject repeated in from_rows: {subject.value}")
            seen.add(subject)
            for entry, cell in zip(entries, cells):
                if cell is not None:
                    entry.by_subject[subject] = (cell,)
                    entry.by_object.setdefault(cell, set()).add(subject)
        for entry in entries:
            entry.size = len(entry.by_subject)
        return store

    @classmethod
    def union(cls, stores: Sequence[TripleStore]) -> TripleStore:
        """A store of every triple of ``stores``, which share no predicate; their entries are shared."""
        joined = cls()
        for store in stores:
            joined._preds.update(store._preds)
        if len(joined._preds) != sum(len(store._preds) for store in stores):
            raise ValueError("union needs stores with disjoint predicates")
        return joined

    def __len__(self) -> int:
        return sum(entry.size for entry in self._preds.values())

    def __iter__(self) -> Iterator[Triple]:
        # not through match(), so iterating is not counted as a pattern match
        return iter(sorted(map(Triple._make, self.reader(None, None, None)([()])), key=_triple_key))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TripleStore):
            return NotImplemented
        # no slot repeats an object, so equal sizes and one inclusion suffice
        return len(self) == len(other) and all(other.count(*t) for t in self.reader(None, None, None)([()]))

    def insert(self, t: Triple) -> bool:
        """Refused on every store, which is built whole; kept only for the benchmark tracer's patch."""
        raise ValueError("insert into a store: build it whole, with from_triples, from_rows or union")

    def match(self, s: Term | None, p: Term | None, o: Term | None) -> list[tuple[Iri, Iri, Term]]:
        """All triples unifying with the pattern (None is a wildcard), unordered, as tuples.

        A literal subject or predicate matches nothing. Read by :meth:`reader`, constants put back.
        """
        free = [i for i, term in enumerate((s, p, o)) if term is None]
        return [tuple([row[free.index(i)] if i in free else term for i, term in enumerate((s, p, o))])
                for row in self.reader(s, p, o)([()])]

    def reader(self, s, p, o) -> Callable[[list[tuple]], list]:
        """A pattern's access path, chosen once: a step from a list of bindings to their extensions.

        Each of ``s``, ``p`` and ``o`` is a constant term, the ``int`` slot of a term
        in a binding, or None where it is free. The step extends each binding, in input
        order, by the free terms (s, p, o order) of each triple matching it. A constant
        predicate's entry is found here, once; a free one's step walks each entry once,
        against the subjects (else objects) of all its bindings. A pattern that takes no
        term from a binding is read here, once.
        """
        entries = None
        if p is not None and not isinstance(p, int):
            entry = self._preds.get(p) or _Entry()  # an empty entry: no triple has p
            if isinstance(s, int) and o is None:
                get = entry.by_subject.get
                return lambda bindings: [b + (x,) for b in bindings for x in get(b[s], ())]
            if s is None and isinstance(o, int):
                get = entry.by_object.get
                return lambda bindings: [b + (x,) for b in bindings for x in get(b[o], ())]
            entries = [(p, entry)]
        pattern = (s, p, o)

        def select(rows: list[list]) -> list:
            """Each row's (predicate, entry) pairs: its predicate's, else those holding its known term."""
            if p is not None:
                return [entries or [(row[1], self._preds.get(row[1]) or _Entry())] for row in rows]
            if s is None and o is None:
                return [self._preds.items()] * len(rows)
            key = 0 if s is not None else 2
            by_term = {row[key]: [] for row in rows}  # each term the rows hold -> the pairs holding it
            for pair in self._preds.items():  # a semi-join: walk the smaller of the two key sets
                small, large = sorted((by_term, pair[1].by_object if key else pair[1].by_subject), key=len)
                for term in filter(large.__contains__, small):
                    by_term[term].append(pair)
            return [by_term[row[key]] for row in rows]

        def read(s, p, o, found) -> list[tuple]:
            if s is not None:
                slots = [(q, entry.by_subject.get(s, ())) for q, entry in found]
                if o is None:
                    return [(x,) if p is not None else (q, x) for q, objects in slots for x in objects]
                return [() if p is not None else (q,) for q, objects in slots if o in objects]
            if o is not None:
                return [(x,) if p is not None else (x, q)
                        for q, entry in found for x in entry.by_object.get(o, ())]
            return [(x, y) if p is not None else (x, q, y)
                    for q, entry in found for y, subjects in entry.by_object.items() for x in subjects]

        def step(bindings: list[tuple]) -> list[tuple]:
            rows = [[b[term] if isinstance(term, int) else term for term in pattern] for b in bindings]
            return [b + e for b, row, found in zip(bindings, rows, select(rows)) for e in read(*row, found)]
        if not any(isinstance(term, int) for term in pattern):
            once = step([()])
            return lambda bindings: [b + e for b in bindings for e in once]
        return step

    def count(self, s: Term | None, p: Term | None, o: Term | None) -> int:
        """``len(self.match(s, p, o))``, summed over the entry of ``p``, or every entry when ``p`` is None."""
        entries = self._preds.values() if p is None else [self._preds[p]] if p in self._preds else []
        if s is None:
            return sum(entry.size if o is None else len(entry.by_object.get(o, ())) for entry in entries)
        return sum(len(objects) if o is None else o in objects
                   for objects in [entry.by_subject.get(s, ()) for entry in entries])

    def in_range(self, p: Iri, op: str, literal: TypedLiteral) -> tuple[list[tuple[Iri, Term]], int]:
        """The (subject, object) pairs of ``p`` whose object is numeric and has ``object op literal``,
        and the number of ``p``'s triples whose object is not numeric: compared with the numeric
        ``literal`` by ``op`` (``<``, ``<=``, ``=``, ``>=`` or ``>``), each of those is incomparable."""
        if op not in _RANGE_OPS or literal.dtype not in NUMERIC_DTYPES:
            raise ValueError(f"a range read needs an order or = and a numeric literal, not {op} {literal}")
        entry = self._preds.get(p) or _Entry()
        numeric, incomparable = entry.by_value()
        value = _value(literal)
        left = bisect_left(numeric, value, key=_value)
        right = bisect_right(numeric, value, key=_value)
        start, stop = {"<": (0, left), "<=": (0, right), "=": (left, right),
                       ">=": (left, len(numeric)), ">": (right, len(numeric))}[op]
        return [(subj, obj) for obj in numeric[start:stop] for subj in entry.by_object[obj]], incomparable


def export_ntriples(store: TripleStore) -> str:
    """Serialize the store, one triple per line, in canonical order."""
    keys = [(s.value, p.value, format_term(o)) for p, entry in store._preds.items()
            for s, objects in entry.by_subject.items() for o in objects]
    keys.sort()
    return "".join([f"<{s}> <{p}> {o} .\n" for s, p, o in keys])


def import_ntriples(text: str) -> TripleStore:
    """Parse N-Triples text produced by :func:`export_ntriples`, one line at a time."""
    return TripleStore.from_triples(_read_line(number, line) for number, line
                                    in enumerate(text.split("\n"), start=1) if line.strip())


def _read_line(number: int, line: str) -> tuple[Iri, Iri, Term]:
    """The triple on line ``number``, which is not blank; a fault raises ``NtParseError``."""
    scanner = Scanner(line)
    try:
        subject, predicate = scanner.iri(), scanner.iri()
        obj = scanner.quoted_literal(None) if scanner.peek() == '"' else scanner.iri()
        if not scanner.take(".") or not scanner.eof():
            scanner.fail("expected terminal ' .'")
    except ParseError as exc:
        raise NtParseError(number, str(exc)) from None
    return subject, predicate, obj
