"""In-memory spans and counters around the mediator's public calls.

A span is (name, start, end, parent, op id) plus attributes. Spans are
opened by the benchmark around each stage call, by the ``fetch`` callable it
hands to ``materialize_required``, and by a wrapper put in place of
``extraction.materialize_integrated_table`` for the run (``materialize_required``
calls it once per table, which gives the per-table split). The hot
per-triple methods ``TripleStore.insert``, ``match`` and ``count`` are too
frequent for a span each: their time and call counts are added to the
innermost open span instead, and count as that span's children when self
time is derived.

A layer's self time is its span's duration minus its child spans and the
hot-call time recorded under it.
"""

from __future__ import annotations

import json
import logging
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import medquery as mq
from medquery import extraction, triple_store

_clock = time.perf_counter


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    hot: Counter = field(default_factory=Counter)  # seconds in hot calls directly under it

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _WarningCounter(logging.Handler):
    def __init__(self, tracer: "Tracer"):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if self.tracer.stack:
            self.tracer.counts["multi_match_warnings"] += 1


class Tracer:
    """Records spans and counters while installed; use as a context manager."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._op_fetches: set[tuple[str, str]] = set()
        self._restore: list[tuple[object, str, object]] = []
        self._handler = _WarningCounter(self)

    # --- spans ---------------------------------------------------------------

    def span(self, name: str, **attrs):
        return _SpanContext(self, name, attrs)

    def open(self, name: str, attrs: dict) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, self.op, parent, _clock(), attrs=attrs))
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = _clock()
        self.stack.pop()

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._op_fetches = set()

    # --- hooks -----------------------------------------------------------------

    def fetch(self, project, source, table, log=None):
        """``fetch`` argument for ``materialize_required``: spans ``fetch_table``."""
        with self.span("wrappers.fetch_table", source=source, table=table):
            result = mq.fetch_table(project, source, table, log)
        self.counts["fetch_calls"] += 1
        self.counts["rows_fetched"] += len(result.rows)
        if (source, table) in self._op_fetches:
            self.counts["fetch_dups"] += 1
        self._op_fetches.add((source, table))
        return result

    def __enter__(self) -> "Tracer":
        store = triple_store.TripleStore
        self._patch(store, "insert", self._hot(store.insert, "insert", self._count_insert))
        self._patch(store, "match", self._hot(store.match, "match", self._count_match))
        self._patch(store, "count", self._hot(store.count, "match", self._count_count))
        table_fn = extraction.materialize_integrated_table

        def materialize_integrated_table(project, table_name, *args, **kwargs):
            with self.span("extraction.materialize_integrated_table", table=table_name):
                return table_fn(project, table_name, *args, **kwargs)

        self._patch(extraction, "materialize_integrated_table", materialize_integrated_table)
        logging.getLogger("medquery.extraction").addHandler(self._handler)
        return self

    def __exit__(self, *exc) -> None:
        logging.getLogger("medquery.extraction").removeHandler(self._handler)
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _patch(self, owner, name: str, replacement) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _hot(self, method, label: str, count):
        tracer = self

        def wrapper(store, *args):
            if not tracer.stack:
                return method(store, *args)
            started = _clock()
            result = method(store, *args)
            tracer.spans[tracer.stack[-1]].hot[label] += _clock() - started
            count(result)
            return result

        return wrapper

    def _count_insert(self, new: bool) -> None:
        self.counts["insert_calls"] += 1
        self.counts["insert_new"] += bool(new)

    def _count_match(self, triples) -> None:
        self.counts["match_calls"] += 1
        self.counts["triples_matched"] += len(triples)

    def _count_count(self, number: int) -> None:
        self.counts["match_calls"] += 1
        self.counts["triples_matched"] += number

    # --- derived figures -------------------------------------------------------

    def self_seconds(self, spans: list[Span] | None = None, scale=None) -> dict[str, float]:
        """Self time per layer key, summed over the given spans (default: all).

        Keys are span names, hot-call names (``triple_store.insert``,
        ``triple_store.match``) and per-source/per-table variants of fetch and
        materialization spans. ``scale(span)``, when given, multiplies each
        span's figures (the host-speed factor of its op).
        """
        spans = self.spans if spans is None else spans
        children: dict[int, float] = defaultdict(float)
        for span in spans:
            if span.parent is not None:
                children[span.parent] += span.seconds
        index_of = {id(span): i for i, span in enumerate(self.spans)}
        totals: dict[str, float] = defaultdict(float)
        for span in spans:
            factor = scale(span) if scale else 1.0
            hot = sum(span.hot.values())
            own = (span.seconds - children[index_of[id(span)]] - hot) * factor
            totals[span.name] += own
            if "table" in span.attrs:
                suffix = ".".join(str(span.attrs[k]) for k in ("source", "table") if k in span.attrs)
                totals[f"{span.name}.{suffix}"] += own
            for label, seconds in span.hot.items():
                totals[f"triple_store.{label}"] += seconds * factor
        return totals

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": span.name, "op": span.op, "parent": span.parent,
                    "start": span.start, "end": span.end, "attrs": span.attrs,
                    "hot_s": dict(span.hot),
                }) + "\n")


class _SpanContext:
    __slots__ = ("tracer", "name", "attrs", "index")

    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self):
        self.index = self.tracer.open(self.name, self.attrs)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.index)
        return False
