"""Loops, oracle checks and metrics of the benchmark; ``run.py`` is its entry point.

Imported only after ``run.use_checkout_sources`` has put this checkout's
``src`` first on the import path.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import logging
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter

import medquery as mq

import pipeline
import tracing
from hostspeed import NOMINAL_KERNEL_S, HostSpeed
from run import ROOT
from workloads import WORKLOADS

SETUP_REPEATS = 101
COUNTER_PASS_OPS = 12
MIN_QUERIES = 100        # p90 needs at least ten samples beyond it
MIN_EXTRACTS = 20
LOOP_CAP_S = 60.0        # a loop that cannot reach its sample minimum by then fails
FETCHED_TABLES = ("uni.STUDENT", "reg.GRADE", "uni.DEBTOR", "cat.COURSE")
INTEGRATED_TABLES = ("STUDENT", "GRADE", "DEBTOR", "COURSE")

clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="run.py", description="Staged benchmark of the medquery mediator.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Checker:
    """The benchmark's oracle check of one op's answer."""

    def __init__(self, workload):
        self.workload = workload
        self.expected_lines: dict[str, list[str]] = {}
        self.verified: dict[str, int] = {}  # digest of a checked export -> triple count

    def __call__(self, op, answer, data, store) -> bool:
        if op.kind == "query":
            rows = sorted(tuple(getattr(term, "lexical", None) for term in row)
                          for row in answer.rows)
            return rows == list(op.expected)
        digest = hashlib.sha1(answer.encode("utf-8")).hexdigest()
        if digest not in self.verified:
            if op.table not in self.expected_lines:
                self.expected_lines[op.table] = self.workload.expected_ntriples(op.table)
            if sorted(answer.splitlines()) != self.expected_lines[op.table]:
                return False
            if mq.import_ntriples(answer) != store:
                return False
            self.verified[digest] = len(store)
        return self.verified[digest] == len(store)


class Loop:
    """Closed loop, one client: latency samples per op kind and failures.

    ``samples`` are in seconds at the nominal host speed (see hostspeed.py);
    ``raw`` holds the wall-clock samples. Both hold correctly answered ops only.
    """

    def __init__(self):
        self.samples = {"query": [], "extract": []}
        self.raw = {"query": [], "extract": []}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.speed = HostSpeed()
        self.factors: dict[int, float] = {}  # op id -> host-speed factor

    def run(self, project, ops, tracer, check, seconds, min_queries,
            min_extracts, after=None):
        """Run ops until ``seconds`` have passed and the sample minimums are met,
        or until ``ops`` is exhausted."""
        started = clock()
        for op in ops:
            now = clock()
            if (now - started >= seconds and len(self.samples["query"]) >= min_queries
                    and len(self.samples["extract"]) >= min_extracts):
                return
            if now - started >= max(LOOP_CAP_S, 3 * seconds):
                raise RuntimeError(
                    f"too few samples after {now - started:.0f} s: "
                    f"{len(self.samples['query'])} queries, {len(self.samples['extract'])} extracts")
            self.attempted += 1
            tracer.begin_op(self.attempted)
            begun = clock()
            try:
                with tracer.span("op." + op.kind):
                    answer, data, store = pipeline.run_op(project, op, tracer)
            except Exception:  # a failing op is counted and reported, the loop goes on
                self.failed += 1
                self.errors.append(traceback.format_exc())
                continue
            elapsed = clock() - begun
            self.factors[self.attempted] = self.speed.factor()
            normalized = elapsed * self.factors[self.attempted]
            if check(op, answer, data, store):
                self.samples[op.kind].append(normalized)
                self.raw[op.kind].append(elapsed)
            else:
                self.failed += 1
                self.errors.append(f"wrong answer to {op}")
            if after is not None:
                after(op, answer, data, store)


def warm_up(workload, project, ops, check) -> Loop:
    """One untimed cycle of the op stream, checked like the timed ops."""
    warm = Loop()
    warm.run(project, itertools.islice(ops, len(workload.op_makers())),
             pipeline.NoTrace(), check, float("inf"), 0, 0)
    return warm


def quantile_ms(samples, which):
    if which == 50:
        return statistics.median(samples) * 1000
    return statistics.quantiles(samples, n=10)[8] * 1000


def measure_setup(paths, tracer):
    """Median set-up time over SETUP_REPEATS, in seconds at the nominal host speed."""
    durations, project, speed = [], None, HostSpeed()
    for _ in range(SETUP_REPEATS):
        begun = clock()
        project = pipeline.setup(*paths, tracer)
        elapsed = clock() - begun
        durations.append(elapsed * speed.factor())
    return project, statistics.median(durations)


def end_to_end(workload, paths, seed, seconds):
    project, setup_s = measure_setup(paths, pipeline.NoTrace())
    tracer = pipeline.NoTrace()
    check = Checker(workload)
    ops = workload.ops(seed)
    warm = warm_up(workload, project, ops, check)
    loop = Loop()
    loop.run(project, ops, tracer, check, seconds, MIN_QUERIES, MIN_EXTRACTS)
    queries, extracts = loop.samples["query"], loop.samples["extract"]
    # correct ops per second spent inside them (1 / mean op latency): the loop's
    # wall time would also count the checks and the host-speed kernel
    completed = len(queries) + len(extracts)
    metrics = {
        "query_ms_p50": (quantile_ms(queries, 50), "ms"),
        "query_ms_p90": (quantile_ms(queries, 90), "ms"),
        "extract_ms_p50": (quantile_ms(extracts, 50), "ms"),
        "ops_per_s": (completed / (sum(queries) + sum(extracts)), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"# {workload.name} seed={seed}: {len(queries)} query samples, "
          f"{len(extracts)} extract samples, failed_frac={loop.failed / loop.attempted:.4f}")
    print(f"# wall clock: query p50 {quantile_ms(loop.raw['query'], 50):.3f} ms, "
          f"p90 {quantile_ms(loop.raw['query'], 90):.3f} ms, "
          f"extract p50 {quantile_ms(loop.raw['extract'], 50):.3f} ms; reference kernel "
          f"median {statistics.median(loop.speed.kernel_times) * 1000:.3f} ms "
          f"(nominal {NOMINAL_KERNEL_S * 1000:.3f} ms)")
    return [warm, loop], metrics


def output_counts(counts: Counter, op, answer, data, store) -> None:
    """Counters read off an op's outputs (outside the timed interval)."""
    for table in data.tables.values():
        counts["rows_materialized"] += len(table.rows)
        counts["missing_cells"] += sum(cell is None for row in table.rows for cell in row)
    counts["triples"] += len(store)
    if op.kind == "query":
        counts["result_rows"] += len(answer.rows)
        counts["cross_type_warnings"] += answer.cross_type_warnings
    else:
        counts["ntriples_bytes"] += len(answer.encode("utf-8"))
        counts["triples_exported"] += len(store)


def traced_pass(project, ops, check):
    """Run ``ops`` traced, one after another; returns the tracer and the wrong answers."""
    tracer = tracing.Tracer()
    failed = 0
    with tracer:
        for op_id, op in enumerate(ops):
            tracer.begin_op(op_id)
            with tracer.span("op." + op.kind):
                answer, data, store = pipeline.run_op(project, op, tracer)
            failed += not check(op, answer, data, store)
            output_counts(tracer.counts, op, answer, data, store)
    return tracer, failed


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(workload, paths, seed, seconds, out_dir):
    check = Checker(workload)

    # untraced reference for the tracing overhead, after the same warm-up cycle
    project = pipeline.setup(*paths, pipeline.NoTrace())
    warm = warm_up(workload, project, workload.ops(seed), check)
    untraced = Loop()
    untraced.run(project, workload.ops(seed), pipeline.NoTrace(), check,
                 seconds / 2, 20, 0)

    # the counter pass: the first ops of the seed's stream, twice; counters must repeat
    passes = [traced_pass(project, itertools.islice(workload.ops(seed), COUNTER_PASS_OPS), check)
              for _ in range(2)]
    counts, again = (tracer.counts for tracer, _ in passes)
    counters_repeat = counts == again
    tally = Loop()  # the counter passes' ops, wrong answers and a counter mismatch
    tally.attempted = 2 * COUNTER_PASS_OPS
    tally.failed = sum(failed for _, failed in passes) + (0 if counters_repeat else 1)

    tracer = tracing.Tracer()
    with tracer:
        setup_ms: dict[str, list[float]] = {}
        speed = HostSpeed()
        for _ in range(SETUP_REPEATS):
            first = len(tracer.spans)
            project = pipeline.setup(*paths, tracer)
            factor = speed.factor()
            for span in tracer.spans[first:]:
                setup_ms.setdefault(span.name, []).append(span.seconds * factor * 1000)
        first = len(tracer.spans)
        traced = Loop()
        traced.run(project, workload.ops(seed), tracer, check,
                   seconds / 2, 20, 0,
                   after=lambda *outputs: output_counts(tracer.counts, *outputs))
    loop_spans = tracer.spans[first:]
    self_s = tracer.self_seconds(loop_spans, scale=lambda span: traced.factors.get(span.op, 1.0))
    n_ops = traced.attempted
    loop_counts = tracer.counts

    def per_op_ms(key):
        return self_s.get(key, 0.0) * 1000 / n_ops

    query_s = sum(s.seconds for s in loop_spans if s.name == "op.query")
    query_ops = {s.op for s in loop_spans if s.name == "op.query"}

    def share_of_query_time(name):
        inside = sum(s.seconds for s in loop_spans if s.name == name and s.op in query_ops)
        return _ratio(inside, query_s)

    materialize_s = (self_s.get("extraction.materialize_required", 0.0)
                     + self_s.get("extraction.materialize_integrated_table", 0.0))
    metrics = {
        "descriptors.parse_project_ms": (
            statistics.median(setup_ms["descriptors.parse_project"]), "ms"),
        "schema_check.check_schema_ms": (
            statistics.median(setup_ms["schema_check.check_schema"]), "ms"),
        "sql_frontend.parse_sql_ms": (per_op_ms("sql_frontend.parse_sql"), "ms"),
        "sql_to_rdql.convert_ms": (per_op_ms("sql_to_rdql.convert"), "ms"),
        "rdql_engine.parse_rdql_ms": (per_op_ms("rdql_engine.parse_rdql"), "ms"),
        "rdql_engine.evaluate_ms": (per_op_ms("rdql_engine.evaluate"), "ms"),
        "rdql_engine.evaluate_share": (share_of_query_time("rdql_engine.evaluate"), "ratio"),
        "rdql_engine.result_rows": (counts["result_rows"], "count"),
        "rdql_engine.cross_type_warnings": (counts["cross_type_warnings"], "count"),
        "rdql_engine.triples_examined_per_row": (
            _ratio(counts["triples_matched"], counts["result_rows"]), "triples/row"),
        "triple_store.match_ms": (per_op_ms("triple_store.match"), "ms"),
        "triple_store.match_calls": (counts["match_calls"], "count"),
        "triple_store.triples_matched": (counts["triples_matched"], "count"),
        "triple_store.insert_ms": (per_op_ms("triple_store.insert"), "ms"),
        "triple_store.triples": (counts["triples"], "count"),
        "triple_store.insert_new_frac": (
            _ratio(counts["insert_new"], counts["insert_calls"]), "ratio"),
        "triple_store.export_ntriples_ms": (per_op_ms("triple_store.export_ntriples"), "ms"),
        "triple_store.ntriples_bytes_per_triple": (
            _ratio(counts["ntriples_bytes"], counts["triples_exported"]), "B/triple"),
        "wrappers.fetch_ms": (per_op_ms("wrappers.fetch_table"), "ms"),
        **{f"wrappers.fetch_ms.{t}": (per_op_ms(f"wrappers.fetch_table.{t}"), "ms")
           for t in FETCHED_TABLES},
        "wrappers.fetch_calls": (counts["fetch_calls"], "count"),
        "wrappers.rows_fetched": (counts["rows_fetched"], "count"),
        "wrappers.fetch_dup_frac": (_ratio(counts["fetch_dups"], counts["fetch_calls"]), "ratio"),
        "extraction.materialize_ms": (materialize_s * 1000 / n_ops, "ms"),
        **{f"extraction.materialize_ms.{t}": (
            per_op_ms(f"extraction.materialize_integrated_table.{t}"), "ms")
           for t in INTEGRATED_TABLES},
        "extraction.materialize_share": (
            share_of_query_time("extraction.materialize_required"), "ratio"),
        "extraction.materialize_us_per_row": (
            _ratio(materialize_s * 1e6, loop_counts["rows_materialized"]), "us/row"),
        "extraction.rows_materialized": (counts["rows_materialized"], "count"),
        "extraction.missing_cells": (counts["missing_cells"], "count"),
        "extraction.multi_match_warnings": (counts["multi_match_warnings"], "count"),
        "extraction.build_triples_ms": (per_op_ms("extraction.build_triples"), "ms"),
        "bench.trace_overhead_ms": (
            quantile_ms(traced.samples["query"], 50) - quantile_ms(untraced.samples["query"], 50),
            "ms"),
    }

    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"{workload.name}-seed{seed}-spans.jsonl")
    print(f"# {workload.name} seed={seed}: traced {n_ops} ops, counter pass of "
          f"{COUNTER_PASS_OPS} ops repeated exactly: {counters_repeat}")
    print(f"# query time share: evaluate {metrics['rdql_engine.evaluate_share'][0]:.3f}, "
          f"materialize {metrics['extraction.materialize_share'][0]:.3f}")
    if not counters_repeat:
        diff = {k: (counts[k], again[k]) for k in set(counts) | set(again) if counts[k] != again[k]}
        tally.errors.append(f"counters differ between passes: {diff}")
    return [warm, untraced, tally, traced], metrics


def main(argv) -> int:
    args = parse_args(argv)
    # the benchmark drives the library in-process; warnings are counted, not printed
    logging.getLogger("medquery").addHandler(logging.NullHandler())
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    work_dir = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        paths = workload.write(work_dir)
        if args.trace:
            loops, metrics = per_layer(workload, paths, args.seed, args.seconds,
                                       ROOT / ".perfbench_out")
        else:
            loops, metrics = end_to_end(workload, paths, args.seed, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    for error in itertools.islice((e for loop in loops for e in loop.errors), 3):
        print(error, file=sys.stderr)
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1

