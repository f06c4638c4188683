"""Scaling sweep: per-layer growth exponents of the traced pipeline (not gated).

    python3 perfbench/sweep.py --seed 1

For each workload and each scale in ``SCALES``, the generated tables get ``scale`` times
the benchmark's rows, and one pass of the seed's op stream (one full cycle
of the op mix) runs traced. Each layer's self time per op is then fitted as
``time ~ rows ** k`` by least squares over log-log points; ``k`` near 1 is a
linear stage, near 2 a quadratic one. The table goes to standard output and
the figures, as JSON, to ``.perfbench_out/sweep-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import shutil
import sys
from pathlib import Path

import run

SCALES = (1, 2, 4)


def fit_exponent(rows: list[int], seconds: list[float]) -> float | None:
    points = [(math.log(r), math.log(s)) for r, s in zip(rows, seconds) if s > 0]
    if len(points) < 2:
        return None
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    sxx = sum((x - mean_x) ** 2 for x, _ in points)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    return sxy / sxx


def layer_times(tracer, n_ops: int) -> dict[str, float]:
    """Self seconds per op for each layer, plus inclusive seconds per op kind."""
    totals = {k: v / n_ops for k, v in tracer.self_seconds().items()
              if k.count(".") == 1 and not k.startswith("op.")}
    for kind in ("query", "extract"):
        spans = [s.seconds for s in tracer.spans if s.name == f"op.{kind}"]
        if spans:
            totals[f"op.{kind}"] = sum(spans) / len(spans)
    return totals


def sweep(workload_cls, seed: int, work_root: Path):
    import bench
    import pipeline

    rows, per_scale = [], []
    for scale in SCALES:
        workload = workload_cls(seed, scale)
        work_dir = work_root / f"sweep-{workload.name}-x{scale}"
        work_dir.mkdir(parents=True)
        try:
            project = pipeline.setup(*workload.write(work_dir), pipeline.NoTrace())
            ops = itertools.islice(workload.ops(seed), len(workload.op_makers()))
            tracer, failed = bench.traced_pass(project, ops, bench.Checker(workload))
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        if failed:
            raise RuntimeError(f"{workload.name} x{scale}: {failed} wrong answers")
        rows.append(workload.rows)
        per_scale.append(layer_times(tracer, len(workload.op_makers())))
    layers = sorted(set().union(*per_scale))
    return {
        layer: {
            "ms": [t.get(layer, 0.0) * 1000 for t in per_scale],
            "exponent": fit_exponent(rows, [t.get(layer, 0.0) for t in per_scale]),
        }
        for layer in layers
    }, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    run.use_checkout_sources()
    from workloads import WORKLOADS

    work_root = run.ROOT / ".perfbench_work"
    report = {}
    try:
        for name, workload_cls in WORKLOADS.items():
            layers, rows = sweep(workload_cls, args.seed, work_root)
            report[name] = {"rows": rows, "layers": layers}
            print(f"{name}: rows {rows}")
            for layer, fig in layers.items():
                ms = " ".join(f"{v:10.3f}" for v in fig["ms"])
                k = "   n/a" if fig["exponent"] is None else f"{fig['exponent']:6.2f}"
                print(f"  {layer:40s} {ms} ms/op   exponent {k}")
    finally:
        try:
            work_root.rmdir()
        except OSError:  # another run still uses it
            pass
    out_dir = run.ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"sweep-seed{args.seed}.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
