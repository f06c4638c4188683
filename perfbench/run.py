"""Staged benchmark of the medquery mediator: extraction+query latency per workload.

    python3 perfbench/run.py --workload fig2_join --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the mediator is imported from its
``src`` directory. Inputs are generated from ``--seed`` into a scratch
directory under ``.perfbench_work/`` and removed afterwards. One process,
one thread, one client: a closed loop that starts the next op when the
previous one returns. Every answer is checked against the benchmark's own
oracle outside the timed interval.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run and writes its spans to
``.perfbench_out/``. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The
exit status is 0 only when every op was answered correctly and, in the
traced run, the counters repeated exactly. See README.md in this directory.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_sources() -> None:
    """Make ``import medquery`` load this checkout's ``src`` and nothing else."""
    if not (SRC / "medquery" / "__init__.py").is_file():
        sys.exit(f"perfbench: no medquery sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import medquery
    if Path(medquery.__file__).resolve().parent != SRC / "medquery":
        sys.exit(f"perfbench: imported medquery from {medquery.__file__}, not {SRC}")


if __name__ == "__main__":
    use_checkout_sources()
    import bench
    sys.exit(bench.main(sys.argv[1:]))
