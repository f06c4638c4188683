"""Host-speed reference: a fixed piece of Python work timed next to every op.

On a shared host the same op can take up to twice as long for seconds or
minutes at a time, while other tenants load the machine. Wall time alone then
varies more between runs than the regressions the benchmark must catch.

The reference kernel does what the mediator's inner loops do -- builds small
frozen objects, hashes them into dicts, formats strings and sorts on string
keys -- but touches nothing of ``medquery``, so it slows down with the host
and never with the program. It runs after every op with the cyclic garbage
collector paused, so the size of the program's heap does not change its time.
Each op's wall time is multiplied by ``NOMINAL_KERNEL_S`` over the mean of
the kernel times just before and just after it: the op's time on a host that
runs the kernel in exactly ``NOMINAL_KERNEL_S``. Raw wall times are printed
beside the normalized metrics.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

NOMINAL_KERNEL_S = 0.0012
KERNEL_ITEMS = 600


@dataclass(frozen=True)
class _Cell:
    lexical: str
    kind: int


def kernel() -> int:
    index: dict[_Cell, list[int]] = {}
    rows = []
    for i in range(KERNEL_ITEMS):
        cell = _Cell(str(i % 97), i & 3)
        index.setdefault(cell, []).append(i)
        rows.append({"cell": cell, "key": f"r{i}"})
    rows.sort(key=lambda row: (row["cell"].lexical, row["key"]))
    return len(index)


def kernel_seconds() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        kernel()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Converts wall seconds to seconds at the nominal host speed."""

    def __init__(self) -> None:
        self.before = kernel_seconds()
        self.kernel_times: list[float] = []

    def factor(self) -> float:
        """Scale for the interval since the previous call; times the kernel again."""
        after = kernel_seconds()
        self.kernel_times.append(after)
        factor = NOMINAL_KERNEL_S * 2 / (self.before + after)
        self.before = after
        return factor
