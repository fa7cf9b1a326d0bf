"""Spans around calls into the package's layers, recorded from outside.

The tracer replaces a module attribute with a timing wrapper, so calls
between layers are seen wherever the caller looks the name up in that
module's namespace (for example ``maxwell.scan_kernel`` or
``decay.monte_carlo_6d``). Every span carries the benchmark operation
and round that caused it; spans stay in memory until the run writes
them out. ``restore`` puts the original attributes back.

Durations are steal-adjusted (see ``steal_adjusted``), so that a layer's
time does not carry the time the host gave this machine's CPUs away.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import threading
import time
import tracemalloc
from typing import NamedTuple


def cpu_counters() -> list[tuple[float, float]]:
    """(busy, steal) seconds of each CPU from /proc/stat; [] where absent."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            lines = [ln.split() for ln in fh if ln[:3] == "cpu" and ln[3].isdigit()]
    except OSError:
        return []
    hz = os.sysconf("SC_CLK_TCK")
    # user nice system idle iowait irq softirq steal
    return [((int(f[1]) + int(f[2]) + int(f[3]) + int(f[6]) + int(f[7])) / hz, int(f[8]) / hz)
            for f in lines]


# /proc/stat counts in clock ticks (10 ms), too coarse for shorter calls
MIN_ADJUSTED_S = 0.1


def steal_adjusted(wall: float, before, after) -> tuple[float, float]:
    """(wall time less the time the hypervisor gave the CPUs away, steal).

    On a shared host the steal time of a round varied from 0 to half its
    wall time. Steal accrues on every CPU that wanted to run, so it is
    divided by the average number of CPUs that were busy or stolen during
    the interval: a single-threaded call loses all of its steal, one that
    keeps two CPUs busy loses half, and a gain from threads stays.
    Intervals under MIN_ADJUSTED_S keep their wall time.
    """
    busy = sum(a[0] - b[0] for a, b in zip(after, before))
    steal = sum(a[1] - b[1] for a, b in zip(after, before))
    if wall < MIN_ADJUSTED_S:
        return wall, steal
    cpus = max((busy + steal) / wall, 1.0)
    return wall - steal / cpus, steal


class Span(NamedTuple):
    name: str
    op: str | None
    round: int | None
    start: float
    end: float
    thread: int
    value: float | None
    seconds: float


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: str | None = None
        self.round: int | None = None
        self._patched: list[tuple] = []

    def record(self, name, start, end, value=None, seconds=None):
        # list.append is atomic, so worker threads of the package may record
        self.spans.append(Span(name, self.op, self.round, start, end,
                               threading.get_ident(), value,
                               end - start if seconds is None else seconds))

    def wrap(self, module, attr: str, name: str, value=None, memory=False):
        """Time every call of ``module.attr``.

        ``value(result)`` extracts a number to keep with the span, such as
        an evaluation count. With ``memory``, tracemalloc runs during the
        call and the span keeps its peak in MiB.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if memory:
                tracemalloc.start()
            counters, start = cpu_counters(), time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                seconds = steal_adjusted(end - start, counters, cpu_counters())[0]
                peak = None
                if memory:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            kept = peak if memory else (value(result) if value else None)
            self.record(name, start, end, kept, seconds)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- queries -----------------------------------------------------------

    def select(self, name, ops=None, rounds=None) -> list[Span]:
        return [s for s in self.spans
                if s.name == name
                and (ops is None or s.op in ops)
                and (rounds is None or s.round in rounds)]

    def median_call(self, name, ops=None, rounds=None) -> float:
        """Median duration of one call; 0.0 when the layer was not called."""
        found = self.select(name, ops, rounds)
        return statistics.median(s.seconds for s in found) if found else 0.0

    def per_round(self, name, rounds, ops=None, field="seconds") -> float:
        """Median over rounds of the per-round total of a span field."""
        totals = []
        for r in rounds:
            found = self.select(name, ops, (r,))
            totals.append(sum((s.seconds if field == "seconds" else s.value)
                              for s in found))
        return statistics.median(totals) if totals else 0.0

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")
