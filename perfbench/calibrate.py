"""Reference kernel that measures the host's current speed.

On a host shared with other tenants the speed of a CPU drifts by 20-60%
over minutes (static-500 took 8 s in one quarter of an hour and 13 s in
the next, on the same code and inputs). That drift, not the program,
dominated the spread of raw wall times between runs. So ``run.py`` times
this fixed kernel between every set-up batch and repetition, and scales
each interval by the mean of the two kernel times around it:
``wall * REFERENCE_S / mean(kernel before, kernel after)``, which is the
interval in seconds at the host speed where the kernel takes
``REFERENCE_S``. A slower program still reads slower; a slower host
mostly does not. Raw wall times are kept beside the scaled ones.

The kernel never calls the package, so no change to the program moves
it. It does the kind of work the workloads spend their time on: exact
(Fraction) shortest-path accumulation over a graph held as dicts of
tuples, and CSV parsing of dates and floats, with a working set of a few
megabytes; a small loop that stays in cache did not slow down with the
workloads.
"""

from __future__ import annotations

import csv
import io
import random
import time
from collections import deque
from datetime import date
from fractions import Fraction

REFERENCE_S = 0.8  # the kernel's time on the 2-CPU host the baseline was taken on

_N = 300
_ROWS = 120_000


def _graph() -> dict[int, tuple[int, ...]]:
    rng = random.Random(7)
    adj: dict[int, set[int]] = {v: set() for v in range(_N)}
    for v in range(1, _N):
        u = rng.randrange(v)
        adj[u].add(v)
        adj[v].add(u)
    while sum(len(a) for a in adj.values()) < 4 * _N:
        u, v = rng.randrange(_N), rng.randrange(_N)
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return {v: tuple(sorted(a)) for v, a in adj.items()}


def _text() -> str:
    return "\n".join(
        f"m,{i % 40},{2000 + i % 20}-{1 + i % 12:02d}-{1 + i % 28:02d},{i * 37 % 4000 / 100:.2f}"
        for i in range(_ROWS)
    )


class Kernel:
    def __init__(self):
        self.adj = _graph()
        self.text = _text()

    def seconds(self) -> float:
        """Wall time of one pass of the kernel."""
        adj = self.adj
        started = time.perf_counter()
        bc = {v: Fraction(0) for v in adj}
        for s in range(0, _N, 3):
            dist = {s: 0}
            sigma = {s: 1}
            preds: dict[int, list[int]] = {s: []}
            order = []
            queue = deque([s])
            while queue:
                v = queue.popleft()
                order.append(v)
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        sigma[w] = 0
                        preds[w] = []
                        queue.append(w)
                    if dist[w] == dist[v] + 1:
                        sigma[w] += sigma[v]
                        preds[w].append(v)
            delta = {v: Fraction(0) for v in order}
            for w in reversed(order):
                coeff = (1 + delta[w]) / sigma[w]
                for v in preds[w]:
                    delta[v] += sigma[v] * coeff
                if w != s:
                    bc[w] += delta[w]
        series: dict[tuple[str, int], list[tuple[date, float]]] = {}
        for row in csv.reader(io.StringIO(self.text)):
            series.setdefault((row[0], int(row[1])), []).append(
                (date.fromisoformat(row[2]), float(row[3]))
            )
        return time.perf_counter() - started


def scaled(wall_s: float, before_s: float, after_s: float) -> float:
    return wall_s * REFERENCE_S * 2 / (before_s + after_s)
