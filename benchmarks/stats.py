"""Metric arithmetic shared by the benchmark runner and its tests.

Pure standard library, so the tests of this file need neither numpy nor the
package.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import NamedTuple, Optional, Sequence


class Span(NamedTuple):
    """One timed call: ``run_id`` is the id of the outermost span it ran under."""

    run_id: int
    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def per_sample_intervals(samples: Sequence[int], wall_times: Sequence[float]
                         ) -> list[float]:
    """Microseconds per sample between consecutive trace records."""
    out = []
    for i in range(1, len(samples)):
        ds = samples[i] - samples[i - 1]
        if ds <= 0:
            raise ValueError(f"trace samples do not increase at record {i}")
        out.append(1e6 * (wall_times[i] - wall_times[i - 1]) / ds)
    return out


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (1 <= q <= 99), interpolated linearly between ranks."""
    if len(values) < 2:
        raise ValueError("a percentile needs at least two values")
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail_percentile(values: Sequence[float], q: int, min_beyond: int = 10
                    ) -> float:
    """The q-th percentile, refused unless ``min_beyond`` values lie above it."""
    p = percentile(values, q)
    beyond = sum(1 for v in values if v > p)
    if beyond < min_beyond:
        raise ValueError(f"only {beyond} of {len(values)} values above the "
                         f"p{q}; need {min_beyond}")
    return p


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent_id is not None:
            children[sp.parent_id].append((sp.start, sp.end))
    out = {}
    for sp in spans:
        covered = 0.0
        run_start = run_end = None
        for s, e in sorted(children[sp.span_id]):
            s, e = max(s, sp.start), min(e, sp.end)
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out[sp.span_id] = sp.duration - covered
    return out

