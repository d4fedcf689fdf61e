"""Outside-in tracing: spans around the calls the benchmark hands the package.

Nothing inside ``src/sasc`` is instrumented. The traced run instead wraps the
objects it passes to the solvers (the constraint sampler, the prox handle,
``grad_f``/``f_value`` and the held-out dataset's ``margins``) so that every
call across a module boundary opens a span. Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from time import perf_counter

from sasc import ProxHandle

from stats import Span


class NullTracer:
    """Stand-in used by the untraced, timed runs: calls straight through."""

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, n):
        pass

    def problem(self, problem, eval_span):
        return problem

    def holdout(self, dataset):
        return dataset


class Tracer:
    """Records a span per call and counters at the same boundaries."""

    def __init__(self):
        self.spans = []          # (run_id, span_id, parent_id, name, start, end)
        self.counts = Counter()
        self._stack = []         # (span_id, run_id) of the open spans
        self._next_id = 0

    def call(self, name, fn, *args):
        span_id = self._next_id
        self._next_id += 1
        parent, run_id = self._stack[-1] if self._stack else (None, span_id)
        self._stack.append((span_id, run_id))
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((run_id, span_id, parent, name, start, end))

    def wrap(self, name, fn):
        return lambda *args: self.call(name, fn, *args)

    def count(self, name, n):
        self.counts[name] += n

    def problem(self, problem, eval_span):
        return traced_problem(problem, self, eval_span)

    def holdout(self, dataset):
        return TracedHoldout(dataset, self)

    def span_records(self, start: int = 0) -> list[Span]:
        return [Span._make(s) for s in self.spans[start:]]

    def write_csv(self, path) -> None:
        """One line per span; times in ns from the first span's start."""
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("run_id,span_id,parent_id,name,start_ns,end_ns\n")
            fh.writelines(
                f"{run_id},{span_id},{'' if parent is None else parent},{name},"
                f"{round((start - t0) * 1e9)},{round((end - t0) * 1e9)}\n"
                for run_id, span_id, parent, name, start, end in self.spans)


class TracedSampler:
    """Forwards to a constraint sampler, timing draws and held-out distances."""

    def __init__(self, inner, tracer: Tracer, eval_span: str):
        self._inner = inner
        self._tracer = tracer
        self._eval_span = eval_span

    def draw(self, rng):
        self._tracer.count("smoothing.draw.samples", 1)
        return self._tracer.call("smoothing.draw", self._inner.draw, rng)

    def draw_batch(self, rng, k):
        self._tracer.count("smoothing.draw.samples", k)
        return self._tracer.call("smoothing.draw", self._inner.draw_batch, rng, k)

    def support(self):
        return self._inner.support()

    def distances(self, x, indices=None):
        return self._tracer.call(self._eval_span, self._inner.distances, x, indices)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def traced_problem(problem, tracer: Tracer, eval_span: str):
    """Copy of ``problem`` whose callables and sampler open spans.

    ``eval_span`` names the checkpoint evaluation calls (held-out distances,
    ``f_value`` and the prox handle's ``objective_value``) after the solver
    that makes them.
    """
    prox = problem.prox_h
    return dataclasses.replace(
        problem,
        grad_f=tracer.wrap("problems.grad_f", problem.grad_f),
        f_value=tracer.wrap(eval_span, problem.f_value),
        prox_h=ProxHandle(
            evaluate=tracer.wrap("prox.evaluate", prox.evaluate),
            objective_value=tracer.wrap(eval_span, prox.objective_value),
            is_projection=prox.is_projection),
        constraints=TracedSampler(problem.constraints, tracer, eval_span),
    )


class TracedHoldout:
    """Held-out dataset whose ``margins`` calls are the comparator's evaluation."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def margins(self, x):
        return self._tracer.call("baselines.eval", self._timed_margins, x)

    def _timed_margins(self, x):
        return self._tracer.call("problems.margins", self._inner.margins, x)

    def __getattr__(self, name):
        return getattr(self._inner, name)
