"""Benchmark of the sasc package on three workloads from the paper.

Run from the repository root:

    python3 benchmarks/run.py --workload bp --seed 1 --seconds 30 --trace 0

``--workload`` is ``bp``, ``portfolio``, ``svm`` or ``all`` (each workload in a
process of its own). A run generates its inputs from ``--seed`` into a scratch
directory, then repeats rounds, cycling over a fixed set of instances, until
``--seconds`` have passed and at least three rounds are done. A round sets the
instance up and runs ``run_sasc`` and the workload's comparator on it. Every
output is checked before its round counts. The last line of standard
output is one JSON object with ``correct``, ``attempted`` (rounds), ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. A traced round times each call into the package
from outside, next to one untraced solve; the spans of the first traced round
are written to ``.benchrun/spans-<workload>.csv``.
"""

import argparse
import contextlib
import dataclasses
import filecmp
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from stats import per_sample_intervals, self_times, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("bp", "portfolio", "svm")
MIN_ROUNDS = 3
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD_TIMEOUT_S = 600

# name -> unit; every end-to-end metric is better when lower.
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "baseline_s": "s",
    "us_per_sample_p50": "us",
    "us_per_sample_p90": "us",
    "baseline_us_per_sample_p90": "us",
    "peak_rss_mb": "MB",
    "final_feasibility": "1",
    "solution_error": "1",
    "fail_share": "1",
}
PER_LAYER = {
    "core.step.s": "s",
    "core.step.calls": "count",
    "core.eval.s": "s",
    "core.eval.calls": "count",
    "core.eval.share": "1",
    "smoothing.draw.s": "s",
    "smoothing.draw.calls": "count",
    "smoothing.draw.samples": "count",
    "prox.evaluate.s": "s",
    "prox.evaluate.calls": "count",
    "problems.grad_f.s": "s",
    "problems.gen.s": "s",
    "problems.make_problem.s": "s",
    "problems.reference_solution.s": "s",
    "problems.margins.s": "s",
    "problems.margins.calls": "count",
    "trace_io.parse.s": "s",
    "trace_io.parse.bytes": "B",
    "baselines.step.s": "s",
    "baselines.eval.s": "s",
    "baselines.eval.share": "1",
    "trace.overhead": "1",
}
# Printed, but not in BENCHMARK.json. Other tenants of the 2-vCPU machine this
# was sized on slow whole stretches of a run by up to 2x for minutes at a time,
# so medians of whole calls spread by 0.2-0.4 between runs, while the p90 of
# the checkpoint intervals, which every run's slow stretches reach, spreads by
# less than 0.09. fail_share is 0 on a passing run, and the accuracy metrics
# move with the instance by up to 6x.
UNBOUNDED = ("solve_s", "baseline_s", "us_per_sample_p50", "final_feasibility",
             "solution_error", "fail_share")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def x_sha(x) -> str:
    import numpy as np
    return hashlib.sha256(np.ascontiguousarray(x, dtype=float).tobytes()).hexdigest()


def timed(fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    return out, perf_counter() - t0


def machine_facts() -> dict:
    import numpy as np
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__}


class Runner:
    """Rounds of one workload: untimed inputs, then timed or traced rounds."""

    def __init__(self, workload, inputs, traced: bool):
        from tracing import NullTracer, Tracer
        self.w = workload
        self.inputs = inputs
        self.null = NullTracer()
        self.tracer = Tracer() if traced else None
        self.rounds = []
        self.first_outputs = None      # round 0's traces, for the CLI parity check
        self.shas = {}                 # instance -> (sasc, comparator) x_bar sha256

    def run(self, seconds: float) -> None:
        deadline = perf_counter() + seconds
        while len(self.rounds) < MIN_ROUNDS or perf_counter() < deadline:
            i = len(self.rounds)
            inp = self.inputs[i % len(self.inputs)]
            try:
                if self.tracer is None:
                    rnd = self._timed_round(i, inp)
                else:
                    rnd = self._traced_round(i, inp)
            except Exception:
                rnd = {"errors": ["raised:\n" + traceback.format_exc()]}
            self.rounds.append(rnd)

    def _timed_round(self, i, inp):
        inst, setup_s = timed(self.w.setup, inp, self.null)
        (x, trace), solve_s = timed(self.w.solve, inst, self.null)
        (xb, tb), baseline_s = timed(self.w.baseline, inst, self.null)
        rnd = self._checked(i, inst, x, trace, xb, tb)
        rnd.update(setup_s=setup_s, solve_s=solve_s, baseline_s=baseline_s)
        return rnd

    def _traced_round(self, i, inp):
        tr = self.tracer
        first_span, counts_before = len(tr.spans), Counter(tr.counts)
        inst = tr.call("setup", self.w.setup, inp, tr)
        # alternate the order so that drift does not favour either variant
        if i % 2 == 0:
            (x, trace), plain_s = timed(self.w.solve, inst, self.null)
            (xt, _), traced_s = timed(tr.call, "core.solve", self.w.solve, inst, tr)
        else:
            (xt, _), traced_s = timed(tr.call, "core.solve", self.w.solve, inst, tr)
            (x, trace), plain_s = timed(self.w.solve, inst, self.null)
        xb, tb = tr.call("baselines.solve", self.w.baseline, inst, tr)
        rnd = self._checked(i, inst, x, trace, xb, tb)
        if x_sha(xt) != x_sha(x):
            rnd["errors"].append("traced sasc x_bar differs from the untraced one")
        counts = Counter(tr.counts)
        counts.subtract(counts_before)
        steps = trace.records[-1].samples // self.w.MINIBATCH
        rnd.update(layers=layer_metrics(tr.span_records(first_span), counts, steps),
                   overhead=traced_s / plain_s - 1.0)
        if i > 0:
            del tr.spans[first_span:]    # only the first round's spans are written
        return rnd

    def _checked(self, i, inst, x, trace, xb, tb):
        errors, feas, err = self.w.check(inst, x, trace, xb, tb)
        shas = (x_sha(x), x_sha(xb))
        key = i % len(self.inputs)
        if self.shas.setdefault(key, shas) != shas:
            errors.append(f"rerun of instance {key} changed x_bar")
        if i == 0:
            self.first_outputs = {"sasc": trace, self.w.comparator: tb}
        return {
            "errors": errors, "final_feasibility": feas, "solution_error": err,
            "intervals": trace_intervals(trace),
            "baseline_intervals": trace_intervals(tb),
        }

    @property
    def passed(self):
        return [r for r in self.rounds if not r["errors"]]

    def end_to_end(self) -> dict:
        ok = self.passed
        pooled = lambda key: [v for r in ok for v in r[key]]
        med = lambda key: statistics.median(r[key] for r in ok)
        return {
            "setup_s": med("setup_s"),
            "solve_s": med("solve_s"),
            "baseline_s": med("baseline_s"),
            "us_per_sample_p50": statistics.median(pooled("intervals")),
            "us_per_sample_p90": tail_percentile(pooled("intervals"), 90),
            "baseline_us_per_sample_p90": tail_percentile(
                pooled("baseline_intervals"), 90),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "final_feasibility": med("final_feasibility"),
            "solution_error": med("solution_error"),
            "fail_share": (len(self.rounds) - len(ok)) / len(self.rounds),
        }

    def per_layer(self) -> dict:
        ok = self.passed
        out = {name: statistics.median(r["layers"][name] for r in ok)
               for name in ok[0]["layers"]}
        # paired within a round, so slow stretches of the machine cancel
        out["trace.overhead"] = statistics.median(r["overhead"] for r in ok)
        return out


def trace_intervals(trace):
    return per_sample_intervals([r.samples for r in trace.records],
                                [r.wall_time for r in trace.records])


def layer_metrics(spans, counts, steps) -> dict:
    """Per-layer totals of one traced round from its spans and counters."""
    selfs = self_times(spans)
    total, own, calls = defaultdict(float), defaultdict(float), Counter()
    for sp in spans:
        total[sp.name] += sp.duration
        own[sp.name] += selfs[sp.span_id]
        calls[sp.name] += 1
    return {
        "core.step.s": own["core.solve"],
        "core.step.calls": steps,
        "core.eval.s": total["core.eval"],
        "core.eval.calls": calls["core.eval"],
        "core.eval.share": total["core.eval"] / total["core.solve"],
        "smoothing.draw.s": total["smoothing.draw"],
        "smoothing.draw.calls": calls["smoothing.draw"],
        "smoothing.draw.samples": counts["smoothing.draw.samples"],
        "prox.evaluate.s": total["prox.evaluate"],
        "prox.evaluate.calls": calls["prox.evaluate"],
        "problems.grad_f.s": total["problems.grad_f"],
        "problems.gen.s": total["problems.gen"],
        "problems.make_problem.s": total["problems.make_problem"],
        "problems.reference_solution.s": total["problems.reference_solution"],
        "problems.margins.s": total["problems.margins"],
        "problems.margins.calls": calls["problems.margins"],
        "trace_io.parse.s": total["trace_io.parse"],
        "trace_io.parse.bytes": counts["trace_io.parse.bytes"],
        "baselines.step.s": own["baselines.solve"],
        "baselines.eval.s": total["baselines.eval"],
        "baselines.eval.share": total["baselines.eval"] / total["baselines.solve"],
    }


def cli_parity(workload, inp, outputs, workdir) -> dict:
    """Is the trace the benchmark got byte-identical to the CLI's?

    The benchmark's copy has its wall-time column zeroed, as ``--no-timing``
    does for the CLI's.
    """
    from sasc import ConvergenceTrace, write_trace_csv
    from sasc.cli import cli_main
    result = {}
    for solver, argv in workload.cli_args(inp).items():
        theirs = os.path.join(workdir, f"cli-{solver}.csv")
        ours = os.path.join(workdir, f"bench-{solver}.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv + ["--checkpoint-every", "256",
                                    "--validation-samples", "1000",
                                    "--no-timing", "--out", theirs])
        same = False
        if code == 0 and outputs is not None:
            zeroed = [dataclasses.replace(r, wall_time=0.0)
                      for r in outputs[solver].records]
            write_trace_csv(ConvergenceTrace(zeroed), ours)
            same = filecmp.cmp(theirs, ours, shallow=False)
        result[solver] = same
    return result


def run_one(args) -> int:
    if not (ROOT / "src" / "sasc" / "__init__.py").is_file():
        print(f"benchmark: no package source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    scratch = ROOT / ".benchrun"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{w.name}-", dir=scratch)
    try:
        seeds = [1000 * args.seed + r for r in range(w.instances)]
        inputs = w.make_inputs(workdir, seeds)
        runner = Runner(w, inputs, traced=bool(args.trace))
        runner.run(args.seconds)
        if not runner.passed:
            for rnd in runner.rounds:
                print("\n".join(rnd["errors"]), file=sys.stderr)
            print("benchmark: no round passed its checks", file=sys.stderr)
            return 1
        metrics = runner.end_to_end() if not args.trace else runner.per_layer()
        parity = cli_parity(w, inputs[0], runner.first_outputs, workdir)
        if runner.tracer is not None:
            runner.tracer.write_csv(scratch / f"spans-{w.name}.csv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for rnd in runner.rounds:
        for err in rnd["errors"]:
            print(f"check failed: {err}", file=sys.stderr)
    failed = len(runner.rounds) - len(runner.passed)
    units = PER_LAYER if args.trace else END_TO_END
    shas = runner.shas[0] if 0 in runner.shas else ("-", "-")
    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(runner.rounds)}  failed {failed}")
    print("machine " + " ".join(f"{k}={v}" for k, v in machine_facts().items()))
    print(f"x_bar sha256 (instance 0): sasc {shas[0]}  "
          f"{w.comparator} {shas[1]}")
    print("cli parity: " + (", ".join(f"{s} {'ok' if ok else 'MISMATCH'}"
                                      for s, ok in parity.items()) or "n/a"))
    for name, value in metrics.items():
        print(f"  {name:30s} {value:<24.10g} {units[name]}")
    reported = {name: {"value": value, "unit": units[name]}
                for name, value in metrics.items() if name not in UNBOUNDED}
    print(json.dumps({
        "correct": failed == 0 and all(parity.values()),
        "attempted": len(runner.rounds),
        "failed": failed,
        "metrics": reported,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS belongs to one workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"benchmark: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    # one BLAS thread; numpy is first imported after this point
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
