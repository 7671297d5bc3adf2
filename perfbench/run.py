"""End-to-end benchmark for relkanren.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload model-rewrite --seed 1 --seconds 30 --trace 0

One process, one thread, one client in a closed loop: the next operation
starts only after the previous one returned.  Inputs are generated from the
seed before timing starts; every operation's output is checked against an
oracle that does not use relkanren (oracle.py).  The run measures whole
blocks of operations until their own time adds up to ``--seconds``.  Every
reported time is scaled to a reference machine speed with a fixed
calibration task timed after each operation (see README.md).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
loop with the per-layer tracer installed for half the time, then replays the
same operations untraced, and prints the per-layer metrics and the tracing
overhead.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

import oracle
import tracing
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# name: (inputs, run, check, block).  A run covers whole blocks of inputs;
# each block holds every size stratum (or cell) of the workload once.
WORKLOADS = {
    "model-rewrite": (wl.rewrite_inputs, wl.rewrite_run, wl.rewrite_check, 32),
    "constrained-search": (
        wl.search_inputs, wl.search_run, wl.search_check, len(wl.SEARCH_CELLS)
    ),
    "large-terms": (wl.large_inputs, wl.large_run, wl.large_check, 1 << wl.LARGE_LADDER),
}

# Untimed operations before the clock starts: up to this many, stopping
# early once they have taken WARMUP_S.
WARMUP_OPS = 3
WARMUP_S = 1.0
SETUP_REPEATS = 11
# Machine speed is sampled after every operation with a fixed pure-Python
# task, and every reported time is scaled to the speed at which that task
# takes CALIBRATION_REF_S.  On a shared 2-vCPU Intel Xeon virtual machine
# the speed swung up to 1.75x for tens of seconds at a time; scaled times
# varied 4x less than raw ones (see README.md).
CALIBRATION_REF_S = 0.001
CALIBRATION_TERMS = (
    ("model", ("add", 5, 5), ("log", ("exp", ("add", 2, 2))),
     ("add", ("normal", 0, 1), ("normal", "mu", 2))),
    ("model", ("add", ("mul", 3, 4), ("mul", 3, 4)),
     ("observe", (1, 2, 3), ("binomial", (4, 5, 6), ("beta", 2, 2))),
     ("add", "a", ("mul", "b", ("normal", 0, 1)))),
)
SPAN_CAP = 100_000
SETUP_CODE = (
    "import relkanren, relkanren.cli\n"
    "relkanren.default_registry()\n"
    "relkanren.builtin_rulesets()\n"
    "relkanren.cli.build_parser()\n"
)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def calibrate():
    """Seconds a fixed task takes now, best of two: the oracle rewriting two
    fixed models, tuple, dict, set and string work like the engine's that
    never calls relkanren."""
    best = None
    for _ in range(2):
        t0 = perf_counter()
        for term in CALIBRATION_TERMS:
            oracle.rewrite_lines(term, oracle.RULESETS, "walk")
        elapsed = perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best


def measure_setup():
    """Median, at reference speed, of the wall time a fresh interpreter
    takes to import relkanren and build what the CLI needs before it reads
    input."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for i in range(SETUP_REPEATS + 1):  # the first run writes bytecode caches
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60,
        )
        elapsed = perf_counter() - t0
        if proc.returncode != 0:
            fail("set-up failed: " + proc.stderr.decode(errors="replace").strip())
        if i:
            times.append(elapsed * CALIBRATION_REF_S / calibrate())
    return statistics.median(times)


def load_program():
    if not os.path.isfile(os.path.join(SRC, "relkanren", "__init__.py")):
        fail(f"no relkanren sources under {SRC}")
    sys.path.insert(0, SRC)
    import relkanren
    import relkanren.cli  # noqa: F401  (the model-rewrite workload calls it)

    if not os.path.abspath(relkanren.__file__).startswith(SRC + os.sep):
        fail(f"imported relkanren from {relkanren.__file__}, not from {SRC}")
    return relkanren


class Loop:
    """Runs operations, checks each one, and keeps per-operation records."""

    def __init__(self, rk, name, inputs):
        _, self.run_op, self.check_op, self.block = WORKLOADS[name]
        self.rk = rk
        self.inputs = inputs
        self.next_index = 0
        self.attempted = 0
        self.failures = Counter()
        # (latency_s, first_answer_s or None, answers, ok, speed sample after)
        self.records = []

    def one(self, index, tracer=None, extra=None):
        rk, inp = self.rk, self.inputs[index % len(self.inputs)]
        if tracer is not None:
            var0 = rk.fresh_var().id
            accounted = sum(tracer.layer_totals().values())
            frame = tracer.begin_op(index)
        t0 = perf_counter()
        try:
            out = self.run_op(rk, inp)
        except rk.StepBudgetExceeded:
            out = wl.Output(None, 0, 0, None, "budget")
        except Exception as exc:  # every failure is counted, never fatal
            out = wl.Output(None, 0, 0, None, f"raised {type(exc).__name__}")
        t1 = perf_counter()
        if tracer is not None:
            traced = tracer.end_op(frame)
            extra["fresh_vars"] += rk.fresh_var().id - var0 - 1
            extra["op_s"] += traced
            # the layers' self times must add up to the operation's time
            accounted = sum(tracer.layer_totals().values()) - accounted
            if out.failure is None and abs(accounted - traced) > 1e-6 * traced + 1e-9:
                out.failure = "trace does not add up"
        failure = out.failure
        if failure is None:
            try:
                if not self.check_op(rk, inp, out):
                    failure = "wrong answer"
            except Exception as exc:  # output the check cannot even read
                failure = f"unreadable answer ({type(exc).__name__})"
        self.attempted += 1
        if failure is not None:
            self.failures[failure] += 1
        elif extra is not None:
            extra["distinct"] += out.streamed_distinct
            extra["printed"] += out.printed
        first = None if out.first_answer is None else out.first_answer - t0
        self.records.append((t1 - t0, first, out.answers, failure is None, calibrate()))
        return t1 - t0

    def timed(self, seconds, tracer=None, extra=None):
        """Run whole blocks of operations until their own time adds up to
        seconds."""
        start = len(self.records)
        total = 0.0
        while total < seconds or self.next_index % self.block:
            total += self.one(self.next_index, tracer, extra)
            self.next_index += 1
        return self.scaled(start)

    def replay(self, first_index, count):
        start = len(self.records)
        for index in range(first_index, first_index + count):
            self.one(index)
        return self.scaled(start)

    def scaled(self, start):
        """Records from start on as (latency, first answer, answers, ok),
        times scaled to reference speed by the speed samples taken just
        before and just after each operation."""
        out = []
        for i in range(start, len(self.records)):
            latency, first, answers, ok, after = self.records[i]
            before = self.records[i - 1][4] if i else after
            scale = 2 * CALIBRATION_REF_S / (before + after)
            out.append((latency * scale, None if first is None else first * scale, answers, ok))
        return out


def percentile(values, q):
    """q-th percentile (0..100), linear between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(records, setup_s, attempted, failed):
    latencies = [r[0] for r in records]
    total = sum(latencies)
    firsts = [r[1] for r in records if r[1] is not None]
    correct = sum(1 for r in records if r[3])
    answers = sum(r[2] for r in records if r[3])
    return {
        "ops_per_s": (correct / total, "op/s"),
        "answers_per_s": (answers / total, "answer/s"),
        "latency_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "latency_p99_ms": (1000 * percentile(latencies, 99), "ms"),
        "first_answer_p50_ms": (1000 * statistics.median(firsts) if firsts else 0.0, "ms"),
        "success_rate": ((attempted - failed) / attempted, "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    rk = load_program()
    setup_s = None if args.trace else measure_setup()
    try:
        oracle.self_check()
    except oracle.OracleError as exc:
        fail(str(exc))

    make_inputs = WORKLOADS[args.workload][0]
    inputs = make_inputs(random.Random(f"{args.workload}:{args.seed}"))
    loop = Loop(rk, args.workload, inputs)
    warm = 0.0
    for index in range(WARMUP_OPS):
        warm += loop.one(len(inputs) - 1 - index)
        if warm >= WARMUP_S:
            break
    gc.collect()
    gc.freeze()  # the harness's own objects stay out of the program's collections

    if args.trace:
        tracer = tracing.Tracer(SPAN_CAP)
        tracer.install(rk)
        tracer.wrap_benchmark(wl, "build_deep", "exprs.build")
        extra = Counter()
        first_index = loop.next_index
        try:
            records = loop.timed(args.seconds / 2, tracer, extra)
        finally:
            tracer.uninstall()
        # the overhead compares scaled times, so a change of machine speed
        # between the two phases does not show as overhead
        extra["traced_s"] = sum(r[0] for r in records)
        extra["untraced_s"] = sum(r[0] for r in loop.replay(first_index, len(records)))
        metrics = tracing.layer_metrics(tracer, len(records), extra["op_s"], extra)
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_spans(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
        print(f"traced ops: {len(records)}; spans kept {len(tracer.spans)}, "
              f"dropped {tracer.dropped}")
    else:
        raw_s = sum(r[0] for r in loop.records)
        records = loop.timed(args.seconds)
        raw_s = sum(r[0] for r in loop.records) - raw_s
        metrics = end_to_end(records, setup_s, loop.attempted,
                             sum(loop.failures.values()))
        print(f"timed ops: {len(records)} in {raw_s:.3f} s measured, "
              f"{sum(r[0] for r in records):.3f} s at reference speed; "
              f"samples beyond p99: {len(records) // 100}")

    failed = sum(loop.failures.values())
    for kind, count in sorted(loop.failures.items()):
        print(f"failed ({kind}): {count}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
