"""Per-layer tracing for the benchmark's traced run.

The tracer wraps relkanren's public functions from the outside and rebinds
each wrapped name in every module that imported it (``goals.unify``,
``constraints.unify_delta``, ``cli.iter_solutions``, ...).  Calls a module
makes to its own functions are not rebound, so a span marks a crossing
between layers.  Nothing here is active in the untraced run: ``install``
rebinds, ``uninstall`` puts every original object back.

A span records its name, start, end, parent span and the operation (trace
id) it belongs to.  Spans are kept in memory up to a cap and written out
when the run ends; the per-layer totals are aggregated as spans close, so
they cover every traced operation whatever the cap.

Self time of a span is its duration minus the durations of its direct
children.  The root span of each operation is named ``goals.op``, so the
self times of all spans of an operation add up to the operation's time.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("terms", "unify", "constraints", "goals", "relations", "exprs", "rules", "sexpr", "cli")

# Leaf layers: their spans call back into no search code.
LEAF_TIMES = (
    ("unify.s", ("unify.unify", "unify.unify_delta")),
    ("unify.walk_star_s", ("unify.walk_star",)),
    ("unify.reify_s", ("unify.reify",)),
    ("constraints.revalidate_s", ("constraints.revalidate",)),
    ("terms.term_hash_s", ("terms.term_hash",)),
    ("sexpr.parse_s", ("sexpr.parse_sexpr",)),
    ("sexpr.print_s", ("sexpr.print_term",)),
    ("exprs.eval_cold_s", ("exprs.eval_cold",)),
    ("exprs.eval_warm_s", ("exprs.eval_warm",)),
    ("exprs.build_s", ("exprs.build",)),
)

RELATION_GOALS = ("membero", "conso", "permuteo", "reduceo", "walko", "eq_comm")
RULES = (
    "math_reduce_rule",
    "normal_sum_rule",
    "normal_affine_rule",
    "beta_binomial_conjugate",
)


def _store_entries(stores) -> int:
    """Entries held by a constraint-store set (the work revalidate scans)."""
    total = 0
    for store in getattr(stores, "stores", {}).values():
        for attr in ("prohibited", "entries"):
            total += len(getattr(store, attr, ()))
    return total


class _TracedStream:
    """An answer stream whose every ``next`` is one span."""

    __slots__ = ("tracer", "it", "counter")

    def __init__(self, tracer, it, counter):
        self.tracer = tracer
        self.it = it
        self.counter = counter

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        frame = tracer.open("goals.stream")
        try:
            item = next(self.it)
        finally:
            tracer.close(frame)
        tracer.counts["goals.streamed"] += 1
        if self.counter:
            tracer.counts[self.counter] += 1
        return item


class Tracer:
    def __init__(self, span_cap: int):
        self.stack: list = []
        self.spans: list = []
        self.span_cap = span_cap
        self.dropped = 0
        self.next_id = 0
        self.trace_id = -1
        self.self_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._evaluated: set = set()
        self._keep: list = []
        self._restore: list = []

    # --- spans --------------------------------------------------------
    def open(self, name):
        frame = [self.next_id, name, perf_counter(), 0.0]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def close(self, frame):
        end = perf_counter()
        stack = self.stack
        stack.pop()
        span_id, name, start, child = frame
        dur = end - start
        self.self_s[name] += dur - child
        self.calls[name] += 1
        parent = None
        if stack:
            stack[-1][3] += dur
            parent = stack[-1][0]
        if len(self.spans) < self.span_cap:
            self.spans.append((self.trace_id, span_id, parent, name, start, end))
        else:
            self.dropped += 1
        return dur

    def begin_op(self, trace_id):
        self.trace_id = trace_id
        self._evaluated.clear()
        self._keep.clear()
        return self.open("goals.op")

    def end_op(self, frame):
        # spans an exception left open close with the operation
        while self.stack[-1] is not frame:
            self.close(self.stack[-1])
        return self.close(frame)

    def layer_totals(self) -> dict:
        """Self time so far, summed into the reported layer buckets."""
        out = {}
        named = set()
        for metric, names in LEAF_TIMES:
            out[metric] = sum(self.self_s.get(n, 0.0) for n in names)
            named.update(names)
        out["cli.self_s"] = sum(v for k, v in self.self_s.items() if k.startswith("cli."))
        out["goals.self_s"] = sum(
            v for k, v in self.self_s.items()
            if k not in named and not k.startswith("cli.")
        )
        return out

    # --- wrappers -----------------------------------------------------
    def _span(self, name, fn, after=None):
        stack = self.stack

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(frame)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_calls(self, counter, fn):
        stack, counts = self.stack, self.counts

        def counted(*args, **kwargs):
            if stack:
                counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _stream(self, fn, counter=None):
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not self.stack:
                return it
            return _TracedStream(self, it, counter)

        return traced

    def _delay(self, fn):
        counts = self.counts

        def traced_delay(thunk):
            goal = fn(thunk)

            def delayed(state):
                counts["goals.delay_calls"] += 1
                return goal(state)

            return delayed

        return traced_delay

    def _rule(self, fn):
        counts = self.counts

        def traced_rule(*args):
            goal = fn(*args)

            def applied(state):
                counts["rules.attempts"] += 1
                found = False
                for s in goal(state):
                    if not found:
                        found = True
                        counts["rules.successes"] += 1
                    yield s

            return applied

        return traced_rule

    def _eval(self, fn):
        stack = self.stack

        def traced_eval(e, reg):
            if not stack:
                return fn(e, reg)
            key = (id(reg), id(e))
            warm = key in self._evaluated
            if not warm:
                self._evaluated.add(key)
                self._keep.append((reg, e))  # ids stay unique within the op
            frame = self.open("exprs.eval_warm" if warm else "exprs.eval_cold")
            try:
                return fn(e, reg)
            finally:
                self.close(frame)

        return traced_eval

    # --- installation -------------------------------------------------
    def _rebind(self, modules, home, name, wrapper, include_home=False):
        """Replace home.name by wrapper in every module holding it."""
        original = getattr(home, name)
        for mod in modules:
            if mod is home and not include_home:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self, rk):
        """Wrap relkanren's layer boundaries.  rk is the imported package."""
        # imported by path: the package attribute ``unify`` is the function
        (terms, unify, constraints, goals, relations, exprs, rules, sexpr, cli) = (
            importlib.import_module(f"relkanren.{name}")
            for name in LAYERS
        )
        mods = [rk, terms, unify, constraints, goals, relations, exprs, rules, sexpr, cli]
        counts = self.counts

        def unify_after(args, result):
            if result is None:
                counts["unify.fail"] += 1
                counts["goals.eq_fail"] += 1

        def unify_delta_after(args, result):
            if result is None:
                counts["unify.fail"] += 1

        def revalidate_after(args, result):
            counts["constraints.entries_scanned"] += _store_entries(args[0])
            if result is None:
                counts["constraints.pruned"] += 1
                counts["goals.eq_fail"] += 1

        def parse_after(args, result):
            counts["sexpr.parse_chars"] += len(args[0])

        def run_after(args, result):
            counts["goals.streamed"] += len(result)

        spans = {
            (unify, "unify"): ("unify.unify", unify_after),
            (unify, "unify_delta"): ("unify.unify_delta", unify_delta_after),
            (unify, "walk_star"): ("unify.walk_star", None),
            (unify, "reify"): ("unify.reify", None),
            (constraints, "revalidate"): ("constraints.revalidate", revalidate_after),
            (terms, "term_hash"): ("terms.term_hash", None),
            (sexpr, "parse_sexpr"): ("sexpr.parse_sexpr", parse_after),
            (sexpr, "print_term"): ("sexpr.print_term", None),
            (goals, "run"): ("goals.run", run_after),
        }
        for (home, name), (span, after) in spans.items():
            fn = getattr(home, name, None)
            if fn is not None:
                wrapped = self._span(span, fn, after)
                self._rebind(mods, home, name, wrapped)

        fn = getattr(cli, "main", None)
        if fn is not None:
            wrapped = self._span("cli.main", fn)
            self._rebind(mods, cli, "main", wrapped, include_home=True)

        fn = getattr(goals, "iter_solutions", None)
        if fn is not None:
            self._rebind([cli], goals, "iter_solutions", self._stream(fn, "cli.stream_answers"))
            others = [m for m in mods if m is not cli]
            self._rebind(others, goals, "iter_solutions", self._stream(fn))

        fn = getattr(exprs, "eval_expr", None)
        if fn is not None:
            wrapped = self._eval(fn)
            self._rebind(mods, exprs, "eval_expr", wrapped)

        fn = getattr(goals, "delay", None)
        if fn is not None:
            wrapped = self._delay(fn)
            self._rebind(mods, goals, "delay", wrapped)

        for name in RELATION_GOALS:
            fn = getattr(relations, name, None)
            if fn is not None:
                wrapped = self._count_calls("relations.goal_calls", fn)
                self._rebind(mods, relations, name, wrapped, include_home=True)

        for name in RULES:
            fn = getattr(rules, name, None)
            if fn is not None:
                wrapped = self._rule(fn)
                self._rebind(mods, rules, name, wrapped, include_home=True)

        subst = getattr(unify, "Substitution", None)
        extend = getattr(subst, "extend", None)
        if extend is not None:
            stack = self.stack

            def traced_extend(s, delta):
                if stack:
                    counts["unify.extend_copied"] += len(s)
                return extend(s, delta)

            self._restore.append((subst, "extend", extend))
            subst.extend = traced_extend

    def wrap_benchmark(self, module, name, span):
        """Span a function of the benchmark's own code (term building)."""
        fn = getattr(module, name)
        self._restore.append((module, name, fn))
        setattr(module, name, self._span(span, fn))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # --- output -------------------------------------------------------
    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for trace_id, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps(
                    {"trace": trace_id, "span": span_id, "parent": parent,
                     "name": name, "start": start, "end": end}
                ) + "\n")


def _frac(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int, traced_s: float, extra: dict) -> dict:
    """Per-operation layer figures from a finished traced phase.

    traced_s is the operations' measured time, the sum of their spans.
    extra carries what the harness counted itself: printed answers,
    distinct answers, fresh variables, and the traced and untraced phases'
    times scaled to reference speed.
    """
    c, calls = tracer.counts, tracer.calls
    per = 1.0 / ops
    totals = tracer.layer_totals()
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    put("goals.self_s", totals["goals.self_s"] * per, "s/op")
    put("goals.eq_calls", calls["unify.unify"] * per, "call/op")
    put("goals.eq_fail_frac", _frac(c["goals.eq_fail"], calls["unify.unify"]), "fraction")
    put("goals.delay_calls", c["goals.delay_calls"] * per, "call/op")
    put("constraints.revalidate_calls", calls["constraints.revalidate"] * per, "call/op")
    put("constraints.revalidate_s", totals["constraints.revalidate_s"] * per, "s/op")
    put("constraints.entries_scanned", c["constraints.entries_scanned"] * per, "entry/op")
    put("constraints.prune_frac",
        _frac(c["constraints.pruned"], calls["constraints.revalidate"]), "fraction")
    unify_calls = calls["unify.unify"] + calls["unify.unify_delta"]
    put("unify.calls", unify_calls * per, "call/op")
    put("unify.fail_frac", _frac(c["unify.fail"], unify_calls), "fraction")
    put("unify.s", totals["unify.s"] * per, "s/op")
    put("unify.extend_copied", c["unify.extend_copied"] * per, "binding/op")
    put("unify.walk_star_s", totals["unify.walk_star_s"] * per, "s/op")
    put("unify.reify_s", totals["unify.reify_s"] * per, "s/op")
    put("terms.term_hash_s", totals["terms.term_hash_s"] * per, "s/op")
    put("terms.fresh_vars", extra["fresh_vars"] * per, "var/op")
    put("relations.goal_calls", c["relations.goal_calls"] * per, "call/op")
    put("relations.distinct_frac", _frac(extra["distinct"], c["goals.streamed"]), "fraction")
    put("rules.attempts", c["rules.attempts"] * per, "call/op")
    put("rules.success_frac", _frac(c["rules.successes"], c["rules.attempts"]), "fraction")
    put("cli.self_s", totals["cli.self_s"] * per, "s/op")
    put("cli.stream_answers", c["cli.stream_answers"] * per, "answer/op")
    put("cli.printed_answers", extra["printed"] * per, "answer/op")
    put("sexpr.parse_s", totals["sexpr.parse_s"] * per, "s/op")
    put("sexpr.parse_chars_per_s",
        _frac(c["sexpr.parse_chars"], totals["sexpr.parse_s"]), "char/s")
    put("sexpr.print_s", totals["sexpr.print_s"] * per, "s/op")
    put("sexpr.print_calls", calls["sexpr.print_term"] * per, "call/op")
    put("exprs.eval_calls",
        (calls["exprs.eval_cold"] + calls["exprs.eval_warm"]) * per, "call/op")
    put("exprs.eval_cold_s", totals["exprs.eval_cold_s"] * per, "s/op")
    put("exprs.eval_warm_s", totals["exprs.eval_warm_s"] * per, "s/op")
    put("exprs.build_s", totals["exprs.build_s"] * per, "s/op")
    put("trace.op_s", traced_s * per, "s/op")
    put("trace.spans", sum(calls.values()) * per, "span/op")
    # throughput and overhead from times scaled to reference speed
    put("trace.ops_per_s", ops / extra["traced_s"], "op/s")
    put("trace.untraced_ops_per_s", ops / extra["untraced_s"], "op/s")
    put("trace.slowdown", extra["traced_s"] / extra["untraced_s"], "ratio")
    return m
