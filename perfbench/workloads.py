"""Seeded inputs, the operations that run them, and their checks.

Each workload provides an inputs function (called with a seeded RNG before
any timing), a run function (one operation: one user request, the only
timed code) and a check function (compares the output with the oracle's
answer).

Input sizes are stratified: ``ladder`` gives one value per stratum of a
range, ordered so that every aligned block covers the whole range evenly,
and constrained-search blocks hold every cell of its design once.  The seed
picks the order, a jitter inside each stratum and every value the sizes do
not fix.  Runs with different seeds then see the same mix of sizes, which
keeps run-to-run spread low while the inputs themselves differ.

Size limits keep every operation inside what the seed commit survives at
the default recursion limit (see README.md for each limit and its reason).
"""

from __future__ import annotations

import bisect
import io
import itertools
import math
import sys
from dataclasses import dataclass
from time import perf_counter

import oracle

# Step budget per operation: far above what any generated input needs at
# the seed commit, so hitting it means a search blew up.
STEP_BUDGET = 20_000_000


def ladder(rng, size_log2):
    """2**size_log2 values in (0, 1), one per stratum, in a digitally
    shifted van der Corput order: every aligned window of 2**k values holds
    one value from each of 2**k equal slices of (0, 1)."""
    m = 1 << size_log2
    mask = rng.randrange(m)
    out = []
    for j in range(m):
        rev = int(format(j, f"0{size_log2}b")[::-1], 2) if size_log2 else 0
        out.append(((rev ^ mask) + 0.5 + rng.uniform(-0.1, 0.1)) / m)
    return out


@dataclass
class Output:
    """What one operation returned, as the checks and metrics need it."""

    value: object
    answers: int          # distinct answers delivered to the user
    streamed_distinct: int  # distinct answers the search streamed
    first_answer: float | None  # perf_counter time of the first answer
    failure: str | None = None
    printed: int = 0


# --- model-rewrite ------------------------------------------------------

SYMBOLS = ("mu", "sigma", "tau", "a", "b", "k")
DECIMALS = (0.5, 1.5, 2.5, 0.25)
MAX_REDEXES = 5  # one more redex costs about four times as much
MAX_VECTOR = 40  # walk mode overflows the stack on data vectors near 100
# Operations spread evenly in log search size over this range (see
# search_size); at the seed commit one unit costs about 20 microseconds,
# so operations take from about 1 ms to about 0.6 s.
SEARCH_SIZE = (30, 30_000)
CANDIDATES = 1500
NEAREST = 7


def _number(rng):
    return rng.randint(0, 9) if rng.random() < 0.7 else rng.choice(DECIMALS)


def _leaf(rng):
    return _number(rng) if rng.random() < 0.7 else rng.choice(SYMBOLS)


def _expr(rng):
    shape = rng.randrange(3)
    if shape == 0:
        return ("sub", _leaf(rng), _leaf(rng))
    if shape == 1:
        return ("mul", _leaf(rng), _leaf(rng))
    return ("exp", _leaf(rng))


def _plain(rng):
    """A component no builtin rule rewrites at its root."""
    shape = rng.randrange(5)
    if shape < 3:
        return _expr(rng)
    if shape == 3:
        return ("normal", _leaf(rng), _number(rng))
    return ("scale", rng.choice(SYMBOLS), _number(rng))  # a list, not an operator


def _operand(rng, nest):
    """A number or an expression: what add(x, x) and log(exp(x)) accept."""
    if nest and rng.random() < 0.5:
        return _redex(rng, nest=False)
    return _number(rng) if rng.random() < 0.6 else _expr(rng)


def _param(rng, nest):
    if nest and rng.random() < 0.3:
        return _redex(rng, nest=False)
    return _leaf(rng)


def _redex(rng, nest=True):
    """A component some builtin rule rewrites at its root; with nest, an
    argument may be a redex too (two levels at most).  Data vectors occur
    only at the top level."""
    shape = rng.randrange(5 if nest else 4)
    if shape == 0:
        x = _operand(rng, nest)
        return ("add", x, x)
    if shape == 1:
        return ("log", ("exp", _operand(rng, nest)))
    if shape == 2:
        return ("add", ("normal", _param(rng, nest), _number(rng)),
                ("normal", _param(rng, nest), _number(rng)))
    if shape == 3:
        return ("add", _param(rng, nest), ("mul", _param(rng, nest), ("normal", 0, 1)))
    n = rng.randint(1, MAX_VECTOR)
    trials = tuple(rng.randint(1, 20) for _ in range(n))
    obs = tuple(rng.randint(0, t) for t in trials)
    return ("observe", obs, ("binomial", trials, ("beta", _number(rng), _number(rng))))


def _model(rng, redexes):
    while True:
        parts = rng.randint(2, 4)
        comps = tuple(
            _redex(rng) if rng.random() < 0.6 else _plain(rng) for _ in range(parts)
        )
        term = ("model",) + comps
        if oracle.redex_count(term) == redexes:
            return term


def _positions(t):
    yield t
    if isinstance(t, tuple):
        for x in t[1:]:
            yield from _positions(x)


def _streamed(t, rules, reduce):
    """Answers walko streams for t, duplicates included."""
    root = oracle.reachable(t, rules) if reduce else oracle.root_images(t, rules)
    n = len(root) + 1
    if isinstance(t, tuple) and t:
        below = 1
        for x in t[1:]:
            below *= _streamed(x, rules, reduce)
        n += below
    return n


def _steps(t, rules, reduce):
    # a walk step tries every rule, then descends; the operand list is
    # walked again for every answer of each earlier operand
    n = len(rules) + 1
    if isinstance(t, tuple) and t:
        tail = 1
        for x in reversed(t[1:]):
            tail = 1 + _steps(x, rules, reduce) + _streamed(x, rules, reduce) * tail
        n += tail
    return n


def _size(t):
    return 1 + sum(_size(x) for x in t) if isinstance(t, tuple) else 1


def search_size(term, rules, mode):
    """Estimated work of walking term at the seed commit's search order:
    walk steps, plus the size of every streamed answer (each one is
    reified and printed).  Used only to choose inputs; tracks measured
    operation time within a factor of about 1.5."""
    reduce = mode == "reduce"
    return _steps(term, rules, reduce) + _streamed(term, rules, reduce) * _size(term)


@dataclass
class RewriteInput:
    text: str
    argv: list
    expected: set


def rewrite_inputs(rng):
    candidates = []
    for _ in range(CANDIDATES):
        term = _model(rng, rng.randint(1, MAX_REDEXES))
        mode = rng.choice(("walk", "reduce"))
        if rng.random() < 0.5:
            rules = list(oracle.RULESETS)
        else:
            matching = [
                name for name in oracle.RULESETS
                if any(oracle.root_images(x, [name]) for x in _positions(term))
            ]
            rules = [rng.choice(matching)]
        size = math.log(search_size(term, rules, mode))
        candidates.append((size, term, mode, rules, oracle.rewrite_lines(term, rules, mode)))
    candidates.sort(key=lambda c: c[0])
    logs = [c[0] for c in candidates]
    lo, hi = (math.log(x) for x in SEARCH_SIZE)
    out = []
    for u in ladder(rng, 8):
        # of the unused candidates nearest the target search size, the one
        # with the median answer count: the answers a run delivers then do
        # not hinge on a few answer-rich or answer-poor models
        target = lo + u * (hi - lo)
        i = bisect.bisect(logs, target)
        window = range(max(0, i - NEAREST), min(len(logs), i + NEAREST))
        near = sorted(window, key=lambda j: abs(logs[j] - target))[:NEAREST]
        pick = sorted(near, key=lambda j: len(candidates[j][4]))[len(near) // 2]
        logs.pop(pick)
        _, term, mode, rules, expected = candidates.pop(pick)
        argv = ["rewrite", "--mode", mode, "--max-steps", str(STEP_BUDGET)]
        for name in rules:
            argv += ["--rules", name]
        out.append(RewriteInput(oracle.render(term), argv, expected))
    return out


class _Sink(io.StringIO):
    """In-memory stdout that notes when the first answer line is written."""

    first = None

    def write(self, s):
        if self.first is None:
            self.first = perf_counter()
        return super().write(s)


def rewrite_run(rk, inp):
    sink, err = _Sink(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(inp.text), sink, err
    try:
        code = rk.cli.main(inp.argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    lines = sink.getvalue().splitlines()
    failure = None
    if code == 2:
        failure = "budget"
    elif code != 0:
        failure = f"exit {code}"
    # the CLI drops the identity answer, which the search always streams
    return Output(lines, len(lines), len(set(lines)) + 1, sink.first, failure, len(lines))


def rewrite_check(rk, inp, out):
    lines = out.value
    return len(lines) == len(set(lines)) and set(lines) == inp.expected


# --- constrained-search -------------------------------------------------

LIVE_LEVELS = (0, 25, 100, 400, 800)
MEMBERO_SIZES = (20, 40, 60, 80, 100)  # membero overflows the stack near 110
# permuteo of 6 elements streams 720 answers and costs 1.5 s at 800 live
# constraints; 5 cells like that would decide half of every run's time
PERMUTEO_SIZES = (3, 4, 5)
MAX_FILTERS = 40
KINDS = ("integer", "decimal", "number", "symbol", "string", "boolean")
# One block holds every (live constraints, generator) cell once.
SEARCH_CELLS = [
    (live, generator, size)
    for live in LIVE_LEVELS
    for generator, sizes in (("membero", MEMBERO_SIZES), ("permuteo", PERMUTEO_SIZES))
    for size in sizes
]
SEARCH_BLOCKS = 8


def _atom(rng, tag):
    if tag == "int":
        return ("int", rng.randint(-99, 99))
    if tag == "dec":
        return ("dec", rng.randint(-99, 99) + 0.5)
    if tag == "sym":
        return ("sym", f"s{rng.randint(0, 999)}")
    if tag == "str":
        return ("str", f"t{rng.randint(0, 999)}")
    return ("bool", rng.random() < 0.5)


def _distinct_atoms(rng, n):
    seen = {}
    while len(seen) < n:
        a = _atom(rng, rng.choice(("int", "int", "dec", "sym", "str", "bool")))
        seen.setdefault(oracle.atom_text(a), a)
    return list(seen.values())


_KIND_OF = {
    "integer": ("int",), "decimal": ("dec",), "number": ("int", "dec"),
    "symbol": ("sym",), "string": ("str",), "boolean": ("bool",),
}


def _search_spec(rng, live, generator, size, filters, spot):
    """One query.  spot in [0, 1] places x's first answer in the stream:
    it is where in the membero list the first acceptable atom sits."""
    if generator == "membero":
        items = _distinct_atoms(rng, size - rng.randint(0, 9))
        kind = rng.choice([k for k in KINDS if any(a[0] in _KIND_OF[k] for a in items)])
        survivor = rng.choice([a for a in items if a[0] in _KIND_OF[kind]])
        keep = oracle.atom_text(survivor)
        pool = [a for a in items + _distinct_atoms(rng, 10) if oracle.atom_text(a) != keep]
        excluded = rng.sample(pool, min(filters, len(pool)))
        banned = {oracle.atom_text(a) for a in excluded}
        passing = [a for a in items if a[0] in _KIND_OF[kind]
                   and oracle.atom_text(a) not in banned]
        others = [a for a in items if a not in passing]
        ahead = min(len(others), round(spot * (len(items) - 1)))
        rest = others[ahead:] + passing[1:]
        rng.shuffle(rest)
        items = others[:ahead] + [passing[0]] + rest
    else:
        items = tuple(_distinct_atoms(rng, size))
        kind = "cons"
        # the first permutation enumerated, items in order, always survives
        perms = list(itertools.permutations(items))[1:]
        excluded = [rng.choice(perms) for _ in range(filters)]
    spec = {
        "generator": generator, "items": items, "kind": kind, "excluded": excluded,
        "live": [
            ("neq", _atom(rng, rng.choice(("int", "sym"))))
            if rng.random() < 0.5 else ("type", rng.choice(KINDS))
            for _ in range(live)
        ],
    }
    spec["expected"] = oracle.search_answers(spec)
    return spec


def search_inputs(rng):
    # every block holds each cell once, and the same spread of filter
    # counts and first-answer spots
    n = len(SEARCH_CELLS)
    filters = [round(i * MAX_FILTERS / (n - 1)) for i in range(n)]
    spots = [i / (n - 1) for i in range(n)]
    out = []
    for _ in range(SEARCH_BLOCKS):
        block = list(SEARCH_CELLS)
        for seq in (block, filters, spots):
            rng.shuffle(seq)
        out.extend(
            _search_spec(rng, *cell, f, spot) for cell, f, spot in zip(block, filters, spots)
        )
    return out


def _value(rk, a):
    """The relkanren term for an oracle atom or list of atoms."""
    if isinstance(a[0], tuple):
        return tuple(_value(rk, x) for x in a)
    tag, v = a
    return rk.Symbol(v) if tag == "sym" else v


def search_run(rk, spec):
    x = rk.fresh_var()
    live = []
    for what, arg in spec["live"]:
        v = rk.fresh_var()
        live.append(rk.neq(v, _value(rk, arg)) if what == "neq" else rk.type_constraint(v, arg))
    filters = [rk.neq(x, _value(rk, c)) for c in spec["excluded"]]
    filters.append(rk.type_constraint(x, spec["kind"]))
    items = tuple(_value(rk, a) for a in spec["items"])
    if spec["generator"] == "membero":
        generator = rk.membero(x, items)
    else:
        generator = rk.permuteo(items, x)
    goal = rk.lall(rk.lall(*live), rk.lall(*filters), generator)
    answers = []
    first = None
    with rk.step_budget(STEP_BUDGET):
        for answer in rk.iter_solutions(x, goal):
            if first is None:
                first = perf_counter()
            answers.append(answer)
    return Output(answers, len(answers), len(answers), first)


def search_check(rk, spec, out):
    # telling answers apart takes their text, so it is counted here, untimed
    texts = sorted(rk.print_term(a) for a in out.value)
    distinct = len(set(texts))
    out.answers = out.streamed_distinct = distinct
    return texts == spec["expected"]


# --- large-terms --------------------------------------------------------

MIN_VECTOR, MAX_VECTOR_LARGE = 500, 50_000  # model terms of 10^3 to 10^5 nodes
MIN_DEPTH, MAX_DEPTH = 10_000, 100_000
MAX_EVAL = 800  # the evaluator recurses on list spines and overflows near 990
LARGE_LADDER = 4  # 2**4 sizes per block


@dataclass
class LargeInput:
    n: int
    depth: int
    obs_text: str
    trials_text: str
    a: object
    b: object
    values: tuple


def large_inputs(rng):
    # two ladders of 16 sizes; a run covers whole ladders, so every run
    # holds each size stratum equally often and its tail is the top stratum
    out = []
    for u in ladder(rng, LARGE_LADDER) + ladder(rng, LARGE_LADDER):
        n = round(MIN_VECTOR * (MAX_VECTOR_LARGE / MIN_VECTOR) ** u)
        depth = round(MIN_DEPTH * (MAX_DEPTH / MIN_DEPTH) ** u)
        trials = [rng.randint(1, 50) for _ in range(n)]
        obs = [rng.randint(0, t) for t in trials]
        a = rng.choice((1, 2, 3, 0.5, 1.5))
        b = rng.choice((1, 2, 4, 0.5, 2.5))
        out.append(LargeInput(
            n, depth,
            "(" + " ".join(map(str, obs)) + ")",
            "(" + " ".join(map(str, trials)) + ")",
            a, b, oracle.posterior_values(obs, trials, a, b),
        ))
    return out


def build_deep(rk, depth):
    """(add (add ... (add 1 1) ... 1) 1), depth levels, built directly."""
    add = rk.Symbol("add")
    t = 1
    for _ in range(depth):
        t = rk.make_expr(add, t, 1)
    return t


def large_run(rk, inp):
    reg = rk.default_registry()
    text = f"(observe {inp.obs_text} (binomial {inp.trials_text} (beta {inp.a!r} {inp.b!r})))"
    model = rk.parse_sexpr(text, registry=reg)
    q = rk.fresh_var()
    with rk.step_budget(STEP_BUDGET):
        (posterior,) = rk.run(1, q, rk.beta_binomial_conjugate(model, q))
    first = perf_counter()
    rk.term_hash(posterior)
    posterior_text = rk.print_term(posterior)
    values = None
    if inp.n <= MAX_EVAL:
        _, _, prior = rk.list_from_term(posterior)
        _, alpha, beta = rk.list_from_term(prior)
        cold = (rk.eval_expr(alpha, reg), rk.eval_expr(beta, reg))
        warm = (rk.eval_expr(alpha, reg), rk.eval_expr(beta, reg))
        values = (cold, warm)
    deep = build_deep(rk, inp.depth)
    a, b = rk.fresh_var(), rk.fresh_var()
    pattern = rk.make_expr(rk.Symbol("add"), a, b)
    with rk.step_budget(STEP_BUDGET):
        (unified,) = rk.run(1, pattern, rk.eq(deep, pattern))
    deep_text = rk.print_term(unified)
    return Output((posterior_text, values, deep_text), 2, 2, first)


def _same_number(x, y):
    return type(x) is type(y) and x == y


def large_check(rk, inp, out):
    posterior_text, values, deep_text = out.value
    if posterior_text != oracle.posterior_text(inp.obs_text, inp.trials_text, inp.a, inp.b):
        return False
    if deep_text != oracle.deep_text(inp.depth):
        return False
    if (values is None) != (inp.n > MAX_EVAL):
        return False
    if values is not None:
        for got in values:
            if not all(_same_number(g, e) for g, e in zip(got, inp.values)):
                return False
    return True
