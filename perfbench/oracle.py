"""Reference answers for every benchmark operation, in plain Python.

Nothing here imports relkanren: each workload's expected output is derived
from the generator's own description of the input, and the program's output
is compared as printed text.

Term representation used by the model-rewrite oracle: a Python tuple is a
list term (it prints as ``(a b c)``), a ``str`` is a symbol, and ``int`` and
``float`` are numbers.  A tuple whose head is one of ``OPS`` is an operator
application, which is what relkanren's reader turns into an expression term.
"""

from __future__ import annotations

import itertools

OPS = frozenset(
    "add sub mul div log exp sum normal beta binomial observe".split()
)

RULESETS = ("math", "normal-sum", "normal-affine", "beta-binomial")


def render(t) -> str:
    """Canonical text of a model term, as relkanren's printer writes it."""
    if isinstance(t, tuple):
        return "(" + " ".join(render(x) for x in t) + ")"
    if isinstance(t, str):
        return t
    if isinstance(t, bool) or not isinstance(t, (int, float)):
        raise TypeError(f"not a model term: {t!r}")
    return repr(t)


def _app(t, op, arity):
    return isinstance(t, tuple) and len(t) == arity + 1 and t[0] == op


def _is_number(t):
    return isinstance(t, (int, float)) and not isinstance(t, bool)


def _number_or_expr(t):
    return _is_number(t) or (isinstance(t, tuple) and bool(t) and t[0] in OPS)


def _same(a, b):
    # strict structural equality: the integer 2 and the decimal 2.0 differ
    return render(a) == render(b)


def _math(t):
    out = []
    if _app(t, "add", 2) and _same(t[1], t[2]) and _number_or_expr(t[1]):
        out.append(("mul", 2, t[1]))
    if _app(t, "log", 1) and _app(t[1], "exp", 1) and _number_or_expr(t[1][1]):
        out.append(t[1][1])
    return out


def _normal_sum(t):
    if _app(t, "add", 2) and _app(t[1], "normal", 2) and _app(t[2], "normal", 2):
        (_, mx, vx), (_, my, vy) = t[1], t[2]
        return [("normal", ("add", mx, my), ("add", vx, vy))]
    return []


def _normal_affine(t):
    if (
        _app(t, "add", 2)
        and _app(t[2], "mul", 2)
        and _app(t[2][2], "normal", 2)
        and all(type(p) is int for p in t[2][2][1:])
        and t[2][2][1:] == (0, 1)
    ):
        mu, sigma = t[1], t[2][1]
        return [("normal", mu, ("mul", sigma, sigma))]
    return []


def _beta_binomial(t):
    if _app(t, "observe", 2) and _app(t[2], "binomial", 2) and _app(t[2][2], "beta", 2):
        obs, (_, n, (_, a, b)) = t[1], t[2]
        return [
            (
                "binomial",
                n,
                ("beta", ("add", a, ("sum", obs)), ("add", b, ("sub", ("sum", n), ("sum", obs)))),
            )
        ]
    return []


_RULES = {
    "math": _math,
    "normal-sum": _normal_sum,
    "normal-affine": _normal_affine,
    "beta-binomial": _beta_binomial,
}


def root_images(t, rulesets):
    """Terms one rule application at the root of t produces."""
    out = []
    for name in rulesets:
        out.extend(_RULES[name](t))
    return out


def _dedup(terms):
    seen = {}
    for t in terms:
        seen.setdefault(render(t), t)
    return list(seen.values())


def reachable(t, rulesets):
    """Every form reachable from t by one or more root rewrites."""
    found = {}
    frontier = [t]
    while frontier:
        for y in root_images(frontier.pop(), rulesets):
            key = render(y)
            if key not in found:
                found[key] = y
                frontier.append(y)
    return list(found.values())


def _walk(t, rulesets, reduce):
    # rule images at the root, t itself, and every combination of one walk
    # answer per operand; the head of a list is related by equality only
    at_root = reachable(t, rulesets) if reduce else root_images(t, rulesets)
    out = [t] + at_root
    if isinstance(t, tuple) and t:
        choices = [_walk(x, rulesets, reduce) for x in t[1:]]
        out.extend((t[0],) + combo for combo in itertools.product(*choices))
    return _dedup(out)


def rewrite_lines(term, rulesets, mode) -> set:
    """The set of lines ``relkanren rewrite`` prints for term: every walk
    answer except the input itself."""
    answers = {render(x) for x in _walk(term, rulesets, mode == "reduce")}
    answers.discard(render(term))
    return answers


def redex_count(term) -> int:
    """Positions of term at which some builtin ruleset rewrites."""
    n = 1 if root_images(term, RULESETS) else 0
    if isinstance(term, tuple):
        n += sum(redex_count(x) for x in term[1:])
    return n


# --- constrained search -------------------------------------------------
# Atoms are tagged pairs: ("int", 3), ("dec", 2.5), ("sym", "foo"),
# ("str", "bar"), ("bool", True).  A list is a tuple of atoms.

_PREDICATES = {
    "integer": lambda a: a[0] == "int",
    "decimal": lambda a: a[0] == "dec",
    "number": lambda a: a[0] in ("int", "dec"),
    "symbol": lambda a: a[0] == "sym",
    "string": lambda a: a[0] == "str",
    "boolean": lambda a: a[0] == "bool",
    "cons": lambda a: isinstance(a, tuple) and bool(a) and isinstance(a[0], tuple),
}


def atom_text(a) -> str:
    tag, v = a
    if tag == "bool":
        return "#t" if v else "#f"
    if tag == "str":
        return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if tag == "sym":
        return v
    return repr(v)


def value_text(v) -> str:
    """Text of an atom or of a list of atoms."""
    if isinstance(v, tuple) and v and isinstance(v[0], tuple):
        return "(" + " ".join(atom_text(a) for a in v) + ")"
    return atom_text(v)


def search_answers(spec) -> list:
    """Sorted texts of the answers for x in a constrained-search spec.

    Live constraints sit on variables never bound, so they never prune; x
    must differ from every excluded value and satisfy the type predicate.
    """
    excluded = {value_text(c) for c in spec["excluded"]}
    if spec["generator"] == "membero":
        candidates = list(spec["items"])
    else:
        candidates = list(dict.fromkeys(itertools.permutations(spec["items"])))
    keep = _PREDICATES[spec["kind"]]
    return sorted(
        value_text(c) for c in candidates if keep(c) and value_text(c) not in excluded
    )


# --- large terms --------------------------------------------------------

def posterior_text(obs_text, trials_text, a, b) -> str:
    """Printed conjugate posterior of a beta-binomial model in sum form."""
    return (
        f"(binomial {trials_text} (beta (add {a!r} (sum {obs_text})) "
        f"(add {b!r} (sub (sum {trials_text}) (sum {obs_text})))))"
    )


def posterior_values(obs, trials, a, b):
    """Posterior (alpha, beta), summing left to right as the evaluator does."""
    y = sum(obs)
    return a + y, b + (sum(trials) - y)


def deep_text(depth) -> str:
    """Printed form of depth nested ``(add ... 1)`` levels around 1."""
    return "(add " * depth + "1" + " 1)" * depth


class OracleError(Exception):
    """The oracle disagrees with a hand-worked answer."""


def self_check() -> None:
    """Check the oracles on the README's examples and hand-worked cases.

    Raises OracleError on the first disagreement.
    """
    bb = ("observe", (7,), ("binomial", (10,), ("beta", 2, 2)))
    bb_posterior = (
        "(binomial (10) (beta (add 2 (sum (7))) (add 2 (sub (sum (10)) (sum (7))))))"
    )
    nested = ("log", ("exp", ("add", 5, 5)))
    model = ("model", ("add", 5, 5), ("log", ("exp", 3)))
    affine = ("add", "mu", ("mul", "sigma", ("normal", 0, 1)))
    sums = ("add", ("normal", 0, 1), ("normal", 2, 3))
    ints = [("int", i) for i in (1, 2, 3)]
    mixed = [("dec", 1.1), ("int", 2), ("dec", 3.2), ("int", 4)]
    everything = list(RULESETS)
    cases = [
        # README: rewrite --rules beta-binomial, and the posterior values 9, 5
        (rewrite_lines(bb, ["beta-binomial"], "walk"), {bb_posterior}),
        (posterior_text("(7)", "(10)", 2, 2), bb_posterior),
        (posterior_values((7,), (10,), 2, 2), (9, 5)),
        # README: rewrite --rules math --mode reduce; (mul 2 5) comes first
        (rewrite_lines(nested, ["math"], "reduce"),
         {"(mul 2 5)", "(add 5 5)", "(log (exp (mul 2 5)))"}),
        (rewrite_lines(nested, ["math"], "walk"), {"(add 5 5)", "(log (exp (mul 2 5)))"}),
        (rewrite_lines(("normal", 0, 1), everything, "walk"), set()),
        (rewrite_lines(model, everything, "walk"),
         {"(model (mul 2 5) (log (exp 3)))", "(model (add 5 5) 3)", "(model (mul 2 5) 3)"}),
        # a symbol is neither a number nor an expression; 2 and 2.0 differ
        (rewrite_lines(("add", "x", "x"), ["math"], "walk"), set()),
        (rewrite_lines(("add", 2, 2.0), ["math"], "walk"), set()),
        (rewrite_lines(affine, ["normal-affine"], "walk"), {"(normal mu (mul sigma sigma))"}),
        (rewrite_lines(("add", "mu", ("mul", "s", ("normal", 0.0, 1))), everything, "walk"),
         set()),
        (rewrite_lines(sums, ["normal-sum"], "walk"), {"(normal (add 0 2) (add 1 3))"}),
        (redex_count(("model", ("add", ("add", 1, 1), ("add", 1, 1)), sums)), 4),
        # README: query (neq ?x 1) (neq ?x 3) (membero ?x (1 2 3)), and typeo integer
        (search_answers({"generator": "membero", "items": ints, "kind": "number",
                         "excluded": [("int", 1), ("int", 3)]}), ["2"]),
        (search_answers({"generator": "membero", "items": mixed, "kind": "integer",
                         "excluded": []}), ["2", "4"]),
        (len(search_answers({"generator": "permuteo", "items": ints, "kind": "cons",
                             "excluded": [tuple(ints)]})), 5),
        (deep_text(2), "(add (add 1 1) 1)"),
    ]
    for i, (got, want) in enumerate(cases):
        if got != want:
            raise OracleError(f"self-check case {i}: got {got!r}, want {want!r}")
