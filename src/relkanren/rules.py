"""Statistical-model rewrite rules as bidirectional relations.

Each rule is data: a record of a left pattern, a right template and guards
over the random-variable vocabulary (normal, beta, binomial, observe) plus
arithmetic, read from an s-expression once at import.  A :class:`RuleSet`
turns an ordered tuple of records into a goal constructor whose goal only
unifies, so both argument orders work: run a rule forward to simplify a
model term, or backward to recognize or expand one.

The normal distribution is parameterized by mean and variance (not
standard deviation).  Data vectors are proper lists; ``sum`` reduces a
list (or passes a scalar through).
"""

from __future__ import annotations

from typing import NamedTuple

from .constraints import type_constraint
from .exprs import OperatorDef, builtin_registry
from .goals import unify_state
from .relations import _head
from .sexpr import parse_sexpr
from .terms import Symbol, fresh_var, list_from_term, to_term
from .unify import _rebuild, walk

ADD = Symbol("add")
SUB = Symbol("sub")
MUL = Symbol("mul")
LOG = Symbol("log")
EXP = Symbol("exp")
SUM = Symbol("sum")
NORMAL = Symbol("normal")
BETA = Symbol("beta")
BINOMIAL = Symbol("binomial")
OBSERVE = Symbol("observe")


def default_registry():
    """Arithmetic plus the random-variable vocabulary (symbolic-only operators)."""
    reg = builtin_registry()
    for name in ("normal", "beta", "binomial", "observe"):
        reg.register(OperatorDef(name, 2, None))
    return reg


class Rule(NamedTuple):
    """A rewrite record: ``lhs`` relates to ``rhs`` where each guard
    ``(variable, predicate name)`` holds.  Its variables are renamed fresh
    at every use."""

    lhs: object
    rhs: object
    guards: tuple


def record(text: str) -> Rule:
    """The record read from ``(lhs rhs guard...)``, each guard a list
    ``(predicate-name ?variable)``."""
    lhs, rhs, *guards = list_from_term(parse_sexpr(text, registry=default_registry()))
    return Rule(lhs, rhs, tuple((v, p.name) for p, v in map(list_from_term, guards)))


def _apply(r: Rule, u, v, state):
    """The state in which u is r's pattern and v its template, renamed
    fresh, with r's guards on, or None."""
    fresh = {}

    def twin(x):  # x's fresh twin, made on first sight
        t = fresh.get(x)
        if t is None:
            t = fresh[x] = fresh_var(x.hint)
        return t

    lhs, rhs = _rebuild(r.lhs, {}, twin), _rebuild(r.rhs, {}, twin)
    for x, pred in r.guards:  # on a fresh variable, so it waits: one state
        (state,) = type_constraint(twin(x), pred)(state)
    return unify_state(state, [(v, rhs), (u, lhs)])  # u unifies first


class RuleSet:
    """An ordered tuple of records as one bidirectional rewrite relation:
    ``rs(u, v)`` is its goal.

    The goal is a leaf.  It walks u and v once and admits a record only if
    each side's head key can be its pattern's (or template's) head; None,
    a variable's key, admits any.  An admitted record yields at most one
    state.  A rejected record could only fail, so the answers and their
    order are those of the records' disjunction, and a call that admits no
    record makes no variable and no term.
    """

    def __init__(self, description: str, *records: Rule):
        self.description = description
        self._index = [(_head(r.lhs, {}), _head(r.rhs, {}), r) for r in records]

    def __call__(self, u, v):
        u, v = to_term(u), to_term(v)
        index = self._index

        def rule_goal(state):
            s = state.subst
            hu, hv = _head(walk(u, s), s), _head(walk(v, s), s)
            hits = [r for lh, rh, r in index
                    if not (hu and lh and hu != lh or hv and rh and hv != rh)]
            if len(hits) > 1:
                # as in a disjunction, a record runs only when its turn comes
                return filter(None, (_apply(r, u, v, state) for r in hits))
            st = _apply(hits[0], u, v, state) if hits else None
            return () if st is None else (st,)

        return rule_goal


math_reduce_rule = RuleSet(
    "add(x, x) == mul(2, x); log(exp(x)) == x",
    record("((add ?x ?x) (mul 2 ?x) (number-or-expr ?x))"),
    record("((log (exp ?x)) ?x (number-or-expr ?x))"),
)
normal_sum_rule = RuleSet("sum of independent normals", record(
    "((add (normal ?mx ?vx) (normal ?my ?vy)) (normal (add ?mx ?my) (add ?vx ?vy)))"))
# one direction non-centers a model (the funnel fix); the other
# recognizes a term's distribution type
normal_affine_rule = RuleSet("affine transform of a standard normal", record(
    "((add ?mu (mul ?sigma (normal 0 1))) (normal ?mu (mul ?sigma ?sigma)))"))
# in sum form: the posterior parameters evaluate to (a + y, b + N - y)
beta_binomial_conjugate = RuleSet("beta-binomial conjugacy", record(
    "((observe ?obs (binomial ?N (beta ?a ?b)))"
    " (binomial ?N (beta (add ?a (sum ?obs)) (add ?b (sub (sum ?N) (sum ?obs))))))"))


def builtin_rulesets() -> dict[str, RuleSet]:
    """The stable name -> ruleset mapping exposed through the CLI.  It looks
    the rulesets up at each call."""
    return {
        "math": math_reduce_rule,
        "normal-sum": normal_sum_rule,
        "normal-affine": normal_affine_rule,
        "beta-binomial": beta_binomial_conjugate,
    }
