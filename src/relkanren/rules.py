"""Statistical-model rewrite rules as bidirectional relations.

Each rule is data: a record of a left pattern, a right template and guards
over the random-variable vocabulary (normal, beta, binomial, observe) plus
arithmetic, read from an s-expression once at import.
:func:`relkanren.relations.compile_rules` turns a ruleset, an ordered
tuple of records, into a goal that only unifies, so both argument orders
work: run a rule forward to simplify a model term, or backward to
recognize or expand one.

The normal distribution is parameterized by mean and variance (not
standard deviation).  Data vectors are proper lists; ``sum`` reduces a
list (or passes a scalar through).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .exprs import OperatorDef, OperatorRegistry, builtin_registry
from .relations import Rule, compile_rules
from .sexpr import parse_sexpr
from .terms import Symbol, list_from_term

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


def install_rv_operators(reg: OperatorRegistry) -> OperatorRegistry:
    """Register the random-variable vocabulary (symbolic-only operators)."""
    reg.register(OperatorDef("normal", 2, None))
    reg.register(OperatorDef("beta", 2, None))
    reg.register(OperatorDef("binomial", 2, None))
    reg.register(OperatorDef("observe", 2, None))
    return reg


def default_registry() -> OperatorRegistry:
    """Arithmetic plus the random-variable vocabulary."""
    return install_rv_operators(builtin_registry())


def record(text: str) -> Rule:
    """The record read from ``(lhs rhs guard...)``, each guard a list
    ``(predicate-name ?variable)``."""
    lhs, rhs, *guards = list_from_term(parse_sexpr(text, registry=default_registry()))
    return Rule(lhs, rhs, tuple((v, p.name) for p, v in map(list_from_term, guards)))


# add(x, x) == mul(2, x) and log(exp(x)) == x, x a number or an expression
math_reduce_rule = compile_rules(
    record("((add ?x ?x) (mul 2 ?x) (number-or-expr ?x))"),
    record("((log (exp ?x)) ?x (number-or-expr ?x))"),
)
# sum of independent normals
normal_sum_rule = compile_rules(record(
    "((add (normal ?mx ?vx) (normal ?my ?vy)) (normal (add ?mx ?my) (add ?vx ?vy)))"))
# one direction non-centers a model (the funnel fix); the other
# recognizes a term's distribution type
normal_affine_rule = compile_rules(record(
    "((add ?mu (mul ?sigma (normal 0 1))) (normal ?mu (mul ?sigma ?sigma)))"))
# in sum form: the posterior parameters evaluate to (a + y, b + N - y)
beta_binomial_conjugate = compile_rules(record(
    "((observe ?obs (binomial ?N (beta ?a ?b)))"
    " (binomial ?N (beta (add ?a (sum ?obs)) (add ?b (sub (sum ?N) (sum ?obs))))))"))


@dataclass(frozen=True)
class RuleSet:
    """A named bidirectional rewrite relation."""

    name: str
    rule: Callable
    description: str


def builtin_rulesets() -> dict[str, RuleSet]:
    """The stable name -> rule mapping exposed through the CLI.  It looks
    the rules up at each call."""
    return {
        "math": RuleSet(
            "math", math_reduce_rule, "add(x, x) == mul(2, x); log(exp(x)) == x"
        ),
        "normal-sum": RuleSet(
            "normal-sum", normal_sum_rule, "sum of independent normals"
        ),
        "normal-affine": RuleSet(
            "normal-affine", normal_affine_rule, "affine transform of a standard normal"
        ),
        "beta-binomial": RuleSet(
            "beta-binomial", beta_binomial_conjugate, "beta-binomial conjugacy"
        ),
    }
