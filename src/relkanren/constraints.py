"""Disequality and predicate constraints attached to states.

A state's constraints are one immutable pair of tuples
``(prohibited, typed)``.  ``prohibited`` holds the minimal binding-sets,
each a tuple of ``(variable, term)`` pairs, that must never all hold at
once; ``typed`` holds ``(target, predicate name)`` pairs waiting until
their target is ground.  ``neq`` and ``type_constraint`` append to the
pair; after each unification that adds bindings, ``eq`` calls
:func:`revalidate`, which prunes it or rejects the state with None.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from .terms import ConsCell, ExprTerm, LogicVar, Symbol, is_ground, nil, to_term
from .unify import Substitution, unify_delta, walk, walk_star


class UnknownPredicateError(KeyError):
    """A type constraint referenced a predicate name that is not registered."""


def _is_int(t):
    return isinstance(t, int) and not isinstance(t, bool)


def _is_number(t):
    return isinstance(t, (int, float)) and not isinstance(t, bool)


def _is_expr(t):
    return isinstance(t, ExprTerm)


_PREDICATES: dict[str, Callable] = {
    "integer": _is_int,
    "decimal": lambda t: isinstance(t, float),
    "number": _is_number,
    "symbol": lambda t: isinstance(t, Symbol),
    "string": lambda t: isinstance(t, str),
    "boolean": lambda t: isinstance(t, bool),
    "cons": lambda t: isinstance(t, ConsCell),
    "nil": lambda t: t is nil,
    "expr": _is_expr,
    "number-or-expr": lambda t: _is_number(t) or _is_expr(t),
}


def register_predicate(name: str, fn: Callable) -> None:
    """Add a named ground-term predicate to the vocabulary."""
    if name in _PREDICATES:
        raise ValueError(f"predicate already registered: {name}")
    _PREDICATES[name] = fn


def predicate_names():
    return tuple(_PREDICATES)


def revalidate(constraints, s: Substitution):
    """Recheck every constraint after s was extended by a unification.

    Returns the constraints that still wait on unbound variables, or None
    when one is violated.  A binding-set that can no longer all hold is
    dropped; one whose bindings all hold violates its disequality.  A
    predicate whose target has become ground is checked and discharged.
    """
    prohibited, typed = constraints
    kept_sets = []
    for bset in prohibited:
        delta = unify_delta(bset, s)
        if delta is None:
            continue
        if not delta:
            return None
        kept_sets.append(tuple(delta.items()))
    kept_typed = []
    for target, name in typed:
        val = walk_star(target, s)
        if not is_ground(val):
            kept_typed.append((target, name))
        elif not _PREDICATES[name](val):
            return None
    return tuple(kept_sets), tuple(kept_typed)


def neq(u, v):
    """A goal prohibiting u and v from ever becoming structurally equal.

    A trial unification decides what to record: failure means the
    disequality already holds (no change); success with no new bindings
    means the terms are already equal (fail); otherwise the delta bindings
    are recorded as a prohibited binding-set.
    """
    u = to_term(u)
    v = to_term(v)

    def neq_goal(state):
        delta = unify_delta([(u, v)], state.subst)
        if delta is None:
            return (state,)
        if not delta:
            return ()
        prohibited, typed = state.constraints
        return (replace(state, constraints=(prohibited + (tuple(delta.items()),), typed)),)

    return neq_goal


def type_constraint(v, kind: str):
    """A goal requiring v to satisfy the named ground-term predicate.

    Ground targets are checked immediately; fresh or partially ground
    targets carry the predicate until they become ground.
    """
    if kind not in _PREDICATES:
        raise UnknownPredicateError(kind)
    v = to_term(v)

    def type_goal(state):
        val = walk_star(v, state.subst)
        if is_ground(val):
            return (state,) if _PREDICATES[kind](val) else ()
        target = walk(v, state.subst) if isinstance(v, LogicVar) else v
        prohibited, typed = state.constraints
        return (replace(state, constraints=(prohibited, typed + ((target, kind),))),)

    return type_goal
