"""Disequality and predicate constraints attached to states.

A state's constraints are one immutable index, a dict never mutated once
built, from each unbound variable to the constraints that watch it.  A
constraint is a triple ``(name, term, watched)``: a disequality has name
None and as term its minimal binding-set, a tuple of ``(variable, term)``
pairs that must never all hold at once; a type constraint has the
predicate name and as term its target, waiting until it is ground.

The invariant: a live constraint is registered under exactly the
variables left unbound in ``walk_star`` of its term (a binding-set's
variables and values alike), its ``watched`` tuple, and nothing else is.
A binding of a variable outside the index therefore cannot change any
constraint's outcome, so after a unification :func:`revalidate` rechecks
only the constraints on the variables it bound (the design of cKanren's
attributed variables).
"""

from __future__ import annotations

from typing import Callable

from .terms import ConsCell, ExprTerm, Symbol, nil, to_term
from .unify import _rebuild, unify_delta


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


def _constraint(name, term, s: dict):
    """The constraint ``(name, term, watched)`` under s: a predicate's
    target is replaced by its walk_star, and watched holds the distinct
    variables left unbound in walk_star of the term.  Only a ground
    target watches nothing."""
    seen = {}

    def note(v):
        seen[v] = None
        return v

    if name is None:
        for pair in term:
            for t in pair:
                _rebuild(t, s, note)
    else:
        term = _rebuild(term, s, note)
    return name, term, tuple(seen)


def _register(index: dict, constraint) -> None:
    for v in constraint[2]:
        index[v] = index.get(v, ()) + (constraint,)


def _with_constraint(state, constraint):
    index = dict(state.constraints)
    _register(index, constraint)
    return (state.__class__(state.subst, index),)


def revalidate(index: dict, s: dict, delta: dict):
    """Recheck the constraints on the variables that delta newly bound in s.

    Returns the index of the constraints that still wait on unbound
    variables (the same object when delta touches none), or None when
    one is violated.  A binding-set that can no longer all hold is
    dropped; one whose bindings all hold violates its disequality.  A
    predicate whose target has become ground is checked and discharged.
    Every other rechecked constraint is registered anew under the
    variables it now watches.
    """
    if not index:
        return index
    hits = {}
    for v in delta:
        for c in index.get(v, ()):
            hits[id(c)] = c
    if not hits:
        return index
    index = dict(index)
    # every hit is registered under each variable it watches, the bound
    # ones included, and under nothing else
    for v in {w for c in hits.values() for w in c[2]}:
        rest = tuple(c for c in index.pop(v) if id(c) not in hits)
        if rest:
            index[v] = rest
    for name, term, _ in hits.values():
        if name is None:
            bset = unify_delta(term, s)
            if bset is None:
                continue
            if not bset:
                return None
            term = tuple(bset.items())
        c = _constraint(name, term, s)
        if c[2]:
            _register(index, c)
        elif not _PREDICATES[name](c[1]):
            return None
    return index


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
        return _with_constraint(state, _constraint(None, tuple(delta.items()), state.subst))

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
        c = _constraint(kind, v, state.subst)
        if not c[2]:
            return (state,) if _PREDICATES[kind](c[1]) else ()
        return _with_constraint(state, c)

    return type_goal
