"""Disequality and type constraints attached to states.

A state's constraints are one immutable index, a dict never mutated once
built, from each unbound variable to the constraints that watch it.  A
constraint is a triple ``(name, term, watched)`` of one of three kinds:

- a disequality has name None and as term its minimal binding-set, a
  tuple of ``(variable, term)`` pairs that must never all hold at once;
- an exclusion record has name ``_EXCLUDED`` and as term a dict from
  :func:`~relkanren.terms.variant_key` to each ground value its variable
  may never take.  It holds every disequality whose binding-set is one
  binding of a variable to a ground value, and a variable has at most
  one, so a ground binding decides them all with one ``in`` test;
- a type constraint has the predicate name and as term its target's
  root, a variable.  A predicate is the set of exact root types it admits
  (as ``unify_delta`` keeps atoms of distinct types apart), so a target is
  decided by its root's exact type as soon as that root is not a variable.

The invariant: a live constraint is registered under exactly its
``watched`` variables, and nothing else is: for a disequality the
variables left unbound in ``walk_star`` of its binding-set (variables and
values alike), for an exclusion record and a type constraint their one
variable alone.  A binding of a variable outside the index therefore
cannot change any constraint's outcome, so after a unification
:func:`revalidate` rechecks only the constraints on the variables it bound
(the design of cKanren's attributed variables).
"""

from __future__ import annotations

from .terms import ConsCell, ExprTerm, LogicVar, Symbol, nil, to_term, variant_key
from .unify import _rebuild, unify_delta, walk


class UnknownPredicateError(KeyError):
    """A type constraint referenced a predicate name that is not defined."""


_PREDICATES: dict[str, frozenset] = {
    "integer": frozenset({int}),
    "decimal": frozenset({float}),
    "number": frozenset({int, float}),
    "symbol": frozenset({Symbol}),
    "string": frozenset({str}),
    "boolean": frozenset({bool}),
    "cons": frozenset({ConsCell}),
    "nil": frozenset({type(nil)}),
    "expr": frozenset({ExprTerm}),
    "number-or-expr": frozenset({int, float, ExprTerm}),
}


def predicate_names():
    return tuple(_PREDICATES)


_EXCLUDED = "=/="


def _diseq(bset, s: dict):
    """The disequality on binding-set bset under s, watching the distinct
    variables left unbound in walk_star of its variables and values."""
    seen = {}

    def note(v):
        seen[v] = None
        return v

    for pair in bset:
        for t in pair:
            _rebuild(t, s, note)
    return None, bset, tuple(seen)


def _register(index: dict, constraint) -> None:
    for v in constraint[2]:
        index[v] = index.get(v, ()) + (constraint,)


def _with_constraint(state, add, *args):
    index = dict(state.constraints)
    add(index, *args)
    return (state.__class__(state.subst, index),)


def _exclude(index: dict, v, record: dict) -> None:
    """Merge record into v's exclusion record in index."""
    cs = index.get(v, ())
    for i, c in enumerate(cs):
        if c[0] is _EXCLUDED:
            index[v] = cs[:i] + ((_EXCLUDED, c[1] | record, (v,)),) + cs[i + 1:]
            return
    index[v] = cs + ((_EXCLUDED, record, (v,)),)


def _post(index: dict, bset, s: dict) -> None:
    """Register the disequality on binding-set bset in index: in its
    variable's exclusion record when it binds one variable to a ground
    value, else under the variables it watches."""
    if len(bset) == 1:
        v, t = bset[0]
        if getattr(t, "ground", True):
            _exclude(index, v, {variant_key(t): t})
            return
    _register(index, _diseq(bset, s))


def revalidate(index: dict, s: dict, delta: dict):
    """Recheck the constraints on the variables that delta newly bound in s.

    Returns the index of the constraints that still wait on unbound
    variables (the same object when delta touches none), or None when
    one is violated.  A binding-set that can no longer all hold is
    dropped; one whose bindings all hold violates its disequality.  An
    exclusion record whose variable's new root is a variable merges into
    that variable's record; a ground root is decided by one lookup; each
    value of a record on an open compound root is rechecked as a
    binding-set of its own.  A type constraint is decided by its new
    root's exact type unless that root is a variable.  Every other
    rechecked constraint is registered anew under the variables it now
    watches.
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
    for name, term, watched in hits.values():
        if name is None:
            bsets = (term,)
        elif name is _EXCLUDED:
            v = watched[0]
            root = walk(v, s)
            if type(root) is LogicVar:
                _exclude(index, root, term)
                continue
            if getattr(root, "ground", True):
                if variant_key(root) in term:
                    return None
                continue
            bsets = [((v, t),) for t in term.values()]
        else:
            root = walk(term, s)
            if type(root) is LogicVar:
                _register(index, (name, root, (root,)))
            elif type(root) not in _PREDICATES[name]:
                return None
            continue
        for bset in bsets:
            bset = unify_delta(bset, s)
            if bset is None:
                continue
            if not bset:
                return None
            _post(index, tuple(bset.items()), s)
    return index


def neq(u, v):
    """A goal prohibiting u and v from ever becoming structurally equal.

    A trial unification decides what to record: failure means the
    disequality already holds (no change); success with no new bindings
    means the terms are already equal (fail); otherwise the delta bindings
    are recorded as a prohibited binding-set, or as one more value in
    their variable's exclusion record when they bind one variable to a
    ground value.
    """
    u = to_term(u)
    v = to_term(v)

    def neq_goal(state):
        delta = unify_delta([(u, v)], state.subst)
        if delta is None:
            return (state,)
        if not delta:
            return ()
        return _with_constraint(state, _post, tuple(delta.items()), state.subst)

    return neq_goal


def type_constraint(v, kind: str):
    """A goal requiring the root of v to be of a type the named predicate
    admits: decided at once when the root is not a variable, else carried
    on the root variable until it is bound."""
    if kind not in _PREDICATES:
        raise UnknownPredicateError(kind)
    types = _PREDICATES[kind]
    v = to_term(v)

    def type_goal(state):
        root = walk(v, state.subst)
        if type(root) is LogicVar:
            return _with_constraint(state, _register, (kind, root, (root,)))
        return (state,) if type(root) in types else ()

    return type_goal
