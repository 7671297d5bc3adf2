"""Disequality and type constraints attached to states.

A state's constraints are one immutable index, a dict never mutated once
built, from each unbound variable to the constraints that watch it.  A
constraint is a triple of one of two kinds:

- a disequality ``(bset, None, watched)`` has as bset its minimal
  binding-set, a tuple of ``(variable, term)`` pairs that must never all
  hold at once;
- a domain ``(types, excluded, (v,))`` says what its one variable v may
  become: a term whose root's exact type is in the frozenset types (any
  type when types is None) and that is no ground value of the dict
  excluded, keyed by :func:`~relkanren.terms.variant_key`.  A type
  constraint on a variable narrows types; a disequality whose
  binding-set is one binding of a variable to a ground value joins
  excluded.  A variable has at most one domain, so once it is bound one
  type test and one ``in`` test decide all of them.  A predicate is a
  set of exact root types (as ``unify_delta`` keeps atoms of distinct
  types apart), and types meet by intersection: an empty one fails only
  when its variable is bound.

The invariant: a live constraint is registered under exactly its
``watched`` variables, and nothing else is: for a disequality the
variables left unbound in ``walk_star`` of its binding-set (variables and
values alike), for a domain its one variable alone.  A binding of a
variable outside the index therefore cannot change any constraint's
outcome, so after a unification :func:`revalidate` rechecks only the
constraints on the variables it bound (the design of cKanren's attributed
variables).
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


def _with_constraint(state, add, *args):
    index = dict(state.constraints)
    add(index, *args)
    return (state.__class__(state.subst, index),)


def _restrict(index: dict, v, types, excluded: dict) -> None:
    """Narrow v's domain in index to the root types in types (None admits
    any) and away from the ground values in excluded."""
    cs = index.get(v, ())
    for i, c in enumerate(cs):
        if c[1] is not None:
            if c[0] is not None:
                types = c[0] if types is None else c[0] & types
            index[v] = cs[:i] + ((types, c[1] | excluded, (v,)),) + cs[i + 1:]
            return
    index[v] = cs + ((types, excluded, (v,)),)


def _post(index: dict, bset, s: dict) -> None:
    """Register the disequality on binding-set bset in index: in its
    variable's domain when it binds one variable to a ground value, else
    under the distinct variables left unbound in walk_star of its
    variables and values."""
    if len(bset) == 1:
        v, t = bset[0]
        if getattr(t, "ground", True):
            _restrict(index, v, None, {variant_key(t): t})
            return
    seen = {}

    def note(v):
        seen[v] = None
        return v

    for pair in bset:
        for t in pair:
            _rebuild(t, s, note)
    c = (bset, None, tuple(seen))
    for v in seen:
        index[v] = index.get(v, ()) + (c,)


def revalidate(index: dict, s: dict, delta: dict):
    """Recheck the constraints on the variables that delta newly bound in s.

    Returns the index of the constraints that still wait on unbound
    variables (the same object when delta touches none), or None when
    one is violated.  A binding-set that can no longer all hold is
    dropped; one whose bindings all hold violates its disequality.  A
    domain whose variable's new root is a variable narrows that
    variable's domain.  Any other root must have an admitted type; then a
    ground root is decided by one lookup, and each excluded value of a
    domain on an open compound root is rechecked as a binding-set of its
    own.  Every other rechecked disequality is registered anew under the
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
    for c in hits.values():
        if c[1] is None:
            bsets = (c[0],)
        else:
            types, excluded, (v,) = c
            root = walk(v, s)
            if type(root) is LogicVar:
                _restrict(index, root, types, excluded)
                continue
            if types is not None and type(root) not in types:
                return None
            if getattr(root, "ground", True):
                if variant_key(root) in excluded:
                    return None
                continue
            bsets = [((v, t),) for t in excluded.values()]
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
    are recorded as a prohibited binding-set, or as one more value their
    variable's domain excludes when they bind one variable to a ground
    value.
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
    admits: decided at once when the root is not a variable, else
    narrowing the root variable's domain until it is bound."""
    if kind not in _PREDICATES:
        raise UnknownPredicateError(kind)
    types = _PREDICATES[kind]
    v = to_term(v)

    def type_goal(state):
        root = walk(v, state.subst)
        if type(root) is LogicVar:
            return _with_constraint(state, _restrict, root, types, {})
        return (state,) if type(root) in types else ()

    return type_goal
