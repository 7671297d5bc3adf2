"""Constraint stores attached to states: disequality and predicate constraints.

Stores are immutable persistent values.  Validation runs after each
successful unification (inside ``eq``'s extension path); a store that can
no longer be satisfied rejects the state by returning None from
:func:`revalidate`.
"""

from __future__ import annotations

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


class DisequalityStore:
    """Prohibited binding-sets: maps of var -> term that must never all be
    entailed by the substitution at once."""

    __slots__ = ("prohibited",)

    KIND = "disequality"

    def __init__(self, prohibited=()):
        self.prohibited = tuple(prohibited)

    def with_set(self, binding_set) -> "DisequalityStore":
        return DisequalityStore(self.prohibited + (tuple(binding_set),))

    def revalidate(self, s: Substitution):
        """Re-check every binding-set; None on violation, pruned store else."""
        kept = []
        for bset in self.prohibited:
            delta = unify_delta(list(bset), s)
            if delta is None:
                continue  # permanently impossible: drop
            if not delta:
                return None  # fully entailed: violated
            kept.append(tuple(delta.items()))
        return DisequalityStore(kept)

    def is_empty(self) -> bool:
        return not self.prohibited


class PredicateStore:
    """Named ground-term predicates attached to terms (usually variables).

    A predicate is decided only once its target is fully ground; until
    then it is retained verbatim.
    """

    __slots__ = ("entries",)

    KIND = "predicate"

    def __init__(self, entries=None):
        self.entries = dict(entries) if entries else {}

    def with_predicates(self, target, names) -> "PredicateStore":
        merged = dict(self.entries)
        merged[target] = merged.get(target, frozenset()) | frozenset(names)
        return PredicateStore(merged)

    def revalidate(self, s: Substitution):
        kept = {}
        for target, names in self.entries.items():
            val = walk_star(target, s)
            if is_ground(val):
                for name in names:
                    if not _PREDICATES[name](val):
                        return None
                continue  # all satisfied: discharge
            kept[target] = kept.get(target, frozenset()) | names
        return PredicateStore(kept)

    def is_empty(self) -> bool:
        return not self.entries


class ConstraintStoreSet:
    """The per-state collection of constraint stores, keyed by kind."""

    __slots__ = ("stores",)

    def __init__(self, stores=None):
        self.stores = dict(stores) if stores else {}

    @classmethod
    def empty(cls) -> "ConstraintStoreSet":
        return cls()

    def get(self, kind: str):
        return self.stores.get(kind)

    def with_store(self, store) -> "ConstraintStoreSet":
        stores = dict(self.stores)
        stores[store.KIND] = store
        return ConstraintStoreSet(stores)

    def revalidate(self, s: Substitution):
        """Revalidate every store; None when any is violated."""
        new_stores = {}
        for kind, store in self.stores.items():
            updated = store.revalidate(s)
            if updated is None:
                return None
            if not updated.is_empty():
                new_stores[kind] = updated
        return ConstraintStoreSet(new_stores)

    def is_empty(self) -> bool:
        return not self.stores


EMPTY_STORES = ConstraintStoreSet.empty()


def revalidate(stores: ConstraintStoreSet, s: Substitution):
    """Module-level revalidation hook used by ``eq`` after each extension."""
    return stores.revalidate(s)


def neq(u, v):
    """A goal prohibiting u and v from ever becoming structurally equal.

    A trial unification decides the store change: failure means the
    disequality already holds (no change); success with no new bindings
    means the terms are already equal (fail); otherwise the delta bindings
    are recorded as a prohibited binding-set.
    """
    u = to_term(u)
    v = to_term(v)

    def neq_goal(state):
        delta = unify_delta([(u, v)], state.subst)
        if delta is None:
            yield state
            return
        if not delta:
            return
        store = state.constraints.get(DisequalityStore.KIND) or DisequalityStore()
        stores = state.constraints.with_store(store.with_set(delta.items()))
        yield state.with_constraints(stores)

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
            if _PREDICATES[kind](val):
                yield state
            return
        target = walk(v, state.subst) if isinstance(v, LogicVar) else v
        store = state.constraints.get(PredicateStore.KIND) or PredicateStore()
        stores = state.constraints.with_store(store.with_predicates(target, (kind,)))
        yield state.with_constraints(stores)

    return type_goal
