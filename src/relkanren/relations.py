"""Relational building blocks for term rewriting.

List relations (conso, membero), permutation matching, fixed-point
reduction, whole-graph walking, rewrite rules compiled from records,
and commutative argument matching.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Callable, NamedTuple

from .constraints import type_constraint
from .exprs import OperatorRegistry
from .terms import (
    ConsCell,
    ExprTerm,
    LogicVar,
    Symbol,
    car,
    cdr,
    cons,
    fresh_var,
    is_application,
    is_ground,
    nil,
    spine_elements,
    term_from_list,
    to_term,
)
from .goals import conde, delay, eq, lall, unify_state
from .unify import EMPTY_SUBST, _rebuild, walk, walk_star


class GroundednessError(Exception):
    """A relation was applied in a mode that would diverge (e.g. permuteo
    with both arguments fresh)."""


def conso(a, d, pair):
    """Holds iff pair == cons(a, d)."""
    return eq(cons(to_term(a), to_term(d)), pair)


def _pair(t, body):
    """The goal body(car, cdr) of the pair t walks to, binding nothing; a
    variable t is bound to a pair of fresh variables first; else fail."""

    def pair_goal(state):
        w = walk(t, state.subst)
        if is_application(w):
            return body(car(w), cdr(w))
        if w.__class__ is not LogicVar:
            return ()
        h, tl = fresh_var(), fresh_var()
        return lall(eq(w, cons(h, tl)), body(h, tl))

    return pair_goal


def membero(x, coll):
    """Holds iff x unifies with some element of the proper list coll."""
    x = to_term(x)
    return _pair(to_term(coll), lambda h, t: conde([eq(h, x)], [membero(x, t)]))


def _key(t):
    """A dict key for t that is strict on atom variants.  A compound term
    is its own key, since its equality already is; an atom is keyed with
    its type, so 2, 2.0 and #t are three keys."""
    return t if is_application(t) else (type(t), t)


def _distinct_permutations(items):
    """Each ordering of items once, in itertools.permutations order.

    An ordering first comes up there at the one index order in which equal
    items (equal _key) keep their given order, so no ordering is stored.
    """
    last = {}
    before = []  # before[i]: the index of the last item ahead of i equal to it, or -1
    for i, x in enumerate(items):
        k = _key(x)
        before.append(last.get(k, -1))
        last[k] = i
    for order in itertools.permutations(range(len(items))):
        placed = {-1}
        for i in order:
            if before[i] not in placed:
                break
            placed.add(i)
        else:
            yield tuple(items[i] for i in order)


def permuteo(a, b):
    """Holds iff a and b are proper lists that are multiset-equal.

    Ground/ground uses a direct multiset comparison; ground/fresh
    enumerates permutations of the ground side.  Both-fresh arguments
    raise GroundednessError instead of diverging.
    """
    a = to_term(a)
    b = to_term(b)

    def permuteo_goal(state):
        aw = walk_star(a, state.subst)
        bw = walk_star(b, state.subst)
        a_elems = spine_elements(aw)
        b_elems = spine_elements(bw)
        if a_elems is not None and b_elems is not None:
            if len(a_elems) != len(b_elems):
                return
            if is_ground(aw) and is_ground(bw):
                if Counter(map(_key, a_elems)) == Counter(map(_key, b_elems)):
                    yield state
                return
        if a_elems is None and b_elems is None:
            raise GroundednessError(
                "permuteo needs at least one argument with a known list spine"
            )
        if a_elems is not None:
            src, dst = a_elems, bw
        else:
            src, dst = b_elems, aw
        for perm in _distinct_permutations(src):
            yield from eq(term_from_list(perm), dst)(state)

    return permuteo_goal


def reduceo(rel, u, v):
    """Holds iff v is reachable from u by one or more applications of rel.

    The deeper-reduction branch is tried first, so the first answer for a
    ground u is its most-reduced reachable form.
    """
    v = to_term(v)
    step = fresh_var()
    return lall(
        rel(to_term(u), step),
        conde(
            [delay(lambda: reduceo(rel, step, v))],
            [eq(step, v)],
        ),
    )


def walko(rel, u, v):
    """Relate whole term graphs by applying rel at any position.

    Disjuncts in order: the relation at the root; descent into
    application-shaped terms (both sides share the operator, and the
    operand lists relate elementwise with fresh tails permitted); plain
    equality.

    Descent into a side that is already an application must rewrite at
    least one operand.  Leaving every operand unchanged would give back
    the term that the equality disjunct gives, so a node with n rewritable
    operands would stream 3^n+1 answers for its 2^n distinct ones, and a
    d-deep term would cost O(d^2) search.  Descent into two fresh sides
    may still leave every operand unchanged: that answer, one application
    on both sides, is more specific than equality's one shared variable.
    The disjuncts keep their order and every pruned branch gave the
    equality answer again (or, below an operand list with an open tail,
    an instance of it with nothing rewritten), so the other answers come
    in the order of their first occurrence under unrestricted descent.
    Two positions that rewrite to the same term still give it twice.
    """

    def step(x, y, changed):
        # changed: the enclosing node's flag, bound to True once the rule
        # rewrites one of its operands, here or below; equality leaves it
        return conde(
            [eq(changed, True), delay(lambda: rel(x, y))],
            [eq(changed, True), lambda state: _descend(x, y, state)],
            [eq(x, y)],
        )

    def _descend(x, y, state):
        # two fresh sides may keep every operand, as their identity is not
        # the equality disjunct's answer: their node counts as changed
        known = any(is_application(walk(t, state.subst)) for t in (x, y))
        changed, dy = fresh_var() if known else True, fresh_var()
        return _pair(x, lambda rator, dx: lall(conso(rator, dy, y), _rands(dx, dy, changed)))

    def _rands(dx, dy, changed):
        def rewritten(state):
            return (state,) if walk(changed, state.subst) is True else ()

        return conde(
            [eq(dx, nil), eq(dy, nil), rewritten],
            [_pair(dx, lambda hx, tx: _pair(dy, lambda hy, ty: lall(
                step(hx, hy, changed), _rands(tx, ty, changed))))],
        )

    return step(to_term(u), to_term(v), fresh_var())


class Rule(NamedTuple):
    """A rewrite record: ``lhs`` relates to ``rhs`` where each guard
    ``(variable, predicate name)`` holds.  Its variables are renamed fresh
    at every use."""

    lhs: object
    rhs: object
    guards: tuple


_NO_HEAD = object()


def _head(t, s):
    """The head key of a walked term: its root operator's name; None when
    any operator may still come (a variable, or an application headed by
    one); _NO_HEAD when none can (an atom, or another head)."""
    cls = t.__class__
    if cls is not ExprTerm and cls is not ConsCell:
        return None if cls is LogicVar else _NO_HEAD
    t = walk(t.car if cls is ConsCell else tuple.__getitem__(t, 0), s)
    if t.__class__ is Symbol:
        return t.name
    return None if t.__class__ is LogicVar else _NO_HEAD


def _apply(r: Rule, u, v, state):
    """The state in which u is r's pattern and v its template, renamed
    fresh, with r's guards on, or None."""
    fresh = {}

    def twin(x):  # x's fresh twin, made on first sight
        t = fresh.get(x)
        if t is None:
            t = fresh[x] = fresh_var(x.hint)
        return t

    lhs, rhs = _rebuild(r.lhs, EMPTY_SUBST, twin), _rebuild(r.rhs, EMPTY_SUBST, twin)
    for x, pred in r.guards:  # on a fresh variable, so it waits: one state
        (state,) = type_constraint(twin(x), pred)(state)
    return unify_state(state, [(v, rhs), (u, lhs)])  # u unifies first


def compile_rules(*records: Rule) -> Callable:
    """The ``rule(u, v)`` goal constructor of an ordered tuple of records.

    The goal is a leaf.  It walks u and v once and admits a record only if
    each side's head key can be its pattern's (or template's) head; None,
    a variable's key, admits any.  An admitted record yields at most one
    state.  A rejected record could only fail, so the answers and their
    order are those of the records' disjunction, and a call that admits no
    record makes no variable and no term.
    """
    index = [(_head(r.lhs, EMPTY_SUBST), _head(r.rhs, EMPTY_SUBST), r) for r in records]

    def rule(u, v):
        u, v = to_term(u), to_term(v)

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

    return rule


def eq_comm(u, v, reg: OperatorRegistry):
    """Like eq, but when both sides apply the same commutative registry
    operator and both operand lists have a known spine, the operand lists
    match up to permutation through :func:`permuteo`.

    Associativity is not handled.
    """
    u = to_term(u)
    v = to_term(v)

    def eq_comm_goal(state):
        s = state.subst
        uw = walk(u, s)
        vw = walk(v, s)
        op = _head(uw, s)
        if op.__class__ is str and op == _head(vw, s) and op in reg and reg.get(op).commutative:
            ru = walk_star(cdr(uw), s)
            rv = walk_star(cdr(vw), s)
            if spine_elements(ru) is not None and spine_elements(rv) is not None:
                return permuteo(ru, rv)
        return eq(u, v)

    return eq_comm_goal
