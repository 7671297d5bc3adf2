"""Relational building blocks for term rewriting.

List relations (conso, membero), permutation matching, fixed-point
reduction, whole-graph walking, the head key by which a ruleset
indexes its records, and commutative argument matching.
"""

from __future__ import annotations

import itertools
from collections import Counter

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
    spine,
    spine_elements,
    term_from_list,
    to_term,
    variant_key,
)
from .goals import conde, delay, eq, lall
from .unify import walk, walk_star


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


def _distinct_permutations(items):
    """Each ordering of items once, in itertools.permutations order.

    An ordering first comes up there at the one index order in which equal
    items (equal variant_key) keep their given order, so no ordering is stored.
    """
    last = {}
    before = []  # before[i]: the index of the last item ahead of i equal to it, or -1
    for i, x in enumerate(items):
        k = variant_key(x)
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
    enumerates permutations of the ground side.  A side that can never be
    a proper list (an atom, or a spine ending in one) fails.  Two sides
    whose spines both end in a variable raise GroundednessError instead
    of diverging.
    """
    a = to_term(a)
    b = to_term(b)

    def permuteo_goal(state):
        aw = walk_star(a, state.subst)
        bw = walk_star(b, state.subst)
        (a_elems, a_tail), (b_elems, b_tail) = spine(aw), spine(bw)
        if not all(t is nil or t.__class__ is LogicVar for t in (a_tail, b_tail)):
            return
        if a_tail is nil and b_tail is nil:
            if len(a_elems) != len(b_elems):
                return
            if is_ground(aw) and is_ground(bw):
                if Counter(map(variant_key, a_elems)) == Counter(map(variant_key, b_elems)):
                    yield state
                return
        if a_tail is not nil and b_tail is not nil:
            raise GroundednessError(
                "permuteo needs at least one argument with a known list spine"
            )
        if a_tail is nil:
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

    Descent reads a side that walks to an application with a proper
    operand list (x first, then y): the other side is bound once to its
    operator over fresh operands, and the operand pairs relate in one
    conjunction, each built only when its turn comes and without the
    descent disjunct where either side is an atom.  Where neither side is
    known, or the known side's operand list has an open tail, descent
    stays relational and builds the other side one pair at a time.  The
    answers and their order are those of the relational descent.

    Descent into a side that is already an application must rewrite at
    least one operand.  Leaving every operand unchanged would give back
    the term that the equality disjunct gives, so a node with n rewritable
    operands would stream 3^n+1 answers for its 2^n distinct ones, and a
    d-deep term would cost O(d^2) search.  Descent into two fresh sides
    may still leave every operand unchanged: that answer, one application
    on both sides, is more specific than equality's one shared variable.
    The disjuncts keep their order and every pruned branch gave the
    equality answer again, so on operand lists with proper spines the
    other answers come in the order of their first occurrence under
    unrestricted descent.  Below an operand list with an open tail a
    pruned branch gave instances with nothing rewritten, which took turns
    there, so the rewrites may come earlier than under unrestricted
    descent.  Two positions that rewrite to the same term still give it
    twice.
    """

    def step(x, y, changed, descend=True):
        # changed: the enclosing node's flag, bound to True once the rule
        # rewrites one of its operands, here or below; equality leaves it.
        # descend False drops the descent disjunct, which would fail at once
        rule = [eq(changed, True), rel(x, y)]
        if not descend:
            return conde(rule, [eq(x, y)])
        return conde(rule, [eq(changed, True), lambda state: _descend(x, y, state)], [eq(x, y)])

    def _descend(x, y, state):
        wx, wy = walk(x, state.subst), walk(y, state.subst)
        known = wx if is_application(wx) else wy if is_application(wy) else None
        elems = None if known is None else spine_elements(known)
        if elems is None:
            # two fresh sides may keep every operand, as their identity is
            # not the equality disjunct's answer: their node counts as changed
            changed, dy = True if known is None else fresh_var(), fresh_var()
            return _pair(x, lambda rator, dx: lall(conso(rator, dy, y), _rands(dx, dy, changed)))
        rator, *ops = elems
        fresh = [fresh_var() for _ in ops]
        xs, ys = (ops, fresh) if known is wx else (fresh, ops)
        return lall(eq(y if known is wx else x, cons(rator, term_from_list(fresh))),
                    _operands(xs, ys, 0, fresh_var(), state.subst))

    def _operands(xs, ys, i, changed, s):
        # operand i's step, then a goal that builds the next one's; an atom
        # on either side in s (bindings only grow) cannot be descended into
        if i == len(xs):
            return _rewritten(changed)
        x, y = xs[i], ys[i]
        descend = all(w.__class__ is LogicVar or is_application(w) for w in (walk(x, s), walk(y, s)))
        return lall(step(x, y, changed, descend),
                    lambda state: _operands(xs, ys, i + 1, changed, state.subst))

    def _rands(dx, dy, changed):
        return conde(
            [eq(dx, nil), eq(dy, nil), _rewritten(changed)],
            [_pair(dx, lambda hx, tx: _pair(dy, lambda hy, ty: lall(
                step(hx, hy, changed), _rands(tx, ty, changed))))],
        )

    def _rewritten(changed):
        return lambda state: (state,) if walk(changed, state.subst) is True else ()

    return step(to_term(u), to_term(v), fresh_var())


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
