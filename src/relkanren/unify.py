"""Triangular substitutions, walking, unification, and reification.

A substitution is a plain dict from LogicVar to Term, never changed after
it is built: :func:`unify` returns a new dict, ``s | delta``.  It is
triangular: a bound value may hold bound variables, which :func:`walk`
resolves, and the occurs check keeps it acyclic.  Every deep operation
(walk_star, unify, occurs, reify) uses explicit work stacks so that
structures hundreds of thousands of cells deep do not exhaust the
interpreter stack.

A variable is its object (see :class:`relkanren.terms.LogicVar`): it
equals only itself, so variables compare by ``is`` and each step of a walk
is one C-level ``dict.get`` with an identity hash.  ``LogicVar.id`` only
orders creation and feeds ``term_hash``.

A ground subterm (see :func:`relkanren.terms.is_ground`) holds no variable,
so the occurs check skips it and walk_star and reify return it as it is,
each in O(1): binding a variable to a large ground value costs no walk of
the value.
"""

from __future__ import annotations

from .terms import Compound, ConsCell, ExprTerm, LogicVar, make_expr, term_from_list


def walk(t, s: dict):
    """Resolve a variable through the substitution's binding chain.

    Shallow: never descends into cons or expression structure.
    """
    while isinstance(t, LogicVar):
        nxt = s.get(t)
        if nxt is None:
            return t
        t = nxt
    return t


def _walk2(t, s: dict, delta: dict):
    while isinstance(t, LogicVar):
        nxt = delta.get(t)
        if nxt is None:
            nxt = s.get(t)
            if nxt is None:
                return t
        t = nxt
    return t


def occurs(v: LogicVar, t, s: dict) -> bool:
    """True iff v appears anywhere in walk_star(t, s)."""
    return _occurs(v, t, s, {})


def _occurs(v, t, s, delta) -> bool:
    stack = [t]
    while stack:
        x = _walk2(stack.pop(), s, delta)
        if getattr(x, "ground", True):
            continue
        if isinstance(x, LogicVar):
            if x is v:
                return True
        elif isinstance(x, ConsCell):
            stack.append(x.car)
            stack.append(x.cdr)
        else:
            stack.extend(x)
    return False


def unify_delta(pairs, s: dict):
    """Unify a sequence of term pairs against s, returning only the new
    bindings as a dict, or None on failure."""
    delta: dict = {}
    stack = list(pairs)
    while stack:
        u, v = stack.pop()
        u = _walk2(u, s, delta)
        v = _walk2(v, s, delta)
        if u is v:
            continue
        if isinstance(u, LogicVar):
            if _occurs(u, v, s, delta):
                return None
            delta[u] = v
        elif isinstance(v, LogicVar):
            if _occurs(v, u, s, delta):
                return None
            delta[v] = u
        elif not (isinstance(u, Compound) and isinstance(v, Compound)):
            if type(u) is not type(v) or u != v:
                return None
        elif type(u) is ExprTerm and type(v) is ExprTerm and len(u) == len(v):
            stack.extend(zip(u, v))
        else:  # pair the cons spines, an expression term read as its own
            if type(u) is not ConsCell:
                u = term_from_list(u)
            if type(v) is not ConsCell:
                v = term_from_list(v)
            stack.append((u.cdr, v.cdr))
            stack.append((u.car, v.car))
    return delta


def term_eq(a, b) -> bool:
    """Structural equality, strict on atom variants: equal terms unify and
    bind nothing.  An expression term equals its cons spine."""
    return unify_delta([(a, b)], {}) == {}


def unify(u, v, s: dict):
    """First-order unification.

    Returns the minimal extension of s making u and v structurally equal
    under walk_star (s itself when nothing binds), or None on clash or
    occurs violation.  Cons cells unify componentwise; expression terms
    unify as (operator . operands) spines; atoms unify by strict variant
    equality.
    """
    delta = unify_delta([(u, v)], s)
    if delta is None:
        return None
    return s | delta if delta else s


def _rebuild(t, s: dict, on_var):
    """Copy t with every variable walked through s, handing each variable
    left unbound to on_var and using its result in the variable's place.

    Visits nodes left to right, depth first.  A ground subterm is returned
    as it is without being visited, and a cons cell or expression term whose
    parts all come back unchanged is kept as is, which also keeps its
    memoized hash.
    """
    get = s.get
    # One frame per compound node being copied: its parts go left to right
    # onto `out`, the node's own from `base` on; `changed` is set once one
    # of them comes back as another object.
    stack = []
    out = []
    node, parts, base, changed = None, iter((t,)), 0, False
    while True:
        for x in parts:
            y = x
            while isinstance(y, LogicVar):
                z = get(y)
                if z is None:
                    y = on_var(y)
                    break
                y = z
            else:  # y is no variable: descend into it unless it is ground
                if not getattr(y, "ground", True):
                    stack.append((node, parts, base, changed or y is not x))
                    node, base, changed = y, len(out), False
                    parts = iter((y.car, y.cdr)) if isinstance(y, ConsCell) else iter(y)
                    break
            if y is not x:
                changed = True
            out.append(y)
        else:
            if not stack:
                return out[0]
            if changed:
                new = out[base:]
                node = ConsCell(*new) if isinstance(node, ConsCell) else make_expr(*new)
            del out[base:]
            out.append(node)
            node, parts, base, up = stack.pop()
            changed = changed or up


def _unchanged(v):
    return v


def walk_star(t, s: dict):
    """Deep walk: resolve variables recursively through cons cells and
    expression-term items, rebuilding structure as needed."""
    return _rebuild(t, s, _unchanged)


_display_vars: dict[int, LogicVar] = {}


def display_var(index: int) -> LogicVar:
    """The variable :func:`reify` puts in place of the index-th unbound one.

    One object per index, shared by every caller (``setdefault`` keeps
    concurrent first calls to one winner), which makes reification
    idempotent and deterministic.  Its id is negative, never one that
    fresh_var issues.
    """
    dv = _display_vars.get(index)
    if dv is None:
        dv = _display_vars.setdefault(index, LogicVar(-1 - index, f"_{index}"))
    return dv


def reify(t, s: dict):
    """walk_star(t, s) with remaining unbound variables replaced by stable
    display variables, numbered in left-to-right encounter order;
    idempotent."""
    names: dict[LogicVar, LogicVar] = {}

    def rename(v):
        dv = names.get(v)
        if dv is None:
            dv = names[v] = display_var(len(names))
        return dv

    return _rebuild(t, s, rename)


def alpha_eq(a, b) -> bool:
    """Structural equality up to a consistent renaming of logic variables.

    Reification renames variables in encounter order, so two terms are
    renamings of each other exactly when their reifications are equal.
    """
    return term_eq(reify(a, {}), reify(b, {}))


__all__ = [
    "walk",
    "walk_star",
    "unify",
    "unify_delta",
    "occurs",
    "reify",
    "display_var",
    "alpha_eq",
    "term_eq",
]
