"""Triangular substitutions, walking, unification, and reification.

Substitutions are persistent: extension returns a new value.  Every deep
operation (walk_star, unify, occurs, reify) uses explicit work stacks so
that structures hundreds of thousands of cells deep do not exhaust the
interpreter stack.

A ground subterm (see :func:`relkanren.terms.is_ground`) holds no variable,
so the occurs check skips it and walk_star and reify return it as it is,
each in O(1): binding a variable to a large ground value costs no walk of
the value.
"""

from __future__ import annotations

from .terms import (
    ConsCell,
    ExprTerm,
    LogicVar,
    car,
    cdr,
    is_application,
    nil,
)


class Substitution:
    """A persistent LogicVar -> Term mapping.

    Triangular: bound values may themselves contain bound variables; use
    :func:`walk` to resolve chains.  Acyclicity is maintained by the occurs
    check in :func:`unify`.
    """

    __slots__ = ("_m",)

    def __init__(self, mapping=None):
        self._m = {} if mapping is None else mapping

    @classmethod
    def empty(cls) -> "Substitution":
        return cls()

    def get(self, v: LogicVar):
        return self._m.get(v)

    def extend(self, delta: dict) -> "Substitution":
        m = dict(self._m)
        m.update(delta)
        return Substitution(m)

    def __len__(self) -> int:
        return len(self._m)

    def __repr__(self):
        return f"Substitution({self._m!r})"


EMPTY_SUBST = Substitution.empty()


def walk(t, s: Substitution):
    """Resolve a variable through the substitution's binding chain.

    Shallow: never descends into cons or expression structure.
    """
    while isinstance(t, LogicVar):
        nxt = s.get(t)
        if nxt is None:
            return t
        t = nxt
    return t


def _walk2(t, s: Substitution, delta: dict):
    while isinstance(t, LogicVar):
        if t in delta:
            t = delta[t]
            continue
        nxt = s.get(t)
        if nxt is None:
            return t
        t = nxt
    return t


def occurs(v: LogicVar, t, s: Substitution) -> bool:
    """True iff v appears anywhere in walk_star(t, s)."""
    return _occurs(v, t, s, {})


def _occurs(v, t, s, delta) -> bool:
    stack = [t]
    while stack:
        x = _walk2(stack.pop(), s, delta)
        if getattr(x, "ground", True):
            continue
        if isinstance(x, LogicVar):
            if x.id == v.id:
                return True
        elif isinstance(x, ConsCell):
            stack.append(x.car)
            stack.append(x.cdr)
        else:
            stack.extend(tuple.__iter__(x))
    return False


def unify_delta(pairs, s: Substitution, occurs_check: bool = True):
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
        u_var = isinstance(u, LogicVar)
        v_var = isinstance(v, LogicVar)
        if u_var and v_var:
            if u.id != v.id:
                delta[u] = v
            continue
        if u_var:
            if occurs_check and _occurs(u, v, s, delta):
                return None
            delta[u] = v
            continue
        if v_var:
            if occurs_check and _occurs(v, u, s, delta):
                return None
            delta[v] = u
            continue
        u_app = is_application(u)
        v_app = is_application(v)
        if u_app and v_app:
            if (
                isinstance(u, ExprTerm)
                and isinstance(v, ExprTerm)
                and tuple.__len__(u) == tuple.__len__(v)
            ):
                stack.extend(zip(tuple.__iter__(u), tuple.__iter__(v)))
                continue
            stack.append((cdr(u), cdr(v)))
            stack.append((car(u), car(v)))
            continue
        if u_app or v_app:
            return None
        if u is nil or v is nil:
            return None  # nil == nil handled by `u is v`
        if type(u) is not type(v) or u != v:
            return None
    return delta


def term_eq(a, b) -> bool:
    """Structural equality, strict on atom variants: equal terms unify and
    bind nothing.  An expression term equals its cons spine."""
    return unify_delta([(a, b)], EMPTY_SUBST, occurs_check=False) == {}


def unify(u, v, s: Substitution, occurs_check: bool = True):
    """First-order unification.

    Returns the minimal extension of s making u and v structurally equal
    under walk_star, or None on clash or occurs violation.  Cons cells
    unify componentwise; expression terms unify as (operator . operands)
    spines; atoms unify by strict variant equality.
    """
    delta = unify_delta([(u, v)], s, occurs_check=occurs_check)
    if delta is None:
        return None
    if not delta:
        return s
    return s.extend(delta)


def _rebuild(t, s: Substitution, on_var):
    """Copy t with every variable walked through s, handing each variable
    left unbound to on_var and using its result in the variable's place.

    Visits nodes left to right, depth first.  A ground subterm is returned
    as it is without being visited, and a cons cell or expression term whose
    parts all come back unchanged is kept as is, which also keeps its
    memoized hash.
    """
    # most calls (constraint targets) resolve one variable: no work stack
    if isinstance(t, LogicVar):
        t = walk(t, s)
        if isinstance(t, LogicVar):
            return on_var(t)
    if getattr(t, "ground", True):
        return t
    out = []
    work = [(t, 0)]
    while work:
        node, phase = work.pop()
        if phase == 0:
            if isinstance(node, LogicVar):
                node = walk(node, s)
                if isinstance(node, LogicVar):
                    out.append(on_var(node))
                    continue
            if getattr(node, "ground", True):
                out.append(node)
            elif isinstance(node, ConsCell):
                work.append((node, 1))
                work.append((node.cdr, 0))
                work.append((node.car, 0))
            else:
                work.append((node, 2))
                for item in reversed(tuple(tuple.__iter__(node))):
                    work.append((item, 0))
        elif phase == 1:
            new_cdr = out.pop()
            new_car = out.pop()
            if new_car is node.car and new_cdr is node.cdr:
                out.append(node)
            else:
                out.append(ConsCell(new_car, new_cdr))
        else:
            n = tuple.__len__(node)
            items = out[-n:]
            del out[-n:]
            if all(a is b for a, b in zip(items, tuple.__iter__(node))):
                out.append(node)
            else:
                out.append(ExprTerm(items))
    return out[0]


def _unchanged(v):
    return v


def walk_star(t, s: Substitution):
    """Deep walk: resolve variables recursively through cons cells and
    expression-term items, rebuilding structure as needed."""
    return _rebuild(t, s, _unchanged)


def display_var(index: int) -> LogicVar:
    """The variable :func:`reify` puts in place of the index-th unbound one.

    Its id is negative, so it never equals a variable from fresh_var, and it
    is the same for every call with the same index, which makes
    reification idempotent and deterministic.
    """
    return LogicVar(-1 - index, f"_{index}")


def reify(t, s: Substitution):
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
    return term_eq(reify(a, EMPTY_SUBST), reify(b, EMPTY_SUBST))


__all__ = [
    "Substitution",
    "EMPTY_SUBST",
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
