"""Core term algebra: atoms, logic variables, cons pairs, and structural helpers.

Atoms are plain Python values (``int``, ``float``, ``str``, ``bool``) plus
:class:`Symbol` for operator and identifier names.  Equality between atoms is
strict on the variant: the integer ``2`` and the decimal ``2.0`` are distinct
terms, as are ``True`` and ``1``.

A logic variable is its object: equality between variables is identity,
and ``LogicVar.id`` only orders creation and feeds :func:`term_hash`.

Every term answers ``ground`` in O(1): an atom is ground, a
:class:`LogicVar` is not, and a cons cell or expression term records at
construction whether all its parts are, so traversals skip ground subterms
without visiting them.

All deep operations here (hashing, list conversion, coercion of nested
Python sequences) use explicit work stacks instead of host recursion so
that very deep structures do not exhaust the interpreter stack.
"""

from __future__ import annotations

import itertools
import threading


class DecompositionError(Exception):
    """A car/cdr projection was taken of a term with no head or tail."""


class ImproperListError(ValueError):
    """A proper Nil-terminated list was required but the spine is improper."""


class Symbol:
    """An interned-by-value symbol atom (operator names, identifiers)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other):
        return isinstance(other, Symbol) and self.name == other.name

    def __hash__(self):
        return hash(("sym", self.name))

    def __repr__(self):
        return self.name


class LogicVar:
    """A logic variable.  A variable is its object: it equals only itself
    and hashes by identity, as miniKanren's ``walk`` finds a variable with
    ``eq?``, so a substitution lookup is one C-level ``dict.get``.

    ``id`` orders creation (fresh_var issues increasing ids) and feeds
    :func:`term_hash`.  Two separately built ``LogicVar(n)`` are distinct
    variables.  The optional hint is for display only.
    """

    __slots__ = ("id", "hint")

    ground = False

    def __init__(self, id: int, hint: str | None = None):
        self.id = id
        self.hint = hint

    def __repr__(self):
        if self.hint:
            return f"?{self.hint}#{self.id}"
        return f"?#{self.id}"


_var_counter = itertools.count()
_var_lock = threading.Lock()


def fresh_var(hint: str | None = None) -> LogicVar:
    """Return a logic variable with an id never issued before."""
    with _var_lock:
        vid = next(_var_counter)
    return LogicVar(vid, hint)


class _Nil:
    """The empty list; a singleton terminating proper list spines."""

    __slots__ = ()

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "()"


nil = _Nil()


class Compound:
    """A cons cell or an expression term: the one owner of structural
    equality (:func:`~relkanren.unify.term_eq`), hash (:func:`term_hash`)
    and printed form.  Its slots are empty, as ``tuple``, a second base of
    ExprTerm, requires."""

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, Compound):
            return NotImplemented
        return term_eq(self, other)

    def __ne__(self, other):
        res = self.__eq__(other)
        return res if res is NotImplemented else not res

    def __hash__(self):
        return term_hash(self)

    def __repr__(self):
        from .sexpr import print_term

        return print_term(self)


class ConsCell(Compound):
    """A pair of terms.  The cdr may be any term (improper lists allowed).

    ``ground`` is set once, from the parts' own flags, and is true when no
    logic variable occurs in the pair.
    """

    # term_from_list sets these same slots itself, without __init__.
    __slots__ = ("car", "cdr", "_hash", "ground")

    def __init__(self, car, cdr):
        self.car = car
        self.cdr = cdr
        self._hash = None
        self.ground = getattr(car, "ground", True) and getattr(cdr, "ground", True)


class ExprTerm(Compound, tuple):
    """An operator-application term behaving as an immutable sequence.

    The first item is the operator position.  It unifies, compares and
    hashes like the equivalent cons spine ``(op . operands)``.  Indexing
    returns items; slicing returns a (nonempty) ExprTerm sharing no mutable
    state with the original.

    ``ground`` is true when no logic variable occurs in the items.  It is a
    class attribute that a term holding a variable overrides on the
    instance, so a ground term carries no instance dict for it.
    """

    ground = True

    def __new__(cls, items):
        self = make_expr(*items)
        if cls is not ExprTerm:
            sub = tuple.__new__(cls, self)
            if not self.ground:
                sub.ground = False
            self = sub
        return self

    def __getitem__(self, key):
        if isinstance(key, slice):
            part = tuple.__getitem__(self, key)
            if not part:
                raise ValueError("a slice of an expression term must be nonempty")
            return make_expr(*part)
        return tuple.__getitem__(self, key)


def make_expr(*items) -> ExprTerm:
    """Build an expression term; requires at least the operator item.  The
    one constructor of the kind, in one frame: ``ExprTerm(items)`` calls it."""
    if not items:
        raise ValueError("an expression term needs at least one item")
    self = tuple.__new__(ExprTerm, items)
    for x in items:
        if not getattr(x, "ground", True):
            self.ground = False
            break
    return self


def cons(car, cdr) -> ConsCell:
    """Construct a cons pair; cons(x, nil) is the one-element list (x)."""
    return ConsCell(car, cdr)


def is_application(t) -> bool:
    """True for terms with a head/tail decomposition: cons cells and
    nonempty expression terms."""
    return isinstance(t, Compound)


def car(t):
    """Head of a cons cell, or the operator position of an expression term."""
    if isinstance(t, ConsCell):
        return t.car
    if isinstance(t, ExprTerm):
        return tuple.__getitem__(t, 0)
    raise DecompositionError(f"cannot take car of {t!r}")


def cdr(t):
    """Tail of a cons cell, or the operand list of an expression term."""
    if isinstance(t, ConsCell):
        return t.cdr
    if isinstance(t, ExprTerm):
        return term_from_list(list(t)[1:])
    raise DecompositionError(f"cannot take cdr of {t!r}")


def term_from_list(items, tail=nil) -> object:
    """Build a list term from a sequence of terms, ending in tail (by
    default nil, which makes a proper list).  The one list builder: it sets
    each cell's slots itself, folding the ground flag back from the tail."""
    out = tail
    ground, new = getattr(tail, "ground", True), object.__new__
    for x in reversed(list(items)):
        cell = new(ConsCell)
        cell.car, cell.cdr, cell._hash = x, out, None
        cell.ground = ground = ground and getattr(x, "ground", True)
        out = cell
    return out


def spine(t):
    """The list view of a term: ``(elements, tail)``.

    Cons cells contribute their cars.  An expression term, whether it is
    the whole term or the tail of a cons spine, contributes all its items
    and ends the list, since it unifies as the proper list
    ``(op . operands)``.  tail is nil for a proper list; otherwise it is the
    improper remainder (an atom or a variable).
    """
    out = []
    while isinstance(t, ConsCell):
        out.append(t.car)
        t = t.cdr
    if isinstance(t, ExprTerm):
        out.extend(t)
        t = nil
    return out, t


def list_from_term(t) -> list:
    """Elements of a proper list term.

    Raises ImproperListError when the spine is not Nil-terminated (a
    dotted pair or a variable tail).
    """
    out, tail = spine(t)
    if tail is not nil:
        raise ImproperListError(f"improper list tail: {tail!r}")
    return out


def spine_elements(t):
    """Like list_from_term but returns None instead of raising."""
    out, tail = spine(t)
    return out if tail is nil else None


_TERM_TYPES = (LogicVar, Compound, Symbol, bool, int, float, str)


def to_term(obj):
    """Coerce Python natives to terms: lists/tuples become proper lists.

    Terms pass through unchanged; this is a convenience for goal
    constructors so callers can write ``membero(x, (1, 2, 3))``.
    """
    if obj is nil or isinstance(obj, _TERM_TYPES):
        return obj
    # one frame per list being converted: its items left and their terms
    stack = []
    items, out = iter((obj,)), []
    while True:
        for x in items:
            if x is nil or isinstance(x, _TERM_TYPES):
                out.append(x)
            elif isinstance(x, (list, tuple)):
                stack.append((items, out))
                items, out = iter(x), []
                break
            else:
                raise TypeError(f"cannot convert {x!r} to a term")
        else:
            if not stack:
                return out[0]
            t = term_from_list(out)
            items, out = stack.pop()
            out.append(t)


_H_NIL = hash(("nil",))


def _atom_hash(t):
    if isinstance(t, LogicVar):
        return hash(("var", t.id))
    if t is nil:
        return _H_NIL
    if isinstance(t, Symbol):
        return hash(("sym", t.name))
    if isinstance(t, bool):
        return hash(("bool", t))
    if isinstance(t, int):
        return hash(("int", t))
    if isinstance(t, float):
        return hash(("float", t))
    if isinstance(t, str):
        return hash(("str", t))
    raise TypeError(f"not a term: {t!r}")


def term_hash(t) -> int:
    """Structural hash.  An expression term hashes like its cons spine, so
    terms that unify as equal hash equal.  Iterative; memoized on cells."""
    # One frame per node being folded: an expression term, or the run of
    # unhashed cons cells along a spine, whose parts are the cells' cars
    # and then the term that ends the run.  Parts hash left to right onto
    # `out`, the node's own from `base` on.
    stack = []
    out = []
    node, parts, base = None, iter((t,)), 0
    while True:
        for x in parts:
            tx = type(x)
            if tx is int:
                h = hash(("int", x))
            elif tx is Symbol:
                h = hash(("sym", x.name))
            elif isinstance(x, ConsCell):
                h = x._hash
                if h is None:
                    cells = []
                    while isinstance(x, ConsCell) and x._hash is None:
                        cells.append(x)
                        x = x.cdr
                    cars = [c.car for c in cells]
                    cars.append(x)
                    stack.append((node, parts, base))
                    node, parts, base = cells, iter(cars), len(out)
                    break
            elif isinstance(x, ExprTerm):
                h = getattr(x, "_thash", None)
                if h is None:
                    stack.append((node, parts, base))
                    node, parts, base = x, iter(x), len(out)
                    break
            else:
                h = _atom_hash(x)
            out.append(h)
        else:
            if not stack:
                return out[0]
            hs = out[base:]
            del out[base:]
            if isinstance(node, list):
                h = hs.pop()
                for cell, ih in zip(reversed(node), reversed(hs)):
                    h = hash(("cons", ih, h))
                    cell._hash = h
            else:  # an expression term folds its items like a proper spine
                h = _H_NIL
                for ih in reversed(hs):
                    h = hash(("cons", ih, h))
                node._thash = h
            node, parts, base = stack.pop()
            out.append(h)


def variant_key(t):
    """A dict key for t that is strict on atom variants.  A compound term
    is its own key, since its equality already is; an atom is keyed with
    its type, so 2, 2.0 and #t are three keys."""
    return t if isinstance(t, Compound) else (type(t), t)


def is_ground(t) -> bool:
    """True when no logic variable occurs anywhere in the term.

    O(1): reads the flag a compound term set when it was built.  It says
    nothing of bindings; a term whose variables are all bound in some
    substitution is ground only after walk_star.
    """
    return getattr(t, "ground", True)


# Bound once, at the end: unify imports this module, whose names it needs
# are all defined by now.
from .unify import term_eq  # noqa: E402
