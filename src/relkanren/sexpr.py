"""S-expression reader and printer for the term algebra.

Concrete syntax: symbols, integers, decimals, double-quoted strings,
booleans ``#t``/``#f``, proper lists ``( ... )``, dotted pairs
``(a . b)``, logic variables ``?name``, and anonymous variables ``?_``
(fresh on every occurrence).  A proper list whose head is a registered
operator symbol reads as an expression term; everything else stays a cons
list.  ``;`` starts a comment to end of line.
"""

from __future__ import annotations

import math
import re

from .exprs import OperatorRegistry
from .terms import ConsCell, ExprTerm, LogicVar, Symbol, fresh_var, make_expr, nil, spine, term_from_list

_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
_FLOAT_RE = re.compile(r"[+-]?([0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)([eE][+-]?[0-9]+)?\Z")
# The next token after whitespace (what str.isspace accepts) and comments:
# a paren; a string, quote to closing quote with its escapes, or a lone
# quote when it has no closing one; or an atom, which ends only at one of
# ' \t\r\n()";' (so "x\fy" is one symbol); empty at the end of input.
_TOKEN = re.compile(r'(?:\s+|;[^\n]*)*([()]|"(?:[^"\\]|\\.)*"|"|[^ \t\r\n()";]*)', re.S)
# The plain atoms that open a list, taken in one match: no variable, no
# dot, no whitespace inside an atom, and each ends at a delimiter, so
# str.split recovers exactly the atoms the token loop would read.
_RUN = re.compile(r'(?:\s*[^\s()";?.][^\s()";]*(?=[ \t\r\n()";]|\Z))*')
_ESCAPED = re.compile(r"\\(.)", re.S)
# A string's escapes, the character after the backslash -> the character
# it stands for; the printer writes them back through the inverse table.
_UNESCAPE = {"n": "\n", "t": "\t", "\\": "\\", '"': '"', "r": "\r"}
_ESCAPE = str.maketrans({c: "\\" + e for e, c in _UNESCAPE.items()})
_DOT = object()
_DOT_SYMBOL = Symbol(".")  # prints the " . " before an improper tail


class ParseError(Exception):
    """Malformed input; carries 1-based line and column numbers."""

    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


def _error(text, message, at):
    return ParseError(message, text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at))


def _string_error(text, at):
    """The error for the string that opens at ``at``: its first bad escape,
    else its missing closing quote."""
    for e in _ESCAPED.finditer(text, at + 1):
        esc = e[1]
        if esc not in _UNESCAPE:
            name = esc if esc.isprintable() else f" followed by {esc!r}"
            return _error(text, f"bad string escape: \\{name}", e.start(1))
    return _error(text, "unterminated string", at)


def _atom(tok, text, at, atoms):
    """The term for an atom or string token first seen at ``at``; atoms
    keeps it for the token's next occurrence, except for ``?_``."""
    if tok == '"':  # no closing quote
        raise _string_error(text, at)
    if tok[0] == '"':
        try:
            term = _ESCAPED.sub(lambda e: _UNESCAPE[e[1]], tok[1:-1])
        except KeyError:
            raise _string_error(text, at) from None
    elif tok == "#t":
        term = True
    elif tok == "#f":
        term = False
    elif tok[0] == "?":
        name = tok[1:]
        if not name:
            raise _error(text, "'?' needs a variable name (use ?_ for anonymous)", at)
        if name == "_":
            return fresh_var()
        term = fresh_var(name)
    elif _INT_RE.match(tok):
        try:
            term = int(tok)
        except ValueError:  # past the interpreter's digit limit
            raise _error(text, f"integer literal too long: {len(tok)} characters", at) from None
    elif (m := _FLOAT_RE.match(tok)) and any(ch in tok for ch in ".eE"):
        term = float(tok)
        # out of range: too large, or read as zero from a nonzero mantissa
        if math.isinf(term) or not term and m[1].strip("0."):
            raise _error(text, f"number out of range: {tok}", at)
    else:
        term = Symbol(tok)
    atoms[tok] = term
    return term


def _close(frame, registry):
    """The term for a finished list: an expression term when it is proper
    and headed by a registered operator, otherwise cons cells."""
    _, items, tail = frame
    if (tail is None and items and registry is not None
            and isinstance(items[0], Symbol) and items[0].name in registry):
        return make_expr(*items)
    return term_from_list(items, nil if tail is None else tail)


def parse_sexpr(text: str, registry: OperatorRegistry | None = None):
    """Read exactly one term from text.

    ``?name`` tokens map to one logic variable per distinct name per
    document.  Lists still open wait on an explicit stack of
    ``[open_at, items, tail]`` frames, so nesting depth is not bounded by
    the interpreter stack.  tail is None until a lone dot, then _DOT
    while the tail term is read.
    """
    atoms = {}  # token -> term, for each atom and string but ?_
    token, run = _TOKEN.match, _RUN.match
    stack = []
    i = 0
    while True:
        m = token(text, i)
        tok, at, i = m[1], m.start(1), m.end()
        in_list = stack and stack[-1][2] is None
        if tok == "(":
            items = []
            stack.append([at, items, None])
            r = run(text, i)
            if r.end() > i:
                try:
                    items += [atoms[a] if a in atoms else _atom(a, text, at, atoms) for a in r[0].split()]
                    i = r.end()
                except ParseError:
                    pass  # read again one token at a time, so the error points at the atom
            continue
        if not tok:
            if in_list:
                raise _error(text, "unbalanced '('", stack[-1][0])
            raise _error(text, "unexpected end of input", at)
        if tok == ")":
            if not in_list:
                raise _error(text, "unbalanced ')'", at)
            term = _close(stack.pop(), registry)
        elif tok == "." and in_list:
            if not stack[-1][1]:
                raise _error(text, "misplaced '.' in list", at)
            stack[-1][2] = _DOT
            continue
        else:
            term = atoms[tok] if tok in atoms else _atom(tok, text, at, atoms)
        while stack:
            frame = stack[-1]
            if frame[2] is not _DOT:
                frame[1].append(term)
                break
            frame[2] = term
            m = token(text, i)
            if m[1] != ")":
                raise _error(text, "expected ')' after dotted tail", m.start(1))
            i = m.end()
            term = _close(stack.pop(), registry)
        else:
            m = token(text, i)
            if m[1]:
                raise _error(text, "trailing content after term", m.start(1))
            return term


def print_term(t) -> str:
    """Canonical text for a term, by one dispatch on each node's exact
    class: an object of no term type raises TypeError.

    Unbound variables print as ``?_0``, ``?_1``, ... in left-to-right
    depth-first encounter order.  Lists print as :func:`~relkanren.terms.spine`
    sees them: expression terms print as plain lists, and so does a cons
    spine ending in one.
    Deterministic, and the inverse of :func:`parse_sexpr` up to variable
    identity.
    """
    names: dict[LogicVar, str] = {}
    out: list[str] = []
    push = out.append
    # iterators over the items of the lists still open; every item is
    # followed by " ", which a list's end overwrites with ")"
    stack = []
    items = iter((t,))
    while True:
        for x in items:
            tx = type(x)
            if tx is Symbol:
                push(x.name)
            elif tx is int or tx is float:
                push(repr(x))
            elif tx is ExprTerm:
                push("(")
                stack.append(items)
                items = iter(x)
                break
            elif tx is LogicVar:
                name = names.get(x)
                if name is None:
                    name = f"_{len(names)}"
                    names[x] = name
                push(f"?{name}")
            elif x is nil:
                push("()")
            elif tx is bool:
                push("#t" if x else "#f")
            elif tx is str:
                push(f'"{x.translate(_ESCAPE)}"')
            elif tx is ConsCell:
                elems, tail = spine(x)
                if tail is not nil:
                    elems += (_DOT_SYMBOL, tail)
                push("(")
                stack.append(items)
                items = iter(elems)
                break
            else:
                raise TypeError(f"cannot print {x!r}")
            push(" ")
        else:
            if not stack:
                break
            out[-1] = ")"
            push(" ")
            items = stack.pop()
    out.pop()
    return "".join(out)
