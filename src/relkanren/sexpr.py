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
from .terms import Compound, ConsCell, ExprTerm, LogicVar, Symbol, fresh_var, nil, spine

_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
_FLOAT_RE = re.compile(r"[+-]?([0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)([eE][+-]?[0-9]+)?\Z")
# The next token after whitespace (what str.isspace accepts) and comments:
# a paren, a string's opening quote, or an atom, which ends only at one of
# ' \t\r\n()";' (so "x\fy" is one symbol); empty at the end of input.
_TOKEN = re.compile(r'(?:\s+|;[^\n]*)*([()"]|[^ \t\r\n()";]*)')
# The plain atoms that open a list, taken in one match: no variable, no
# dot, no whitespace inside an atom, and each ends at a delimiter, so
# str.split recovers exactly the atoms the token loop would read.
_RUN = re.compile(r'(?:\s*[^\s()";?.][^\s()";]*(?=[ \t\r\n()";]|\Z))*')
_DOT = object()
_DOT_SYMBOL = Symbol(".")  # prints the " . " before an improper tail


class ParseError(Exception):
    """Malformed input; carries 1-based line and column numbers."""

    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class _Reader:
    def __init__(self, text, registry):
        self.text = text
        self.i = 0
        self.registry = registry
        self.atoms = {}  # token -> term for each atom but ?_ (a document's ?x is one variable)

    def error(self, message, at):
        line = self.text.count("\n", 0, at) + 1
        col = at - (self.text.rfind("\n", 0, at) + 1) + 1
        return ParseError(message, line, col)

    def read(self):
        """Read one term.  Lists still open wait on an explicit stack of
        ``[open_at, items, tail]`` frames, so nesting depth is not bounded
        by the interpreter stack.  tail is None until a lone dot, then
        _DOT while the tail term is read."""
        text, atoms = self.text, self.atoms
        token, run = _TOKEN.match, _RUN.match
        stack = []
        i = self.i
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
                        items += [atoms[a] if a in atoms else self.atom(a, at) for a in r[0].split()]
                        i = r.end()
                    except ParseError:
                        pass  # read again one token at a time, so the error points at the atom
                continue
            if not tok:
                if in_list:
                    raise self.error("unbalanced '('", stack[-1][0])
                raise self.error("unexpected end of input", at)
            if tok == ")":
                if not in_list:
                    raise self.error("unbalanced ')'", at)
                term = self._close(stack.pop())
            elif tok == '"':
                self.i = at
                term = self.read_string()
                i = self.i
            elif tok == "." and in_list:
                if not stack[-1][1]:
                    raise self.error("misplaced '.' in list", at)
                stack[-1][2] = _DOT
                continue
            else:
                term = atoms[tok] if tok in atoms else self.atom(tok, at)
            while stack:
                frame = stack[-1]
                if frame[2] is not _DOT:
                    frame[1].append(term)
                    break
                frame[2] = term
                m = token(text, i)
                if m[1] != ")":
                    raise self.error("expected ')' after dotted tail", m.start(1))
                i = m.end()
                term = self._close(stack.pop())
            else:
                self.i = i
                return term

    def _close(self, frame):
        """The term for a finished list: an expression term when it is
        proper and headed by a registered operator, otherwise cons cells."""
        _, items, tail = frame
        if (
            tail is None
            and items
            and self.registry is not None
            and isinstance(items[0], Symbol)
            and items[0].name in self.registry
        ):
            return ExprTerm(items)
        out = nil if tail is None else tail
        for x in reversed(items):
            out = ConsCell(x, out)
        return out

    def read_string(self):
        start = self.i
        self.i += 1
        out = []
        text, n = self.text, len(self.text)
        while self.i < n:
            c = text[self.i]
            if c == '"':
                self.i += 1
                return "".join(out)
            if c == "\\":
                self.i += 1
                if self.i >= n:
                    break
                esc = text[self.i]
                mapped = {"n": "\n", "t": "\t", "\\": "\\", '"': '"', "r": "\r"}.get(esc)
                if mapped is None:
                    raise self.error(f"bad string escape: \\{esc}", self.i)
                out.append(mapped)
            else:
                out.append(c)
            self.i += 1
        raise self.error("unterminated string", start)

    def atom(self, tok, at):
        """The term for an atom token first seen at ``at``."""
        if tok == "#t":
            term = True
        elif tok == "#f":
            term = False
        elif tok[0] == "?":
            name = tok[1:]
            if not name:
                raise self.error("'?' needs a variable name (use ?_ for anonymous)", at)
            if name == "_":
                return fresh_var()
            term = fresh_var(name)
        elif _INT_RE.match(tok):
            try:
                term = int(tok)
            except ValueError:  # past the interpreter's digit limit
                raise self.error(f"integer literal too long: {len(tok)} characters", at) from None
        elif (m := _FLOAT_RE.match(tok)) and any(ch in tok for ch in ".eE"):
            term = float(tok)
            # out of range: too large, or read as zero from a nonzero mantissa
            if math.isinf(term) or not term and m[1].strip("0."):
                raise self.error(f"number out of range: {tok}", at)
        else:
            term = Symbol(tok)
        self.atoms[tok] = term
        return term


def parse_sexpr(text: str, registry: OperatorRegistry | None = None):
    """Read exactly one term from text.

    ``?name`` tokens map to one logic variable per distinct name per
    document.
    """
    reader = _Reader(text, registry)
    t = reader.read()
    m = _TOKEN.match(text, reader.i)
    if m[1]:
        raise reader.error("trailing content after term", m.start(1))
    return t


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")


def print_term(t) -> str:
    """Canonical text for a term.

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
            elif isinstance(x, LogicVar):
                name = names.get(x)
                if name is None:
                    name = f"_{len(names)}"
                    names[x] = name
                push(f"?{name}")
            elif x is nil:
                push("()")
            elif isinstance(x, bool):
                push("#t" if x else "#f")
            elif isinstance(x, (int, float)):
                push(repr(x))
            elif isinstance(x, str):
                push(f'"{_escape(x)}"')
            elif isinstance(x, Symbol):
                push(x.name)
            elif isinstance(x, Compound):
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
