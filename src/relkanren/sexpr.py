"""S-expression reader and printer for the term algebra.

Concrete syntax: symbols, integers, decimals, double-quoted strings,
booleans ``#t``/``#f``, proper lists ``( ... )``, dotted pairs
``(a . b)``, logic variables ``?name``, and anonymous variables ``?_``
(fresh on every occurrence).  A proper list whose head is a registered
operator symbol reads as an expression term; everything else stays a cons
list.  ``;`` starts a comment to end of line.
"""

from __future__ import annotations

import re

from .exprs import OperatorRegistry
from .terms import ConsCell, ExprTerm, LogicVar, Symbol, fresh_var, nil, spine

_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
_FLOAT_RE = re.compile(r"[+-]?([0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)([eE][+-]?[0-9]+)?\Z")
_DELIMS = set(' \t\r\n()";')
_DOT = object()


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
        self.vars = {}

    def _pos(self, i=None):
        i = self.i if i is None else i
        line = self.text.count("\n", 0, i) + 1
        col = i - (self.text.rfind("\n", 0, i) + 1) + 1
        return line, col

    def error(self, message, at=None):
        line, col = self._pos(at)
        return ParseError(message, line, col)

    def skip_ws(self):
        text, n = self.text, len(self.text)
        while self.i < n:
            c = text[self.i]
            if c == ";":
                nl = text.find("\n", self.i)
                self.i = n if nl < 0 else nl + 1
            elif c.isspace():
                self.i += 1
            else:
                return

    def read(self):
        """Read one term.  Lists still open wait on an explicit stack of
        ``[open_at, items, tail]`` frames, so nesting depth is not bounded
        by the interpreter stack.  tail is None until a lone dot, then
        _DOT while the tail term is read."""
        text, n = self.text, len(self.text)
        stack = []
        while True:
            self.skip_ws()
            in_list = stack and stack[-1][2] is None
            if self.i >= n:
                if in_list:
                    raise self.error("unbalanced '('", stack[-1][0])
                raise self.error("unexpected end of input")
            c = text[self.i]
            if c == "(":
                stack.append([self.i, [], None])
                self.i += 1
                continue
            if c == ")" and not in_list:
                raise self.error("unbalanced ')'")
            if in_list and c == "." and (self.i + 1 >= n or text[self.i + 1] in _DELIMS):
                if not stack[-1][1]:
                    raise self.error("misplaced '.' in list")
                stack[-1][2] = _DOT
                self.i += 1
                continue
            if c == ")":
                self.i += 1
                term = self._close(stack.pop())
            else:
                term = self.read_string() if c == '"' else self.read_atom()
            while stack:
                frame = stack[-1]
                if frame[2] is not _DOT:
                    frame[1].append(term)
                    break
                frame[2] = term
                self.skip_ws()
                if self.i >= n or text[self.i] != ")":
                    raise self.error("expected ')' after dotted tail")
                self.i += 1
                term = self._close(stack.pop())
            else:
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
                    raise self.error(f"bad string escape: \\{esc}")
                out.append(mapped)
            else:
                out.append(c)
            self.i += 1
        raise self.error("unterminated string", start)

    def read_atom(self):
        start = self.i
        text, n = self.text, len(self.text)
        while self.i < n and text[self.i] not in _DELIMS:
            self.i += 1
        tok = text[start : self.i]
        if tok == "#t":
            return True
        if tok == "#f":
            return False
        if tok.startswith("?"):
            name = tok[1:]
            if not name:
                raise self.error("'?' needs a variable name (use ?_ for anonymous)", start)
            if name == "_":
                return fresh_var()
            v = self.vars.get(name)
            if v is None:
                v = fresh_var(name)
                self.vars[name] = v
            return v
        if _INT_RE.match(tok):
            return int(tok)
        if _FLOAT_RE.match(tok) and any(ch in tok for ch in ".eE"):
            return float(tok)
        return Symbol(tok)


def parse_sexpr(text: str, registry: OperatorRegistry | None = None):
    """Read exactly one term from text.

    ``?name`` tokens map to one logic variable per distinct name per
    document.
    """
    reader = _Reader(text, registry)
    t = reader.read()
    reader.skip_ws()
    if reader.i < len(text):
        raise reader.error("trailing content after term")
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
    # work items: ('t', term) to render, or ('s', literal) to emit
    work = [("t", t)]
    while work:
        kind, x = work.pop()
        if kind == "s":
            out.append(x)
            continue
        if isinstance(x, LogicVar):
            name = names.get(x)
            if name is None:
                name = f"_{len(names)}"
                names[x] = name
            out.append(f"?{name}")
        elif x is nil:
            out.append("()")
        elif isinstance(x, bool):
            out.append("#t" if x else "#f")
        elif isinstance(x, (int, float)):
            out.append(repr(x))
        elif isinstance(x, str):
            out.append(f'"{_escape(x)}"')
        elif isinstance(x, Symbol):
            out.append(x.name)
        elif isinstance(x, (ConsCell, ExprTerm)):
            elems, tail = spine(x)
            work.append(("s", ")"))
            if tail is not nil:
                work.append(("t", tail))
                work.append(("s", " . "))
            for j, e in enumerate(reversed(elems)):
                work.append(("t", e))
                if j < len(elems) - 1:
                    work.append(("s", " "))
            work.append(("s", "("))
        else:
            raise TypeError(f"cannot print {x!r}")
    return "".join(out)
