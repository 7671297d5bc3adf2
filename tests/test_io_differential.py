"""Differential tests for the term I/O loops: print_term, parse_sexpr and
term_hash against private copies of their earlier per-item work-stack
versions, which serve as the reference.

The references are kept as they were, except that the reference hash
neither reads nor writes the memo fields on cells, so it shares no state
with the code under test.
"""

import re

import pytest

from relkanren import (
    ConsCell,
    ExprTerm,
    LogicVar,
    ParseError,
    Symbol,
    cons,
    fresh_var,
    make_expr,
    nil,
    parse_sexpr,
    print_term,
    term_from_list,
    term_hash,
)
from relkanren.rules import default_registry

from conftest import random_term, seeded, variable_pool

ADD = Symbol("add")
DEEP = 100_000


# --- reference copies -----------------------------------------------------


def _ref_spine(t):
    out = []
    while isinstance(t, ConsCell):
        out.append(t.car)
        t = t.cdr
    if isinstance(t, ExprTerm):
        out.extend(tuple.__iter__(t))
        t = nil
    return out, t


def _ref_escape(s):
    return s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")


def _ref_print_term(t):
    names = {}
    out = []
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
            out.append(f'"{_ref_escape(x)}"')
        elif isinstance(x, Symbol):
            out.append(x.name)
        elif isinstance(x, (ConsCell, ExprTerm)):
            elems, tail = _ref_spine(x)
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


_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
_FLOAT_RE = re.compile(r"[+-]?([0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)([eE][+-]?[0-9]+)?\Z")
_DELIMS = set(' \t\r\n()";')
_DOT = object()


class _RefReader:
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
            try:
                return int(tok)
            except ValueError:  # past the interpreter's digit limit
                raise self.error(f"integer literal too long: {len(tok)} characters", start) from None
        if _FLOAT_RE.match(tok) and any(ch in tok for ch in ".eE"):
            return float(tok)
        return Symbol(tok)


def _ref_parse_sexpr(text, registry=None):
    reader = _RefReader(text, registry)
    t = reader.read()
    reader.skip_ws()
    if reader.i < len(text):
        raise reader.error("trailing content after term")
    return t


_H_NIL = hash(("nil",))


def _ref_atom_hash(t):
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


def _ref_term_hash(t):
    out = []
    work = [(t, 0)]
    while work:
        node, phase = work.pop()
        if phase == 0:
            if isinstance(node, ConsCell):
                work.append((node, 1))
                work.append((node.cdr, 0))
                work.append((node.car, 0))
            elif isinstance(node, ExprTerm):
                work.append((node, 2))
                for item in reversed(tuple(tuple.__iter__(node))):
                    work.append((item, 0))
            else:
                out.append(_ref_atom_hash(node))
        elif phase == 1:
            h_cdr = out.pop()
            h_car = out.pop()
            out.append(hash(("cons", h_car, h_cdr)))
        else:
            n = tuple.__len__(node)
            hs = out[-n:]
            del out[-n:]
            h = _H_NIL
            for ih in reversed(hs):
                h = hash(("cons", ih, h))
            out.append(h)
    return out[0]


# --- comparison helpers ---------------------------------------------------


def _outcome(f, *args):
    """The value of f(*args), or the type and message of what it raised."""
    try:
        return ("ok", f(*args))
    except (ParseError, TypeError, ValueError) as exc:
        return ("raised", type(exc), str(exc))


def _nodes(t):
    """Every subterm, depth first, left to right (cars before cdrs)."""
    out = []
    work = [t]
    while work:
        x = work.pop()
        out.append(x)
        if isinstance(x, ConsCell):
            work.append(x.cdr)
            work.append(x.car)
        elif isinstance(x, ExprTerm):
            work.extend(reversed(tuple(tuple.__iter__(x))))
    return out


def _same_parse(a, b):
    """Same node types and atoms at every position, and the variables of a
    map one to one onto those of b, with the same hints and in the same
    order of creation."""
    na, nb = _nodes(a), _nodes(b)
    assert len(na) == len(nb)
    pairs = {}
    for x, y in zip(na, nb):
        assert type(x) is type(y), (x, y)
        if isinstance(x, LogicVar):
            assert x.hint == y.hint
            assert pairs.setdefault(x.id, y.id) == y.id
        elif isinstance(x, ExprTerm):
            assert tuple.__len__(x) == tuple.__len__(y)
            assert x.ground == y.ground
        elif isinstance(x, ConsCell):
            assert x.ground == y.ground
        elif isinstance(x, Symbol):
            assert x.name == y.name
        elif x is not nil:
            assert x == y
    assert len(set(pairs.values())) == len(pairs)
    ids = sorted(pairs)
    assert [pairs[i] for i in ids] == sorted(pairs.values())


def _check_hash(t):
    """term_hash equals the reference, memos included: every cons cell and
    expression term it hashed holds its own reference hash."""
    want = _ref_term_hash(t)
    assert term_hash(t) == want
    assert term_hash(t) == want
    for x in _nodes(t):
        if isinstance(x, ConsCell):
            assert x._hash == _ref_term_hash(x)
        elif isinstance(x, ExprTerm):
            assert x._thash == _ref_term_hash(x)


# --- inputs ---------------------------------------------------------------


class _Sym(Symbol):
    pass


class _Int(int):
    pass


class _Expr(ExprTerm):
    pass


def _small_terms():
    x, y = fresh_var("x"), fresh_var()
    expr = make_expr(ADD, 2, x)
    return [
        42, -7, 2.5, -0.0, 1e308, 1e-300, 10**40, True, False, nil, Symbol("foo"), x,
        'a"b\\c\nd\te\rf', "", "plain", "(not a list)",
        term_from_list([1, 2, 3]),
        cons(1, 2),
        cons(1, cons(2, 3)),
        cons(1, cons(2, x)),
        cons(x, y),
        cons(1, expr),
        cons(x, cons(y, make_expr(ADD, y, x))),
        term_from_list([cons(1, 2), expr, nil, term_from_list([nil])]),
        make_expr(ADD),
        make_expr(ADD, x, x, y, term_from_list([y, x])),
        make_expr(x, 1, True, "s", 2.0),
        make_expr(make_expr(ADD, 1), cons(nil, nil)),
        term_from_list([_Sym("sub"), _Int(3), True, 1.5]),
        _Expr([ADD, _Int(4), cons(_Sym("z"), x)]),
        cons(_Expr([ADD, 1]), _Expr([ADD, 2])),
    ]


def _random_terms():
    rng = seeded(1301)
    out = []
    for k in range(400):
        out.append(random_term(rng, variable_pool(3), depth=2 + k % 4))
    return out


MALFORMED = [
    "", "   ", "; only a comment", "\n\n", "(1 2", "((1)", "(add (mul 1 2)", "(1\n 2\n",
    ")", "(1))", "1)", "\n\n )", "(1 2) )", "( . 1)", "(.)", "(1 . )", "(1 .)", "(1 2 .)",
    "(1 . 2 3)", "(1 . 2 . 3)", "(a . (b) c)", "(. )", '"abc', '("abc', '(1 "a\\"',
    '"a\\q"', '"a\\', '(x "\\z")', "?", "(?)", "(1 ? 2)", "(?x . ?)", "1 2", "(1) (2)",
    "x y", "(1 ; comment", "#t #f", "\u00a0", "(1\u2028", "(\f",
]

WELL_FORMED = [
    "42", "-7", "+3", "2.5", "1e3", "-1.5e-3", ".5", "5.", "1e", "e1", "+", "-", "1.2.3",
    "#t", "#f", "#tx", ".", " . ", "hello", "'quote", "a.b", "...", "..",
    "()", "(1 2 3)", "(1 . 2)", "(1 2 . 3)", "(a . (b c))", "(a . (b . c))", "((1 . 2) . (3 . 4))",
    "(1 .5)", "(.5 1)", "(a .b)", "(a. b)", "(a . .)", "(a . ..)", "(x . ?y)",
    "(?x ?_ ?x ?_ (?y . ?x))", "(?_ . ?_)", "(?y ?x . ?y)", "(add ?x ?x)", "(?a ?b ?c ?b ?a)",
    "(add 1 2)", "(add)", "(add . 1)", "(add 1 . 2)", "(frob 1 2)", "(add (mul 2 3) (sub ?x 1))",
    "(1 (add 2) . (mul 3 4))", "(observe (7) (binomial (10) (beta 2 2)))",
    '"hi there"', '"a\\nb\\tc\\rd\\\\e\\"f"', '("a"b)', '(a"b")', '("" "")', '(1"x"2)',
    "; lead\n (1 ; inline\n 2) ; trail", "(1;c\n2)", "(1 ;c", "\t(1\t2)\r\n",
    "\fx", "x\fy", "(x\f)", "(\f1 2)", "(1\f 2)", "(1 \f2)", "(#t\f #f)", "(1 .\f2)", "(1 . \f2)",
    "\u00a0x", "x\u00a0y", "(1\u20282)", "(1 \u2028 2)", "(\u3000a\u3000b\u3000)", "(a\x1cb c)",
    "(\x1c1 2)", "(1\x1c)",
    "(1 2 3 4 5 6 7 8 9 10)", "(a b c ?x d e)", "(a b . c)", "(1 2 \"s\" 3)", "(a b ; c\n d)",
    "(a (b c) d (e . f) g)", "(#t #f #t)", "(1.5 -2 +3 .25 1e9)", "(add\n1\n2)",
    "1" * 5000, "(" + "9" * 5000 + ")",
]


# --- tests ----------------------------------------------------------------


def test_print_matches_the_reference():
    for t in _small_terms() + _random_terms():
        assert print_term(t) == _ref_print_term(t)


def test_print_errors_match_the_reference():
    for bad in ([2], cons(1, [2]), make_expr(ADD, 1, {3: 4}), cons(fresh_var(), cons(1.5, object))):
        got = _outcome(print_term, bad)
        assert got[0] == "raised"
        assert got == _outcome(_ref_print_term, bad)


def test_hash_matches_the_reference():
    for t in _small_terms() + _random_terms():
        _check_hash(t)


def test_hash_errors_match_the_reference():
    for bad in ([2], cons(1, cons(2, [3])), make_expr(ADD, 1, object), cons(make_expr(ADD, [1]), 2)):
        got = _outcome(term_hash, bad)
        assert got[0] == "raised"
        assert got == _outcome(_ref_term_hash, bad)


def test_hash_reads_a_memo_partway_along_a_spine():
    cells = term_from_list(list(range(50)) + [fresh_var(), make_expr(ADD, 1)])
    tail = cells
    for _ in range(30):
        tail = tail.cdr
    assert term_hash(tail) == _ref_term_hash(tail)
    _check_hash(cells)
    t = cons(0, make_expr(ADD, cells, tail))
    _check_hash(t)


@pytest.mark.parametrize("registry", [None, "default"])
def test_parse_matches_the_reference(registry):
    reg = default_registry() if registry else None
    texts = WELL_FORMED + [_ref_print_term(t) for t in _small_terms() + _random_terms()]
    for text in texts:
        want = _outcome(_ref_parse_sexpr, text, reg)
        got = _outcome(parse_sexpr, text, reg)
        if want[0] == "raised":
            assert got == want, text
        else:
            assert got[0] == "ok", (text, got)
            _same_parse(got[1], want[1])
            assert print_term(got[1]) == _ref_print_term(want[1])


@pytest.mark.parametrize("registry", [None, "default"])
def test_parse_errors_match_the_reference(registry):
    reg = default_registry() if registry else None
    for text in MALFORMED:
        want = _outcome(_ref_parse_sexpr, text, reg)
        assert want[0] == "raised", text
        assert _outcome(parse_sexpr, text, reg) == want, text


def test_large_terms_match_the_reference():
    reg = default_registry()
    x = fresh_var("x")
    deep = 1
    for _ in range(DEEP):
        deep = make_expr(ADD, deep, 1)
    long_list = term_from_list([k % 97 for k in range(DEEP)])
    for t in (deep, long_list, cons(x, term_from_list([*range(1000), x]))):
        text = _ref_print_term(t)
        assert print_term(t) == text
        assert term_hash(t) == _ref_term_hash(t)
        _same_parse(parse_sexpr(text, registry=reg), _ref_parse_sexpr(text, reg))
