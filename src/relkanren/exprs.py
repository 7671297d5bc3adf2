"""Evaluation of operator-application terms and the operator registry.

An :class:`~relkanren.terms.ExprTerm` (defined with the other terms and
re-exported here, as is its constructor ``make_expr``) evaluates against an
:class:`OperatorRegistry`, whose memo caches the result for the
:data:`MEMO_CAP` most recently added terms.

Operators are named by :class:`~relkanren.terms.Symbol` and resolved through
the registry at evaluation time, which keeps terms serializable and keeps
unification purely syntactic.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from .terms import ConsCell, ExprTerm, Symbol, is_ground, make_expr, spine_elements


#: Entries a registry's evaluation memo keeps; past it the oldest go first,
#: so a long-lived registry neither grows nor keeps every term alive.
MEMO_CAP = 1 << 14


class EvalError(Exception):
    """Evaluation failed: domain error, overflow or a non-evaluable operator."""


class NonGroundError(EvalError):
    """Evaluation was attempted on a term containing logic variables."""


class UnknownOperatorError(EvalError):
    """The operator position does not resolve in the registry."""


class ArityError(EvalError):
    """The operand count does not match the operator's declared arity."""


@dataclass(frozen=True)
class OperatorDef:
    """A registered operator: name, arity contract, evaluator, attributes.

    ``arity`` of None means variadic.  ``eval_fn`` of None marks a purely
    symbolic operator (e.g. a distribution constructor) that cannot be
    evaluated; ``eval_fn`` receives the already-evaluated operand terms.
    """

    name: str
    arity: int | None
    eval_fn: Callable | None
    commutative: bool = False


class OperatorRegistry:
    """Name -> OperatorDef mapping with a per-registry evaluation memo of at
    most MEMO_CAP entries."""

    def __init__(self):
        self._defs: dict[str, OperatorDef] = {}
        self._memo: OrderedDict[ExprTerm, object] = OrderedDict()

    def register(self, opdef: OperatorDef) -> None:
        if opdef.name in self._defs:
            raise ValueError(f"operator already registered: {opdef.name}")
        self._defs[opdef.name] = opdef

    def get(self, name: str) -> OperatorDef:
        try:
            return self._defs[name]
        except KeyError:
            raise UnknownOperatorError(f"unknown operator: {name}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._defs


def _num(t):
    if isinstance(t, bool) or not isinstance(t, (int, float)):
        raise EvalError(f"expected a number, got {t!r}")
    return t


def _fold_sum(t):
    # scalar numbers pass through; proper lists reduce by addition
    if isinstance(t, (int, float)) and not isinstance(t, bool):
        return t
    elems = spine_elements(t)
    if elems is None:
        raise EvalError(f"sum expects a number or a proper list, got {t!r}")
    total = 0
    for x in elems:
        total = total + _num(x)
    return total


def _div(a, b):
    a, b = _num(a), _num(b)
    if b == 0:
        raise EvalError("division by zero")
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r == 0:
            return q
    return a / b


def _log(x):
    x = _num(x)
    if x <= 0:
        raise EvalError(f"log domain error: {x!r}")
    return math.log(x)


def builtin_registry() -> OperatorRegistry:
    """A fresh registry with the arithmetic vocabulary.

    Integer operations stay exact; any decimal operand promotes the result
    to decimal; log and exp always produce decimals.
    """
    reg = OperatorRegistry()
    reg.register(OperatorDef("add", 2, lambda a: _num(a[0]) + _num(a[1]), commutative=True))
    reg.register(OperatorDef("sub", 2, lambda a: _num(a[0]) - _num(a[1])))
    reg.register(OperatorDef("mul", 2, lambda a: _num(a[0]) * _num(a[1]), commutative=True))
    reg.register(OperatorDef("div", 2, lambda a: _div(a[0], a[1])))
    reg.register(OperatorDef("log", 1, lambda a: _log(a[0])))
    reg.register(OperatorDef("exp", 1, lambda a: math.exp(_num(a[0]))))
    reg.register(OperatorDef("sum", 1, lambda a: _fold_sum(a[0])))
    return reg


def eval_expr(e: ExprTerm, reg: OperatorRegistry):
    """Evaluate a ground expression term bottom-up, memoizing results.

    Repeated evaluation and evaluation of a reconstruction from identical
    items both hit the registry's memo without re-invoking the operator
    functions.  Iterative, so operand chains and list operands of any
    depth evaluate without exhausting the interpreter stack.
    """
    if not isinstance(e, ExprTerm):
        raise TypeError(f"not an expression term: {e!r}")
    if not is_ground(e):
        raise NonGroundError(f"cannot evaluate non-ground term: {e!r}")
    return _eval(e, reg)


_CONS = object()


def _eval(t, reg):
    # work items are (node, None) to visit a node, (cell, _CONS) to rebuild
    # a cons cell from its evaluated parts, and (expr, opdef) to apply an
    # operator to its evaluated operands; values collect on `out`
    memo = reg._memo
    out = []
    work = [(t, None)]
    while work:
        node, frame = work.pop()
        if frame is None:
            if type(node) is ExprTerm:
                if node in memo:
                    out.append(memo[node])
                    continue
                op = node[0]
                if type(op) is not Symbol:
                    raise UnknownOperatorError(f"operator position is not a symbol: {op!r}")
                work.append((node, reg.get(op.name)))
                for item in reversed(node[1:]):
                    work.append((item, None))
            elif type(node) is ConsCell:
                work.append((node, _CONS))
                work.append((node.cdr, None))
                work.append((node.car, None))
            else:
                out.append(node)
        elif frame is _CONS:
            new_cdr = out.pop()
            out[-1] = ConsCell(out[-1], new_cdr)
        else:
            k = len(out) - (len(node) - 1)
            args = out[k:]
            del out[k:]
            if frame.arity is not None and len(args) != frame.arity:
                raise ArityError(
                    f"{frame.name} expects {frame.arity} operand(s), got {len(args)}"
                )
            if frame.eval_fn is None:
                raise EvalError(f"operator {frame.name} is not evaluable")
            try:
                val = frame.eval_fn(args)
            except OverflowError as exc:
                raise EvalError(f"{frame.name} overflowed: {exc}") from None
            # inf and nan would print as symbols, so they are not values
            if isinstance(val, float) and not math.isfinite(val):
                raise EvalError(f"{frame.name} overflowed: the result {val!r} is not finite")
            if len(memo) >= MEMO_CAP:
                memo.popitem(last=False)
            memo[node] = val
            out.append(val)
    return out[0]
