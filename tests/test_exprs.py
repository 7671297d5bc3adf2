import pytest

import relkanren.exprs as exprs_module
from relkanren import (
    ArityError,
    EvalError,
    ExprTerm,
    NonGroundError,
    OperatorDef,
    OperatorRegistry,
    Symbol,
    UnknownOperatorError,
    builtin_registry,
    eval_expr,
    fresh_var,
    make_expr,
    parse_sexpr,
    term_eq,
    term_from_list,
    term_hash,
)

ADD = Symbol("add")
MUL = Symbol("mul")


def test_make_expr_shape():
    e = make_expr(ADD, 1, 2)
    assert isinstance(e, ExprTerm)
    assert e[0] == ADD
    assert e[1] == 1 and e[2] == 2


def test_expr_requires_head():
    with pytest.raises(ValueError):
        ExprTerm(())


def test_expr_equals_its_cons_spine():
    e = make_expr(ADD, 1, 2)
    spine = term_from_list([ADD, 1, 2])
    assert term_eq(e, spine)
    assert term_hash(e) == term_hash(spine)


def test_eval_basic_arithmetic():
    reg = builtin_registry()
    assert eval_expr(make_expr(ADD, 1, 2), reg) == 3
    assert eval_expr(make_expr(MUL, 3, 4), reg) == 12
    assert eval_expr(make_expr(Symbol("sub"), 10, 4), reg) == 6


def test_eval_nested():
    reg = builtin_registry()
    e = make_expr(ADD, make_expr(MUL, 2, 3), 4)
    assert eval_expr(e, reg) == 10


def test_eval_division():
    reg = builtin_registry()
    assert eval_expr(make_expr(Symbol("div"), 10, 2), reg) == 5
    assert eval_expr(make_expr(Symbol("div"), 7, 2), reg) == 3.5
    with pytest.raises(EvalError):
        eval_expr(make_expr(Symbol("div"), 1, 0), reg)


def test_eval_log_exp():
    import math

    reg = builtin_registry()
    assert eval_expr(make_expr(Symbol("exp"), 0), reg) == pytest.approx(1.0)
    assert eval_expr(make_expr(Symbol("log"), math.e), reg) == pytest.approx(1.0)
    with pytest.raises(EvalError):
        eval_expr(make_expr(Symbol("log"), -1), reg)


def test_eval_sum_over_list():
    reg = builtin_registry()
    assert eval_expr(make_expr(Symbol("sum"), term_from_list([1, 2, 3])), reg) == 6
    assert eval_expr(make_expr(Symbol("sum"), 7), reg) == 7


def test_eval_unknown_operator():
    reg = builtin_registry()
    with pytest.raises(UnknownOperatorError):
        eval_expr(make_expr(Symbol("frobnicate"), 1, 2), reg)


def test_eval_arity_mismatch():
    reg = builtin_registry()
    with pytest.raises(ArityError):
        eval_expr(make_expr(ADD, 1, 2, 3), reg)


def test_eval_non_ground():
    reg = builtin_registry()
    with pytest.raises(NonGroundError):
        eval_expr(make_expr(ADD, 1, fresh_var()), reg)


def test_eval_non_ground_runs_no_operator():
    calls = []
    reg = OperatorRegistry()
    reg.register(OperatorDef("add", 2, lambda args: calls.append(1) or args[0] + args[1]))
    with pytest.raises(NonGroundError):
        eval_expr(make_expr(ADD, make_expr(ADD, 1, 2), fresh_var()), reg)
    assert calls == []


def test_eval_deep_operand_chain():
    t = 0
    for _ in range(10_000):
        t = make_expr(ADD, t, 1)
    assert eval_expr(t, builtin_registry()) == 10_000


def test_eval_long_list_operand():
    e = make_expr(Symbol("sum"), term_from_list(range(10_000)))
    assert eval_expr(e, builtin_registry()) == sum(range(10_000))


def test_eval_caches_per_instance():
    calls = []
    reg = OperatorRegistry()
    reg.register(OperatorDef("add", 2, lambda args: calls.append(1) or args[0] + args[1]))
    e = make_expr(ADD, 1, 2)
    assert eval_expr(e, reg) == 3
    assert eval_expr(e, reg) == 3
    assert len(calls) == 1


def test_eval_caches_structurally():
    calls = []
    reg = OperatorRegistry()
    reg.register(OperatorDef("add", 2, lambda args: calls.append(1) or args[0] + args[1]))
    assert eval_expr(make_expr(ADD, 1, 2), reg) == 3
    assert eval_expr(make_expr(ADD, 1, 2), reg) == 3
    assert len(calls) == 1


def test_cache_distinguishes_registries():
    reg_a = OperatorRegistry()
    reg_a.register(OperatorDef("add", 2, lambda args: args[0] + args[1]))
    reg_b = OperatorRegistry()
    reg_b.register(OperatorDef("add", 2, lambda args: args[0] * args[1]))
    e = make_expr(ADD, 2, 3)
    assert eval_expr(e, reg_a) == 5
    assert eval_expr(e, reg_b) == 6


def test_duplicate_registration_rejected():
    reg = OperatorRegistry()
    reg.register(OperatorDef("add", 2, lambda args: args[0] + args[1]))
    with pytest.raises(ValueError):
        reg.register(OperatorDef("add", 2, lambda args: 0))


def test_symbolic_only_operator_has_no_eval():
    reg = OperatorRegistry()
    reg.register(OperatorDef("normal", 2, None))
    with pytest.raises(EvalError):
        eval_expr(make_expr(Symbol("normal"), 0, 1), reg)


def test_expr_slice_stays_expr():
    e = make_expr(ADD, 1, 2)
    assert isinstance(e[:2], ExprTerm)
    with pytest.raises(ValueError):
        e[0:0]


def test_memo_is_bounded_and_still_hits():
    calls = 0

    def inc(args):
        nonlocal calls
        calls += 1
        return args[0] + 1

    reg = OperatorRegistry()
    reg.register(OperatorDef("inc", 1, inc))
    inc_sym = Symbol("inc")
    n = exprs_module.MEMO_CAP + 100
    for i in range(n):
        assert eval_expr(make_expr(inc_sym, i), reg) == i + 1
    assert calls == n
    assert len(reg._memo) <= exprs_module.MEMO_CAP
    # the most recent terms are still memoized: evaluating them again,
    # or a reconstruction from identical items, does not call inc
    last = make_expr(inc_sym, n - 1)
    assert eval_expr(last, reg) == n
    assert eval_expr(make_expr(inc_sym, n - 1), reg) == n
    assert calls == n
    # the oldest term was dropped and evaluates afresh
    assert eval_expr(make_expr(inc_sym, 0), reg) == 1
    assert calls == n + 1
    assert len(reg._memo) <= exprs_module.MEMO_CAP


BIG = 10**400


@pytest.mark.parametrize(
    "op, operands",
    [
        ("exp", (1000,)),
        ("add", (1.5, BIG)),
        ("div", (BIG, 3.0)),
        ("sum", (term_from_list([1.5, BIG]),)),
    ],
)
def test_overflow_raises_eval_error_naming_the_operator(op, operands):
    reg = builtin_registry()
    with pytest.raises(EvalError, match=f"^{op} overflowed"):
        eval_expr(make_expr(Symbol(op), *operands), reg)
    assert len(reg._memo) == 0


@pytest.mark.parametrize(
    "text, op",
    [
        ("(mul 1e308 10)", "mul"),
        ("(add 1e308 1e308)", "add"),
        ("(sub (mul 1e308 10) (mul 1e308 10))", "mul"),
        ("(div 1e308 1e-308)", "div"),
        ("(sum (1e308 1e308))", "sum"),
    ],
)
def test_a_non_finite_float_result_is_an_overflow(text, op):
    reg = builtin_registry()
    with pytest.raises(EvalError, match=f"^{op} overflowed: .*inf"):
        eval_expr(parse_sexpr(text, registry=reg), reg)
    assert len(reg._memo) == 0


def test_nan_from_infinite_operands_is_an_overflow():
    reg = builtin_registry()
    inf = float("inf")
    with pytest.raises(EvalError, match="^sub overflowed: .*nan"):
        eval_expr(make_expr(Symbol("sub"), inf, inf), reg)
    assert len(reg._memo) == 0
