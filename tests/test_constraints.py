import itertools

import pytest

from conftest import ATOMS, seeded
from relkanren import (
    ConsCell,
    Symbol,
    UnknownPredicateError,
    cons,
    eq,
    fresh_var,
    lall,
    membero,
    neq,
    nil,
    predicate_names,
    register_predicate,
    run,
    term_eq,
    term_from_list,
    type_constraint,
)

# an independent statement of each builtin predicate on atoms
HOLDS_ON_ATOMS = {
    "integer": lambda t: type(t) is int,
    "decimal": lambda t: type(t) is float,
    "number": lambda t: type(t) in (int, float),
    "symbol": lambda t: isinstance(t, Symbol),
    "string": lambda t: isinstance(t, str),
    "boolean": lambda t: isinstance(t, bool),
    "cons": lambda t: False,
    "nil": lambda t: t is nil,
    "expr": lambda t: False,
    "number-or-expr": lambda t: type(t) in (int, float),
}


def test_neq_on_distinct_ground_atoms_succeeds():
    x = fresh_var()
    assert run(0, x, lall(neq(1, 2), eq(x, "ok"))) == ("ok",)


def test_neq_on_equal_ground_atoms_fails():
    x = fresh_var()
    assert run(0, x, lall(neq(1, 1), eq(x, "ok"))) == ()


def test_neq_vetoes_later_binding():
    x = fresh_var()
    assert run(0, x, lall(neq(x, 1), eq(x, 1))) == ()
    assert run(0, x, lall(neq(x, 1), eq(x, 2))) == (2,)


def test_neq_order_commutes():
    for first_neq in (True, False):
        x = fresh_var()
        goals = [neq(x, 1), eq(x, 2)]
        if not first_neq:
            goals.reverse()
        assert run(0, x, lall(*goals)) == (2,)


def test_neq_structured_terms():
    x = fresh_var()
    g = lall(neq(term_from_list([1, x]), term_from_list([1, 2])), eq(x, 2))
    assert run(0, x, g) == ()
    g = lall(neq(term_from_list([1, x]), term_from_list([1, 2])), eq(x, 3))
    assert run(0, x, g) == (3,)


def test_membero_filtered_by_neq():
    x = fresh_var()
    answers = run(0, x, lall(neq(x, 1), neq(x, 3), membero(x, (1, 2, 3))))
    assert answers == (2,)


def test_type_constraint_filters_members():
    x = fresh_var()
    answers = run(
        0, x, lall(type_constraint(x, "integer"), membero(x, (1.1, 2, 3.2, 4)))
    )
    assert answers == (2, 4)


def test_type_constraint_immediate_on_ground():
    x = fresh_var()
    assert run(0, x, lall(type_constraint(3, "integer"), eq(x, "ok"))) == ("ok",)
    assert run(0, x, lall(type_constraint(3.5, "integer"), eq(x, "ok"))) == ()


def test_type_constraint_deferred_until_ground():
    x = fresh_var()
    g = lall(type_constraint(x, "symbol"), eq(x, Symbol("hi")))
    assert run(0, x, g) == (Symbol("hi"),)
    x = fresh_var()
    g = lall(type_constraint(x, "symbol"), eq(x, 7))
    assert run(0, x, g) == ()


def test_type_constraint_partial_binding_retained():
    x, tail = fresh_var(), fresh_var()
    g = lall(type_constraint(x, "cons"), eq(x, cons(1, tail)))
    answers = run(0, x, g)
    assert len(answers) == 1


def test_unknown_predicate_rejected_eagerly():
    x = fresh_var()
    with pytest.raises(UnknownPredicateError):
        type_constraint(x, "quaternion")


def test_predicate_names_include_builtins():
    names = set(predicate_names())
    assert {"integer", "decimal", "number", "symbol", "string",
            "boolean", "cons", "nil"} <= names


def test_boolean_is_not_integer():
    x = fresh_var()
    answers = run(0, x, lall(type_constraint(x, "integer"), membero(x, (True, 2))))
    assert answers == (2,)


def test_multiple_neq_constraints_accumulate():
    x = fresh_var()
    g = lall(neq(x, 1), neq(x, 2), neq(x, 3), membero(x, (1, 2, 3, 4)))
    assert run(0, x, g) == (4,)


def test_mixed_constraints_commute_with_binding():
    rng = seeded(2011)
    for _ in range(150):
        a, f = rng.choice(ATOMS), rng.choice(ATOMS)
        k = rng.choice(sorted(HOLDS_ON_ATOMS))
        allowed = not (type(a) is type(f) and a == f) and HOLDS_ON_ATOMS[k](a)
        for order in itertools.permutations(range(3)):
            x = fresh_var()
            goals = (neq(x, f), type_constraint(x, k), eq(x, a))
            answers = run(0, x, lall(*(goals[i] for i in order)))
            if allowed:
                assert len(answers) == 1 and term_eq(answers[0], a), (a, f, k, order)
            else:
                assert answers == (), (a, f, k, order)


def _int_pair(t):
    return isinstance(t, ConsCell) and type(t.car) is int and type(t.cdr) is int


def test_partially_bound_cons_carries_both_kinds_until_ground():
    if "int-pair" not in predicate_names():
        register_predicate("int-pair", _int_pair)
    for tail, expected in ((2, ()), ("2", ()), (3, (cons(1, 3),))):
        for order in itertools.permutations(range(4)):
            y, z = fresh_var(), fresh_var()
            pair = cons(y, z)
            goals = (
                neq(pair, cons(1, 2)),
                type_constraint(pair, "int-pair"),
                eq(y, 1),
                eq(z, tail),
            )
            answers = run(0, pair, lall(*(goals[i] for i in order)))
            assert len(answers) == len(expected), (tail, order)
            assert all(map(term_eq, answers, expected)), (tail, order)
