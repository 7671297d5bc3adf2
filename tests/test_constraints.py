import enum
import importlib
import itertools

import pytest

from conftest import ATOMS, seeded
from relkanren import (
    ConsCell,
    LogicVar,
    State,
    Symbol,
    UnknownPredicateError,
    cons,
    eq,
    fresh_var,
    lall,
    make_expr,
    membero,
    neq,
    nil,
    predicate_names,
    reify,
    run,
    term_eq,
    term_from_list,
    type_constraint,
    unify,
    walk_star,
)

constraints_module = importlib.import_module("relkanren.constraints")
terms_module = importlib.import_module("relkanren.terms")

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


def test_a_root_that_fails_the_predicate_fails_at_once():
    q, a = fresh_var(), fresh_var()
    # no grounding of ?a makes (?a . 1) an integer
    assert run(0, q, lall(type_constraint(q, "integer"), eq(q, cons(a, 1)))) == ()
    assert run(0, q, lall(eq(q, cons(a, 1)), type_constraint(q, "integer"))) == ()
    answers = run(0, q, lall(type_constraint(q, "cons"), eq(q, cons(a, 1))))
    assert len(answers) == 1 and isinstance(answers[0], ConsCell)


class _Level(enum.IntEnum):
    LOW = 2


def test_an_int_subclass_is_not_an_integer():
    # the exact-type rule: _Level.LOW is no term, so unify keeps it apart
    # from 2 and the goal constructors refuse it
    assert unify(_Level.LOW, 2, {}) is None
    x = fresh_var()
    with pytest.raises(TypeError):
        eq(x, _Level.LOW)
    with pytest.raises(TypeError):
        type_constraint(_Level.LOW, "integer")


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


def test_partially_bound_cons_carries_both_kinds_until_ground():
    for tail, expected in ((2, ()), ("2", ()), (3, (cons(1, 3),))):
        for order in itertools.permutations(range(5)):
            y, z = fresh_var(), fresh_var()
            pair = cons(y, z)
            goals = (
                neq(pair, cons(1, 2)),
                type_constraint(y, "integer"),
                type_constraint(z, "integer"),
                eq(y, 1),
                eq(z, tail),
            )
            answers = run(0, pair, lall(*(goals[i] for i in order)))
            assert len(answers) == len(expected), (tail, order)
            assert all(map(term_eq, answers, expected)), (tail, order)


# --- the constraint index ------------------------------------------------

PROGRAM_ATOMS = (1, 2, "a", Symbol("s"))
PROGRAM_KINDS = ("integer", "symbol", "string", "cons")


def _holds(kind, value):
    if isinstance(value, ConsCell):
        return kind == "cons"
    return HOLDS_ON_ATOMS[kind](value)


def _program_term(rng, xs, cells=True):
    r = rng.random()
    if r < 0.45:
        return rng.choice(xs)
    if r < 0.75 or not cells:
        return rng.choice(PROGRAM_ATOMS)
    return cons(_program_term(rng, xs, False), _program_term(rng, xs, False))


def _random_program(rng, xs):
    program = []
    for _ in range(rng.randint(3, 5)):
        r = rng.random()
        if r < 0.4:
            program.append(("eq", _program_term(rng, xs), _program_term(rng, xs)))
        elif r < 0.75:
            program.append(("neq", _program_term(rng, xs), _program_term(rng, xs)))
        else:
            target = rng.choice(xs) if rng.random() < 0.6 else _program_term(rng, xs)
            program.append(("type", target, rng.choice(PROGRAM_KINDS)))
    return program


def _goal(step):
    what, a, b = step
    return {"eq": eq, "neq": neq, "type": type_constraint}[what](a, b)


def _oracle(query, program):
    """Run only the eqs, then check every constraint on the final terms: a
    type constraint once its target's root is not a variable."""
    s = {}
    for what, a, b in program:
        if what == "eq":
            s = unify(a, b, s)
            if s is None:
                return ()
    for what, a, b in program:
        if what == "neq" and term_eq(walk_star(a, s), walk_star(b, s)):
            return ()
        if what == "type":
            value = walk_star(a, s)
            if not isinstance(value, LogicVar) and not _holds(b, value):
                return ()
    return (reify(query, s),)


def _check_every_order(xs, program):
    query = term_from_list(xs)
    expected = _oracle(query, program)
    for order in itertools.permutations(program):
        answers = run(0, query, lall(*map(_goal, order)))
        assert len(answers) == len(expected), order
        assert all(map(term_eq, answers, expected)), order


def test_constraint_index_matches_the_oracle_in_every_goal_order():
    x, y = fresh_var(), fresh_var()
    # y is only on the value side of the binding-set {x: y}
    _check_every_order([x, y], [("neq", x, y), ("eq", y, 1), ("eq", x, 1)])
    _check_every_order([x, y], [("neq", x, y), ("eq", y, 1), ("eq", x, 2)])
    # eq(y, x) binds y, and reaches the constraint through the chain
    _check_every_order([x, y], [("neq", x, y), ("eq", y, x)])
    _check_every_order([x, y], [("type", cons(x, y), "cons"), ("eq", y, x), ("eq", x, 1)])
    # a recheck leaves {y: z} or {z: y}, and the aliasing binds z alone
    z = fresh_var()
    _check_every_order([x, y, z], [("neq", cons(x, y), cons(1, z)), ("eq", x, 1), ("eq", z, y)])
    # one eq binds x and y, and only the constraint on y is violated
    _check_every_order([x, y], [("neq", y, 2), ("eq", cons(x, y), cons(1, 2))])
    rng = seeded(2013)
    for _ in range(150):
        xs = [fresh_var() for _ in range(rng.randint(3, 4))]
        _check_every_order(xs, _random_program(rng, xs))


def _after(state, *goals):
    for g in goals:
        (state,) = g(state)
    return state


def test_eq_on_an_untouched_variable_rechecks_nothing():
    live = []
    for i in range(1000):
        v = fresh_var()
        live.append(neq(v, i) if i % 2 else type_constraint(v, "symbol"))
    state = _after(State(), *live)
    assert len(state.constraints) == 1000
    after = _after(state, eq(fresh_var(), 1))
    assert after.constraints is state.constraints


def test_rechecked_constraint_stays_registered_once_per_variable():
    ws = [fresh_var() for _ in range(4)]
    state = _after(State(), neq(term_from_list(ws), term_from_list([1, 2, 3, 4])))
    for i, w in enumerate(ws[:-1]):
        state = _after(state, eq(w, i + 1))
        assert {v: len(cs) for v, cs in state.constraints.items()} == {
            v: 1 for v in ws[i + 1:]
        }
    x, y = fresh_var(), fresh_var()
    state = _after(State(), neq(x, y), type_constraint(cons(x, y), "cons"), eq(y, 1))
    assert {v: len(cs) for v, cs in state.constraints.items()} == {x: 1}


def test_a_type_constraint_is_registered_under_its_root_variable_alone():
    q, a = fresh_var(), fresh_var()
    state = _after(State(), type_constraint(q, "number-or-expr"))
    assert {v: len(cs) for v, cs in state.constraints.items()} == {q: 1}
    # (add ?a 1) is an expression whatever ?a becomes: nothing is left to watch
    state = _after(state, eq(q, make_expr(Symbol("add"), a, 1)))
    assert state.constraints == {}


def test_a_guard_on_a_deep_open_target_is_decided_without_a_rebuild(monkeypatch):
    v = fresh_var()
    chain = v
    for _ in range(100_000):
        chain = make_expr(Symbol("add"), chain, 1)
    calls = 0
    rebuild = constraints_module._rebuild

    def counting_rebuild(t, s, on_var):
        nonlocal calls
        calls += 1
        return rebuild(t, s, on_var)

    monkeypatch.setattr(constraints_module, "_rebuild", counting_rebuild)
    q = fresh_var()
    state = _after(State(), type_constraint(q, "number-or-expr"), eq(q, chain))
    assert state.constraints == {} and calls == 0


# --- exclusion records ---------------------------------------------------

ADD = Symbol("add")
# variant atoms, an expression term beside its equal cons spine, and pairs
EXCLUDED_VALUES = (
    1, 1.0, True, make_expr(ADD, 1, 2), term_from_list([ADD, 1, 2]), cons(1, 1), cons(True, 1),
)


def _exclusion_program(rng, xs):
    """neqs of a variable against a ground value, mixed with aliasing, ground
    bindings and bindings to open pairs over the same variables."""
    program = []
    for _ in range(rng.randint(3, 5)):
        x, y = rng.choice(xs), rng.choice(xs)
        r = rng.random()
        if r < 0.4:
            program.append(("neq", x, rng.choice(EXCLUDED_VALUES)))
        elif r < 0.6:
            program.append(("eq", x, y))
        elif r < 0.8:
            program.append(("eq", x, rng.choice(EXCLUDED_VALUES)))
        elif r < 0.92:
            open_pair = rng.choice((cons(y, 1), cons(1.0, y), term_from_list([ADD, y, 2])))
            program.append(("eq", x, open_pair))
        else:
            program.append(("type", x, rng.choice(PROGRAM_KINDS)))
    return program


def test_exclusion_records_match_the_oracle_in_every_goal_order():
    x, y, z = fresh_var(), fresh_var(), fresh_var()
    spine = term_from_list([ADD, 1, 2])
    for value in (1, 1.0, True):
        # the record moves to y in either aliasing direction, then meets 1
        _check_every_order([x, y], [("neq", x, 1), ("eq", x, y), ("eq", y, value)])
        _check_every_order([x, y], [("neq", x, 1), ("eq", y, x), ("eq", y, value)])
        # a binding to an open pair turns each excluded value into a binding-set
        _check_every_order(
            [x, y], [("neq", x, cons(1, 1)), ("eq", x, cons(y, 1)), ("eq", y, value)]
        )
    _check_every_order([x], [("neq", x, make_expr(ADD, 1, 2)), ("eq", x, spine)])
    _check_every_order([x, y], [("neq", x, spine), ("eq", x, make_expr(ADD, y, 2)), ("eq", y, 1)])
    # both records meet on z, which one value then violates
    _check_every_order(
        [x, y, z], [("neq", x, 1), ("neq", y, 1.0), ("eq", x, z), ("eq", y, z), ("eq", z, 1.0)]
    )
    # a type guard and an excluded value meet in one domain
    for value in (1, 2, 1.0):
        _check_every_order(
            [x, y], [("type", x, "integer"), ("neq", y, 1), ("eq", x, y), ("eq", y, value)]
        )
    # disjoint guards fail only once their variable is bound
    disjoint = [("type", x, "integer"), ("type", y, "symbol"), ("eq", x, y)]
    _check_every_order([x, y], disjoint)
    _check_every_order([x, y], disjoint + [("eq", y, 1)])
    rng = seeded(2019)
    for _ in range(120):
        xs = [fresh_var() for _ in range(rng.randint(2, 3))]
        _check_every_order(xs, _exclusion_program(rng, xs))


def test_neqs_against_ground_values_share_one_exclusion_record():
    x = fresh_var()
    values = [1, 1.0, True, "1", Symbol("s"), nil, cons(1, 1), make_expr(ADD, 1, 2)]
    state = _after(State(), *(neq(x, c) for c in values))
    (record,) = state.constraints[x]
    assert state.constraints.keys() == {x} and len(record[1]) == len(values)
    # a repeated value, or the cons spine of an excluded expression, adds nothing
    state = _after(state, neq(x, 1), neq(x, term_from_list([ADD, 1, 2])))
    (record,) = state.constraints[x]
    assert len(record[1]) == len(values)


def test_a_variable_has_one_domain_for_its_types_and_excluded_values():
    x, y = fresh_var(), fresh_var()
    state = _after(State(), neq(x, 1), neq(x, 2.0), type_constraint(x, "number"))
    assert {v: len(cs) for v, cs in state.constraints.items()} == {x: 1}
    (domain,) = state.constraints[x]
    assert len(domain[1]) == 2 and domain[2] == (x,)
    state = _after(state, type_constraint(y, "integer"), neq(y, 3), eq(x, y))
    assert {v: len(cs) for v, cs in state.constraints.items()} == {y: 1}
    (domain,) = state.constraints[y]
    assert len(domain[1]) == 3 and domain[2] == (y,)
    candidates = (1, 2, 2.0, 3, 4, 4.0, True, Symbol("s"))
    assert [s.subst[y] for c in candidates for s in eq(y, c)(state)] == [2, 4]


def test_a_ground_binding_rechecks_its_exclusion_record_with_no_per_filter_unify(monkeypatch):
    """No excluded value is unified with the binding: an atom is decided
    by its key alone, and a compound by at most the one structural
    comparison of the dict lookup on a hash match."""
    x = fresh_var()
    values = [i if i % 2 else term_from_list([i, i + 1]) for i in range(40)]
    state = _after(State(), *(neq(x, c) for c in values))
    calls = {"unify_delta": 0, "term_eq": 0}

    def counting(name, f):
        def counted(*args):
            calls[name] += 1
            return f(*args)

        return counted

    monkeypatch.setattr(
        constraints_module, "unify_delta", counting("unify_delta", constraints_module.unify_delta)
    )
    monkeypatch.setattr(terms_module, "term_eq", counting("term_eq", terms_module.term_eq))

    def rechecks(goal):
        calls.update(unify_delta=0, term_eq=0)
        return goal(state), calls["unify_delta"], calls["term_eq"]

    (after,), unifies, comparisons = rechecks(eq(x, 40))
    assert after.constraints == {} and (unifies, comparisons) == (0, 0)
    assert rechecks(eq(x, 39)) == ((), 0, 0)
    (after,), unifies, comparisons = rechecks(eq(x, term_from_list([1, 2])))
    assert after.constraints == {} and unifies == 0 and comparisons <= 1
    result, unifies, comparisons = rechecks(eq(x, term_from_list([38, 39])))
    assert result == () and unifies == 0 and comparisons == 1
