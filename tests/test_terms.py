import copy

import pytest

from relkanren import (
    ConsCell,
    DecompositionError,
    ExprTerm,
    ImproperListError,
    LogicVar,
    State,
    Symbol,
    builtin_registry,
    car,
    cdr,
    cons,
    eq,
    fresh_var,
    is_ground,
    list_from_term,
    make_expr,
    nil,
    parse_sexpr,
    reify,
    run,
    term_eq,
    term_from_list,
    term_hash,
    to_term,
    walk_star,
)

from conftest import OPERATORS, random_atom, random_term, seeded, variable_pool


def test_cons_car_cdr():
    pair = cons(1, 2)
    assert car(pair) == 1
    assert cdr(pair) == 2


def test_car_of_atom_raises():
    with pytest.raises(DecompositionError):
        car(5)
    with pytest.raises(DecompositionError):
        cdr(nil)


def test_list_round_trip():
    items = [1, "two", Symbol("three"), nil]
    assert list_from_term(term_from_list(items)) == items


def test_empty_list_is_nil():
    assert term_from_list([]) is nil
    assert list_from_term(nil) == []


def test_improper_list_rejected():
    with pytest.raises(ImproperListError):
        list_from_term(cons(1, 2))


def test_to_term_coerces_sequences():
    t = to_term([1, (2, 3), []])
    assert term_eq(t, term_from_list([1, term_from_list([2, 3]), nil]))


def test_to_term_of_a_deeply_nested_tuple_is_stack_safe():
    depth = 10**5
    native = ()
    for i in range(depth):
        native = (i, native)
    q = fresh_var()
    goal = eq(q, native)
    (answer,) = run(1, q, goal)
    (state,) = goal(State())
    assert walk_star(q, state.subst) is answer
    t = answer
    for i in reversed(range(depth)):
        head, t = list_from_term(t)
        assert type(head) is int and head == i
    assert t is nil


def test_strict_atom_equality():
    assert not term_eq(2, 2.0)
    assert not term_eq(True, 1)
    assert not term_eq(False, 0)
    assert term_eq(2.0, 2.0)
    assert term_eq(True, True)


def test_strict_hash_distinguishes_types():
    assert term_hash(2) != term_hash(2.0)
    assert term_hash(True) != term_hash(1)


def test_symbols_compare_by_name():
    assert Symbol("add") == Symbol("add")
    assert Symbol("add") != Symbol("mul")
    assert Symbol("add") != "add"


def test_logic_vars_are_distinct():
    a, b = fresh_var(), fresh_var()
    assert a != b
    assert a == a
    assert len({a, b}) == 2


def test_term_eq_deep_structure():
    u = term_from_list([1, term_from_list([2, 3]), cons(4, 5)])
    v = term_from_list([1, term_from_list([2, 3]), cons(4, 5)])
    assert term_eq(u, v)
    assert term_hash(u) == term_hash(v)


def test_term_eq_detects_difference():
    u = term_from_list([1, 2, 3])
    v = term_from_list([1, 2, 4])
    assert not term_eq(u, v)


def test_cons_cell_equality_protocol():
    assert cons(1, 2) == cons(1, 2)
    assert cons(1, 2) != cons(1, 3)
    assert hash(cons(1, 2)) == hash(cons(1, 2))


def test_is_ground():
    assert is_ground(term_from_list([1, 2, 3]))
    assert not is_ground(cons(1, fresh_var()))
    assert is_ground(nil)
    assert not is_ground(fresh_var())


def test_deep_term_eq_is_stack_safe():
    def build():
        t = 0
        for i in range(50_000):
            t = cons(i, t)
        return t

    assert term_eq(build(), build())


def test_var_hint_in_repr():
    v = fresh_var("x")
    assert "x" in repr(v)
    assert isinstance(v, LogicVar)


# --- the ground flag ------------------------------------------------------


def _has_var(t):
    """Reference for the flag: a full traversal looking for a variable."""
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, LogicVar):
            return True
        if isinstance(x, ConsCell):
            stack.append(x.car)
            stack.append(x.cdr)
        elif isinstance(x, ExprTerm):
            stack.extend(tuple.__iter__(x))
    return False


def _assert_flags_agree(t):
    """The flag of t and of every subterm agrees with the reference."""
    stack = [t]
    while stack:
        x = stack.pop()
        assert is_ground(x) is not _has_var(x), x
        if isinstance(x, ConsCell):
            stack.append(x.car)
            stack.append(x.cdr)
        elif isinstance(x, ExprTerm):
            stack.extend(tuple.__iter__(x))


def _random_native(rng, variables, depth=3):
    """Nested Python lists of atoms and variables, for to_term."""
    if variables and rng.random() < 0.2:
        return rng.choice(variables)
    if depth <= 0 or rng.random() < 0.3:
        return random_atom(rng)
    if rng.random() < 0.3:
        op = rng.choice(list(OPERATORS))
        args = [_random_native(rng, variables, depth - 1) for _ in range(OPERATORS[op])]
        return make_expr(op, *args)
    return [_random_native(rng, variables, depth - 1) for _ in range(rng.randrange(4))]


def _random_text(rng, depth=3):
    """Source text mixing atoms, ?x / ?y, ?_, dotted pairs and operator heads."""
    r = rng.random()
    if depth <= 0 or r < 0.3:
        return rng.choice(["1", "2.5", "foo", '"s"', "#t", "()", "?x", "?y", "?_"])
    if r < 0.5:
        op = rng.choice(["add", "mul", "log"])
        arity = 1 if op == "log" else 2
        return "(" + " ".join([op] + [_random_text(rng, depth - 1) for _ in range(arity)]) + ")"
    if r < 0.6:
        return f"({_random_text(rng, depth - 1)} . {_random_text(rng, depth - 1)})"
    return "(" + " ".join(_random_text(rng, depth - 1) for _ in range(rng.randrange(4))) + ")"


def _partial_subst(rng, variables):
    """Bind some variables, each only to terms over later ones (acyclic)."""
    s = {}
    for i, v in enumerate(variables):
        if rng.random() < 0.5:
            s = s | {v: random_term(rng, variables[i + 1 :], depth=2)}
    return s


class _SubExpr(ExprTerm):
    pass


@pytest.mark.parametrize("seed", range(20))
def test_ground_flag_agrees_with_a_full_traversal(seed):
    rng = seeded(seed)
    reg = builtin_registry()
    for _ in range(40):
        pool = variable_pool(rng.randrange(0, 4))
        # cons, term_from_list and make_expr
        t = random_term(rng, pool)
        _assert_flags_agree(t)
        # to_term of nested native sequences
        _assert_flags_agree(to_term(_random_native(rng, pool)))
        # the reader, with and without operator heads
        text = _random_text(rng)
        _assert_flags_agree(parse_sexpr(text))
        _assert_flags_agree(parse_sexpr(text, registry=reg))
        # slices of expression terms
        e = make_expr(*[random_term(rng, pool, depth=1) for _ in range(rng.randrange(1, 5))])
        for i in range(len(e)):
            for j in range(i + 1, len(e) + 1):
                _assert_flags_agree(e[i:j])
        # walk_star and reify of partly bound terms rebuild fresh cells
        s = _partial_subst(rng, pool)
        _assert_flags_agree(walk_star(t, s))
        _assert_flags_agree(reify(t, s))
        # ExprTerm called directly
        e = ExprTerm([random_term(rng, pool, depth=1) for _ in range(rng.randrange(1, 5))])
        _assert_flags_agree(e)
        # term_from_list over a generator, with an atom, a variable and an
        # expression-term tail: the cars and the tail are the given objects
        v = pool[0] if pool else fresh_var()
        cars = [random_term(rng, pool, depth=1) for _ in range(rng.randrange(0, 5))]
        for tail in (random_atom(rng), v, e):
            lst = term_from_list((x for x in cars), tail)
            _assert_flags_agree(lst)
            for x in cars:
                assert lst.car is x and lst._hash is None
                # the same slot values as the single-cell constructor sets
                ref = ConsCell(lst.car, lst.cdr)
                assert [getattr(lst, a) for a in ConsCell.__slots__] == [
                    getattr(ref, a) for a in ConsCell.__slots__
                ]
                lst = lst.cdr
            assert lst is tail
        # copies of a non-ground expression term go through ExprTerm.__new__
        open_e = make_expr(Symbol("add"), v, e)
        _assert_flags_agree(copy.copy(open_e))
        _assert_flags_agree(copy.deepcopy(open_e))
        # a subclass of ExprTerm stays its own type, called or copied
        for sub in (_SubExpr([Symbol("add"), 1]), _SubExpr([Symbol("add"), v, e])):
            for x in (sub, copy.copy(sub), copy.deepcopy(sub)):
                assert type(x) is _SubExpr
                _assert_flags_agree(x)


@pytest.mark.parametrize("seed", range(10))
def test_ground_terms_come_back_unchanged(seed):
    rng = seeded(seed)
    for _ in range(40):
        pool = variable_pool(3)
        s = _partial_subst(rng, pool)
        g = random_term(rng, [])
        assert is_ground(g)
        assert walk_star(g, s) is g
        assert reify(g, s) is g
        # a ground part of an open term is kept by identity as well
        t = cons(pool[0], g)
        assert walk_star(t, s).cdr is g
        assert reify(t, s).cdr is g


def test_ground_flag_of_atoms_and_variables():
    for atom in (0, 2.5, "s", True, Symbol("foo"), nil):
        assert is_ground(atom)
    v = fresh_var()
    assert not is_ground(v)
    assert not is_ground(make_expr(Symbol("add"), 1, v))
    assert is_ground(make_expr(Symbol("add"), 1, 2))
    assert not is_ground(term_from_list([1, 2, v]))
    assert not is_ground(cons(1, v))
