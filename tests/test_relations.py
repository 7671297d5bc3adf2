import itertools
import random
import tracemalloc

import pytest

from relkanren import (
    GroundednessError,
    Symbol,
    alpha_eq,
    conde,
    cons,
    conso,
    delay,
    eq,
    eq_comm,
    fresh_var,
    lall,
    lany,
    list_from_term,
    make_expr,
    membero,
    neq,
    nil,
    permuteo,
    print_term,
    reduceo,
    run,
    run_bounded,
    term_eq,
    term_from_list,
    term_hash,
    walko,
)
from relkanren.relations import _distinct_permutations
from relkanren.rules import math_reduce_rule
from relkanren.terms import spine_elements

ADD = Symbol("add")
MUL = Symbol("mul")
LOG = Symbol("log")
EXP = Symbol("exp")
SUB = Symbol("sub")


def test_conso_forward():
    p = fresh_var()
    answers = run(0, p, conso(1, term_from_list([2, 3]), p))
    assert len(answers) == 1
    assert term_eq(answers[0], term_from_list([1, 2, 3]))


def test_conso_backward():
    h, t = fresh_var(), fresh_var()
    answers = run(0, term_from_list([h, t]), conso(h, t, term_from_list([1, 2])))
    assert len(answers) == 1


def test_membero_enumerates():
    x = fresh_var()
    assert run(0, x, membero(x, (1, 2, 3))) == (1, 2, 3)


def test_membero_checks():
    q = fresh_var()
    assert run(0, q, lall(membero(2, (1, 2, 3)), eq(q, "yes"))) == ("yes",)
    assert run(0, q, lall(membero(5, (1, 2, 3)), eq(q, "yes"))) == ()


def test_membero_duplicates_give_multiple_proofs():
    q = fresh_var()
    assert len(run(0, q, lall(membero(1, (1, 1)), eq(q, "yes")))) == 2


def test_membero_over_a_known_list_binds_only_its_element():
    x = fresh_var()
    states = []

    def capture(state):
        states.append(state)
        return (state,)

    assert run(0, x, lall(membero(x, tuple(range(50))), capture)) == tuple(range(50))
    assert [len(st.subst) for st in states] == [1] * 50


def test_membero_reads_a_list_bound_earlier():
    x, q = fresh_var(), fresh_var()
    assert run(0, x, lall(eq(q, (1, 2, 3)), membero(x, q))) == (1, 2, 3)


def test_membero_over_an_open_list_places_the_element_at_each_position():
    q = fresh_var()
    answers = run(3, q, membero(7, q))
    assert [print_term(a) for a in answers] == [
        "(7 . ?_0)", "(?_0 7 . ?_1)", "(?_0 ?_1 7 . ?_2)",
    ]


def test_permuteo_enumerates_all_permutations():
    q = fresh_var()
    answers = run(0, q, permuteo((1, 2, 3), q))
    assert len(answers) == 6
    got = {tuple(str(a) for a in _items(t)) for t in answers}
    want = {tuple(str(x) for x in p) for p in itertools.permutations((1, 2, 3))}
    assert got == want


def _items(t):
    out = []
    while t is not nil:
        out.append(t.car)
        t = t.cdr
    return out


def test_expr_tail_is_part_of_the_list_spine():
    t = cons(1, make_expr(ADD, 2, 3))
    assert list_from_term(t) == [1, ADD, 2, 3]
    assert spine_elements(t) == list_from_term(t)
    assert print_term(t) == "(1 add 2 3)"
    q = fresh_var()
    answers = run(0, q, permuteo(t, q))
    assert len(answers) == 24
    assert len({print_term(a) for a in answers}) == 24


def test_permuteo_ground_multiset_check():
    q = fresh_var()
    assert run(0, q, lall(permuteo((1, 2, 2), (2, 1, 2)), eq(q, True))) == (True,)
    assert run(0, q, lall(permuteo((1, 2, 2), (2, 1, 1)), eq(q, True))) == ()
    assert run(0, q, lall(permuteo((1, 2), (1, 2, 3)), eq(q, True))) == ()


def test_permuteo_strict_atoms():
    q = fresh_var()
    assert run(0, q, lall(permuteo((2,), (2.0,)), eq(q, True))) == ()


def test_permuteo_duplicate_elements_no_duplicate_answers():
    q = fresh_var()
    answers = run(0, q, permuteo((1, 1, 2), q))
    assert len(answers) == 3


def test_permuteo_reverse_direction():
    q = fresh_var()
    answers = run(0, q, permuteo(q, (1, 2)))
    assert len(answers) == 2


def test_permuteo_needs_one_ground_spine():
    with pytest.raises(GroundednessError):
        run(1, fresh_var(), permuteo(fresh_var(), fresh_var()))


@pytest.mark.parametrize(
    "a, b",
    [(1, None), (Symbol("a"), True), (cons(1, 2), None)],
    ids=["integer", "symbol-and-boolean", "improper-list"],
)
def test_permuteo_fails_where_a_side_is_never_a_proper_list(a, b):
    q = fresh_var()
    assert run(0, q, permuteo(a, q if b is None else b)) == ()


class _RefKey:
    """Strict structural wrapper so multisets distinguish 2 from 2.0."""

    __slots__ = ("t",)

    def __init__(self, t):
        self.t = t

    def __eq__(self, other):
        return term_eq(self.t, other.t)

    def __hash__(self):
        return term_hash(self.t)


def _ref_distinct_permutations(items):
    """Each ordering of items once, kept out of a set of every ordering
    already yielded."""
    seen = set()
    for perm in itertools.permutations(items):
        key = tuple(_RefKey(x) for x in perm)
        if key not in seen:
            seen.add(key)
            yield perm


def test_distinct_permutations_match_the_seen_set_reference():
    rng = random.Random(1502)
    shared = [fresh_var(), fresh_var()]

    def pool():
        return [
            2, 2.0, True, 1, Symbol("s"), "s", nil,
            make_expr(ADD, 1, 2), term_from_list([ADD, 1, 2]),
            cons(1, 2), cons(1, 2), cons(1, 2.0),
            make_expr(ADD, shared[0], 2), term_from_list([ADD, shared[0], 2]),
            shared[0], shared[1], fresh_var(),
        ]

    orderings = 0
    for _ in range(500):
        items = rng.choices(pool(), k=rng.randrange(7))
        got = list(_distinct_permutations(items))
        ref = list(_ref_distinct_permutations(items))
        assert len(got) == len(ref), items
        for a, b in zip(got, ref):
            assert len(a) == len(b) and all(x is y for x, y in zip(a, b)), items
        orderings += len(ref)
    assert orderings > 25_000


def test_distinct_permutations_store_no_ordering():
    items = list(range(8))
    tracemalloc.start()
    try:
        count = sum(1 for _ in _distinct_permutations(items))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 40_320
    assert peak < 2_000_000, peak


def test_reduceo_first_answer_is_most_reduced():
    q = fresh_var()
    t = make_expr(LOG, make_expr(EXP, make_expr(ADD, 5, 5)))
    answers = run(0, q, reduceo(math_reduce_rule, t, q))
    assert term_eq(answers[0], make_expr(MUL, 2, 5))
    assert any(term_eq(a, make_expr(ADD, 5, 5)) for a in answers)


def test_reduceo_requires_at_least_one_step():
    q = fresh_var()
    assert run(0, q, reduceo(math_reduce_rule, 7, q)) == ()


def test_walko_rewrites_a_subterm():
    q = fresh_var()
    t = make_expr(MUL, make_expr(ADD, 3, 3), 9)
    answers = run(0, q, walko(math_reduce_rule, t, q))
    assert any(term_eq(a, make_expr(MUL, make_expr(MUL, 2, 3), 9)) for a in answers)


def test_walko_includes_identity_answer():
    q = fresh_var()
    answers = run(0, q, walko(math_reduce_rule, 7, q))
    assert any(term_eq(a, 7) for a in answers)


def test_walko_fresh_on_both_sides_is_productive():
    e, r = fresh_var(), fresh_var()
    answers = run(5, term_from_list([e, r]), walko(math_reduce_rule, e, r))
    assert len(answers) == 5


def test_eq_comm_commutes_arguments():
    x, y = fresh_var(), fresh_var()
    from relkanren.rules import default_registry

    reg = default_registry()
    answers = run(
        0, term_from_list([x, y]), eq_comm(make_expr(ADD, 1, x), make_expr(ADD, y, 1), reg)
    )
    assert len(answers) == 2
    pattern = term_from_list([1, 1])
    assert any(term_eq(a, pattern) for a in answers)
    v = fresh_var()
    assert any(alpha_eq(a, term_from_list([v, v])) for a in answers)


def test_eq_comm_noncommutative_falls_back_to_eq():
    from relkanren.rules import default_registry

    reg = default_registry()
    q = fresh_var()
    g = lall(eq_comm(make_expr(Symbol("sub"), 1, 2), make_expr(Symbol("sub"), 2, 1), reg), eq(q, "ok"))
    assert run(0, q, g) == ()
    g = lall(eq_comm(make_expr(Symbol("sub"), 1, 2), make_expr(Symbol("sub"), 1, 2), reg), eq(q, "ok"))
    assert run(0, q, g) == ("ok",)


def _fresh_vars_of(t, s) -> set:
    # the distinct fresh variables of walk_star(t, s)
    from relkanren.terms import ConsCell, LogicVar
    from relkanren.unify import walk

    out = set()
    stack = [t]
    while stack:
        x = walk(stack.pop(), s)
        if getattr(x, "ground", True):
            continue
        if isinstance(x, LogicVar):
            out.add(x)
        elif isinstance(x, ConsCell):
            stack.append(x.car)
            stack.append(x.cdr)
        else:
            stack.extend(tuple.__iter__(x))
    return out


def ground_order(pairs, s):
    """Stable sort of term pairs, most-ground first: by the count of
    distinct fresh variables across both components."""
    return sorted(
        pairs, key=lambda uv: len(_fresh_vars_of(uv[0], s) | _fresh_vars_of(uv[1], s))
    )


def _eq_comm_by_enumeration(u, v, reg):
    """Reference: eq_comm's earlier permutation search.  Each distinct
    ordering of u's operands, in itertools.permutations order, is unified
    pairwise with v's operands, most-ground pairs first."""
    from relkanren.terms import car, cdr, is_application
    from relkanren.unify import walk, walk_star

    def goal(state):
        s = state.subst
        uw, vw = walk(u, s), walk(v, s)
        if is_application(uw) and is_application(vw):
            op_u, op_v = walk(car(uw), s), walk(car(vw), s)
            if (
                isinstance(op_u, Symbol)
                and isinstance(op_v, Symbol)
                and op_u.name == op_v.name
                and op_u.name in reg
                and reg.get(op_u.name).commutative
            ):
                ru = spine_elements(walk_star(cdr(uw), s))
                rv = spine_elements(walk_star(cdr(vw), s))
                if ru is not None and rv is not None:
                    if len(ru) != len(rv):
                        return
                    done = []
                    for perm in itertools.permutations(ru):
                        if any(all(map(term_eq, perm, p)) for p in done):
                            continue
                        done.append(perm)
                        pairs = ground_order(list(zip(perm, rv)), s)
                        yield from lall(*(eq(x, y) for x, y in pairs))(state)
                    return
        yield from eq(u, v)(state)

    return goal



def _comm_operand(rng, pool, depth=1):
    r = rng.random()
    if r < 0.35:
        return rng.choice(pool)
    if r < 0.8 or depth == 0:
        return rng.choice((0, 1, 2, 2.0, Symbol("a")))
    op = rng.choice((ADD, MUL, SUB))
    return make_expr(op, _comm_operand(rng, pool, 0), _comm_operand(rng, pool, 0))


def _eq_comm_program(rng):
    """(query, leading goals, u, v): commutative add and mul, non-commutative
    sub, a variadic add, variables shared across both sides, and sometimes
    a neq ahead of the match."""
    pool = [fresh_var() for _ in range(3)]
    op = rng.choice((ADD, ADD, MUL, SUB))
    n = rng.randint(3, 4) if op is ADD and rng.random() < 0.4 else 2
    u = make_expr(op, *(_comm_operand(rng, pool) for _ in range(n)))
    r = rng.random()
    if r < 0.75:
        v = make_expr(op, *(_comm_operand(rng, pool) for _ in range(n)))
    elif r < 0.85:
        # a different operator or a different operand count
        v = make_expr(rng.choice((ADD, MUL, SUB)),
                      *(_comm_operand(rng, pool) for _ in range(rng.randint(2, 3))))
    elif r < 0.95:
        v = cons(op, cons(_comm_operand(rng, pool), rng.choice(pool)))  # open spine
    else:
        v = rng.choice(pool)
    if rng.random() < 0.5:
        u, v = v, u
    goals = []
    if rng.random() < 0.4:
        goals.append(neq(rng.choice(pool), rng.choice((0, 1, 2, rng.choice(pool)))))
    return term_from_list(pool), goals, u, v


def test_eq_comm_matches_permutation_enumeration_on_seeded_programs():
    from relkanren.rules import default_registry

    reg = default_registry()
    rng = random.Random(9091)
    answered = 0
    for _ in range(400):
        q, goals, u, v = _eq_comm_program(rng)
        got = run(0, q, *goals, eq_comm(u, v, reg))
        want = run(0, q, *goals, _eq_comm_by_enumeration(u, v, reg))
        assert len(got) == len(want), (print_term(u), print_term(v))
        assert all(map(term_eq, got, want)), (print_term(u), print_term(v))
        answered += bool(got)
    assert answered > 100


def _walko_unrestricted(rel, u, v):
    """Reference: walko's earlier search, whose descent may leave every
    operand unchanged and so re-derives the equality answer."""

    def step(x, y):
        return conde(
            [delay(lambda: rel(x, y))],
            [_descend(x, y)],
            [eq(x, y)],
        )

    def _descend(x, y):
        rator, dx, dy = fresh_var(), fresh_var(), fresh_var()
        return lall(conso(rator, dx, x), conso(rator, dy, y), _rands(dx, dy))

    def _rands(dx, dy):
        hx, tx = fresh_var(), fresh_var()
        hy, ty = fresh_var(), fresh_var()
        return conde(
            [eq(dx, nil), eq(dy, nil)],
            [
                conso(hx, tx, dx),
                conso(hy, ty, dy),
                delay(lambda: step(hx, hy)),
                delay(lambda: _rands(tx, ty)),
            ],
        )

    return step(u, v)


_LEAVES = ("0", "1", "2", "5", "0.5", "mu", "sigma", "a")


def _model_part(rng, depth=1):
    """s-expression text of a model component: a redex of some builtin
    ruleset or a plain application, with operands nested up to depth.
    Data vectors occur only at the top level."""

    def operand():
        if depth and rng.random() < 0.4:
            return _model_part(rng, depth - 1)
        return rng.choice(_LEAVES)

    shape = rng.randrange(7 if depth else 6)
    if shape == 0:
        x = operand()
        return f"(add {x} {x})"
    if shape == 1:
        return f"(log (exp {operand()}))"
    if shape == 2:
        return f"(add (normal {operand()} 1) (normal {operand()} 2))"
    if shape == 3:
        return f"(add {operand()} (mul {rng.choice(_LEAVES)} (normal 0 1)))"
    if shape == 6:
        return "(observe (1 2) (binomial (3 4) (beta 1 1)))"
    return f"({rng.choice(('mul', 'normal', 'sub'))} {operand()} {operand()})"


def _printed(answers):
    return [print_term(a) for a in answers]


def _first_occurrences(lines):
    return list(dict.fromkeys(lines))


def test_walko_keeps_the_first_occurrence_order_of_unrestricted_descent():
    from relkanren.rules import builtin_rulesets, default_registry
    from relkanren.sexpr import parse_sexpr

    reg = default_registry()
    rules = list(builtin_rulesets().values())
    rules.append(lambda u, v: lany(*(r(u, v) for r in rules[:4])))
    rng = random.Random(6011)
    shorter = 0
    for _ in range(200):
        parts = " ".join(_model_part(rng) for _ in range(rng.randint(1, 2)))
        t = parse_sexpr(f"(model {parts})", registry=reg)
        rule = rng.choice(rules)
        for rel in (rule, lambda a, b, rule=rule: reduceo(rule, a, b)):
            q = fresh_var()
            got = _printed(run(0, q, walko(rel, t, q)))
            want = _printed(run(0, q, _walko_unrestricted(rel, t, q)))
            assert _first_occurrences(got) == _first_occurrences(want), print_term(t)
            assert len(got) <= len(want), print_term(t)
            shorter += len(got) < len(want)
    assert shorter > 200


def test_walko_on_fresh_sides_streams_as_unrestricted_descent():
    e, r = fresh_var(), fresh_var()
    q = term_from_list([e, r])
    got = run(40, q, walko(math_reduce_rule, e, r))
    want = run(40, q, _walko_unrestricted(math_reduce_rule, e, r))
    assert _printed(got) == _printed(want)


def test_walko_backwards_keeps_the_first_occurrence_order_without_repeats():
    for n in (1, 2, 3):
        t = make_expr(Symbol("tuple"), *(make_expr(ADD, 5, 5) for _ in range(n)))
        q = fresh_var()
        got = _printed(run(0, q, walko(math_reduce_rule, q, t)))
        want = _printed(run(0, q, _walko_unrestricted(math_reduce_rule, q, t)))
        assert got == _first_occurrences(want)
        assert len(got) == 5**n + 1


@pytest.mark.parametrize("n", [4, 6, 8])
def test_walko_streams_each_rewrite_of_a_wide_term_once(n):
    t = make_expr(Symbol("tuple"), *(make_expr(ADD, 5, 5) for _ in range(n)))
    q = fresh_var()
    lines = _printed(run(0, q, walko(math_reduce_rule, t, q)))
    assert len(lines) == 2**n
    assert len(set(lines)) == 2**n


def _as_unrestricted(rel, u, v, q):
    """walko's printed answers, checked against the unrestricted reference:
    the same first occurrences in the same order, and never more lines."""
    got = _printed(run(0, q, walko(rel, u, v)))
    want = _printed(run(0, q, _walko_unrestricted(rel, u, v)))
    assert _first_occurrences(got) == _first_occurrences(want)
    assert len(got) <= len(want)
    return got


def test_walko_known_side_with_an_open_operand_list_streams_as_unrestricted_descent():
    # (add 1 . ?t): the known side's operand list has an open tail, so
    # descent stays relational
    x, y = cons(ADD, cons(1, fresh_var())), fresh_var()
    q = term_from_list([x, y])
    got = _first_occurrences(_printed(run(12, q, walko(math_reduce_rule, x, y))))
    assert got[:3] == [
        "((add 1 1) (mul 2 1))",
        "((add 1 (add ?_0 ?_0)) (add 1 (mul 2 ?_0)))",
        "((add 1 . ?_0) (add 1 . ?_0))",
    ]
    want = run(200, q, _walko_unrestricted(math_reduce_rule, x, y))
    sides = {print_term(a): list_from_term(a) for a in want}
    lines = _first_occurrences(_printed(want))
    assert set(got) <= set(lines)
    # below the open tail a pruned descent rewrote nothing: only such
    # instances drop out, e.g. ((add 1) (add 1))
    upto = lines[: max(map(lines.index, got)) + 1]
    dropped = [sides[line] for line in upto if line not in got]
    assert dropped and all(term_eq(a, b) for a, b in dropped)


def test_walko_with_both_sides_known_streams_as_unrestricted_descent():
    t = make_expr(MUL, make_expr(ADD, 3, 3), make_expr(ADD, 2, 2))
    a = fresh_var()
    same_count = make_expr(MUL, a, make_expr(MUL, 2, 2))
    assert _as_unrestricted(math_reduce_rule, t, same_count, a) == ["(mul 2 3)", "(add 3 3)"]
    for other in (make_expr(MUL, a), make_expr(MUL, a, 1, 2), make_expr(SUB, a, make_expr(MUL, 2, 2))):
        assert _as_unrestricted(math_reduce_rule, t, other, a) == []


def test_walko_backwards_over_nested_applications_streams_as_unrestricted_descent():
    t = make_expr(MUL, make_expr(MUL, 2, make_expr(MUL, 2, 5)), make_expr(SUB, make_expr(MUL, 2, 1), 1))
    q = fresh_var()
    got = _as_unrestricted(math_reduce_rule, q, t, q)
    assert got == _first_occurrences(got)
    assert "(mul (add (mul 2 5) (mul 2 5)) (sub (add 1 1) 1))" in got


def test_walko_over_a_data_list_with_an_expression_tail_streams_as_unrestricted_descent():
    # ((add 1 1) 7 . (mul (add 2 2) 3)) is the list ((add 1 1) 7 mul (add 2 2) 3)
    data = cons(make_expr(ADD, 1, 1), cons(7, make_expr(MUL, make_expr(ADD, 2, 2), 3)))
    t = make_expr(Symbol("tuple"), data, make_expr(ADD, 5, 5))
    q = fresh_var()
    got = _as_unrestricted(math_reduce_rule, t, q, q)
    assert "(tuple ((add 1 1) 7 mul (mul 2 2) 3) (mul 2 5))" in got
    assert not any(line.startswith("(tuple ((mul") for line in got)  # operators are not rewritten
    assert _as_unrestricted(math_reduce_rule, q, t, q)


def test_walko_of_reduceo_streams_as_unrestricted_descent():
    t = make_expr(Symbol("tuple"), make_expr(LOG, make_expr(EXP, make_expr(ADD, 2, 2))), make_expr(ADD, 5, 5))
    q = fresh_var()
    got = _as_unrestricted(lambda a, b: reduceo(math_reduce_rule, a, b), t, q, q)
    assert got[0] == "(tuple (mul 2 2) (mul 2 5))"


def test_walko_over_a_wide_list_without_a_redex_fits_its_step_budget():
    t = make_expr(Symbol("tuple"), *range(40))
    q = fresh_var()
    answers, exhausted = run_bounded(0, 700, q, walko(math_reduce_rule, t, q))
    assert not exhausted
    assert _printed(answers) == [print_term(t)]


def test_walko_down_a_deep_term_fits_its_step_budget():
    d = 1
    for _ in range(400):
        d = make_expr(ADD, d, 1)
    t = make_expr(LOG, make_expr(EXP, d))
    q = fresh_var()
    answers, exhausted = run_bounded(0, 25_000, q, walko(math_reduce_rule, t, q))
    assert not exhausted
    assert len(answers) == 3 and term_eq(answers[0], d)
