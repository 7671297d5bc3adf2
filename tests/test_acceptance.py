"""End-to-end acceptance gate.

Each test here is one acceptance criterion and asserts both behavior and
the stated time bound, so a verbose pytest run gives one pass/fail line
per criterion.
"""

import io
import math
import time

import pytest

from relkanren import (
    Symbol,
    alpha_eq,
    conde,
    cons,
    conso,
    delay,
    eq,
    eval_expr,
    fresh_var,
    lall,
    lany,
    make_expr,
    membero,
    neq,
    nil,
    occurs,
    permuteo,
    reduceo,
    reify,
    run,
    term_eq,
    term_from_list,
    type_constraint,
    unify,
    walk,
    walk_star,
    walko,
)
from relkanren.cli import main as cli_main
from relkanren.exprs import OperatorDef, OperatorRegistry, builtin_registry
from relkanren.rules import (
    ADD,
    BETA,
    BINOMIAL,
    EXP,
    LOG,
    MUL,
    NORMAL,
    OBSERVE,
    beta_binomial_conjugate,
    math_reduce_rule,
    normal_affine_rule,
    normal_sum_rule,
)
from relkanren.sexpr import parse_sexpr, print_term
from relkanren.rules import default_registry

from conftest import random_ground_term, random_term, seeded, variable_pool


def timed(limit):
    """Context manager asserting the body ran within `limit` seconds."""

    class _Timer:
        def __enter__(self):
            self.t0 = time.monotonic()
            return self

        def __exit__(self, *exc):
            if exc[0] is None:
                assert time.monotonic() - self.t0 < limit
            return False

    return _Timer()


def math_reduceo(u, v):
    return reduceo(math_reduce_rule, u, v)


def test_criterion_01_constrained_membership_queries():
    with timed(1.0):
        x = fresh_var()
        answers = run(0, x, lall(neq(x, 1), neq(x, 3), membero(x, (1, 2, 3))))
        assert answers == (2,)

        x = fresh_var()
        answers = run(
            0, x, lall(type_constraint(x, "integer"), membero(x, (1.1, 2, 3.2, 4)))
        )
        assert answers == (2, 4)


def test_criterion_02_unification_and_reification():
    car_var, cdr_var = fresh_var(), fresh_var()
    s = unify(term_from_list([1, 2]), cons(car_var, cdr_var), {})
    assert s is not None
    assert walk(car_var, s) == 1
    assert term_eq(walk_star(cdr_var, s), term_from_list([2]))

    cdr_var = fresh_var()
    s = unify(cdr_var, term_from_list([2, 3]), {})
    out = reify(cons(1, cdr_var), s)
    assert term_eq(out, term_from_list([1, 2, 3]))


def test_criterion_03_evaluation_with_caching():
    calls = []
    reg = OperatorRegistry()
    reg.register(
        OperatorDef("add", 2, lambda a: calls.append(1) or a[0] + a[1])
    )
    e = make_expr(ADD, 1, 2)
    assert eval_expr(e, reg) == 3
    before = len(calls)
    assert eval_expr(e, reg) == 3
    assert eval_expr(make_expr(ADD, 1, 2), reg) == 3
    assert len(calls) == before


def test_criterion_04_walko_enumeration():
    with timed(5.0):
        e, r = fresh_var(), fresh_var()
        answers = run(10, term_from_list([e, r]), walko(math_reduceo, e, r))
        assert len(answers) == 10
        pairs = [(a.car, a.cdr.car) for a in answers]

        x = fresh_var()
        doubled = (make_expr(ADD, x, x), make_expr(MUL, 2, x))
        assert alpha_eq(term_from_list(list(pairs[0])), term_from_list(list(doubled)))

        assert any(
            term_eq(u, v) and (hasattr(u, "car") or isinstance(u, tuple))
            for u, v in pairs
        )

        log_exp = (
            make_expr(LOG, make_expr(EXP, make_expr(ADD, x, x))),
            make_expr(MUL, 2, x),
        )
        assert any(
            alpha_eq(term_from_list([u, v]), term_from_list(list(log_exp)))
            for u, v in pairs
        )


def test_criterion_05_constrained_expansion_query():
    with timed(10.0):
        e, r, arg, first, rest, fc, fd = (fresh_var() for _ in range(7))
        goals = lall(
            eq(e, make_expr(LOG, arg)),
            eq(arg, make_expr(ADD, first, rest)),
            conso(fc, fd, first),
            neq(fc, ADD),
            walko(math_reduceo, e, r),
        )
        answers = run(10, term_from_list([e, r]), goals)
        assert len(answers) == 10
        for a in answers:
            ew = a.car
            items = _spine(ew)
            assert items[0] == LOG
            arg_items = _spine(items[1])
            assert arg_items[0] == ADD
            first_operand = arg_items[1]
            head = _spine(first_operand)[0]
            assert not (isinstance(head, Symbol) and head == ADD)


def _spine(t):
    if isinstance(t, tuple):
        return list(tuple.__iter__(t))
    items = []
    while t is not nil and hasattr(t, "car"):
        items.append(t.car)
        t = t.cdr
    return items


def test_criterion_06_conjugate_posterior_parameters():
    with timed(2.0):
        reg = builtin_registry()

        def posterior(alpha, beta, n, y):
            model = make_expr(
                OBSERVE, y, make_expr(BINOMIAL, n, make_expr(BETA, alpha, beta))
            )
            q = fresh_var()
            (rhs,) = run(1, q, beta_binomial_conjugate(model, q))
            return eval_expr(rhs[2][1], reg), eval_expr(rhs[2][2], reg)

        assert posterior(2, 2, 10, 7) == (9, 5)

        rng = seeded(41)
        for _ in range(50):
            alpha = rng.randint(1, 50)
            beta = rng.randint(1, 50)
            n = rng.randint(0, 100)
            y = rng.randint(0, n)
            assert posterior(alpha, beta, n, y) == (alpha + y, beta + n - y)


def _math_instances(rng):
    base = rng.randint(-50, 50)
    t = rng.choice(
        [make_expr(ADD, base, base), make_expr(LOG, make_expr(EXP, base))]
    )
    return t


def _normal_sum_instances(rng):
    return make_expr(
        ADD,
        make_expr(NORMAL, rng.randint(-9, 9), rng.randint(1, 9)),
        make_expr(NORMAL, rng.randint(-9, 9), rng.randint(1, 9)),
    )


def _normal_affine_instances(rng):
    return make_expr(
        ADD,
        rng.randint(-9, 9),
        make_expr(MUL, rng.randint(1, 9), make_expr(NORMAL, 0, 1)),
    )


def _beta_binomial_instances(rng):
    n = rng.randint(1, 40)
    y = rng.randint(0, n)
    return make_expr(
        OBSERVE,
        term_from_list([y]),
        make_expr(
            BINOMIAL,
            term_from_list([n]),
            make_expr(BETA, rng.randint(1, 20), rng.randint(1, 20)),
        ),
    )


def test_criterion_07_rule_bidirectionality():
    with timed(10.0):
        rng = seeded(47)
        suites = [
            (math_reduce_rule, _math_instances),
            (normal_sum_rule, _normal_sum_instances),
            (normal_affine_rule, _normal_affine_instances),
            (beta_binomial_conjugate, _beta_binomial_instances),
        ]
        for rule, gen in suites:
            for _ in range(20):
                original = gen(rng)
                q = fresh_var()
                forward = run(1, q, rule(original, q))
                assert forward, f"no forward answer for {original!r}"
                p = fresh_var()
                backward = run(0, p, rule(p, forward[0]))
                assert any(term_eq(b, original) for b in backward)


def test_criterion_08_stack_safety_on_deep_terms():
    wide = term_from_list(list(range(100_000)))
    with timed(10.0):
        v = fresh_var()
        s = unify(wide, v, {})
        assert s is not None
        assert term_eq(walk_star(v, s), wide)
        assert term_eq(reify(v, s), wide)

    deep = 0
    for i in range(100_000):
        deep = cons(deep, i)
    with timed(10.0):
        v = fresh_var()
        s = unify(deep, v, {})
        assert s is not None
        assert term_eq(walk_star(v, s), deep)
        assert term_eq(reify(v, s), deep)
        assert not occurs(fresh_var(), deep, {})


def test_criterion_09a_unification_properties():
    with timed(10.0):
        rng = seeded(53)
        for _ in range(300):
            pool = variable_pool(4)
            u = random_term(rng, pool)
            v = random_term(rng, pool)
            s1 = unify(u, v, {})
            s2 = unify(v, u, {})
            assert (s1 is None) == (s2 is None)
            if s1 is None:
                continue
            assert term_eq(walk_star(u, s1), walk_star(v, s1))
            w = random_term(rng, pool)
            pre = walk_star(w, s1)
            s3 = unify(w, pre, s1)
            assert s3 is not None
            assert term_eq(walk_star(u, s3), walk_star(v, s3))


def test_criterion_09b_interleaving_completeness():
    def nats(x, n=0):
        return conde([eq(x, n)], [delay(lambda: nats(x, n + 1))])

    with timed(10.0):
        rng = seeded(59)
        for _ in range(300):
            k = rng.randint(0, 40)
            x = fresh_var()
            answers = run(4, x, lany(nats(x), eq(x, -1 - k)))
            assert -1 - k in answers
            answers = run(k + 2, x, nats(x))
            assert k in answers


def test_criterion_09c_constraint_order_commutativity():
    with timed(10.0):
        rng = seeded(61)
        atoms = [0, 1, 2, "a", "b", Symbol("s"), True, 2.5]
        for _ in range(300):
            x = fresh_var()
            forbidden = rng.choice(atoms)
            bound = rng.choice(atoms)
            g1 = lall(neq(x, forbidden), eq(x, bound))
            g2 = lall(eq(x, bound), neq(x, forbidden))
            a1 = run(0, x, g1)
            a2 = run(0, x, g2)
            assert len(a1) == len(a2)
            if a1:
                assert term_eq(a1[0], a2[0])
            expected_success = unify(forbidden, bound, {}) is None
            assert bool(a1) == expected_success


def test_criterion_09d_permuteo_factorial_oracle():
    with timed(10.0):
        rng = seeded(67)
        for _ in range(300):
            n = rng.randint(0, 5)
            items = rng.sample(range(10), n)
            q = fresh_var()
            answers = run(0, q, permuteo(tuple(items), q))
            assert len(answers) == math.factorial(n)
            ok = fresh_var()
            shuffled = items[:]
            rng.shuffle(shuffled)
            res = run(
                0, ok, lall(permuteo(tuple(items), tuple(shuffled)), eq(ok, True))
            )
            assert res == (True,)


def _root_reduction_oracle(t):
    """Repeatedly apply the math identities at the root only."""
    while True:
        items = _spine(t) if not isinstance(t, (int, float)) else None
        if not items:
            return t
        if items[0] == ADD and len(items) == 3 and term_eq(items[1], items[2]):
            t = make_expr(MUL, 2, items[1])
            continue
        if items[0] == LOG and len(items) == 2:
            inner = _spine(items[1]) if not isinstance(items[1], (int, float)) else None
            if inner and inner[0] == EXP and len(inner) == 2:
                t = inner[1]
                continue
        return t


def test_criterion_09e_reduceo_first_answer_fixed_point():
    with timed(10.0):
        rng = seeded(71)
        for _ in range(300):
            t = rng.randint(1, 9)
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.5:
                    t = make_expr(ADD, t, t)
                else:
                    t = make_expr(LOG, make_expr(EXP, t))
            q = fresh_var()
            first = run(1, q, reduceo(math_reduce_rule, t, q))[0]
            expected = _root_reduction_oracle(t)
            assert term_eq(first, expected)
            z = fresh_var()
            assert run(0, z, math_reduce_rule(first, z)) == ()


def test_criterion_09f_cli_syntax_round_trip():
    with timed(10.0):
        rng = seeded(73)
        reg = default_registry()
        for _ in range(300):
            t = random_ground_term(rng)
            text = print_term(t)
            assert term_eq(parse_sexpr(text, registry=reg), t)
            assert print_term(parse_sexpr(text, registry=reg)) == text


GOLDEN = [
    (
        ["rewrite", "--rules", "beta-binomial", "--mode", "walk"],
        "(observe (7) (binomial (10) (beta 2 2)))",
        "(binomial (10) (beta (add 2 (sum (7))) (add 2 (sub (sum (10)) (sum (7))))))\n",
        0,
    ),
    (
        ["rewrite", "--rules", "math", "--mode", "reduce", "--max-answers", "1"],
        "(log (exp (add 5 5)))",
        "(mul 2 5)\n",
        0,
    ),
    (
        ["rewrite", "--rules", "beta-binomial"],
        "(normal 0 1)",
        "",
        1,
    ),
    (
        ["query", "--goal", "(run 0 ?x (neq ?x 1) (neq ?x 3) (membero ?x (1 2 3)))"],
        "",
        "2\n",
        0,
    ),
    (
        ["query", "--goal", "(run 0 ?x (typeo ?x integer) (membero ?x (1.1 2 3.2 4)))"],
        "",
        "2\n4\n",
        0,
    ),
    (
        ["query", "--goal", "(run 1 ?q (rule math (add 5 5) ?q))"],
        "",
        "(mul 2 5)\n",
        0,
    ),
]


@pytest.mark.parametrize("argv,stdin,want_out,want_code", GOLDEN)
def test_criterion_10_cli_golden(argv, stdin, want_out, want_code, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli_main(argv)
    captured = capsys.readouterr()
    assert captured.out == want_out
    assert code == want_code
