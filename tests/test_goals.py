import sys
from collections import Counter
from contextlib import contextmanager

import pytest

from relkanren import (
    ALL,
    StepBudgetExceeded,
    conde,
    delay,
    eq,
    fail,
    fresh_var,
    lall,
    lany,
    list_from_term,
    make_expr,
    membero,
    reduceo,
    run,
    run_bounded,
    step_budget,
    succeed,
    term_eq,
    term_from_list,
)
from relkanren.rules import ADD, EXP, LOG, MUL, math_reduce_rule


def nats(x, n=0):
    """Enumerate the naturals: an infinite but productive goal."""
    return conde([eq(x, n)], [delay(lambda: nats(x, n + 1))])


def test_eq_binds():
    x = fresh_var()
    assert run(0, x, eq(x, 5)) == (5,)


def test_eq_conflict_fails():
    x = fresh_var()
    assert run(0, x, lall(eq(x, 1), eq(x, 2))) == ()


def test_succeed_and_fail():
    x = fresh_var()
    assert run(0, x, lall(succeed, eq(x, 1))) == (1,)
    assert run(0, x, lall(fail, eq(x, 1))) == ()


def test_run_zero_means_all():
    x = fresh_var()
    answers = run(0, x, conde([eq(x, 1)], [eq(x, 2)], [eq(x, 3)]))
    assert answers == (1, 2, 3)


def test_run_all_marker():
    x = fresh_var()
    assert run(ALL, x, conde([eq(x, 1)], [eq(x, 2)])) == (1, 2)


def test_run_limits_answers():
    x = fresh_var()
    assert run(2, x, conde([eq(x, 1)], [eq(x, 2)], [eq(x, 3)])) == (1, 2)


def test_lall_is_conjunction():
    x, y = fresh_var(), fresh_var()
    answers = run(0, term_from_list([x, y]), lall(eq(x, 1), eq(y, 2)))
    assert len(answers) == 1


def test_lall_duplicate_goal_single_answer():
    x = fresh_var()
    assert run(0, x, lall(eq(x, 1), eq(x, 1))) == (1,)


def test_lany_is_disjunction():
    x = fresh_var()
    assert set(run(0, x, lany(eq(x, 1), eq(x, 2)))) == {1, 2}


def test_lany_interleaves_with_infinite_branch():
    x = fresh_var()
    answers = run(4, x, lany(nats(x), eq(x, -1)))
    assert -1 in answers


def test_conde_multiple_clauses():
    x, y = fresh_var(), fresh_var()
    q = term_from_list([x, y])
    answers = run(0, q, conde([eq(x, 1), eq(y, 2)], [eq(x, 3), eq(y, 4)]))
    assert len(answers) == 2


def test_delay_defers_construction():
    calls = []
    x = fresh_var()

    def expensive():
        calls.append(1)
        return eq(x, 1)

    g = delay(expensive)
    assert calls == []
    assert run(0, x, g) == (1,)
    assert calls == [1]


def test_infinite_enumeration_is_productive():
    x = fresh_var()
    assert run(5, x, nats(x)) == (0, 1, 2, 3, 4)


def test_step_budget_raises():
    x = fresh_var()
    with pytest.raises(StepBudgetExceeded):
        with step_budget(10):
            run(100, x, nats(x))


def test_step_budget_unlimited_outside_context():
    x = fresh_var()
    assert len(run(50, x, nats(x))) == 50


def test_run_bounded_reports_exhaustion():
    x = fresh_var()
    answers, exhausted = run_bounded(100, 10, x, nats(x))
    assert exhausted
    assert len(answers) < 100

    answers, exhausted = run_bounded(3, 10_000, x, nats(x))
    assert not exhausted
    assert answers == (0, 1, 2)


@pytest.mark.parametrize("n", [-1, -5, 1.5])
def test_run_rejects_an_invalid_answer_count(n):
    x = fresh_var()
    with pytest.raises(ValueError, match=f"got {n}"):
        run(n, x, eq(x, 1))
    with pytest.raises(ValueError, match=f"got {n}"):
        run_bounded(n, 10, x, eq(x, 1))


def test_budget_monotonic_prefix():
    x = fresh_var()
    small, _ = run_bounded(50, 40, x, nats(x))
    large, _ = run_bounded(50, 400, x, nats(x))
    assert tuple(large[: len(small)]) == tuple(small)


def test_two_infinite_branches_interleave_fairly():
    x = fresh_var()

    def evens(v, n=0):
        return conde([eq(v, n)], [delay(lambda: evens(v, n + 2))])

    def odds(v, n=1):
        return conde([eq(v, n)], [delay(lambda: odds(v, n + 2))])

    answers = run(10, x, lany(evens(x), odds(x)))
    assert len([a for a in answers if a % 2 == 0]) == 5
    assert len([a for a in answers if a % 2 == 1]) == 5


@contextmanager
def shallow_stack():
    """Allow only 60 frames above the caller: a search whose Python stack
    grows with its size fails inside this block."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def test_membero_over_a_long_list_is_stack_safe():
    x = fresh_var()
    with shallow_stack():
        answers = run(0, x, membero(x, tuple(range(1000))))
    assert answers == tuple(range(1000))


def test_wide_disjunction_and_long_conjunction_are_stack_safe():
    x = fresh_var()
    with shallow_stack():
        wide = run(0, x, lany(*(eq(x, i) for i in range(10_000))))
        long = run(0, x, lall(*(eq(x, 7) for _ in range(10_000))))
    assert sorted(wide) == list(range(10_000))
    assert long == (7,)


def test_recursive_relation_is_stack_safe():
    x = fresh_var()
    with shallow_stack():
        answers = run(10_000, x, nats(x))
    assert answers == tuple(range(10_000))


def test_infinite_branches_share_answers_evenly():
    def tagged(v, tag, n=0):
        return conde([eq(v, (tag, n))], [delay(lambda: tagged(v, tag, n + 1))])

    x = fresh_var()
    with shallow_stack():
        answers = run(600, x, lany(*(tagged(x, tag) for tag in range(6))))
    shares = Counter(list_from_term(a)[0] for a in answers)
    assert sorted(shares) == list(range(6))
    assert all(99 <= n <= 101 for n in shares.values())


@pytest.mark.parametrize("wraps", [1, 30])
def test_reduceo_answers_the_fixed_point_first_on_a_shallow_stack(wraps):
    term = make_expr(ADD, 5, 5)
    for _ in range(wraps):
        term = make_expr(LOG, make_expr(EXP, term))
    q = fresh_var()
    with shallow_stack():
        first = run(1, q, reduceo(math_reduce_rule, term, q))
    assert len(first) == 1
    assert term_eq(first[0], make_expr(MUL, 2, 5))


def test_budget_stops_an_unproductive_loop():
    def loop():
        return delay(loop)

    x = fresh_var()
    with shallow_stack(), pytest.raises(StepBudgetExceeded):
        with step_budget(1000):
            run(1, x, loop())


def test_disjunction_passes_its_turn_before_a_later_conjunct_runs():
    # generate-and-test: every answer of nats fails the test conjunct, so
    # the sibling branch must get its turn on nats' own answers
    x = fresh_var()
    assert run(1, x, lall(lany(nats(x), eq(x, -1)), eq(x, -1))) == (-1,)
    wide = lany(nats(x), nats(x, 5), eq(x, -1), nats(x, 9))
    assert run(1, x, lall(wide, eq(x, -1))) == (-1,)


@pytest.mark.parametrize(
    "returned, want",
    [
        (lambda x: eq(x, 1), (1,)),
        (lambda x: lany(eq(x, 1), eq(x, 2)), (1, 2)),
        (lambda x: lambda state: eq(x, 2), (2,)),
    ],
    ids=["eq", "lany", "function-goal"],
)
def test_a_goal_may_return_the_goal_to_run(returned, want):
    x = fresh_var()

    def goal(state):
        return returned(x)

    assert run(0, x, goal) == want
    assert run(0, x, lall(goal, succeed)) == want
    assert run(0, x, lany(fail, goal)) == want


CHAIN = 100_000


def chain(x, n):
    """n goals, each returning the next; the last returns eq(x, n)."""
    def link(i):
        return lambda state: eq(x, n) if i == n else link(i + 1)

    return link(1)


def test_a_chain_of_returned_goals_costs_one_step_a_link():
    x = fresh_var()
    # one step for run's conjunction, one per link, one for eq, one to
    # hand the answer over
    budget = CHAIN + 3
    with shallow_stack():
        assert run(0, x, chain(x, CHAIN)) == (CHAIN,)
        assert run_bounded(1, budget, x, chain(x, CHAIN)) == ((CHAIN,), False)
        assert run_bounded(1, budget - 1, x, chain(x, CHAIN)) == ((), True)
    assert run_bounded(1, 5, x, chain(x, 2)) == ((2,), False)
    assert run_bounded(1, 4, x, chain(x, 2)) == ((), True)


def test_a_goal_that_returns_itself_is_stopped_by_the_budget():
    def loop(state):
        return loop

    x = fresh_var()
    with shallow_stack(), pytest.raises(StepBudgetExceeded):
        with step_budget(1000):
            run(1, x, loop)
