"""States, lazy interleaving streams, core goals, and the run interface.

A goal is a function from a state to an iterator of states.  Conjunction
threads each state through successive goals; disjunction interleaves
answers between branches so a finitely productive branch cannot be starved
by an infinite sibling.
"""

from __future__ import annotations

import itertools
from contextvars import ContextVar
from dataclasses import dataclass

from .constraints import revalidate
from .terms import to_term
from .unify import EMPTY_SUBST, Substitution, reify, unify


class _AllMarker:
    def __repr__(self):
        return "ALL"


#: Request every answer from a finite stream (doesn't terminate on infinite
#: ones; use run_bounded for a divergence guard).
ALL = _AllMarker()


class StepBudgetExceeded(RuntimeError):
    """The step budget of a bounded run was exhausted."""


_budget: ContextVar = ContextVar("relkanren_step_budget", default=None)


def _tick():
    cell = _budget.get()
    if cell is None:
        return
    cell[0] -= 1
    if cell[0] < 0:
        raise StepBudgetExceeded()


@dataclass(frozen=True)
class State:
    """One node of the relational search: a substitution plus the
    ``(prohibited, typed)`` pair of :mod:`relkanren.constraints`."""

    subst: Substitution = EMPTY_SUBST
    constraints: tuple = ((), ())


def succeed(state):
    yield state


def fail(state):
    return iter(())


def eq(u, v):
    """The unification goal.  Succeeds with one extended state when the
    terms unify and every constraint still holds."""
    u = to_term(u)
    v = to_term(v)

    def eq_goal(state):
        s2 = unify(u, v, state.subst)
        if s2 is None:
            return
        if s2 is state.subst:
            yield state
            return
        constraints = revalidate(state.constraints, s2)
        if constraints is None:
            return
        yield State(s2, constraints)

    return eq_goal


def lall(*goals):
    """Conjunction: thread each state through the goals in order."""

    def lall_goal(state):
        def pipe(stream, remaining):
            if not remaining:
                yield from stream
                return
            g, rest = remaining[0], remaining[1:]
            for s in stream:
                _tick()
                yield from pipe(g(s), rest)

        yield from pipe(iter((state,)), goals)

    return lall_goal


def _interleave2(a, b):
    # alternate answers between two streams; drain the survivor
    while True:
        _tick()
        try:
            x = next(a)
        except StopIteration:
            for y in b:
                _tick()
                yield y
            return
        yield x
        a, b = b, a


def _interleave(streams):
    if not streams:
        return
    if len(streams) == 1:
        for x in streams[0]:
            _tick()
            yield x
        return
    yield from _interleave2(streams[0], _interleave(streams[1:]))


def lany(*goals):
    """Disjunction with fair interleaving of branch answers."""

    def lany_goal(state):
        yield from _interleave([g(state) for g in goals])

    return lany_goal


def conde(*clauses):
    """Disjunction of conjunctions; each clause is a sequence of goals."""
    return lany(*(lall(*clause) for clause in clauses))


def delay(thunk):
    """Defer goal construction until the stream is demanded.

    Required for self-referential relations so that constructing a goal
    doesn't recurse forever.
    """

    def delayed_goal(state):
        _tick()
        yield from thunk()(state)

    return delayed_goal


def _solutions(query, goals):
    query = to_term(query)
    stream = lall(*goals)(State())
    for st in stream:
        yield reify(query, st.subst)


def run(n, query, *goals):
    """Solve the conjunction of goals and reify the query term in each
    answer state.

    ``n`` may be a positive count, 0, or ALL; 0 means all answers (the
    conventional shorthand).  With ALL on an infinite stream this does not
    terminate; use :func:`run_bounded` for a guard.
    """
    gen = _solutions(query, goals)
    if n is ALL or n == 0:
        return tuple(gen)
    return tuple(itertools.islice(gen, n))


def iter_solutions(query, *goals):
    """Lazily yield reified answers for the query term; see :func:`run`."""
    return _solutions(query, goals)


class step_budget:
    """Context manager imposing a step budget on streams pulled within it.

    Stream evaluation raises :class:`StepBudgetExceeded` once ``budget``
    steps have been spent.  A budget of 0 or None means unlimited.
    """

    def __init__(self, budget):
        self.budget = budget
        self._token = None

    def __enter__(self):
        self._token = _budget.set([self.budget] if self.budget else None)
        return self

    def __exit__(self, *exc):
        _budget.reset(self._token)
        return False


def run_bounded(n, budget, query, *goals):
    """Like run, but stop after ``budget`` stream-evaluation steps.

    Returns (answers, exhausted): the answers found so far and whether the
    budget ran out before the stream was done.  A budget of 0 or None means
    unlimited.
    """
    answers = []
    exhausted = False
    with step_budget(budget):
        gen = _solutions(query, goals)
        while n is ALL or n == 0 or len(answers) < n:
            try:
                answers.append(next(gen))
            except StopIteration:
                break
            except StepBudgetExceeded:
                exhausted = True
                break
    return tuple(answers), exhausted
