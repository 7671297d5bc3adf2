"""States, core goals, the search loop, and the run interface.

A goal is a callable from a state to an iterable of states or to the
goal to run in its place; ``eq``, ``succeed``, ``fail`` and the
constraint goals return a tuple of at most one state.  The combinators
``lall`` and ``lany`` return data that one loop, :func:`_search`, runs.
Conjunction threads each state through successive goals; a disjunction
serves its branches in turn, one answer each, so a finitely productive
branch cannot be starved by an infinite sibling.  The loop holds the
search tree as data, so no search grows the interpreter stack, and
charges the step budget once per iteration.
"""

from __future__ import annotations

import itertools
from collections import deque
from contextvars import ContextVar
from dataclasses import dataclass, field

from .constraints import revalidate
from .terms import to_term
from .unify import EMPTY_SUBST, Substitution, reify, unify_delta


class _AllMarker:
    def __repr__(self):
        return "ALL"


#: Request every answer from a finite stream (doesn't terminate on infinite
#: ones; use run_bounded for a divergence guard).
ALL = _AllMarker()


class StepBudgetExceeded(RuntimeError):
    """The step budget of a bounded run was exhausted."""


_budget: ContextVar = ContextVar("relkanren_step_budget", default=None)


@dataclass(frozen=True)
class State:
    """One node of the relational search: a substitution plus the
    constraint index of :mod:`relkanren.constraints`, a dict from each
    unbound variable to the constraints watching it, never mutated."""

    subst: Substitution = EMPTY_SUBST
    constraints: dict = field(default_factory=dict)


def succeed(state):
    return (state,)


def fail(state):
    return ()


def eq(u, v):
    """The unification goal.  Succeeds with one extended state when the
    terms unify and every constraint still holds."""
    u = to_term(u)
    v = to_term(v)

    def eq_goal(state):
        state = unify_state(state, [(u, v)])
        return () if state is None else (state,)

    return eq_goal


def unify_state(state, pairs):
    """The state that unifies each ``(u, v)`` of pairs and still keeps
    every constraint, or None."""
    delta = unify_delta(pairs, state.subst)
    if delta is None:
        return None
    if not delta:
        return state
    s = state.subst.extend(delta)
    index = revalidate(state.constraints, s, delta)
    return None if index is None else State(s, index)


class _Goal:
    """A combinator goal: ``kind`` is "all" or "any" and ``arg`` its goals.
    Calling it runs a search of its own; :func:`run` and
    :func:`iter_solutions` are how callers get answers."""

    __slots__ = ("kind", "arg")

    def __init__(self, kind, arg):
        self.kind = kind
        self.arg = arg

    def __call__(self, state):
        return _search(self, state)


def lall(*goals):
    """Conjunction: thread each state through the goals in order."""
    return _Goal("all", goals or (succeed,))


def lany(*goals):
    """Disjunction: the branches answer in turn, one answer each."""
    return _Goal("any", goals or (fail,))


def conde(*clauses):
    """Disjunction of conjunctions; each clause is a sequence of goals."""
    return lany(*(lall(*clause) for clause in clauses))


def delay(thunk):
    """Defer goal construction until the search reaches it; the goal then
    runs in the delay's place, which costs one step.

    Required for self-referential relations so that constructing a goal
    doesn't recurse forever.
    """
    return lambda state: thunk()


def _expand(goal, state, k):
    """One step of the pending goal ``(goal, state, k)``, where k is the
    ``(goal, k)`` chain of conjuncts still to run on its answers.  Returns
    what takes its place: a pending triple, a node, an answer state, or
    None when the branch has failed.  A callable that a goal returns is
    the goal to run in its place."""
    if goal.__class__ is _Goal:
        kind, arg = goal.kind, goal.arg
        if kind == "all":
            for i in range(len(arg) - 1, 0, -1):
                k = (arg[i], k)
            return arg[0], state, k
        while k is not None and k[0].__class__ is list and not k[0][0]:
            k = k[1]  # a disjunction left with one branch marks nothing
        node = [None, None, None]
        k = (node, k)
        node[0] = deque([(g, state, k) for g in arg])
        return node
    out = goal(state)
    if out.__class__ is tuple and len(out) < 2:
        if not out:
            return None
        return out[0] if k is None else (k[0], out[0], k[1])
    if callable(out):
        return out, state, k
    return [deque(), iter(out), k]


def _search(goal, state):
    """Yield the answer states of goal run from state.

    A node of the search tree is ``[kids, source, k]``: a deque of kids
    (pending triples and child nodes), then the states of an iterator
    from a goal that is not a combinator, each continued with the
    conjuncts k.  ``path`` holds the nodes from the top to the one served.
    A disjunction's kids are its branches, and it heads their k: a state
    that reaches it there is the branch's answer, which runs on before
    the next branch has its turn.  Left with one branch, it leaves the
    path and passes such states straight on.
    """
    path = []
    kid = (goal, state, None)
    cell = _budget.get()
    while True:
        if cell is not None:
            cell[0] -= 1
            if cell[0] < 0:
                raise StepBudgetExceeded()
        cls = kid.__class__
        if cls is tuple:
            node = kid[0]
            if node.__class__ is not list:
                kid = _expand(*kid)
                continue
            s, k = kid[1], kid[2]
            kid = s if k is None else (k[0], s, k[1])
            if node[0]:
                # the branch that answered goes to the back of the
                # disjunction, and the nodes below it back where they were
                while path[-1] is not node:
                    child = path.pop()
                    if path[-1] is node:
                        node[0].append(child)
                    else:
                        path[-1][0].appendleft(child)
        elif cls is list:
            path.append(kid)
            kid = None
        elif kid is None:
            if not path:
                return
            kids, source, k = path[-1]
            if kids:
                if source is None and len(kids) == 1:
                    path.pop()  # a disjunction left with one branch is that branch
                kid = kids.popleft()
                continue
            s = None if source is None else next(source, None)
            if s is None:
                path.pop()
            else:
                kid = s if k is None else (k[0], s, k[1])
        else:
            yield kid
            kid = None
            cell = _budget.get()


def _solutions(query, goals):
    query = to_term(query)
    for st in _search(lall(*goals), State()):
        yield reify(query, st.subst)


def _limit(n):
    """The islice stop for an answer count: None for ALL or 0."""
    if n is ALL or n == 0:
        return None
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"answer count must be ALL or an integer >= 0, got {n!r}")
    return n


def run(n, query, *goals):
    """Solve the conjunction of goals and reify the query term in each
    answer state.

    ``n`` may be a positive count, 0, or ALL; 0 means all answers (the
    conventional shorthand).  Any other count raises ValueError.  With ALL
    on an infinite stream this does not terminate; use :func:`run_bounded`
    for a guard.
    """
    return tuple(itertools.islice(_solutions(query, goals), _limit(n)))


def iter_solutions(query, *goals):
    """Lazily yield reified answers for the query term; see :func:`run`."""
    return _solutions(query, goals)


class step_budget:
    """Context manager imposing a step budget on searches pulled within it.

    A search raises :class:`StepBudgetExceeded` once ``budget`` steps (search
    loop iterations) have been spent.  A budget of 0 or None means unlimited.
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
    """Like run, but stop after ``budget`` search steps.

    Returns (answers, exhausted): the answers found so far and whether the
    budget ran out before the stream was done.  A budget of 0 or None means
    unlimited.
    """
    answers = []
    limit = _limit(n)
    with step_budget(budget):
        try:
            for answer in itertools.islice(_solutions(query, goals), limit):
                answers.append(answer)
        except StepBudgetExceeded:
            return tuple(answers), True
    return tuple(answers), False
