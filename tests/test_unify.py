import importlib
import sys
import threading

from hypothesis import given, settings, strategies as st

from relkanren import (
    ConsCell,
    ExprTerm,
    LogicVar,
    alpha_eq,
    cons,
    fresh_var,
    list_from_term,
    make_expr,
    nil,
    occurs,
    reify,
    Symbol,
    term_eq,
    term_from_list,
    unify,
    walk,
    walk_star,
)

from relkanren.terms import car, cdr, is_application
from conftest import random_atom, random_term, seeded, variable_pool

# the package exports the function unify, which hides the module of that name
unify_module = importlib.import_module("relkanren.unify")


def test_walk_follows_chains():
    a, b = fresh_var(), fresh_var()
    s = {a: b} | {b: 7}
    assert walk(a, s) == 7
    assert walk(5, s) == 5


def test_unify_atoms():
    assert unify(1, 1, {}) is not None
    assert unify(1, 2, {}) is None
    assert unify(2, 2.0, {}) is None
    assert unify("a", "a", {}) is not None


def test_unify_var_binding():
    v = fresh_var()
    s = unify(v, 42, {})
    assert walk(v, s) == 42


def test_unify_lists_elementwise():
    a, b = fresh_var(), fresh_var()
    s = unify(term_from_list([a, 2, b]), term_from_list([1, 2, 3]), {})
    assert walk(a, s) == 1
    assert walk(b, s) == 3


def test_unify_decomposes_pairs():
    head, tail = fresh_var(), fresh_var()
    s = unify(term_from_list([1, 2]), cons(head, tail), {})
    assert walk(head, s) == 1
    assert term_eq(walk_star(tail, s), term_from_list([2]))


def test_unify_expr_against_spine():
    a = fresh_var()
    e = make_expr(Symbol("add"), 1, a)
    spine = term_from_list([Symbol("add"), 1, 2])
    s = unify(e, spine, {})
    assert walk(a, s) == 2


def test_occurs_check_blocks_cycles():
    v = fresh_var()
    assert unify(v, cons(1, v), {}) is None
    assert occurs(v, cons(1, cons(2, v)), {})


def test_walk_star_resolves_nested():
    a, b = fresh_var(), fresh_var()
    s = unify(a, term_from_list([1, b]), {})
    s = unify(b, 2, s)
    assert term_eq(walk_star(a, s), term_from_list([1, 2]))


def test_walk_star_preserves_fully_walked_identity():
    t = term_from_list([1, 2, 3])
    assert walk_star(t, {}) is t


def test_reify_numbers_fresh_vars():
    a, b = fresh_var(), fresh_var()
    r1 = reify(term_from_list([a, b, a]), {})
    r2 = reify(term_from_list([a, b, a]), {})
    assert term_eq(r1, r2)
    items = []
    t = r1
    while t is not nil:
        items.append(t.car)
        t = t.cdr
    assert items[0] is items[2]
    assert items[0] is not items[1]


def test_reify_names_unbound_vars_in_encounter_order():
    a, b, c = fresh_var(), fresh_var(), fresh_var()
    s = unify(c, make_expr(Symbol("add"), b, 1), {})
    out = reify(term_from_list([c, a, b]), s)
    expr, first, second = out.car, out.cdr.car, out.cdr.cdr.car
    assert expr[1] is second
    assert first is not second
    assert (second.hint, first.hint) == ("_0", "_1")
    assert term_eq(reify(out, {}), out)


def test_reify_with_bound_tail():
    cdr_var = fresh_var()
    s = unify(cdr_var, term_from_list([2, 3]), {})
    out = reify(cons(1, cdr_var), s)
    assert term_eq(out, term_from_list([1, 2, 3]))


def test_alpha_eq_renames_bijectively():
    a, b, c = fresh_var(), fresh_var(), fresh_var()
    assert alpha_eq(term_from_list([a, b, a]), term_from_list([c, a, c]))
    assert not alpha_eq(term_from_list([a, a]), term_from_list([b, c]))
    assert not alpha_eq(term_from_list([a, b]), term_from_list([c, c]))


def test_unify_random_symmetry_and_soundness():
    rng = seeded(11)
    for _ in range(400):
        pool = variable_pool(4)
        u = random_term(rng, pool)
        v = random_term(rng, pool)
        s1 = unify(u, v, {})
        s2 = unify(v, u, {})
        assert (s1 is None) == (s2 is None)
        if s1 is not None:
            assert term_eq(walk_star(u, s1), walk_star(v, s1))
            assert term_eq(walk_star(u, s2), walk_star(v, s2))


@given(st.integers(min_value=-1000, max_value=1000), st.integers(min_value=-1000, max_value=1000))
def test_unify_integers_iff_equal(x, y):
    assert (unify(x, y, {}) is not None) == (x == y)


@settings(max_examples=200)
@given(st.lists(st.integers(), max_size=8))
def test_unify_list_with_fresh_var_binds_whole(items):
    v = fresh_var()
    t = term_from_list(items)
    s = unify(v, t, {})
    assert term_eq(walk_star(v, s), t)


def test_occurs_check_sees_through_a_binding_chain():
    x, y = fresh_var(), fresh_var()
    s = unify(y, cons(1, x), {})
    assert s is not None
    assert unify(x, cons(2, y), s) is None
    assert unify(cons(2, y), x, s) is None


def test_occurs_check_sees_into_an_open_expression_term():
    x = fresh_var()
    assert unify(x, make_expr(Symbol("add"), 1, x), {}) is None
    assert unify(make_expr(Symbol("add"), 1, x), x, {}) is None
    y = fresh_var()
    s = unify(y, make_expr(Symbol("add"), x, 2), {})
    assert unify(x, make_expr(Symbol("log"), y), s) is None


def test_occurs_check_skips_a_ground_value(monkeypatch):
    big = term_from_list(range(100_000))
    calls = 0
    walk2 = unify_module._walk2

    def counting_walk2(t, s, delta):
        nonlocal calls
        calls += 1
        return walk2(t, s, delta)

    monkeypatch.setattr(unify_module, "_walk2", counting_walk2)
    x = fresh_var()
    s = unify(x, big, {})
    assert s is not None and walk(x, s) is big
    # one walk of each side, then one of the value inside the occurs check,
    # which stops there: a walk of the value's cells would make 10^5 more
    assert calls <= 3


def test_a_variable_equals_only_itself():
    a, b = LogicVar(5), LogicVar(5)
    assert a == a and a != b
    assert not term_eq(a, b)
    assert walk(a, unify(a, b, {})) is b


def test_reify_twice_shares_the_display_variables():
    a, b = fresh_var(), fresh_var()
    t = cons(make_expr(Symbol("add"), a, b), term_from_list([b, a]))
    r1, r2 = reify(t, {}), reify(t, {})
    assert r1.car[1] is r2.car[1] is unify_module.display_var(0)
    assert r1.car[2] is r2.car[2] is unify_module.display_var(1)
    assert alpha_eq(r1, r2) and alpha_eq(r1, t)


def test_concurrent_reify_shares_one_display_variable_per_index():
    n_threads, n_vars = 4, 50
    start = threading.Barrier(n_threads)
    results = [None] * n_threads

    def work(k):
        t = term_from_list([fresh_var() for _ in range(n_vars)])
        start.wait(timeout=10)
        results[k] = list_from_term(reify(t, {}))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for i in range(n_vars):
        assert len({id(items[i]) for items in results}) == 1
        assert results[0][i] is unify_module.display_var(i)


# --- differential: the unifier against the one that asked the car, cdr and
# is_application helpers about every pair; both walk and check occurrences
# with the module's own _walk2 and _occurs ----------------------------------


def _ref_unify_delta(pairs, s, occurs_check=True):
    delta = {}
    stack = list(pairs)
    while stack:
        u, v = stack.pop()
        u = unify_module._walk2(u, s, delta)
        v = unify_module._walk2(v, s, delta)
        if u is v:
            continue
        u_var = isinstance(u, LogicVar)
        v_var = isinstance(v, LogicVar)
        if u_var and v_var:
            delta[u] = v
            continue
        if u_var:
            if occurs_check and unify_module._occurs(u, v, s, delta):
                return None
            delta[u] = v
            continue
        if v_var:
            if occurs_check and unify_module._occurs(v, u, s, delta):
                return None
            delta[v] = u
            continue
        u_app = is_application(u)
        v_app = is_application(v)
        if u_app and v_app:
            if (
                isinstance(u, ExprTerm)
                and isinstance(v, ExprTerm)
                and tuple.__len__(u) == tuple.__len__(v)
            ):
                stack.extend(zip(tuple.__iter__(u), tuple.__iter__(v)))
                continue
            stack.append((cdr(u), cdr(v)))
            stack.append((car(u), car(v)))
            continue
        if u_app or v_app:
            return None
        if u is nil or v is nil:
            return None
        if type(u) is not type(v) or u != v:
            return None
    return delta


def _open_spine(items, tail):
    for x in reversed(items):
        tail = cons(x, tail)
    return tail


def _variant(rng, t, pool):
    """A term shaped like t, to unify with it: some subterms become shared
    or fresh variables, some atoms another atom (2 may become 2.0), and
    some expression terms their cons spines, longer or shorter ones, or
    spines that end in a variable."""
    r = rng.random()
    if r < 0.12:
        return rng.choice(pool) if rng.random() < 0.5 else fresh_var()
    if isinstance(t, ExprTerm):
        items = [_variant(rng, x, pool) for x in t]
        r = rng.random()
        if r < 0.15:
            items = items[:-1] if len(items) > 1 else items + [random_atom(rng)]
        elif r < 0.3:
            return _open_spine(items[: rng.randrange(len(items) + 1)], rng.choice(pool))
        return term_from_list(items) if rng.random() < 0.4 else ExprTerm(items)
    if isinstance(t, ConsCell):
        return cons(_variant(rng, t.car, pool), _variant(rng, t.cdr, pool))
    if r < 0.2:
        return random_atom(rng)
    return t


def test_unify_delta_matches_the_helper_based_unifier():
    rng = seeded(1501)
    outcomes = {"fail": 0, "empty": 0, "bound": 0}
    for k in range(3000):
        pool = variable_pool(3)
        # a substitution that already binds some of the shared variables
        s = unify(rng.choice(pool), random_term(rng, pool[1:], depth=2), {}) or {}
        pairs = []
        for _ in range(1 + k % 3):
            u = random_term(rng, pool, depth=2 + k % 3)
            v = _variant(rng, u, pool)
            pairs.append((v, u) if rng.random() < 0.5 else (u, v))
        ref = _ref_unify_delta(pairs, s)
        got = unify_module.unify_delta(pairs, s)
        if ref is None:
            assert got is None, pairs
            outcomes["fail"] += 1
            continue
        assert got is not None, pairs
        assert list(got) == list(ref)  # the same variables, bound in the same order
        assert all(term_eq(got[x], ref[x]) for x in ref)
        outcomes["bound" if ref else "empty"] += 1
    assert min(outcomes.values()) >= 100, outcomes
