import pytest

from relkanren import (
    State,
    builtin_registry,
    conde,
    eq,
    eval_expr,
    fresh_var,
    lall,
    lany,
    make_expr,
    parse_sexpr,
    print_term,
    reduceo,
    run,
    term_eq,
    term_from_list,
    type_constraint,
    walko,
)
from relkanren.cli import _combine
from relkanren.rules import (
    ADD,
    BETA,
    BINOMIAL,
    EXP,
    LOG,
    MUL,
    NORMAL,
    OBSERVE,
    SUB,
    SUM,
    beta_binomial_conjugate,
    builtin_rulesets,
    default_registry,
    math_reduce_rule,
    normal_affine_rule,
    normal_sum_rule,
)

from conftest import seeded
from test_rewrite_corpus import corpus_inputs


def first(rule, lhs):
    q = fresh_var()
    answers = run(1, q, rule(lhs, q))
    assert answers, f"rule produced no answer for {lhs!r}"
    return answers[0]


def backwards(rule, rhs):
    p = fresh_var()
    return run(0, p, rule(p, rhs))


def test_math_rule_doubles_addition():
    q = fresh_var()
    answers = run(0, q, math_reduce_rule(make_expr(ADD, 5, 5), q))
    assert any(term_eq(a, make_expr(MUL, 2, 5)) for a in answers)


def test_math_rule_log_exp():
    assert term_eq(first(math_reduce_rule, make_expr(LOG, make_expr(EXP, 7))), 7)


def test_math_rule_backwards():
    answers = backwards(math_reduce_rule, make_expr(MUL, 2, 5))
    assert any(term_eq(a, make_expr(ADD, 5, 5)) for a in answers)


def test_math_rule_rejects_mismatched_addition():
    q = fresh_var()
    assert run(0, q, math_reduce_rule(make_expr(ADD, 5, 6), q)) == ()


def test_normal_sum_rule_forward():
    lhs = make_expr(ADD, make_expr(NORMAL, 0, 1), make_expr(NORMAL, 0, 1))
    rhs = first(normal_sum_rule, lhs)
    assert term_eq(rhs, make_expr(NORMAL, make_expr(ADD, 0, 0), make_expr(ADD, 1, 1)))
    reg = builtin_registry()
    assert eval_expr(rhs[1], reg) == 0
    assert eval_expr(rhs[2], reg) == 2


def test_normal_sum_rule_backward():
    rhs = make_expr(NORMAL, make_expr(ADD, 1, 2), make_expr(ADD, 3, 4))
    answers = backwards(normal_sum_rule, rhs)
    want = make_expr(ADD, make_expr(NORMAL, 1, 3), make_expr(NORMAL, 2, 4))
    assert any(term_eq(a, want) for a in answers)


def test_normal_sum_parameter_additivity():
    rng = seeded(23)
    reg = builtin_registry()
    for _ in range(50):
        mx, my = rng.randint(-20, 20), rng.randint(-20, 20)
        vx, vy = rng.randint(1, 30), rng.randint(1, 30)
        lhs = make_expr(ADD, make_expr(NORMAL, mx, vx), make_expr(NORMAL, my, vy))
        rhs = first(normal_sum_rule, lhs)
        assert eval_expr(rhs[1], reg) == mx + my
        assert eval_expr(rhs[2], reg) == vx + vy


def test_normal_affine_rule_forward():
    lhs = make_expr(ADD, 3, make_expr(MUL, 2, make_expr(NORMAL, 0, 1)))
    rhs = first(normal_affine_rule, lhs)
    assert term_eq(rhs, make_expr(NORMAL, 3, make_expr(MUL, 2, 2)))


def test_normal_affine_rule_backward():
    rhs = make_expr(NORMAL, 3, make_expr(MUL, 2, 2))
    answers = backwards(normal_affine_rule, rhs)
    want = make_expr(ADD, 3, make_expr(MUL, 2, make_expr(NORMAL, 0, 1)))
    assert any(term_eq(a, want) for a in answers)


def test_normal_affine_identity_transform():
    lhs = make_expr(ADD, 0, make_expr(MUL, 1, make_expr(NORMAL, 0, 1)))
    rhs = first(normal_affine_rule, lhs)
    assert term_eq(rhs, make_expr(NORMAL, 0, make_expr(MUL, 1, 1)))


def test_beta_binomial_structure():
    model = make_expr(
        OBSERVE,
        term_from_list([7]),
        make_expr(BINOMIAL, term_from_list([10]), make_expr(BETA, 2, 2)),
    )
    rhs = first(beta_binomial_conjugate, model)
    alpha = make_expr(ADD, 2, make_expr(SUM, term_from_list([7])))
    beta = make_expr(
        ADD,
        2,
        make_expr(SUB, make_expr(SUM, term_from_list([10])), make_expr(SUM, term_from_list([7]))),
    )
    want = make_expr(BINOMIAL, term_from_list([10]), make_expr(BETA, alpha, beta))
    assert term_eq(rhs, want)


def test_beta_binomial_posterior_values():
    reg = builtin_registry()
    model = make_expr(OBSERVE, 7, make_expr(BINOMIAL, 10, make_expr(BETA, 2, 2)))
    rhs = first(beta_binomial_conjugate, model)
    assert eval_expr(rhs[2][1], reg) == 9
    assert eval_expr(rhs[2][2], reg) == 5


def test_beta_binomial_backward():
    model = make_expr(OBSERVE, 7, make_expr(BINOMIAL, 10, make_expr(BETA, 2, 2)))
    rhs = first(beta_binomial_conjugate, model)
    answers = backwards(beta_binomial_conjugate, rhs)
    assert any(term_eq(a, model) for a in answers)


def test_beta_binomial_rejects_normal_model():
    q = fresh_var()
    assert run(0, q, beta_binomial_conjugate(make_expr(NORMAL, 0, 1), q)) == ()


def test_builtin_ruleset_names():
    rulesets = builtin_rulesets()
    assert set(rulesets) == {"math", "normal-sum", "normal-affine", "beta-binomial"}
    for rs in rulesets.values():
        assert rs.description


def test_ruleset_rules_are_callable_goals():
    q = fresh_var()
    rule = builtin_rulesets()["math"]
    answers = run(0, q, rule(make_expr(ADD, 4, 4), q))
    assert any(term_eq(a, make_expr(MUL, 2, 4)) for a in answers)


def test_default_registry_has_rv_vocabulary():
    reg = default_registry()
    for name in ("normal", "beta", "binomial", "observe", "add", "sum"):
        assert name in reg


def test_rv_operators_are_symbolic_only():
    from relkanren import EvalError

    reg = default_registry()
    with pytest.raises(EvalError):
        eval_expr(make_expr(NORMAL, 0, 1), reg)


# The builtin rules as hand-written goal constructors: the reference for the
# answers of the compiled records and for their order.


def _reference_math(e, r):
    x = fresh_var("x")
    return lall(
        type_constraint(x, "number-or-expr"),
        conde(
            [eq(e, make_expr(ADD, x, x)), eq(r, make_expr(MUL, 2, x))],
            [eq(e, make_expr(LOG, make_expr(EXP, x))), eq(r, x)],
        ),
    )


def _reference_normal_sum(lhs, rhs):
    mx, vx = fresh_var("mx"), fresh_var("vx")
    my, vy = fresh_var("my"), fresh_var("vy")
    return lall(
        eq(lhs, make_expr(ADD, make_expr(NORMAL, mx, vx), make_expr(NORMAL, my, vy))),
        eq(rhs, make_expr(NORMAL, make_expr(ADD, mx, my), make_expr(ADD, vx, vy))),
    )


def _reference_normal_affine(lhs, rhs):
    mu, sigma = fresh_var("mu"), fresh_var("sigma")
    return lall(
        eq(lhs, make_expr(ADD, mu, make_expr(MUL, sigma, make_expr(NORMAL, 0, 1)))),
        eq(rhs, make_expr(NORMAL, mu, make_expr(MUL, sigma, sigma))),
    )


def _reference_beta_binomial(x, y):
    obs = fresh_var("obs")
    n = fresh_var("N")
    alpha, beta = fresh_var("alpha"), fresh_var("beta")
    obs_sum = make_expr(SUM, obs)
    alpha_new = make_expr(ADD, alpha, obs_sum)
    beta_new = make_expr(ADD, beta, make_expr(SUB, make_expr(SUM, n), obs_sum))
    return lall(
        eq(x, make_expr(OBSERVE, obs, make_expr(BINOMIAL, n, make_expr(BETA, alpha, beta)))),
        eq(y, make_expr(BINOMIAL, n, make_expr(BETA, alpha_new, beta_new))),
    )


_REFERENCE = {
    "math": _reference_math,
    "normal-sum": _reference_normal_sum,
    "normal-affine": _reference_normal_affine,
    "beta-binomial": _reference_beta_binomial,
}


def _rule_pairs():
    """(compiled, reference) for each builtin ruleset and for all four
    together, combined as the CLI combines several rulesets."""
    rulesets = builtin_rulesets()
    pairs = [(rulesets[name], ref) for name, ref in _REFERENCE.items()]
    refs = list(_REFERENCE.values())
    pairs.append((
        _combine(list(rulesets.values())),
        lambda u, v: lany(*(r(u, v) for r in refs)),
    ))
    return pairs


def _printed(answers):
    return [print_term(a) for a in answers]


def _walk_and_reduce(rule):
    return (rule, lambda a, b: reduceo(rule, a, b))


def test_compiled_rules_stream_the_reference_answers_in_order():
    reg = default_registry()
    terms = [parse_sexpr(text, registry=reg) for text in corpus_inputs(seed=7011, count=200)]
    answered = 0
    for rule, ref in _rule_pairs():
        for t in terms:
            for rel, ref_rel in zip(_walk_and_reduce(rule), _walk_and_reduce(ref)):
                q = fresh_var()
                got = _printed(run(0, q, walko(rel, t, q)))
                assert got == _printed(run(0, q, walko(ref_rel, t, q))), print_term(t)
                answered += len(got) > 1
    assert answered > 500  # most runs rewrite something


def test_compiled_rules_on_fresh_sides_stream_the_reference_answers():
    for rule, ref in _rule_pairs():
        e, r = fresh_var(), fresh_var()
        q = term_from_list([e, r])
        got = _printed(run(40, q, walko(rule, e, r)))
        assert len(got) == 40
        assert got == _printed(run(40, q, walko(ref, e, r)))


def test_compiled_rules_run_both_ways_as_the_reference():
    reg = default_registry()
    texts = (
        "(mul 2 5)", "(mul 2 (add 1 2))", "7", "(normal (add 1 2) (add 3 4))",
        "(normal 3 (mul 2 2))", "(normal 3 (mul 2 5))",
        "(binomial (10) (beta (add 2 (sum (7))) (add 2 (sub (sum (10)) (sum (7))))))",
        "(observe (7) (binomial (10) (beta 2 2)))", "(add (normal 0 1) (normal 2 3))",
        "(add 3 (mul 2 (normal 0 1)))", "(add 5 5)", "(log (exp (add 1 1)))",
        "(mul ?a ?a)", "?z", "(normal ?m (add ?v 1))", "(add ?a . ?t)", "(mul 2 . ?t)",
        "(?op 5 5)", "(?op ?a . ?t)", "(log 1)", "(sub 1 2)", "(scale 1 2)", "(1 2)",
    )
    answers = 0
    for text in texts:
        t = parse_sexpr(text, registry=reg)
        for rule, ref in _rule_pairs():
            q = fresh_var()
            for u, v in ((q, t), (t, q)):
                got = _printed(run(0, term_from_list([u, v]), rule(u, v)))
                assert got == _printed(run(0, term_from_list([u, v]), ref(u, v))), text
                answers += len(got)
    assert answers > 50


@pytest.mark.parametrize("name", sorted(_REFERENCE))
@pytest.mark.parametrize("text", ["5", "mu", "()", "(sub 1 2)"])
def test_rejected_rule_call_makes_no_variable_and_no_state(name, text):
    u = parse_sexpr(text, registry=default_registry())
    v = fresh_var()
    goal = builtin_rulesets()[name](u, v)
    before = fresh_var().id
    assert goal(State()) == ()
    assert fresh_var().id == before + 1


def test_record_with_a_list_pattern_runs_both_ways():
    from relkanren.rules import RuleSet
    from relkanren.rules import record

    rule = RuleSet("", record("((sum (?a ?b)) (add ?a ?b) (number ?a) (number ?b))"))
    reg = default_registry()
    q = fresh_var()
    forward = rule(parse_sexpr("(sum (1 2))", registry=reg), q)
    assert _printed(run(0, q, forward)) == ["(add 1 2)"]
    backward = rule(q, parse_sexpr("(add 1 2)", registry=reg))
    assert _printed(run(0, q, backward)) == ["(sum (1 2))"]
    # the guard (number ?b) rejects the symbol x
    assert run(0, q, rule(parse_sexpr("(sum (1 x))", registry=reg), q)) == ()
