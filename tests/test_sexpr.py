import pytest
from hypothesis import given, settings, strategies as st

from relkanren import (
    ConsCell,
    ExprTerm,
    LogicVar,
    ParseError,
    Symbol,
    alpha_eq,
    cons,
    fresh_var,
    make_expr,
    nil,
    parse_sexpr,
    print_term,
    term_eq,
    term_from_list,
)
from relkanren.rules import default_registry

from conftest import random_ground_term, random_term, seeded, variable_pool


def test_parse_atoms():
    assert parse_sexpr("42") == 42
    assert parse_sexpr("-7") == -7
    assert parse_sexpr("2.5") == 2.5
    assert parse_sexpr("1e3") == 1000.0
    assert parse_sexpr("hello") == Symbol("hello")
    assert parse_sexpr('"hi there"') == "hi there"
    assert parse_sexpr("#t") is True
    assert parse_sexpr("#f") is False
    assert parse_sexpr("()") is nil


def test_parse_string_escapes():
    assert parse_sexpr(r'"a\nb"') == "a\nb"
    assert parse_sexpr(r'"a\"b"') == 'a"b'
    assert parse_sexpr(r'"a\\b"') == "a\\b"


def test_parse_list_and_pair():
    assert term_eq(parse_sexpr("(1 2 3)"), term_from_list([1, 2, 3]))
    assert term_eq(parse_sexpr("(1 . 2)"), cons(1, 2))
    assert term_eq(parse_sexpr("(1 2 . 3)"), cons(1, cons(2, 3)))


def test_parse_variables_share_per_document():
    t = parse_sexpr("(?x ?y ?x)")
    items = []
    while t is not nil:
        items.append(t.car)
        t = t.cdr
    assert isinstance(items[0], LogicVar)
    assert items[0] is items[2]
    assert items[0] is not items[1]


def test_parse_anonymous_variables_are_distinct():
    t = parse_sexpr("(?_ ?_)")
    assert t.car is not t.cdr.car


def test_parse_registered_head_becomes_expr():
    reg = default_registry()
    t = parse_sexpr("(add 1 2)", registry=reg)
    assert isinstance(t, ExprTerm)
    assert term_eq(t, make_expr(Symbol("add"), 1, 2))


def test_parse_unregistered_head_stays_cons():
    reg = default_registry()
    t = parse_sexpr("(frob 1 2)", registry=reg)
    assert isinstance(t, ConsCell)


def test_parse_without_registry_stays_cons():
    assert isinstance(parse_sexpr("(add 1 2)"), ConsCell)


def test_parse_eq3_model_term():
    reg = default_registry()
    t = parse_sexpr("(observe (7) (binomial (10) (beta 2 2)))", registry=reg)
    want = make_expr(
        Symbol("observe"),
        term_from_list([7]),
        make_expr(
            Symbol("binomial"),
            term_from_list([10]),
            make_expr(Symbol("beta"), 2, 2),
        ),
    )
    assert term_eq(t, want)


def test_parse_comments_and_whitespace():
    assert term_eq(parse_sexpr("; a comment\n (1 ; inline\n 2)"), term_from_list([1, 2]))


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_sexpr("(1 2")
    assert exc.value.line == 1
    assert exc.value.col >= 1

    with pytest.raises(ParseError):
        parse_sexpr("")
    with pytest.raises(ParseError):
        parse_sexpr("1 2")
    with pytest.raises(ParseError):
        parse_sexpr("(. 1)")
    with pytest.raises(ParseError):
        parse_sexpr("(1 . 2 3)")
    with pytest.raises(ParseError):
        parse_sexpr('"unterminated')


@pytest.mark.parametrize(
    "text, token, line, col",
    [
        ("1e999", "1e999", 1, 1),
        ("-1e999", "-1e999", 1, 1),
        ("(add 1e999 1)", "1e999", 1, 6),
        ("(1 2\n  -1e999)", "-1e999", 2, 3),
        ("(?x 1e999)", "1e999", 1, 5),
        ("(1 . 1e999)", "1e999", 1, 6),
        ("(1 " + "9" * 400 + ".5)", "9" * 400 + ".5", 1, 4),
    ],
    ids=["atom", "negative", "list", "second-line", "after-variable", "dotted-tail", "long"],
)
def test_overflowing_decimal_is_a_parse_error(text, token, line, col):
    with pytest.raises(ParseError) as exc:
        parse_sexpr(text)
    assert str(exc.value) == f"number out of range: {token} (line {line}, column {col})"
    assert (exc.value.line, exc.value.col) == (line, col)


@pytest.mark.parametrize(
    "text, token, line, col",
    [
        ("1e-999", "1e-999", 1, 1),
        ("-1e-999", "-1e-999", 1, 1),
        ("(add 1e-999 1)", "1e-999", 1, 6),
        ("(1 2\n  -0.5e-400)", "-0.5e-400", 2, 3),
        ("(?x 1e-999)", "1e-999", 1, 5),
        ("(1 . 1e-999)", "1e-999", 1, 6),
        ("(1 0." + "0" * 400 + "1)", "0." + "0" * 400 + "1", 1, 4),
    ],
    ids=["atom", "negative", "list", "second-line", "after-variable", "dotted-tail", "long"],
)
def test_underflowing_decimal_is_a_parse_error(text, token, line, col):
    with pytest.raises(ParseError) as exc:
        parse_sexpr(text)
    assert str(exc.value) == f"number out of range: {token} (line {line}, column {col})"
    assert (exc.value.line, exc.value.col) == (line, col)


@pytest.mark.parametrize("text", ["0.0", "-0.0", "0e5", ".0", "0.0e-999", "5e-324", "-5e-324", "2.2e-308"])
def test_zero_and_subnormal_decimals_read_as_written(text):
    t = parse_sexpr(text)
    assert type(t) is float
    assert repr(t) == repr(float(text))
    assert repr(parse_sexpr(f"({text} 1)").car) == repr(t)


def test_print_atoms():
    assert print_term(42) == "42"
    assert print_term(2.5) == "2.5"
    assert print_term(Symbol("foo")) == "foo"
    assert print_term(True) == "#t"
    assert print_term(False) == "#f"
    assert print_term(nil) == "()"
    assert print_term("hi") == '"hi"'


def test_print_lists_and_pairs():
    assert print_term(term_from_list([1, 2, 3])) == "(1 2 3)"
    assert print_term(cons(1, 2)) == "(1 . 2)"
    assert print_term(make_expr(Symbol("mul"), 2, fresh_var())) == "(mul 2 ?_0)"


def test_print_numbers_fresh_vars_in_order():
    a, b = fresh_var(), fresh_var()
    assert print_term(term_from_list([a, b, a])) == "(?_0 ?_1 ?_0)"


def test_print_escapes_strings():
    assert print_term('a"b\n') == '"a\\"b\\n"'


def test_round_trip_ground_terms():
    rng = seeded(5)
    reg = default_registry()
    for _ in range(200):
        t = random_ground_term(rng)
        text = print_term(t)
        assert term_eq(parse_sexpr(text, registry=reg), t)


def test_round_trip_terms_with_variables():
    rng = seeded(6)
    reg = default_registry()
    for _ in range(200):
        t = random_term(rng, variable_pool(3))
        assert alpha_eq(parse_sexpr(print_term(t), registry=reg), t)


def test_print_then_parse_then_print_is_fixed_point():
    rng = seeded(7)
    reg = default_registry()
    for _ in range(200):
        t = random_term(rng, variable_pool(3))
        text = print_term(t)
        assert print_term(parse_sexpr(text, registry=reg)) == text


@settings(max_examples=200)
@given(st.integers())
def test_integer_round_trip(n):
    assert parse_sexpr(print_term(n)) == n


@settings(max_examples=200)
@given(st.text(alphabet=st.characters(codec="ascii"), max_size=30))
def test_string_round_trip(s):
    assert parse_sexpr(print_term(s)) == s


def test_deep_print_is_stack_safe():
    t = term_from_list(list(range(50_000)))
    text = print_term(t)
    assert text.startswith("(0 1 2")


def test_deep_parse_is_stack_safe():
    text = "1"
    for _ in range(10_000):
        text = f"(add {text} 1)"
    t = parse_sexpr(text, registry=default_registry())
    assert isinstance(t, ExprTerm)
    assert print_term(t) == text
