import io

import pytest

from relkanren.cli import (
    EXIT_BUDGET,
    EXIT_ERROR,
    EXIT_NO_ANSWERS,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_UNKNOWN_RULESET,
    main,
)


def invoke(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rewrite_reads_stdin(capsys, monkeypatch):
    code, out, err = invoke(
        capsys,
        monkeypatch,
        ["rewrite", "--rules", "math", "--mode", "reduce", "--max-answers", "1"],
        stdin="(log (exp (add 5 5)))",
    )
    assert code == EXIT_OK
    assert out == "(mul 2 5)\n"


def test_rewrite_reads_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / "in.sexp"
    path.write_text("(add 5 5)")
    code, out, err = invoke(
        capsys,
        monkeypatch,
        ["rewrite", "--rules", "math", "--input", str(path), "--max-answers", "1"],
    )
    assert code == EXIT_OK
    assert out == "(mul 2 5)\n"


def test_rewrite_writes_output_file(tmp_path, capsys, monkeypatch):
    out_path = tmp_path / "out.txt"
    code, out, err = invoke(
        capsys,
        monkeypatch,
        [
            "rewrite", "--rules", "math", "--max-answers", "1",
            "--output", str(out_path),
        ],
        stdin="(add 5 5)",
    )
    assert code == EXIT_OK
    assert out == ""
    assert out_path.read_text() == "(mul 2 5)\n"


def test_query_writes_output_file(tmp_path, capsys, monkeypatch):
    out_path = tmp_path / "out.txt"
    code, out, err = invoke(
        capsys,
        monkeypatch,
        [
            "query", "--goal", "(run 0 ?x (membero ?x (1 2 3)))",
            "--output", str(out_path),
        ],
    )
    assert code == EXIT_OK
    assert out == ""
    assert out_path.read_text() == "1\n2\n3\n"


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["rewrite", "--rules", "math"], "(add 1"),
        (["query", "--goal", "(run 1 ?q"], ""),
    ],
)
def test_parse_error_leaves_no_output_file(tmp_path, capsys, monkeypatch, argv, stdin):
    out_path = tmp_path / "out.txt"
    code, out, err = invoke(
        capsys, monkeypatch, argv + ["--output", str(out_path)], stdin=stdin
    )
    assert code == EXIT_PARSE_ERROR
    assert out == ""
    assert err.startswith("parse error: ")
    assert not out_path.exists()


def test_rewrite_no_answers_exit_one(capsys, monkeypatch):
    code, out, err = invoke(
        capsys,
        monkeypatch,
        ["rewrite", "--rules", "beta-binomial"],
        stdin="(normal 0 1)",
    )
    assert code == EXIT_NO_ANSWERS
    assert out == ""


def test_rewrite_unknown_ruleset(capsys, monkeypatch):
    code, out, err = invoke(
        capsys, monkeypatch, ["rewrite", "--rules", "nope"], stdin="(add 1 1)"
    )
    assert code == EXIT_UNKNOWN_RULESET
    assert "nope" in err
    assert out == ""


def test_rewrite_parse_error(capsys, monkeypatch):
    code, out, err = invoke(
        capsys, monkeypatch, ["rewrite", "--rules", "math"], stdin="(add 1"
    )
    assert code == EXIT_PARSE_ERROR
    assert "line" in err


@pytest.mark.parametrize(
    "argv, stdin, err",
    [
        (["rewrite", "--rules", "math"], "(add 1e999 1e999)",
         "parse error: number out of range: 1e999 (line 1, column 6)\n"),
        (["query", "--goal", "(run 0 ?x (eq ?x -1e999))"], "",
         "parse error: number out of range: -1e999 (line 1, column 18)\n"),
    ],
    ids=["rewrite", "query"],
)
def test_overflowing_decimal_exits_four_with_one_line(capsys, monkeypatch, argv, stdin, err):
    code, out, got = invoke(capsys, monkeypatch, argv, stdin=stdin)
    assert code == EXIT_PARSE_ERROR
    assert out == ""
    assert got == err


@pytest.mark.parametrize(
    "argv, stdin, err",
    [
        (["rewrite", "--rules", "math"], "(add 1e-999 1e-999)",
         "parse error: number out of range: 1e-999 (line 1, column 6)\n"),
        (["query", "--goal", "(run 0 ?x (eq ?x -1e-999))"], "",
         "parse error: number out of range: -1e-999 (line 1, column 18)\n"),
    ],
    ids=["rewrite", "query"],
)
def test_underflowing_decimal_exits_four_with_one_line(capsys, monkeypatch, argv, stdin, err):
    code, out, got = invoke(capsys, monkeypatch, argv, stdin=stdin)
    assert code == EXIT_PARSE_ERROR
    assert out == ""
    assert got == err


@pytest.mark.parametrize(
    "argv, stdin, err",
    [
        (["rewrite", "--rules", "math"], "(add " + "9" * 5000 + " 1)",
         "parse error: integer literal too long: 5000 characters (line 1, column 6)\n"),
        (["query", "--goal", "(run 0 ?x (eq ?x " + "9" * 5000 + "))"], "",
         "parse error: integer literal too long: 5000 characters (line 1, column 18)\n"),
    ],
    ids=["rewrite", "query"],
)
def test_integer_past_the_digit_limit_exits_four_with_one_line(capsys, monkeypatch, argv, stdin, err):
    code, out, got = invoke(capsys, monkeypatch, argv, stdin=stdin)
    assert code == EXIT_PARSE_ERROR
    assert out == ""
    assert got == err


def test_rewrite_budget_exhaustion(capsys, monkeypatch):
    code, out, err = invoke(
        capsys,
        monkeypatch,
        ["rewrite", "--rules", "math", "--mode", "walk", "--max-steps", "5"],
        stdin="(add ?x ?x)",
    )
    assert code == EXIT_BUDGET
    assert "budget" in err


def test_budget_env_var_default(capsys, monkeypatch):
    monkeypatch.setenv("RELKANREN_MAX_STEPS", "5")
    code, out, err = invoke(
        capsys, monkeypatch, ["rewrite", "--rules", "math"], stdin="(add ?x ?x)"
    )
    assert code == EXIT_BUDGET


def test_budget_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("RELKANREN_MAX_STEPS", "5")
    code, out, err = invoke(
        capsys,
        monkeypatch,
        ["rewrite", "--rules", "math", "--max-steps", "0", "--max-answers", "1"],
        stdin="(add 5 5)",
    )
    assert code == EXIT_OK


def test_budget_monotonic_answer_prefix(capsys, monkeypatch):
    def answers(budget):
        code, out, err = invoke(
            capsys,
            monkeypatch,
            [
                "rewrite", "--rules", "math", "--mode", "walk",
                "--max-steps", str(budget),
            ],
            stdin="(add (add 1 1) (add 2 2))",
        )
        return out.splitlines()

    small = answers(80)
    large = answers(100_000)
    assert large[: len(small)] == small


def test_rewrite_determinism(capsys, monkeypatch):
    argv = ["rewrite", "--rules", "math", "--mode", "walk"]
    first = invoke(capsys, monkeypatch, argv, stdin="(add (add 1 1) (add 2 2))")
    second = invoke(capsys, monkeypatch, argv, stdin="(add (add 1 1) (add 2 2))")
    assert first == second
    assert first[0] == EXIT_OK


def test_rewrite_multiple_rulesets(capsys, monkeypatch):
    code, out, err = invoke(
        capsys,
        monkeypatch,
        ["rewrite", "--rules", "math", "--rules", "normal-sum", "--mode", "walk"],
        stdin="(add (normal 0 1) (normal 0 1))",
    )
    assert code == EXIT_OK
    assert "(normal (add 0 0) (add 1 1))" in out.splitlines()


def test_query_membero(capsys, monkeypatch):
    code, out, err = invoke(
        capsys,
        monkeypatch,
        ["query", "--goal", "(run 0 ?x (membero ?x (1 2 3)))"],
    )
    assert code == EXIT_OK
    assert out == "1\n2\n3\n"


def test_query_rule_head(capsys, monkeypatch):
    code, out, err = invoke(
        capsys,
        monkeypatch,
        ["query", "--goal", "(run 1 ?q (rule math (add 5 5) ?q))"],
    )
    assert code == EXIT_OK
    assert out == "(mul 2 5)\n"


def test_query_unknown_rule_name(capsys, monkeypatch):
    code, out, err = invoke(
        capsys,
        monkeypatch,
        ["query", "--goal", "(run 1 ?q (rule nope 1 ?q))"],
    )
    assert code == EXIT_UNKNOWN_RULESET


def test_query_parse_error(capsys, monkeypatch):
    code, out, err = invoke(capsys, monkeypatch, ["query", "--goal", "(run 1 ?q"])
    assert code == EXIT_PARSE_ERROR


def test_query_malformed_program(capsys, monkeypatch):
    code, out, err = invoke(capsys, monkeypatch, ["query", "--goal", "(walk 1 ?q)"])
    assert code == EXIT_PARSE_ERROR


def test_query_no_answers(capsys, monkeypatch):
    code, out, err = invoke(
        capsys,
        monkeypatch,
        ["query", "--goal", "(run 0 ?x (eq ?x 1) (eq ?x 2))"],
    )
    assert code == EXIT_NO_ANSWERS


def test_query_typeo(capsys, monkeypatch):
    code, out, err = invoke(
        capsys,
        monkeypatch,
        ["query", "--goal", "(run 0 ?x (typeo ?x integer) (membero ?x (1.1 2 3.2 4)))"],
    )
    assert code == EXIT_OK
    assert out == "2\n4\n"


def test_query_negative_count_exits_four_with_one_line(capsys, monkeypatch):
    code, out, err = invoke(
        capsys,
        monkeypatch,
        ["query", "--goal", "(run -1 ?x (membero ?x (1 2 3)))"],
    )
    assert code == EXIT_PARSE_ERROR
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "-1" in err


def test_query_crash_exits_five_with_one_line(capsys, monkeypatch):
    code, out, err = invoke(
        capsys,
        monkeypatch,
        ["query", "--goal", "(run 0 ?x (permuteo ?x ?y))"],
    )
    assert code == EXIT_ERROR
    assert out == ""
    assert err == (
        "GroundednessError: permuteo needs at least one argument "
        "with a known list spine\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["rewrite"],
        ["rewrite", "--rules", "math", "--mode", "sideways"],
        ["rewrite", "--rules", "math", "--max-steps", "many"],
        ["rewrite", "--rules", "math", "--max-steps", "-3"],
        ["rewrite", "--rules", "math", "--max-answers", "-1"],
        ["query", "--goal", "(run 0 ?x (eq ?x 1))", "--max-steps", "1.5"],
    ],
    ids=[
        "missing-rules",
        "bad-mode",
        "non-integer-steps",
        "negative-steps",
        "negative-answers",
        "query-decimal-steps",
    ],
)
def test_usage_error_exits_four_with_one_line(capsys, monkeypatch, argv):
    code, out, err = invoke(capsys, monkeypatch, argv, stdin="(add 5 5)")
    assert code == EXIT_PARSE_ERROR
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n")


def test_malformed_budget_env_var_exits_four(capsys, monkeypatch):
    monkeypatch.setenv("RELKANREN_MAX_STEPS", "10k")
    code, out, err = invoke(
        capsys, monkeypatch, ["rewrite", "--rules", "math"], stdin="(add 5 5)"
    )
    assert code == EXIT_PARSE_ERROR
    assert out == ""
    assert err == "RELKANREN_MAX_STEPS: expected an integer >= 0, got '10k'\n"


def test_help_exits_zero(capsys, monkeypatch):
    with pytest.raises(SystemExit) as info:
        invoke(capsys, monkeypatch, ["--help"])
    assert info.value.code == 0
    assert "usage: relkanren" in capsys.readouterr().out


def test_query_membero_over_a_long_list(capsys, monkeypatch):
    items = " ".join(str(i) for i in range(2000))
    code, out, err = invoke(
        capsys,
        monkeypatch,
        ["query", "--goal", f"(run 0 ?x (membero ?x ({items})))"],
    )
    assert code == EXIT_OK
    assert out.splitlines() == [str(i) for i in range(2000)]


def test_rewrite_deep_input(capsys, monkeypatch):
    deep = "1"
    for _ in range(5000):
        deep = f"(add {deep} 1)"
    code, out, err = invoke(
        capsys,
        monkeypatch,
        ["rewrite", "--rules", "math", "--max-answers", "1"],
        stdin=f"(log (exp {deep}))",
    )
    assert code == EXIT_OK
    assert out == deep + "\n"


def _nested_adds(depth):
    text = "1"
    for _ in range(depth):
        text = f"(add {text} 1)"
    return text


def test_rewrite_moderately_deep_input_streams_every_answer(capsys, monkeypatch):
    deep = _nested_adds(100)
    code, out, err = invoke(
        capsys, monkeypatch, ["rewrite", "--rules", "math"], stdin=f"(log (exp {deep}))"
    )
    assert code == EXIT_OK
    assert out.splitlines() == [
        deep,
        f"(log (exp {deep.replace('(add 1 1)', '(mul 2 1)')}))",
    ]
    assert err == ""


def test_rewrite_deep_walk_search_is_linear_in_depth(capsys, monkeypatch):
    # each level derives the unchanged term once, so 400 levels take about
    # 56,000 steps; re-deriving it at every level takes about 3.7 million
    deep = _nested_adds(400)
    code, out, err = invoke(
        capsys,
        monkeypatch,
        ["rewrite", "--rules", "math", "--max-steps", "100000"],
        stdin=f"(log (exp {deep}))",
    )
    assert code == EXIT_OK
    assert out.splitlines() == [
        deep,
        f"(log (exp {deep.replace('(add 1 1)', '(mul 2 1)')}))",
    ]
    assert err == ""


def test_rewrite_deep_input_stops_at_the_step_budget(capsys, monkeypatch):
    deep = _nested_adds(5000)
    code, out, err = invoke(
        capsys,
        monkeypatch,
        ["rewrite", "--rules", "math", "--max-steps", "5000"],
        stdin=f"(log (exp {deep}))",
    )
    assert code == EXIT_BUDGET
    assert out == deep + "\n"
    assert len(err.splitlines()) == 1


def test_rewrite_never_prints_a_non_ground_input_back(capsys, monkeypatch):
    # the stream of (add ?x ?x) under math is infinite, so it is bounded
    code, out, err = invoke(
        capsys,
        monkeypatch,
        ["rewrite", "--rules", "math", "--max-answers", "20"],
        stdin="(add ?x ?x)",
    )
    lines = out.splitlines()
    assert code == EXIT_OK
    assert len(lines) == 20
    assert "(add ?_0 ?_0)" not in lines
    assert lines[:2] == ["(mul 2 ?_0)", "(add (mul 2 ?_0) (mul 2 ?_0))"]



def test_budget_env_var_is_read_on_every_call(capsys, monkeypatch):
    argv = ["rewrite", "--rules", "math"]
    monkeypatch.setenv("RELKANREN_MAX_STEPS", "5")
    assert invoke(capsys, monkeypatch, argv, stdin="(add 5 5)")[0] == EXIT_BUDGET
    monkeypatch.delenv("RELKANREN_MAX_STEPS")
    assert invoke(capsys, monkeypatch, argv, stdin="(add 5 5)")[0] == EXIT_OK


def test_malformed_budget_env_var_exits_four_even_with_the_flag(capsys, monkeypatch):
    monkeypatch.setenv("RELKANREN_MAX_STEPS", "-1")
    code, out, err = invoke(
        capsys, monkeypatch, ["rewrite", "--rules", "math", "--max-steps", "9"], "(add 5 5)"
    )
    assert (code, out) == (EXIT_PARSE_ERROR, "")
    assert err == "RELKANREN_MAX_STEPS: expected an integer >= 0, got '-1'\n"


def test_memory_error_exits_five_with_the_cause_and_the_remedy(capsys, monkeypatch):
    from relkanren import cli

    def exhausted(state):
        raise MemoryError()

    monkeypatch.setattr(cli, "walko", lambda rel, u, v: exhausted)
    code, out, err = invoke(capsys, monkeypatch, ["rewrite", "--rules", "math"], "(add 5 5)")
    assert (code, out) == (EXIT_ERROR, "")
    assert err == (
        "MemoryError: out of memory; a smaller --max-steps or --max-answers "
        "bounds the search\n"
    )
