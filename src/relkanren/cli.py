"""Command-line front end.

``relkanren rewrite`` parses one s-expression term, applies named rulesets
through graph walking (optionally to a fixed point), and prints reified
answers one per line, each distinct line once and never the input's own
printed line.  ``relkanren query`` runs a small goal program.

Exit codes: 0 with at least one answer, 1 with none, 2 on step-budget
exhaustion (partial answers flushed, diagnostic on stderr), 3 for an
unknown ruleset name, 4 for a parse error, an invalid command line or
``RELKANREN_MAX_STEPS``, or an ``--input`` or ``--output`` path that
cannot be read or written (``--help`` exits 0), 5 for any other error (one
line on stderr naming the exception, and for MemoryError the remedy;
answers printed before it stay).
Every error is one line on stderr; only answer lines go to the output.
"""

from __future__ import annotations

import argparse
import os
import sys

from .constraints import UnknownPredicateError, neq, type_constraint
from .goals import StepBudgetExceeded, eq, iter_solutions, lany, step_budget
from .relations import conso, membero, permuteo, reduceo, walko
from .rules import builtin_rulesets, default_registry
from .sexpr import ParseError, parse_sexpr, print_term
from .terms import LogicVar, Symbol, list_from_term, fresh_var

EXIT_OK = 0
EXIT_NO_ANSWERS = 1
EXIT_BUDGET = 2
EXIT_UNKNOWN_RULESET = 3
EXIT_PARSE_ERROR = 4
EXIT_ERROR = 5

BUDGET_ENV_VAR = "RELKANREN_MAX_STEPS"


class _CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 4 with one stderr line."""

    def error(self, message):
        raise _CliError(f"{self.prog}: {message}", EXIT_PARSE_ERROR)


def _count(text) -> int:
    """An answer limit or step budget: an integer >= 0, where 0 is none."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return n


def _default_budget() -> int:
    try:
        return _count(os.environ.get(BUDGET_ENV_VAR) or "0")
    except argparse.ArgumentTypeError as exc:
        raise _CliError(f"{BUDGET_ENV_VAR}: {exc}", EXIT_PARSE_ERROR) from None


def _read_input(path):
    if path is None or path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        reason = exc.strerror
    except UnicodeDecodeError as exc:
        reason = exc
    raise _CliError(f"--input {path}: {reason}", EXIT_PARSE_ERROR)


def _open_output(path):
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"--output {path}: {exc.strerror}", EXIT_PARSE_ERROR) from None


def _lookup_rules(names):
    rulesets = builtin_rulesets()
    for name in names:
        if name not in rulesets:
            raise _CliError(f"unknown ruleset: {name}", EXIT_UNKNOWN_RULESET)
    return [rulesets[name] for name in names]


def _combine(rules):
    if len(rules) == 1:
        return rules[0]
    return lambda u, v: lany(*(r(u, v) for r in rules))


def _run_stream(args, limit, query, *goals, seen=()):
    """Stream the query's answers to ``--output`` (default stdout) under the
    step budget and return the exit code.  Lines in ``seen`` are never
    printed.  The caller has already checked its input, so a bad command
    leaves no output file behind."""
    # An answer's identity is its printed line: a line already seen is not
    # printed again.  walko streams each rewrite of a known term once per
    # set of positions that yields it, so the filter still has two jobs
    # there: two sets of positions can rewrite to the same term, and the
    # search always streams the unchanged term, which rewrite seeds into
    # ``seen``.
    seen = set(seen)
    count = 0
    out = sys.stdout if args.output is None else _open_output(args.output)
    exhausted = False
    try:
        with step_budget(args.max_steps):
            for answer in iter_solutions(query, *goals):
                line = print_term(answer)
                if line in seen:
                    continue
                seen.add(line)
                out.write(line + "\n")
                out.flush()
                count += 1
                if count == limit:
                    break
    except StepBudgetExceeded:
        exhausted = True
    finally:
        if out is not sys.stdout:
            out.close()
    if exhausted:
        print(
            f"step budget of {args.max_steps} exhausted; {count} answer(s) flushed",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    return EXIT_OK if count else EXIT_NO_ANSWERS


def cmd_rewrite(args) -> int:
    registry = default_registry()
    rules = _lookup_rules(args.rules)
    try:
        text = _read_input(args.input)
        term = parse_sexpr(text, registry=registry)
    except ParseError as exc:
        raise _CliError(f"parse error: {exc}", EXIT_PARSE_ERROR)
    rel = _combine(rules)
    q = fresh_var("q")
    if args.mode == "reduce":
        # fixed points of the rule reached at any position of the graph
        goal = walko(lambda a, b: reduceo(rel, a, b), term, q)
    else:
        goal = walko(rel, term, q)
    # the identity rewrite is never an answer
    return _run_stream(args, args.max_answers, q, goal, seen=(print_term(term),))


def _rule(ruleset, u, v):
    return _lookup_rules([ruleset.name])[0](u, v)


def _typeo(v, kind):
    if not isinstance(kind, Symbol):
        raise _CliError("typeo expects a predicate name symbol", EXIT_PARSE_ERROR)
    try:
        return type_constraint(v, kind.name)
    except UnknownPredicateError:
        raise _CliError(f"unknown predicate: {kind.name}", EXIT_PARSE_ERROR)


# goal head -> (arity, goal constructor)
_GOALS = {
    "eq": (2, eq),
    "neq": (2, neq),
    "membero": (2, membero),
    "conso": (3, conso),
    "permuteo": (2, permuteo),
    "typeo": (2, _typeo),
    "rule": (3, _rule),
}


def _build_goal(form):
    try:
        parts = list_from_term(form)
    except ValueError:
        raise _CliError(f"malformed goal: {print_term(form)}", EXIT_PARSE_ERROR)
    if not parts or not isinstance(parts[0], Symbol):
        raise _CliError(f"malformed goal: {print_term(form)}", EXIT_PARSE_ERROR)
    head, args = parts[0].name, parts[1:]
    if head not in _GOALS:
        raise _CliError(f"unknown goal: {head}", EXIT_PARSE_ERROR)
    arity, make = _GOALS[head]
    if head == "rule" and (len(args) != arity or not isinstance(args[0], Symbol)):
        raise _CliError("rule goal needs a name and two terms", EXIT_PARSE_ERROR)
    if len(args) != arity:
        raise _CliError(f"goal {head} expects {arity} argument(s)", EXIT_PARSE_ERROR)
    return make(*args)


def cmd_query(args) -> int:
    registry = default_registry()
    try:
        form = parse_sexpr(args.goal, registry=registry)
        parts = list_from_term(form)
    except (ParseError, ValueError) as exc:
        raise _CliError(f"parse error: {exc}", EXIT_PARSE_ERROR)
    if (
        len(parts) < 3
        or not isinstance(parts[0], Symbol)
        or parts[0].name != "run"
        or not isinstance(parts[1], int)
        or isinstance(parts[1], bool)
        or not isinstance(parts[2], LogicVar)
    ):
        raise _CliError("query must look like (run N ?q goal...)", EXIT_PARSE_ERROR)
    if parts[1] < 0:
        raise _CliError(f"query answer count must be >= 0, got {parts[1]}", EXIT_PARSE_ERROR)
    query = parts[2]
    goals = [_build_goal(g) for g in parts[3:]]
    return _run_stream(args, parts[1], query, *goals)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="relkanren",
        description="Relational term rewriting with statistical-model rules.",
        formatter_class=argparse.RawDescriptionHelpFormatter,  # one ruleset per epilog line
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rw = sub.add_parser("rewrite", help="apply named rulesets to a term")
    rw.add_argument("--rules", action="append", required=True, metavar="NAME",
                    help="ruleset name (repeatable); see rules list below")
    rw.add_argument("--input", default=None, metavar="PATH",
                    help="input file with one s-expression term (default: stdin)")
    rw.add_argument("--output", default=None, metavar="PATH",
                    help="answer sink (default: stdout)")
    rw.add_argument("--max-answers", type=_count, default=0, metavar="N",
                    help="answer limit; 0 means all (default: 0)")
    rw.add_argument("--max-steps", type=_count, default=None, metavar="M",
                    help="step budget; 0 means unlimited "
                         f"(default: ${BUDGET_ENV_VAR} or 0)")
    rw.add_argument("--mode", choices=("walk", "reduce"), default="walk",
                    help="walk applies rules once anywhere; reduce runs each "
                         "position to a fixed point")
    rw.set_defaults(func=cmd_rewrite)

    q = sub.add_parser("query", help="run a goal program")
    q.add_argument("--goal", required=True, metavar="SEXPR",
                   help="e.g. '(run 0 ?x (membero ?x (1 2 3)))'")
    q.add_argument("--output", default=None, metavar="PATH")
    q.add_argument("--max-steps", type=_count, default=None, metavar="M")
    q.set_defaults(func=cmd_query)

    epilog = ["builtin rulesets:"]
    for name, rs in builtin_rulesets().items():
        epilog.append(f"  {name}: {rs.description}")
    parser.epilog = "\n".join(epilog)
    return parser


# argparse parsers hold no state between parses, so one, built at import
# from the rulesets' descriptions, serves every call
_parser = build_parser()


def main(argv=None) -> int:
    try:
        # read on every call, and an invalid value exits 4 before argv is read
        budget = _default_budget()
        args = _parser.parse_args(argv)
        if args.max_steps is None:
            args.max_steps = budget
        return args.func(args)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except MemoryError:
        print("MemoryError: out of memory; a smaller --max-steps or --max-answers "
              "bounds the search", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
