"""Replay of a standing rewrite golden corpus.

``data/rewrite_corpus.json`` holds seeded ground model terms, each run
through ``relkanren rewrite`` with every builtin ruleset and both modes,
with the stdout and exit code each run gave when the corpus was written.
The replay makes every printed line of the rewrite path a regression check.

Regenerate (only when a change of output is intended, and say why):

    PYTHONPATH=src python tests/test_rewrite_corpus.py
"""

import io
import json
import pathlib
import random
import sys

import pytest

from relkanren.cli import main
from relkanren.rules import builtin_rulesets

CORPUS = pathlib.Path(__file__).parent / "data" / "rewrite_corpus.json"
SEED = 20261018
TERMS = 40
MODES = ("walk", "reduce")

SYMBOLS = ("mu", "sigma", "a", "b")
DECIMALS = (0.5, 1.5, 2.5)


def _number(rng):
    return rng.randint(0, 9) if rng.random() < 0.75 else rng.choice(DECIMALS)


def _leaf(rng):
    return _number(rng) if rng.random() < 0.7 else rng.choice(SYMBOLS)


def _operand(rng, nest):
    if nest and rng.random() < 0.4:
        return _redex(rng, nest=False)
    if rng.random() < 0.7:
        return str(_number(rng))
    return f"(sub {_leaf(rng)} {_leaf(rng)})"


def _redex(rng, nest=True):
    """A component one builtin ruleset rewrites at its root; with nest, an
    operand may be a redex too.  Data vectors occur only at the top level."""
    shape = rng.randrange(5 if nest else 4)
    if shape == 0:
        x = _operand(rng, nest)
        return f"(add {x} {x})"
    if shape == 1:
        return f"(log (exp {_operand(rng, nest)}))"
    if shape == 2:
        return (f"(add (normal {_leaf(rng)} {_number(rng)}) "
                f"(normal {_leaf(rng)} {_number(rng)}))")
    if shape == 3:
        return f"(add {_leaf(rng)} (mul {_leaf(rng)} (normal 0 1)))"
    n = rng.randint(1, 2)
    trials = [rng.randint(1, 9) for _ in range(n)]
    obs = [rng.randint(0, t) for t in trials]
    return (f"(observe ({' '.join(map(str, obs))}) (binomial ({' '.join(map(str, trials))}) "
            f"(beta {_number(rng)} {_number(rng)})))")


def _plain(rng):
    """A component no builtin ruleset rewrites at its root."""
    shape = rng.randrange(3)
    if shape == 0:
        return f"(mul {_leaf(rng)} {_leaf(rng)})"
    if shape == 1:
        return f"(normal {_leaf(rng)} {_number(rng)})"
    return f"(scale {rng.choice(SYMBOLS)} {_number(rng)})"


def corpus_inputs(seed=SEED, count=TERMS):
    """count ground model terms, as s-expression text."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        parts = [_redex(rng) if rng.random() < 0.7 else _plain(rng)
                 for _ in range(rng.randint(1, 2))]
        out.append(f"(model {' '.join(parts)})")
    return out


def _rewrite(argv, text):
    sink = io.StringIO()
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(text), sink
    try:
        code = main(argv)
    finally:
        sys.stdin, sys.stdout = saved
    return sink.getvalue(), code


def _runs():
    for text in corpus_inputs():
        for rules in builtin_rulesets():
            for mode in MODES:
                yield text, rules, mode


def _argv(rules, mode):
    return ["rewrite", "--rules", rules, "--mode", mode]


def write_corpus():
    records = []
    for text, rules, mode in _runs():
        out, code = _rewrite(_argv(rules, mode), text)
        records.append({"input": text, "rules": rules, "mode": mode,
                        "stdout": out, "exit": code})
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    return records


def _load():
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_matches_its_generator():
    records = _load()
    assert [(r["input"], r["rules"], r["mode"]) for r in records] == list(_runs())


def test_corpus_covers_answers_and_no_answers():
    codes = {r["exit"] for r in _load()}
    assert codes == {0, 1}


@pytest.mark.parametrize("mode", MODES)
def test_rewrite_replays_the_corpus(mode, capsys):
    for r in _load():
        if r["mode"] != mode:
            continue
        out, code = _rewrite(_argv(r["rules"], mode), r["input"])
        assert (out, code) == (r["stdout"], r["exit"]), (r["input"], r["rules"], mode)
    assert capsys.readouterr().err == ""


if __name__ == "__main__":
    recs = write_corpus()
    print(f"wrote {len(recs)} runs to {CORPUS}")
