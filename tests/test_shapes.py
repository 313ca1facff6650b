"""Linear time on pathological input shapes, one layer at a time.

Each shape is built at a size n and at 4n and one layer is timed on both,
best of 3 with the cyclic collector off, as the CLI runs.  Linear time gives
a ratio near 4 and quadratic time one near 16, so a ratio of 8 or more
fails, unless the larger input takes under ``FLOOR`` seconds, where timer
noise on a shared machine could make any ratio.
"""

from __future__ import annotations

import gc
import time

import pytest

from prolint import (
    Config,
    format_program,
    naming_rules,
    program_from_source,
    run,
    source_from_text,
)
from prolint.diagnostics import REGISTRY

RATIO = 8
FLOOR = 0.05


def _trailing_comments(n: int) -> str:
    """One clause with a ``%`` comment after each of its goals."""
    return "p :-\n" + "".join(f"    a{i}, % c\n" for i in range(n)) \
        + "    z.\n"


def _inline_block_comments(n: int) -> str:
    """One head on one line with a block comment before each argument."""
    return "p(" + ", ".join(f"/* c */ a{i}" for i in range(n)) + ").\n"


def _own_line_comments(n: int) -> str:
    return "p :-\n" + "".join(f"    % c{i}\n    a{i},\n" for i in range(n)) \
        + "    z.\n"


def _conjunction(n: int) -> str:
    return "p :-\n" + "".join(f"    a{i},\n" for i in range(n)) + "    z.\n"


def _conjunction_in_block(n: int) -> str:
    """One clause whose body is one ``( ... ; ... )`` block holding a
    conjunction of ``n`` goals.  Rendering that conjunction whole would copy
    each prefix of its text."""
    return "p :-\n    (   " + ",\n        ".join(
        f"goal_number_{i}(Argument)" for i in range(n)) \
        + "\n    ;   z\n    ).\n"


#: Long elements make a line long for its number of tokens, so that a
#: step per comma that reads the rest of the line shows at a size that is
#: quick to read.
_ELEMENT = "a" * 10


def _arguments_on_one_line(n: int) -> str:
    """Spaced argument commas: clean under the "simple" comma style."""
    return "p(" + ", ".join([_ELEMENT] * n) + ").\n"


def _list_on_one_line(n: int) -> str:
    """Unspaced list commas: clean under the "structured" comma style."""
    return "p([" + ",".join([_ELEMENT] * n) + "]).\n"


def _intercaps_names(n: int) -> str:
    """One clause calling ``n`` distinct intercaps atoms, each an N01."""
    return "p :-\n" + "".join(f"    walkTree{i},\n" for i in range(n)) \
        + "    z.\n"


def _format_goals_on_one_line(n: int) -> str:
    """One line of ``n`` goals.  Reading it grows faster than linearly only
    while the cyclic collector runs, and the CLI pauses the collector."""
    return "p(A) :- " + ", ".join(['format("x~w", [A])'] * n) + ".\n"


def _numbered_state_goals(n: int) -> str:
    """One clause threading ``S0 ... S<n-1>`` through goals that each hold
    a distinct number."""
    return "p :-\n" + ",\n".join(f"    q({k + 3}, S{k})"
                                   for k in range(n)) + ".\n"


def _tokens_off_the_fast_path(n: int) -> str:
    """``n`` lines, each holding tokens whose end is not their match's: a
    quoted atom with an escape, a string, a block comment, a float and a
    character code.  The scanner starts a new search after each."""
    return "".join(f"p{i}('a\\n', \"s\", /* c */ 1.5e3, 0'c).\n"
                   for i in range(n))


def _number_word_predicates(n: int) -> str:
    """``n`` predicates whose names hold the number word ``one`` and have no
    sibling with another number word in its place."""
    return "".join(f"step_one_p{i}(X) :- q(X).\n" for i in range(n))


def _exported_predicates(n: int) -> str:
    """A module that exports each of its ``n`` predicates."""
    exports = ", ".join(f"p{i}/0" for i in range(n))
    return f":- module(m, [{exports}]).\n" \
        + "".join(f"p{i}.\n" for i in range(n))


def _read(text: str, cfg: Config):
    src = source_from_text(text)
    return lambda: program_from_source(src)


def _format(text: str, cfg: Config):
    program = program_from_source(source_from_text(text))
    return lambda: format_program(program, cfg)


def _rules(text: str, cfg: Config):
    src = source_from_text(text)
    program = program_from_source(src)
    return lambda: run(src, program, cfg)


def _only(*rule_ids: str, comma_style: str = "simple") -> Config:
    cfg = Config()
    cfg.comma_style = comma_style
    cfg.rule_enabled = {rule_id: rule_id in rule_ids for rule_id in REGISTRY}
    return cfg


SHAPES = {
    # name: (text builder, n, the layer under test as a function that reads
    # the text and returns the call to time, config)
    "trailing_comment_after_each_goal": (
        _trailing_comments, 2_500, _format, Config()),
    "block_comment_before_each_head_argument": (
        _inline_block_comments, 2_500, _format, Config()),
    "own_line_comment_before_each_goal": (
        _own_line_comments, 2_500, _format, Config()),
    "long_conjunction": (_conjunction, 2_500, _format, Config()),
    "conjunction_in_one_block": (
        _conjunction_in_block, 2_500, _format, Config()),
    "arguments_on_one_line": (
        _arguments_on_one_line, 10_000, _rules, _only("L07")),
    "list_on_one_line": (
        _list_on_one_line, 10_000, _rules,
        _only("L07", comma_style="structured")),
    # More names than the name memo holds, so that it evicts.
    "distinct_intercaps_names": (
        _intercaps_names, naming_rules._verdicts.cache_info().maxsize + 500,
        _rules, _only("N01", "N02", "N03", "N04")),
    "trailing_comment_after_each_goal_rules": (
        _trailing_comments, 5_000, _rules, _only("L10", "I06")),
    "format_goals_on_one_line": (
        _format_goals_on_one_line, 1_000, _read, Config()),
    "tokens_off_the_scanner_fast_path": (
        _tokens_off_the_fast_path, 500, _read, Config()),
    "numbered_state_goals": (
        _numbered_state_goals, 2_000, _rules, _only("I04", "I05", "N07")),
    "number_word_predicates": (
        _number_word_predicates, 100, _rules, _only("N04")),
    "exported_predicates": (
        _exported_predicates, 1_000, _rules, _only("I01")),
}


def _best_of_3(small, large) -> tuple[float, float]:
    """The best of 3 times of each action, run in turn so that a burst of
    load on the machine slows both."""
    best = [float("inf"), float("inf")]
    for _ in range(3):
        for index, action in enumerate((small, large)):
            started = time.perf_counter()
            action()
            best[index] = min(best[index], time.perf_counter() - started)
    return best[0], best[1]


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_shape_time_grows_linearly(name):
    build, n, layer, cfg = SHAPES[name]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        small, large = _best_of_3(layer(build(n), cfg),
                                  layer(build(4 * n), cfg))
    finally:
        if was_enabled:
            gc.enable()
    assert large < FLOOR or large < RATIO * small, (name, small, large)
