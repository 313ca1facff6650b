"""Formatting must not depend on how deeply a term nests or on how deep the
caller's stack already is: every file that reads without syntax errors
formats, whether the caller is shallow or deep, and under a recursion limit
far below any term's depth."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import prolint
from prolint import (
    check_format,
    format_program,
    program_from_source,
    source_from_text,
    structurally_equal,
)
from prolint.reader import MAX_TERM_DEPTH


def _chain(operands: int) -> str:
    return "p(X) :-\n    X = " + " + ".join(["a"] * operands) + ".\n"


def _nest(opening: str, depth: int, core: str, end: str) -> str:
    return opening * depth + core + ")" * depth + end


#: A fact at the reader's depth limit, one wrapped at every level, bodies
#: nesting each control construct, a list nest and a long operator chain.
DEEP_INPUTS = {
    "fact": _nest("f(", MAX_TERM_DEPTH - 1, "p(x", ").\n"),
    "wrapped_fact": _nest("f(aaaaaaaaaa, ", 1000, "p(x", ").\n"),
    "disjunction": "p :- " + _nest("(a ; ", 1000, "b", ".\n"),
    "if_then_else": "p :- " + _nest("(a -> ", 1000, "b", ".\n"),
    "soft_cut": "p :- " + _nest("(a *-> ", 1000, "b", ".\n"),
    "conjunction": "p :- " + _nest("(a, ", 1000, "b", ".\n"),
    "list": "p(" + "[" * 4000 + "]" * 4000 + ").\n",
    "chain": _chain(5_000),
}


def formatted(name: str) -> tuple[str, bool]:
    """``fmt``'s output for one deep input and ``fmt --check``'s verdict."""
    src = source_from_text(DEEP_INPUTS[name], name)
    program = program_from_source(src)
    assert not program.syntax_diagnostics, name
    return format_program(program), check_format(src, program)[0]


@pytest.fixture(scope="module")
def shallow() -> dict[str, tuple[str, bool]]:
    """Each input formatted from a shallow stack; the output reads back
    without syntax errors to the same clauses and formats to itself."""
    results = {}
    for name, text in DEEP_INPUTS.items():
        out, canonical = results[name] = formatted(name)
        assert canonical == (out == text), name
        program = program_from_source(source_from_text(text))
        out_src = source_from_text(out, name)
        reread = program_from_source(out_src)
        assert not reread.syntax_diagnostics, name
        assert len(reread.items) == len(program.items), name
        for before, after in zip(program.items, reread.items):
            for part in ("head", "body"):
                a, b = getattr(before, part), getattr(after, part)
                assert (a is None) == (b is None), name
                assert a is None or structurally_equal(a, b), name
        assert format_program(reread) == out, name
        assert check_format(out_src, reread) == (True, None), name
    return results


def _at_stack_depth(depth: int, action):
    return action() if depth == 0 else _at_stack_depth(depth - 1, action)


def test_deep_inputs_format_alike_from_a_deep_stack(shallow):
    for name in DEEP_INPUTS:
        assert _at_stack_depth(500, lambda: formatted(name)) \
            == shallow[name], name


def test_deep_inputs_format_alike_under_a_recursion_limit_of_60(shallow):
    # The limit is set after import, so any code that recurses once per
    # nesting level or operand fails here.
    script = ("import hashlib, sys; sys.path.insert(0, sys.argv[1]); "
              "import test_format_depth as t; sys.setrecursionlimit(60); "
              "print([(hashlib.sha256(out.encode()).hexdigest(), ok) "
              "for out, ok in map(t.formatted, t.DEEP_INPUTS)])")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(prolint.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script, str(Path(__file__).parent)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-3000:]
    assert done.stdout == str([
        (hashlib.sha256(out.encode()).hexdigest(), ok)
        for out, ok in shallow.values()]) + "\n"


def test_long_chain_formats_in_bounded_memory():
    program = program_from_source(source_from_text(_chain(10_000)))
    tracemalloc.start()
    try:
        format_program(program)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Keeping every operand's render-cache entry peaks at about 200 MB
    # here; dropping them once their operator is rendered, at about 2 MB.
    assert peak < 25_000_000
