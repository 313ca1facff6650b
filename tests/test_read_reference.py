"""The reader against the recursive-descent reference in ``oracles``: equal
clauses, compared field by field down every subterm (spans,
``parenthesized``, ``functor_span`` and lexemes included), equal
``comma_roles``, exports and module name, and equal E02 messages and spans.
Inputs too deep for the reference's recursion are the only ones skipped."""

from __future__ import annotations

import random

import pytest

from prolint import source_from_text
from prolint.reader import read_program
from prolint.source_model import scan

from gen import gen_file
from oracles import read_program_reference
from test_formatter import formatter_corpus

#: Pieces of token soup: operands, operators of every type and priority
#: band, brackets, argument and list separators, clause ends, functional
#: notation, signed numerals, an unterminated quoted atom, and directives
#: that change the operator table or name a module.  A few phrases reach
#: rules that single pieces rarely line up for: an xfy chain's last operand
#: taking an operator of the chain's priority, and operator atoms standing
#: alone as arguments.
SOUP = ["a", "b", "foo", "'q a'", "'+'", "X", "_", "Y1", "1", "2.5", '"s"',
        "[]", "{}", "+", "-", "*", "=", "is", "\\+", "^", ":", ":-", "-->",
        "?-", ";", "->", "*->", "dynamic", "mod", "**", "=..", "(", ")",
        "[", "]", "{", "}", ",", "|", ". ", ".\n", "f(", "g(", "-(", "- 1",
        "-1", "-2.5", "% c\n", "/* c */", "'open",
        "a ^ b ** c", "X : Y ** 2", "a, b && c", "a ; b |- c", "f(:- | a)",
        "f(-, dynamic)", "[:- | ;]", "g(a, ?-)", "- (a)", "- - a",
        "\\+ \\+ a", "a = \\+", "f(a) + - 1", "- a ^ b",
        ":- op(700, xfx, ===). ", ":- op(200, xfy, ~). ",
        ":- op(900, fy, not). ", ":- op(100, xf, !!). ",
        ":- op(100, yf, ++). ", ":- op(0, xfx, =). ",
        ":- op(1000, xfx, &&). ", ":- op(1000, yfx, ##). ",
        ":- op(1100, xfx, '|'). ", ":- op(1200, fy, ===). ",
        ":- op(999, xfy, ~). ", ":- op(500, fx, ~). ",
        ":- op(1100, xfx, |-). ", ":- op(500, xfx, '|'). ",
        ":- module(m, [p/1, q/2]). "]


def _assert_same_term(got, want, where: str) -> None:
    pending = [(got, want)]
    while pending:
        a, b = pending.pop()
        assert type(a) is type(b), where
        if a is None:
            continue
        for name in a.__slots__:
            if name == "args":
                assert len(a.args) == len(b.args), where
                pending.extend(zip(a.args, b.args))
            else:
                left, right = getattr(a, name), getattr(b, name)
                assert (type(left), left) == (type(right), right), \
                    (where, name, left, right)


def assert_matches_reference(text: str) -> None:
    tokens, _ = scan(source_from_text(text))
    try:
        want = read_program_reference(tokens)
    except RecursionError:
        return
    program, diagnostics = read_program(tokens)
    got = [(c.kind.value, c.head, c.body, c.span) for c in program.items]
    assert len(got) == len(want["clauses"]), repr(text)
    for index, (g, w) in enumerate(zip(got, want["clauses"])):
        where = f"{text!r} clause {index}"
        assert (g[0], g[3]) == (w[0], w[3]), where
        _assert_same_term(g[1], w[1], where)
        _assert_same_term(g[2], w[2], where)
    assert program.comma_roles == want["comma_roles"], repr(text)
    assert program.exports == want["exports"], repr(text)
    assert program.module_name == want["module_name"], repr(text)
    assert all(d.rule_id == "E02" for d in diagnostics)
    assert [(d.message, d.span) for d in diagnostics] == want["errors"], \
        repr(text)


@pytest.mark.parametrize("name", sorted(formatter_corpus()))
def test_read_matches_reference_on_corpus(name):
    assert_matches_reference(formatter_corpus()[name])


def test_read_matches_reference_on_generated_files():
    for seed in range(300):
        assert_matches_reference(gen_file(random.Random(seed)))


def test_read_matches_reference_on_token_soup():
    rng = random.Random(8)
    for _ in range(5_000):
        pieces = rng.choices(SOUP, k=rng.randrange(1, 30))
        separators = rng.choices([" ", "", "\n"], weights=[6, 3, 1],
                                 k=len(pieces))
        assert_matches_reference(
            "".join(p + s for p, s in zip(pieces, separators)))
