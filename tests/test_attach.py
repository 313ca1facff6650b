"""Comment attachment against the brute-force reference in ``oracles``."""

from __future__ import annotations

import random

import pytest

from prolint import program_from_source, source_from_text
from prolint.source_model import scan

from gen import gen_file
from oracles import attach_comments_reference
from test_formatter import formatter_corpus


def attachments(text: str):
    """(comment start byte, kind, clause index) from the reader and from the
    reference, for every comment of ``text``."""
    src = source_from_text(text)
    tokens, _ = scan(src)
    program = program_from_source(src)
    got = [(a.token.span.byte_start, a.kind.value, a.clause_index)
           for a in program.comments]
    # Each clause holds the comments attached to it, in source order.
    for index, clause in enumerate(program.items):
        assert clause.comments == [a for a in program.comments
                                   if a.clause_index == index]
    spans = [clause.span for clause in program.items]
    want = [(token.span.byte_start, kind, index)
            for token, kind, index in attach_comments_reference(tokens, spans)]
    return got, want


EDGE_CASES = {
    "before_any_code": "% header\n\n\n% loose\n\nfoo.\n",
    "after_last_clause": "foo.\n\n% done\n/* really done */\n",
    "after_clause_end_same_line": "foo(1). % one\nfoo(2).  /* two */\n",
    "multi_line_block_above": "/* first line\n   second line\n*/\nfoo :-\n"
                              "    bar.\n",
    "blank_gap_before_clause": "% about foo\n% more\n\nfoo.\n\n% bar\nbar.\n",
    "syntax_error_mid_way": "foo.\n% before the break\nbar( :- . % broken\n"
                            "baz :- ) . % also broken\nqux. % fine\n",
    "interior_comment": "foo :-\n    % why\n    bar, % eol\n    baz.\n",
    "interior_before_next_clause": "a :-\n    % why b\n    b. c.\n",
    "no_clauses": "% only\n/* comments */\n",
    "after_multi_line_token": "foo(X) :-\n    X = 'two\nlines' % eol\n"
                              "    , bar(X).\n",
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_attachment_matches_reference_on_edge_cases(name):
    got, want = attachments(EDGE_CASES[name])
    assert got == want


def test_attachment_edge_case_kinds():
    got, _ = attachments(EDGE_CASES["before_any_code"])
    assert [kind for _, kind, _ in got] == ["free", "free"]
    got, _ = attachments(EDGE_CASES["after_last_clause"])
    assert [kind for _, kind, _ in got] == ["free", "free"]
    got, _ = attachments(EDGE_CASES["after_clause_end_same_line"])
    assert [(kind, index) for _, kind, index in got] \
        == [("trailing", 0), ("trailing", 1)]
    got, _ = attachments(EDGE_CASES["multi_line_block_above"])
    assert [(kind, index) for _, kind, index in got] == [("preceding", 0)]
    got, _ = attachments(EDGE_CASES["blank_gap_before_clause"])
    assert [(kind, index) for _, kind, index in got] \
        == [("free", None), ("free", None), ("preceding", 1)]
    got, _ = attachments(EDGE_CASES["syntax_error_mid_way"])
    assert [(kind, index) for _, kind, index in got] \
        == [("free", None), ("trailing", None), ("trailing", None),
            ("trailing", 1)]
    got, _ = attachments(EDGE_CASES["interior_comment"])
    assert [(kind, index) for _, kind, index in got] \
        == [("interior", 0), ("trailing", 0)]
    # A comment inside a clause stays with it, even when the next clause
    # starts on the line after it.
    got, _ = attachments(EDGE_CASES["interior_before_next_clause"])
    assert [(kind, index) for _, kind, index in got] == [("interior", 0)]
    got, _ = attachments(EDGE_CASES["after_multi_line_token"])
    assert [(kind, index) for _, kind, index in got] == [("trailing", 0)]


@pytest.mark.parametrize("name", sorted(formatter_corpus()))
def test_attachment_matches_reference_on_corpus(name):
    got, want = attachments(formatter_corpus()[name])
    assert got == want


@pytest.mark.parametrize("seed", range(40))
def test_attachment_matches_reference_on_generated_files(seed):
    rng = random.Random(seed)
    text = "\n".join(gen_file(rng) for _ in range(3))
    got, want = attachments(text)
    assert got == want
