from __future__ import annotations

import random

import pytest

from prolint import (
    Config,
    FormatError,
    check_format,
    format_program,
    program_from_source,
    run,
    source_from_text,
    structurally_equal,
)
from prolint.formatter import _Renderer
from prolint.reader import MAX_TERM_DEPTH, Compound, subterms
from prolint.source_model import TokenKind, scan

from gen import gen_file
from snippets import ALL_SNIPPETS, PROCESS_QUERIES, SAME_LENGTH


def fmt(text: str, cfg: Config | None = None) -> str:
    program = program_from_source(source_from_text(text))
    return format_program(program, cfg)


def comment_texts(text: str):
    tokens, _ = scan(source_from_text(text))
    out = {}
    for token in tokens:
        if token.kind in (TokenKind.LINE_COMMENT, TokenKind.BLOCK_COMMENT):
            key = token.text.rstrip()
            out[key] = out.get(key, 0) + 1
    return out


def formatter_corpus() -> dict[str, str]:
    corpus = {}
    for name, text in ALL_SNIPPETS.items():
        corpus[name] = "/* fixture: " + name + " */\n\n" + text
    rng = random.Random(1729)
    for index in range(26):
        corpus[f"gen_{index:02d}.pl"] = gen_file(rng)
    return corpus


def test_same_length_formats_to_canonical_rendering():
    squashed = ("same_length([],[]). "
                "same_length([_|L1],[_|L2]):-same_length(L1,L2).\n")
    assert fmt(squashed) == SAME_LENGTH


def test_compact_disjunction_block():
    assert fmt("p :- ( a ; b ).\n") == (
        "p :-\n"
        "    (   a\n"
        "    ;   b\n"
        "    ).\n")


def test_if_then_else_block():
    assert fmt("p :- (t1 -> x ; t2 -> y ; z).\n") == (
        "p :-\n"
        "    (   t1 ->\n"
        "        x\n"
        "    ;   t2 ->\n"
        "        y\n"
        "    ;   z\n"
        "    ).\n")


def test_repeat_region_gets_extra_level():
    out = fmt("p :- repeat, read(X), handle(X), X = done, !, wrap_up.\n")
    assert out == (
        "p :-\n"
        "    repeat,\n"
        "        read(X),\n"
        "        handle(X),\n"
        "        X = done,\n"
        "    !,\n"
        "    wrap_up.\n")


def test_canonical_input_is_fixed_point():
    assert fmt(SAME_LENGTH) == SAME_LENGTH


def test_formatter_splits_allowlisted_sequences():
    out = fmt(PROCESS_QUERIES)
    assert "    write('All done.'),\n    nl.\n" in out


def test_one_blank_line_between_predicates_none_within():
    out = fmt("a(1).\n\n\n\na(2).\nb.\n")
    assert out == "a(1).\na(2).\n\nb.\n"


def test_conjunction_kept_parenthesized_under_disjunction():
    out = fmt("p :- ((a, b) ; c).\n")
    assert out == (
        "p :-\n"
        "    (   (   a,\n"
        "            b\n"
        "        )\n"
        "    ;   c\n"
        "    ).\n")


def test_redundant_parens_on_simple_terms_dropped():
    assert fmt("p :- q((a)).\n") == "p :-\n    q(a).\n"


def test_required_parens_emitted():
    out = fmt("p :- q((a, b)).\n")
    assert "q((a, b))" in out


def test_lexemes_preserved_verbatim():
    text = 'p(0x1F, 0\'a, "str\\n", \'q w\', 2.50).\n'
    out = fmt(text)
    for lexeme in ("0x1F", "0'a", '"str\\n"', "'q w'", "2.50"):
        assert lexeme in out


def test_operator_spacing_matches_house_style():
    out = fmt("p(X,Y) :- X is 1+2*3, q(X-Y).\n")
    assert "X is 1 + 2 * 3" in out
    assert "q(X - Y)" in out


def test_indicators_and_qualifiers_print_tight():
    out = fmt(":- module(m, [foo/1, bar/2]).\nfoo(X) :- lists:append(X).\n")
    assert "[foo/1, bar/2]" in out
    assert "lists:append(X)" in out


def test_long_head_breaks_after_open_paren():
    head_args = ", ".join(f"Argument_{i}" for i in range(8))
    out = fmt(f"quite_a_long_predicate_name({head_args}) :- body_goal.\n")
    lines = out.splitlines()
    assert lines[0] == "quite_a_long_predicate_name("
    assert lines[1].startswith("    Argument_0")
    assert any(line == ") :-" for line in lines)
    assert all(len(line) <= 79 for line in lines)


def test_long_goal_breaks_after_argument_commas():
    args = ", ".join(f"long_argument_{i}" for i in range(8))
    out = fmt(f"p :- some_goal({args}).\n")
    lines = out.splitlines()
    assert all(len(line) <= 79 for line in lines)
    assert lines[1].startswith("    some_goal(")
    assert lines[1].endswith(",")
    assert lines[2].startswith("        ")


def test_trailing_comment_kept_when_short():
    out = fmt("p :- q.  % keep me\n")
    assert out == "p :-\n    q. % keep me\n"


def test_long_trailing_comment_moves_above():
    comment = "% " + "w" * 60
    out = fmt(f"p :- q.  {comment}\n")
    assert out == f"p :-\n    {comment}\n    q.\n"


def test_preceding_comment_stays_above_clause():
    out = fmt("% about p\np :- q.\n")
    assert out.startswith("% about p\np :-\n")


def test_interior_comment_kept_between_goals():
    out = fmt("p :- q,\n   % between\n   r.\n")
    assert out == "p :-\n    q,\n    % between\n    r.\n"


def test_comment_only_gap_collapsed_to_two_blanks():
    out = fmt("/* header */\n\n\n\n\np.\n")
    assert out == "/* header */\n\n\np.\n"


def test_format_refused_on_syntax_error():
    program = program_from_source(source_from_text("broken(((.\n"))
    with pytest.raises(FormatError) as excinfo:
        format_program(program)
    assert excinfo.value.diagnostic.rule_id in ("E01", "E02")


def test_check_format_canonical():
    src = source_from_text(SAME_LENGTH)
    program = program_from_source(src)
    canonical, divergence = check_format(src, program)
    assert canonical is True
    assert divergence is None


def test_check_format_reports_divergence_at_tab():
    text = SAME_LENGTH.replace("    same_length", "\tsame_length")
    src = source_from_text(text)
    program = program_from_source(src)
    canonical, divergence = check_format(src, program)
    assert canonical is False
    assert (divergence.start_line, divergence.start_col) == (3, 1)


def test_check_format_trailing_newline_matters():
    text = SAME_LENGTH + "\n"
    src = source_from_text(text)
    program = program_from_source(src)
    canonical, _ = check_format(src, program)
    assert canonical is False


def test_directive_with_conjunction_splits_goals():
    out = fmt(":- use_module(a), use_module(b).\n")
    assert out == ":- use_module(a),\n    use_module(b).\n"


def test_operator_directives_respected_in_order():
    text = (":- op(700, xfx, ===).\n"
            "\n"
            "eq(A, B) :- A === B.\n")
    out = fmt(text)
    assert "A === B" in out
    assert fmt(out) == out


def test_compound_printed_before_its_op_directive_stays_canonical():
    text = ("p('==='(a, b)).\n"
            "\n"
            ":- op(700, xfx, ===).\n"
            "\n"
            "q(X) :- X === 1.\n")
    out = fmt(text)
    # the eager clause cannot use operator notation yet
    assert "'==='(a, b)" in out.splitlines()[0] or "===(a, b)" in out.splitlines()[0]
    assert "X === 1" in out
    assert fmt(out) == out


def _assert_formatting_contract(name: str, text: str) -> None:
    src = source_from_text(text, name)
    program = program_from_source(src)
    assert not program.syntax_diagnostics, (name, program.syntax_diagnostics)
    once = format_program(program)

    # idempotence, byte-exact
    again_program = program_from_source(source_from_text(once, name))
    assert not again_program.syntax_diagnostics, (name, once)
    twice = format_program(again_program)
    assert twice == once, name

    # semantics preserved
    original_items = program.items
    reread_items = again_program.items
    assert len(original_items) == len(reread_items), name
    for before, after in zip(original_items, reread_items):
        assert before.kind == after.kind, name
        if before.head is not None:
            assert structurally_equal(before.head, after.head), name
        if before.body is not None:
            assert structurally_equal(before.body, after.body), name

    # comment conservation
    assert comment_texts(text) == comment_texts(once), name

    # constructive witness: the output satisfies every layout rule
    out_src = source_from_text(once, name)
    out_program = program_from_source(out_src)
    layout = [d for d in run(out_src, out_program, Config())
              if d.rule_id.startswith("L")]
    assert layout == [], (name, once, layout)


def test_formatting_contract_over_corpus():
    corpus = formatter_corpus()
    assert len(corpus) >= 30
    for name, text in corpus.items():
        _assert_formatting_contract(name, text)


#: Operator atoms as operands, symbol characters before a clause's end,
#: comments before it, before a block and on a block's ``(``, ``;`` and
#: ``)`` lines, moved trailing comments, postfix operators, the list bar,
#: multi-goal directives and curly terms, each with the output it must get:
#: output that reads back to the same clauses and formats to itself.
ROUND_TRIP_CASES = {
    "operator_atom_argument": (
        "p(X) :- X = f(dynamic).\n",
        "p(X) :-\n    X = f((dynamic)).\n"),
    "parenthesized_operator_atom_argument": (
        "p(X) :- X = f((dynamic)).\n",
        "p(X) :-\n    X = f((dynamic)).\n"),
    "solo_operator_atom_argument": ("x(;).\n", "x((;)).\n"),
    "operator_atom_before_end": (
        "p :- X = \\+ .\n", "p :-\n    X = (\\+).\n"),
    "symbol_char_before_end_of_rule": (
        "p(X) :- X == - .\n", "p(X) :-\n    X == - .\n"),
    "symbol_char_before_end_of_fact": ("- .\n", "- .\n"),
    "line_comment_before_end": (
        "p :-\n    a,\n    b\n    % done\n    .\n",
        "p :-\n    a,\n    b.\n% done\n"),
    "block_comment_before_end": (
        "p :-\n    a\n    /* x */ .\n", "p :-\n    a.\n/* x */\n"),
    "comment_before_block_close": (
        "p :-\n    (   a\n    ;   b\n        % c\n    ).\n",
        "p :-\n    (   a\n    ;   b\n    % c\n    ).\n"),
    "comment_after_block_open_on_its_own_line": (
        "p :- nl, % step\n( % c\n b(X) -> d ; e ).\n",
        "p :-\n    nl, % step\n    (   b(X) -> % c\n        d\n    ;   e\n"
        "    ).\n"),
    "long_comment_after_block_close": (
        "p :- ( a ; b ), % a comment longer than forty characters here\n"
        "    c.\n",
        "p :-\n    (   a\n    ;   b\n"
        "    % a comment longer than forty characters here\n    ),\n    c.\n"),
    "long_comment_after_block_open_then_own_line_comment": (
        "p :- x, ( % a trailing comment longer than forty characters\n"
        "    % own\n    a ; b ).\n",
        "p :-\n    x,\n    % a trailing comment longer than forty characters\n"
        "    % own\n    (   a\n    ;   b\n    ).\n"),
    "comment_after_semicolon_alone_on_its_line": (
        "p :- ( a\n ; % c\n b ).\n",
        "p :-\n    (   a\n    ;   b % c\n    ).\n"),
    "comment_inside_fact": ("foo(\n% c\na).\n", "foo(a).\n% c\n"),
    "line_comment_before_end_then_trailing_comment": (
        "p :-\n    a\n    % interior\n    . % trailing\n",
        "p :-\n    a. % trailing\n% interior\n"),
    "comment_inside_clause_before_next_clause": (
        "a :-\n    % why b\n    b. c.\n",
        "a :-\n    % why b\n    b.\n\nc.\n"),
    "xf_operand_of_xf": (
        ":- op(100, xf, ++).\nq((X ++) ++).\n",
        ":- op(100, xf, ++).\nq((X ++) ++).\n"),
    "yf_operand_of_yf": (
        ":- op(100, yf, ++).\nq((X ++) ++).\n",
        ":- op(100, yf, ++).\nq(X ++ ++).\n"),
    "xf_under_prefix": (
        ":- op(100, xf, ++).\nq(- X ++).\n",
        ":- op(100, xf, ++).\nq(- X ++).\n"),
    "infix_operator_atom_left_of_infix": (
        "p :- (-) - a.\n", "p :-\n    (-) - a.\n"),
    "infix_operator_atom_under_prefix": (
        "dynamic : | is .\n", "dynamic (:) ; is.\n"),
    "operator_atom_left_of_bar_in_directive": (
        ":- is | a.\n", ":-\n    (   is\n    ;   a\n    ).\n"),
    "list_bar_after_low_bar_op": (
        ":- op(500, xfx, '|').\np([a|b]).\n",
        ":- op(500, xfx, '|').\np([a|b]).\n"),
    "long_comment_after_branch_goal": (
        "p :- ( true ; findall(X, (a, % a trailing comment that is long"
        " enough to move\n b), L) -> c ; d ).\n",
        "p :-\n    (   true\n"
        "        % a trailing comment that is long enough to move\n"
        "    ;   findall(X, (a, b), L) ->\n        c\n    ;   d\n    ).\n"),
    "long_comment_before_goal_starting_with_semicolon": (
        "p :-\n    a,\n    ;(x). % a trailing comment that is long enough"
        " to move\n",
        "p :-\n    a,\n    % a trailing comment that is long enough to move"
        "\n    ;(x).\n"),
    "second_trailing_comment_after_line_comment": (
        "p :- f(a, % c1\n    b, % c2\n    c).\n",
        "p :-\n    % c2\n    f(a, b, c). % c1\n"),
    "directive_conjunction_block_first": (
        ":- (a, b), c.\n", ":-\n    (   a,\n        b\n    ),\n    c.\n"),
    "directive_disjunction_last": (
        ":- a, (b ; c).\n", ":-\n    a,\n    (   b\n    ;   c\n    ).\n"),
    "directive_disjunction_first": (
        ":- (b ; c), a.\n", ":-\n    (   b\n    ;   c\n    ),\n    a.\n"),
    "directive_plain_goals": (":- a, b.\n", ":- a,\n    b.\n"),
    "comment_before_first_directive_goal": (
        ":-\n% c\na, b.\n", "% c\n:- a,\n    b.\n"),
    "comment_after_block_open": (
        "p :- (\n% c\na ; b).\n",
        "p :-\n    % c\n    (   a\n    ;   b\n    ).\n"),
    "curly_term_argument": ("p({a, b}).\n", "p({a, b}).\n"),
    "curly_goal_in_grammar_rule": (
        "a --> {b}, c.\n", "a -->\n    {b},\n    c.\n"),
    "curly_goal_holding_disjunction": (
        "p :- {a ; b}.\n", "p :-\n    {a ; b}.\n"),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_CASES))
def test_output_reads_back_and_formats_to_itself(name):
    text, want = ROUND_TRIP_CASES[name]
    assert fmt(text) == want
    # The header keeps L11 quiet, as in ``formatter_corpus``.
    _assert_formatting_contract(name, f"/* case: {name} */\n\n{text}")


def test_suppression_comment_reattaches_to_head_line():
    out = fmt("p :- q, !.  % prolint: allow I01\n")
    assert out.splitlines()[0] == "p :- % prolint: allow I01"
    # still effective after the rewrite
    src = source_from_text(out, "x.pl")
    diags = run(src, program_from_source(src), Config())
    assert not [d for d in diags if d.rule_id == "I01"]


def test_suppression_comment_stays_on_head_line_after_a_moved_comment():
    out = fmt("p :- /* a long block comment that will not fit on the line */"
              " % prolint: allow I01\n    a,\n    !.\n")
    assert out == ("/* a long block comment that will not fit on the line */\n"
                   "p :- % prolint: allow I01\n    a,\n    !.\n")
    src = source_from_text(out, "x.pl")
    diags = run(src, program_from_source(src), Config())
    assert not [d for d in diags if d.rule_id == "I01"]


def _nested_fact(depth: int) -> str:
    """A fact whose argument nests ``depth`` levels and is far too wide for
    one line, so the formatter wraps it at every level."""
    return "p(" + "f(aaaaaaaaaa, " * depth + "x" + ")" * depth + ").\n"


@pytest.mark.parametrize("depth", [40, 80])
def test_wrapping_renders_each_subterm_once(depth, monkeypatch):
    program = program_from_source(source_from_text(_nested_fact(depth)))
    assert not program.syntax_diagnostics
    calls = 0
    original = _Renderer._render_compound

    def counting(self, *args):
        nonlocal calls
        calls += 1
        return original(self, *args)

    # Leaves are rendered inline by the walk; each compound is one step.
    monkeypatch.setattr(_Renderer, "_render_compound", counting)
    out = format_program(program)
    assert len(out.splitlines()) > depth  # wrapped at every level
    head = program.items[0].head
    assert 0 < calls <= sum(isinstance(t, Compound) for t in subterms(head))


def test_deepest_readable_term_formats_and_reads_back():
    # A narrow nest: ``_nested_fact`` this deep wraps to 50 MB of output.
    def read(depth):
        text = "p(" + "f(" * depth + "x" + ")" * depth + ").\n"
        return program_from_source(source_from_text(text))

    depth = MAX_TERM_DEPTH - 1
    assert read(depth + 1).syntax_diagnostics
    program = read(depth)
    assert not program.syntax_diagnostics
    out = format_program(program)
    reread = program_from_source(source_from_text(out))
    assert not reread.syntax_diagnostics
    assert structurally_equal(program.items[0].head, reread.items[0].head)
    assert format_program(reread) == out
