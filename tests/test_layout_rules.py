from __future__ import annotations

from prolint import Config, Severity

from conftest import lint_text
from snippets import PROCESS_QUERIES


def only(diags, rule_id):
    return [d for d in diags if d.rule_id == rule_id]


# -- L01 ---------------------------------------------------------------------

def test_l01_layout_tab():
    diags = only(lint_text("p :-\n\tq.\n"), "L01")
    assert len(diags) == 1
    assert diags[0].span.start_line == 2


def test_l01_ignores_tabs_inside_data_and_comments():
    text = "p('a\tb').  % tab\there\n/* also\tfine */\nq.\n"
    assert only(lint_text(text), "L01") == []


def test_l01_once_per_line():
    assert len(only(lint_text("p :-\n\t\tq,\n\tr.\n"), "L01")) == 2


# -- L02 ---------------------------------------------------------------------

def test_l02_requires_one_indent_level():
    diags = only(lint_text("p :-\n  q.\n"), "L02")
    assert len(diags) == 1


def test_l02_requires_multiple_of_unit():
    assert len(only(lint_text("p :-\n      q.\n"), "L02")) == 1
    assert only(lint_text("p :-\n        q.\n"), "L02") == []


def test_l02_clause_start_lines_exempt():
    assert only(lint_text("p :-\n    q.\nr.\n"), "L02") == []


def test_l02_continuation_inside_brackets_tolerates_alignment():
    text = "p :-\n    foo(a,\n         b).\n"
    assert only(lint_text(text), "L02") == []


def test_l02_continuation_still_needs_one_level():
    text = "p :-\n    foo(a,\n  b).\n"
    assert len(only(lint_text(text), "L02")) == 1


def test_l02_closing_bracket_line_exempt():
    text = ("averylongpredicatename(\n"
            "    argument_one, argument_two\n"
            ") :-\n"
            "    body_goal.\n")
    assert only(lint_text(text), "L02") == []


def test_l02_comment_lines_exempt():
    text = "p :-\n  % oddly indented comment\n    q.\n"
    assert only(lint_text(text), "L02") == []


def test_l02_indent_size_configurable():
    cfg = Config()
    cfg.indent_size = 2
    assert only(lint_text("p :-\n  q.\n", cfg), "L02") == []


# -- L03 ---------------------------------------------------------------------

def test_l03_long_line_warning():
    text = "p :- " + "a" * 81 + ".\n"
    diags = only(lint_text(text), "L03")
    assert len(diags) == 1
    assert diags[0].severity is Severity.WARNING
    assert "87" in diags[0].message


def test_l03_exact_limit_ok():
    text = "p :- " + "a" * 73 + ".\n"
    assert len(text.splitlines()[0]) == 79
    assert only(lint_text(text), "L03") == []


def test_l03_respects_config():
    cfg = Config()
    cfg.max_line_length = 100
    text = "p :- " + "a" * 81 + ".\n"
    assert only(lint_text(text, cfg), "L03") == []


# -- L04 ---------------------------------------------------------------------

def _clause_of_lines(goal_count: int) -> str:
    goals = [f"    g{i}(X)" for i in range(goal_count)]
    return "p(X) :-\n" + ",\n".join(goals) + ".\n"


def test_l04_info_then_warning_thresholds():
    ok = only(lint_text(_clause_of_lines(23)), "L04")
    assert ok == []
    info = only(lint_text(_clause_of_lines(30)), "L04")
    assert len(info) == 1 and info[0].severity is Severity.INFO
    warn = only(lint_text(_clause_of_lines(60)), "L04")
    assert len(warn) == 1 and warn[0].severity is Severity.WARNING


# -- L05 ---------------------------------------------------------------------

def test_l05_two_subgoals_on_one_line():
    diags = only(lint_text("p :- a, b.\n"), "L05")
    assert len(diags) == 1
    # the diagnostic is anchored on the second goal
    assert diags[0].span.start_col == 9


def test_l05_allowlisted_io_sequence():
    text = "p(T) :-\n    write('CPU time = '), write(T), write(' msec'), nl.\n"
    assert only(lint_text(text), "L05") == []


def test_l05_mixed_allowlist_still_fires():
    text = "p(T) :-\n    write(T), frob(T).\n"
    assert len(only(lint_text(text), "L05")) == 1


def test_l05_at_most_once_per_line():
    assert len(only(lint_text("p :- a, b, c, d.\n"), "L05")) == 1


def test_l05_counts_goals_inside_disjunctions():
    assert len(only(lint_text("p :-\n    (a, b ; c).\n"), "L05")) == 1


def test_l05_one_goal_per_line_clean():
    assert only(lint_text("p :-\n    a,\n    b.\n"), "L05") == []


# -- L06 ---------------------------------------------------------------------

def test_l06_second_clause_on_same_line():
    diags = only(lint_text("a. b.\n"), "L06")
    assert len(diags) == 1
    assert diags[0].span.start_col == 4


def test_l06_indented_head():
    assert len(only(lint_text("  p.\n"), "L06")) == 1


def test_l06_clean_heads():
    assert only(lint_text("p.\n\nq :-\n    p.\n"), "L06") == []


# -- L07 ---------------------------------------------------------------------

def test_l07_simple_no_space():
    assert len(only(lint_text("p :- f(a,b).\n"), "L07")) == 1


def test_l07_simple_double_space():
    assert len(only(lint_text("p :- f(a,  b).\n"), "L07")) == 1


def test_l07_simple_single_space_or_newline_ok():
    text = "p :-\n    f(a, b),\n    g.\n"
    assert only(lint_text(text), "L07") == []


def test_l07_comma_before_comment_ok():
    text = "p :-\n    f(a, b),  % note\n    g.\n"
    assert only(lint_text(text), "L07") == []


def test_l07_structured_style():
    cfg = Config()
    cfg.comma_style = "structured"
    # data commas must be tight, goal-argument commas spaced
    assert only(lint_text("p :- f([1,2], a, b).\n", cfg), "L07") == []
    assert len(only(lint_text("p :- f([1, 2], a, b).\n", cfg), "L07")) == 1
    assert len(only(lint_text("p :- f([1,2], a,b).\n", cfg), "L07")) == 1
    # nested data structures are tight too
    assert only(lint_text("p :- f(g(a,b), c).\n", cfg), "L07") == []
    assert len(only(lint_text("p :- f(g(a, b), c).\n", cfg), "L07")) == 1


def test_l07_structured_judges_only_clauses_that_read():
    """A clause that does not read has no terms to tell an and-then comma
    from a data comma, so the structured style leaves its commas alone;
    the simple style needs no terms and judges them all."""
    text = "p :- a,b.\nq :- (a,b.\n"
    found = [(d.rule_id, d.span.start_line, d.span.start_col)
             for d in lint_text(text, Config(comma_style="structured"))
             if d.rule_id in ("L07", "E02")]
    assert found == [("L07", 1, 7), ("E02", 2, 10)]
    simple = only(lint_text(text, Config(comma_style="simple")), "L07")
    assert [(d.span.start_line, d.span.start_col) for d in simple] \
        == [(1, 7), (2, 8)]


# -- L08 ---------------------------------------------------------------------

def test_l08_semicolon_at_end_of_line():
    text = "p :-\n    (   a ;\n        b\n    ).\n"
    diags = only(lint_text(text), "L08")
    assert len(diags) == 1
    assert diags[0].span.start_line == 2


def test_l08_semicolon_alone_on_line_ok():
    text = ("p :-\n"
            "    (\n"
            "        a\n"
            "    ;\n"
            "        b\n"
            "    ).\n")
    assert only(lint_text(text), "L08") == []


def test_l08_multiline_disjunction_needs_parens():
    text = "p :-\n    a ;\n    b.\n"
    assert any("parenthes" in d.message
               for d in only(lint_text(text), "L08"))


def test_l08_misaligned_closing_paren():
    text = ("p :-\n"
            "    (   a\n"
            "    ;   b\n"
            "        ).\n")
    diags = only(lint_text(text), "L08")
    assert len(diags) == 1
    assert "below" in diags[0].message


def test_l08_compact_block_clean():
    text = ("p :-\n"
            "    (   a\n"
            "    ;   b\n"
            "    ).\n")
    assert only(lint_text(text), "L08") == []


def test_l08_single_line_disjunction_not_flagged():
    assert only(lint_text("p :-\n    (a ; b).\n"), "L08") == []


# -- L09 ---------------------------------------------------------------------

def test_l09_canonical_shape_clean():
    assert only(lint_text(PROCESS_QUERIES), "L09") == []


def test_l09_dedented_loop_body():
    text = ("process_queries :-\n"
            "    repeat,\n"
            "    read_query(Q),\n"
            "    handle(Q),\n"
            "    Q = [quit],\n"
            "    !,\n"
            "    write('All done.'), nl.\n")
    assert len(only(lint_text(text), "L09")) == 3


def test_l09_no_cut_no_diagnostic():
    text = "p :-\n    repeat,\n    read(X),\n    handle(X).\n"
    assert only(lint_text(text), "L09") == []


# -- L10 ---------------------------------------------------------------------

def test_l10_long_eol_comment():
    comment = "% " + "x" * 45
    diags = only(lint_text(f"p.  {comment}\n"), "L10")
    assert len(diags) == 1
    assert diags[0].severity is Severity.HINT


def test_l10_short_eol_comment_ok():
    assert only(lint_text("p.  % short note\n"), "L10") == []


def test_l10_own_line_comment_exempt():
    comment = "% " + "x" * 70
    assert only(lint_text(f"{comment}\np.\n"), "L10") == []


# -- L11 ---------------------------------------------------------------------

def test_l11_missing_header():
    diags = only(lint_text("p.\n"), "L11")
    assert len(diags) == 1
    assert diags[0].severity is Severity.HINT


def test_l11_block_comment_header_ok():
    assert only(lint_text("/* my program */\np.\n"), "L11") == []


def test_l11_three_line_comment_header_ok():
    text = "% one\n% two\n% three\np.\n"
    assert only(lint_text(text), "L11") == []


def test_l11_two_line_comments_not_enough():
    assert len(only(lint_text("% one\n% two\np.\n"), "L11")) == 1


def test_l11_module_without_block_comment():
    text = "/* header */\n:- module(m, []).\np.\n"
    diags = only(lint_text(text), "L11")
    assert len(diags) == 1
    assert "module" in diags[0].message


def test_l11_module_with_block_comment_ok():
    text = "/* header */\n:- module(m, []).\n/* what this is about */\np.\n"
    assert only(lint_text(text), "L11") == []


# -- L12 ---------------------------------------------------------------------

def test_l12_blank_between_same_predicate_clauses():
    # A line of only layout characters is blank too.
    for blank in ("", " \t"):
        diags = only(lint_text(f"p(1).\n{blank}\np(2).\n"), "L12")
        assert len(diags) == 1
        assert "p/1" in diags[0].message


def test_l12_missing_blank_between_predicates():
    diags = only(lint_text("p.\nq.\n"), "L12")
    assert len(diags) == 1
    assert "q/0" in diags[0].message


def test_l12_canonical_spacing_clean():
    assert only(lint_text("p(1).\np(2).\n\nq.\n"), "L12") == []
    assert only(lint_text("p(1).\np(2).\n   \nq.\n"), "L12") == []


def test_l12_attached_comment_counts_with_its_clause():
    text = "p.\n\n% about q\nq.\n"
    assert only(lint_text(text), "L12") == []


def test_l12_directives_not_paired():
    text = "p.\n:- dynamic q/0.\nq.\n"
    assert only(lint_text(text), "L12") == []


def test_l12_skips_a_head_that_is_not_callable():
    for text in ('p.\n"s".\n', '"s".\n\n"t".\n', "X.\n1.\n"):
        diags = lint_text(text)
        assert only(diags, "L12") == [] and only(diags, "E99") == [], text
    diags = only(lint_text('"s".\nq.\n'), "L12")
    assert len(diags) == 1 and "q/0" in diags[0].message


# -- invariants ----------------------------------------------------------------

def test_l05_l09_independent_of_comment_wording():
    base = ("p :-\n"
            "    q, r,  % first wording here\n"
            "    (   a ;\n"
            "        b\n"
            "    ).\n")
    reworded = base.replace("% first wording here", "% other words, same n")
    assert len("% first wording here") == len("% other words, same n") - 1
    ids = lambda text: [(d.rule_id, d.span.start_line)
                        for d in lint_text(text)
                        if d.rule_id in ("L05", "L06", "L07", "L08", "L09")]
    assert ids(base) == ids(reworded)


def test_l01_l03_need_no_parse():
    # Parsing fails, yet the lexical rules still report.
    text = "\tbroken(((((" + "x" * 90 + ".\n"
    diags = lint_text(text)
    ids = {d.rule_id for d in diags}
    assert "E02" in ids
    assert "L01" in ids
    assert "L03" in ids
