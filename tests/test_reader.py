from __future__ import annotations

import random

import pytest

from prolint import Config, run
from prolint.reader import (
    MAX_TERM_DEPTH,
    Atom,
    ClauseKind,
    Compound,
    Float,
    Integer,
    OperatorTable,
    Variable,
    conjunction_goal_begins,
    conjunction_goals,
    final_goal,
    group_predicates,
    is_atom,
    is_compound,
    program_from_source,
    read_program,
    read_term,
    structurally_equal,
)
from prolint.source_model import scan, source_from_text

from gen import expression_table, gen_expression
from oracles import canonical_text, shunting_yard, term_to_tuple
from test_read_reference import assert_matches_reference


def parse_body(text: str):
    program = program_from_source(source_from_text(text))
    assert not program.syntax_diagnostics, program.syntax_diagnostics
    return program.items[0].body


def parse_term_text(text: str):
    tokens, diags = scan(source_from_text(text))
    assert not diags
    return read_term(tokens)


def test_comma_binds_tighter_than_semicolon():
    term = parse_body("t :- a,b;c.\n")
    assert term_to_tuple(term) == (";", (",", "a", "b"), "c")


def test_arithmetic_precedence():
    term = parse_body("t :- X is 1+2*3.\n")
    assert term_to_tuple(term) == \
        ("is", ("var", "X"), ("+", 1, ("*", 2, 3)))


def test_explicit_parentheses_recorded():
    term = parse_body("t :- (a,b);c.\n")
    assert term.name == ";"
    assert term.args[0].parenthesized is True
    bare = parse_body("t :- a,b;c.\n")
    assert bare.args[0].parenthesized is False


def test_parenthesized_span_covers_parens():
    term = parse_term_text("( a ; b )")
    assert term.span.start_col == 1
    assert term.span.end_col == 10


def test_op_directive_updates_table():
    program = program_from_source(
        source_from_text(":- op(700, xfx, ===).\na === b.\n"))
    assert not program.syntax_diagnostics
    clause = program.items[1]
    assert clause.kind == ClauseKind.FACT
    assert term_to_tuple(clause.head) == ("===", "a", "b")
    assert program.operator_table.infix("===").priority == 700


def test_op_directive_with_name_list_and_removal():
    program = program_from_source(source_from_text(
        ":- op(600, xfy, [plus, minus]).\n"
        "a plus b.\n"
        ":- op(0, xfy, plus).\n"))
    assert program.operator_table.infix("plus") is None
    assert program.operator_table.infix("minus").priority == 600


def test_module_exports_extracted():
    program = program_from_source(
        source_from_text(":- module(m, [foo/1, bar/2]).\nfoo(1).\n"))
    assert program.exports == [("foo", 1), ("bar", 2)]
    assert program.module_name == "m"


def test_recovery_keeps_good_clauses():
    program = program_from_source(source_from_text(
        "good(1).\nbad(((((.\nalso_good(2).\n"))
    assert len(program.syntax_diagnostics) == 1
    assert [c.indicator for c in program.items] \
        == [("good", 1), ("also_good", 1)]


def test_stray_end_token_reported():
    program = program_from_source(source_from_text(".\nok.\n"))
    assert len(program.syntax_diagnostics) == 1
    assert [c.indicator for c in program.items] == [("ok", 0)]


def test_clause_kinds():
    program = program_from_source(source_from_text(
        "f(1).\nr(X) :- g(X).\n:- dynamic f/1.\nnt --> [a], nt.\n"))
    assert [c.kind for c in program.items] == [
        ClauseKind.FACT, ClauseKind.RULE, ClauseKind.DIRECTIVE,
        ClauseKind.GRAMMAR_RULE,
    ]


def test_group_predicates_same_length():
    program = program_from_source(source_from_text(
        "same_length([], []).\n"
        "same_length([_|L1], [_|L2]) :-\n    same_length(L1, L2).\n"))
    groups = group_predicates(program)
    assert len(groups) == 1
    assert groups[0].indicator == ("same_length", 2)
    assert len(groups[0].clauses) == 2
    assert groups[0].contiguous is True


def test_group_predicates_interleaved_not_contiguous():
    program = program_from_source(source_from_text("a.\nb.\na.\n"))
    groups = group_predicates(program)
    assert [g.indicator for g in groups] == [("a", 0), ("b", 0)]
    assert groups[0].contiguous is False
    assert groups[1].contiguous is True


def test_group_predicates_empty_program():
    program = program_from_source(source_from_text(""))
    assert group_predicates(program) == []


def test_exported_flags_follow_module_directive():
    program = program_from_source(source_from_text(
        ":- module(m, [pub/0]).\npub.\npriv.\n"))
    exported = {g.indicator: g.exported for g in group_predicates(program)}
    assert exported == {("pub", 0): True, ("priv", 0): False}
    bare = program_from_source(source_from_text("pub.\npriv.\n"))
    assert all(g.exported for g in group_predicates(bare))


def test_conjunction_goals_flattening():
    body = parse_body("t :- a, b, c.\n")
    assert [term_to_tuple(g) for g in conjunction_goals(body)] \
        == ["a", "b", "c"]


def test_conjunction_goals_single_goal():
    body = parse_body("t :- foo(X).\n")
    goals = conjunction_goals(body)
    assert len(goals) == 1
    assert term_to_tuple(goals[0]) == ("foo", ("var", "X"))


def test_conjunction_goals_disjunction_is_one_goal():
    body = parse_body("t :- (a ; b).\n")
    goals = conjunction_goals(body)
    assert len(goals) == 1
    assert goals[0].name == ";"


def test_conjunction_goals_respects_parenthesized_group():
    body = parse_body("t :- a, (b, c), d.\n")
    goals = conjunction_goals(body)
    assert [type(g).__name__ for g in goals] \
        == ["Atom", "Compound", "Atom"]


def test_conjunction_goal_begins_marks_a_canonical_conjunctions_start():
    text = "t :- x, ','(','(a, b), c), d.\n"
    body = parse_body(text)
    pairs = conjunction_goal_begins(body)
    assert [term_to_tuple(g) for g, _ in pairs] == ["x", "a", "b", "c", "d"]
    # Only the first goal of the outer ``','(`` begins ahead of itself.
    assert [begin for _, begin in pairs] \
        == [None, text.index("','("), None, None, None]
    assert conjunction_goals(body) == [g for g, _ in pairs]


def test_list_desugaring():
    term = parse_term_text("[a, b|T]")
    assert term_to_tuple(term) == (".", "a", (".", "b", ("var", "T")))
    assert term_to_tuple(parse_term_text("[]")) == "[]"
    assert term_to_tuple(parse_term_text("[x]")) == (".", "x", "[]")


def test_curly_braces():
    assert term_to_tuple(parse_term_text("{a, b}")) \
        == ("{}", (",", "a", "b"))
    assert term_to_tuple(parse_term_text("{}")) == "{}"


def test_negative_number_forms():
    head = program_from_source(
        source_from_text("n(-1, - 1, 3 - 2, 2-1).\n")).items[0].head
    args = head.args
    assert isinstance(args[0], Integer) and args[0].value == -1
    assert term_to_tuple(args[1]) == ("-", 1)
    assert term_to_tuple(args[2]) == ("-", 3, 2)
    assert term_to_tuple(args[3]) == ("-", 2, 1)


def test_quoted_atom_name_unescaped():
    term = parse_term_text("'it''s ok'")
    assert isinstance(term, Atom)
    assert term.name == "it's ok"
    assert term.lexeme == "'it''s ok'"


def test_quoted_atom_escapes_out_of_range_keep_their_digits():
    # Past U+10FFFF, and past what chr() takes at all, the digits stand
    # for themselves.
    term = parse_term_text(r"'a\t\x110000\b\x" + "f" * 30 + r"\'")
    assert term.name == "a\t110000b" + "f" * 30


@pytest.mark.parametrize("text, name", [
    (r"a('\x41''b').", "A'b"),
    (r"a('\x41 b').", "A b"),
    (r"a('h\x41\t').", "hAt"),
    (r"a('\101\b').", "Ab"),
    (r"a('\8').", "8"),
    # The escape ends before the space, so ``\'`` is an escaped quote.
    (r"x('\x4 1\'b').", "\x04 1'b"),
])
def test_numeric_escapes_take_only_their_digits(text, name):
    # Hex digits after ``\x`` and octal digits after ``\``, then an
    # optional closing backslash, as SWI-Prolog reads them.
    program = program_from_source(source_from_text(text))
    assert program.syntax_diagnostics == []
    assert program.items[0].head.args[0].name == name
    assert_matches_reference(text)


@pytest.mark.parametrize("text, code", [
    (r"x(0'\x41).", 65),
    (r"x(0'\101).", 65),
    (r"x(0'\x41\).", 65),
    (r"x(0'\8).", 56),
    (r"x(0'\x).", 0),
    (r"x(0'\x110000 ).", 0x110000),
])
def test_character_code_escapes_take_the_quoted_atom_rule(text, code):
    # ``0'\`` reads its escape as a quoted atom does; a code past U+10FFFF
    # stays a number.
    program = program_from_source(source_from_text(text))
    assert program.syntax_diagnostics == []
    assert program.items[0].head.args[0].value == code
    assert_matches_reference(text)


@pytest.mark.parametrize("text, term", [
    ("p(f(:-)).", ("p", ("f", ":-"))),
    ("p(f(-, dynamic)).", ("p", ("f", "-", "dynamic"))),
    ("p([:- | ;]).", ("p", (".", ":-", ";"))),
    ("p(g(a, ?-)).", ("p", ("g", "a", "?-"))),
    ("p({:-}).", ("p", ("{}", ":-"))),
    ("p([a|-]).", ("p", (".", "a", "-"))),
    ("p(f(\\+)).", ("p", ("f", "\\+"))),
    ("p([], {}).", ("p", "[]", "{}")),
    ("p(()).", ("unexpected ')'", 4)),
    ("p(f(a :- b)).", ("expected closing parenthesis", 7)),
    ("p([a|b,c]).", ("expected closing bracket", 7)),
    ("p(f(;, '|', ,)).", ("unexpected ','", 13)),
    # ``,`` stays xfy 1000, so an operator atom before it stays an item.
    (":- op(500, xfx, ','). p(f(:-, b)).", ("p", ("f", ":-", "b"))),
    (":- op(500, xfx, ','). p(f(a, b)).", ("p", ("f", "a", "b"))),
    (":- op(100, xf, ','). p([:-, b]).",
     ("p", (".", ":-", (".", "b", "[]")))),
])
def test_operator_atom_before_a_closer_is_an_item(text, term):
    program = program_from_source(source_from_text(text))
    if program.syntax_diagnostics:
        [problem] = program.syntax_diagnostics
        assert (problem.message, problem.span.start_col) == term
    else:
        assert term_to_tuple(program.items[-1].head) == term
    assert_matches_reference(text)


def test_bar_reads_as_disjunction():
    body = parse_body("t :- a | b.\n")
    assert term_to_tuple(body) == (";", "a", "b")


def test_operator_atom_as_argument():
    term = parse_term_text("f(=, 2)")
    assert term_to_tuple(term) == ("f", "=", 2)


@pytest.mark.parametrize("type_", ["xf", "yf"])
def test_postfix_operators(type_):
    def read(body):
        return program_from_source(source_from_text(
            f":- op(100, {type_}, ++).\nt :- {body} .\n"))

    for body, reads in (("X ++", ("++", ("var", "X"))),
                        ("- X ++", ("-", ("++", ("var", "X")))),
                        ("(X ++) ++", ("++", ("++", ("var", "X"))))):
        program = read(body)
        assert not program.syntax_diagnostics, body
        assert term_to_tuple(program.items[1].body) == reads, body
    # An xf operand must be of lower priority than the operator.
    program = read("X ++ ++")
    if type_ == "yf":
        assert term_to_tuple(program.items[1].body) \
            == ("++", ("++", ("var", "X")))
    else:
        assert [d.rule_id for d in program.syntax_diagnostics] == ["E02"]


def test_priority_clash_is_syntax_error():
    program = program_from_source(source_from_text("t :- f(a :- b).\n"))
    assert len(program.syntax_diagnostics) == 1


def test_double_operator_is_syntax_error():
    program = program_from_source(source_from_text("t :- a = = b.\n"))
    assert program.syntax_diagnostics


def test_xfx_chain_rejected():
    program = program_from_source(source_from_text("t :- a = b = c.\n"))
    assert program.syntax_diagnostics


def test_xfy_operand_reads_same_priority_operators_as_a_whole_term():
    # ``foo b`` has priority 1000, too high for the left of ``bar`` (xfx
    # 1000), whether or not it follows a ``,``; a yfx ``baz`` takes it.  The
    # frozen reference reader takes ``a, foo b bar c`` as
    # ``a, bar(foo(b), c)``, so the differential test cannot pin the E02.
    ops = ":- op(1000, fx, foo).\n:- op(1000, xfx, bar).\n" \
        ":- op(1000, yfx, baz).\n"
    for body, reads in (("foo b bar c", False), ("a, foo b bar c", False),
                        ("foo b baz c", True), ("a, foo b baz c", True)):
        program = program_from_source(source_from_text(
            f"{ops}t :- {body}.\n"))
        want = [] if reads else [("E02", 4, 6 + body.index("bar"),
                                  "expected end of clause ('.')")]
        assert [(d.rule_id, d.span.start_line, d.span.start_col, d.message)
                for d in program.syntax_diagnostics] == want, body


def test_final_goal_descends_control_tail():
    body = parse_body("t :- a, (b -> c ; d).\n")
    assert term_to_tuple(final_goal(body)) == "d"


def test_canonical_round_trip():
    texts = [
        "foo(X, [a|T]) :- bar(X), baz(T).\n",
        "t :- X is 1 + 2 * 3, (a ; b -> c ; d).\n",
        "p('quoted atom', \"str\", 0'a, -7, 2.5).\n",
    ]
    for text in texts:
        program = program_from_source(source_from_text(text))
        clause = program.items[0]
        original = clause.head if clause.body is None else Compound(
            ":-", [clause.head, clause.body], clause.span)
        canonical = canonical_text(original) + " ."
        reread = parse_term_text(canonical)
        assert structurally_equal(original, reread), canonical


def test_every_token_consumed_or_skipped():
    text = "a(1).\nbroken(((.\nb(2).\n"
    src = source_from_text(text)
    tokens, _ = scan(src)
    program, _ = read_program(tokens)
    covered = []
    for clause in program.items:
        covered.append((clause.span.byte_start, clause.span.byte_end))
    # Both surviving clauses consume their exact token ranges.
    for start, end in covered:
        assert text[start:end].strip().endswith(".")


def test_precedence_fuzz_against_oracle():
    table = expression_table()
    rng = random.Random(99)
    for _ in range(60):
        tree, text, _ = gen_expression(rng, depth=4)
        tokens, lex_diags = scan(source_from_text(text + " ."))
        assert not lex_diags, text
        parsed = read_term(tokens, table)
        assert term_to_tuple(parsed) == tree, text
        assert shunting_yard(tokens, table) == tree, text


def test_default_table_matches_iso_core():
    table = OperatorTable.default()
    assert table.infix(":-").priority == 1200
    assert table.infix("-->").priority == 1200
    assert table.infix(";").type == "xfy"
    assert table.infix(";").priority == 1100
    assert table.infix("->").priority == 1050
    assert table.infix(",").priority == 1000
    assert table.infix("=").priority == 700
    assert table.infix("+").type == "yfx"
    assert table.infix("*").priority == 400
    assert table.infix("**").type == "xfx"
    assert table.prefix("-").type == "fy"
    assert table.prefix("-").priority == 200
    assert table.prefix("\\+").priority == 900


def _at_stack_depth(frames: int, function):
    """``function()`` called with ``frames`` more frames on the stack."""
    if frames == 0:
        return function()
    return _at_stack_depth(frames - 1, function)


def _check(text: str) -> list:
    src = source_from_text(text, "deep.pl")
    return run(src, program_from_source(src), Config())


def _nested_fact(levels: int, opener: str = "f(",
                 closer: str = ")") -> str:
    """A fact ``p(...)`` whose argument nests ``levels - 1`` times in
    ``opener`` and ``closer``: ``levels`` levels with ``p``'s own."""
    return "p(" + opener * (levels - 1) + "a" + closer * (levels - 1) \
        + ").\n"


def _nested_conjunction(levels: int) -> str:
    """A rule body of ``repeat`` and ``levels`` parenthesized conjunctions,
    one inside the other, ending in the cut that I02 looks for."""
    return "p :- repeat, " + "(a, " * levels + "!" + ")" * levels + ".\n"


#: Argument lists, lists, curly terms, list tails, prefix operators and
#: parentheses: one of each kind of pending frame that holds a level.
_NESTINGS = [("f(", ")"), ("[", "]"), ("{", "}"), ("[a|", "]"), ("- ", ""),
             ("(", ")")]


def _deep_texts(levels: int) -> list[str]:
    return [_nested_fact(levels, opener, closer)
            for opener, closer in _NESTINGS] + [_nested_conjunction(levels)]


def test_term_at_the_depth_limit_reads_at_any_stack_depth():
    for text in _deep_texts(MAX_TERM_DEPTH):
        shallow = _check(text)
        assert shallow == _at_stack_depth(500, lambda: _check(text))
        assert not [d for d in shallow if d.rule_id in ("E02", "E99")]


def test_term_past_the_depth_limit_is_one_error_at_the_clause_start():
    for text in _deep_texts(MAX_TERM_DEPTH + 1):
        program = program_from_source(source_from_text("q.\n" + text
                                                       + "r.\n"))
        assert [(d.rule_id, d.message, d.span.start_line, d.span.start_col)
                for d in program.syntax_diagnostics] == [
            ("E02", f"term nested deeper than {MAX_TERM_DEPTH} levels", 2, 1)]
        assert [c.indicator for c in program.items] == [("q", 0), ("r", 0)]


_CHAIN_OPERANDS = 100_000


@pytest.mark.parametrize("operator, frames", [
    pytest.param("+", 0, id="yfx_plus"),
    pytest.param(",", 0, id="xfy_comma"),
    pytest.param(",", 500, id="xfy_comma_at_stack_depth_500"),
    pytest.param(";", 0, id="xfy_semicolon"),
    pytest.param("->", 0, id="xfy_arrow")])
def test_long_operator_chain_reads(operator, frames):
    chain_text = f" {operator} ".join(["a"] * _CHAIN_OPERANDS)
    if operator == "+":
        text = f"p(X) :- X = {chain_text}.\n"
    else:
        text = f"p :- {chain_text}.\n"
    src = source_from_text(text)
    program = _at_stack_depth(frames, lambda: program_from_source(src))
    assert not program.syntax_diagnostics
    body = program.items[0].body
    chain = body.args[1] if operator == "+" else body
    # ``+`` (yfx) nests to the left; ``,``, ``;`` and ``->`` (xfy) to the
    # right.
    nested, operand = (0, 1) if operator == "+" else (1, 0)
    node, links = chain, 0
    while is_compound(node, operator, 2):
        assert is_atom(node.args[operand], "a")
        node = node.args[nested]
        links += 1
    assert is_atom(node, "a") and links == _CHAIN_OPERANDS - 1
    assert structurally_equal(chain, chain)
    assert not structurally_equal(chain, chain.args[nested])
    if operator == ",":
        # Every comma is an and-then link, followed by one space.
        found = run(src, program, Config(comma_style="structured"))
        assert not [d for d in found if d.rule_id in ("L07", "E99")]
