"""Layout rules L01-L12: raw-line, token and clause-shape checks.

L01-L03, L10 and L11 work from lines and tokens alone and therefore still
run when parsing failed; the remaining rules inspect parsed clauses.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from itertools import takewhile

from .diagnostics import Diagnostic, Severity, diag, rule, run_family
from .reader import (
    ClauseKind,
    Compound,
    Facts,
    Term,
    indicator_of,
    is_atom,
    is_compound,
    strip_module_qualifier,
)
from .source_model import CLOSER_KINDS, COMMENT_KINDS, Span, Token, TokenKind

_ATOM, _END = TokenKind.ATOM, TokenKind.END
_BLOCK_COMMENT = TokenKind.BLOCK_COMMENT
_NON_SPACE = re.compile(r"\S")
_TAB = re.compile("\t")


def _indent_width(text: str) -> int:
    """Columns of leading spaces and tabs, a tab counting as one."""
    return len(text) - len(text.lstrip(" \t"))


def check_layout(facts: Facts) -> list[Diagnostic]:
    return run_family("L", facts)


# -- L01 --------------------------------------------------------------------

@rule("L01")
def _l01_tabs(facts: Facts) -> Iterator[Diagnostic]:
    index = facts.index
    for line_no, text in enumerate(facts.src.line_texts, start=1):
        if "\t" not in text:
            continue
        for match in _TAB.finditer(text):
            byte = index.offsets[line_no - 1] + match.start()
            idx = bisect_right(index.non_code_starts, byte) - 1
            if idx >= 0 and byte < index.non_code_ends[idx]:
                continue  # inside a quoted item or a comment
            yield diag("L01", index.span_at(line_no, match.start() + 1),
                       "tab character used for indentation")
            break


# -- L02 --------------------------------------------------------------------

@rule("L02")
def _l02_indentation(facts: Facts) -> Iterator[Diagnostic]:
    index = facts.index
    texts = facts.src.line_texts
    unit = facts.cfg.indent_size
    for line_no, first in sorted(index.first_by_line.items()):
        if first.kind in COMMENT_KINDS:
            continue
        prev = index.prev_code_at_line.get(line_no)
        if prev is None or prev.kind is _END:
            continue  # a clause-start line; L06 owns it
        if first.kind in CLOSER_KINDS:
            continue  # closing brackets may align with their opener
        indent = _indent_width(texts[line_no - 1])
        depth = index.depth_at_line.get(line_no, 0)
        if indent < unit:
            yield diag("L02", index.span_at(line_no, 1, max(indent, 1)),
                       f"body line indented {indent} columns; expected at "
                       f"least one level of {unit}")
        elif depth == 0 and indent % unit != 0:
            yield diag("L02", index.span_at(line_no, 1, indent),
                       f"indentation of {indent} columns is not a multiple "
                       f"of {unit}")


# -- L03 --------------------------------------------------------------------

@rule("L03")
def _l03_line_length(facts: Facts) -> Iterator[Diagnostic]:
    index = facts.index
    limit = facts.cfg.max_line_length
    for line_no, text in enumerate(facts.src.line_texts, start=1):
        if len(text) > limit:
            yield diag("L03",
                       index.span_at(line_no, limit + 1, len(text) - limit),
                       f"line is {len(text)} characters long "
                       f"(limit is {limit})")


# -- L04 --------------------------------------------------------------------

@rule("L04")
def _l04_clause_length(facts: Facts) -> Iterator[Diagnostic]:
    cfg = facts.cfg
    for clause in facts.program.items:
        count = clause.span.end_line - clause.span.start_line + 1
        if count > cfg.clause_lines_warn:
            yield diag("L04", clause.span,
                       f"clause spans {count} lines "
                       f"(limit {cfg.clause_lines_warn})",
                       severity=Severity.WARNING, predicate=clause.indicator)
        elif count > cfg.clause_lines_info:
            yield diag("L04", clause.span,
                       f"clause spans {count} lines; consider splitting "
                       f"(guideline is {cfg.clause_lines_info})",
                       severity=Severity.INFO, predicate=clause.indicator)


# -- L05 --------------------------------------------------------------------

@rule("L05")
def _l05_subgoals(facts: Facts) -> Iterator[Diagnostic]:
    allowlist = facts.cfg.inline_goal_allowlist
    for clause, goals in zip(facts.program.items, facts.leaf_goals):
        by_line: dict[int, list[Term]] = {}
        for goal in goals:
            by_line.setdefault(goal.span.start_line, []).append(goal)
        for line_no in sorted(by_line):
            goals_on_line = by_line[line_no]
            if len(goals_on_line) < 2:
                continue
            if all(indicator_of(strip_module_qualifier(g)) in allowlist
                   for g in goals_on_line):
                continue
            yield diag("L05", goals_on_line[1].span,
                       f"{len(goals_on_line)} subgoals on one line; put each "
                       "subgoal on its own line", predicate=clause.indicator)


# -- L06 --------------------------------------------------------------------

@rule("L06")
def _l06_clause_start(facts: Facts) -> Iterator[Diagnostic]:
    for clause in facts.program.items:
        if clause.span.start_col != 1:
            yield diag("L06", clause.span,
                       "clause must begin on a new line at column 1 "
                       f"(found column {clause.span.start_col})",
                       predicate=clause.indicator)


# -- L07 --------------------------------------------------------------------

def _comma_is_at_eol(texts: list[str], comma: Token) -> bool:
    span = comma.span
    after = _NON_SPACE.search(texts[span.end_line - 1], span.end_col - 1)
    return after is None or after.group() == "%"


def _followed_by_single_space(content: str, comma: Token) -> bool:
    after = content[comma.span.byte_end:comma.span.byte_end + 2]
    return after[:1] == " " and after[1:] not in (" ", "\t")


def _goal_level_compounds(facts: Facts) -> list[Compound]:
    """Compound clause heads and non-control body goals, sorted by
    position.  They never overlap: no head or leaf goal holds another."""
    units: list[Compound] = []
    for clause, goals in zip(facts.program.items, facts.leaf_goals):
        if isinstance(clause.head, Compound):
            units.append(clause.head)
        for goal in goals:
            goal = strip_module_qualifier(goal)
            if isinstance(goal, Compound) \
                    and goal.name not in (";", "->", "*->", ","):
                units.append(goal)
    units.sort(key=lambda unit: unit.span.byte_start)
    return units


def _is_goal_level(units: list[Compound], starts: list[int],
                   arg_starts: list[list[int]], byte: int) -> bool:
    """True when ``byte`` lies inside a goal unit but in none of its
    arguments; ``starts`` are the units' start offsets and ``arg_starts``
    those of each unit's arguments."""
    # Units and arguments never overlap, so only the last one starting
    # before ``byte`` can hold it.
    idx = bisect_left(starts, byte) - 1
    if idx < 0 or byte >= units[idx].span.byte_end:
        return False
    arg = bisect_right(arg_starts[idx], byte) - 1
    return arg < 0 or byte >= units[idx].args[arg].span.byte_end


@rule("L07")
def _l07_commas(facts: Facts) -> Iterator[Diagnostic]:
    commas = facts.index.commas
    texts, content = facts.src.line_texts, facts.src.content
    if facts.cfg.comma_style == "simple":
        for comma in commas:
            if _followed_by_single_space(content, comma) \
                    or _comma_is_at_eol(texts, comma):
                continue
            yield diag("L07", comma.span,
                       "comma should be followed by exactly one space or a "
                       "newline")
        return

    # "structured" style: and-then and goal-argument commas take a space,
    # data-structure commas do not.
    units = _goal_level_compounds(facts)
    starts = [unit.span.byte_start for unit in units]
    arg_starts = [[arg.span.byte_start for arg in unit.args]
                  for unit in units]
    roles = facts.program.comma_roles
    for comma in commas:
        byte = comma.span.byte_start
        role = roles.get(byte)
        spaced = role == "and_then" or (
            role != "list" and _is_goal_level(units, starts, arg_starts, byte))
        at_eol = _comma_is_at_eol(texts, comma)
        has_space = content.startswith(" ", comma.span.byte_end)
        if spaced:
            if not at_eol and not has_space:
                yield diag("L07", comma.span,
                           "comma should be followed by a space")
        elif has_space and not at_eol:
            yield diag("L07", comma.span,
                       "no space after a comma inside a data structure")


# -- L08 --------------------------------------------------------------------

def _cluster_layout_problem(term: Compound) -> str | None:
    """What is wrong with the layout of the disjunction or if-then-else
    rooted at ``term``, if anything."""
    if term.span.start_line == term.span.end_line:
        return None
    if not term.parenthesized:
        shape = "disjunction" if term.name == ";" else "if-then-else"
        return f"multi-line {shape} must be wrapped in parentheses"
    if term.span.start_col != term.span.end_col - 1:
        return ("closing parenthesis must be directly below the opening "
                f"one (columns {term.span.start_col} and "
                f"{term.span.end_col - 1})")
    return None


@rule("L08")
def _l08_disjunctions(facts: Facts) -> Iterator[Diagnostic]:
    index = facts.index
    for line_no, last in index.last_code_by_line.items():
        if last.kind is _ATOM and last.text == ";":
            first = index.first_by_line.get(line_no)
            if first is not last:
                yield diag("L08", last.span,
                           "a semicolon at the end of a line can go "
                           "unnoticed; place it at the start of the next "
                           "line")

    # A cluster that is a direct argument of another one is laid out as
    # part of it.
    clusters = facts.term_index.clusters
    inner = {id(arg) for term, _ in clusters for arg in term.args}
    for term, clause in clusters:
        problem = id(term) not in inner and _cluster_layout_problem(term)
        if problem:
            yield diag("L08", term.span, problem, predicate=clause.indicator)


# -- L09 --------------------------------------------------------------------

@rule("L09")
def _l09_repeat_indent(facts: Facts) -> Iterator[Diagnostic]:
    texts = facts.src.line_texts
    for clause, sequences in facts.goal_sequences:
        for seq in sequences:
            for idx, goal in enumerate(seq):
                if not is_atom(goal, "repeat"):
                    continue
                cut_idx = next(
                    (j for j in range(idx + 1, len(seq))
                     if is_atom(seq[j], "!")), None)
                if cut_idx is None:
                    continue
                repeat_line = goal.span.start_line
                required = _indent_width(texts[repeat_line - 1]) \
                    + facts.cfg.indent_size
                prev_line = repeat_line
                for between in seq[idx + 1:cut_idx]:
                    line_no = between.span.start_line
                    if line_no == prev_line:
                        continue
                    prev_line = line_no
                    if _indent_width(texts[line_no - 1]) < required:
                        yield diag("L09", between.span,
                                   "goals between repeat and its cut should "
                                   f"be indented one extra level (column "
                                   f"{required + 1})",
                                   predicate=clause.indicator)


# -- L10 --------------------------------------------------------------------

@rule("L10")
def _l10_eol_comments(facts: Facts) -> Iterator[Diagnostic]:
    first_by_line = facts.index.first_by_line
    limit = facts.cfg.eol_comment_max
    for tok in facts.index.line_comments:
        if first_by_line.get(tok.span.start_line) is tok:
            continue
        length = len(tok.text.rstrip())
        if length > limit:
            yield diag("L10", tok.span,
                       f"end-of-line comment is {length} characters long; "
                       f"keep comments to the right of code under {limit} "
                       "characters or move them above")


# -- L11 --------------------------------------------------------------------

@rule("L11")
def _l11_header(facts: Facts) -> Iterator[Diagnostic]:
    program = facts.program
    if not program.items:
        return
    leading = list(takewhile(lambda t: t.kind in COMMENT_KINDS,
                             program.tokens))
    # Line comments end their lines: three in a row are on three lines.
    lines = [tok.span.start_line for tok in leading]
    if not any(t.kind is _BLOCK_COMMENT for t in leading) \
            and not any(b - a == 2 for a, b in zip(lines, lines[2:])):
        yield diag("L11", Span(1, 1, 1, 1, 0, 0),
                   "file should begin with a header comment (a block "
                   "comment or at least three comment lines)")

    block_starts = facts.index.block_starts
    for idx, clause in enumerate(program.items):
        if clause.kind != ClauseKind.DIRECTIVE:
            continue
        body = strip_module_qualifier(clause.body)
        if not is_compound(body, "module", 2):
            continue
        limit = len(facts.src.content)
        for later in program.items[idx + 1:]:
            if later.kind != ClauseKind.DIRECTIVE:
                limit = later.span.byte_start
                break
        first = bisect_left(block_starts, clause.span.byte_end)
        found = first < len(block_starts) and block_starts[first] < limit
        if not found:
            yield diag("L11", clause.span,
                       "expected an explanatory block comment after the "
                       "module directive")


# -- L12 --------------------------------------------------------------------

@rule("L12")
def _l12_vertical_space(facts: Facts) -> Iterator[Diagnostic]:
    items = facts.program.items
    texts = facts.src.line_texts
    for first, second in zip(items, items[1:]):
        # A head that is not callable (a number, a string, a variable)
        # names no predicate to space.
        if first.kind == ClauseKind.DIRECTIVE \
                or second.kind == ClauseKind.DIRECTIVE \
                or second.indicator is None:
            continue
        blanks = sum(
            1 for line_no in range(first.span.end_line + 1, second.first_line)
            if not texts[line_no - 1].strip())
        same = first.indicator == second.indicator
        if same and blanks > 0:
            name, arity = second.indicator
            yield diag("L12", second.span,
                       f"remove blank lines between clauses of "
                       f"{name}/{arity}", predicate=second.indicator)
        elif not same and blanks == 0:
            name, arity = second.indicator
            yield diag("L12", second.span,
                       f"expected a blank line before the first clause of "
                       f"{name}/{arity}", predicate=second.indicator)
