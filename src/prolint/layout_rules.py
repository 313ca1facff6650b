"""Layout rules L01-L12: raw-line, token and clause-shape checks.

L01-L03, L10 and L11 work from lines and tokens alone and therefore still
run when parsing failed; the remaining rules inspect parsed clauses.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right

from .diagnostics import Config, Diagnostic, REGISTRY, Severity
from .reader import (
    Atom,
    Clause,
    ClauseKind,
    CommentAttachment,
    Compound,
    Program,
    Term,
    goal_sequences,
    is_atom,
    is_compound,
    leaf_goals,
    strip_module_qualifier,
)
from .source_model import (
    COMMENT_KINDS,
    NON_CODE_KINDS,
    SourceFile,
    Span,
    Token,
    TokenKind,
)

_OPENERS = {TokenKind.OPEN_PAREN, TokenKind.OPEN_BRACKET,
            TokenKind.OPEN_BRACE}
_CLOSERS = {TokenKind.CLOSE_PAREN, TokenKind.CLOSE_BRACKET,
            TokenKind.CLOSE_BRACE}


def _diag(rule_id: str, span: Span, message: str,
          severity: Severity | None = None, suggestion: str | None = None,
          predicate: tuple[str, int] | None = None) -> Diagnostic:
    return Diagnostic(
        rule_id=rule_id,
        severity=severity or REGISTRY[rule_id].default_severity,
        span=span,
        message=message,
        suggestion=suggestion,
        predicate=predicate,
    )


class _Lines:
    """Shared lexical context for the line-oriented rules."""

    def __init__(self, src: SourceFile, tokens: list[Token]) -> None:
        self.src = src
        self.tokens = tokens
        self.code_tokens = [t for t in tokens
                            if t.kind not in COMMENT_KINDS]
        self.texts = self._line_texts(src.content)
        self.offsets = self._line_offsets(src.content)
        self.first_by_line: dict[int, Token] = {}
        for tok in tokens:
            self.first_by_line.setdefault(tok.span.start_line, tok)
        self.last_code_by_line: dict[int, Token] = {}
        for tok in self.code_tokens:
            self.last_code_by_line[tok.span.start_line] = tok
        # Bracket depth at the start of each line and the previous code
        # token, recorded at each line's first token.
        self.depth_at_line: dict[int, int] = {}
        self.prev_code_at_line: dict[int, Token | None] = {}
        depth = 0
        prev: Token | None = None
        for tok in self.code_tokens:
            line = tok.span.start_line
            if line not in self.depth_at_line:
                self.depth_at_line[line] = depth
                self.prev_code_at_line[line] = prev
            if tok.kind in _OPENERS:
                depth += 1
            elif tok.kind in _CLOSERS:
                depth = max(0, depth - 1)
            prev = tok
        # Byte ranges whose contents are data or prose, not layout; sorted
        # and non-overlapping, as the tokens are.
        non_code = [t for t in tokens if t.kind in NON_CODE_KINDS]
        self.non_code_starts = [t.span.byte_start for t in non_code]
        self.non_code_ends = [t.span.byte_end for t in non_code]

    @staticmethod
    def _line_texts(content: str) -> list[str]:
        if content == "":
            return []
        pieces = content.split("\n")
        if pieces and pieces[-1] == "":
            pieces.pop()
        return [p[:-1] if p.endswith("\r") else p for p in pieces]

    @staticmethod
    def _line_offsets(content: str) -> list[int]:
        offsets = [0]
        for idx, ch in enumerate(content):
            if ch == "\n":
                offsets.append(idx + 1)
        return offsets

    def inside_non_code(self, byte: int) -> bool:
        idx = bisect_right(self.non_code_starts, byte) - 1
        return idx >= 0 and byte < self.non_code_ends[idx]

    def span_at(self, line: int, col: int, width: int = 1) -> Span:
        byte = self.offsets[line - 1] + col - 1
        return Span(line, col, line, col + width, byte, byte + width)

    def rest_of_line(self, byte: int) -> str:
        end = self.src.content.find("\n", byte)
        end = len(self.src.content) if end < 0 else end
        return self.src.content[byte:end]


def check_layout(src: SourceFile, tokens: list[Token], program: Program,
                 cfg: Config) -> list[Diagnostic]:
    ctx = _Lines(src, tokens)
    diags: list[Diagnostic] = []
    clauses = [c for c in program.items]
    diags += _l01_tabs(ctx, cfg)
    diags += _l02_indentation(ctx, cfg)
    diags += _l03_line_length(ctx, cfg)
    diags += _l04_clause_length(clauses, cfg)
    diags += _l05_subgoals(clauses, cfg)
    diags += _l06_clause_start(clauses, cfg)
    diags += _l07_commas(ctx, program, cfg)
    diags += _l08_disjunctions(ctx, clauses, cfg)
    diags += _l09_repeat_indent(ctx, clauses, cfg)
    diags += _l10_eol_comments(ctx, cfg)
    diags += _l11_header(ctx, program, cfg)
    diags += _l12_vertical_space(ctx, program, cfg)
    return diags


# -- L01 --------------------------------------------------------------------

def _l01_tabs(ctx: _Lines, cfg: Config) -> list[Diagnostic]:
    diags = []
    for line_no, text in enumerate(ctx.texts, start=1):
        if "\t" not in text:
            continue
        for match in re.finditer("\t", text):
            byte = ctx.offsets[line_no - 1] + match.start()
            if ctx.inside_non_code(byte):
                continue
            diags.append(_diag(
                "L01", ctx.span_at(line_no, match.start() + 1),
                "tab character used for indentation"))
            break
    return diags


# -- L02 --------------------------------------------------------------------

def _l02_indentation(ctx: _Lines, cfg: Config) -> list[Diagnostic]:
    diags = []
    unit = cfg.indent_size
    for line_no, first in sorted(ctx.first_by_line.items()):
        if first.kind in COMMENT_KINDS:
            continue
        if first.span.start_line != line_no:
            continue  # continuation of a multi-line token
        prev = ctx.prev_code_at_line.get(line_no)
        if prev is None or prev.kind == TokenKind.END:
            continue  # a clause-start line; L06 owns it
        if first.kind in _CLOSERS:
            continue  # closing brackets may align with their opener
        indent = ctx.src.lines[line_no - 1].indent_width
        depth = ctx.depth_at_line.get(line_no, 0)
        if indent < unit:
            diags.append(_diag(
                "L02", ctx.span_at(line_no, 1, max(indent, 1)),
                f"body line indented {indent} columns; expected at least "
                f"one level of {unit}"))
        elif depth == 0 and indent % unit != 0:
            diags.append(_diag(
                "L02", ctx.span_at(line_no, 1, indent),
                f"indentation of {indent} columns is not a multiple "
                f"of {unit}"))
    return diags


# -- L03 --------------------------------------------------------------------

def _l03_line_length(ctx: _Lines, cfg: Config) -> list[Diagnostic]:
    diags = []
    for line_no, text in enumerate(ctx.texts, start=1):
        if len(text) > cfg.max_line_length:
            diags.append(_diag(
                "L03",
                ctx.span_at(line_no, cfg.max_line_length + 1,
                            len(text) - cfg.max_line_length),
                f"line is {len(text)} characters long "
                f"(limit is {cfg.max_line_length})"))
    return diags


# -- L04 --------------------------------------------------------------------

def _l04_clause_length(clauses: list[Clause], cfg: Config) -> list[Diagnostic]:
    diags = []
    for clause in clauses:
        count = clause.span.end_line - clause.span.start_line + 1
        if count > cfg.clause_lines_warn:
            diags.append(_diag(
                "L04", clause.span,
                f"clause spans {count} lines (limit {cfg.clause_lines_warn})",
                severity=Severity.WARNING, predicate=clause.indicator))
        elif count > cfg.clause_lines_info:
            diags.append(_diag(
                "L04", clause.span,
                f"clause spans {count} lines; consider splitting "
                f"(guideline is {cfg.clause_lines_info})",
                severity=Severity.INFO, predicate=clause.indicator))
    return diags


# -- L05 --------------------------------------------------------------------

def _goal_indicator(goal: Term) -> tuple[str, int] | None:
    goal = strip_module_qualifier(goal)
    if isinstance(goal, Atom):
        return (goal.name, 0)
    if isinstance(goal, Compound):
        return (goal.name, len(goal.args))
    return None


def _l05_subgoals(clauses: list[Clause], cfg: Config) -> list[Diagnostic]:
    diags = []
    for clause in clauses:
        if clause.body is None:
            continue
        by_line: dict[int, list[Term]] = {}
        for goal in leaf_goals(clause.body):
            by_line.setdefault(goal.span.start_line, []).append(goal)
        for line_no in sorted(by_line):
            goals = by_line[line_no]
            if len(goals) < 2:
                continue
            if all(_goal_indicator(g) in cfg.inline_goal_allowlist
                   for g in goals):
                continue
            diags.append(_diag(
                "L05", goals[1].span,
                f"{len(goals)} subgoals on one line; put each subgoal "
                "on its own line", predicate=clause.indicator))
    return diags


# -- L06 --------------------------------------------------------------------

def _l06_clause_start(clauses: list[Clause], cfg: Config) -> list[Diagnostic]:
    diags = []
    for clause in clauses:
        if clause.span.start_col != 1:
            diags.append(_diag(
                "L06", clause.span,
                "clause must begin on a new line at column 1 "
                f"(found column {clause.span.start_col})",
                predicate=clause.indicator))
    return diags


# -- L07 --------------------------------------------------------------------

def _comma_is_at_eol(ctx: _Lines, comma: Token) -> bool:
    rest = ctx.rest_of_line(comma.span.byte_end)
    stripped = rest.strip()
    return stripped == "" or stripped.startswith("%")


def _followed_by_single_space(ctx: _Lines, comma: Token) -> bool:
    content = ctx.src.content
    byte = comma.span.byte_end
    if byte >= len(content) or content[byte] != " ":
        return False
    return byte + 1 >= len(content) or content[byte + 1] not in " \t"


def _goal_level_compounds(clauses: list[Clause]) -> list[Compound]:
    units: list[Compound] = []
    for clause in clauses:
        if isinstance(clause.head, Compound):
            units.append(clause.head)
        if clause.body is not None:
            for goal in leaf_goals(clause.body):
                goal = strip_module_qualifier(goal)
                if isinstance(goal, Compound) \
                        and goal.name not in (";", "->", "*->", ","):
                    units.append(goal)
    return units


def _l07_commas(ctx: _Lines, program: Program, cfg: Config) -> list[Diagnostic]:
    diags = []
    commas = [t for t in ctx.code_tokens if t.kind == TokenKind.COMMA]
    if cfg.comma_style == "simple":
        for comma in commas:
            if _comma_is_at_eol(ctx, comma) \
                    or _followed_by_single_space(ctx, comma):
                continue
            diags.append(_diag(
                "L07", comma.span,
                "comma should be followed by exactly one space or a "
                "newline"))
        return diags

    # "structured" style: and-then and goal-argument commas take a space,
    # data-structure commas do not.
    goal_units = _goal_level_compounds(
        [c for c in program.items])
    def classify(comma: Token) -> str:
        role = program.comma_roles.get(comma.span.byte_start)
        if role == "and_then":
            return "spaced"
        if role == "list":
            return "data"
        byte = comma.span.byte_start
        for unit in goal_units:
            if unit.span.byte_start < byte < unit.span.byte_end and \
                    not any(a.span.byte_start <= byte < a.span.byte_end
                            for a in unit.args):
                return "spaced"
        return "data"

    for comma in commas:
        kind = classify(comma)
        at_eol = _comma_is_at_eol(ctx, comma)
        content = ctx.src.content
        has_space = comma.span.byte_end < len(content) \
            and content[comma.span.byte_end] == " "
        if kind == "spaced":
            if not at_eol and not has_space:
                diags.append(_diag(
                    "L07", comma.span,
                    "comma should be followed by a space"))
        else:
            if has_space and not at_eol:
                diags.append(_diag(
                    "L07", comma.span,
                    "no space after a comma inside a data structure"))
    return diags


# -- L08 --------------------------------------------------------------------

def _l08_disjunctions(ctx: _Lines, clauses: list[Clause],
                      cfg: Config) -> list[Diagnostic]:
    diags = []
    for line_no, last in ctx.last_code_by_line.items():
        if last.kind == TokenKind.ATOM and last.text == ";":
            first = ctx.first_by_line.get(line_no)
            if first is not last:
                diags.append(_diag(
                    "L08", last.span,
                    "a semicolon at the end of a line can go unnoticed; "
                    "place it at the start of the next line"))

    def check_root(term: Compound, clause: Clause) -> None:
        if term.span.start_line == term.span.end_line:
            return
        shape = "disjunction" if term.name == ";" else "if-then-else"
        if not term.parenthesized:
            diags.append(_diag(
                "L08", term.span,
                f"multi-line {shape} must be wrapped in parentheses",
                predicate=clause.indicator))
        elif term.span.start_col != term.span.end_col - 1:
            diags.append(_diag(
                "L08", term.span,
                "closing parenthesis must be directly below the opening "
                f"one (columns {term.span.start_col} and "
                f"{term.span.end_col - 1})", predicate=clause.indicator))

    for clause in clauses:
        if clause.body is None:
            continue
        stack: list[tuple[Term, bool]] = [(clause.body, False)]
        while stack:
            term, in_cluster = stack.pop()
            if not isinstance(term, Compound):
                continue
            is_cluster = len(term.args) == 2 \
                and term.name in (";", "->", "*->")
            if is_cluster and not in_cluster:
                check_root(term, clause)
            for arg in term.args:
                stack.append((arg, is_cluster))
    return diags


# -- L09 --------------------------------------------------------------------

def _l09_repeat_indent(ctx: _Lines, clauses: list[Clause],
                       cfg: Config) -> list[Diagnostic]:
    diags = []
    for clause in clauses:
        if clause.body is None:
            continue
        for seq in goal_sequences(clause.body):
            for idx, goal in enumerate(seq):
                if not is_atom(goal, "repeat"):
                    continue
                cut_idx = next(
                    (j for j in range(idx + 1, len(seq))
                     if is_atom(seq[j], "!")), None)
                if cut_idx is None:
                    continue
                repeat_line = goal.span.start_line
                required = ctx.src.lines[repeat_line - 1].indent_width \
                    + cfg.indent_size
                prev_line = repeat_line
                for between in seq[idx + 1:cut_idx]:
                    line_no = between.span.start_line
                    if line_no == prev_line:
                        continue
                    prev_line = line_no
                    indent = ctx.src.lines[line_no - 1].indent_width
                    if indent < required:
                        diags.append(_diag(
                            "L09", between.span,
                            "goals between repeat and its cut should be "
                            f"indented one extra level (column "
                            f"{required + 1})", predicate=clause.indicator))
    return diags


# -- L10 --------------------------------------------------------------------

def _l10_eol_comments(ctx: _Lines, cfg: Config) -> list[Diagnostic]:
    diags = []
    for tok in ctx.tokens:
        if tok.kind != TokenKind.LINE_COMMENT:
            continue
        first = ctx.first_by_line.get(tok.span.start_line)
        if first is tok:
            continue
        length = len(tok.text.rstrip())
        if length > cfg.eol_comment_max:
            diags.append(_diag(
                "L10", tok.span,
                f"end-of-line comment is {length} characters long; keep "
                f"comments to the right of code under "
                f"{cfg.eol_comment_max} characters or move them above"))
    return diags


# -- L11 --------------------------------------------------------------------

def _l11_header(ctx: _Lines, program: Program, cfg: Config) -> list[Diagnostic]:
    diags = []
    if not program.items:
        return diags
    first_code = ctx.code_tokens[0] if ctx.code_tokens else None
    leading = [t for t in ctx.tokens if t.kind in COMMENT_KINDS
               and (first_code is None
                    or t.span.byte_end <= first_code.span.byte_start)]
    qualifies = any(t.kind == TokenKind.BLOCK_COMMENT for t in leading)
    if not qualifies:
        run = 0
        prev_line = None
        for tok in leading:
            if tok.kind != TokenKind.LINE_COMMENT:
                continue
            if prev_line is not None and tok.span.start_line == prev_line + 1:
                run += 1
            else:
                run = 1
            prev_line = tok.span.start_line
            if run >= 3:
                qualifies = True
                break
    if not qualifies:
        diags.append(_diag(
            "L11", Span(1, 1, 1, 1, 0, 0),
            "file should begin with a header comment (a block comment or "
            "at least three comment lines)"))

    block_starts = [t.span.byte_start for t in ctx.tokens
                    if t.kind == TokenKind.BLOCK_COMMENT]
    for idx, clause in enumerate(program.items):
        if clause.kind != ClauseKind.DIRECTIVE:
            continue
        body = strip_module_qualifier(clause.body)
        if not is_compound(body, "module", 2):
            continue
        limit = len(ctx.src.content)
        for later in program.items[idx + 1:]:
            if later.kind != ClauseKind.DIRECTIVE:
                limit = later.span.byte_start
                break
        first = bisect_left(block_starts, clause.span.byte_end)
        found = first < len(block_starts) and block_starts[first] < limit
        if not found:
            diags.append(_diag(
                "L11", clause.span,
                "expected an explanatory block comment after the module "
                "directive"))
    return diags


# -- L12 --------------------------------------------------------------------

def _l12_vertical_space(ctx: _Lines, program: Program,
                        cfg: Config) -> list[Diagnostic]:
    diags = []
    preceding_start: dict[int, int] = {}
    for attached in program.comments:
        if attached.kind == CommentAttachment.PRECEDING \
                and attached.clause_index is not None:
            line = attached.token.span.start_line
            idx = attached.clause_index
            preceding_start[idx] = min(preceding_start.get(idx, line), line)

    for idx in range(len(program.items) - 1):
        first, second = program.items[idx], program.items[idx + 1]
        if first.kind == ClauseKind.DIRECTIVE \
                or second.kind == ClauseKind.DIRECTIVE:
            continue
        effective_start = preceding_start.get(idx + 1,
                                              second.span.start_line)
        blanks = sum(
            1 for line_no in range(first.span.end_line + 1, effective_start)
            if ctx.src.lines[line_no - 1].is_blank)
        same = first.indicator == second.indicator
        if same and blanks > 0:
            name, arity = second.indicator
            diags.append(_diag(
                "L12", second.span,
                f"remove blank lines between clauses of {name}/{arity}",
                predicate=second.indicator))
        elif not same and blanks == 0:
            name, arity = second.indicator
            diags.append(_diag(
                "L12", second.span,
                f"expected a blank line before the first clause of "
                f"{name}/{arity}", predicate=second.indicator))
    return diags
