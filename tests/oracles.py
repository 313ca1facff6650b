"""Independent oracles the test suite checks the implementation against.

The shunting-yard expression parser here shares no code with the reader:
it reduces an operand stack under an operator stack, where the reader runs
one loop over a stack of pending frames (an operand awaited by an operator,
an argument list, a list, a curly term, a parenthesized term).  The
reference reader is the recursive-descent parser that the loop replaced,
one Python call per grammar level, frozen here with its own operator table.
The singleton counter works straight off the token
stream rather than the parsed term tree.  The reference scanner walks the
text one character at a time with its own line index, where the tokenizer
matches one compiled pattern per token and counts lines as it goes.  The
reference JSON renderer builds the document as dicts and lists and hands it
to ``json.dumps``, where ``render_json`` writes the text itself.  The
reference format check formats the whole program and compares the text
character by character, where ``check_format`` renders one unit at a time
and stops at the first unit that differs from the source.  The reference
token index makes one pass over the tokens for each of its fields, where
``reader.TokenIndex`` collects them all in one.  The reference term index
lists each clause's subterms and filters them once per field, finds the
outermost disjunctions with a stack of its own and reads every clause's
goal sequences, where ``reader.TermIndex`` makes one walk.  The reference
renderer fills its cache with three Python calls per subterm and renders a
compound through calls that ask for each child again, where the
formatter's ``_Renderer.fill`` renders leaves inline in one walk and reads
each compound's children from the cache.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from itertools import chain

from prolint.diagnostics import Config, Diagnostic
from prolint.formatter import format_program
from prolint.reader import (
    Atom,
    Compound,
    Float,
    Integer,
    OperatorTable,
    Program,
    Str,
    Term,
    Variable,
    goal_sequences,
    is_atom,
    is_compound,
    subterms,
)
from prolint.source_model import (
    COMMENT_KINDS,
    SYMBOL_CHARS,
    NON_CODE_KINDS,
    SourceFile,
    Span,
    Token,
    TokenKind,
)


def term_to_tuple(term: Term):
    if isinstance(term, Variable):
        return ("var", term.name)
    if isinstance(term, Atom):
        return term.name
    if isinstance(term, Integer):
        return term.value
    if isinstance(term, Float):
        return term.value
    if isinstance(term, Str):
        return ("str", term.lexeme)
    return (term.name,) + tuple(term_to_tuple(a) for a in term.args)


def canonical_text(term: Term) -> str:
    """A term in canonical prefix notation, with no operators."""
    if isinstance(term, Variable):
        return term.name
    if isinstance(term, Atom):
        return term.text
    if isinstance(term, (Integer, Float)):
        return repr(term.value)
    if isinstance(term, Str):
        return term.lexeme
    args = ", ".join(canonical_text(a) for a in term.args)
    name = term.name if term.name.isidentifier() else f"'{term.name}'"
    return f"{name}({args})"


class OracleError(Exception):
    pass


def shunting_yard(tokens: list[Token], table: OperatorTable):
    """Parse an operator expression iteratively.

    Supports operands (atoms, integers, variables), parentheses, prefix and
    infix operators.  Raises OracleError on anything else; the fuzz
    generator only produces well-formed expressions.
    """
    operands: list = []
    operators: list[tuple[str, str, int]] = []  # (kind, name, priority)

    def reduce_once() -> None:
        kind, name, _priority = operators.pop()
        if kind == "prefix":
            arg = operands.pop()
            operands.append((name, arg))
        else:
            right = operands.pop()
            left = operands.pop()
            operands.append((name, left, right))

    def reduce_while(limit: int) -> None:
        while operators and operators[-1][0] != "(" \
                and operators[-1][2] <= limit:
            reduce_once()

    expect_operand = True
    for token in tokens:
        if token.kind == TokenKind.END:
            break
        if token.kind == TokenKind.OPEN_PAREN:
            operators.append(("(", "(", 0))
            expect_operand = True
        elif token.kind == TokenKind.CLOSE_PAREN:
            while operators and operators[-1][0] != "(":
                reduce_once()
            if not operators:
                raise OracleError("unbalanced parenthesis")
            operators.pop()
            expect_operand = False
        elif token.kind == TokenKind.INTEGER:
            operands.append(token.value)
            expect_operand = False
        elif token.kind == TokenKind.VARIABLE:
            operands.append(("var", token.text))
            expect_operand = False
        elif token.kind in (TokenKind.ATOM, TokenKind.COMMA):
            name = "," if token.kind == TokenKind.COMMA else token.text
            if expect_operand:
                prefix = table.prefix(name)
                if prefix is not None:
                    operators.append(("prefix", name, prefix.priority))
                else:
                    operands.append(name)
                    expect_operand = False
            else:
                infix = table.infix(name)
                if infix is None:
                    raise OracleError(f"not an infix operator: {name}")
                left_max = infix.priority if infix.type == "yfx" \
                    else infix.priority - 1
                reduce_while(left_max)
                operators.append(("infix", name, infix.priority))
                expect_operand = True
        else:
            raise OracleError(f"unsupported token {token.kind}")
    while operators:
        if operators[-1][0] == "(":
            raise OracleError("unbalanced parenthesis")
        reduce_once()
    if len(operands) != 1:
        raise OracleError(f"bad reduction: {operands}")
    return operands[0]


def singleton_names_from_tokens(tokens: list[Token],
                                byte_start: int, byte_end: int) -> set[str]:
    """Named singletons of one clause, by brute-force token counting."""
    counts: dict[str, int] = {}
    for token in tokens:
        if token.kind != TokenKind.VARIABLE:
            continue
        if not byte_start <= token.span.byte_start < byte_end:
            continue
        counts[token.text] = counts.get(token.text, 0) + 1
    return {name for name, count in counts.items()
            if count == 1 and not name.startswith("_")}


def token_index_reference(src: SourceFile, tokens: list[Token]) -> dict:
    """The fields of ``reader.TokenIndex``, each from its own pass over the
    tokens, as the rules built them one filter at a time."""
    code_tokens = [t for t in tokens if t.kind not in COMMENT_KINDS]
    first_by_line: dict[int, Token] = {}
    for tok in tokens:
        first_by_line.setdefault(tok.span.start_line, tok)
    last_code_by_line: dict[int, Token] = {}
    for tok in code_tokens:
        last_code_by_line[tok.span.start_line] = tok
    depth_at_line: dict[int, int] = {}
    prev_code_at_line: dict[int, Token | None] = {}
    depth = 0
    prev: Token | None = None
    for tok in code_tokens:
        line = tok.span.start_line
        if line not in depth_at_line:
            depth_at_line[line] = depth
            prev_code_at_line[line] = prev
        if tok.kind in _BRACKET_OPENERS:
            depth += 1
        elif tok.kind in _BRACKET_CLOSERS:
            depth = max(0, depth - 1)
        prev = tok
    non_code = [t for t in tokens if t.kind in NON_CODE_KINDS]
    return {
        "offsets": src.line_starts,
        "first_by_line": first_by_line,
        "last_code_by_line": last_code_by_line,
        "depth_at_line": depth_at_line,
        "prev_code_at_line": prev_code_at_line,
        "non_code_starts": [t.span.byte_start for t in non_code],
        "non_code_ends": [t.span.byte_end for t in non_code],
        "commas": [t for t in code_tokens if t.kind is TokenKind.COMMA],
        "line_comments": [t for t in tokens
                          if t.kind == TokenKind.LINE_COMMENT],
        "block_starts": [t.span.byte_start for t in tokens
                         if t.kind == TokenKind.BLOCK_COMMENT],
        "atoms": _first_occurrences(
            t for t in tokens if t.kind is TokenKind.ATOM),
        "variables": _first_occurrences(
            t for t in tokens if t.kind is TokenKind.VARIABLE),
    }


def term_index_reference(program: Program) -> tuple[dict, list, list]:
    """The fields of ``reader.TermIndex`` as the rules built them before
    it, each from the subterm lists of every clause; the clusters that L08
    reports, from its own stack; and the clauses with a ``repeat`` among
    their goals, from the goal sequences of every clause."""
    items = program.items
    terms = [(subterms(c.head) if c.head is not None else [],
              subterms(c.body) if c.body is not None else []) for c in items]
    variables = []
    for head_terms, body_terms in terms:
        occurrences: dict[str, list[Variable]] = {}
        for term in chain(head_terms, body_terms):
            if isinstance(term, Variable) and term.name != "_":
                occurrences.setdefault(term.name, []).append(term)
        variables.append(occurrences)
    every = [t for head_terms, body_terms in terms
             for t in chain(head_terms, body_terms)]
    fields = {
        "variables": variables,
        "numbers": [t for t in every if isinstance(t, (Integer, Float))],
        "cells": [t for t in every if is_compound(t, ".", 2)],
        "clusters": [(t, clause) for clause, (_, body) in zip(items, terms)
                     for t in body if is_compound(t, arity=2)
                     and t.name in (";", "->", "*->")],
        "repeats": [clause for clause, (_, body) in zip(items, terms)
                    if any(is_atom(t, "repeat") for t in body)],
    }
    outermost = []
    for clause in items:
        stack = [(clause.body, False)] if clause.body is not None else []
        while stack:
            term, in_cluster = stack.pop()
            if not isinstance(term, Compound):
                continue
            is_cluster = len(term.args) == 2 \
                and term.name in (";", "->", "*->")
            if is_cluster and not in_cluster:
                outermost.append(term)
            stack.extend((arg, is_cluster) for arg in term.args)
    repeat_goals = [clause for clause in items if clause.body is not None
                    and any(is_atom(goal, "repeat")
                            for seq in goal_sequences(clause.body)
                            for goal in seq)]
    return fields, outermost, repeat_goals


_BRACKET_OPENERS = {TokenKind.OPEN_PAREN, TokenKind.OPEN_BRACKET,
                    TokenKind.OPEN_BRACE}
_BRACKET_CLOSERS = {TokenKind.CLOSE_PAREN, TokenKind.CLOSE_BRACKET,
                    TokenKind.CLOSE_BRACE}


def _first_occurrences(tokens) -> dict[str, Token]:
    seen: dict[str, Token] = {}
    for tok in tokens:
        if tok.text not in seen:
            seen[tok.text] = tok
    return seen


def attach_comments_reference(tokens: list[Token], clause_spans: list):
    """Comment attachment by brute force: every comment is checked against
    every token and every clause span.

    Returns ``(token, kind, clause_index)`` per comment in source order, with
    ``kind`` one of ``"trailing"``, ``"interior"``, ``"preceding"``,
    ``"free"``.  A comment that is not trailing and starts inside a clause
    span is interior to that clause and never joins a block.
    """
    comment_kinds = (TokenKind.LINE_COMMENT, TokenKind.BLOCK_COMMENT)
    code_tokens = [t for t in tokens if t.kind not in comment_kinds]
    comments = [t for t in tokens if t.kind in comment_kinds]

    def clause_at(byte: int):
        for idx, span in enumerate(clause_spans):
            if span.byte_start <= byte <= span.byte_end:
                return idx
        return None

    def clause_starting_after(comment: Token):
        for idx, span in enumerate(clause_spans):
            if span.byte_start >= comment.span.byte_end and \
                    span.start_line in (comment.span.end_line,
                                        comment.span.end_line + 1):
                return idx
        return None

    def code_before_on_line(comment: Token) -> list[Token]:
        return [t for t in code_tokens
                if t.span.end_line == comment.span.start_line
                and t.span.byte_end <= comment.span.byte_start]

    def clause_holding(comment: Token):
        for idx, span in enumerate(clause_spans):
            if span.byte_start <= comment.span.byte_start < span.byte_end:
                return idx
        return None

    blocks: list[list[Token]] = []
    for comment in comments:
        if code_before_on_line(comment) or clause_holding(comment) is not None:
            continue
        if blocks and blocks[-1][-1].span.end_line + 1 \
                >= comment.span.start_line:
            blocks[-1].append(comment)
        else:
            blocks.append([comment])
    preceding: dict[int, int] = {}
    for block in blocks:
        idx = clause_starting_after(block[-1])
        if idx is not None:
            for comment in block:
                preceding[comment.span.byte_start] = idx

    result = []
    for comment in comments:
        trailing_code = code_before_on_line(comment)
        if trailing_code:
            result.append((comment, "trailing",
                           clause_at(trailing_code[-1].span.byte_start)))
        elif (holder := clause_holding(comment)) is not None:
            result.append((comment, "interior", holder))
        elif comment.span.byte_start in preceding:
            result.append((comment, "preceding",
                           preceding[comment.span.byte_start]))
        else:
            result.append((comment, "free", None))
    return result


def scan_reference(text: str, path: str = "<string>"):
    """The tokenizer as a character-at-a-time loop, frozen as the reference
    for ``source_model.scan``.

    Returns ``(tokens, diagnostics)`` as plain tuples: each token is
    ``(kind, text, span, preceded_by_newline, preceding_spaces, value)``
    with ``kind`` a ``TokenKind`` value string, each diagnostic is
    ``(rule_id, severity, span, message, suggestion, predicate, path)``,
    and each span is
    ``(start_line, start_col, end_line, end_col, byte_start, byte_end)``.
    """
    symbol_chars = frozenset("#$&*+-./:<=>?@^~\\")
    single_kinds = {"(": "open_paren", ")": "close_paren",
                    "[": "open_bracket", "]": "close_bracket",
                    "{": "open_brace", "}": "close_brace",
                    ",": "comma", "|": "bar"}
    n = len(text)
    line_starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
    tokens: list[tuple] = []
    diagnostics: list[tuple] = []

    def position(offset: int) -> tuple[int, int]:
        line = bisect_right(line_starts, offset)
        return line, offset - line_starts[line - 1] + 1

    def make_span(start: int, end: int) -> tuple:
        sl, sc = position(start)
        el, ec = position(end) if end > start else (sl, sc)
        return (sl, sc, el, ec, start, end)

    def emit(kind: str, start: int, end: int, value=None) -> None:
        spaces = 0
        k = start
        while k > 0 and text[k - 1] == " ":
            spaces += 1
            k -= 1
        prev_end = tokens[-1][2][5] if tokens else 0
        tokens.append((kind, text[start:end], make_span(start, end),
                       "\n" in text[prev_end:start], spaces, value))

    def error(start: int, end: int, message: str) -> None:
        diagnostics.append(("E01", "error", make_span(start, end), message,
                            None, None, path))

    def scan_quoted(start: int, quote: str, kind: str, what: str):
        i = start + 1
        while i < n:
            ch = text[i]
            if ch == quote:
                if i + 1 < n and text[i + 1] == quote:
                    i += 2
                    continue
                emit(kind, start, i + 1)
                return i + 1
            if ch == "\\":
                i += 1
                if i >= n:
                    break
                if text[i] in "x01234567":
                    i += 1
                    while i < n and text[i] not in "\\\n" + quote:
                        i += 1
                    if i < n and text[i] == "\\":
                        i += 1
                else:
                    i += 1
            else:
                i += 1
        emit("error", start, n)
        error(start, n, what)
        return None

    def scan_char_code(start: int) -> int:
        i = start + 2
        if i >= n:
            emit("error", start, n)
            error(start, n, "unterminated character code")
            return n
        ch = text[i]
        if ch == "'":
            i += 1
            if i < n and text[i] == "'":
                i += 1
            emit("integer", start, i, ord("'"))
            return i
        if ch == "\\":
            i += 1
            value = ord("\\")
            if i < n:
                esc = text[i]
                simple = {"a": 7, "b": 8, "f": 12, "n": 10, "r": 13,
                          "t": 9, "v": 11, "\\": 92, "'": 39, '"': 34,
                          "`": 96, "0": 0}
                if esc == "x" or esc.isdigit():
                    j = i + 1
                    while j < n and text[j] not in "\\ \t\n":
                        j += 1
                    digits = text[i + 1:j] if esc == "x" else text[i:j]
                    try:
                        value = int(digits, 16 if esc == "x" else 8)
                    except ValueError:
                        value = 0
                    i = j + 1 if j < n and text[j] == "\\" else j
                else:
                    value = simple.get(esc, ord(esc))
                    i += 1
            emit("integer", start, i, value)
            return i
        emit("integer", start, i + 1, ord(ch))
        return i + 1

    def scan_number(start: int) -> int:
        based = re.compile(r"0[xX][0-9a-fA-F]+|0[oO][0-7]+|0[bB][01]+")
        m = based.match(text, start)
        if m:
            emit("integer", start, m.end(), int(m.group(0), 0))
            return m.end()
        if text.startswith("0'", start):
            return scan_char_code(start)
        i = start
        while i < n and text[i].isdecimal():
            i += 1
        is_float = False
        if i + 1 < n and text[i] == "." and text[i + 1].isdecimal():
            is_float = True
            i += 1
            while i < n and text[i].isdecimal():
                i += 1
        if i < n and text[i] in "eE":
            j = i + 1
            if j < n and text[j] in "+-":
                j += 1
            if j < n and text[j].isdecimal():
                is_float = True
                i = j
                while i < n and text[i].isdecimal():
                    i += 1
        lexeme = text[start:i]
        if is_float:
            emit("float", start, i, float(lexeme))
        elif i - start > 640:
            # Longer than the least digit limit ``PYTHONINTMAXSTRDIGITS``
            # can set: an error, whatever the interpreter's setting.
            emit("punctuation", start, i)
            error(start, i, "integer has more than 640 digits")
        else:
            emit("integer", start, i, int(lexeme))
        return i

    i = 0
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        start = i
        if ch == "%":
            end = text.find("\n", start)
            i = n if end < 0 else end
            emit("line_comment", start, i)
        elif ch == "/" and text.startswith("/*", start):
            close = text.find("*/", start + 2)
            if close < 0:
                emit("error", start, n)
                error(start, n, "unterminated block comment")
                break
            i = close + 2
            emit("block_comment", start, i)
        elif ch in "'\"`":
            kind = "quoted_atom" if ch == "'" else "string"
            what = {"'": "unterminated quoted atom",
                    '"': "unterminated string",
                    "`": "unterminated back-quoted string"}[ch]
            i = scan_quoted(start, ch, kind, what)
            if i is None:
                break
        elif ch.isdecimal():
            i = scan_number(start)
        elif ch.isalpha() or ch == "_":
            i = start + 1
            while i < n and (text[i] == "_" or text[i].isalnum()):
                i += 1
            var = ch == "_" or ch.isupper() or ch.istitle()
            emit("variable" if var else "atom", start, i)
        elif ch in single_kinds:
            i += 1
            emit(single_kinds[ch], start, i)
        elif ch in "!;":
            i += 1
            emit("atom", start, i)
        elif ch in symbol_chars:
            i = start + 1
            while i < n and text[i] in symbol_chars:
                i += 1
            nxt = text[i] if i < n else ""
            if text[start:i] == "." and (nxt == "" or nxt in " \t\r\n%"):
                emit("end", start, i)
            else:
                emit("atom", start, i)
        else:
            i += 1
            emit("punctuation", start, i)
            error(start, i, f"unexpected character {ch!r}")
    return tokens, diagnostics


def render_json_reference(diags: list[Diagnostic]) -> str:
    """The ``check --format json`` document as ``json.dumps`` writes it."""
    entries = []
    counts = {"error": 0, "warning": 0, "info": 0, "hint": 0}
    for d in diags:
        counts[d.severity.label] += 1
        entries.append({
            "path": d.path,
            "line": d.span.start_line,
            "col": d.span.start_col,
            "end_line": d.span.end_line,
            "end_col": d.span.end_col,
            "rule": d.rule_id,
            "severity": d.severity.label,
            "message": d.message,
            "suggestion": d.suggestion,
            "predicate": (f"{d.predicate[0]}/{d.predicate[1]}"
                          if d.predicate else None),
        })
    document = {"diagnostics": entries, "summary": counts}
    return json.dumps(document, indent=2) + "\n"


def check_format_reference(src: SourceFile, program: Program,
                           cfg: Config | None = None
                           ) -> tuple[bool, Span | None]:
    """``check_format`` as a compare of the whole formatted text."""
    formatted = format_program(program, cfg)
    original = src.content
    if formatted == original:
        return True, None
    limit = min(len(formatted), len(original))
    offset = next((i for i in range(limit)
                   if formatted[i] != original[i]), limit)
    line = original.count("\n", 0, offset) + 1
    col = offset - (original.rfind("\n", 0, offset) + 1) + 1
    return False, Span(line, col, line, col + 1, offset, offset + 1)


class _ReferenceRenderer:
    """The formatter's renderer before it rendered in one walk, frozen
    without the step that drops an operator's operand entries once used, so
    that the cache keeps every subterm."""

    def __init__(self, ops: OperatorTable) -> None:
        self.ops = ops
        self.rendered: dict[int, tuple[str, int]] = {}

    def render(self, term: Term, max_prec: int,
               force_parens: bool = False) -> str:
        entry = self.rendered.get(id(term))
        if entry is None:
            self._fill(term)
            entry = self.rendered[id(term)]
        text, priority = entry
        if force_parens or priority > max_prec:
            return f"({text})"
        return text

    def _fill(self, term: Term) -> None:
        rendered = self.rendered
        order: list[Compound] = []
        stack = [term]
        while stack:
            node = stack.pop()
            key = id(node)
            if key in rendered:
                continue
            if not isinstance(node, Compound):
                rendered[key] = self._render(node)
                continue
            order.append(node)
            if node.name == "." and len(node.args) == 2:
                while is_compound(node, ".", 2):
                    stack.append(node.args[0])
                    node = node.args[1]
                stack.append(node)
            else:
                stack += node.args
        for node in reversed(order):
            rendered[id(node)] = self._render(node)

    def _max_priority(self, name: str) -> int:
        priorities = [d.priority
                      for d in (self.ops.prefix(name), self.ops.infix(name),
                                self.ops.postfix(name)) if d]
        return max(priorities, default=0)

    def _render(self, term: Term) -> tuple[str, int]:
        if isinstance(term, Variable):
            return term.name, 0
        if isinstance(term, (Integer, Float)):
            return (term.lexeme or str(term.value)), 0
        if isinstance(term, Str):
            return (term.lexeme or f'"{term.text}"'), 0
        if isinstance(term, Atom):
            return term.text, 0 if term.quoted \
                else self._max_priority(term.name)
        return self._render_compound(term)

    def _render_compound(self, term: Compound) -> tuple[str, int]:
        name, args = term.name, term.args
        if name == "." and len(args) == 2:
            return self._render_list(term), 0
        if name == "{}" and len(args) == 1:
            return "{" + self.render(args[0], 1200) + "}", 0
        if len(args) == 2:
            definition = self.ops.infix(name)
            if definition:
                p = definition.priority
                left_max = p if definition.type == "yfx" else p - 1
                right_max = p if definition.type == "xfy" else p - 1
                force_left = (is_compound(args[0], ",", 2)
                              and args[0].parenthesized
                              and name in (";", "->", "*->")) or (
                    isinstance(args[0], Atom) and not args[0].quoted
                    and (self.ops.infix(args[0].name) is not None
                         or self.ops.postfix(args[0].name) is not None))
                force_right = (is_compound(args[1], ",", 2)
                               and args[1].parenthesized
                               and name in (";", "->", "*->"))
                left = self.render(args[0], left_max, force_left)
                right = self.render(args[1], right_max, force_right)
                if name == ",":
                    return f"{left}, {right}", p
                if self._renders_tight(name, args, left, right):
                    return f"{left}{name}{right}", p
                return f"{left} {name} {right}", p
        if len(args) == 1:
            definition = self.ops.prefix(name)
            if definition:
                arg_max = definition.priority \
                    - (1 if definition.type == "fx" else 0)
                return (f"{name} {self.render(args[0], arg_max)}",
                        definition.priority)
            definition = self.ops.postfix(name)
            if definition:
                arg_max = definition.priority \
                    - (1 if definition.type == "xf" else 0)
                return (f"{self.render(args[0], arg_max)} {name}",
                        definition.priority)
        rendered = ", ".join([self.render(arg, 999) for arg in args])
        return f"{term.functor_lexeme or name}({rendered})", 0

    def _renders_tight(self, name: str, args: list, left: str,
                       right: str) -> bool:
        if name == "/":
            if not (isinstance(args[0], Atom)
                    and isinstance(args[1], Integer)):
                return False
        elif name != ":":
            return False
        return left[-1] not in SYMBOL_CHARS \
            and right[0] not in SYMBOL_CHARS

    def _render_list(self, term: Compound) -> str:
        elements = []
        node: Term = term
        while is_compound(node, ".", 2):
            elements.append(self.render(node.args[0], 999))
            node = node.args[1]
        if is_atom(node, "[]"):
            return "[" + ", ".join(elements) + "]"
        return "[" + ", ".join(elements) + "|" + self.render(node, 999) + "]"


def render_reference(terms: list[Term],
                     ops: OperatorTable) -> dict[int, tuple[str, int]]:
    """``id(subterm) -> (text, priority)`` for each of ``terms`` and every
    subterm under it, a list's inner cons cells excepted, under ``ops``."""
    renderer = _ReferenceRenderer(ops)
    for term in terms:
        renderer.render(term, 1200)
    return renderer.rendered


# ---------------------------------------------------------------------------
# Reference reader
# ---------------------------------------------------------------------------

#: The default operators, as (priority, type, names).
_REFERENCE_OPERATORS = [
    (1200, "xfx", (":-", "-->")),
    (1200, "fx", (":-", "?-")),
    (1150, "fx", ("dynamic", "discontiguous", "initialization",
                  "meta_predicate", "module_transparent", "multifile",
                  "public", "thread_local", "table")),
    (1100, "xfy", (";", "|")),
    (1050, "xfy", ("->", "*->")),
    (1000, "xfy", (",",)),
    (900, "fy", ("\\+",)),
    (700, "xfx", ("=", "\\=", "==", "\\==", "@<", "@>", "@=<", "@>=",
                  "=..", "is", "=:=", "=\\=", "<", ">", "=<", ">=")),
    (500, "yfx", ("+", "-", "/\\", "\\/", "xor")),
    (400, "yfx", ("*", "/", "//", "mod", "rem", "div", "<<", ">>")),
    (200, "xfx", ("**",)),
    (200, "xfy", ("^", ":")),
    (200, "fy", ("-", "+", "\\")),
]


class _ReferenceOp:
    def __init__(self, priority: int, type_: str) -> None:
        self.priority = priority
        self.type = type_


class _ReferenceOps:
    """At most one prefix and one infix-or-postfix definition per name."""

    def __init__(self) -> None:
        self.prefix: dict[str, _ReferenceOp] = {}
        self.infix: dict[str, _ReferenceOp] = {}
        self.postfix: dict[str, _ReferenceOp] = {}
        for priority, type_, names in _REFERENCE_OPERATORS:
            for name in names:
                self.add(priority, type_, name)

    def add(self, priority: int, type_: str, name: str) -> None:
        if type_ not in ("xfx", "xfy", "yfx", "fy", "fx", "xf", "yf") \
                or not 0 <= priority <= 1200:
            return
        # ISO: ``|`` is an operator only infix at priority 1001 or more.
        if name == "|" and priority and (type_ not in ("xfx", "xfy", "yfx")
                                         or priority < 1001):
            return
        # ISO: ``,`` stays xfy 1000.
        if name == "," and (priority, type_) != (1000, "xfy"):
            return
        definition = _ReferenceOp(priority, type_)
        if type_ in ("fy", "fx"):
            if priority == 0:
                self.prefix.pop(name, None)
            else:
                self.prefix[name] = definition
        elif type_ in ("xf", "yf"):
            self.infix.pop(name, None)
            if priority == 0:
                self.postfix.pop(name, None)
            else:
                self.postfix[name] = definition
        else:
            self.postfix.pop(name, None)
            if priority == 0:
                self.infix.pop(name, None)
            else:
                self.infix[name] = definition

    def max_priority(self, name: str) -> int:
        return max((d.priority for d in (self.prefix.get(name),
                                         self.infix.get(name),
                                         self.postfix.get(name)) if d),
                   default=0)


class _ReferenceSyntaxError(Exception):
    def __init__(self, token: Token | None, message: str) -> None:
        super().__init__(message)
        self.token = token
        self.message = message


_REFERENCE_OPERAND_KINDS = (
    TokenKind.VARIABLE, TokenKind.INTEGER, TokenKind.FLOAT, TokenKind.STRING,
    TokenKind.OPEN_PAREN, TokenKind.OPEN_BRACKET, TokenKind.OPEN_BRACE,
    TokenKind.ATOM, TokenKind.QUOTED_ATOM)
_REFERENCE_CLOSERS = (
    TokenKind.CLOSE_PAREN, TokenKind.CLOSE_BRACKET, TokenKind.CLOSE_BRACE,
    TokenKind.COMMA, TokenKind.BAR, TokenKind.END)


def _reference_merge(a: Span, b: Span) -> Span:
    return Span(a.start_line, a.start_col, b.end_line, b.end_col,
                a.byte_start, b.byte_end)


def _reference_unquote(text: str) -> str:
    escapes = {"a": "\a", "b": "\b", "f": "\f", "n": "\n", "r": "\r",
               "t": "\t", "v": "\v", "\\": "\\", "'": "'", '"': '"',
               "`": "`", "0": "\0"}
    quote = text[0]
    body = text[1:-1]
    out: list[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == quote and i + 1 < len(body) and body[i + 1] == quote:
            out.append(quote)
            i += 2
        elif ch == "\\" and i + 1 < len(body):
            esc = body[i + 1]
            if esc == "\n":
                i += 2
            elif esc == "x" or "0" <= esc <= "7":
                # Hex or octal digits, then an optional closing backslash.
                j = k = i + 2 if esc == "x" else i + 1
                allowed = "0123456789abcdefABCDEF" if esc == "x" \
                    else "01234567"
                while k < len(body) and body[k] in allowed:
                    k += 1
                digits = body[j:k]
                try:
                    out.append(chr(int(digits, 16 if esc == "x" else 8)))
                except (ValueError, OverflowError):
                    out.append(digits)
                i = k + 1 if k < len(body) and body[k] == "\\" else k
            else:
                out.append(escapes.get(esc, esc))
                i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


class _ReferenceParser:
    """Recursive-descent operator-precedence parsing, one Python call per
    grammar level; deep enough input raises ``RecursionError``."""

    def __init__(self, tokens: list[Token], ops: _ReferenceOps,
                 comma_roles: dict[int, str]) -> None:
        self.tokens = [t for t in tokens
                       if t.kind not in (TokenKind.LINE_COMMENT,
                                         TokenKind.BLOCK_COMMENT)]
        self.pos = 0
        self.ops = ops
        self.comma_roles = comma_roles

    def peek(self, ahead: int = 0) -> Token | None:
        idx = self.pos + ahead
        return self.tokens[idx] if idx < len(self.tokens) else None

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: TokenKind, what: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            raise _ReferenceSyntaxError(tok, f"expected {what}")
        return self.advance()

    def parse_term(self, max_prec: int) -> Term:
        term, _ = self.parse_term_prec(max_prec)
        return term

    def _infix_name(self) -> str | None:
        tok = self.peek()
        if tok is None:
            return None
        if tok.kind == TokenKind.ATOM:
            return tok.text
        if tok.kind == TokenKind.COMMA:
            return ","
        if tok.kind == TokenKind.BAR:
            return "|"
        return None

    def parse_term_prec(self, max_prec: int) -> tuple[Term, int]:
        left, left_prec = self.parse_primary(max_prec)
        return self._continue_expr(left, left_prec, max_prec)

    def _continue_expr(self, left: Term, left_prec: int,
                       max_prec: int) -> tuple[Term, int]:
        while True:
            name = self._infix_name()
            if name is None:
                break
            applied = False
            inf = self.ops.infix.get(name)
            if inf is not None:
                left_max = inf.priority if inf.type == "yfx" \
                    else inf.priority - 1
                if inf.priority <= max_prec and left_prec <= left_max:
                    if inf.type == "xfy":
                        left = self._parse_xfy_chain(left, inf.priority)
                    else:
                        op_tok = self.advance()
                        right, _ = self.parse_term_prec(inf.priority - 1)
                        functor = ";" if name == "|" else name
                        left = Compound(functor, [left, right],
                                        _reference_merge(left.span,
                                                         right.span),
                                        functor_span=op_tok.span)
                    left_prec = inf.priority
                    applied = True
            if not applied:
                post = self.ops.postfix.get(name)
                if post is not None:
                    left_max = (post.priority if post.type == "yf"
                                else post.priority - 1)
                    if post.priority <= max_prec and left_prec <= left_max:
                        op_tok = self.advance()
                        left = Compound(name, [left],
                                        _reference_merge(left.span,
                                                         op_tok.span),
                                        functor_span=op_tok.span)
                        left_prec = post.priority
                        applied = True
            if not applied:
                break
        return left, left_prec

    def _parse_xfy_chain(self, first: Term, priority: int) -> Term:
        operands = [first]
        functors: list[tuple[str, Token]] = []
        while True:
            op_name = self._infix_name()
            inf = self.ops.infix.get(op_name) if op_name else None
            if inf is None or inf.priority != priority or inf.type != "xfy":
                break
            op_tok = self.advance()
            if op_tok.kind == TokenKind.COMMA:
                self.comma_roles[op_tok.span.byte_start] = "and_then"
            functors.append((";" if op_name == "|" else op_name, op_tok))
            operand, operand_prec = self.parse_primary(priority)
            operand, operand_prec = self._continue_expr(
                operand, operand_prec, priority - 1)
            operands.append(operand)
        # Resetting the last operand's priority to 0 lets an fx prefix term
        # of the chain's priority take a same-priority xfx operator here,
        # which ``reader._parse`` refuses, as both readers do outside a
        # chain.  No corpus, generated file or token soup defines such a
        # prefix operator.
        last, last_prec = operands[-1], 0
        follow = self._infix_name()
        follow_inf = self.ops.infix.get(follow) if follow else None
        if follow_inf is not None and follow_inf.priority == priority \
                and follow_inf.type != "xfy":
            last, _ = self._continue_expr(last, last_prec, priority)
            operands[-1] = last
        result = operands[-1]
        for index in range(len(operands) - 2, -1, -1):
            name, op_tok = functors[index]
            result = Compound(name, [operands[index], result],
                              _reference_merge(operands[index].span,
                                               result.span),
                              functor_span=op_tok.span)
        return result

    def parse_primary(self, max_prec: int) -> tuple[Term, int]:
        tok = self.peek()
        if tok is None:
            raise _ReferenceSyntaxError(None, "unexpected end of input")
        kind = tok.kind
        if kind == TokenKind.VARIABLE:
            self.advance()
            return Variable(tok.text, tok.span), 0
        if kind == TokenKind.INTEGER:
            self.advance()
            return Integer(tok.value, tok.span, lexeme=tok.text), 0
        if kind == TokenKind.FLOAT:
            self.advance()
            return Float(tok.value, tok.span, lexeme=tok.text), 0
        if kind == TokenKind.STRING:
            self.advance()
            return Str(tok.text[1:-1], tok.span, lexeme=tok.text), 0
        if kind == TokenKind.OPEN_PAREN:
            open_tok = self.advance()
            inner = self.parse_term(1200)
            close_tok = self.expect(TokenKind.CLOSE_PAREN,
                                    "closing parenthesis")
            inner.span = _reference_merge(open_tok.span, close_tok.span)
            if isinstance(inner, (Atom, Compound)):
                inner.parenthesized = True
            return inner, 0
        if kind == TokenKind.OPEN_BRACKET:
            return self.parse_list(), 0
        if kind == TokenKind.OPEN_BRACE:
            return self.parse_curly(), 0
        if kind in (TokenKind.ATOM, TokenKind.QUOTED_ATOM):
            return self.parse_atom_primary(max_prec)
        if kind == TokenKind.ERROR:
            raise _ReferenceSyntaxError(tok, "cannot parse past lexical error")
        raise _ReferenceSyntaxError(tok, f"unexpected {tok.text!r}")

    def parse_atom_primary(self, max_prec: int) -> tuple[Term, int]:
        tok = self.advance()
        quoted = tok.kind == TokenKind.QUOTED_ATOM
        name = _reference_unquote(tok.text) if quoted else tok.text
        nxt = self.peek()
        if (nxt is not None and nxt.kind == TokenKind.OPEN_PAREN
                and nxt.span.byte_start == tok.span.byte_end):
            self.advance()
            args = [self.parse_arg()]
            while self.peek() is not None \
                    and self.peek().kind == TokenKind.COMMA:
                comma = self.advance()
                self.comma_roles[comma.span.byte_start] = "arg"
                args.append(self.parse_arg())
            close = self.expect(TokenKind.CLOSE_PAREN, "closing parenthesis")
            return Compound(name, args, _reference_merge(tok.span, close.span),
                            functor_span=tok.span,
                            functor_lexeme=tok.text), 0
        if not quoted:
            if (name == "-" and nxt is not None
                    and nxt.kind in (TokenKind.INTEGER, TokenKind.FLOAT)
                    and nxt.span.byte_start == tok.span.byte_end):
                self.advance()
                span = _reference_merge(tok.span, nxt.span)
                lexeme = "-" + nxt.text
                if nxt.kind == TokenKind.INTEGER:
                    return Integer(-nxt.value, span, lexeme=lexeme), 0
                return Float(-nxt.value, span, lexeme=lexeme), 0
            pre = self.ops.prefix.get(name)
            if (pre is not None and nxt is not None
                    and nxt.kind in _REFERENCE_OPERAND_KINDS
                    and not self._atom_stands_alone(nxt)):
                if pre.priority > max_prec:
                    raise _ReferenceSyntaxError(
                        tok, f"prefix operator {name!r} (priority "
                        f"{pre.priority}) exceeds the allowed priority "
                        f"{max_prec} here; add parentheses")
                arg_max = pre.priority - (1 if pre.type == "fx" else 0)
                arg, _ = self.parse_term_prec(arg_max)
                return Compound(name, [arg],
                                _reference_merge(tok.span, arg.span),
                                functor_span=tok.span), pre.priority
        return Atom(name, tok.span, quoted=quoted, lexeme=tok.text), 0

    def _atom_stands_alone(self, nxt: Token) -> bool:
        if nxt.kind != TokenKind.ATOM:
            return False
        if nxt.text in self.ops.prefix:
            return False
        if nxt.text not in self.ops.infix \
                and nxt.text not in self.ops.postfix:
            return False
        follower = self.peek(1)
        return follower is not None \
            and follower.kind in _REFERENCE_OPERAND_KINDS

    def parse_arg(self) -> Term:
        tok = self.peek()
        if (tok is not None and tok.kind == TokenKind.ATOM
                and self.ops.max_priority(tok.text) > 999):
            nxt = self.peek(1)
            if nxt is not None and nxt.kind in _REFERENCE_CLOSERS:
                self.advance()
                return Atom(tok.text, tok.span, lexeme=tok.text)
        return self.parse_term(999)

    def parse_list(self) -> Term:
        open_tok = self.advance()
        nxt = self.peek()
        if nxt is not None and nxt.kind == TokenKind.CLOSE_BRACKET:
            close = self.advance()
            return Atom("[]", _reference_merge(open_tok.span, close.span),
                        lexeme="[]")
        elements = [self.parse_arg()]
        while self.peek() is not None \
                and self.peek().kind == TokenKind.COMMA:
            comma = self.advance()
            self.comma_roles[comma.span.byte_start] = "list"
            elements.append(self.parse_arg())
        tail: Term | None = None
        if self.peek() is not None and self.peek().kind == TokenKind.BAR:
            self.advance()
            tail = self.parse_arg()
        close = self.expect(TokenKind.CLOSE_BRACKET, "closing bracket")
        full_span = _reference_merge(open_tok.span, close.span)
        result: Term = tail if tail is not None else Atom(
            "[]", Span(*close.span), lexeme="[]")
        for element in reversed(elements):
            result = Compound(".", [element, result],
                              _reference_merge(element.span, close.span))
        result.span = full_span
        return result

    def parse_curly(self) -> Term:
        open_tok = self.advance()
        nxt = self.peek()
        if nxt is not None and nxt.kind == TokenKind.CLOSE_BRACE:
            close = self.advance()
            return Atom("{}", _reference_merge(open_tok.span, close.span),
                        lexeme="{}")
        inner = self.parse_term(1200)
        close = self.expect(TokenKind.CLOSE_BRACE, "closing brace")
        return Compound("{}", [inner],
                        _reference_merge(open_tok.span, close.span))


def _reference_strip_module(goal: Term) -> Term:
    while isinstance(goal, Compound) and goal.name == ":" \
            and len(goal.args) == 2:
        goal = goal.args[1]
    return goal


def _reference_list_items(node: Term) -> list[Term]:
    items = []
    while isinstance(node, Compound) and node.name == "." \
            and len(node.args) == 2:
        items.append(node.args[0])
        node = node.args[1]
    return items


def read_program_reference(tokens: list[Token]) -> dict:
    """The recursive-descent reader, frozen as the reference for
    ``reader.read_program``.

    Returns a dict: ``clauses`` as ``(kind, head, body, span, neck_span)``
    with ``kind`` a ``ClauseKind`` value string, ``comma_roles``,
    ``exports``, ``module_name`` and ``errors`` as ``(message, span)`` per
    E02.  A term nested too deeply for the interpreter's stack raises
    ``RecursionError``.
    """
    ops = _ReferenceOps()
    result = {"clauses": [], "comma_roles": {}, "exports": None,
              "module_name": None, "errors": []}
    parser = _ReferenceParser(tokens, ops, result["comma_roles"])
    while parser.peek() is not None:
        tok = parser.peek()
        if tok.kind == TokenKind.ERROR:
            break
        if tok.kind == TokenKind.END:
            parser.advance()
            result["errors"].append(
                ("clause terminator '.' with no clause before it", tok.span))
            continue
        start_tok = tok
        try:
            term = parser.parse_term(1200)
            end_tok = parser.expect(TokenKind.END, "end of clause ('.')")
        except _ReferenceSyntaxError as problem:
            anchor = problem.token.span if problem.token else start_tok.span
            result["errors"].append((problem.message, anchor))
            before = parser.pos
            while parser.peek() is not None \
                    and parser.peek().kind not in (TokenKind.END,
                                                   TokenKind.ERROR):
                parser.advance()
            if parser.peek() is not None \
                    and parser.peek().kind == TokenKind.END:
                parser.advance()
            if parser.pos == before and parser.peek() is not None:
                parser.advance()
            continue
        span = _reference_merge(start_tok.span, end_tok.span)
        neck = term.functor_span if isinstance(term, Compound) else None
        if isinstance(term, Compound) and term.name == ":-" \
                and len(term.args) == 2:
            clause = ("rule", term.args[0], term.args[1], span, neck)
        elif isinstance(term, Compound) and term.name == ":-" \
                and len(term.args) == 1:
            clause = ("directive", None, term.args[0], span, neck)
        elif isinstance(term, Compound) and term.name == "-->" \
                and len(term.args) == 2:
            clause = ("grammar_rule", term.args[0], term.args[1], span, neck)
        else:
            clause = ("fact", term, None, span, None)
        if clause[0] == "directive":
            goal = _reference_strip_module(clause[2])
            if isinstance(goal, Compound) and goal.name == "op" \
                    and len(goal.args) == 3:
                prio, type_, names = goal.args
                if isinstance(prio, Integer) and isinstance(type_, Atom):
                    if isinstance(names, Atom) and names.name != "[]":
                        names = [names]
                    else:
                        names = _reference_list_items(names)
                    for name in names:
                        if isinstance(name, Atom):
                            ops.add(prio.value, type_.name, name.name)
            if isinstance(goal, Compound) and goal.name == "module" \
                    and len(goal.args) == 2:
                mod, exports = goal.args
                if isinstance(mod, Atom):
                    result["module_name"] = mod.name
                result["exports"] = [
                    (entry.args[0].name, entry.args[1].value)
                    for entry in _reference_list_items(exports)
                    if isinstance(entry, Compound) and entry.name == "/"
                    and len(entry.args) == 2
                    and isinstance(entry.args[0], Atom)
                    and isinstance(entry.args[1], Integer)]
        result["clauses"].append(clause)
    return result
