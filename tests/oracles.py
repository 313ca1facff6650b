"""Independent oracles the test suite checks the implementation against.

The shunting-yard expression parser here shares nothing with the reader's
recursive operator-precedence algorithm: it works iteratively with explicit
operand/operator stacks.  The singleton counter works straight off the token
stream rather than the parsed term tree.  The reference scanner walks the
text one character at a time with its own line index, where the tokenizer
matches one compiled pattern per token and counts lines as it goes.  The
reference JSON renderer builds the document as dicts and lists and hands it
to ``json.dumps``, where ``render_json`` writes the text itself.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right

from prolint.diagnostics import Diagnostic
from prolint.reader import (
    Atom,
    Compound,
    Float,
    Integer,
    OperatorTable,
    Str,
    Term,
    Variable,
)
from prolint.source_model import Token, TokenKind


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


def attach_comments_reference(tokens: list[Token], clause_spans: list):
    """Comment attachment by brute force: every comment is checked against
    every token and every clause span.

    Returns ``(token, kind, clause_index)`` per comment in source order, with
    ``kind`` one of ``"trailing"``, ``"preceding"``, ``"free"``.
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

    blocks: list[list[Token]] = []
    for comment in comments:
        if code_before_on_line(comment):
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
