"""Independent oracles the test suite checks the implementation against.

The shunting-yard expression parser here shares nothing with the reader's
recursive operator-precedence algorithm: it works iteratively with explicit
operand/operator stacks.  The singleton counter works straight off the token
stream rather than the parsed term tree.
"""

from __future__ import annotations

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
