"""Raw source handling: file loading, line metrics, and the Prolog tokenizer.

Everything downstream (reader, lint rules, formatter) works from the token
stream produced here.  Comments are tokens, never discarded, so that layout
rules can inspect them and the formatter can put them back.
"""

from __future__ import annotations

import enum
import os
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

from .diagnostics import Diagnostic, Severity


class Span(NamedTuple):
    """A contiguous source region.

    Line and column numbers are 1-based; ``end_col`` is exclusive.
    ``byte_start``/``byte_end`` are offsets into ``SourceFile.content`` such
    that ``content[byte_start:byte_end]`` is exactly the spanned text.
    """

    start_line: int
    start_col: int
    end_line: int
    end_col: int
    byte_start: int
    byte_end: int


class TokenKind(enum.Enum):
    ATOM = "atom"
    QUOTED_ATOM = "quoted_atom"
    VARIABLE = "variable"
    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"
    PUNCTUATION = "punctuation"
    OPEN_PAREN = "open_paren"
    CLOSE_PAREN = "close_paren"
    OPEN_BRACKET = "open_bracket"
    CLOSE_BRACKET = "close_bracket"
    OPEN_BRACE = "open_brace"
    CLOSE_BRACE = "close_brace"
    COMMA = "comma"
    BAR = "bar"
    END = "end"
    LINE_COMMENT = "line_comment"
    BLOCK_COMMENT = "block_comment"
    ERROR = "error"

    # Members are singletons, so identity hashing agrees with equality and
    # keeps set and dict lookups of kinds out of Python-level code.
    __hash__ = object.__hash__


#: Kinds whose text is data or prose rather than code layout.
NON_CODE_KINDS = frozenset(
    {
        TokenKind.QUOTED_ATOM,
        TokenKind.STRING,
        TokenKind.LINE_COMMENT,
        TokenKind.BLOCK_COMMENT,
    }
)

COMMENT_KINDS = frozenset({TokenKind.LINE_COMMENT, TokenKind.BLOCK_COMMENT})
OPENER_KINDS = frozenset({TokenKind.OPEN_PAREN, TokenKind.OPEN_BRACKET,
                          TokenKind.OPEN_BRACE})
CLOSER_KINDS = frozenset({TokenKind.CLOSE_PAREN, TokenKind.CLOSE_BRACKET,
                          TokenKind.CLOSE_BRACE})


@dataclass(slots=True)
class Token:
    """One lexical unit.

    ``text`` is the verbatim lexeme (quotes and escapes as written), and
    ``span`` locates it in the file; the layout between tokens is read
    from the file through the spans.  ``value`` is the number an
    ``integer`` or ``float`` token denotes, and None for every other kind.
    """

    kind: TokenKind
    text: str
    span: Span
    value: int | float | None = None


@dataclass
class SourceFile:
    """A file's text with its line index, built once from ``content``:
    ``line_starts`` holds the offset of each line (one more entry than
    newlines), ``line_texts`` each line without its newline and carriage
    return.  ``bom`` says that the file began with a UTF-8 byte-order mark,
    which ``content`` leaves out."""

    path: str
    content: str
    bom: bool = False
    line_starts: list[int] = field(init=False, repr=False)
    line_texts: list[str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        pieces = self.content.split("\n")
        self.line_starts = list(
            accumulate((len(piece) + 1 for piece in pieces[:-1]), initial=0))
        if pieces[-1] == "":
            pieces.pop()
        self.line_texts = [piece[:-1] if piece.endswith("\r") else piece
                           for piece in pieces]


def load_source(path: str | os.PathLike) -> SourceFile:
    """Read a file and build its SourceFile.

    Raises OSError for unreadable input (the exception carries the path) and
    UnicodeDecodeError for undecodable bytes (carrying the first offending
    offset).  Both LF and CRLF newline conventions are accepted.  A leading
    UTF-8 byte-order mark is skipped, as SWI-Prolog does, so that offsets
    and columns count from the character after it.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    # Decoded whole, not as "utf-8-sig", so that a decode error gives the
    # byte's offset in the file.
    content = data.decode("utf-8")
    bom = content.startswith("\ufeff")
    return SourceFile(path=str(path), content=content[1:] if bom else content,
                      bom=bom)


def source_from_text(text: str, path: str = "<string>") -> SourceFile:
    """Build a SourceFile directly from raw text."""
    return SourceFile(path=path, content=text)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

#: The characters that make up symbolic atoms such as ``=..`` or ``:-``.
SYMBOL_CHARS = "#$&*+-./:<=>?@^~\\"
#: What each one-character escape in a quoted item stands for; any other
#: escaped character stands for itself.
ESCAPES = {"a": "\a", "b": "\b", "f": "\f", "n": "\n", "r": "\r", "t": "\t",
           "v": "\v", "\\": "\\", "'": "'", '"': '"', "`": "`", "0": "\0"}
#: The most digits a decimal integer may have: the least limit that
#: ``PYTHONINTMAXSTRDIGITS`` can put on CPython's ``int(str)``, so that
#: what scans does not depend on that setting.
MAX_INTEGER_DIGITS = 640

#: One token after its whitespace gap; the group that matched says what
#: starts there.  A group that fails costs a step, so the groups run in the
#: order of their token counts over the three benchmark workloads at seed 1
#: (88k, 37k, 27k, 20k, 9k, 4k, 3k, then under 2k each): a one-character
#: punctuation mark, a name that starts with a lowercase ASCII letter, a
#: variable, ``/*`` (which must come before the symbolic atoms), a
#: symbolic atom, a plain integer: up to ``MAX_INTEGER_DIGITS`` ASCII
#: digits that no word character, ``.`` or ``'`` follows, so that its
#: value is ``int()`` of its text; then ``!`` or ``;``, a line comment and
#: a quote.  ``\w+``, after the name and integer groups, takes every other
#: numeral and a word that starts with another letter; ``\w`` is exactly
#: ``str.isalnum()`` or ``_``, so each name group is an identifier's full
#: extent.  The catch-all excludes whitespace, so the gap at the end of the
#: file matches nothing, and a search from a token's end finds the next
#: token right after its gap.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:([()\[\]{},|])|([a-z]\w*)|([A-Z_]\w*)|(/\*)"
    rf"|([{re.escape(SYMBOL_CHARS)}]+)"
    rf"|([0-9]{{1,{MAX_INTEGER_DIGITS}}})(?![\w.'])|([!;])|(%[^\n]*)"
    r"|(['\"`])|(\w+)|([^ \t\r\n]))")
(_SINGLE, _NAME, _VARIABLE_NAME, _BLOCK_COMMENT, _SYMBOLIC, _DIGITS, _SOLO,
 _LINE_COMMENT, _QUOTE, _WORD, _OTHER) = range(1, 12)
_ATOM = TokenKind.ATOM
_VARIABLE = TokenKind.VARIABLE
_INTEGER = TokenKind.INTEGER
_END = TokenKind.END
_PUNCTUATION = TokenKind.PUNCTUATION
_ERROR = TokenKind.ERROR
#: The kind of each group's token where the group alone decides it; None
#: where the text does.
_GROUP_KINDS = [None] * (_OTHER + 1)
_GROUP_KINDS[_NAME] = _GROUP_KINDS[_SOLO] = _ATOM
_GROUP_KINDS[_VARIABLE_NAME] = _VARIABLE
_GROUP_KINDS[_LINE_COMMENT] = TokenKind.LINE_COMMENT
_SINGLE_KINDS = {
    "(": TokenKind.OPEN_PAREN,
    ")": TokenKind.CLOSE_PAREN,
    "[": TokenKind.OPEN_BRACKET,
    "]": TokenKind.CLOSE_BRACKET,
    "{": TokenKind.OPEN_BRACE,
    "}": TokenKind.CLOSE_BRACE,
    ",": TokenKind.COMMA,
    "|": TokenKind.BAR,
}
#: A quoted item up to its closing quote: doubled quotes, and escapes, where
#: ``\x`` and octal ones run to a closing backslash but stop at a newline or
#: the quote.  Nothing follows the loop that could fail, so the first match
#: is the greedy one and is found without backtracking; the scanner checks
#: the closing quote itself.
_QUOTED = {
    quote: (re.compile(rf"{quote}(?:[^{quote}\\]+|{quote}{quote}"
                       rf"|\\(?:[x0-7][^\\\n{quote}]*\\?|.))*", re.DOTALL),
            kind, what)
    for quote, kind, what in (
        ("'", TokenKind.QUOTED_ATOM, "unterminated quoted atom"),
        ('"', TokenKind.STRING, "unterminated string"),
        ("`", TokenKind.STRING, "unterminated back-quoted string"))
}
#: Groups: a based integer, a character code, then a decimal numeral whose
#: fraction or exponent makes it a float.
_NUMBER = re.compile(r"(0[xX][0-9a-fA-F]+|0[oO][0-7]+|0[bB][01]+)|(0')"
                     r"|\d+(\.\d+)?([eE][+-]?\d+)?")


def _char_code(text: str, start: int) -> tuple[int, int]:
    """End and value of the ``0'c`` form at ``start``, including ``0''``,
    ``0'''`` and escapes; the end is -1 when the text stops after ``0'``."""
    n = len(text)
    i = start + 2
    if i >= n:
        return -1, 0
    ch = text[i]
    if ch == "'":
        return (i + 2 if text.startswith("'", i + 1) else i + 1), ord("'")
    if ch != "\\":
        return i + 1, ord(ch)
    i += 1
    if i >= n:
        return i, ord("\\")
    esc = text[i]
    if esc != "x" and not esc.isdigit():
        return i + 1, ord(ESCAPES.get(esc, esc))
    j = i + 1
    while j < n and text[j] not in "\\ \t\n":
        j += 1
    try:
        value = int(text[i + 1:j], 16) if esc == "x" else int(text[i:j], 8)
    except ValueError:
        value = 0
    return (j + 1 if j < n and text[j] == "\\" else j), value


def _word(text: str, start: int, end: int) -> tuple:
    r"""Kind, end, value and problem of the token at ``start`` that the
    ``\w+`` group matched up to ``end``: a numeral other than a plain
    integer, a name that starts with a letter other than an ASCII one, or
    an unexpected character such as ``²``."""
    ch = text[start]
    if ch.isalpha():
        kind = _VARIABLE if ch.isupper() or ch.istitle() else _ATOM
        return kind, end, None, None
    if not ch.isdecimal():
        return _PUNCTUATION, start + 1, None, f"unexpected character {ch!r}"
    number = _NUMBER.match(text, start)
    end = number.end()
    if number.lastindex == 1:
        return _INTEGER, end, int(number.group(), 0), None
    if number.lastindex == 2:
        end, value = _char_code(text, start)
        if end < 0:
            return _ERROR, len(text), None, "unterminated character code"
        return _INTEGER, end, value, None
    if number.lastindex is not None:
        return TokenKind.FLOAT, end, float(number.group()), None
    if end - start > MAX_INTEGER_DIGITS:
        return (_PUNCTUATION, end, None,
                f"integer has more than {MAX_INTEGER_DIGITS} digits")
    return _INTEGER, end, int(number.group()), None


def scan(src: SourceFile) -> tuple[list[Token], list[Diagnostic]]:
    """Tokenize a source file.

    Never raises for bad input: lexical problems surface as diagnostics.  An
    unterminated quoted atom, string, or block comment produces one ``error``
    token spanning to end-of-file plus one diagnostic, and scanning stops at
    that point.
    """
    text = src.content
    n = len(text)
    line_starts = src.line_starts
    line_count = len(line_starts)
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    append = tokens.append
    group_kinds = _GROUP_KINDS
    new_tuple = tuple.__new__
    # The line of the last token's start, the offset where that line
    # starts and where the next one does; a token at or past the next
    # line's start looks its line up.
    line, line_start = 1, 0
    next_start = line_starts[1] if line_count > 1 else n + 1
    # One search runs on from token to token; a token that ends elsewhere
    # than its match (a quoted item, a block comment, most numerals that
    # are not plain integers) starts the next search at its real end.
    resume: int | None = 0
    while resume is not None:
        matches = _TOKEN.finditer(text, resume)
        resume = None
        for m in matches:
            group = m.lastindex
            start, end = m.span(group)
            if start >= next_start:
                line = bisect_right(line_starts, start)
                line_start = line_starts[line - 1]
                next_start = line_starts[line] if line < line_count \
                    else n + 1
            kind = group_kinds[group]
            value = None
            if kind is None:
                if group == _SINGLE:
                    kind = _SINGLE_KINDS[text[start]]
                elif group == _SYMBOLIC:
                    kind = _END if end - start == 1 and text[start] == "." \
                        and (end == n or text[end] in " \t\r\n%") else _ATOM
                elif group == _DIGITS:
                    kind, value = _INTEGER, int(text[start:end])
            if kind is not None:
                # One line, no problem.  tuple.__new__ skips the named
                # tuple's Python-level __new__.
                append(Token(kind, text[start:end], new_tuple(Span, (
                    line, start - line_start + 1, line, end - line_start + 1,
                    start, end)), value))
                continue
            problem = None
            if group == _WORD:
                kind, end, value, problem = _word(text, start, end)
            elif group == _QUOTE:
                quote = text[start]
                pattern, kind, what = _QUOTED[quote]
                end = pattern.match(text, start).end()
                if text.startswith(quote, end):
                    end += 1
                else:
                    kind, end, problem = _ERROR, n, what
            elif group == _BLOCK_COMMENT:
                kind = TokenKind.BLOCK_COMMENT
                end = text.find("*/", start + 2) + 2
                if end == 1:
                    kind, end = _ERROR, n
                    problem = "unterminated block comment"
            else:
                kind, problem = _PUNCTUATION, \
                    f"unexpected character {text[start]!r}"
            # Quoted items, block comments and ``0'c`` may span lines.
            end_line = line if end < next_start \
                else bisect_right(line_starts, end)
            span = new_tuple(Span, (
                line, start - line_start + 1, end_line,
                end - line_starts[end_line - 1] + 1, start, end))
            append(Token(kind, text[start:end], span, value))
            if problem is not None:
                diagnostics.append(Diagnostic(
                    rule_id="E01", severity=Severity.ERROR, span=span,
                    message=problem, path=src.path))
            if end != m.end():
                # An error token runs to the end: the search from there
                # finds nothing.
                resume = end
                break
    return tokens, diagnostics
