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
    return."""

    path: str
    content: str
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
    offset).  Both LF and CRLF newline conventions are accepted.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    content = data.decode("utf-8")
    return SourceFile(path=str(path), content=content)


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
#: starts there.  An identifier that starts with an ASCII letter or ``_``
#: has a group of its own (atom or variable); ``\w+`` takes the rest, a
#: numeral or a word that starts with another letter.  ``\w`` is exactly
#: ``str.isalnum()`` or ``_``, so each of these groups is an identifier's
#: full extent.  ``/*`` comes before the symbolic atoms.  The catch-all
#: excludes whitespace, so the gap at the end of the file matches nothing.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:(%[^\n]*)|(/\*)|(['\"`])|([a-z]\w*)|([A-Z_]\w*)|(\w+)"
    rf"|([{re.escape(SYMBOL_CHARS)}]+)"
    r"|([()\[\]{},|])|([!;])|([^ \t\r\n]))")
(_LINE_COMMENT, _BLOCK_COMMENT, _QUOTE, _NAME, _VARIABLE_NAME, _WORD,
 _SYMBOLIC, _SINGLE, _SOLO, _OTHER) = range(1, 11)
#: The kind of each group's token where the group alone decides it; None
#: where the text does.
_GROUP_KINDS = [None] * (_OTHER + 1)
_GROUP_KINDS[_LINE_COMMENT] = TokenKind.LINE_COMMENT
_GROUP_KINDS[_NAME] = TokenKind.ATOM
_GROUP_KINDS[_VARIABLE_NAME] = TokenKind.VARIABLE
_GROUP_KINDS[_SOLO] = TokenKind.ATOM
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
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    match = _TOKEN.match
    group_kinds = _GROUP_KINDS
    new_tuple = tuple.__new__
    # The cursor's line and the offset where that line starts, moved on by
    # the newlines of each gap and by the tokens that can span lines.
    pos = line_start = 0
    line = 1
    while (m := match(text, pos)) is not None:
        group = m.lastindex
        start, end = m.span(group)
        if start != pos:
            last_newline = text.rfind("\n", pos, start)
            if last_newline >= 0:
                line += text.count("\n", pos, last_newline + 1)
                line_start = last_newline + 1
        kind = group_kinds[group]
        if kind is None:
            if group == _SINGLE:
                kind = _SINGLE_KINDS[text[start]]
            elif group == _SYMBOLIC:
                if end - start == 1 and text[start] == "." \
                        and (end == n or text[end] in " \t\r\n%"):
                    kind = TokenKind.END
                else:
                    kind = TokenKind.ATOM
        if kind is not None:
            # One line, no value, no problem: tuple.__new__ skips the
            # named tuple's Python-level __new__.
            tokens.append(Token(kind, text[start:end], new_tuple(Span, (
                line, start - line_start + 1, line, end - line_start + 1,
                start, end))))
            pos = end
            continue
        value = None
        problem = None
        multi_line = False
        if group == _WORD:
            ch = text[start]
            if ch.isdecimal():
                number = _NUMBER.match(text, start)
                end = number.end()
                if number.lastindex == 1:
                    kind, value = TokenKind.INTEGER, int(number.group(), 0)
                elif number.lastindex == 2:
                    multi_line = True  # the character may be a newline
                    end, value = _char_code(text, start)
                    if end < 0:
                        kind, end, value = TokenKind.ERROR, n, None
                        problem = "unterminated character code"
                    else:
                        kind = TokenKind.INTEGER
                elif number.lastindex is None:
                    if end - start > MAX_INTEGER_DIGITS:
                        kind = TokenKind.PUNCTUATION
                        problem = ("integer has more than "
                                   f"{MAX_INTEGER_DIGITS} digits")
                    else:
                        kind, value = TokenKind.INTEGER, int(number.group())
                else:
                    kind, value = TokenKind.FLOAT, float(number.group())
            elif ch.isalpha():
                kind = TokenKind.VARIABLE if ch.isupper() or ch.istitle() \
                    else TokenKind.ATOM
            else:
                kind, end = TokenKind.PUNCTUATION, start + 1
                problem = f"unexpected character {ch!r}"
        elif group == _QUOTE:
            quote = text[start]
            pattern, kind, what = _QUOTED[quote]
            end = pattern.match(text, start).end()
            multi_line = True
            if text.startswith(quote, end):
                end += 1
            else:
                kind, end, problem = TokenKind.ERROR, n, what
        elif group == _BLOCK_COMMENT:
            kind = TokenKind.BLOCK_COMMENT
            multi_line = True
            end = text.find("*/", start + 2) + 2
            if end == 1:
                kind, end = TokenKind.ERROR, n
                problem = "unterminated block comment"
        else:
            kind = TokenKind.PUNCTUATION
            problem = f"unexpected character {text[start]!r}"
        start_line, start_col = line, start - line_start + 1
        if multi_line:
            line = bisect_right(line_starts, end)
            line_start = line_starts[line - 1]
        span = new_tuple(Span, (start_line, start_col, line,
                                end - line_start + 1, start, end))
        tokens.append(Token(kind, text[start:end], span, value))
        if problem is not None:
            diagnostics.append(Diagnostic(
                rule_id="E01", severity=Severity.ERROR, span=span,
                message=problem, path=src.path))
            if kind is TokenKind.ERROR:
                break
        pos = end
    return tokens, diagnostics
