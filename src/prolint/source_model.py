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
from itertools import accumulate
from typing import NamedTuple

from .diagnostics import Diagnostic, Record, Severity


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


class Token(Record):
    """One lexical unit.

    ``text`` is the verbatim lexeme (quotes and escapes as written), and
    ``span`` locates it in the file; the layout between tokens is read
    from the file through the spans.  ``value`` is the number an
    ``integer`` or ``float`` token denotes, a quoted atom's name, and None
    for every other kind.
    """

    __slots__ = ("kind", "text", "span", "value")
    _defaults = {"value": None}


class SourceFile(Record):
    """A file's text, read once, as LF, with its line index.

    Bytes are decoded as UTF-8 whole, so that a decode error gives the
    offending byte's offset.  A leading byte-order mark is skipped, as
    SWI-Prolog does, and each CRLF, not a lone CR, becomes LF: ``bom`` and
    ``newline``, the first line's end, keep them for ``encode``, and
    ``stray_newline`` is the offset in ``content`` of the first other line
    end, or None.  ``line_starts`` holds each line's offset (one more entry
    than newlines), ``line_texts`` each line without its newline."""

    __slots__ = ("path", "content", "bom", "newline", "stray_newline",
                 "line_starts", "line_texts")

    def __init__(self, path: str, text: str | bytes) -> None:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        self.path = path
        self.bom = text.startswith("\ufeff")
        text = text[self.bom:]
        end = text.find("\n")
        self.newline = "\r\n" if end > 0 and text[end - 1] == "\r" else "\n"
        stray = _STRAY_NEWLINE[self.newline].search(text)
        self.stray_newline = None if stray is None \
            else stray.start() - text.count("\r\n", 0, stray.start())
        self.content = content = text.replace("\r\n", "\n")
        pieces = content.split("\n")
        self.line_starts = list(
            accumulate((len(piece) + 1 for piece in pieces[:-1]), initial=0))
        self.line_texts = pieces if pieces[-1] else pieces[:-1]

    def encode(self, text: str) -> bytes:
        """LF ``text`` as bytes with this file's mark and line end."""
        return ("\ufeff" * self.bom
                + text.replace("\n", self.newline)).encode("utf-8")


#: By a file's first line end, the other line end: CRLF, or a bare LF.
_STRAY_NEWLINE = {"\n": re.compile("\r\n"), "\r\n": re.compile(r"(?<!\r)\n")}


def load_source(path: str | os.PathLike) -> SourceFile:
    """Read a file and build its SourceFile; raises OSError, which carries
    the path, or UnicodeDecodeError."""
    with open(path, "rb") as handle:
        return SourceFile(str(path), handle.read())


def source_from_text(text: str, path: str = "<string>") -> SourceFile:
    """Build a SourceFile from text as read: a mark and CRLF line ends are
    read as ``load_source`` reads them."""
    return SourceFile(path, text)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

#: The characters that make up symbolic atoms such as ``=..`` or ``:-``.
SYMBOL_CHARS = "#$&*+-./:<=>?@^~\\"
#: What each one-character escape in a quoted item stands for; any other
#: escaped character stands for itself.
ESCAPES = {"a": "\a", "b": "\b", "f": "\f", "n": "\n", "r": "\r", "t": "\t",
           "v": "\v", "\\": "\\", "'": "'", '"': '"', "`": "`"}
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
#: value is ``int()`` of its text; then ``!`` or ``;``, a line comment
#: and a quote.  ``\w+``, after the name and integer groups, takes every
#: other numeral and a word that starts with another letter; ``\w`` is
#: exactly ``str.isalnum()`` or ``_``, so each name group is an
#: identifier's full extent.  The catch-all excludes whitespace, so the
#: gap at the end of the file matches nothing, and a search from a token's
#: end finds the next token right after its gap.
_TOKEN = re.compile(
    r"[ \t\r\n\f\v]*(?:([()\[\]{},|])|([a-z]\w*)|([A-Z_]\w*)|(/\*)"
    rf"|([{re.escape(SYMBOL_CHARS)}]+)"
    rf"|([0-9]{{1,{MAX_INTEGER_DIGITS}}})(?![\w.'])|([!;])"
    r"|(%[^\n]*)"
    r"|(['\"`])|(\w+)|([^ \t\r\n\f\v]))")
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
#: The kind of the item each quote opens, the problem when no quote closes
#: it, and where a plain run in it stops: at that quote or a backslash.
_QUOTES = {quote: (kind, what, re.compile(rf"[{quote}\\]"))
           for quote, kind, what in (
               ("'", TokenKind.QUOTED_ATOM, "unterminated quoted atom"),
               ('"', TokenKind.STRING, "unterminated string"),
               ("`", TokenKind.STRING, "unterminated back-quoted string"))}
#: A numeric escape after its backslash: ``x`` and the hex digits after
#: it, or octal digits, then an optional closing backslash.
_NUMERIC_ESCAPE = re.compile(r"(?:x([0-9a-fA-F]*)|([0-7]+))\\?")
#: Groups: a based integer, a character code, then a decimal numeral whose
#: fraction or exponent makes it a float.
_NUMBER = re.compile(r"(0[xX][0-9a-fA-F]+|0[oO][0-7]+|0[bB][01]+)|(0')"
                     r"|\d+(\.\d+)?([eE][+-]?\d+)?")


def _escape(text: str, i: int) -> tuple[int, int, str]:
    r"""End, code and text of the escape whose backslash is at ``i``.  A
    numeric one's code is its digits' value (0 for none), its text their
    character, or the digits if none or past U+10FFFF.  ``\`` before a
    newline stands for no text, a final ``\`` for itself, and any other
    escaped character for its ``ESCAPES`` value, or itself."""
    found = _NUMERIC_ESCAPE.match(text, i + 1)
    if found is not None:
        digits = found[found.lastindex]
        code = int(digits, 16 if found.lastindex == 1 else 8) if digits else 0
        return found.end(), code, \
            chr(code) if digits and code <= 0x10FFFF else digits
    esc = text[i + 1:i + 2]
    char = ESCAPES.get(esc, esc or "\\")
    return i + 1 + len(esc), ord(char), "" if esc == "\n" else char


def _quoted(text: str, start: int) -> tuple:
    """Kind, end, value and problem of the quoted item at ``start``, read
    in one forward pass: a quoted atom's value is its name."""
    quote = text[start]
    kind, what, stop = _QUOTES[quote]
    pieces = []
    i = start + 1
    while (found := stop.search(text, i)) is not None:
        j = found.start()
        pieces.append(text[i:j])
        if text[j] == "\\":
            i, _, piece = _escape(text, j)
        elif text.startswith(quote, j + 1):
            i, piece = j + 2, quote
        else:
            return kind, j + 1, "".join(pieces) if quote == "'" else None, None
        pieces.append(piece)
    return _ERROR, len(text), None, what


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
        # ``0'c``, ``0''``, ``0'''`` or ``0'`` and an escape.
        if end == len(text):
            return _ERROR, end, None, "unterminated character code"
        if text[end] == "\\":
            end, value, _ = _escape(text, end)
        else:
            end, value = end + 1 + text.startswith("''", end), ord(text[end])
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
                        and (end == n or text[end] in " \t\r\n\f\v%") \
                        else _ATOM
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
                kind, end, value, problem = _quoted(text, start)
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
