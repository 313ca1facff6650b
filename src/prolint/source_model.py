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

from .diagnostics import Diagnostic, Severity


@dataclass(frozen=True)
class Span:
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


@dataclass(frozen=True)
class LineInfo:
    """Per-physical-line metrics.

    ``length`` excludes the newline (and a trailing carriage return); a tab
    counts as one character.  ``indent_width`` counts leading whitespace
    characters.  ``has_tab`` is true when a tab occurs anywhere on the line.
    """

    number: int
    length: int
    indent_width: int
    has_tab: bool
    is_blank: bool


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


@dataclass
class Token:
    """One lexical unit.

    ``text`` is the verbatim lexeme (quotes and escapes as written).
    ``preceding_spaces`` counts the run of space characters directly before
    the token on its own line; ``preceded_by_newline`` is true when at least
    one newline separates it from the previous token (false for the first
    token of the file).
    """

    kind: TokenKind
    text: str
    span: Span
    preceded_by_newline: bool = False
    preceding_spaces: int = 0
    value: int | float | None = None


@dataclass
class SourceFile:
    """A file's text with its line index, built once: ``line_starts`` holds
    the offset of each line (one more entry than newlines), ``line_texts``
    each line without its newline and carriage return."""

    path: str
    content: str
    lines: list[LineInfo] = field(default_factory=list)
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
        if not self.lines:
            self.lines = [_line_info(number, text) for number, text
                          in enumerate(self.line_texts, start=1)]

    def line_text(self, number: int) -> str:
        """Return the text of a physical line, without its newline."""
        return self.line_texts[number - 1]


def _line_info(number: int, text: str) -> LineInfo:
    return LineInfo(number=number, length=len(text),
                    indent_width=len(text) - len(text.lstrip(" \t")),
                    has_tab="\t" in text, is_blank=text.strip() == "")


def line_metrics(src: SourceFile) -> list[LineInfo]:
    """One LineInfo per physical line of ``src``."""
    return src.lines


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

_SYMBOL_CHARS = frozenset("#$&*+-./:<=>?@^~\\")
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
_BASED_INT = re.compile(r"0[xX][0-9a-fA-F]+|0[oO][0-7]+|0[bB][01]+")


def _is_var_start(ch: str) -> bool:
    return ch == "_" or (ch.isalpha() and (ch.isupper() or ch.istitle()))


def _is_ident_char(ch: str) -> bool:
    return ch == "_" or ch.isalnum()


class _Scanner:
    """Single pass over the source text producing tokens and diagnostics."""

    def __init__(self, src: SourceFile) -> None:
        self.src = src
        self.text = src.content
        self.n = len(src.content)
        self.i = 0
        self.tokens: list[Token] = []
        self.diagnostics: list[Diagnostic] = []
        self.line_starts = src.line_starts

    def position(self, offset: int) -> tuple[int, int]:
        line = bisect_right(self.line_starts, offset)
        return line, offset - self.line_starts[line - 1] + 1

    def make_span(self, start: int, end: int) -> Span:
        sl, sc = self.position(start)
        el, ec = self.position(end) if end > start else (sl, sc)
        return Span(sl, sc, el, ec, start, end)

    def emit(self, kind: TokenKind, start: int, end: int,
             value: int | float | None = None) -> None:
        spaces = 0
        k = start
        while k > 0 and self.text[k - 1] == " ":
            spaces += 1
            k -= 1
        prev_end = self.tokens[-1].span.byte_end if self.tokens else 0
        newline = "\n" in self.text[prev_end:start]
        self.tokens.append(
            Token(
                kind=kind,
                text=self.text[start:end],
                span=self.make_span(start, end),
                preceded_by_newline=newline,
                preceding_spaces=spaces,
                value=value,
            )
        )

    def error(self, start: int, end: int, message: str) -> None:
        self.diagnostics.append(
            Diagnostic(
                rule_id="E01",
                severity=Severity.ERROR,
                span=self.make_span(start, end),
                message=message,
                path=self.src.path,
            )
        )

    def scan(self) -> None:
        text, n = self.text, self.n
        while self.i < n:
            ch = text[self.i]
            if ch in " \t\r\n":
                self.i += 1
                continue
            start = self.i
            if ch == "%":
                end = text.find("\n", start)
                end = n if end < 0 else end
                self.i = end
                self.emit(TokenKind.LINE_COMMENT, start, end)
            elif ch == "/" and text.startswith("/*", start):
                close = text.find("*/", start + 2)
                if close < 0:
                    self.emit(TokenKind.ERROR, start, n)
                    self.error(start, n, "unterminated block comment")
                    self.i = n
                    return
                self.i = close + 2
                self.emit(TokenKind.BLOCK_COMMENT, start, self.i)
            elif ch == "'":
                if not self.scan_quoted(start, "'", TokenKind.QUOTED_ATOM,
                                        "unterminated quoted atom"):
                    return
            elif ch == '"':
                if not self.scan_quoted(start, '"', TokenKind.STRING,
                                        "unterminated string"):
                    return
            elif ch == "`":
                if not self.scan_quoted(start, "`", TokenKind.STRING,
                                        "unterminated back-quoted string"):
                    return
            elif ch.isdecimal():
                self.scan_number(start)
            elif _is_var_start(ch):
                self.scan_ident(start, TokenKind.VARIABLE)
            elif ch.isalpha():
                self.scan_ident(start, TokenKind.ATOM)
            elif ch in _SINGLE_KINDS:
                self.i += 1
                self.emit(_SINGLE_KINDS[ch], start, self.i)
            elif ch in "!;":
                self.i += 1
                self.emit(TokenKind.ATOM, start, self.i)
            elif ch in _SYMBOL_CHARS:
                self.scan_symbolic(start)
            else:
                self.i += 1
                self.emit(TokenKind.PUNCTUATION, start, self.i)
                self.error(start, self.i, f"unexpected character {ch!r}")

    def scan_quoted(self, start: int, quote: str, kind: TokenKind,
                    what: str) -> bool:
        """Consume a quoted token; on missing close quote emit an error token
        to end-of-file and stop the scan (returns False)."""
        text, n = self.text, self.n
        i = start + 1
        while i < n:
            ch = text[i]
            if ch == quote:
                if i + 1 < n and text[i + 1] == quote:
                    i += 2
                    continue
                self.i = i + 1
                self.emit(kind, start, self.i)
                return True
            if ch == "\\":
                i += 1
                if i >= n:
                    break
                esc = text[i]
                if esc in "x01234567":
                    i += 1
                    while i < n and text[i] not in "\\\n" + quote:
                        i += 1
                    if i < n and text[i] == "\\":
                        i += 1
                else:
                    i += 1
            else:
                i += 1
        self.emit(TokenKind.ERROR, start, n)
        self.error(start, n, what)
        self.i = n
        return False

    def scan_number(self, start: int) -> None:
        text, n = self.text, self.n
        m = _BASED_INT.match(text, start)
        if m:
            self.i = m.end()
            self.emit(TokenKind.INTEGER, start, self.i,
                      value=int(m.group(0), 0))
            return
        if text.startswith("0'", start):
            self.scan_char_code(start)
            return
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
        self.i = i
        lexeme = text[start:i]
        if is_float:
            self.emit(TokenKind.FLOAT, start, i, value=float(lexeme))
        else:
            self.emit(TokenKind.INTEGER, start, i, value=int(lexeme))

    def scan_char_code(self, start: int) -> None:
        """``0'c`` forms, including ``0''`` / ``0'''`` and escapes."""
        text, n = self.text, self.n
        i = start + 2
        if i >= n:
            self.i = n
            self.emit(TokenKind.ERROR, start, n)
            self.error(start, n, "unterminated character code")
            return
        ch = text[i]
        if ch == "'":
            i += 1
            if i < n and text[i] == "'":
                i += 1
            self.i = i
            self.emit(TokenKind.INTEGER, start, i, value=ord("'"))
            return
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
                    base = 16 if esc == "x" else 8
                    try:
                        value = int(digits, base)
                    except ValueError:
                        value = 0
                    i = j + 1 if j < n and text[j] == "\\" else j
                else:
                    value = simple.get(esc, ord(esc))
                    i += 1
            self.i = i
            self.emit(TokenKind.INTEGER, start, i, value=value)
            return
        self.i = i + 1
        self.emit(TokenKind.INTEGER, start, self.i, value=ord(ch))

    def scan_ident(self, start: int, kind: TokenKind) -> None:
        text, n = self.text, self.n
        i = start + 1
        while i < n and _is_ident_char(text[i]):
            i += 1
        self.i = i
        self.emit(kind, start, i)

    def scan_symbolic(self, start: int) -> None:
        text, n = self.text, self.n
        i = start + 1
        while i < n and text[i] in _SYMBOL_CHARS:
            i += 1
        lexeme = text[start:i]
        if lexeme == ".":
            nxt = text[i] if i < n else ""
            if nxt == "" or nxt in " \t\r\n" or nxt == "%":
                self.i = i
                self.emit(TokenKind.END, start, i)
                return
        self.i = i
        self.emit(TokenKind.ATOM, start, i)


def scan(src: SourceFile) -> tuple[list[Token], list[Diagnostic]]:
    """Tokenize a source file.

    Never raises for bad input: lexical problems surface as diagnostics.  An
    unterminated quoted atom, string, or block comment produces one ``error``
    token spanning to end-of-file plus one diagnostic, and scanning stops at
    that point.
    """
    scanner = _Scanner(src)
    scanner.scan()
    return scanner.tokens, scanner.diagnostics
