"""The tokenizer against the character-at-a-time reference in ``oracles``:
equal tokens and diagnostics, every field of ``Token`` and ``Diagnostic``
compared.  The reference also records the layout before each token, which
``Token`` does not carry; that part is left out of the comparison."""

from __future__ import annotations

import random

import pytest

from prolint import source_from_text
from prolint.source_model import scan

from gen import gen_file
from oracles import scan_reference
from test_formatter import formatter_corpus

#: Pieces that reach every branch of the tokenizer: quotes and escapes
#: (numeric ones with and without their closing backslash, so that one
#: meets non-digits and a later backslash),
#: comments, based and character-code numerals, floats with exponents, the
#: end token, variables, non-ASCII letters and digits (lower, upper and
#: titlecase, so both ASCII name groups and the ``\w+`` fallback are
#: reached), non-decimal digits, solo and punctuation characters, and every
#: kind of whitespace.
ALPHABET = ["'", '"', "`", "\\", "%", "/*", "*/", "0'", "0x", "0o", "0b",
            ".", "e", "E", "+", "-", "_", "é", "É", "ǅ", "²", "①", "٣", "!",
            ";", ",", "|", "(", ")", "[", "]", "{", "}", "\t", "\r", "\n",
            "\x0b", "\x0c", " ", " ", "a", "a1", "X", "x", "1", "8", "\\x4",
            "\\101", "\\x41\\"]


def _span(span) -> tuple:
    return (span.start_line, span.start_col, span.end_line, span.end_col,
            span.byte_start, span.byte_end)


def scanned(text: str):
    """``scan``'s tokens and diagnostics as the reference's plain tuples."""
    tokens, diagnostics = scan(source_from_text(text))
    return ([(t.kind.value, t.text, _span(t.span), t.value) for t in tokens],
            [(d.rule_id, d.severity.label, _span(d.span), d.message,
              d.suggestion, d.predicate, d.path) for d in diagnostics])


def assert_matches_reference(text: str) -> None:
    """The scanner reads the text as ``SourceFile`` leaves it, with each
    CRLF made LF; so does the reference."""
    got_tokens, got_diags = scanned(text)
    want_tokens, want_diags = scan_reference(text.replace("\r\n", "\n"))
    want_tokens = [t[:3] + t[5:] for t in want_tokens]
    # Compare values with their types, so that 1 and 1.0 differ.
    assert [t[:3] + (type(t[3]),) for t in got_tokens] \
        == [t[:3] + (type(t[3]),) for t in want_tokens], repr(text)
    assert got_tokens == want_tokens, repr(text)
    assert got_diags == want_diags, repr(text)


@pytest.mark.parametrize("name", sorted(formatter_corpus()))
def test_scan_matches_reference_on_corpus(name):
    assert_matches_reference(formatter_corpus()[name])


def test_scan_matches_reference_on_generated_files():
    for seed in range(300):
        assert_matches_reference(gen_file(random.Random(seed)))


#: Texts the random strings do not reach: plain integers at and around the
#: digit limit, digit runs that leave the plain-integer group for what
#: follows them, a character code cut off by the end of the file, numerals
#: and number signs of other scripts, CRLF line ends, and ``/*`` right
#: after a symbolic atom, and numeric escapes that end at their first
#: non-digit in a character code and in a quoted atom.
FIXED_TEXTS = [
    *(f"p({'7' * k}).\n" for k in (639, 640, 641)),
    *("1" * k for k in (639, 640, 641)),
    *(f"X = 12{tail} Y.\n" for tail in
      (".", ". ", ".5", "'a", "_x", "e5", "x1", "q", "É")),
    "X = 12.", "X = 12", "0'", "X = 0'", "p :- X = 0'",
    "p(٣٣, ², ①).", "p(X) :- X = ٣٣², ①.",
    "p :-\r\n    q(1),\r\n    'a\r\nb',\r\n    r.\r\n% c\r\n",
    "X =/* c */ 1.\n", "p :- /* c */ q, X = - /* d */ 1, Y =.. /*e*/ Z.\n",
    "a --> /* c */ b.\n", "+/*\n",
    r"x(0'\x41).", r"x(0'\101).", r"x(0'\8).", r"x('\x4 1\'b').",
]


@pytest.mark.parametrize("index", range(len(FIXED_TEXTS)))
def test_scan_matches_reference_on_fixed_texts(index):
    assert_matches_reference(FIXED_TEXTS[index])


def test_scan_matches_reference_on_random_strings():
    rng = random.Random(5)
    for _ in range(12_000):
        pieces = rng.choices(ALPHABET, k=rng.randrange(0, 24))
        assert_matches_reference("".join(pieces))
