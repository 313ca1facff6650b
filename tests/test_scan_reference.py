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

#: Pieces that reach every branch of the tokenizer: quotes and escapes,
#: comments, based and character-code numerals, floats with exponents, the
#: end token, variables, non-ASCII letters and digits (lower, upper and
#: titlecase, so both ASCII name groups and the ``\w+`` fallback are
#: reached), non-decimal digits, solo and punctuation characters, and every
#: kind of whitespace.
ALPHABET = ["'", '"', "`", "\\", "%", "/*", "*/", "0'", "0x", "0o", "0b",
            ".", "e", "E", "+", "-", "_", "é", "É", "ǅ", "²", "①", "٣", "!",
            ";", ",", "|", "(", ")", "[", "]", "{", "}", "\t", "\r", "\n",
            "\x0b", " ", " ", "a", "a1", "X", "x", "1", "8"]


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
    got_tokens, got_diags = scanned(text)
    want_tokens, want_diags = scan_reference(text)
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


def test_scan_matches_reference_on_random_strings():
    rng = random.Random(5)
    for _ in range(12_000):
        pieces = rng.choices(ALPHABET, k=rng.randrange(0, 24))
        assert_matches_reference("".join(pieces))
