"""The one-pass ``reader.TokenIndex`` against the reference that builds each
field in its own pass (``oracles.token_index_reference``)."""

from __future__ import annotations

import random

from prolint import program_from_source, source_from_text
from prolint.reader import TokenIndex

from gen import gen_file
from oracles import token_index_reference
from test_formatter import formatter_corpus
from test_read_reference import SOUP

#: Pieces the reader's soup lacks: an unterminated block comment, string and
#: back-quoted item, characters the scanner reports as errors, and tabs.
_EXTRA = ["/* open", '"open', "`open", "`b`", "§", "①", "\t", "0'a", "0'"]


def assert_index_matches_reference(text: str) -> None:
    src = source_from_text(text)
    tokens = program_from_source(src).tokens
    index = TokenIndex(src, tokens)
    expected = token_index_reference(src, tokens)
    assert set(vars(index)) == set(expected), text
    for name, value in expected.items():
        got = getattr(index, name)
        if isinstance(value, dict):  # the order of first occurrence counts
            got, value = list(got.items()), list(value.items())
        assert got == value, (name, text)


def test_index_matches_reference_on_corpus():
    for text in formatter_corpus().values():
        assert_index_matches_reference(text)


def test_index_matches_reference_on_generated_files():
    for seed in range(300):
        assert_index_matches_reference(gen_file(random.Random(seed)))


def test_index_matches_reference_on_token_soup():
    rng = random.Random(17)
    pieces = SOUP + _EXTRA
    for _ in range(3_000):
        chosen = rng.choices(pieces, k=rng.randrange(1, 30))
        separators = rng.choices([" ", "", "\n"], weights=[6, 3, 1],
                                 k=len(chosen))
        assert_index_matches_reference(
            "".join(p + s for p, s in zip(chosen, separators)))
