"""The one-walk ``reader.TermIndex`` against the reference that lists each
clause's subterms and builds each field from them
(``oracles.term_index_reference``).  Terms are compared by identity: the
index must hold the reader's own objects, in the reference's order."""

from __future__ import annotations

import random

from prolint import program_from_source, source_from_text
from prolint.reader import TermIndex

from gen import gen_file
from oracles import term_index_reference
from test_formatter import formatter_corpus
from test_read_reference import SOUP


def _ids(value) -> list:
    """``value`` with each term and clause replaced by its identity."""
    if isinstance(value, dict):  # the order of first occurrence counts
        return [(name, _ids(terms)) for name, terms in value.items()]
    if isinstance(value, (list, tuple)):
        return [_ids(item) if isinstance(item, (list, tuple, dict))
                else id(item) for item in value]
    return id(value)


def assert_index_matches_reference(text: str) -> None:
    program = program_from_source(source_from_text(text))
    index = TermIndex(program.items)
    fields, outermost, repeat_goals = term_index_reference(program)
    assert set(vars(index)) == set(fields), text
    for name, value in fields.items():
        assert _ids(getattr(index, name)) == _ids(value), (name, text)
    # L08 reports the clusters that are no direct argument of another one.
    inner = {id(arg) for term, _ in index.clusters for arg in term.args}
    assert sorted(id(term) for term, _ in index.clusters
                  if id(term) not in inner) == sorted(map(id, outermost)), text
    # L09 and I02 read the goal sequences of the ``repeat`` clauses only.
    assert set(map(id, repeat_goals)) <= set(map(id, index.repeats)), text


def test_index_matches_reference_on_corpus():
    for text in formatter_corpus().values():
        assert_index_matches_reference(text)


def test_index_matches_reference_on_generated_files():
    for seed in range(300):
        assert_index_matches_reference(gen_file(random.Random(seed)))


def test_index_matches_reference_on_token_soup():
    rng = random.Random(23)
    for _ in range(3_000):
        chosen = rng.choices(SOUP, k=rng.randrange(1, 30))
        separators = rng.choices([" ", "", "\n"], weights=[6, 3, 1],
                                 k=len(chosen))
        assert_index_matches_reference(
            "".join(p + s for p, s in zip(chosen, separators)))
