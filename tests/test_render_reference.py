"""The formatter's one-walk renderer against the frozen reference in
``oracles``: the same text and priority for every subterm of every clause,
under the operator table in force at that clause.  The layout's own walk,
which steps through the body's blocks, must cache nothing the reference
would render otherwise."""

from __future__ import annotations

import random

from prolint import Config, program_from_source, source_from_text
from prolint.formatter import _ClauseFormatter, _Renderer
from prolint.reader import ClauseKind, OperatorTable, apply_directive_to_table

from gen import gen_file
from oracles import render_reference
from test_formatter import formatter_corpus
from test_read_reference import SOUP


class _Kept(dict):
    """A cache that keeps the operand entries the renderer drops once used,
    so that every subterm's entry can be compared."""

    def pop(self, key, *default):
        return self[key]


def _kept_renderer(table: OperatorTable) -> _Renderer:
    renderer = _Renderer(table)
    renderer.rendered = _Kept()
    return renderer


def assert_renders_as_reference(text: str) -> None:
    program = program_from_source(source_from_text(text))
    table = OperatorTable.default()
    for clause in program.items:
        roots = [term for term in (clause.head, clause.body)
                 if term is not None]
        want = render_reference(roots, table)
        renderer = _kept_renderer(table)
        renderer.fill(roots)
        assert dict(renderer.rendered) == want, text
        if not program.syntax_diagnostics:
            layout = _kept_renderer(table)
            _ClauseFormatter(layout, Config()).format_clause(clause)
            assert layout.rendered.items() <= want.items(), text
        if clause.kind is ClauseKind.DIRECTIVE:
            apply_directive_to_table(clause.body, table)


def test_render_matches_reference_on_corpus():
    for text in formatter_corpus().values():
        assert_renders_as_reference(text)


def test_render_matches_reference_on_generated_files():
    for seed in range(300):
        assert_renders_as_reference(gen_file(random.Random(seed)))


def test_render_matches_reference_on_token_soup():
    rng = random.Random(31)
    for _ in range(3_000):
        chosen = rng.choices(SOUP, k=rng.randrange(1, 30))
        separators = rng.choices([" ", "", "\n"], weights=[6, 3, 1],
                                 k=len(chosen))
        assert_renders_as_reference(
            "".join(p + s for p, s in zip(chosen, separators)))
