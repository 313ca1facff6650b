"""``check_format`` against the whole-text compare it replaced.

``check_format`` renders one unit at a time and stops at the first unit that
differs from the source; ``oracles.check_format_reference`` formats the whole
program and compares character by character.  Both must give the same
verdict and span.  The source texts are the formatter corpus, the library
modules of the benchmark at seed 1 and 300 generated programs, and each
program's canonical output altered at its end and in its middle.  An altered
text is checked against the program it came from, so that the formatted
output is known and every way of differing from it is reached: the source
cut short of it, longer than it, or one character off inside it.
"""

from __future__ import annotations

import random

import pytest

from prolint import (
    Config,
    FormatError,
    check_format,
    format_program,
    program_from_source,
    source_from_text,
)
from prolint.formatter import _ClauseFormatter
from prolint.reader import Program
from prolint.source_model import SourceFile

from gen import gen_file
from oracles import check_format_reference
from test_formatter import formatter_corpus
from test_metamorphic import _library_modules

CONFIGS = {
    "default": Config(),
    "narrow": Config(indent_size=2, max_line_length=60),
}


@pytest.fixture(scope="module")
def sources() -> list[tuple[SourceFile, Program]]:
    named = sorted(formatter_corpus().items())
    named += [(f"library_{i:02d}.pl", text)
              for i, text in enumerate(_library_modules())]
    named += [(f"gen_{i:03d}.pl", gen_file(random.Random(i)))
              for i in range(300)]
    read = []
    for name, text in named:
        src = source_from_text(text, name)
        read.append((src, program_from_source(src)))
    return read


def _variants(output: str, rng: random.Random) -> list[str]:
    """The output itself, cut short at two seeded offsets, with its last
    newline dropped or doubled, and with one space put in at a seeded
    offset."""
    cuts = [rng.randrange(len(output) or 1) for _ in range(2)]
    at = rng.randrange(len(output) + 1)
    return [output, output + "\n", output[:-1],
            *(output[:cut] for cut in cuts),
            output[:at] + " " + output[at:]]


def _both(src, program, cfg):
    try:
        got = check_format(src, program, cfg)
    except FormatError as error:
        got = ("refused", error.diagnostic.message)
    try:
        want = check_format_reference(src, program, cfg)
    except FormatError as error:
        want = ("refused", error.diagnostic.message)
    return got, want


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_check_format_matches_reference(sources, config):
    cfg = CONFIGS[config]
    rng = random.Random(12)
    differs = 0
    for src, program in sources:
        name = src.path
        got, want = _both(src, program, cfg)
        assert got == want, name
        if program.syntax_diagnostics:
            continue
        differs += got[0] is False
        output = format_program(program, cfg)
        for variant in _variants(output, rng):
            got, want = _both(source_from_text(variant, name), program, cfg)
            assert got == want, (name, variant)
    assert differs >= 300


@pytest.mark.parametrize("text, output", [
    ("", ""),
    ("\n\n", ""),
    ("p.\n", "p.\n"),
    ("p.", "p.\n"),
    ("p.\n\n", "p.\n"),
    ("% only a comment", "% only a comment\n"),
])
def test_check_format_matches_reference_at_the_ends(text, output):
    src = source_from_text(text)
    program = program_from_source(src)
    assert format_program(program) == output
    got, want = _both(src, program, Config())
    assert got == want
    assert got[0] is (text == output)


def test_check_format_stops_at_the_first_differing_unit(monkeypatch):
    clauses = [f"p{i}(X) :-\n    q(X).\n" for i in range(50)]
    text = "\n".join(clauses).replace("    q(X).", "\tq(X).", 1)
    src = source_from_text(text)
    program = program_from_source(src)
    calls = 0
    original = _ClauseFormatter.format_clause

    def counting(self, clause):
        nonlocal calls
        calls += 1
        return original(self, clause)

    monkeypatch.setattr(_ClauseFormatter, "format_clause", counting)
    canonical, divergence = check_format(src, program)
    assert canonical is False
    assert (divergence.start_line, divergence.start_col) == (2, 1)
    assert calls == 1
    format_program(program)
    assert calls == 51
