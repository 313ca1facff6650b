"""The invariant that lets ``cli.main`` pause the cyclic collector: nothing
that scanning, reading, the rules or the formatter build holds a reference
cycle, so reference counting alone frees all of it.  Each test turns the
collector off, collects what came before, runs the pipeline the way the
CLI does, and expects ``gc.collect()`` to find no garbage."""

from __future__ import annotations

import gc
import random

from prolint import (
    Config,
    diagnostics,
    program_from_source,
    run,
    source_from_text,
)
from prolint.cli import main
from prolint.formatter import check_format, format_program

from gen import gen_file
from test_formatter import formatter_corpus
from test_read_reference import SOUP


def _cyclic_garbage(texts: list[str], cfg: Config) -> int:
    """How many unreachable objects the pipeline over ``texts`` leaves for
    the cyclic collector; like the CLI, it formats only what reads without
    syntax errors."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for text in texts:
            src = source_from_text(text)
            program = program_from_source(src)
            run(src, program, cfg)
            if not program.syntax_diagnostics:
                format_program(program, cfg)
                check_format(src, program, cfg)
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


def assert_no_cycles(texts: list[str], cfg: Config | None = None) -> None:
    cfg = cfg or Config()
    if _cyclic_garbage(texts, cfg):
        culprit = next(t for t in texts if _cyclic_garbage([t], cfg))
        raise AssertionError(f"reference cycle left by {culprit!r}")


def _soup(count: int) -> list[str]:
    rng = random.Random(3)
    texts = []
    for _ in range(count):
        pieces = rng.choices(SOUP, k=rng.randrange(1, 30))
        separators = rng.choices([" ", "", "\n"], weights=[6, 3, 1],
                                 k=len(pieces))
        texts.append("".join(p + s for p, s in zip(pieces, separators)))
    return texts


def test_no_cycles_on_corpus():
    assert_no_cycles(list(formatter_corpus().values()))


def test_no_cycles_on_generated_files():
    assert_no_cycles([gen_file(random.Random(seed)) for seed in range(300)])


def test_no_cycles_on_token_soup():
    assert_no_cycles(_soup(3_000))


def _boom(facts):
    raise RuntimeError("boom")


def test_no_cycles_after_a_rule_raises(monkeypatch):
    monkeypatch.setitem(diagnostics.RULES, "L03", _boom)
    texts = list(formatter_corpus().values())[:20] + _soup(200)
    assert_no_cycles(texts)
    src = source_from_text(texts[0])
    assert "E99" in {d.rule_id
                     for d in run(src, program_from_source(src), Config())}


def test_no_cycles_from_cli_calls(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # no ./.prolint is read
    path = tmp_path / "a.pl"
    path.write_text(list(formatter_corpus().values())[0], encoding="utf-8")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        main(["rules"])  # builds the parser the later calls share
        gc.collect()
        main(["rules"])
        assert gc.collect() == 0
        main(["check", str(path)])
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
    capsys.readouterr()
