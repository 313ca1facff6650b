"""Metamorphic checks: how the diagnostics must change when the input or the
configuration changes in a known way, over seeded programs, and what
formatting must keep.

The programs are the benchmark's library modules at seed 1 and 100
``gen_file`` outputs.  Each is read once; ``run`` then lints the same
``Program`` under each configuration, as the properties need; the
odd-config gate lints and formats the first 100 under 600 configs.  The
suppression and ``fmt``-invariance gates run over the library modules and
``gen_file(random.Random(i))`` for i < 300, as do the gates that their
CRLF twins lint and format as they do, and that their twins and those of
their canonical outputs, with CRLF line ends, a byte-order mark or both,
check as the LF file and are written back in their own form.  The round
trip through ``fmt`` runs over seeded token soup and over seeded bodies
that nest control constructs and data up to 64 levels deep; the same
bodies with comments planted between their goals keep their structure and
comments.
"""

from __future__ import annotations

import importlib.util
import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from prolint import (
    REGISTRY,
    Config,
    Diagnostic,
    Severity,
    check_format,
    format_program,
    load_config,
    program_from_source,
    run,
    source_from_text,
    structurally_equal,
)
from prolint.cli import _configure, build_parser, main
from prolint.diagnostics import _SCALAR_KEYS, NON_SUPPRESSIBLE
from prolint.source_model import TokenKind

from gen import gen_file
from test_formatter import comment_texts
from test_read_reference import SOUP

_WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" \
    / "workloads.py"


def _library_modules() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  _WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    rng = random.Random(1)
    return [workloads.make_library_module(rng, index)[0]
            for index in range(workloads.LIBRARY_MODULES)]


@pytest.fixture(scope="module")
def programs():
    rng = random.Random(2024)
    texts = _library_modules() + [gen_file(rng) for _ in range(100)]
    out = []
    for index, text in enumerate(texts):
        src = source_from_text(text, f"m{index:03d}.pl")
        out.append((src, program_from_source(src)))
    return out


_PARSER = build_parser()


def _config(*flags: str):
    """The Config that ``prolint check FLAGS`` runs with."""
    cfg, code = _configure(_PARSER.parse_args(["check", *flags, "x.pl"]))
    assert code == 0
    return cfg


def _picked_rules(programs) -> list[tuple]:
    """Each program with its default diagnostics and one rule id: mostly one
    that fires on it, sometimes one that does not."""
    rng = random.Random(7)
    suppressible = sorted(set(REGISTRY) - NON_SUPPRESSIBLE)
    default = _config()
    picked = []
    for src, program in programs:
        base = run(src, program, default)
        fired = sorted({d.rule_id for d in base} - NON_SUPPRESSIBLE)
        pool = fired if fired and rng.random() < 0.8 else suppressible
        picked.append((src, program, base, rng.choice(pool)))
    return picked


def _with_severity(d: Diagnostic, severity: Severity) -> Diagnostic:
    """A copy of ``d`` with ``severity``, every other field the same."""
    return Diagnostic(d.rule_id, severity, d.span, d.message, d.suggestion,
                      d.predicate, d.path)


def test_config_algebra(programs, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # no ./.prolint reaches the configs
    picked = _picked_rules(programs)
    assert sum(rule_id in {d.rule_id for d in base}
               for _, _, base, rule_id in picked) >= len(picked) // 2
    for src, program, base, rule_id in picked:
        # --disable X removes exactly X's diagnostics.
        disabled = run(src, program, _config("--disable", rule_id))
        assert disabled == [d for d in base if d.rule_id != rule_id], \
            (src.path, rule_id)
        # --severity X=info changes only X's severities.
        lowered = run(src, program,
                      _config("--severity", f"{rule_id}=info"))
        assert lowered == [_with_severity(d, Severity.INFO)
                           if d.rule_id == rule_id else d
                           for d in base], (src.path, rule_id)


@pytest.fixture(scope="module")
def gate_programs():
    """Each gate program's source, ``Program`` and default diagnostics."""
    texts = _library_modules() \
        + [gen_file(random.Random(seed)) for seed in range(300)]
    out = []
    for index, text in enumerate(texts):
        src = source_from_text(text, f"g{index:03d}.pl")
        program = program_from_source(src)
        out.append((src, program, run(src, program, Config())))
    return out


def _placed(d) -> tuple:
    """A diagnostic by line and column: the byte offsets after an edit
    move."""
    span = d.span
    return (d.rule_id, d.severity, span.start_line, span.start_col,
            span.end_line, span.end_col, d.message, d.predicate)


def test_suppression_comment_removes_exactly_its_rule_on_its_clause(
        gate_programs):
    """Appending ``% prolint: allow X`` to a clause's first line, where X
    fires in that clause, removes exactly the X diagnostics on the lines of
    the clauses starting on that line.  L03 is left out: the comment
    lengthens the line."""
    rng = random.Random(5)
    trials = 0
    for src, program, base in gate_programs:
        # A line that ends inside a token would take the comment into it.
        crossed = {line for token in program.tokens
                   for line in range(token.span.start_line,
                                     token.span.end_line)}
        picks = sorted({(clause.span.start_line, d.rule_id)
                        for clause in program.items for d in base
                        if clause.span.start_line not in crossed
                        and d.rule_id not in NON_SUPPRESSIBLE
                        and d.rule_id != "L03"
                        and clause.span.start_line <= d.span.start_line
                        <= clause.span.end_line})
        if not picks:
            continue
        trials += 1
        line, rule_id = rng.choice(picks)
        lines = src.content.split("\n")
        lines[line - 1] += f"  % prolint: allow {rule_id}"
        changed = source_from_text("\n".join(lines), src.path)
        after = run(changed, program_from_source(changed), Config())
        allowed = {covered for clause in program.items
                   if clause.span.start_line == line
                   for covered in range(line, clause.span.end_line + 1)}
        want = [_placed(d) for d in base if d.rule_id != "L03"
                and not (d.rule_id == rule_id
                         and d.span.start_line in allowed)]
        assert [_placed(d) for d in after if d.rule_id != "L03"] == want, \
            (src.path, line, rule_id)
    assert trials >= 300


def _rule_findings(diags) -> Counter:
    """The N, D and I findings other than I07, by rule, message with its
    numbers masked, and predicate: what layout cannot change."""
    return Counter((d.rule_id, re.sub(r"\d+", "#", d.message), d.predicate)
                   for d in diags
                   if d.rule_id[0] in "NDI" and d.rule_id != "I07")


def test_fmt_keeps_the_naming_doc_and_idiom_findings(gate_programs):
    for src, program, base in gate_programs:
        assert not program.syntax_diagnostics, src.path
        formatted = source_from_text(format_program(program), src.path)
        after = run(formatted, program_from_source(formatted), Config())
        assert _rule_findings(after) == _rule_findings(base), src.path


def test_crlf_twin_reads_and_formats_as_the_lf_file(gate_programs):
    """Each gate file with CRLF line ends gives the same diagnostics, by
    rule, line, column and message, and the same ``fmt`` output as with
    LF ends."""
    for src, program, base in gate_programs:
        twin = source_from_text(src.content.replace("\n", "\r\n"),
                                src.path)
        twin_program = program_from_source(twin)
        assert _located(run(twin, twin_program, Config())) \
            == _located(base), src.path
        assert format_program(twin_program) == format_program(program), \
            src.path


def _located(diags) -> Counter:
    return Counter((d.rule_id, d.span.start_line, d.span.start_col,
                    d.message) for d in diags)


#: A file's mark and line end: LF, CRLF, BOM and BOM+CRLF.
FORMS = [("", "\n"), ("", "\r\n"), ("\ufeff", "\n"), ("\ufeff", "\r\n")]


def _twin(text: str, form: tuple[str, str]) -> str:
    mark, newline = form
    return mark + text.replace("\n", newline)


def test_twins_check_as_the_lf_file(gate_programs):
    """Each gate file and its canonical output, with CRLF line ends, a
    byte-order mark or both, gets the LF file's ``check_format`` verdict
    and span, and no token or line of a CRLF twin holds a CRLF."""
    for src, program, _ in gate_programs:
        output = format_program(program)
        read_output = source_from_text(output, src.path)
        for lf, lf_program in ((src, program),
                               (read_output,
                                program_from_source(read_output))):
            want = check_format(lf, lf_program)
            for form in FORMS[1:]:
                twin = source_from_text(_twin(lf.content, form), src.path)
                twin_program = program_from_source(twin)
                assert check_format(twin, twin_program) == want, \
                    (src.path, form)
                assert not any("\r\n" in token.text
                               for token in twin_program.tokens)
                assert not any("\r\n" in line for line in twin.line_texts)


def _first_difference(before: bytes, after: bytes) -> tuple[int, int]:
    """The line and column of the first character where two files' texts
    differ, counted after any mark."""
    old, new = (data.decode("utf-8").removeprefix("\ufeff")
                for data in (before, after))
    at = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b),
              min(len(old), len(new)))
    return old.count("\n", 0, at) + 1, at - old.rfind("\n", 0, at)


def test_fmt_check_fails_exactly_where_fmt_write_changes_bytes(
        gate_programs, tmp_path, capsys):
    """The gate files and their canonical outputs in the four forms, and
    each output with one line end other than its first: ``fmt --write``
    writes each file's form of the LF output, and ``fmt --check`` reports
    exactly the files that it changes, at the first character it changes."""
    rng = random.Random(26)
    files: dict[Path, tuple[bytes, bytes]] = {}  # before, after the write
    for index, (src, program, _) in enumerate(gate_programs):
        output = format_program(program)
        for name, text in (("in", src.content), ("out", output)):
            for number, form in enumerate(FORMS):
                files[tmp_path / f"{index:03d}_{name}_{number}.pl"] = (
                    _twin(text, form).encode(), _twin(output, form).encode())
        ends = [i for i, char in enumerate(output) if char == "\n"]
        if len(ends) < 2:
            continue
        at = rng.choice(ends[1:])
        for first, other in (("\n", "\r\n"), ("\r\n", "\n")):
            mixed = output[:at].replace("\n", first) + other \
                + output[at + 1:].replace("\n", first)
            files[tmp_path / f"{index:03d}_mixed_{len(first)}.pl"] = (
                mixed.encode(), output.replace("\n", first).encode())
    for path, (before, _) in files.items():
        path.write_bytes(before)

    assert main(["fmt", "--check", str(tmp_path)]) == 1
    reported = {}
    for line in capsys.readouterr().out.splitlines():
        match = re.fullmatch(r"(.*): needs formatting "
                             r"\(first difference at (\d+):(\d+)\)", line)
        reported[Path(match[1])] = (int(match[2]), int(match[3]))
    assert main(["fmt", "--write", str(tmp_path)]) == 0
    changed = {}
    for path, (before, after) in files.items():
        assert path.read_bytes() == after, path
        if after != before:
            changed[path] = _first_difference(before, after)
    assert reported == changed
    assert sum("mixed" in path.name for path in changed) > 600


def test_enabling_n06_only_adds_n06(gate_programs):
    cfg = _config("--enable", "N06")
    added = 0
    for src, program, base in gate_programs:
        after = run(src, program, cfg)
        assert [d for d in after if d.rule_id != "N06"] == base, src.path
        added += len(after) - len(base)
    assert added > 0


def test_blank_line_after_each_clause_end_keeps_the_findings(gate_programs):
    """A blank line after each line whose last token is a clause's end
    leaves the N, D and I findings alone.  After any line ending in ``.``
    it would part a doc comment that ends in ``.`` from its clause, where
    D01 is right to change."""
    for src, program, base in gate_programs:
        tokens = program.tokens
        ends = {token.span.end_line for token, after
                in zip(tokens, tokens[1:] + [None])
                if token.kind is TokenKind.END
                and (after is None
                     or after.span.start_line > token.span.end_line)}
        lines = src.content.split("\n")
        spaced = "\n".join(line + "\n" if number in ends else line
                           for number, line in enumerate(lines, 1))
        changed = source_from_text(spaced, src.path)
        after = run(changed, program_from_source(changed), Config())
        assert _rule_findings(after) == _rule_findings(base), src.path


#: Values no scalar key should be given: zero, negatives, a value past
#: every bound, nothing, an unclosed regular expression, digits of another
#: script and other near misses.
_ODD_VALUES = ["0", "-1", str(10**9), "", "api_(", "٣", "٣٣٣", "²", "-0",
               "1e9", "0x10", "nan", "true", ",", ",,", "a,,b", "*", "[",
               "/1", "p/٣", " ", "é"]


def test_odd_config_values_never_crash(programs):
    """600 seeded configs, each setting 1 to 3 scalar keys to odd values:
    the config loads without raising (its problems become C01s), no rule
    raises into an E99 under it, and ``fmt`` does not raise."""
    rng = random.Random(11)
    keys = sorted(_SCALAR_KEYS)
    for index in range(600):
        text = "".join(f"{key} = {rng.choice(_ODD_VALUES)}\n"
                       for key in rng.sample(keys, rng.randint(1, 3)))
        cfg = load_config(text)
        src, program = programs[index % 100]
        assert not [d for d in run(src, program, cfg)
                    if d.rule_id == "E99"], (text, src.path)
        format_program(program, cfg)


def _assert_fmt_round_trip(text: str, program) -> None:
    """``fmt``'s output reads back without syntax errors to the same
    clauses and formats to itself."""
    once = format_program(program)
    again = _reread_same_clauses(text, program, once)
    assert format_program(again) == once, (text, once)


def _reread_same_clauses(text: str, program, once: str):
    """The program ``fmt``'s output ``once`` reads back to, without syntax
    errors and with the clauses of ``program``."""
    again = program_from_source(source_from_text(once))
    assert not again.syntax_diagnostics, (text, once)
    assert [c.kind for c in again.items] \
        == [c.kind for c in program.items], (text, once)
    for before, after in zip(program.items, again.items):
        for part in ("head", "body"):
            a, b = getattr(before, part), getattr(after, part)
            assert (a is None) == (b is None), (text, once)
            assert a is None or structurally_equal(a, b), (text, once)
    return again


def test_fmt_round_trip_on_token_soup():
    rng = random.Random(1)
    checked = 0
    for _ in range(3_000):
        text = " ".join(rng.choices(SOUP, k=rng.randrange(1, 14))) + " .\n"
        program = program_from_source(source_from_text(text))
        if program.syntax_diagnostics:
            continue
        checked += 1
        _assert_fmt_round_trip(text, program)
    assert checked >= 200


#: One nesting level each: ``{g}`` is the goal nested so far, ``{o}`` a
#: shallow sibling goal.
_LEVELS = [
    "( {g} ; {o} )", "( {o} ; {g} )", "( {g} -> {o} ; {o} )",
    "( {o} -> {g} ; {o} )", "( {o} -> {g} )", "( {o} *-> {g} ; {o} )",
    "( {g} *-> {o} )", "( {o}, {g} )", "( {g}, {o} )",
    "\\+ ( {g} )", "( repeat, {o}, {g}, ! )", "findall(X, ( {g} ), L)",
    "forall(member(X, [{o}, ( {g} )|T]), {o})", "f(g(X), [( {g} )])",
]
_LEAVES = ["a", "b(X)", "!", "true", "X = [Y|Z]", "c(X, \"s\")", "d(1.5)",
           "X == - Y", "write(X)", "nl"]


def _deep_program(rng: random.Random, depth: int) -> str:
    """A directive or a rule whose goal nests ``depth`` levels deep."""
    goal = rng.choice(_LEAVES)
    for template in rng.choices(_LEVELS, k=depth):
        goal = template.replace("{g}", goal) \
            .replace("{o}", rng.choice(_LEAVES))
    if depth % 2:
        return f":- {goal}.\n"
    return f"p(X, L) :- {rng.choice(_LEAVES)}, {goal}.\n"


def test_fmt_round_trip_at_growing_depth():
    rng = random.Random(64)
    for index in range(300):
        text = _deep_program(rng, 1 + index % 64)
        program = program_from_source(source_from_text(text))
        assert not program.syntax_diagnostics, text
        _assert_fmt_round_trip(text, program)


#: A short line comment, a block comment, and a line comment too long to
#: stay at the end of a line (80 characters).
_PLANTS = ["% step\n", "/* alt */ ", "%" + " long comment" * 6 + ".\n"]


def _planted(rng: random.Random, text: str) -> str:
    """``text`` with comments planted after some commas and before some
    `` ; ``."""
    pieces = re.split(r"(, | ; )", text)
    for index, piece in enumerate(pieces):
        if piece in (", ", " ; ") and rng.random() < 0.3:
            plant = rng.choice(_PLANTS)
            pieces[index] = ", " + plant if piece == ", " \
                else " " + plant + "; "
    return "".join(pieces)


def test_fmt_keeps_comments_planted_at_growing_depth():
    rng, plants = random.Random(64), random.Random(8)
    for index in range(300):
        text = _planted(plants, _deep_program(rng, 1 + index % 64))
        program = program_from_source(source_from_text(text))
        assert not program.syntax_diagnostics, text
        once = format_program(program)
        again = _reread_same_clauses(text, program, once)
        assert comment_texts(once) == comment_texts(text), (text, once)
        assert format_program(again) == once, (text, once)


#: Default; narrow with short end-of-line comments; indent 2; indent 8 at
#: width 30; width 100.
_PLANT_CONFIGS = [
    Config(), Config(max_line_length=40, eol_comment_max=10),
    Config(indent_size=2, max_line_length=60),
    Config(indent_size=8, max_line_length=30, eol_comment_max=5),
    Config(max_line_length=100),
]
_BOUNDARY_PLANTS = [" % c\n", " /* alt */ ", " " + _PLANTS[2],
                    " % prolint: allow I04\n"]
_NUMERALS = (TokenKind.INTEGER, TokenKind.FLOAT)


def _planted_at_boundaries(rng: random.Random, text: str, program) -> str:
    """``text`` with one to four comments planted between tokens, where
    they leave every token's reading alone: never between a name and the
    ``(`` right after it, nor between ``-`` and the numeral right after
    it."""
    tokens = program.tokens
    cuts = [left.span.byte_end for left, right in zip(tokens, tokens[1:])
            if left.span.byte_end < right.span.byte_start
            or not (right.kind is TokenKind.OPEN_PAREN
                    or left.text == "-" and right.kind in _NUMERALS)]
    for cut in sorted(rng.sample(cuts, min(len(cuts), rng.randint(1, 4))),
                      reverse=True):
        text = text[:cut] + rng.choice(_BOUNDARY_PLANTS) + text[cut:]
    return text


def test_fmt_keeps_comments_planted_at_token_boundaries():
    """Comments planted at token boundaries of ``gen_file`` programs read
    back with the same clauses and comment texts under each config, and
    ``fmt`` formats its output to itself."""
    rng = random.Random(16)
    for seed in range(150):
        plain = gen_file(random.Random(seed))
        before = program_from_source(source_from_text(plain))
        text = _planted_at_boundaries(rng, plain, before)
        # The plants change no clause.
        program = _reread_same_clauses(plain, before, text)
        for cfg in _PLANT_CONFIGS:
            once = format_program(program, cfg)
            again = _reread_same_clauses(text, program, once)
            assert comment_texts(once) == comment_texts(text), (text, once)
            assert format_program(again, cfg) == once, (text, cfg, once)
