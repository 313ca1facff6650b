"""Output checks and the behaviour fingerprint.

Every check is run on every file of a workload and recorded by name; a
failure names the file and the check.  The checks mirror the test suite's
invariants:

* ``lossless_scan``: tokens plus the layout between them rebuild the file
  (as ``tests/test_source_model.py::_assert_lossless``).
* ``parses``, ``idempotent``, ``structure``, ``comments``: the formatter
  contract of ``tests/test_formatter.py::_assert_formatting_contract``,
  applied to the text ``fmt --write`` actually wrote.
* ``singletons``: the I04 singleton findings of ``check --format json``
  equal the token-counting oracle ``tests/oracles.py``.
* ``no_e99``: no rule family crashed.
* ``planted.<rule>``: each defect the library generator planted is found.
* ``fmt_check_after_write``: ``fmt --check`` accepts what ``fmt --write``
  wrote.
"""

from __future__ import annotations

import hashlib
import json
import os
from bisect import bisect_left
from pathlib import Path

from prolint.formatter import format_program
from prolint.reader import program_from_source, structurally_equal
from prolint.source_model import TokenKind, scan, source_from_text

from oracles import singleton_names_from_tokens

_COMMENT_KINDS = (TokenKind.LINE_COMMENT, TokenKind.BLOCK_COMMENT)


class CheckLog:
    """Counts checks attempted and keeps the failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, check: str, where: str, ok: bool,
               detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{check} {where}"
                                 + (f": {detail}" if detail else ""))
        return ok


def relative_check_json(output: str, root: Path) -> list[dict]:
    """The diagnostics of ``check --format json`` with paths made relative
    to the workload root, so that temp-directory names do not matter."""
    diagnostics = json.loads(output)["diagnostics"]
    for diag in diagnostics:
        diag["path"] = os.path.relpath(diag["path"], root).replace(os.sep, "/")
    return diagnostics


def fingerprint(diagnostics: list[dict], formatted: dict[str, str]) -> str:
    """sha256 over the relative check JSON and every formatted text."""
    digest = hashlib.sha256()
    digest.update(json.dumps(diagnostics, sort_keys=True).encode("utf-8"))
    for relpath in sorted(formatted):
        digest.update(b"\0" + relpath.encode("utf-8") + b"\0")
        digest.update(formatted[relpath].encode("utf-8"))
    return digest.hexdigest()


def _lossless(text: str, tokens) -> str:
    position = 0
    rebuilt = []
    for token in tokens:
        gap = text[position:token.span.byte_start]
        if gap.strip():
            return f"non-layout text between tokens: {gap[:40]!r}"
        if text[token.span.byte_start:token.span.byte_end] != token.text:
            return f"token text differs at byte {token.span.byte_start}"
        rebuilt.append(gap)
        rebuilt.append(token.text)
        position = token.span.byte_end
    tail = text[position:]
    if tail.strip():
        return f"non-layout tail {tail[:40]!r}"
    rebuilt.append(tail)
    return "" if "".join(rebuilt) == text else "reconstruction differs"


def _comment_texts(tokens) -> dict[str, int]:
    out: dict[str, int] = {}
    for token in tokens:
        if token.kind in _COMMENT_KINDS:
            key = token.text.rstrip()
            out[key] = out.get(key, 0) + 1
    return out


def _structure(before_items, after_items) -> str:
    if len(before_items) != len(after_items):
        return f"{len(before_items)} clauses became {len(after_items)}"
    for before, after in zip(before_items, after_items):
        if before.kind != after.kind:
            return f"clause at line {before.span.start_line} changed kind"
        for part in ("head", "body"):
            a, b = getattr(before, part), getattr(after, part)
            if (a is None) != (b is None) or \
                    (a is not None and not structurally_equal(a, b)):
                return f"clause at line {before.span.start_line} changed"
    return ""


def check_file(log: CheckLog, relpath: str, text: str, written: str,
               diagnostics: list[dict]) -> None:
    """Run the per-file checks on ``text`` (the input), ``written`` (what
    ``fmt --write`` left) and the file's check diagnostics."""
    src = source_from_text(text, relpath)
    tokens, _ = scan(src)
    log.record("lossless_scan", relpath, *_verdict(_lossless(text, tokens)))

    program = program_from_source(src)
    log.record("no_e99", relpath,
               not any(d["rule"] == "E99" for d in diagnostics))
    if not log.record("parses", relpath, not program.syntax_diagnostics,
                      str(program.syntax_diagnostics[:1])):
        return

    # I04 findings against the oracle, matched by variable position.  The
    # oracle gets only the clause's own tokens, found by bisection.
    variables = {(t.span.start_line, t.span.start_col): t.text
                 for t in tokens if t.kind == TokenKind.VARIABLE}
    starts = [t.span.byte_start for t in tokens]
    expected = set()
    for clause in program.items:
        first, last = clause.span.byte_start, clause.span.byte_end
        own = tokens[bisect_left(starts, first):bisect_left(starts, last)]
        names = singleton_names_from_tokens(own, first, last)
        expected.update((t.span.start_line, t.span.start_col) for t in own
                        if t.kind == TokenKind.VARIABLE and t.text in names)
    found = {(d["line"], d["col"]) for d in diagnostics
             if d["rule"] == "I04"
             and not variables.get((d["line"], d["col"]), "_").startswith("_")}
    log.record("singletons", relpath, found == expected,
               f"missing {sorted(expected - found)[:3]} "
               f"extra {sorted(found - expected)[:3]}")

    again = program_from_source(source_from_text(written, relpath))
    if not log.record("parses_formatted", relpath,
                      not again.syntax_diagnostics):
        return
    log.record("idempotent", relpath, format_program(again) == written)
    log.record("structure", relpath,
               *_verdict(_structure(program.items, again.items)))
    log.record("comments", relpath,
               _comment_texts(tokens) == _comment_texts(again.tokens))


def _verdict(problem: str) -> tuple[bool, str]:
    return problem == "", problem


def check_plants(log: CheckLog, plants, diagnostics: list[dict]) -> None:
    found = {(d["path"], d["rule"], d["line"]) for d in diagnostics}
    for plant in plants:
        log.record(
            f"planted.{plant.rule}",
            f"{plant.path}:{plant.first_line}",
            any((plant.path, plant.rule, line) in found
                for line in range(plant.first_line, plant.last_line + 1)))
