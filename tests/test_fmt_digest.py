"""Formatter output under non-default settings, pinned by digest.

The benchmark and the formatter tests run ``fmt`` with the default indent
and widths only.  Each case here runs ``prolint fmt --config CFG FILE``
through ``cli.main`` on every file of the formatter corpus plus 60 seeded
``gen_file`` outputs, and compares a sha256 of each run's exit code,
stdout and stderr with the digest recorded before the formatter read its
settings from ``Config`` directly.  A changed digest means the formatter
reads some setting differently.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from prolint.cli import main

from gen import gen_file
from test_formatter import formatter_corpus

CONFIGS = {
    "indent_2": "indent_size = 2\n",
    "narrow_short_comments": "max_line_length = 40\n"
                             "eol_comment_max = 10\n",
    "indent_8_wide": "indent_size = 8\n"
                     "max_line_length = 100\n",
}

DIGESTS = {
    "indent_2":
        "33a3c52a83d9cffa987dc149295017e2d7884653a63503b422a2d2d46f23c917",
    "narrow_short_comments":
        "aab0dc6d759a001155888d1798f527ba7675ed6fa90b2aefaac9afb798870644",
    "indent_8_wide":
        "656f6b4907cb78a6c44686ab91502f2d2d40cf9930514ddbac8f6ad1722f7091",
}


def corpus() -> dict[str, str]:
    files = formatter_corpus()
    rng = random.Random(6060)
    for index in range(60):
        files[f"seeded_{index:02d}.pl"] = gen_file(rng)
    return files


def fmt_digest(config_text: str, tmp_path, monkeypatch, capsys) -> str:
    monkeypatch.chdir(tmp_path)
    (tmp_path / "style.cfg").write_text(config_text, encoding="utf-8")
    hasher = hashlib.sha256()
    for name, text in sorted(corpus().items()):
        (tmp_path / name).write_text(text, encoding="utf-8")
        code = main(["fmt", "--config", "style.cfg", name])
        out, err = capsys.readouterr()
        hasher.update(f"{name}\0{code}\0{out}\0{err}\0".encode("utf-8"))
    return hasher.hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_fmt_output_under_non_default_config_is_pinned(
        name, tmp_path, monkeypatch, capsys):
    assert fmt_digest(CONFIGS[name], tmp_path, monkeypatch, capsys) \
        == DIGESTS[name]
