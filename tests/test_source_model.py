from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

import prolint
from prolint.layout_rules import _indent_width
from prolint.source_model import (
    MAX_INTEGER_DIGITS,
    TokenKind,
    load_source,
    scan,
    source_from_text,
)

from gen import gen_file


def kinds(tokens):
    return [t.kind for t in tokens]


def test_empty_input_has_no_lines():
    src = source_from_text("")
    assert src.line_texts == []
    assert src.line_starts == [0]


def test_leading_tab_line():
    src = source_from_text("\tfoo.\n  \t x\n")
    assert src.line_texts == ["\tfoo.", "  \t x"]
    # Layout rules count a tab as one column of indentation.
    assert [_indent_width(text) for text in src.line_texts] == [1, 4]


def test_blank_line_detection():
    src = source_from_text("a.\n   \n\nb.")
    assert src.line_texts == ["a.", "   ", "", "b."]
    assert src.line_starts == [0, 3, 7, 8]


def test_crlf_accepted():
    src = source_from_text("a.\r\nb.\r\n")
    assert src.line_texts == ["a.", "b."]
    assert src.line_starts == [0, 4, 8]
    tokens, diags = scan(src)
    assert diags == []
    assert [t.text for t in tokens] == ["a", ".", "b", "."]


def test_load_source_reads_file(tmp_path):
    target = tmp_path / "input.pl"
    target.write_text("foo(X).\n", encoding="utf-8")
    src = load_source(target)
    assert src.content == "foo(X).\n"
    assert src.path.endswith("input.pl")


def test_load_source_missing_file(tmp_path):
    with pytest.raises(OSError) as excinfo:
        load_source(tmp_path / "absent.pl")
    assert "absent.pl" in str(excinfo.value)


def test_load_source_rejects_non_text(tmp_path):
    target = tmp_path / "binary.pl"
    target.write_bytes(b"foo(\xff\xfe).\n")
    with pytest.raises(UnicodeDecodeError) as excinfo:
        load_source(target)
    assert excinfo.value.start == 4
    # After a byte-order mark the offset is still the byte's in the file.
    target.write_bytes(b"\xef\xbb\xbffoo(\xff\xfe).\n")
    with pytest.raises(UnicodeDecodeError) as excinfo:
        load_source(target)
    assert excinfo.value.start == 7


def test_scan_canonical_clause():
    tokens, diags = scan(source_from_text("foo(X)."))
    assert diags == []
    assert kinds(tokens) == [
        TokenKind.ATOM, TokenKind.OPEN_PAREN, TokenKind.VARIABLE,
        TokenKind.CLOSE_PAREN, TokenKind.END,
    ]
    assert [t.text for t in tokens] == ["foo", "(", "X", ")", "."]


def test_scan_character_code():
    tokens, _ = scan(source_from_text("0'a"))
    assert kinds(tokens) == [TokenKind.INTEGER]
    assert tokens[0].value == 97


@pytest.mark.parametrize("text,value", [
    ("0'\\n", 10),
    ("0'''", 39),
    ("0' ", 32),
    ("0x1F", 31),
    ("0o17", 15),
    ("0b101", 5),
])
def test_scan_integer_forms(text, value):
    tokens, _ = scan(source_from_text(text))
    assert tokens[0].kind == TokenKind.INTEGER
    assert tokens[0].value == value


def test_scan_float_forms():
    tokens, _ = scan(source_from_text("3.14 1.0e10 2.5e-3"))
    assert kinds(tokens) == [TokenKind.FLOAT] * 3
    assert tokens[0].value == 3.14
    assert tokens[2].value == 2.5e-3


def test_scan_non_decimal_digits_are_stray_characters():
    # isdigit() holds for these but int() rejects them: they must not reach
    # the number scanner.
    tokens, diags = scan(source_from_text("x(\u00b2, \u00b9, \u2460)."))
    assert [t.text for t in tokens if t.kind == TokenKind.PUNCTUATION] \
        == ["\u00b2", "\u00b9", "\u2460"]
    assert [d.rule_id for d in diags] == ["E01"] * 3
    assert "unexpected character" in diags[0].message
    # Other decimal digits still scan as numbers.
    tokens, diags = scan(source_from_text("x(\u0663, 1.5e\u00b2)."))
    assert (tokens[2].kind, tokens[2].value) == (TokenKind.INTEGER, 3)
    assert (tokens[4].kind, tokens[4].value) == (TokenKind.FLOAT, 1.5)
    assert diags == []


def test_scan_quoted_atom_verbatim():
    tokens, _ = scan(source_from_text("write('CPU time = ')"))
    quoted = [t for t in tokens if t.kind == TokenKind.QUOTED_ATOM]
    assert len(quoted) == 1
    assert quoted[0].text == "'CPU time = '"


def test_scan_quoted_atom_with_escapes():
    tokens, diags = scan(source_from_text(r"a('it''s', 'x\n', 'h\x41\t')."))
    assert diags == []
    quoted = [t.text for t in tokens if t.kind == TokenKind.QUOTED_ATOM]
    assert quoted == [r"'it''s'", r"'x\n'", r"'h\x41\t'"]


def test_scan_comments_are_tokens():
    text = "% line one\nfoo. /* block */ bar. % tail\n"
    tokens, _ = scan(source_from_text(text))
    comment_kinds = [t.kind for t in tokens
                     if t.kind in (TokenKind.LINE_COMMENT,
                                   TokenKind.BLOCK_COMMENT)]
    assert comment_kinds == [TokenKind.LINE_COMMENT, TokenKind.BLOCK_COMMENT,
                             TokenKind.LINE_COMMENT]


def test_unterminated_quote_stops_scan():
    tokens, diags = scan(source_from_text("foo('oops.\nbar(1).\n"))
    assert tokens[-1].kind == TokenKind.ERROR
    assert tokens[-1].span.byte_end == len("foo('oops.\nbar(1).\n")
    assert len(diags) == 1
    assert "unterminated" in diags[0].message


def test_unterminated_quote_with_many_escapes_fails_fast():
    # Each \x escape may end at its backslash or before it; a pattern
    # that backtracks over that choice takes exponential time to fail.  The
    # scan runs in a child process so that such a regression times out
    # instead of hanging the suite.
    code = (
        "from prolint.source_model import scan, source_from_text\n"
        "for q in '\\'\"`':\n"
        "    text = 'a(' + q + '\\\\x1' * 40 + '\\\\0 ' * 40 + 'b.\\n'\n"
        "    tokens, diags = scan(source_from_text(text))\n"
        "    print(tokens[-1].kind.name, tokens[-1].span.byte_end == len(text),"
        " diags[0].message)\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(prolint.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "ERROR True unterminated quoted atom",
        "ERROR True unterminated string",
        "ERROR True unterminated back-quoted string",
    ]


def test_unterminated_block_comment():
    tokens, diags = scan(source_from_text("a. /* no close\nb.\n"))
    assert tokens[-1].kind == TokenKind.ERROR
    assert len(diags) == 1
    assert "block comment" in diags[0].message


def test_stray_character_reported_but_scan_continues():
    tokens, diags = scan(source_from_text("a. ¤ b.\n"))
    assert TokenKind.PUNCTUATION in kinds(tokens)
    assert len(diags) == 1
    assert [t.text for t in tokens if t.kind == TokenKind.ATOM] == ["a", "b"]


def test_end_token_requires_following_layout():
    tokens, _ = scan(source_from_text("a.b."))
    # "a.b" contains no end token after a; the '.' is a graphic atom there.
    assert kinds(tokens) == [TokenKind.ATOM, TokenKind.ATOM, TokenKind.ATOM,
                             TokenKind.END]


def _assert_lossless(text: str) -> None:
    src = source_from_text(text)
    tokens, _ = scan(src)
    position = 0
    rebuilt = []
    for token in tokens:
        gap = src.content[position:token.span.byte_start]
        assert gap.strip() == "", f"non-layout text between tokens: {gap!r}"
        rebuilt.append(gap)
        assert src.content[token.span.byte_start:token.span.byte_end] \
            == token.text
        rebuilt.append(token.text)
        position = token.span.byte_end
    tail = src.content[position:]
    assert tail.strip() == ""
    rebuilt.append(tail)
    assert "".join(rebuilt) == src.content


def test_lossless_reconstruction_samples():
    _assert_lossless("foo(X) :- bar(X, [a, b|T]), X is 1 + 2.\n")
    _assert_lossless("% c\n/* b */ a('q w', \"str\", 0'x).  % t\n")
    _assert_lossless(":- op(700, xfx, ===).\na === [1,2,3].\n")


def test_lossless_reconstruction_fuzz():
    rng = random.Random(417)
    for _ in range(25):
        _assert_lossless(gen_file(rng))


def test_scan_deterministic():
    text = "p(X) :- q(X), r([a|X]).  % note\n"
    first, _ = scan(source_from_text(text))
    second, _ = scan(source_from_text(text))
    assert [(t.kind, t.text, t.span) for t in first] \
        == [(t.kind, t.text, t.span) for t in second]


def test_tokens_ordered_and_non_overlapping():
    tokens, _ = scan(source_from_text("a(1). b(2). % c\n"))
    for before, after in zip(tokens, tokens[1:]):
        assert before.span.byte_end <= after.span.byte_start


def test_line_texts_invariants_fuzz():
    rng = random.Random(31)
    for _ in range(20):
        text = gen_file(rng)
        if rng.random() < 0.5:
            text = text.replace("\n", "\r\n")
        src = source_from_text(text)
        assert len(src.line_starts) == text.count("\n") + 1
        assert len(src.line_texts) \
            == len(src.line_starts) - text.endswith("\n")
        for start, line in zip(src.line_starts, src.line_texts):
            end = text.find("\n", start)
            assert text[start:end if end >= 0 else len(text)] \
                .removesuffix("\r") == line
            assert _indent_width(line) <= len(line)


def test_over_long_integer_is_one_error_and_scanning_goes_on():
    bound = MAX_INTEGER_DIGITS
    text = f"x({'1' * bound}, {'2' * (bound + 1)}, {'3' * 5000}.5). y.\n"
    tokens, diags = scan(source_from_text(text))
    assert tokens[2].value == int("1" * bound)
    assert (tokens[4].kind, tokens[4].value) == (TokenKind.PUNCTUATION, None)
    assert tokens[4].span.byte_end - tokens[4].span.byte_start == bound + 1
    assert tokens[6].kind == TokenKind.FLOAT
    assert [t.text for t in tokens[-3:]] == [".", "y", "."]
    assert [(d.rule_id, d.span, d.message) for d in diags] == [
        ("E01", tokens[4].span, f"integer has more than {bound} digits")]
