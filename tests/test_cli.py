from __future__ import annotations

import gc
import io
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import prolint
from prolint import Config, cli
from prolint.cli import main

from snippets import SAME_LENGTH

#: Header + canonical predicate: produces no diagnostics at any severity.
CLEAN = "/* a tiny list utility */\n\n" + SAME_LENGTH

# indent is 7 spaces + 1 tab: 8 columns, so only L01 fires
TABBED = "/* header */\n\np :-\n       \tq.\n"


def _stdin(text: str) -> io.TextIOWrapper:
    """A stand-in for ``sys.stdin`` that holds ``text`` as UTF-8 bytes."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")),
                            encoding="utf-8")


def write(tmp_path, name, text):
    target = tmp_path / name
    target.write_text(text, encoding="utf-8")
    return str(target)


def test_check_clean_file_exits_zero(tmp_path, capsys):
    path = write(tmp_path, "clean.pl", CLEAN)
    assert main(["check", path]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""


def test_check_reports_and_exits_one(tmp_path, capsys):
    path = write(tmp_path, "bad.pl", TABBED)
    assert main(["check", path]) == 1
    out = capsys.readouterr().out
    assert "[L01]" in out
    assert out.startswith(path + ":")


def test_check_json_format(tmp_path, capsys):
    path = write(tmp_path, "bad.pl", TABBED)
    assert main(["check", "--format", "json", path]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["summary"]["warning"] >= 1
    assert any(e["rule"] == "L01" for e in document["diagnostics"])


def test_exit_code_same_for_both_formats(tmp_path, capsys):
    path = write(tmp_path, "bad.pl", TABBED)
    text_code = main(["check", path])
    capsys.readouterr()
    json_code = main(["check", "--format", "json", path])
    capsys.readouterr()
    assert text_code == json_code == 1


def test_text_and_json_same_diagnostic_set(tmp_path, capsys):
    path = write(tmp_path, "bad.pl", TABBED + "p :- a,b.\n")
    main(["check", path])
    text_out = capsys.readouterr().out
    main(["check", "--format", "json", path])
    json_out = capsys.readouterr().out
    from_text = {tuple(line.split(": ", 1)) for line in text_out.splitlines()}
    document = json.loads(json_out)
    from_json = {
        (f"{e['path']}:{e['line']}:{e['col']}",
         f"{e['severity']} [{e['rule']}] {e['message']}")
        for e in document["diagnostics"]
    }
    assert from_text == from_json


def test_fail_on_threshold_flips_exit(tmp_path):
    # L11 hint only: default threshold (warning) passes, hint threshold fails
    path = write(tmp_path, "hint_only.pl", SAME_LENGTH)
    assert main(["check", path]) == 0
    assert main(["check", "--fail-on", "hint", path]) == 1


def test_disable_rule_flag(tmp_path, capsys):
    path = write(tmp_path, "bad.pl", TABBED)
    assert main(["check", "--disable", "L01", path]) == 0
    assert "[L01]" not in capsys.readouterr().out


def test_enable_rule_flag(tmp_path, capsys):
    path = write(tmp_path, "n06.pl",
                 "/* header */\n\np([Tree|Xs]) :-\n    q(Tree, Xs).\n")
    assert main(["check", path]) == 0
    capsys.readouterr()
    main(["check", "--enable", "N06", "--fail-on", "hint", path])
    assert "[N06]" in capsys.readouterr().out


def test_severity_override_flag(tmp_path, capsys):
    path = write(tmp_path, "bad.pl", TABBED)
    assert main(["check", "--severity", "L01=hint", path]) == 0
    assert "hint [L01]" in capsys.readouterr().out


def test_severity_override_does_not_outlive_its_call(tmp_path, capsys):
    # The parser is built once per process, so its list default is shared.
    path = write(tmp_path, "bad.pl", TABBED)
    assert main(["check", "--severity", "L01=error", path]) == 1
    assert cli.build_parser().parse_args(["check", path]).severity == []
    main(["check", path])
    assert "warning [L01]" in capsys.readouterr().out


def test_config_file_discovered_by_flag(tmp_path, capsys):
    config = write(tmp_path, "lint.cfg", "rule.L01.enabled = false\n")
    path = write(tmp_path, "bad.pl", TABBED)
    assert main(["check", "--config", config, path]) == 0


def test_config_error_exits_two(tmp_path, capsys):
    config = write(tmp_path, "lint.cfg", "not a key value line\n")
    path = write(tmp_path, "clean.pl", CLEAN)
    assert main(["check", "--config", config, path]) == 2
    assert "malformed" in capsys.readouterr().err


def test_config_indent_size_zero_exits_two(tmp_path, capsys):
    config = write(tmp_path, "lint.cfg", "indent_size = 0\n")
    path = write(tmp_path, "clean.pl", CLEAN)
    assert main(["check", "--config", config, path]) == 2
    err = capsys.readouterr().err
    assert f"{config}:1:1: error [C01] bad value for indent_size" in err


def test_config_clause_lines_info_above_warn_exits_two(tmp_path, capsys):
    # The warn limit comes first, so the check must wait for every line.
    config = write(tmp_path, "lint.cfg", "clause_lines_warn = 10\n"
                   "# comment\nclause_lines_info = 20\n")
    path = write(tmp_path, "clean.pl", CLEAN)
    assert main(["check", "--config", config, path]) == 2
    err = capsys.readouterr().err
    assert f"{config}:3:1: error [C01] clause_lines_info (20) exceeds " \
        "clause_lines_warn (10)" in err


def test_config_max_line_length_zero_exits_two(tmp_path, capsys):
    config = write(tmp_path, "lint.cfg", "max_line_length = 0\n")
    path = write(tmp_path, "clean.pl", CLEAN)
    assert main(["check", "--config", config, path]) == 2
    err = capsys.readouterr().err
    assert f"{config}:1:1: error [C01] bad value for max_line_length" in err


def test_config_bad_public_name_pattern_exits_two(tmp_path, capsys):
    config = write(tmp_path, "lint.cfg", "public_name_pattern = api_(\n")
    path = write(tmp_path, "clean.pl", CLEAN)
    assert main(["check", "--config", config, path]) == 2
    err = capsys.readouterr().err
    assert f"{config}:1:1: error [C01] bad value for public_name_pattern" \
        in err


def test_indent_flag_zero_exits_two(tmp_path, capsys):
    path = write(tmp_path, "clean.pl", CLEAN)
    assert main(["check", "--indent", "0", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error [C01] bad value for --indent" in captured.err


def test_max_line_length_flag_zero_exits_two(tmp_path, capsys):
    path = write(tmp_path, "clean.pl", CLEAN)
    assert main(["fmt", "--max-line-length", "-3", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error [C01] bad value for --max-line-length" in captured.err


def test_config_unknown_key_warns_but_continues(tmp_path, capsys):
    config = write(tmp_path, "lint.cfg", "mystery = 1\n")
    path = write(tmp_path, "clean.pl", CLEAN)
    assert main(["check", "--config", config, path]) == 0
    assert "mystery" in capsys.readouterr().err


def test_unreadable_config_path_exits_two(tmp_path, capsys):
    path = write(tmp_path, "clean.pl", CLEAN)
    missing = str(tmp_path / "absent.cfg")
    assert main(["check", "--config", missing, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot read config" in captured.err


def test_unknown_severity_level_exits_two(tmp_path, capsys):
    path = write(tmp_path, "clean.pl", CLEAN)
    assert main(["check", "--severity", "I04=bogus", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown severity 'bogus'" in captured.err


def test_fmt_undecodable_file_exits_two_after_others(tmp_path, capsys):
    first = write(tmp_path, "a.pl", "a(1).   a(2).\n")
    undecodable = tmp_path / "b.pl"
    undecodable.write_bytes(b"p :- q('\xff\xfe').\n")
    last = write(tmp_path, "c.pl", "c :- d,e.\n")
    assert main(["fmt", first, str(undecodable), last]) == 2
    captured = capsys.readouterr()
    assert captured.out == "a(1).\na(2).\nc :-\n    d,\n    e.\n"
    assert str(undecodable) in captured.err


BOM = "\ufeff"


def _with_and_without_bom(tmp_path, text):
    """The paths of ``text`` written with a byte-order mark and without."""
    return (write(tmp_path, "marked.pl", BOM + text),
            write(tmp_path, "plain.pl", text))


def test_check_reads_past_a_byte_order_mark(tmp_path, capsys):
    marked, plain = _with_and_without_bom(tmp_path, TABBED + "q :- r,s.\n")
    outputs = []
    for path in (marked, plain):
        assert main(["check", "--format", "json", path]) == 1
        diags = json.loads(capsys.readouterr().out)["diagnostics"]
        outputs.append([{**d, "path": None} for d in diags])
    assert outputs[0] == outputs[1]
    assert {d["rule"] for d in outputs[0]} >= {"L01"}
    assert not any(d["rule"] in ("E01", "E02") for d in outputs[0])


def test_stdin_check_reads_past_a_byte_order_mark(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", _stdin(BOM + TABBED))
    assert main(["check", "-"]) == 1
    out = capsys.readouterr().out
    assert "[L01]" in out and "[E01]" not in out and "[E02]" not in out


def test_fmt_check_agrees_with_and_without_a_byte_order_mark(tmp_path,
                                                             capsys):
    for text, code in ((CLEAN, 0), (TABBED, 1)):
        for path in _with_and_without_bom(tmp_path, text):
            assert main(["fmt", "--check", path]) == code, (text, path)
        capsys.readouterr()


def test_fmt_write_keeps_the_byte_order_mark(tmp_path):
    marked, plain = _with_and_without_bom(tmp_path, "q :- r,s.\n")
    assert main(["fmt", "--write", marked, plain]) == 0
    assert Path(marked).read_text(encoding="utf-8") \
        == BOM + Path(plain).read_text(encoding="utf-8") \
        == BOM + "q :-\n    r,\n    s.\n"


def _write_bytes(tmp_path, name, data: bytes) -> str:
    target = tmp_path / name
    target.write_bytes(data)
    return str(target)


def test_fmt_leaves_a_canonical_crlf_file_alone(tmp_path, monkeypatch,
                                                capsys):
    data = b"p :-\r\n    q.\r\n"
    path = _write_bytes(tmp_path, "crlf.pl", data)
    assert main(["fmt", "--check", path]) == 0
    assert main(["fmt", "--write", path]) == 0
    assert Path(path).read_bytes() == data
    monkeypatch.setattr("sys.stdin", _stdin(data.decode()))
    assert main(["fmt", "--check", "-"]) == 0
    assert capsys.readouterr().out == ""


def test_fmt_write_keeps_the_line_ends_and_the_mark(tmp_path):
    for mark in ("", BOM):
        path = _write_bytes(tmp_path, "file.pl",
                            f"{mark}q :- r,s.\r\n".encode())
        assert main(["fmt", "--write", path]) == 0
        assert Path(path).read_bytes() \
            == f"{mark}q :-\r\n    r,\r\n    s.\r\n".encode()


def test_fmt_makes_mixed_line_ends_the_first_one(tmp_path, capsys):
    for first, other in (("\r\n", "\n"), ("\n", "\r\n")):
        path = _write_bytes(tmp_path, "mixed.pl",
                            f"p(1).{first}p(2).{other}p(3).{first}".encode())
        assert main(["fmt", "--check", path]) == 1
        assert capsys.readouterr().out \
            == f"{path}: needs formatting (first difference at 2:6)\n"
        assert main(["fmt", "--write", path]) == 0
        assert Path(path).read_bytes() \
            == f"p(1).{first}p(2).{first}p(3).{first}".encode()
        assert main(["fmt", "--check", path]) == 0


def test_fmt_keeps_a_lone_carriage_return(tmp_path):
    for newline in ("\n", "\r\n"):
        canonical = f"% a\rb{newline}p('x\ry').{newline}".encode()
        path = _write_bytes(tmp_path, "canonical.pl", canonical)
        assert main(["fmt", "--check", path]) == 0
        assert main(["fmt", "--write", path]) == 0
        assert Path(path).read_bytes() == canonical
        path = _write_bytes(tmp_path, "messy.pl",
                            f"p('x\ry'):-q.{newline}".encode())
        assert main(["fmt", "--write", path]) == 0
        assert Path(path).read_bytes() \
            == f"p('x\ry') :-{newline}    q.{newline}".encode()


def test_stdin_is_decoded_as_utf8_whatever_the_locale(tmp_path):
    data = "p(caféBar).\n".encode()
    path = _write_bytes(tmp_path, "u.pl", data)
    env = dict(os.environ, PYTHONIOENCODING="latin-1",
               PYTHONPATH=os.path.dirname(os.path.dirname(prolint.__file__)))
    runs = [subprocess.run(
        [sys.executable, "-m", "prolint.cli", "check", "--format", "json",
         name], input=data, env=env, capture_output=True, timeout=60)
        for name in (path, "-")]
    assert runs[0].returncode == runs[1].returncode
    found = [[{**d, "path": None} for d in json.loads(run.stdout)
              ["diagnostics"]] for run in runs]
    assert found[0] == found[1]
    assert not any(d["rule"] in ("E01", "E02") for d in found[1])


def test_undecodable_stdin_exits_two_as_the_file_does(tmp_path, monkeypatch,
                                                      capsys):
    data = b"p :- q('\xff').\n"
    path = _write_bytes(tmp_path, "b.pl", data)
    assert main(["check", path]) == 2
    from_file = capsys.readouterr()
    # As the interpreter's own stdin under the C locale decodes.
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
        io.BytesIO(data), encoding="utf-8", errors="surrogateescape"))
    assert main(["check", "-"]) == 2
    from_stdin = capsys.readouterr()
    assert from_file.out == from_stdin.out == ""
    assert from_stdin.err == from_file.err.replace(path, "-")
    assert from_stdin.err.startswith("prolint: -: 'utf-8' codec can't")


def test_fmt_write_failed_rename_keeps_the_original(tmp_path, capsys,
                                                    monkeypatch):
    messy = "q :- r,s.\n"
    path = write(tmp_path, "file.pl", messy)

    def refuse(source, target):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    assert main(["fmt", "--write", path]) == 2
    assert "rename refused" in capsys.readouterr().err
    assert (tmp_path / "file.pl").read_text(encoding="utf-8") == messy
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file.pl"]


def test_fmt_write_failed_chmod_closes_the_temp_file(tmp_path, capsys,
                                                    monkeypatch):
    messy = "q :- r,s.\n"
    path = write(tmp_path, "file.pl", messy)
    opened = []
    fdopen = os.fdopen

    def spy(*args, **kwargs):
        opened.append(fdopen(*args, **kwargs))
        return opened[-1]

    def refuse(fd, mode):
        raise OSError("chmod refused")

    monkeypatch.setattr(os, "fdopen", spy)
    monkeypatch.setattr(os, "fchmod", refuse)
    assert main(["fmt", "--write", path]) == 2
    assert "chmod refused" in capsys.readouterr().err
    assert [handle.closed for handle in opened] == [True]
    assert (tmp_path / "file.pl").read_text(encoding="utf-8") == messy
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file.pl"]


def test_fmt_write_formats_a_symlinks_target(tmp_path):
    """Directory expansion counts a symlinked file, so ``--write`` writes
    through the link: the link stays one, and its target keeps its mode."""
    (tmp_path / "real").mkdir()
    (tmp_path / "d").mkdir()
    target = tmp_path / "real" / "a.pl"
    target.write_text("q :- r,s.\n", encoding="utf-8")
    target.chmod(0o640)
    link = tmp_path / "d" / "b.pl"
    link.symlink_to(os.path.join("..", "real", "a.pl"))
    assert main(["fmt", "--write", str(tmp_path / "d")]) == 0
    assert link.is_symlink()
    assert os.readlink(link) == os.path.join("..", "real", "a.pl")
    assert target.read_text(encoding="utf-8") == "q :-\n    r,\n    s.\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert [p.name for p in (tmp_path / "real").iterdir()] == ["a.pl"]
    assert [p.name for p in (tmp_path / "d").iterdir()] == ["b.pl"]


def test_unreadable_file_exits_two_after_others(tmp_path, capsys):
    good = write(tmp_path, "bad.pl", TABBED)
    missing = str(tmp_path / "absent.pl")
    code = main(["check", good, missing])
    captured = capsys.readouterr()
    assert code == 2
    assert "[L01]" in captured.out  # the readable file was still processed
    assert "absent.pl" in captured.err


def test_directory_recursion_and_extension_filter(tmp_path, capsys):
    sub = tmp_path / "src"
    sub.mkdir()
    write(sub, "a.pl", TABBED)
    write(sub, "b.pro", TABBED)
    write(sub, "ignored.txt", TABBED)
    assert main(["check", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "a.pl" in out and "b.pro" in out and "ignored.txt" not in out


def _expand_with_rglob(raw_paths, cfg):
    """The path expansion that walked directories with ``Path.rglob``,
    naming each file once."""
    files = []
    for raw in raw_paths:
        if raw == "-":
            files.append("-")
            continue
        path = Path(raw)
        if path.is_dir():
            files.extend(str(p) for p in path.rglob("*")
                         if p.is_file() and p.suffix in cfg.extensions)
        else:
            files.append(str(path))
    return (["-"] if "-" in files else []) + sorted(
        {f for f in files if f != "-"})


def test_path_expansion_matches_rglob(tmp_path, monkeypatch):
    root = tmp_path / "root"
    deep = root / "sub" / "deeper"
    deep.mkdir(parents=True)
    (root / "x.pl").mkdir()  # a directory with a Prolog suffix
    names = ["a.pl", "b.pro", "c.prolog", "d.txt", "e.pl.bak", ".hidden.pl",
             ".pl", "trailing.", "sub/f.pl", "sub/deeper/g.pro",
             "x.pl/inner.pl"]
    for name in names:
        (root / name).write_text("p.\n", encoding="utf-8")
    (root / "link.pl").symlink_to(root / "a.pl")
    (root / "link.txt").symlink_to(root / "a.pl")
    (root / "broken.pl").symlink_to(root / "missing.pl")
    (root / "linked_dir").symlink_to(root / "sub", target_is_directory=True)
    (root / "linked_dir.pl").symlink_to(root / "sub",
                                        target_is_directory=True)
    cfg = Config()
    odd = Config()
    odd.extensions = (".pl", ".bak", ".")
    monkeypatch.chdir(tmp_path)
    for config in (cfg, odd):
        for raw in ([str(root)], [str(root) + "/"], ["root"], ["./root"],
                    ["-", "root/sub", "root/d.txt", "root"]):
            want = _expand_with_rglob(raw, config)
            assert cli._expand_paths(raw, config) == want, raw
    monkeypatch.chdir(root)
    assert cli._expand_paths(["."], cfg) == _expand_with_rglob(["."], cfg)
    got = cli._expand_paths(["."], cfg)
    assert "link.pl" in got and "broken.pl" not in got, got
    assert not any(path.startswith("linked_dir") for path in got), got
    assert "x.pl/inner.pl" in got and "x.pl" not in got, got


def test_a_file_named_twice_is_read_once(tmp_path, monkeypatch, capsys):
    (tmp_path / "ov").mkdir()
    write(tmp_path, "ov/a.pl", "p.\n")
    write(tmp_path, "d.pl", TABBED)
    monkeypatch.chdir(tmp_path)
    assert main(["check", "ov", "ov/a.pl", "./ov/a.pl"]) == 0
    assert capsys.readouterr().out.count("[L11]") == 1
    assert main(["check", "--format", "json", "ov", "./ov/a.pl"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert len(document["diagnostics"]) == 1
    assert document["summary"]["hint"] == 1
    assert main(["fmt", "--check", "d.pl", "./d.pl"]) == 1
    assert capsys.readouterr().out.count("d.pl: needs formatting") == 1
    assert cli._expand_paths(["d.pl", "-", "./d.pl", "-"], Config()) \
        == ["-", "d.pl"]


def test_non_decimal_digit_file_reported_with_the_others(tmp_path, capsys):
    write(tmp_path, "superscript.pl", "x(\u00b2).\n")
    write(tmp_path, "tabbed.pl", TABBED)
    assert main(["check", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "superscript.pl:1:3: error [E01]" in out
    assert "tabbed.pl" in out and "[L01]" in out
    assert main(["fmt", "--check", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "superscript.pl" in captured.out + captured.err
    assert "tabbed.pl" in captured.out


def test_over_long_integer_reported_with_the_others(tmp_path, capsys):
    write(tmp_path, "long.pl", "x(" + "1" * 5000 + ").\n")
    write(tmp_path, "tabbed.pl", TABBED)
    assert main(["check", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "long.pl:1:3: error [E01] integer has more than 640 digits" \
        in out
    assert "tabbed.pl" in out and "[L01]" in out


def test_integer_digit_bound_ignores_python_limit(tmp_path):
    # PYTHONINTMAXSTRDIGITS=640 makes int() refuse the 641-digit numeral
    # that the bound already turns into an E01.
    path = write(tmp_path, "long.pl",
                 f"x({'7' * 640}).\ny({'7' * 641}).\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(prolint.__file__)))
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    runs = []
    for limit in (None, "640"):
        if limit is not None:
            env["PYTHONINTMAXSTRDIGITS"] = limit
        runs.append(subprocess.run(
            [sys.executable, "-m", "prolint.cli", "check", "--format",
             "json", path], env=env, capture_output=True, text=True,
            timeout=60))
    assert runs[0].stderr == runs[1].stderr == ""
    assert runs[0].stdout == runs[1].stdout
    rules = [d["rule"] for d in json.loads(runs[0].stdout)["diagnostics"]]
    assert rules.count("E01") == 1


@pytest.mark.parametrize("command", ["check", "fmt"])
@pytest.mark.parametrize("key", ["indent_size", "max_line_length",
                                 "clause_lines_info", "clause_lines_warn",
                                 "eol_comment_max"])
def test_huge_integer_setting_exits_two(tmp_path, capsys, command, key):
    config = write(tmp_path, "lint.cfg", f"{key} = 1{'0' * 20}\n")
    path = write(tmp_path, "clean.pl", CLEAN)
    assert main([command, "--config", config, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{config}:1:1: error [C01] bad value for {key}: expected at " \
        "most 10000 in magnitude" in captured.err


@pytest.mark.parametrize("flag", ["--indent", "--max-line-length"])
def test_huge_integer_flag_exits_two(tmp_path, capsys, flag):
    path = write(tmp_path, "clean.pl", CLEAN)
    assert main(["fmt", flag, "1" + "0" * 20, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error [C01] bad value for {flag}: expected at most 10000" \
        in captured.err


@pytest.mark.parametrize("source", ["config", "flag", "allowlist"])
def test_integer_setting_bound_ignores_python_limit(tmp_path, source):
    # A 700-digit value is over PYTHONINTMAXSTRDIGITS=640 but under the
    # interpreter's default limit; either way it is the same C01.
    huge = "7" * 700
    path = write(tmp_path, "clean.pl", CLEAN)
    key, problem = {
        "config": ("indent_size", "expected at most 10000 in magnitude"),
        "flag": ("--indent", "expected at most 10000 in magnitude"),
        "allowlist": ("magic_number_allowlist",
                      "integer has more than 640 digits"),
    }[source]
    if source == "flag":
        args, where = [key, huge], "<command line>"
    else:
        config = write(tmp_path, "lint.cfg", f"{key} = {huge}\n")
        args, where = ["--config", config], config
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(prolint.__file__)))
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    runs = []
    for limit in (None, "640"):
        if limit is not None:
            env["PYTHONINTMAXSTRDIGITS"] = limit
        runs.append(subprocess.run(
            [sys.executable, "-m", "prolint.cli", "check", *args, path],
            env=env, capture_output=True, text=True, timeout=60))
    for done in runs:
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == f"{where}:1:1: error [C01] bad value for " \
            f"{key}: {problem}\n"


def test_long_chain_formatted_with_the_others(tmp_path, capsys):
    chain = " + ".join(["a"] * 1000)
    write(tmp_path, "a_chain.pl", f"p(X) :-\n    X = {chain}.\n")
    write(tmp_path, "b_tabbed.pl", TABBED)
    assert main(["fmt", "--check", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "a_chain.pl" not in captured.out + captured.err
    assert "b_tabbed.pl: needs formatting" in captured.out


def test_difference_before_long_chain_reported(tmp_path, capsys):
    chain = " + ".join(["a"] * 1000)
    path = write(tmp_path, "late_chain.pl",
                 f"p:-a.\n\nq(X) :-\n    X = {chain}.\n")
    assert main(["fmt", "--check", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == \
        f"{path}: needs formatting (first difference at 1:2)\n"
    assert captured.err == ""
    assert main(["fmt", path]) == 0
    assert capsys.readouterr().out == \
        f"p :-\n    a.\n\nq(X) :-\n    X = {chain}.\n"


def test_unknown_flag_exits_two(capsys):
    assert main(["check", "--frobnicate", "x.pl"]) == 2


def test_unknown_rule_in_flag_exits_two(tmp_path, capsys):
    path = write(tmp_path, "clean.pl", CLEAN)
    assert main(["check", "--disable", "Z99", path]) == 2


def test_stdin_check(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", _stdin("p :-\n\tq.\n"))
    assert main(["check", "-"]) == 1
    assert "<stdin>" in capsys.readouterr().out


def test_fmt_prints_to_stdout(tmp_path, capsys):
    path = write(tmp_path, "messy.pl", "a(1).   a(2).\n")
    assert main(["fmt", path]) == 0
    assert capsys.readouterr().out == "a(1).\na(2).\n"


def test_fmt_check_canonical_and_after_tab(tmp_path, capsys):
    path = write(tmp_path, "canonical.pl", SAME_LENGTH)
    assert main(["fmt", "--check", path]) == 0
    tabbed = SAME_LENGTH.replace("    same_length", "\tsame_length")
    path2 = write(tmp_path, "tabbed.pl", tabbed)
    assert main(["fmt", "--check", path2]) == 1
    out = capsys.readouterr().out
    assert "needs formatting" in out
    assert "3:1" in out


def test_fmt_write_then_check_passes(tmp_path, capsys):
    messy = "same_length([],[]). same_length([_|L1],[_|L2]):-same_length(L1,L2).\n"
    path = write(tmp_path, "file.pl", messy)
    assert main(["fmt", "--write", path]) == 0
    rewritten = (tmp_path / "file.pl").read_text(encoding="utf-8")
    assert rewritten == SAME_LENGTH
    assert main(["fmt", "--check", path]) == 0


def test_fmt_refuses_syntax_errors(tmp_path, capsys):
    path = write(tmp_path, "broken.pl", "broken(((.\n")
    assert main(["fmt", "--check", path]) == 1
    err = capsys.readouterr().err
    assert "E02" in err or "E01" in err


def test_fmt_write_rejects_stdin(capsys):
    assert main(["fmt", "--write", "-"]) == 2


def test_fmt_stdin_to_stdout(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", _stdin("a(1).   a(2).\n"))
    assert main(["fmt", "-"]) == 0
    assert capsys.readouterr().out == "a(1).\na(2).\n"


def test_rules_catalog_lists_everything(capsys):
    assert main(["rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("L01", "L12", "N01", "N07", "D01", "D07", "I01", "I07"):
        assert rule_id in out
    assert "off by default" in out  # N06
    assert "indent_size" in out  # parameters listed


def test_fmt_write_is_idempotent_at_cli_level(tmp_path):
    messy = "p :- ( a ; b ).\nq :- r,s.\n"
    path = write(tmp_path, "file.pl", messy)
    assert main(["fmt", "--write", path]) == 0
    first = (tmp_path / "file.pl").read_text(encoding="utf-8")
    assert main(["fmt", "--write", path]) == 0
    assert (tmp_path / "file.pl").read_text(encoding="utf-8") == first
    assert main(["fmt", "--check", path]) == 0


def test_fmt_write_keeps_the_file_mode(tmp_path):
    messy = "q :- r,s.\n"
    paths = {mode: tmp_path / f"file_{mode:o}.pl" for mode in (0o644, 0o755)}
    for mode, path in paths.items():
        path.write_text(messy, encoding="utf-8")
        path.chmod(mode)
    assert main(["fmt", "--write", *map(str, paths.values())]) == 0
    for mode, path in paths.items():
        assert path.read_text(encoding="utf-8") != messy
        assert path.stat().st_mode & 0o7777 == mode


@pytest.mark.parametrize("argv, code", [
    (["rules"], 0),
    (["check", "-"], 1),
    (["check", "--no-such-flag", "-"], 2),
])
def test_main_leaves_the_collector_on(monkeypatch, capsys, argv, code):
    monkeypatch.setattr("sys.stdin", _stdin("p :-\n\tq.\n"))
    assert gc.isenabled()
    assert main(argv) == code
    assert gc.isenabled()


def test_main_leaves_the_collector_off(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", _stdin("p :-\n\tq.\n"))
    gc.disable()
    try:
        assert main(["check", "-"]) == 1
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_main_runs_the_command_with_the_collector_paused(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(cli, "_cmd_rules",
                        lambda cfg: seen.append(gc.isenabled()) or 0)
    assert main(["rules"]) == 0
    assert seen == [False] and gc.isenabled()

def test_max_line_length_flag(tmp_path, capsys):
    long_line = "/* header */\n\np :-\n    " + "q" * 80 + ".\n"
    path = write(tmp_path, "long.pl", long_line)
    assert main(["check", path]) == 1
    capsys.readouterr()
    assert main(["check", "--max-line-length", "120", path]) == 0


def test_indent_flag(tmp_path, capsys):
    two_space = "/* header */\n\np :-\n  q.\n"
    path = write(tmp_path, "two.pl", two_space)
    assert main(["check", path]) == 1
    capsys.readouterr()
    assert main(["check", "--indent", "2", path]) == 0


def test_mode_system_flag(tmp_path, capsys):
    text = ("/* header */\n\n"
            "%% check(@Term) is det\n"
            "check(Term) :-\n    use(Term).\n")
    path = write(tmp_path, "modes.pl", text)
    assert main(["check", path]) == 1
    capsys.readouterr()
    assert main(["check", "--mode-system", "pldoc", path]) == 0


def test_default_dotfile_discovered(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / ".prolint").write_text("rule.L01.enabled = false\n",
                                       encoding="utf-8")
    path = write(tmp_path, "bad.pl", TABBED)
    assert main(["check", path]) == 0
