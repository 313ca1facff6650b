from __future__ import annotations

import copy
import json
import random

from prolint import (
    REGISTRY,
    Config,
    Diagnostic,
    Severity,
    Span,
    load_config,
    program_from_source,
    render_json,
    render_text,
    run,
    source_from_text,
)

from conftest import lint_text, rule_ids
from oracles import render_json_reference


def test_severity_total_order():
    assert Severity.ERROR > Severity.WARNING > Severity.INFO > Severity.HINT
    assert Severity.from_name("warning") is Severity.WARNING


def test_empty_config_gives_defaults():
    cfg = load_config("")
    assert cfg.indent_size == 4
    assert cfg.max_line_length == 79
    assert cfg.clause_lines_info == 24
    assert cfg.clause_lines_warn == 48
    assert cfg.eol_comment_max == 40
    assert cfg.magic_number_allowlist == frozenset({0, 1, -1, 2})
    assert ("write", 1) in cfg.inline_goal_allowlist
    assert ("format", 3) in cfg.inline_goal_allowlist
    assert cfg.mode_system == "recommended"
    assert cfg.comma_style == "simple"
    assert cfg.failure_threshold is Severity.WARNING
    assert cfg.problems == []


def test_config_parameter_override():
    cfg = load_config("max_line_length = 100\n")
    assert cfg.max_line_length == 100
    assert cfg.problems == []


def test_config_rule_toggle():
    cfg = load_config("rule.L03.enabled = false\n")
    assert cfg.enabled("L03") is False
    assert cfg.enabled("L01") is True


def test_config_rule_severity_override():
    cfg = load_config("rule.L03.severity = info\n")
    assert cfg.rule_severity["L03"] is Severity.INFO


def test_config_default_off_rule():
    cfg = load_config("")
    assert cfg.enabled("N06") is False
    assert load_config("n06.enabled = true\n").enabled("N06") is True


def test_config_dotted_naming_keys():
    cfg = load_config("n03.allowlist = src, html\nn04.leet.enabled = true\n")
    assert cfg.pronounceable_allowlist == frozenset({"src", "html"})
    assert cfg.leet_enabled is True


def test_config_list_parsers():
    cfg = load_config("magic_number_allowlist = 7, -3, 2.5, 1_000\n"
                      "inline_goal_allowlist = write/1, nl / 0,\n"
                      "extensions = pl, .pro\n")
    assert cfg.problems == []
    assert cfg.magic_number_allowlist == frozenset({7, -3, 2.5, 1000})
    assert cfg.inline_goal_allowlist == frozenset({("write", 1), ("nl", 0)})
    assert cfg.extensions == (".pl", ".pro")
    bad = load_config("inline_goal_allowlist = write/x\n")
    assert [(p.rule_id, p.severity) for p in bad.problems] \
        == [("C01", Severity.ERROR)]
    assert bad.inline_goal_allowlist == load_config("").inline_goal_allowlist


def test_config_unknown_key_reported_as_warning():
    cfg = load_config("no_such_option = 3\n")
    assert len(cfg.problems) == 1
    assert cfg.problems[0].severity is Severity.WARNING
    assert "no_such_option" in cfg.problems[0].message


def test_config_unknown_rule_reported():
    cfg = load_config("rule.Z99.enabled = false\n")
    assert any("Z99" in p.message for p in cfg.problems)


def test_config_naming_a_broken_input_rule_is_reported():
    cfg = load_config("rule.E02.enabled = false\nrule.e01.severity = info\n"
                      "rule.E99.enabled = true\n")
    assert [(p.rule_id, p.severity, p.span.start_line) for p in cfg.problems] \
        == [("C01", Severity.WARNING, line) for line in (1, 2, 3)]
    assert [p.message.split()[1] for p in cfg.problems] \
        == ["E02", "E01", "E99"]
    assert cfg.rule_enabled == {} and cfg.rule_severity == {}


def test_config_malformed_line_is_error_naming_line():
    cfg = load_config("indent_size\n")
    assert cfg.problems[0].severity is Severity.ERROR
    assert cfg.problems[0].span.start_line == 1


def test_config_bad_value_reported_line():
    cfg = load_config("\nindent_size = wide\n")
    assert cfg.problems[0].severity is Severity.ERROR
    assert cfg.problems[0].span.start_line == 2


def test_config_comments_and_fail_on():
    cfg = load_config("# a comment\nfail_on = hint  # inline\n")
    assert cfg.failure_threshold is Severity.HINT
    assert cfg.problems == []


def test_run_tab_only_file_yields_one_l01():
    diags = lint_text("\tfoo.\n")
    assert rule_ids(diags).count("L01") == 1


def test_run_is_deterministic():
    text = "\tp :- q,r.\n"
    first = render_text(lint_text(text))
    second = render_text(lint_text(text))
    assert first == second


def test_per_file_independence():
    text_a = "\ta.\n"
    text_b = "p :- q, r.\n"
    merged = lint_text(text_a, path="a.pl") + lint_text(text_b, path="b.pl")
    again = lint_text(text_a, path="a.pl") + lint_text(text_b, path="b.pl")
    assert [(d.path, d.rule_id, d.span) for d in merged] \
        == [(d.path, d.rule_id, d.span) for d in again]


def test_disabling_rule_removes_exactly_its_diagnostics():
    text = "\tp :- q,r.\n"
    full = lint_text(text)
    cfg = Config()
    cfg.rule_enabled["L01"] = False
    without = lint_text(text, cfg)
    assert set(rule_ids(full)) - set(rule_ids(without)) == {"L01"}
    kept = [(d.rule_id, d.span, d.message) for d in full
            if d.rule_id != "L01"]
    assert kept == [(d.rule_id, d.span, d.message) for d in without]


def test_severity_override_changes_severity_only():
    text = "\tfoo.\n"
    cfg = Config()
    cfg.rule_severity["L01"] = Severity.HINT
    base = [d for d in lint_text(text) if d.rule_id == "L01"][0]
    overridden = [d for d in lint_text(text, cfg) if d.rule_id == "L01"][0]
    assert overridden.severity is Severity.HINT
    assert overridden.message == base.message
    assert overridden.span == base.span


def test_syntax_diagnostics_not_suppressible():
    cfg = Config()
    cfg.rule_enabled["E02"] = False
    diags = lint_text("broken(((.\n", cfg)
    assert "E02" in rule_ids(diags)


def _boom(facts):
    raise RuntimeError("boom")


def test_rule_crash_names_the_rule_and_spares_its_family(monkeypatch):
    from prolint import diagnostics

    monkeypatch.setitem(diagnostics.RULES, "L03", _boom)
    diags = lint_text("\tfoo.\n")
    assert [d.message for d in diags if d.rule_id == "E99"] == [
        "internal rule failure in L03: RuntimeError: boom"]
    assert "L01" in rule_ids(diags)


def test_disabled_rule_is_never_called(monkeypatch):
    from prolint import diagnostics

    monkeypatch.setitem(diagnostics.RULES, "L03", _boom)
    cfg = Config()
    cfg.rule_enabled["L03"] = False
    diags = lint_text("\tfoo.\n", cfg)
    assert "E99" not in rule_ids(diags)
    assert "L01" in rule_ids(diags)


def test_render_text_format():
    diags = [d for d in lint_text("\tfoo.\n", path="f.pl")
             if d.rule_id == "L01"]
    line = render_text(diags).rstrip("\n")
    assert line == "f.pl:1:1: warning [L01] tab character used for indentation"


def test_render_text_empty():
    assert render_text([]) == ""


def test_render_json_summary_zero():
    document = json.loads(render_json([]))
    assert document["diagnostics"] == []
    assert document["summary"] == {"error": 0, "warning": 0,
                                   "info": 0, "hint": 0}


def test_render_json_fields():
    diags = lint_text("\tfoo.\n", path="f.pl")
    document = json.loads(render_json(diags))
    entry = next(e for e in document["diagnostics"] if e["rule"] == "L01")
    assert entry["path"] == "f.pl"
    assert entry["line"] == 1
    assert entry["col"] == 1
    assert entry["severity"] == "warning"
    assert "end_line" in entry and "end_col" in entry
    assert "suggestion" in entry and "predicate" in entry
    assert document["summary"]["warning"] >= 1


#: Characters JSON must escape or may pass through: quotes, backslashes,
#: every control character, DEL, non-ASCII BMP characters and characters
#: outside the BMP, which ASCII-only JSON writes as surrogate pairs.
_JSON_ALPHABET = ('"\\/ aZ09' + "".join(map(chr, range(0x20))) + "\x7f"
                  + "\xe9\u0436\u03bb\u2028\ufeff\uffff"
                  + "\U0001f600\U00010000\U0010ffff")


def _random_text(rng: random.Random) -> str:
    return "".join(rng.choice(_JSON_ALPHABET)
                   for _ in range(rng.randrange(12)))


def test_render_json_matches_json_dumps():
    rng = random.Random(11)
    catalog = sorted(REGISTRY)
    diags = []
    for _ in range(2500):
        line, col = rng.randrange(1, 10**6), rng.randrange(1, 500)
        diags.append(Diagnostic(
            rule_id=rng.choice(catalog),
            severity=rng.choice(list(Severity)),
            span=Span(line, col, line + rng.randrange(3), col + 1, 0, 0),
            message=_random_text(rng),
            suggestion=rng.choice([None, _random_text(rng)]),
            predicate=rng.choice([None, (_random_text(rng),
                                         rng.randrange(9))]),
            path=_random_text(rng)))
    assert render_json([]) == render_json_reference([])
    rendered = render_json(diags)
    assert "\\ud83d\\ude00" in rendered and '"suggestion": null' in rendered
    assert rendered == render_json_reference(diags)


def test_run_is_repeatable():
    text = ("/* header */\n\n"
            "p(X, Y) :- q(X), r. % prolint: allow I04\n"
            "s(Z) :- t.\n"
            "u :- v w.\n"
            "isWrong(A) :- a(A),b(A).\n")
    src = source_from_text(text, "f.pl")
    program = program_from_source(src)
    syntax = copy.deepcopy(program.syntax_diagnostics)
    assert [d.rule_id for d in syntax] == ["E02"]
    cfg = Config()
    cfg.rule_severity["I04"] = Severity.ERROR
    first = run(src, program, cfg)
    second = run(src, program, cfg)
    assert first == second
    assert render_json(first) == render_json(second)
    assert [(d.span.start_line, d.severity) for d in first
            if d.rule_id == "I04"] == [(4, Severity.ERROR)]
    assert program.syntax_diagnostics == syntax


def test_output_ordering_by_position_then_rule():
    diags = lint_text("p :- a,b, c,d.\n")
    keys = [(d.span.start_line, d.span.start_col, d.rule_id) for d in diags]
    assert keys == sorted(keys)


def test_text_and_json_carry_identical_sets():
    text = "\tp :- q,r.\nlongAtomName.\n"
    diags = lint_text(text, path="x.pl")
    document = json.loads(render_json(diags))
    from_json = {(e["path"], e["line"], e["col"], e["rule"], e["severity"],
                  e["message"]) for e in document["diagnostics"]}
    from_text = set()
    for line in render_text(diags).splitlines():
        location, rest = line.split(": ", 1)
        path, lineno, col = location.rsplit(":", 2)
        severity, bracketed_rule, message = rest.split(" ", 2)
        from_text.add((path, int(lineno), int(col),
                       bracketed_rule.strip("[]"), severity, message))
    assert from_json == from_text


def test_suppression_comment_applies_to_clause():
    text = ("p :- q, !.  % prolint: allow I01\n"
            "\n"
            "r :- s, !.\n")
    diags = lint_text(text)
    i01 = [d for d in diags if d.rule_id == "I01"]
    assert len(i01) == 1
    assert i01[0].span.start_line == 3


def test_suppression_on_a_line_shared_by_two_clauses():
    shared = "/* header */\n\na :- b, c. d :- e, f."
    assert rule_ids(lint_text(shared + "\n")) == ["L05", "L06", "L12", "L05"]
    assert rule_ids(lint_text(shared + "  % prolint: allow L05\n")) \
        == ["L06", "L12"]
    # p's lines 3-4 and s's line 4 overlap: line 4 allows both ids.
    overlapping = ("/* header */\n\np :- % prolint: allow L05\n"
                   "    q, r. s :- t, u.")
    assert rule_ids(lint_text(overlapping + "\n")) == ["L06", "L12"]
    assert rule_ids(lint_text(overlapping + "  % prolint: allow L06\n")) \
        == ["L12"]


def test_suppression_over_many_clauses():
    clauses = "".join(f"p{i}(X) :- a(X), b. % prolint: allow L05\n"
                      for i in range(2000))
    text = "/* header */\n\n" + clauses
    assert rule_ids(lint_text(text.replace(" % prolint: allow L05", ""))) \
        .count("L05") == 2000
    assert "L05" not in rule_ids(lint_text(text))
