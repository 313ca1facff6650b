from __future__ import annotations

import random

import pytest

from prolint import Config
from prolint.doc_rules import (
    DETERMINISM_SPECIFIERS,
    DocHeadError,
    MODE_SYSTEMS,
    parse_doc_head,
    print_doc_head,
)

from conftest import lint_text
from gen import gen_doc_head


def only(diags, rule_id):
    return [d for d in diags if d.rule_id == rule_id]


# -- grammar -------------------------------------------------------------------

def test_parse_compare_annotation():
    head = parse_doc_head("%% compare(?R:order, =T1:term, =T2:term)")
    assert head.predicate_name == "compare"
    assert [a.mode for a in head.args] == ["?", "=", "="]
    assert [a.type_name for a in head.args] == ["order", "term", "term"]
    assert [a.name for a in head.args] == ["R", "T1", "T2"]
    assert head.determinism is None
    assert head.marker == "double"


def test_parse_nth0_with_determinism():
    head = parse_doc_head("%% nth0(?Index, ?List, ?Elem) is nondet")
    assert head.indicator == ("nth0", 3)
    assert [a.mode for a in head.args] == ["?", "?", "?"]
    assert head.determinism == "nondet"


def test_parse_zero_arity():
    head = parse_doc_head("%% main is det")
    assert head.indicator == ("main", 0)
    assert head.determinism == "det"


def test_parse_bare_name():
    head = parse_doc_head("%% init")
    assert head.indicator == ("init", 0)
    assert head.determinism is None


def test_parse_single_marker_is_auxiliary():
    head = parse_doc_head("% helper(+X)")
    assert head.marker == "single"


def test_parse_pldoc_alias_marker():
    head = parse_doc_head("%! lookup(+Key, -Value) is semidet",
                          system="pldoc")
    assert head.marker == "double"
    assert head.determinism == "semidet"


def test_parse_mode_optional():
    head = parse_doc_head("%% length(List, N)")
    assert [a.mode for a in head.args] == [None, None]


def test_all_mode_symbols_by_system():
    for system, vocabulary in MODE_SYSTEMS.items():
        for symbol in vocabulary:
            head = parse_doc_head(f"%% f({symbol}X)", system=system)
            assert head.args[0].mode == symbol
        for other_system, other_vocab in MODE_SYSTEMS.items():
            for symbol in other_vocab - vocabulary:
                with pytest.raises(DocHeadError) as excinfo:
                    parse_doc_head(f"%% f({symbol}X)", system=system)
                assert symbol in str(excinfo.value)
                assert system in str(excinfo.value)


def test_all_determinism_words():
    for word in DETERMINISM_SPECIFIERS:
        head = parse_doc_head(f"%% f(+X) is {word}")
        assert head.determinism == word
    with pytest.raises(DocHeadError):
        parse_doc_head("%% f(+X) is maybe")


def test_malformed_argument_reports_position():
    with pytest.raises(DocHeadError) as excinfo:
        parse_doc_head("%% f(+X, &Y)")
    assert excinfo.value.position > 0


def test_trailing_prose_rejected():
    with pytest.raises(DocHeadError):
        parse_doc_head("%% f(+X) does things")


def test_type_with_nested_parens():
    head = parse_doc_head("%% f(+X:pair(atom, int), -Y)")
    assert head.args[0].type_name == "pair(atom, int)"


def test_print_parse_round_trip_examples():
    for text in [
        "%% compare(?R:order, =T1:term, =T2:term)",
        "%% nth0(?Index, ?List, ?Elem) is nondet",
        "% helper(+X:integer) is semidet",
        "%% main is det",
    ]:
        head = parse_doc_head(text)
        assert print_doc_head(head) == text.replace("%  ", "% ")


def test_print_parse_round_trip_fuzz():
    rng = random.Random(23)
    for system in MODE_SYSTEMS:
        for _ in range(100):
            head = gen_doc_head(rng, system)
            printed = print_doc_head(head)
            reparsed = parse_doc_head(printed, system=system)
            assert reparsed.predicate_name == head.predicate_name
            assert reparsed.determinism == head.determinism
            assert reparsed.marker == head.marker
            assert [(a.mode, a.name, a.type_name) for a in reparsed.args] \
                == [(a.mode, a.name, a.type_name) for a in head.args]


# -- D01 -------------------------------------------------------------------------

MODULE_DOCUMENTED = """\
:- module(m, [foo/1]).

%% foo(+X) is det
foo(X) :-
    helper(X).

% helper(+X)
helper(X) :-
    use(X).
"""


def test_d01_exported_documented_clean():
    assert only(lint_text(MODULE_DOCUMENTED), "D01") == []


def test_d01_exported_without_doc():
    text = ":- module(m, [foo/1]).\n\nfoo(X) :-\n    use(X).\n"
    diags = only(lint_text(text), "D01")
    assert len(diags) == 1
    assert "foo/1" in diags[0].message


def test_d01_aux_marker_does_not_satisfy():
    text = (":- module(m, [foo/1]).\n\n"
            "% foo(+X)\n"
            "foo(X) :-\n    use(X).\n")
    assert len(only(lint_text(text), "D01")) == 1


def test_d01_without_module_requires_internal_callers():
    called = "foo(X) :-\n    helper(X).\n\nhelper(X) :-\n    use(X).\n"
    diags = only(lint_text(called), "D01")
    assert len(diags) == 1
    assert "helper/1" in diags[0].message


def test_d01_self_recursion_is_not_a_caller():
    text = "loop(X) :-\n    step(X, Y),\n    loop(Y).\n"
    assert only(lint_text(text), "D01") == []


def test_d01_gate_can_be_disabled():
    cfg = Config()
    cfg.require_docs_without_module = False
    called = "foo(X) :-\n    helper(X).\n\nhelper(X) :-\n    use(X).\n"
    assert only(lint_text(called, cfg), "D01") == []


def test_d01_public_name_pattern():
    cfg = Config()
    cfg.public_name_pattern = "^api_"
    text = "api_run(X) :-\n    use(X).\n"
    assert len(only(lint_text(text, cfg), "D01")) == 1


def test_d01_multi_arity_block_covers_both():
    text = ("%% load(+File) is det\n"
            "%% load(+File, +Options) is det\n"
            "load(File) :-\n"
            "    load(File, []).\n"
            "\n"
            "load(File, Options) :-\n"
            "    use(File, Options).\n")
    assert only(lint_text(text), "D01") == []


def test_d01_comment_inside_a_clause_documents_no_later_clause():
    # The head inside a's body belongs to a, not to c on the next line.
    text = "a :-\n    %% c is det.\n    b.  c.\n\nd :-\n    c.\n"
    diags = only(lint_text(text), "D01")
    assert [d.predicate for d in diags] == [("c", 0)]


# -- D02 -------------------------------------------------------------------------

def test_d02_pldoc_mode_under_recommended_system():
    text = "%% meta_call(:Goal) is det\nmeta_call(Goal) :-\n    call(Goal).\n"
    diags = only(lint_text(text), "D02")
    assert len(diags) == 1
    assert "':'" in diags[0].message and "recommended" in diags[0].message


def test_d02_at_sign_named_as_pldoc_only():
    text = "%% check(@Term) is det\ncheck(Term) :-\n    use(Term).\n"
    diags = only(lint_text(text), "D02")
    assert len(diags) == 1
    assert "'@'" in diags[0].message
    cfg = Config()
    cfg.mode_system = "pldoc"
    assert only(lint_text(text, cfg), "D02") == []


def test_d02_main_marker_with_prose():
    text = "%% This one explains itself.\nfoo(X) :-\n    use(X).\n"
    assert len(only(lint_text(text), "D02")) == 1


def test_d02_aux_prose_not_a_candidate():
    text = "% removes the duplicates we saw\nfoo(X) :-\n    use(X).\n"
    assert only(lint_text(text), "D02") == []



@pytest.mark.parametrize("banner", ["%%%%%%%%", "%%", "%!", "%%%%  "])
def test_banner_heads_no_documentation(banner):
    """A comment with nothing after its marker is a single-marker line:
    it ends the head scan, so it is neither a head that fails to parse
    nor a main marker on an auxiliary predicate."""
    text = (":- module(m, [pub/0]).\n\n"
            "pub.\n\n"
            f"{banner}\n"
            "helper(a).\n")
    diags = lint_text(text)
    assert only(diags, "D02") == [] and only(diags, "D06") == []
    assert only(lint_text(f"{banner}\nhelper(a).\n"), "D02") == []


@pytest.mark.parametrize("head", ["%% f(+X) is det", "%! f(+X) is det"])
def test_text_after_the_marker_keeps_it_main(head):
    assert parse_doc_head(head).marker == "double"
    text = f":- module(m, [pub/0]).\n\npub.\n\n{head}\nf(_).\n"
    assert len(only(lint_text(text), "D06")) == 1


# -- D03 -------------------------------------------------------------------------

def test_d03_arity_mismatch():
    text = "%% foo(+A)\nfoo(X, Y) :-\n    use(X, Y).\n"
    diags = only(lint_text(text), "D03")
    assert len(diags) == 1
    assert "documented arity 1, defined arity 2" in diags[0].message


def test_d03_matching_doc_clean():
    text = "%% foo(+A, -B)\nfoo(X, Y) :-\n    use(X, Y).\n"
    assert only(lint_text(text), "D03") == []


def test_d03_wrong_name():
    text = "%% bar(+A)\nfoo(A) :-\n    use(A).\n"
    diags = only(lint_text(text), "D03")
    assert len(diags) == 1
    assert "bar/1" in diags[0].message


def test_d03_multi_arity_block_adjacent_ok():
    text = ("%% load(+File) is det\n"
            "%% load(+File, +Options) is det\n"
            "load(File) :-\n"
            "    load(File, []).\n"
            "\n"
            "load(File, Options) :-\n"
            "    use(File, Options).\n")
    assert only(lint_text(text), "D03") == []


# -- D04 -------------------------------------------------------------------------

def test_d04_missing_determinism_is_info():
    text = "%% foo(+X)\nfoo(X) :-\n    use(X).\n"
    diags = only(lint_text(text), "D04")
    assert len(diags) == 1
    assert diags[0].severity.label == "info"


def test_d04_present_determinism_clean():
    text = "%% foo(+X) is det\nfoo(X) :-\n    use(X).\n"
    assert only(lint_text(text), "D04") == []


def test_d04_only_on_main_comments():
    text = "% foo(+X)\nfoo(X) :-\n    use(X).\n"
    assert only(lint_text(text), "D04") == []


# -- D05 -------------------------------------------------------------------------

def test_d05_clause_variable_should_match_doc():
    text = ("%% nth0(?Index, ?List, ?Elem) is nondet\n"
            "nth0(Position, List, Elem) :-\n"
            "    use(Position, List, Elem).\n")
    diags = only(lint_text(text), "D05")
    assert len(diags) == 1
    assert "Position" in diags[0].message and "Index" in diags[0].message


def test_d05_nonvariable_arguments_skipped():
    text = ("%% member(?Elem, ?List)\n"
            "member(X, [X|_]).\n"
            "member(X, [_|T]) :-\n"
            "    member(X, T).\n")
    diags = only(lint_text(text), "D05")
    # Only the plain-variable first argument is compared.
    assert all("Elem" in d.message for d in diags)


def test_d05_matching_names_clean():
    text = ("%% nth0(?Index, ?List, ?Elem) is nondet\n"
            "nth0(Index, List, Elem) :-\n"
            "    use(Index, List, Elem).\n")
    assert only(lint_text(text), "D05") == []


# -- D06 -------------------------------------------------------------------------

def test_d06_internal_predicate_with_main_marker():
    text = (":- module(m, [pub/0]).\n\n"
            "%% pub is det\n"
            "pub :-\n    helper.\n\n"
            "%% helper is det\n"
            "helper :-\n    true.\n")
    diags = only(lint_text(text), "D06")
    assert len(diags) == 1
    assert "helper/0" in diags[0].message


def test_d06_needs_module_directive():
    text = "%% helper is det\nhelper :-\n    true.\n"
    assert only(lint_text(text), "D06") == []


# -- D07 -------------------------------------------------------------------------

def test_d07_output_before_input():
    text = ("%% build(-Result, +Spec) is det\n"
            "build(Result, Spec) :-\n"
            "    use(Result, Spec).\n")
    diags = only(lint_text(text), "D07")
    assert len(diags) == 1
    assert "Result" in diags[0].message


def test_d07_inputs_first_clean():
    text = ("%% build(+Spec, -Result) is det\n"
            "build(Spec, Result) :-\n"
            "    use(Spec, Result).\n")
    assert only(lint_text(text), "D07") == []


def test_d07_question_mark_neutral():
    text = ("%% compare(?R:order, =T1:term, =T2:term)\n"
            "compare(R, T1, T2) :-\n"
            "    use(R, T1, T2).\n")
    assert only(lint_text(text), "D07") == []


# -- system invariance ----------------------------------------------------------

def test_changing_mode_system_changes_only_d02_d07():
    text = ("%% step(-Out, +In) is det\n"
            "step(Out, In) :-\n"
            "    use(Out, In).\n"
            "\n"
            "%% probe(@X)\n"
            "probe(Y, Z) :-\n"
            "    use(Y, Z).\n")
    results = {}
    for system in MODE_SYSTEMS:
        cfg = Config()
        cfg.mode_system = system
        diags = lint_text(text, cfg)
        results[system] = {
            rule: sorted((d.span.start_line, d.message)
                         for d in diags if d.rule_id == rule)
            for rule in ("D01", "D03")
        }
    assert results["recommended"] == results["pldoc"] == results["simple"]
