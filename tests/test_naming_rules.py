from __future__ import annotations

import random

import pytest

from prolint import (
    Config,
    TokenKind,
    program_from_source,
    run,
    source_from_text,
)
from prolint import naming_rules
from prolint.diagnostics import render_json
from prolint.naming_rules import split_identifier

from conftest import lint_text, rule_ids


def only(diags, rule_id):
    return [d for d in diags if d.rule_id == rule_id]


# -- identifier splitting ----------------------------------------------------

@pytest.mark.parametrize("name,segments,digits", [
    ("is_well_formed", ["is", "well", "formed"], None),
    ("isWellFormed", ["is", "Well", "Formed"], None),
    ("Result_So_Far", ["Result", "So", "Far"], None),
    ("State0", ["State"], "0"),
    ("Sets1", ["Sets"], "1"),
    ("foo", ["foo"], None),
])
def test_split_identifier(name, segments, digits):
    words = split_identifier(name)
    assert words.segments == segments
    assert words.trailing_digits == digits


def test_split_identifier_rejoins():
    rng = random.Random(7)
    alphabet = "abcXYZ_"
    specific = ["isWellFormed", "Result_so_far", "a_B_c", "X", "_x9",
                "camelCase_mix_Two3"]
    fuzzed = ["".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 12)))
              for _ in range(60)]
    for name in specific + fuzzed:
        words = split_identifier(name)
        rejoined = "".join(segment + separator for segment, separator
                           in zip(words.segments, words.separators + [""]))
        assert rejoined + (words.trailing_digits or "") == name


def test_each_name_is_split_once(monkeypatch):
    # Names recur across clauses; step_one/step_two make N04 compare every
    # defined name, and the quoted 'Odd Name' is defined but not collected.
    text = ("step_one(ListIn, Count_two) :- walkTree(ListIn), strng(X).\n"
            "step_two(ListIn, Count_two) :- walkTree(ListIn), strng(X).\n"
            "'Odd Name'(ListIn) :- step_one(ListIn, _), walkTree(ListIn).\n"
            "cnt_list(ListIn) :- step_two(ListIn, strng).\n")
    src = source_from_text(text)
    program = program_from_source(src)
    names = {t.text for t in program.tokens
             if t.kind is TokenKind.ATOM and t.text[0].islower()
             or t.kind is TokenKind.VARIABLE and not t.text.startswith("_")}
    quoted = {c.indicator[0] for c in program.items} - names
    calls = []

    def counting(name):
        calls.append(name)
        return split_identifier(name)

    monkeypatch.setattr(naming_rules, "split_identifier", counting)
    diags = run(src, program, Config())
    assert {"N01", "N03", "N04"} <= {d.rule_id for d in diags}
    assert quoted == {"Odd Name"}
    assert len(calls) == len(set(calls))
    assert len(calls) <= len(names) + len(quoted)


def test_name_memo_does_not_leak_between_configs():
    # strng is an N03 segment that the second config allows, and h4x0r is a
    # leet spelling that only the second config reports.
    text = "p(Count_two) :- strng(X), h4x0r(X), walkTree(X).\n"
    lenient = Config()
    lenient.pronounceable_allowlist = \
        lenient.pronounceable_allowlist | {"strng"}
    lenient.leet_enabled = True
    configs = [Config(), lenient, Config()]
    naming_rules._verdicts.cache_clear()
    memoized = [render_json(lint_text(text, cfg)) for cfg in configs]
    fresh = []
    for cfg in configs:
        naming_rules._verdicts.cache_clear()
        fresh.append(render_json(lint_text(text, cfg)))
    assert memoized == fresh
    segment = "unpronounceable segment 'strng'"
    assert segment in fresh[0] and segment not in fresh[1]
    leet = "digits embedded between letters in 'h4x0r'"
    assert leet in fresh[1] and leet not in fresh[0]


# -- N01 ----------------------------------------------------------------------

def test_n01_intercaps_atom():
    diags = only(lint_text("p :- isWellFormed(x).\n"), "N01")
    assert len(diags) == 1
    assert diags[0].suggestion == "is_well_formed"


def test_n01_intercaps_variable():
    diags = only(lint_text("p(ResultSoFar) :- q(ResultSoFar).\n"), "N01")
    assert len(diags) == 1
    assert diags[0].suggestion == "Result_So_Far"


def test_n01_suggestion_is_idempotent():
    diags = only(lint_text("p :- isWellFormed(x).\n"), "N01")
    fixed = f"p :- {diags[0].suggestion}(x).\n"
    assert only(lint_text(fixed), "N01") == []


def test_n01_quoted_atom_exempt():
    assert only(lint_text("p :- q('isWellFormed').\n"), "N01") == []


def test_n01_underscore_style_clean():
    assert only(lint_text("p(Result_So_Far) :- is_ok(Result_So_Far).\n"),
                "N01") == []


def test_n01_once_per_identifier():
    text = "p :- fooBar(1), fooBar(2).\n"
    assert len(only(lint_text(text), "N01")) == 1


# -- N02 ----------------------------------------------------------------------

def test_n02_lowercase_words():
    diags = only(lint_text("p(Result_so_far) :- q(Result_so_far).\n"), "N02")
    assert len(diags) == 1
    assert diags[0].suggestion == "Result_So_Far"


def test_n02_mode_suffixes_exempt():
    text = ("simplify([E_in|Es_in], [E_out|Es_out]) :-\n"
            "    simplify_one(E_in, E_out),\n"
            "    simplify(Es_in, Es_out).\n")
    assert only(lint_text(text), "N02") == []


def test_n02_tmp_suffix_with_digit_exempt():
    assert only(lint_text("p(State_tmp1) :- q(State_tmp1).\n"), "N02") == []


def test_n02_clean_capitalization():
    assert only(lint_text("p(Result_So_Far) :- q(Result_So_Far).\n"),
                "N02") == []


# -- N03 ----------------------------------------------------------------------

def test_n03_vowelless_segment():
    diags = only(lint_text("strngth(X) :- q(X).\n"), "N03")
    assert len(diags) == 1
    assert "strngth" in diags[0].message


def test_n03_vowels_pass_even_for_opaque_names():
    # The heuristic accepts any vowel, so this opaque abbreviation passes;
    # that is the documented limit of a mechanical check.
    assert only(lint_text("stlacie(X) :- q(X).\n"), "N03") == []


def test_n03_y_counts_as_vowel():
    assert only(lint_text("p :- q(rhythm).\n"), "N03") == []


def test_n03_segments_checked_not_whole_name():
    assert len(only(lint_text("p :- make_strng(1).\n"), "N03")) == 1


def test_n03_allowlist():
    assert only(lint_text("p :- q(tmp_src_msg).\n"), "N03") == []
    cfg = Config()
    cfg.pronounceable_allowlist = frozenset({"html"})
    assert only(lint_text("p :- render_html(X), use(X).\n", cfg), "N03") == []


def test_n03_short_segments_exempt():
    assert only(lint_text("p :- q(xs, fn).\n"), "N03") == []


# -- N04 ----------------------------------------------------------------------

def test_n04_trailing_number_word():
    diags = only(lint_text("pred_one(X) :- q(X).\n"), "N04")
    assert len(diags) == 1
    assert diags[0].suggestion == "pred_1"


def test_n04_sibling_predicates_with_number_segment():
    text = "one_pass(X) :- q(X).\n\ntwo_pass(X) :- r(X).\n"
    diags = only(lint_text(text), "N04")
    assert len(diags) == 2


def test_n04_no_siblings_no_internal_flag():
    assert only(lint_text("one_pass(X) :- q(X).\n"), "N04") == []


def test_n04_leet_disabled_by_default():
    assert only(lint_text("p :- exe2bin(X), use(X).\n"), "N04") == []


def test_n04_leet_enabled():
    cfg = Config()
    cfg.leet_enabled = True
    diags = only(lint_text("p :- exe2bin(X), use(X).\n", cfg), "N04")
    assert len(diags) == 1


def test_n04_leet_allowlist_spares_i18n():
    cfg = Config()
    cfg.leet_enabled = True
    assert only(lint_text("p :- i18n(X), use(X).\n", cfg), "N04") == []


# -- N05 ----------------------------------------------------------------------

def test_n05_aux_suffix():
    text = "foo(X) :- foo_aux(X, []).\n\nfoo_aux(X, A) :- q(X, A).\n"
    diags = only(lint_text(text), "N05")
    assert len(diags) == 1
    assert "_case" in diags[0].message and "_loop" in diags[0].message


def test_n05_only_defined_predicates():
    assert only(lint_text("foo(X) :- other_aux(X).\n"), "N05") == []


# -- N06 ----------------------------------------------------------------------

def _n06_cfg() -> Config:
    cfg = Config()
    cfg.rule_enabled["N06"] = True
    return cfg


def test_n06_off_by_default():
    assert only(lint_text("p([Tree|Xs]) :- q(Tree, Xs).\n"), "N06") == []


@pytest.mark.parametrize("pattern", ["[Tree|Trees]", "[T|Ts]", "[T|Trees]"])
def test_n06_accepted_patterns(pattern):
    text = f"p({pattern}) :- q({pattern}).\n"
    assert only(lint_text(text, _n06_cfg()), "N06") == []


@pytest.mark.parametrize("pattern", ["[Tree|Xs]", "[First|Rest]"])
def test_n06_flagged_patterns(pattern):
    text = f"p({pattern}) :- q({pattern}).\n"
    assert len(only(lint_text(text, _n06_cfg()), "N06")) == 2


def test_n06_ignores_nonvariable_parts():
    assert only(lint_text("p([a|Xs]) :- q(Xs).\n", _n06_cfg()), "N06") == []


# -- N07 ----------------------------------------------------------------------

def test_n07_gap_in_chain():
    text = "p(State0, State2) :- q(State0, State2).\n"
    diags = only(lint_text(text), "N07")
    assert len(diags) == 1
    assert "State1" in diags[0].message


def test_n07_huge_gap_names_first_few_and_counts_the_rest():
    text = "p(S0, S20000000) :- q(S0, S20000000).\n"
    diags = only(lint_text(text), "N07")
    assert [d.message for d in diags] == [
        "threaded state chain S0...S skips S1, S2, S3, S4, S5 and 19999994 "
        "more"]
    last = "S" + "9" * 20
    text = f"p(S0, S3, {last}) :- q(S0, {last}).\n"
    diags = only(lint_text(text), "N07")
    assert [d.message for d in diags] == [
        "threaded state chain S0...S skips S1, S2, S4, S5, S6 and "
        "99999999999999999992 more"]


def test_n07_suffix_longer_than_an_integer_is_no_state_index():
    long_name = "S" + "1" * 5000
    text = f"p({long_name}, {long_name}) :- q({long_name}, {long_name}).\n"
    diags = lint_text(text)
    assert "E99" not in rule_ids(diags)
    assert only(diags, "N07") == []


def test_n07_contiguous_chain_clean():
    text = ("p(State0, State) :-\n"
            "    q(State0, State1),\n"
            "    r(State1, State).\n")
    assert only(lint_text(text), "N07") == []


def test_n07_mixed_conventions():
    text = "p(State0, Acc_in) :- q(State0, Acc_in).\n"
    diags = only(lint_text(text), "N07")
    assert len(diags) == 1
    assert "_in" in diags[0].message


def test_n07_chains_are_per_clause():
    text = ("p(State0) :- q(State0).\n"
            "\n"
            "r(State2) :- s(State2).\n")
    assert only(lint_text(text), "N07") == []


# -- exemptions ----------------------------------------------------------------

def test_underscore_variables_exempt_everywhere():
    text = "p(_resultSoFar, _strngth) :- q(_resultSoFar, _strngth).\n"
    diags = lint_text(text)
    assert not [d for d in diags
                if d.rule_id in ("N01", "N02", "N03", "N04")]
