"""Behaviour under non-default configurations, pinned by digest.

The benchmark fingerprint covers the default configuration only.  Each case
here lints the formatter corpus plus seeded ``gen_file`` output under one
configuration that no benchmark workload sets, and compares a sha256 of the
JSON diagnostics with the digest recorded before the rule dispatch was
refactored.  A changed digest means some rule's output changed.
"""

from __future__ import annotations

import functools
import hashlib
import random

import pytest

from prolint import (
    MODE_SYSTEMS,
    load_config,
    print_doc_head,
    program_from_source,
    render_json,
    run,
    source_from_text,
)

from gen import gen_doc_head, gen_file
from test_formatter import formatter_corpus

CONFIGS = {
    "structured_commas": "comma_style = structured\n"
                         "rule.N06.enabled = true\n",
    "n06_alias_and_leet": "n06.enabled = true\n"
                          "n04.leet.enabled = true\n",
    "pldoc": "mode_system = pldoc\n",
    "simple_no_module_docs": "mode_system = simple\n"
                             "require_docs_without_module = false\n",
    "public_name_pattern": "public_name_pattern = ^(s|p)[a-z]*_\n",
    "tight_layout": "clause_lines_info = 2\n"
                    "clause_lines_warn = 4\n"
                    "indent_size = 2\n"
                    "max_line_length = 40\n",
    "no_magic_allowlist": "magic_number_allowlist =\n"
                          "rule.I04.enabled = false\n"
                          "rule.L05.severity = error\n",
}

DIGESTS = {
    "structured_commas":
        "665e33851b94e86a1780ba29812d2d6d50e47f610d9c3aa69335ad75b777bb40",
    "n06_alias_and_leet":
        "00dc31a59d176189d9bbaf3b7e6c912cc7750fa6e0d904e710061756ce927260",
    "pldoc":
        "1227381b86763ba429ada8fc69fedef4df4aba585d60fce7bda119c0f8fe731f",
    "simple_no_module_docs":
        "e88187b9bd6c722214368e6a45eb109878a995e72c4529a481f4f45173c524e2",
    "public_name_pattern":
        "a5c58acbf232272f211354943fd0936c346bd485c0cde6652bc749764c67385e",
    "tight_layout":
        "be2d822267380a3ce00a05c4254f19d3d2f0a852c4a0024fbb8664d5a42006b6",
    "no_magic_allowlist":
        "d1d131a56a36563f63a72119ef1e95923132e02d031a723a485dae82bc1e0709",
}


def documented_file(rng: random.Random) -> str:
    """Doc heads from every mode system, each above a clause whose head
    names and arity may or may not match it, plus a digit-spelled name."""
    parts = ["% documented fixture\n% with doc heads\n% of all systems\n"]
    if rng.random() < 0.5:
        parts.append("\n:- module(docs, [lookup/2, insert/3, main/0]).\n"
                     "/* documented predicates */\n")
    for index in range(5):
        head = gen_doc_head(rng, rng.choice(sorted(MODE_SYSTEMS)))
        args = [arg.name for arg in head.args]
        if args and rng.random() < 0.3:
            args[0] = "Other"
        if rng.random() < 0.2:
            args.append("Extra")
        call = head.predicate_name + (f"({', '.join(args)})" if args else "")
        goal = f"step{index}to{index + 1}({', '.join(args) or 'x'})"
        parts.append(f"\n{print_doc_head(head)}\n{call} :-\n    {goal}.\n")
    return "".join(parts)


@functools.cache
def corpus() -> dict[str, str]:
    files = formatter_corpus()
    rng = random.Random(4242)
    for index in range(120):
        files[f"seeded_{index:03d}.pl"] = gen_file(rng)
    for index in range(40):
        files[f"documented_{index:02d}.pl"] = documented_file(rng)
    return files


def digest(config_text: str) -> str:
    cfg = load_config(config_text)
    assert not cfg.problems, cfg.problems
    hasher = hashlib.sha256()
    for name, text in corpus().items():
        src = source_from_text(text, path=name)
        hasher.update(render_json(run(src, program_from_source(src), cfg))
                      .encode("utf-8"))
    return hasher.hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_non_default_config_output_is_pinned(name):
    assert digest(CONFIGS[name]) == DIGESTS[name]
