"""Idiom rules I01-I07: constructs that are almost always wrong, singleton
variables, repeated magic numbers, reminder-tag inventory."""

from __future__ import annotations

import re
from collections.abc import Iterator

from .diagnostics import Diagnostic, Severity, diag, rule, run_family
from .reader import (
    Facts,
    contains_cut,
    final_goal,
    is_atom,
    is_compound,
    strip_module_qualifier,
)
from .source_model import Span


def check_idioms(facts: Facts) -> list[Diagnostic]:
    return run_family("I", facts)


# -- I01 --------------------------------------------------------------------

@rule("I01")
def _i01_terminal_cut(facts: Facts) -> Iterator[Diagnostic]:
    for pred in facts.predicates:
        last = pred.clauses[-1]
        if last.body is None:
            continue
        tail = final_goal(last.body)
        if is_atom(tail, "!"):
            name, arity = pred.indicator
            yield diag("I01", tail.span,
                       f"cut at the end of the last clause of {name}/{arity}: "
                       "what alternatives is it supposed to eliminate?",
                       predicate=pred.indicator)


# -- I02 --------------------------------------------------------------------

@rule("I02")
def _i02_repeat_without_cut(facts: Facts) -> Iterator[Diagnostic]:
    for clause, sequences in facts.goal_sequences:
        for seq in sequences:
            for idx, goal in enumerate(seq):
                if not is_atom(goal, "repeat"):
                    continue
                if not any(contains_cut(later) for later in seq[idx + 1:]):
                    yield diag("I02", goal.span,
                               "repeat with no following cut: when will it "
                               "stop repeating?", predicate=clause.indicator)


# -- I03 --------------------------------------------------------------------

@rule("I03")
def _i03_append_one_element(facts: Facts) -> Iterator[Diagnostic]:
    for clause, goals in zip(facts.program.items, facts.leaf_goals):
        for goal in goals:
            goal = strip_module_qualifier(goal)
            if not is_compound(goal, "append", 3):
                continue
            first = goal.args[0]
            if is_compound(first, ".", 2) and is_atom(first.args[1], "[]"):
                yield diag("I03", goal.span,
                           "append/3 with a one-element list as its first "
                           "argument; use [Element|Rest] instead",
                           suggestion="unify the result with [Element|Rest] "
                           "directly", predicate=clause.indicator)


# -- I04 --------------------------------------------------------------------

@rule("I04")
def _i04_singletons(facts: Facts) -> Iterator[Diagnostic]:
    for clause, variables in zip(facts.program.items,
                                 facts.term_index.variables):
        for name, occurrences in variables.items():
            if name.startswith("_"):
                if len(occurrences) > 1:
                    yield diag("I04", occurrences[0].span,
                               f"variable {name} is marked as a singleton by "
                               f"its underscore but occurs "
                               f"{len(occurrences)} times",
                               severity=Severity.INFO,
                               predicate=clause.indicator)
            elif len(occurrences) == 1:
                yield diag("I04", occurrences[0].span,
                           f"singleton variable {name}: it occurs only once "
                           "in this clause",
                           suggestion=f"replace {name} with _{name} if "
                           "intentional", predicate=clause.indicator)


# -- I05 --------------------------------------------------------------------

@rule("I05")
def _i05_magic_numbers(facts: Facts) -> Iterator[Diagnostic]:
    by_text: dict[str, list[tuple[Span, object]]] = {}
    for term in facts.term_index.numbers:
        if term.value not in facts.cfg.magic_number_allowlist:
            text = term.lexeme or str(term.value)
            by_text.setdefault(text, []).append((term.span, term.value))
    for text in sorted(by_text, key=lambda t: by_text[t][0][0].byte_start):
        occurrences = by_text[text]
        if len(occurrences) < 2:
            continue
        lines = ", ".join(str(span.start_line) for span, _ in occurrences)
        yield diag("I05", occurrences[0][0],
                   f"the number {text} occurs {len(occurrences)} times "
                   f"(lines {lines}); isolate it as the argument of a fact",
                   suggestion=f"define a fact such as named_constant({text}).")


# -- I06 --------------------------------------------------------------------

_TAG = re.compile(r"%(?:TBD:|FIX:|D(?=[ \t]|\Z))")


@rule("I06")
def _i06_reminder_tags(facts: Facts) -> Iterator[Diagnostic]:
    for token in facts.index.line_comments:
        match = _TAG.match(token.text)
        if match:
            tag = match.group()
            rest = token.text[len(tag):].strip()
            summary = f": {rest}" if rest else ""
            yield diag("I06", token.span,
                       f"reminder tag {tag} found{summary}",
                       severity=Severity.INFO)


# -- I07 --------------------------------------------------------------------

@rule("I07")
def _i07_bare_conjunction(facts: Facts) -> Iterator[Diagnostic]:
    for term, clause in facts.term_index.clusters:
        if term.name != ";" or term.span.start_line != term.span.end_line:
            continue
        if any(is_compound(arg, ",", 2) and not arg.parenthesized
               for arg in term.args):
            yield diag("I07", term.span,
                       "conjunction mixed with disjunction on one line; "
                       "add parentheses to make the precedence obvious",
                       predicate=clause.indicator)
