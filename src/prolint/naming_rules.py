"""Naming rules N01-N07: word style of atoms, variables and predicate names.

Quoted atoms are exempt from N01-N04 (their spelling may be data), and
anonymous or underscore-prefixed variables are exempt from everything.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from functools import lru_cache
from typing import NamedTuple

from .diagnostics import Diagnostic, Record, diag, rule, run_family
from .reader import Facts, Variable
from .source_model import MAX_INTEGER_DIGITS, Span


class IdentifierWords(Record):
    """An identifier split into word segments.

    Segments are split on underscores and on lower-to-upper case
    transitions; ``separators[i]`` (``"_"`` or ``""``) stands between
    ``segments[i]`` and ``segments[i + 1]``, and the trailing digits, if
    any, follow the last segment.
    """

    __slots__ = ("segments", "separators", "trailing_digits")
    _defaults = {"trailing_digits": None}


_TRAILING_DIGITS = re.compile(r"^(.*?[^\d])(\d+)$")


def split_identifier(name: str) -> IdentifierWords:
    base, digits = name, None
    match = _TRAILING_DIGITS.search(name)
    if match:
        base, digits = match.group(1), match.group(2)
    segments: list[str] = []
    separators: list[str] = []
    current = ""
    prev = ""
    for ch in base:
        if ch == "_":
            segments.append(current)
            separators.append("_")
            current = ""
        elif prev and prev.islower() and ch.isupper():
            segments.append(current)
            separators.append("")
            current = ch
        else:
            current += ch
        prev = ch
    segments.append(current)
    return IdentifierWords(segments, separators, digits)


def _has_intercaps(words: IdentifierWords) -> bool:
    return "" in words.separators


_VOWELS = set("aeiouy")
_NUMBER_WORDS = (
    "one two three four five six seven eight nine ten eleven twelve "
    "thirteen fourteen fifteen sixteen seventeen eighteen nineteen twenty"
).split()
_NUMBER_VALUE = {w: i + 1 for i, w in enumerate(_NUMBER_WORDS)}
#: At most one number word can follow a name's last underscore.
_NUMBER_SUFFIX = re.compile(r"_(%s)\Z" % "|".join(_NUMBER_WORDS))
_ALNUM_ATOM = re.compile(r"[a-z][A-Za-z0-9_]*$")
_LEET = re.compile(r"[A-Za-z][0-9]+[A-Za-z]")
_STATE_SUFFIX = re.compile(r"^(.*[^\d])(\d+)$")
_IN_OUT = re.compile(r"^(.+)_(in|out)$")
_EXEMPT_SUFFIX = re.compile(r"(in|out|tmp)\d*")


def _snake_suggestion(words: IdentifierWords) -> str:
    return "_".join(seg.lower() for seg in words.segments if seg) + \
        (words.trailing_digits or "")


def _variable_suggestion(words: IdentifierWords) -> str:
    fixed = [seg[0].upper() + seg[1:] if seg else seg
             for seg in words.segments]
    return "_".join(seg for seg in fixed if seg) + \
        (words.trailing_digits or "")


def check_naming(facts: Facts) -> list[Diagnostic]:
    return run_family("N", facts)


class _Verdicts(NamedTuple):
    """What N01-N04 conclude from a name alone, whatever the config: its
    words, N02's fix for its lowercase words, N03's segments of four or more
    characters with letters but no vowel, and N04's number word after its
    last underscore."""

    words: IdentifierWords
    lowercase_fix: str | None
    unpronounceable: tuple[str, ...]
    number_suffix: str | None


@lru_cache(maxsize=2048)
def _verdicts(name: str) -> _Verdicts:
    """The verdicts of ``name``, remembered for the 2,048 names used last
    and shared by every file, so callers must not change them."""
    words = split_identifier(name)
    unpronounceable = tuple(
        segment for segment in words.segments
        if len(segment) >= 4 and any(c.isalpha() for c in segment)
        and not any(c.lower() in _VOWELS for c in segment if c.isalpha()))
    suffix = _NUMBER_SUFFIX.search(name.lower())
    return _Verdicts(words, _lowercase_fix(name), unpronounceable,
                     suffix.group(1) if suffix else None)


class _Names:
    """The first occurrence of each plain atom and each named variable, and
    the verdicts of each name, looked up once per file."""

    def __init__(self, facts: Facts) -> None:
        index = facts.index
        self.atoms = [tok for name, tok in index.atoms.items()
                      if _ALNUM_ATOM.match(name)]
        self.variables = [tok for name, tok in index.variables.items()
                          if not name.startswith("_")]
        self.verdicts: dict[str, _Verdicts] = {
            tok.text: _verdicts(tok.text)
            for tok in self.atoms + self.variables}

    def split(self, name: str) -> IdentifierWords:
        """The words of ``name``, which need not be a collected name."""
        verdicts = self.verdicts.get(name)
        if verdicts is None:
            verdicts = self.verdicts[name] = _verdicts(name)
        return verdicts.words


# -- N01 --------------------------------------------------------------------

@rule("N01")
def _n01_intercaps(facts: Facts) -> Iterator[Diagnostic]:
    names = facts.context(_Names)
    for tok in names.atoms:
        words = names.verdicts[tok.text].words
        if _has_intercaps(words):
            suggestion = _snake_suggestion(words)
            yield diag("N01", tok.span,
                       f"atom '{tok.text}' uses internal capitalization; "
                       f"write '{suggestion}'", suggestion=suggestion)
    for tok in names.variables:
        words = names.verdicts[tok.text].words
        if _has_intercaps(words):
            suggestion = _variable_suggestion(words)
            yield diag("N01", tok.span,
                       f"variable '{tok.text}' uses internal "
                       f"capitalization; write '{suggestion}'",
                       suggestion=suggestion)


# -- N02 --------------------------------------------------------------------

def _lowercase_fix(name: str) -> str | None:
    """``name`` with each lowercase word capitalized, or None if it has
    none; a last word such as ``in`` or ``tmp2`` is exempt."""
    parts = name.split("_")
    words = [(part, not part or part[0].isdigit() or (
        idx == len(parts) - 1 and _EXEMPT_SUFFIX.fullmatch(part)))
        for idx, part in enumerate(parts)]
    if not any(part[0].islower() for part, exempt in words if not exempt):
        return None
    return "_".join(part if exempt else part[0].upper() + part[1:]
                    for part, exempt in words)


@rule("N02")
def _n02_word_caps(facts: Facts) -> Iterator[Diagnostic]:
    names = facts.context(_Names)
    for tok in names.variables:
        suggestion = names.verdicts[tok.text].lowercase_fix
        if suggestion is not None:
            yield diag("N02", tok.span,
                       f"variable '{tok.text}' has lowercase words; prefer "
                       f"'{suggestion}'", suggestion=suggestion)


# -- N03 --------------------------------------------------------------------

@rule("N03")
def _n03_pronounceable(facts: Facts) -> Iterator[Diagnostic]:
    names = facts.context(_Names)
    allowlist = facts.cfg.pronounceable_allowlist
    for tok in names.atoms + names.variables:
        for segment in names.verdicts[tok.text].unpronounceable:
            if segment.lower() not in allowlist:
                yield diag("N03", tok.span,
                           f"name '{tok.text}' contains the unpronounceable "
                           f"segment '{segment}'")
                break


# -- N04 --------------------------------------------------------------------

@rule("N04")
def _n04_number_words(facts: Facts) -> Iterator[Diagnostic]:
    names = facts.context(_Names)
    cfg = facts.cfg
    defined = {p.indicator[0] for p in facts.predicates}
    flagged: set[str] = set()

    def segments_of(name: str) -> list[str]:
        return [seg.lower() for seg in names.split(name).segments if seg]

    defined_segments = {tuple(segments_of(d)) for d in defined}

    for tok in names.atoms + names.variables:
        name = tok.text
        hit = names.verdicts[name].number_suffix
        suggestion: str | None = None
        if hit:
            suggestion = name[:len(name) - len(hit)] + str(_NUMBER_VALUE[hit])
        elif name in defined:
            segs = segments_of(name)
            for idx, seg in enumerate(segs):
                if seg in _NUMBER_VALUE:
                    siblings = False
                    for other in _NUMBER_WORDS:
                        if other == seg:
                            continue
                        candidate = (*segs[:idx], other, *segs[idx + 1:])
                        if candidate in defined_segments:
                            siblings = True
                            break
                    if siblings:
                        hit = seg
                        fixed = segs.copy()
                        fixed[idx] = str(_NUMBER_VALUE[seg])
                        suggestion = "_".join(fixed)
                        break
        if hit is not None:
            flagged.add(name)
            yield diag("N04", tok.span,
                       f"number word '{hit}' in '{name}'; use a digit "
                       f"(e.g. '{suggestion}')", suggestion=suggestion)

    if cfg.leet_enabled:
        for tok in names.atoms:
            name = tok.text
            if name in flagged or name.lower() in cfg.leet_allowlist:
                continue
            if _LEET.search(name):
                yield diag("N04", tok.span,
                           f"digits embedded between letters in '{name}' "
                           "make the spelling unpredictable")


# -- N05 --------------------------------------------------------------------

@rule("N05")
def _n05_aux_suffix(facts: Facts) -> Iterator[Diagnostic]:
    for pred in facts.predicates:
        name, arity = pred.indicator
        if name.endswith("_aux"):
            yield diag("N05", pred.clauses[0].span,
                       f"predicate {name}/{arity} named with '_aux'; "
                       "consider '_case', '_loop', '_unguarded', or the "
                       "same name at a different arity",
                       predicate=pred.indicator)


# -- N06 --------------------------------------------------------------------

def _n06_acceptable(head: str, tail: str) -> bool:
    if tail == head + "s":
        return True
    stem = tail[:-1] if tail.endswith("s") else tail
    return stem.startswith(head) or head.startswith(stem)


@rule("N06")
def _n06_list_pattern(facts: Facts) -> Iterator[Diagnostic]:
    for term in facts.term_index.cells:
        head, tail = term.args
        if not isinstance(head, Variable) or not isinstance(tail, Variable):
            continue
        if head.name.startswith("_") or tail.name.startswith("_"):
            continue
        if not _n06_acceptable(head.name, tail.name):
            yield diag("N06", term.span,
                       f"list pattern [{head.name}|{tail.name}]: "
                       "name the tail after the element (e.g. "
                       f"[{head.name}|{head.name}s])")


# -- N07 --------------------------------------------------------------------

#: How many missing indices an N07 message names before it only counts.
_MAX_LISTED_GAPS = 5


def _chain_gaps(indices: list[int]) -> tuple[list[int], int]:
    """The first missing indices between consecutive sorted ``indices``, at
    most ``_MAX_LISTED_GAPS`` of them, and how many are missing in all."""
    listed: list[int] = []
    count = 0
    for low, high in zip(indices, indices[1:]):
        count += high - low - 1
        room = _MAX_LISTED_GAPS - len(listed)
        listed.extend(range(low + 1, min(high, low + 1 + room)))
    return listed, count


@rule("N07")
def _n07_threaded_state(facts: Facts) -> Iterator[Diagnostic]:
    for variables in facts.term_index.variables:
        chains: dict[str, set[int]] = {}
        chain_spans: dict[str, Span] = {}
        in_out: list[str] = []
        for name, occurrences in variables.items():
            if name.startswith("_"):
                continue
            match = _STATE_SUFFIX.match(name)
            # A suffix too long to be an integer literal is no state index.
            if match and len(match.group(2)) <= MAX_INTEGER_DIGITS:
                chains.setdefault(match.group(1), set()).add(
                    int(match.group(2)))
                chain_spans.setdefault(match.group(1), occurrences[0].span)
            if _IN_OUT.match(name):
                in_out.append(name)
        for base, indices in chains.items():
            missing, count = _chain_gaps(sorted(indices))
            if missing:
                gaps = ", ".join(f"{base}{i}" for i in missing)
                if count > len(missing):
                    gaps += f" and {count - len(missing)} more"
                yield diag("N07", chain_spans[base],
                           f"threaded state chain {base}0...{base} skips "
                           f"{gaps}")
        if chains and in_out:
            base = sorted(chains)[0]
            yield diag("N07", chain_spans[base],
                       "clause mixes numbered state variables "
                       f"({base}{min(chains[base])}) with the _in/_out "
                       f"convention ({in_out[0]}); pick one")
