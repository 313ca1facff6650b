"""Rule registry, configuration, execution harness, and result rendering."""

from __future__ import annotations

import enum
import re
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

if TYPE_CHECKING:
    from .reader import Facts, Program
    from .source_model import SourceFile, Span


class Severity(enum.IntEnum):
    """Diagnostic severity, totally ordered error > warning > info > hint."""

    HINT = 10
    INFO = 20
    WARNING = 30
    ERROR = 40

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_name(cls, name: str) -> "Severity":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown severity {name!r}") from None


class Fresh(NamedTuple):
    """A record field's default that ``factory()`` makes anew for each
    record, such as an empty list; passing None makes one too."""

    factory: Callable[[], object]


class Record:
    """A plain record class.  A subclass names its fields in ``__slots__``,
    in constructor order, and the defaults of its trailing fields in
    ``_defaults``; unless it writes its own ``__init__``, it gets one that
    sets each field (``_constructor``).  Records of one class are equal
    when their fields are, ``repr`` shows every field, and a record is
    unhashable, as it is mutable."""

    __slots__ = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if "__init__" not in cls.__dict__:
            cls.__init__ = _constructor(cls)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self.__slots__
        return [getattr(self, name) for name in names] \
            == [getattr(other, name) for name in names]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


def _constructor(cls: type[Record]) -> Callable[..., None]:
    """The ``__init__`` a record class would write by hand: one parameter
    per slot, defaulting to its ``_defaults`` entry, and one assignment
    each.  It is compiled from source once per class, and the source holds
    nothing but the class's slot names, which Python checks are
    identifiers."""
    defaults = cls._defaults
    namespace: dict[str, object] = {"defaults": defaults}
    params, lines = ["self"], []
    for name in cls.__slots__:
        value = name
        if name not in defaults:
            params.append(name)
        elif isinstance(defaults[name], Fresh):
            params.append(f"{name}=None")
            namespace[f"new_{name}"] = defaults[name].factory
            value = f"new_{name}() if {name} is None else {name}"
        else:
            params.append(f"{name}=defaults[{name!r}]")
        lines.append(f"    self.{name} = {value}\n")
    exec(f"def __init__({', '.join(params)}):\n{''.join(lines)}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init


class Diagnostic(Record):
    """One lint finding.  The message always names the offending data."""

    __slots__ = ("rule_id", "severity", "span", "message", "suggestion",
                 "predicate", "path")
    _defaults = {"suggestion": None, "predicate": None, "path": ""}

    def sort_key(self) -> tuple:
        return (self.path, self.span.start_line, self.span.start_col,
                self.rule_id)


class RuleDescriptor(NamedTuple):
    rule_id: str
    title: str
    guideline_ref: str
    default_severity: Severity
    parameters: tuple[str, ...] = ()
    default_enabled: bool = True


#: Diagnostics that report broken input; they cannot be disabled, have their
#: severity overridden, or be suppressed by comments.
NON_SUPPRESSIBLE = frozenset({"E01", "E02", "E99"})

_CATALOG: list[RuleDescriptor] = [
    RuleDescriptor("E01", "lexical error", "Source must tokenize.",
                   Severity.ERROR),
    RuleDescriptor("E02", "syntax error", "Source must parse.",
                   Severity.ERROR),
    RuleDescriptor("E99", "internal error", "Checker rules must not crash.",
                   Severity.ERROR),
    RuleDescriptor("L01", "tab indentation",
                   "Indent with spaces, never with tabs.", Severity.WARNING),
    RuleDescriptor("L02", "inconsistent indentation",
                   "Indent body lines by whole levels of indent_size spaces.",
                   Severity.WARNING, ("indent_size",)),
    RuleDescriptor("L03", "line too long",
                   "Keep source lines within the configured width.",
                   Severity.WARNING, ("max_line_length",)),
    RuleDescriptor("L04", "clause too long",
                   "Keep each clause short enough to read on one screen.",
                   Severity.INFO, ("clause_lines_info", "clause_lines_warn")),
    RuleDescriptor("L05", "several subgoals on one line",
                   "Put each subgoal on its own line.",
                   Severity.WARNING, ("inline_goal_allowlist",)),
    RuleDescriptor("L06", "clause head not at left margin",
                   "Begin every clause on a new line at column 1.",
                   Severity.WARNING),
    RuleDescriptor("L07", "comma spacing",
                   "Be consistent with spacing after commas.",
                   Severity.WARNING, ("comma_style",)),
    RuleDescriptor("L08", "disjunction layout",
                   "Lay out disjunctions so semicolons stand out and the "
                   "closing parenthesis sits below the opening one.",
                   Severity.WARNING),
    RuleDescriptor("L09", "repeat loop indentation",
                   "Indent one extra level between repeat and its cut.",
                   Severity.WARNING, ("indent_size",)),
    RuleDescriptor("L10", "long end-of-line comment",
                   "Keep comments to the right of code very short.",
                   Severity.HINT, ("eol_comment_max",)),
    RuleDescriptor("L11", "missing file header",
                   "Start every source file with a header comment.",
                   Severity.HINT),
    RuleDescriptor("L12", "vertical spacing",
                   "Separate predicates with a blank line; keep clauses of "
                   "one predicate together.", Severity.HINT),
    RuleDescriptor("N01", "intercaps identifier",
                   "Separate words with underscores, not internal "
                   "capitalization.", Severity.WARNING),
    RuleDescriptor("N02", "variable word capitalization",
                   "Capitalize each underscore-separated word of a variable "
                   "name.", Severity.HINT),
    RuleDescriptor("N03", "unpronounceable name",
                   "Make all names pronounceable.", Severity.HINT,
                   ("n03.allowlist",)),
    RuleDescriptor("N04", "number word in name",
                   "Within names, write numbers as digits, not words.",
                   Severity.HINT, ("n04.leet.enabled", "n04.leet.allowlist")),
    RuleDescriptor("N05", "_aux predicate name",
                   "Prefer a purposeful suffix (_case, _loop, _unguarded) or "
                   "a different arity over _aux.", Severity.HINT),
    RuleDescriptor("N06", "list element/tail naming",
                   "Match a list against [Element|Elements]: singular head, "
                   "plural tail.", Severity.HINT, ("n06.enabled",),
                   default_enabled=False),
    RuleDescriptor("N07", "threaded state naming",
                   "Name threaded state variables consistently "
                   "(State0, State1, ..., State).", Severity.HINT),
    RuleDescriptor("D01", "undocumented predicate",
                   "Document every predicate callable from elsewhere with an "
                   "introductory comment.", Severity.WARNING,
                   ("require_docs_without_module", "public_name_pattern")),
    RuleDescriptor("D02", "malformed documentation head",
                   "Write documentation heads in the configured mode "
                   "vocabulary.", Severity.WARNING, ("mode_system",)),
    RuleDescriptor("D03", "documentation mismatch",
                   "Keep documentation heads consistent with the documented "
                   "predicate's name and arity.", Severity.WARNING),
    RuleDescriptor("D04", "missing determinism",
                   "State the determinism (det/semidet/multi/nondet) of every "
                   "documented predicate.", Severity.INFO),
    RuleDescriptor("D05", "argument name mismatch",
                   "Use the documented argument names in clause heads where "
                   "practical.", Severity.HINT),
    RuleDescriptor("D06", "marker misuse",
                   "Reserve '%%' for predicates used elsewhere; introduce "
                   "auxiliaries with '%'.", Severity.HINT),
    RuleDescriptor("D07", "outputs before inputs",
                   "Order documented arguments inputs first, outputs last.",
                   Severity.HINT),
    RuleDescriptor("I01", "cut ends last clause",
                   "A cut at the end of the last clause of a predicate is "
                   "almost always wrong.", Severity.WARNING),
    RuleDescriptor("I02", "repeat without cut",
                   "A repeat not followed by a cut never stops repeating.",
                   Severity.WARNING),
    RuleDescriptor("I03", "append with one-element list",
                   "Use [Element|Rest] instead of append/3 with a one-element "
                   "first argument.", Severity.HINT),
    RuleDescriptor("I04", "singleton variable",
                   "A named variable occurring once in a clause is usually a "
                   "typo.", Severity.WARNING),
    RuleDescriptor("I05", "repeated magic number",
                   "Isolate a number that occurs more than once as the "
                   "argument of a fact.", Severity.HINT,
                   ("magic_number_allowlist",)),
    RuleDescriptor("I06", "reminder tag",
                   "Inventory of %TBD:, %FIX: and %D reminder comments.",
                   Severity.INFO),
    RuleDescriptor("I07", "unparenthesized conjunction in disjunction",
                   "Use parentheses to make the precedence of , against ; "
                   "obvious.", Severity.HINT),
]

REGISTRY: dict[str, RuleDescriptor] = {d.rule_id: d for d in _CATALOG}

#: The check of each rule, registered by ``@rule`` in its family module.  A
#: check takes the file's ``Facts`` and returns or yields its diagnostics.
RULES: dict[str, Callable[["Facts"], Iterable[Diagnostic]]] = {}


def rule(rule_id: str) -> Callable:
    """Register the decorated function as the check of ``rule_id``, whose
    descriptor is in ``_CATALOG``."""
    if rule_id not in REGISTRY:
        raise ValueError(f"rule {rule_id} has no catalog entry")

    def register(check: Callable) -> Callable:
        RULES[rule_id] = check
        return check
    return register


def diag(rule_id: str, span: "Span", message: str,
         severity: Severity | None = None, suggestion: str | None = None,
         predicate: tuple[str, int] | None = None) -> Diagnostic:
    """A diagnostic of ``rule_id``, by default at its catalog severity."""
    return Diagnostic(rule_id=rule_id,
                      severity=severity or REGISTRY[rule_id].default_severity,
                      span=span, message=message, suggestion=suggestion,
                      predicate=predicate)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_DEFAULT_INLINE_GOALS = frozenset(
    {("write", 1), ("nl", 0), ("print", 1),
     ("format", 1), ("format", 2), ("format", 3)}
)


class Config(Record):
    __slots__ = ("indent_size", "max_line_length", "clause_lines_info",
                 "clause_lines_warn", "eol_comment_max",
                 "magic_number_allowlist", "inline_goal_allowlist",
                 "mode_system", "comma_style", "failure_threshold",
                 "extensions", "pronounceable_allowlist", "leet_enabled",
                 "leet_allowlist", "require_docs_without_module",
                 "public_name_pattern", "rule_enabled", "rule_severity",
                 "problems")

    _defaults = {
        "indent_size": 4, "max_line_length": 79, "clause_lines_info": 24,
        "clause_lines_warn": 48, "eol_comment_max": 40,
        "magic_number_allowlist": frozenset({0, 1, -1, 2}),
        "inline_goal_allowlist": _DEFAULT_INLINE_GOALS,
        "mode_system": "recommended", "comma_style": "simple",
        "failure_threshold": Severity.WARNING,
        "extensions": (".pl", ".pro", ".prolog"),
        "pronounceable_allowlist": frozenset(
            {"src", "msg", "tmp", "str", "ptr", "cfg", "db"}),
        "leet_enabled": False, "leet_allowlist": frozenset({"i18n", "l10n"}),
        "require_docs_without_module": True, "public_name_pattern": None,
        "rule_enabled": Fresh(dict), "rule_severity": Fresh(dict),
        "problems": Fresh(list)}

    def enabled(self, rule_id: str) -> bool:
        if rule_id in self.rule_enabled:
            return self.rule_enabled[rule_id]
        desc = REGISTRY.get(rule_id)
        return desc.default_enabled if desc else True


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


#: The largest magnitude of an integer setting.  Longer values are rejected
#: before ``int()`` sees them, so that the interpreter's own digit limit
#: (``PYTHONINTMAXSTRDIGITS``) never decides whether a config loads.
MAX_INTEGER_SETTING = 10_000


def _parse_int(value: str) -> int:
    text = value.strip()
    too_large = f"expected at most {MAX_INTEGER_SETTING} in magnitude"
    if len(text.lstrip("+-").lstrip("0")) > len(str(MAX_INTEGER_SETTING)):
        raise ValueError(too_large)
    number = int(text)
    if abs(number) > MAX_INTEGER_SETTING:
        raise ValueError(too_large)
    return number


def parse_positive_int(value: str) -> int:
    number = _parse_int(value)
    if number < 1:
        raise ValueError(f"expected a positive integer, got {number}")
    return number


def _parse_pattern(value: str) -> str:
    pattern = value.strip()
    try:
        re.compile(pattern)
    except re.error as exc:
        raise ValueError(f"not a regular expression: {exc}") from None
    return pattern


def _parse_number(value: str):
    from .source_model import MAX_INTEGER_DIGITS

    text = value.strip()
    # As in _parse_int: the length is checked before ``int()`` sees it.
    digits = text.lstrip("+-").replace("_", "")
    if digits.isdecimal() and len(digits) > MAX_INTEGER_DIGITS:
        raise ValueError(f"integer has more than {MAX_INTEGER_DIGITS} digits")
    try:
        return int(text)
    except ValueError:
        return float(text)


def _parse_name_list(value: str) -> frozenset:
    return frozenset(v.strip() for v in value.split(",") if v.strip())


def _parse_number_list(value: str) -> frozenset:
    return frozenset(_parse_number(v) for v in value.split(",") if v.strip())


def _parse_indicator_list(value: str) -> frozenset:
    out = set()
    for item in value.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, arity = item.partition("/")
        out.add((name.strip(), _parse_int(arity)))
    return frozenset(out)


def _parse_extensions(value: str) -> tuple[str, ...]:
    exts = []
    for item in value.split(","):
        item = item.strip()
        if item and not item.startswith("."):
            item = "." + item
        if item:
            exts.append(item)
    return tuple(exts)


def _parse_choice(*choices: str) -> Callable[[str], str]:
    def parse(value: str) -> str:
        v = value.strip()
        if v not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}")
        return v
    return parse


_SCALAR_KEYS: dict[str, tuple[str, Callable]] = {
    "indent_size": ("indent_size", parse_positive_int),
    "max_line_length": ("max_line_length", parse_positive_int),
    "clause_lines_info": ("clause_lines_info", _parse_int),
    "clause_lines_warn": ("clause_lines_warn", _parse_int),
    "eol_comment_max": ("eol_comment_max", _parse_int),
    "magic_number_allowlist": ("magic_number_allowlist", _parse_number_list),
    "inline_goal_allowlist": ("inline_goal_allowlist", _parse_indicator_list),
    "mode_system": ("mode_system",
                    _parse_choice("recommended", "pldoc", "simple")),
    "comma_style": ("comma_style", _parse_choice("simple", "structured")),
    "fail_on": ("failure_threshold", Severity.from_name),
    "extensions": ("extensions", _parse_extensions),
    "n03.allowlist": ("pronounceable_allowlist", _parse_name_list),
    "n04.leet.enabled": ("leet_enabled", _parse_bool),
    "n04.leet.allowlist": ("leet_allowlist", _parse_name_list),
    "require_docs_without_module": ("require_docs_without_module",
                                    _parse_bool),
    "public_name_pattern": ("public_name_pattern", _parse_pattern),
}

_KEY_ALIASES = {"n06.enabled": "rule.N06.enabled"}

_RULE_KEY = re.compile(r"rule\.([A-Za-z][A-Za-z0-9]*)\.(enabled|severity)$")


def config_problem(cfg: Config, severity: Severity, line: int,
                   message: str, path: str) -> None:
    from .source_model import Span  # deferred: source_model imports this module

    cfg.problems.append(
        Diagnostic(rule_id="C01", severity=severity,
                   span=Span(line, 1, line, 1, 0, 0),
                   message=message, path=path))


def load_config(text: str, path: str = "<config>") -> Config:
    """Parse the key=value configuration document.

    Unknown keys and rule ids are reported (as warnings in ``problems``),
    never silently ignored; malformed lines are reported as errors.  The
    returned Config always carries usable values (defaults where a line was
    rejected).
    """
    cfg = Config()
    set_on: dict[str, int] = {}  # the line each scalar key was last set on
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            config_problem(cfg, Severity.ERROR, lineno,
                           f"malformed configuration line: {raw.strip()!r} "
                           "(expected key = value)", path)
            continue
        key, _, value = line.partition("=")
        key = _KEY_ALIASES.get(key.strip(), key.strip())
        value = value.strip()
        rule_match = _RULE_KEY.match(key)
        if rule_match:
            rule_id, attr = rule_match.group(1).upper(), rule_match.group(2)
            if rule_id not in REGISTRY:
                config_problem(cfg, Severity.WARNING, lineno,
                               f"unknown rule id {rule_id!r}", path)
                continue
            try:
                if attr == "enabled":
                    cfg.rule_enabled[rule_id] = _parse_bool(value)
                else:
                    cfg.rule_severity[rule_id] = Severity.from_name(value)
            except ValueError as exc:
                config_problem(cfg, Severity.ERROR, lineno,
                               f"bad value for {key}: {exc}", path)
            continue
        if key in _SCALAR_KEYS:
            attr, parser = _SCALAR_KEYS[key]
            try:
                setattr(cfg, attr, parser(value))
                set_on[key] = lineno
            except ValueError as exc:
                config_problem(cfg, Severity.ERROR, lineno,
                               f"bad value for {key}: {exc}", path)
            continue
        config_problem(cfg, Severity.WARNING, lineno,
                       f"unknown configuration key {key!r}", path)
    # Checked once every line is read, so that key order does not matter.
    if cfg.clause_lines_info > cfg.clause_lines_warn:
        config_problem(
            cfg, Severity.ERROR,
            max(set_on.get("clause_lines_info", 1),
                set_on.get("clause_lines_warn", 1)),
            f"clause_lines_info ({cfg.clause_lines_info}) exceeds "
            f"clause_lines_warn ({cfg.clause_lines_warn}); the L04 info "
            "band would never fire", path)
    return cfg


# ---------------------------------------------------------------------------
# Execution harness
# ---------------------------------------------------------------------------

#: Suppression-comment syntax, recognized on a clause's first line.
SUPPRESSION_COMMENT = re.compile(
    r"%+\s*prolint:\s*allow\s+([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)")


def _suppressed_lines(program: "Program") -> dict[int, frozenset]:
    """Map every line of each clause whose head line carries a
    ``% prolint: allow`` comment to the rule ids allowed there.  Clauses can
    share a line (``a. b. % prolint: allow L05``), so a line's ids are the
    union over the clauses that cover it."""
    trailing_by_line: dict[int, set[str]] = {}
    for attached in program.comments:
        if attached.kind.value != "trailing":
            continue
        m = SUPPRESSION_COMMENT.search(attached.token.text)
        if m:
            ids = {part.strip().upper() for part in m.group(1).split(",")}
            line = attached.token.span.start_line
            trailing_by_line.setdefault(line, set()).update(ids)
    allowed: dict[int, frozenset] = {}
    for clause in program.items:
        ids = trailing_by_line.get(clause.span.start_line)
        if ids:
            for line in range(clause.span.start_line,
                              clause.span.end_line + 1):
                allowed[line] = allowed.get(line, frozenset()) | ids
    return allowed


@lru_cache(maxsize=64)
def enabled_rules(settings: tuple, registered: tuple) -> dict:
    """Each family's enabled ``(rule id, check)`` pairs in registration
    order for ``Config.rule_enabled`` and ``RULES`` as items, built once per
    setting and set of checks and shared, so callers must not change them."""
    enabled = Config(rule_enabled=dict(settings)).enabled
    rules: dict[str, list[tuple[str, Callable]]] = {}
    for rule_id, check in registered:
        if enabled(rule_id):
            rules.setdefault(rule_id[0], []).append((rule_id, check))
    return rules


def run_family(family: str, facts: "Facts") -> list[Diagnostic]:
    """Run the enabled rules of ``family`` ("L", "N", "D" or "I") from
    ``facts.rules``.  A rule that raises becomes one E99 naming it and the
    exception type; the family's other rules still report."""
    diags: list[Diagnostic] = []
    for rule_id, check in facts.rules.get(family, ()):
        try:
            found = list(check(facts))
        except Exception as exc:  # one rule's failure must not hide others
            from .source_model import Span  # deferred, as in config_problem
            found = [diag("E99", Span(1, 1, 1, 1, 0, 0),
                          f"internal rule failure in {rule_id}: "
                          f"{type(exc).__name__}: {exc}")]
        diags += found
    return diags


@lru_cache(maxsize=None)
def _pipeline() -> tuple:
    """``Facts`` and each family's module with the name of its check,
    imported on first use because they import this module.  The check is
    looked up on every run, so that it can be wrapped."""
    from . import doc_rules, idiom_rules, layout_rules, naming_rules
    from .reader import Facts
    return Facts, ((layout_rules, "check_layout"),
                   (naming_rules, "check_naming"),
                   (doc_rules, "check_docs"), (idiom_rules, "check_idioms"))


def run(src: "SourceFile", program: "Program", cfg: Config) -> list[Diagnostic]:
    """Run every enabled rule plus the collected syntax diagnostics.

    A rule that raises becomes an E99 naming it (``run_family``), so the
    run never crashes.  Output is sorted by (line, column, rule id).
    """
    facts_class, families = _pipeline()
    facts = facts_class(src, program, cfg)
    diags: list[Diagnostic] = []
    for module, check in families:
        diags += getattr(module, check)(facts)

    allowed = _suppressed_lines(program)
    # The program keeps its syntax diagnostics for later runs and ``fmt``,
    # so they are copied; ``diag`` made the rule diagnostics for this run.
    out = [Diagnostic(d.rule_id, d.severity, d.span, d.message, d.suggestion,
                      d.predicate, src.path)
           for d in program.syntax_diagnostics]
    for d in diags:
        if d.rule_id not in NON_SUPPRESSIBLE:
            if d.rule_id in allowed.get(d.span.start_line, ()):
                continue
            d.severity = cfg.rule_severity.get(d.rule_id, d.severity)
        d.path = src.path
        out.append(d)
    out.sort(key=lambda d: (d.span.start_line, d.span.start_col, d.rule_id))
    return out


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

#: Each severity's label, from the most severe down.
_LABELS = {sev: sev.label for sev in sorted(Severity, reverse=True)}


def render_text(diags: list[Diagnostic]) -> str:
    """One ``path:line:col: severity [RULE] message`` line per diagnostic."""
    lines = [
        f"{d.path}:{d.span.start_line}:{d.span.start_col}: "
        f"{_LABELS[d.severity]} [{d.rule_id}] {d.message}"
        for d in diags
    ]
    return "".join(line + "\n" for line in lines)


def render_json(diags: list[Diagnostic]) -> str:
    """The ``{"diagnostics": [...], "summary": {...}}`` document, laid out
    byte for byte as ``json.dumps(document, indent=2)`` lays it out.  It is
    written here because ``json.dumps`` falls back to its pure-Python
    encoder whenever ``indent`` is set.  ``json`` is imported here, as only
    ``check --format json`` needs it."""
    from json.encoder import encode_basestring_ascii as quote
    counts = dict.fromkeys(_LABELS.values(), 0)
    paths = {path: quote(path) for path in {d.path for d in diags}}
    entries = []
    for d in diags:
        label = _LABELS[d.severity]
        counts[label] += 1
        span = d.span
        suggestion = "null" if d.suggestion is None else quote(d.suggestion)
        predicate = (quote(f"{d.predicate[0]}/{d.predicate[1]}")
                     if d.predicate else "null")
        entries.append(
            "    {\n"
            f'      "path": {paths[d.path]},\n'
            f'      "line": {span.start_line},\n'
            f'      "col": {span.start_col},\n'
            f'      "end_line": {span.end_line},\n'
            f'      "end_col": {span.end_col},\n'
            f'      "rule": {quote(d.rule_id)},\n'
            f'      "severity": "{label}",\n'
            f'      "message": {quote(d.message)},\n'
            f'      "suggestion": {suggestion},\n'
            f'      "predicate": {predicate}\n'
            "    }")
    listed = "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"
    summary = ",\n".join(f'    "{label}": {count}'
                         for label, count in counts.items())
    return (f'{{\n  "diagnostics": {listed},\n'
            f'  "summary": {{\n{summary}\n  }}\n}}\n')
