"""Introductory-comment checks D01-D07 and the doc-head grammar.

A documentation head looks like::

    %% nth0(?Index, ?List, ?Elem) is nondet

with per-argument mode specifiers drawn from one of three vocabularies
(``recommended``, ``pldoc``, ``simple``), optional ``:type`` annotations,
and an optional determinism specifier (det/semidet/multi/nondet).  ``%%``
introduces a predicate callable from elsewhere, ``%`` an auxiliary one;
PlDoc's ``%!`` is accepted as an alias for ``%%``.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

from .diagnostics import (
    MODE_SYSTEMS,
    Diagnostic,
    Fresh,
    Record,
    diag,
    rule,
    run_family,
)
from .reader import (
    ClauseKind,
    CommentAttachment,
    Compound,
    Facts,
    PredicateDef,
    Program,
    Term,
    Variable,
    indicator_of,
    is_compound,
    leaf_goals,
    strip_module_qualifier,
)
from .source_model import TokenKind

_ALL_MODES = frozenset().union(*MODE_SYSTEMS.values())

DETERMINISM_SPECIFIERS = ("det", "semidet", "multi", "nondet")

_INPUT_MODES = frozenset("+*")
_OUTPUT_MODES = frozenset("-/")


class ArgDoc(Record):
    __slots__ = ("mode", "name", "type_name")
    _defaults = {"type_name": None}


class DocHead(Record):
    __slots__ = ("predicate_name", "args", "determinism", "marker")
    _defaults = {"args": Fresh(list), "determinism": None, "marker": "double"}

    @property
    def indicator(self) -> tuple[str, int]:
        return (self.predicate_name, len(self.args))


class DocHeadError(ValueError):
    """Raised when a comment cannot be read as a documentation head."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(message)
        self.message = message
        self.position = position


_MARKER = re.compile(r"%!|%+")
_NAME = re.compile(r"[a-z][A-Za-z0-9_]*")
_ARG_NAME = re.compile(r"[A-Z_][A-Za-z0-9_]*")


def _marker_kind(text: str) -> str:
    """``"double"`` for a comment opened by ``%%`` or PlDoc's ``%!`` with
    text after the marker, which introduces a predicate callable from
    elsewhere; else ``"single"``, as for a ``%%%%%%%%`` banner."""
    return "double" if text.startswith(("%%", "%!")) and _strip_marker(text) \
        else "single"


class _Cursor:
    def __init__(self, text: str) -> None:
        self.text = text
        self.i = 0

    def skip_ws(self) -> None:
        while self.i < len(self.text) and self.text[self.i] in " \t":
            self.i += 1

    def peek(self) -> str:
        return self.text[self.i] if self.i < len(self.text) else ""

    def match(self, pattern: re.Pattern) -> str | None:
        m = pattern.match(self.text, self.i)
        if m:
            self.i = m.end()
            return m.group(0)
        return None

    def take(self, literal: str) -> bool:
        if self.text.startswith(literal, self.i):
            self.i += len(literal)
            return True
        return False


def _parse_structure(comment_text: str) -> DocHead:
    """Parse a doc head accepting the union of all mode vocabularies; the
    caller validates symbols against the active system."""
    first_line = comment_text.split("\n", 1)[0]
    cur = _Cursor(first_line)
    if cur.match(_MARKER) is None:
        raise DocHeadError("doc comment must begin with '%'", 0)
    cur.skip_ws()
    name = cur.match(_NAME)
    if name is None:
        raise DocHeadError("expected a predicate name", cur.i)
    args: list[ArgDoc] = []
    cur.skip_ws()
    if cur.take("("):
        while True:
            args.append(_parse_arg(cur))
            cur.skip_ws()
            if cur.take(","):
                continue
            if cur.take(")"):
                break
            raise DocHeadError("expected ',' or ')' in argument list", cur.i)
    cur.skip_ws()
    cur.take("//")  # PlDoc grammar-rule notation, tolerated
    cur.skip_ws()
    determinism = None
    if cur.match(re.compile(r"is(?![A-Za-z0-9_])")):
        cur.skip_ws()
        word = cur.match(re.compile(r"[a-z]+"))
        if word not in DETERMINISM_SPECIFIERS:
            raise DocHeadError(
                f"unknown determinism specifier {word!r} (expected one of "
                f"{', '.join(DETERMINISM_SPECIFIERS)})", cur.i)
        determinism = word
    cur.skip_ws()
    cur.take(".")
    cur.skip_ws()
    if cur.peek():
        raise DocHeadError(
            f"unexpected text after doc head: {first_line[cur.i:].strip()!r}",
            cur.i)
    return DocHead(predicate_name=name, args=args, determinism=determinism,
                   marker=_marker_kind(first_line))


def _parse_arg(cur: _Cursor) -> ArgDoc:
    cur.skip_ws()
    mode = None
    if cur.peek() in _ALL_MODES:
        mode = cur.peek()
        cur.i += 1
        cur.skip_ws()
    name = cur.match(_ARG_NAME)
    if name is None:
        raise DocHeadError("expected an argument name (a variable)", cur.i)
    type_name = None
    cur.skip_ws()
    if cur.peek() == ":":
        cur.i += 1
        cur.skip_ws()
        depth = 0
        start = cur.i
        while cur.i < len(cur.text):
            ch = cur.text[cur.i]
            if ch == "(":
                depth += 1
            elif ch == ")":
                if depth == 0:
                    break
                depth -= 1
            elif ch == "," and depth == 0:
                break
            cur.i += 1
        type_name = cur.text[start:cur.i].strip()
        if not type_name:
            raise DocHeadError("expected a type name after ':'", start)
    return ArgDoc(mode=mode, name=name, type_name=type_name)


def _invalid_modes(head: DocHead, system: str) -> list[str]:
    vocab = MODE_SYSTEMS[system]
    return [arg.mode for arg in head.args
            if arg.mode is not None and arg.mode not in vocab]


def parse_doc_head(comment_text: str,
                   system: str = "recommended") -> DocHead:
    """Parse a documentation head under the given mode system.

    Raises DocHeadError on malformed input or on a mode specifier that the
    active system does not define (the error names the symbol and system).
    """
    if system not in MODE_SYSTEMS:
        raise ValueError(f"unknown mode system {system!r}")
    head = _parse_structure(comment_text)
    bad = _invalid_modes(head, system)
    if bad:
        raise DocHeadError(
            f"mode specifier '{bad[0]}' is not part of the {system} "
            "system", 0)
    return head


def print_doc_head(head: DocHead) -> str:
    marker = "%%" if head.marker == "double" else "%"
    pieces = []
    for arg in head.args:
        text = (arg.mode or "") + arg.name
        if arg.type_name:
            text += ":" + arg.type_name
        pieces.append(text)
    out = f"{marker} {head.predicate_name}"
    if pieces:
        out += "(" + ", ".join(pieces) + ")"
    if head.determinism:
        out += f" is {head.determinism}"
    return out


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

_CANDIDATE = re.compile(r"[a-z][A-Za-z0-9_]*\s*(\(|is\b|//|$)")


class _DocBlock(Record):
    __slots__ = ("clause_index", "tokens", "heads", "failure", "group",
                 "group_index")
    _defaults = {"heads": Fresh(list), "failure": None, "group": None,
                 "group_index": None}

    @property
    def marker(self) -> str:
        return _marker_kind(self.tokens[0].text)


def _strip_marker(text: str) -> str:
    m = _MARKER.match(text)
    return text[m.end():].strip() if m else text.strip()


def _collect_blocks(program: Program) -> list[_DocBlock]:
    """The line comments above each clause that is not a directive."""
    blocks = []
    for clause_index, clause in enumerate(program.items):
        tokens = [attached.token for attached in clause.comments
                  if attached.kind is CommentAttachment.PRECEDING
                  and attached.token.kind is TokenKind.LINE_COMMENT]
        if not tokens or clause.kind is ClauseKind.DIRECTIVE:
            continue
        block = _DocBlock(clause_index=clause_index, tokens=tokens)
        for position, token in enumerate(tokens):
            stripped = _strip_marker(token.text)
            is_first = position == 0
            looks_like_head = bool(_CANDIDATE.match(stripped))
            if is_first and block.marker == "double":
                looks_like_head = True
            elif not looks_like_head:
                break
            try:
                head = _parse_structure(token.text)
            except DocHeadError as exc:
                if is_first:
                    block.failure = (exc, token)
                break
            block.heads.append((head, token))
        blocks.append(block)
    return blocks


class _Docs:
    """The doc blocks above clauses (not directives), each with the
    predicate group of its clause, and what they document."""

    def __init__(self, facts: Facts) -> None:
        program = facts.program
        self.groups = facts.predicates
        #: The index in ``groups`` of each clause's group, by item index.
        self.group_index: dict[int, int] = {}
        clause_ids = {id(c): i for i, c in enumerate(program.items)}
        for gi, group in enumerate(self.groups):
            for clause in group.clauses:
                self.group_index[clause_ids[id(clause)]] = gi
        self.blocks = _collect_blocks(program)
        #: Predicates with a '%%' head naming them, and the first head
        #: written for each indicator.
        self.documented: set[tuple[str, int]] = set()
        self.heads_by_group: dict[tuple[str, int], DocHead] = {}
        for block in self.blocks:
            block.group_index = self.group_index.get(block.clause_index)
            if block.group_index is None:
                continue
            block.group = group = self.groups[block.group_index]
            for head, _token in block.heads:
                if block.marker == "double" \
                        and head.predicate_name == group.indicator[0]:
                    self.documented.add(head.indicator)
                self.heads_by_group.setdefault(head.indicator, head)


def check_docs(facts: Facts) -> list[Diagnostic]:
    return run_family("D", facts)


def _called_indicators(goals: list[Term]) -> set[tuple[str, int]]:
    """The predicates that ``goals`` call, looking inside ``\\+``."""
    called: set[tuple[str, int]] = set()
    stack = list(goals)
    while stack:
        goal = strip_module_qualifier(stack.pop())
        indicator = indicator_of(goal)
        if indicator is None:
            continue
        called.add(indicator)
        if is_compound(goal, "\\+", 1):
            stack.extend(leaf_goals(goal.args[0]))
    return called


@rule("D01")
def _d01_undocumented(facts: Facts) -> Iterator[Diagnostic]:
    docs = facts.context(_Docs)
    groups = docs.groups
    required: list[PredicateDef] = []
    if facts.program.has_module_directive:
        required = [g for g in groups if g.exported]
        why = "exported"
    else:
        why = "called from other predicates in this file"
        if facts.cfg.require_docs_without_module:
            callers: dict[tuple[str, int], set[int]] = {}
            for idx, goals in enumerate(facts.leaf_goals):
                gi = docs.group_index.get(idx)
                if gi is None:
                    continue
                for ind in _called_indicators(goals):
                    callers.setdefault(ind, set()).add(gi)
            pattern = re.compile(facts.cfg.public_name_pattern) \
                if facts.cfg.public_name_pattern else None
            for gi, group in enumerate(groups):
                others = callers.get(group.indicator, set()) - {gi}
                if others or (pattern
                              and pattern.search(group.indicator[0])):
                    required.append(group)
    for group in required:
        if group.indicator in docs.documented:
            continue
        name, arity = group.indicator
        yield diag("D01", group.clauses[0].span,
                   f"predicate {name}/{arity} is {why} but has no '%%' "
                   "introductory comment", predicate=group.indicator)


@rule("D02")
def _d02_malformed_head(facts: Facts) -> Iterator[Diagnostic]:
    """The head must parse, and its modes must belong to the configured
    system."""
    system = facts.cfg.mode_system
    for block in facts.context(_Docs).blocks:
        if block.failure is not None:
            error, token = block.failure
            yield diag("D02", token.span,
                       f"documentation head does not parse: {error.message}",
                       predicate=block.group.indicator if block.group
                       else None)
        for head, token in block.heads:
            for symbol in _invalid_modes(head, system):
                yield diag("D02", token.span,
                           f"mode specifier '{symbol}' is not part of the "
                           f"{system} system", predicate=head.indicator)


@rule("D03")
def _d03_mismatch(facts: Facts) -> Iterator[Diagnostic]:
    """Every head in a block must match an adjacent definition."""
    docs = facts.context(_Docs)
    for block in docs.blocks:
        group = block.group
        if group is None or not block.heads:
            continue
        gi = block.group_index
        targets = [g.indicator for g in docs.groups[gi:gi + len(block.heads)]]
        for head, token in block.heads:
            if head.indicator in targets:
                continue
            name, arity = head.indicator
            if name == group.indicator[0]:
                message = (f"documented arity {arity}, defined arity "
                           f"{group.indicator[1]} for {name}")
            else:
                message = (f"doc comment names {name}/{arity}, which is "
                           "not defined adjacent to it")
            yield diag("D03", token.span, message,
                       predicate=group.indicator)


@rule("D04")
def _d04_determinism(facts: Facts) -> Iterator[Diagnostic]:
    """A main doc comment should state determinism."""
    for block in facts.context(_Docs).blocks:
        if block.marker != "double":
            continue
        for head, token in block.heads:
            if head.determinism is None:
                name, arity = head.indicator
                yield diag("D04", token.span,
                           f"documentation of {name}/{arity} does not state "
                           "its determinism", predicate=head.indicator)


@rule("D05")
def _d05_argument_names(facts: Facts) -> Iterator[Diagnostic]:
    """Clause-head variables should reuse the documented names."""
    docs = facts.context(_Docs)
    for group in docs.groups:
        head_doc = docs.heads_by_group.get(group.indicator)
        if head_doc is None:
            continue
        for clause in group.clauses:
            if not isinstance(clause.head, Compound):
                continue
            for position, arg in enumerate(clause.head.args):
                if position >= len(head_doc.args):
                    break
                if not isinstance(arg, Variable) \
                        or arg.name.startswith("_"):
                    continue
                documented_name = head_doc.args[position].name
                if arg.name != documented_name:
                    name, arity = group.indicator
                    yield diag("D05", arg.span,
                               f"argument {position + 1} of {name}/{arity} "
                               f"is named {arg.name} here but "
                               f"{documented_name} in its documentation",
                               predicate=group.indicator)


@rule("D06")
def _d06_marker(facts: Facts) -> Iterator[Diagnostic]:
    """'%%' on a predicate the module does not export."""
    if not facts.program.has_module_directive:
        return
    for block in facts.context(_Docs).blocks:
        group = block.group
        if block.marker == "double" and group is not None \
                and not group.exported:
            name, arity = group.indicator
            yield diag("D06", block.tokens[0].span,
                       f"auxiliary predicate {name}/{arity} is documented "
                       "with '%%'; use a single '%'",
                       predicate=group.indicator)


@rule("D07")
def _d07_argument_order(facts: Facts) -> Iterator[Diagnostic]:
    """Outputs documented before inputs."""
    for block in facts.context(_Docs).blocks:
        for head, token in block.heads:
            seen_output: ArgDoc | None = None
            for arg in head.args:
                if arg.mode in _OUTPUT_MODES and seen_output is None:
                    seen_output = arg
                elif arg.mode in _INPUT_MODES and seen_output is not None:
                    yield diag("D07", token.span,
                               f"output argument '{seen_output.name}' is "
                               f"documented before input '{arg.name}'; "
                               "order arguments inputs first, outputs "
                               "last", predicate=head.indicator)
                    break
