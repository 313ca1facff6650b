"""Canonical source rewriter.

The output style: no tabs; every clause head at column 1; one goal per line,
body goals indented one unit; disjunctions and if-then-elses in the compact
parenthesized block form with the closing parenthesis aligned below the
opening one; one extra level between ``repeat`` and its cut; exactly one
blank line between predicates and none between clauses of one predicate.
Comments are preserved: preceding comments stay above their clause, trailing
comments stay on their line when short enough, everything else keeps its
place between the goals.  Atom, string and number lexemes are emitted
verbatim.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass

from .diagnostics import SUPPRESSION_COMMENT, Config, Diagnostic
from .reader import (
    CONTROL_FUNCTORS,
    Atom,
    Clause,
    ClauseKind,
    CommentAttachment,
    Compound,
    Integer,
    OperatorTable,
    Program,
    Str,
    Term,
    Variable,
    apply_directive_to_table,
    conjunction_goal_begins,
    conjunction_goals,
    contains_cut,
    is_atom,
    is_compound,
    leaf_goals,
)
from .source_model import SYMBOL_CHARS, SourceFile, Span, Token


class FormatError(Exception):
    """Formatting refused; carries the blocking syntax diagnostic."""

    def __init__(self, diagnostic: Diagnostic) -> None:
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


# ---------------------------------------------------------------------------
# Inline term rendering (minimal parentheses under an operator table)
# ---------------------------------------------------------------------------

class _Renderer:
    def __init__(self, ops: OperatorTable) -> None:
        self.ops = ops
        # id(term) -> (text, priority).  Every rendered term is a subterm of
        # one clause and outlives the cache; the cache must not outlive
        # ``ops``, since an op/3 directive changes every rendering.
        self.rendered: dict[int, tuple[str, int]] = {}

    def render(self, term: Term, max_prec: int) -> str:
        text, priority = self.rendered[id(term)]
        return f"({text})" if priority > max_prec else text

    def fill(self, terms: list[Term]) -> None:
        """Cache each of ``terms`` and its subterms in one walk: leaves as
        the walk meets them, compounds in reverse pre-order, where each
        comes after its subterms and reads their entries."""
        rendered = self.rendered
        priorities = self.ops.priorities
        order: list[Compound] = []
        stack = list(terms)
        while stack:
            node = stack.pop()
            kind = type(node)
            if kind is Compound:
                order.append(node)
                # A list's children are its elements and its tail, not its
                # cons cells, which would each render the rest of the list.
                if node.name == "." and len(node.args) == 2:
                    while type(node) is Compound and node.name == "." \
                            and len(node.args) == 2:
                        stack.append(node.args[0])
                        node = node.args[1]
                    stack.append(node)
                else:
                    stack += node.args
            elif kind is Atom:
                # An operator atom's own parentheses are not printed, so it
                # has its operator priority even where the source
                # parenthesized it.
                rendered[id(node)] = (
                    node.name if node.lexeme is None else node.lexeme,
                    0 if node.quoted else priorities.get(node.name, 0))
            elif kind is Variable:
                rendered[id(node)] = node.name, 0
            elif kind is Str:
                rendered[id(node)] = node.lexeme or f'"{node.text}"', 0
            else:  # an Integer or a Float
                rendered[id(node)] = node.lexeme or str(node.value), 0
        step = self._render_compound
        for node in reversed(order):
            rendered[id(node)] = step(node)

    def _render_compound(self, term: Compound) -> tuple[str, int]:
        """One compound's text and priority, from its children's entries."""
        rendered, ops = self.rendered, self.ops
        name, args = term.name, term.args
        items = args
        if name == "." and len(args) == 2:
            items, node = [], term
            while type(node) is Compound and node.name == "." \
                    and len(node.args) == 2:
                items.append(node.args[0])
                node = node.args[1]
        elif len(args) == 2 and (definition := ops.infix(name)):
            p = definition.priority
            first, second = args
            # Nothing asks for an operand again (the emitters split control
            # constructs unrendered, and ``pack`` breaks only lists and
            # canonical compounds); kept, a chain's entries would hold every
            # prefix of its text.
            left, left_priority = rendered.pop(id(first))
            right, right_priority = rendered.pop(id(second))
            block = name in (";", "->", "*->")
            # A bare infix or postfix operator atom before an infix operator
            # would read as that operator.
            if left_priority > (p if definition.type == "yfx" else p - 1) \
                    or (block and is_compound(first, ",", 2)
                        and first.parenthesized) \
                    or (type(first) is Atom and not first.quoted
                        and (ops.infix(first.name) or ops.postfix(first.name))):
                left = f"({left})"
            if right_priority > (p if definition.type == "xfy" else p - 1) \
                    or (block and is_compound(second, ",", 2)
                        and second.parenthesized):
                right = f"({right})"
            if name == ",":
                return f"{left}, {right}", p
            # Predicate indicators (``foo/1``) and module qualifications
            # (``m:goal``) print without spaces, provided the characters do
            # not fuse into a longer symbolic token.
            if (name == ":" or name == "/" and type(first) is Atom
                    and type(second) is Integer) \
                    and left[-1] not in SYMBOL_CHARS \
                    and right[0] not in SYMBOL_CHARS:
                return f"{left}{name}{right}", p
            return f"{left} {name} {right}", p
        elif len(args) == 1 and name == "{}":  # no priority is above 1200
            return "{" + rendered[id(args[0])][0] + "}", 0
        elif len(args) == 1 \
                and (definition := ops.prefix(name) or ops.postfix(name)):
            text, priority = rendered[id(args[0])]
            if priority > definition.priority \
                    - (definition.type in ("fx", "xf")):
                text = f"({text})"
            return (f"{name} {text}" if definition.type[0] == "f"
                    else f"{text} {name}"), definition.priority
        texts = []
        for item in items:
            text, priority = rendered[id(item)]
            texts.append(f"({text})" if priority > 999 else text)
        if items is args:
            return f"{term.functor_lexeme or name}(" + ", ".join(texts) \
                + ")", 0
        text = "[" + ", ".join(texts)
        if type(node) is not Atom or node.name != "[]":
            tail, priority = rendered[id(node)]
            text += "|" + (f"({tail})" if priority > 999 else tail)
        return text + "]", 0

    # -- width-aware rendering --------------------------------------------

    def pack(self, stack: list[list], pending: tuple | None, line: str,
             base: int, width: int, unit: int) -> list[str]:
        """Place ``pending`` (term, text, text after it), then the rest of
        each frame on ``stack``, on ``line`` (open at 0-based column
        ``base``) and the lines after it.  A frame is a term being broken:
        [parts, next index, opener, closer (with a partial list's tail),
        continuation indent, text after it, offset in ``line`` of it]."""
        lines: list[str] = []
        while pending or stack:
            if pending:
                part, text, after = pending
                pending = None
                parts = None
                if base + len(line) + len(text) > width:
                    if is_compound(part, ".", 2):
                        parts, opener, closer = [], "[", "]"
                        while is_compound(part, ".", 2):
                            parts.append(part.args[0])
                            part = part.args[1]
                        if not is_atom(part, "[]"):
                            closer = "|" + self.render(part, 999) + "]"
                    elif isinstance(part, Compound) and part.args \
                            and self.rendered[id(part)][1] == 0 \
                            and part.name != "{}":
                        parts, closer = part.args, ")"
                        opener = (part.functor_lexeme or part.name) + "("
                if parts is None:
                    line += text + after
                    continue
                stack.append([parts, 0, opener, closer,
                              base + len(line) + unit, after, len(line)])
                line += opener
                continue
            frame = stack[-1]
            parts, index, opener, closer, indent, after, at = frame
            if index == len(parts):
                line += after
                stack.pop()
                continue
            frame[1] += 1
            part = parts[index]
            tail = "," if index < len(parts) - 1 else closer
            text = self.render(part, 999)
            # On a later line the indent runs past ``at``, so the slice strips
            # to the same text as the whole line and ends as it does.
            current = line[at:]
            sep = " " if current.strip() and not current.endswith(opener) \
                else ""
            if base + len(line) + len(sep) + len(text) + len(tail) <= width:
                line += sep + text + tail
                continue
            if current.strip() not in ("", opener.strip()):
                lines.append(line)
                line, base = " " * indent, 0
            if base + len(line) + len(text) + len(tail) <= width:
                line += text + tail
            else:
                pending = (part, text, tail)
        lines.append(line)
        return lines


# ---------------------------------------------------------------------------
# Clause emission
# ---------------------------------------------------------------------------


def _is_block(goal: Term) -> bool:
    """A disjunction, an if-then-else, or a conjunction that is one goal
    because it is parenthesized: laid out as a parenthesized block."""
    return type(goal) is Compound and len(goal.args) == 2 \
        and goal.name in CONTROL_FUNCTORS


class _ClauseFormatter:
    """Lays out one clause as groups of lines (lines, begin, start, column)
    for ``_place_comments``, in source order: one for its head or directive
    line, one for each goal and one for each block's closing line.  A group
    begins at the source offset of the ``(`` or ``;`` that leads it, else
    of its goal, the first at the clause's own start, and never before the
    group ahead of it; ``start`` is its goal's (None for a head or directive
    line).  A closing line begins and starts at its ``)``."""

    def __init__(self, renderer: _Renderer, cfg: Config) -> None:
        self.r = renderer
        self.unit = cfg.indent_size
        self.width = cfg.max_line_length
        self.groups: list[tuple] = []

    # -- entry points -------------------------------------------------------

    def format_clause(self, clause: Clause) -> list[tuple]:
        kind, body = clause.kind, clause.body
        # The head and the body's goals, stepping through its blocks, are
        # what the layout renders whole.
        terms = [] if body is None else leaf_goals(body)
        if clause.head is not None:
            terms.append(clause.head)
        self.r.fill(terms)
        if kind is ClauseKind.DIRECTIVE:
            self.emit_directive(clause)
        else:
            self.emit_head(clause)
        if kind is ClauseKind.RULE or kind is ClauseKind.GRAMMAR_RULE:
            self.emit_body(body, " " * self.unit, None)
        # A symbol character before the end would fuse with it into one atom.
        lines = self.groups[-1][0]
        lines[-1] += " ." if lines[-1][-1] in SYMBOL_CHARS else "."
        return self.groups

    def emit_directive(self, clause: Clause) -> None:
        goals = conjunction_goals(clause.body)
        begin = clause.span.byte_start
        if len(goals) == 1 and not _is_block(clause.body):
            text = self.r.render(clause.body, 1199)
            pieces = [text] if 3 + len(text) <= self.width else self.r.pack(
                [], (clause.body, text, ""), "", 3, self.width, self.unit)
            pieces[0] = ":- " + pieces[0]
            self.groups.append((pieces, begin, None, 0))
        elif any(_is_block(goal) for goal in goals):
            # The block form, as in a rule body, keeps one goal per line.
            self.groups.append(([":-"], begin, None, 0))
            self.emit_body(clause.body, " " * self.unit, None)
        else:
            self.emit_body(clause.body, ":- ", begin)

    def emit_head(self, clause: Clause) -> None:
        head = clause.head
        begin = clause.span.byte_start
        inline = self.r.render(head, 1199)
        kind = clause.kind
        tail = " :-" if kind is ClauseKind.RULE \
            else " -->" if kind is ClauseKind.GRAMMAR_RULE else ""
        # A fact's end follows its head on the same line.
        if len(inline) + len(tail or ".") <= self.width \
                or not isinstance(head, Compound) \
                or self.r.rendered[id(head)][1] != 0:
            self.groups.append(([inline + tail], begin, None, 0))
            return
        # Break after the head's opening parenthesis; the argument block is
        # indented one unit and the closer returns to column 1.
        pad = " " * self.unit
        args = self.r.pack([[head.args, 0, pad, "", self.unit, "", 0]], None,
                           pad, 0, self.width, self.unit)
        self.groups.append(([(head.functor_lexeme or head.name) + "(", *args,
                             ")" + tail], begin, None, 0))

    # -- bodies --------------------------------------------------------------

    def emit_body(self, body: Term, lead: str, begin: int | None) -> None:
        """Lay out a body one goal per line, the first after ``lead``, which
        begins at ``begin`` unless that is None.  The work list, run
        last-first, holds goals as (goal, indent, suffix, lead, begin) and a
        block's closing line as its group."""
        rendered, groups, width = self.r.rendered, self.groups, self.width
        work = _sequence(conjunction_goal_begins(body), self.unit, lead,
                         begin, "", self.unit)
        while work:
            item = work.pop()
            if type(item[0]) is list:
                groups.append(item)
                continue
            goal, indent, suffix, lead, begin = item
            begin = goal.span.byte_start if begin is None else begin
            if type(goal) is not Compound or len(goal.args) != 2 \
                    or goal.name not in CONTROL_FUNCTORS:
                text, priority = rendered[id(goal)]
                if priority > 999:
                    text = f"({text})"
                if indent + len(text) <= width:
                    pieces = [lead + text + suffix]
                else:
                    pieces = self.r.pack([], (goal, text, ""), "", indent,
                                         width, self.unit)
                    pieces[0] = lead + pieces[0]
                    pieces[-1] += suffix
                # A comment placed on its own line above the goal reads
                # back at the column of a goal after a ``;`` that opens a
                # branch, else at the lead's indent.
                groups.append((pieces, begin, goal.span.byte_start,
                               len(lead) - len(lead.lstrip(" ;"))))
                continue
            # A block or a parenthesized conjunction used as one goal: each
            # branch opens with ``(`` or ``;``, and ``)`` closes it below.
            pad, inner = " " * indent, indent + self.unit
            close = goal.span.byte_end - 1
            work.append(([pad + ")" + suffix], close, close, indent))
            sequences: list[tuple[list[tuple], str, int | None, str]] = []
            # The block's parentheses are the root's own; only parentheses
            # on nested subterms are the author's.
            for index, (branch, at) in enumerate(_branches(goal, begin)):
                prefix = (pad + ";" if index else lead + "(") \
                    + " " * (self.unit - 1)
                if goal.name == ",":
                    sequences.append((conjunction_goal_begins(goal.args[0])
                                      + conjunction_goal_begins(goal.args[1]),
                                      prefix, at, ""))
                elif branch is goal or (
                        is_compound(branch, None, 2)
                        and not branch.parenthesized
                        and branch.name in ("->", "*->")):
                    condition, then_part = branch.args
                    sequences += [(conjunction_goal_begins(condition),
                                   prefix, at, f" {branch.name}"),
                                  (conjunction_goal_begins(then_part),
                                   " " * inner, None, "")]
                else:
                    sequences.append((conjunction_goal_begins(branch),
                                      prefix, at, ""))
            for goals, first, at, end in reversed(sequences):
                work += _sequence(goals, inner, first, at, end, self.unit)


def _sequence(goals: list[tuple[Term, int | None]], indent: int, lead: str,
              begin: int | None, end: str, unit: int) -> list[tuple]:
    """A sequence's goals, each with where it begins ahead of its start
    (see ``conjunction_goal_begins``), as work items, last first: the first
    goal after ``lead``, which begins at ``begin`` (None for a lead of
    spaces), the others after their indent, the last followed by ``end``.
    A sequence that ends a body (``end`` empty, unlike a condition) indents
    its goals between ``repeat`` and the cut one extra unit."""
    items: list[tuple] = []
    cut_pending = 0
    last = len(goals) - 1
    for index, (goal, ahead) in enumerate(goals):
        atom = type(goal) is Atom
        if cut_pending and atom and goal.name == "!":
            cut_pending -= 1
        at = indent + cut_pending * unit
        items.append((goal, at, end if index == last else ",",
                      " " * at if index else lead,
                      ahead if index or begin is None else begin))
        if not end and atom and goal.name == "repeat" and any(
                contains_cut(later) for later, _ in goals[index + 1:]):
            cut_pending += 1
    return items[::-1]


def _branches(root: Compound, begin: int) -> list[tuple[Term, int]]:
    """Flatten a right-nested, unparenthesized ``;`` chain into its branch
    list; anything parenthesized stays whole to preserve term structure.
    Each branch comes with where it begins: ``begin``, or the ``;`` before
    it, or in a canonical ``;(A, B)``, whose ``;`` comes first, A's end."""
    out: list[tuple[Term, int]] = []
    stack: list[tuple[Term, int]] = [(root, begin)]
    while stack:
        term, begin = stack.pop()
        if is_compound(term, ";", 2) \
                and (term is root or not term.parenthesized):
            first, second = term.args
            stack.append((second, max(term.functor_span.byte_start,
                                      first.span.byte_end)))
            stack.append((first, begin))
        else:
            out.append((term, begin))
    return out


# ---------------------------------------------------------------------------
# Program assembly
# ---------------------------------------------------------------------------


@dataclass
class _Unit:
    start_line: int
    end_line: int
    #: The clause's index in ``program.items``; None for a free comment.
    index: int | None = None
    comment: Token | None = None


def _collect_units(program: Program) -> list[_Unit]:
    """The clauses, each starting at its first preceding comment, and the
    comments that no clause owns, in line order."""
    units: list[_Unit] = []
    for idx, clause in enumerate(program.items):
        units.append(_Unit(start_line=clause.first_line,
                           end_line=clause.span.end_line, index=idx))
    for attached in program.comments:
        if attached.clause_index is None:
            token = attached.token
            units.append(_Unit(start_line=token.span.start_line,
                               end_line=token.span.end_line, comment=token))
    units.sort(key=lambda u: u.start_line)
    return units


def _place_comments(groups: list[tuple], own_line: list[Token],
                    trailing: list[Token], cfg: Config) -> list[str]:
    """A clause's lines: its groups with its comments placed by source
    offset alone, in one pass over each comment list.

    An own-line comment goes above the first goal or ``)`` that starts
    after it, at its group's comment column, or after the clause at column
    1 when none does.  A trailing comment goes at the end of the last group
    that begins at or before it; a suppression comment acts only on the
    clause's first line, so it goes there.  One that does not fit, or whose
    line already ends in a ``%`` comment that would swallow it, goes above
    that group, where a re-read takes it for an own-line comment of it: the
    comments above a group keep their source order.
    """
    if not own_line and not trailing:
        return [line for lines, _, _, _ in groups for line in lines]
    above: list[list[Token]] = [[] for _ in groups]
    pending = 0
    for (_, _, start, _), comments in zip(groups, above):
        while start is not None and pending < len(own_line) \
                and own_line[pending].span.byte_start < start:
            comments.append(own_line[pending])
            pending += 1
    begins = [begin for _, begin, _, _ in groups]
    closed: set[tuple[int, int]] = set()
    for token in trailing:
        text = token.text.rstrip()
        if SUPPRESSION_COMMENT.search(text):
            index, at = 0, 0
        else:
            index = bisect_right(begins, token.span.byte_start) - 1
            at = len(groups[index][0]) - 1
        lines = groups[index][0]
        if (index, at) not in closed \
                and len(text) <= cfg.eol_comment_max \
                and len(lines[at]) + 1 + len(text) <= cfg.max_line_length:
            lines[at] += " " + text
            if text.startswith("%"):
                closed.add((index, at))
        else:
            above[index].append(token)
    out: list[str] = []
    for comments, (lines, _, _, column) in zip(above, groups):
        comments.sort(key=lambda token: token.span.byte_start)
        out += [" " * column + token.text.rstrip() for token in comments]
        out += lines
    out += [token.text.rstrip() for token in own_line[pending:]]
    return out


def _gap(items: list[Clause], previous: _Unit | None, unit: _Unit) -> int:
    if previous is None:
        return 0
    if previous.index is not None and unit.index is not None:
        before, clause = items[previous.index], items[unit.index]
        if before.kind != ClauseKind.DIRECTIVE \
                and clause.kind != ClauseKind.DIRECTIVE:
            return 0 if before.indicator == clause.indicator else 1
    raw = unit.start_line - previous.end_line - 1
    return max(0, min(raw, 2))


def _formatted_units(program: Program, cfg: Config) -> Iterator[list[str]]:
    """Yield the output lines of each unit in order: the blank lines of its
    gap, then its own lines.  A unit is a clause with its comments, or a
    free comment; nothing after a unit is rendered until it is asked for."""
    if program.syntax_diagnostics:
        raise FormatError(program.syntax_diagnostics[0])
    units = _collect_units(program)
    table = OperatorTable.default()
    previous: _Unit | None = None
    for unit in units:
        lines = [""] * _gap(program.items, previous, unit)
        previous = unit
        idx = unit.index
        if idx is None:
            lines.append(unit.comment.text.rstrip())
            yield lines
            continue
        clause = program.items[idx]
        own_line: list[Token] = []
        trailing: list[Token] = []
        for attached in clause.comments:
            kind = attached.kind
            if kind is CommentAttachment.PRECEDING:
                lines.append(attached.token.text.rstrip())
            elif kind is CommentAttachment.INTERIOR:
                own_line.append(attached.token)
            else:
                trailing.append(attached.token)
        groups = _ClauseFormatter(_Renderer(table), cfg).format_clause(clause)
        lines += _place_comments(groups, own_line, trailing, cfg)
        if clause.kind == ClauseKind.DIRECTIVE:
            apply_directive_to_table(clause.body, table)
        yield lines


def format_program(program: Program, cfg: Config | None = None) -> str:
    """Rewrite a parsed program in the canonical style, with the indent
    unit, line width and end-of-line comment limit of ``cfg``.

    Raises FormatError when the program carries any syntax diagnostic; a
    broken parse cannot be reprinted faithfully.
    """
    output: list[str] = []
    for lines in _formatted_units(program, cfg or Config()):
        output += lines
    return "\n".join(output) + "\n" if output else ""


def check_format(src: SourceFile, program: Program,
                 cfg: Config | None = None) -> tuple[bool, Span | None]:
    """True when the source text is already canonical under ``cfg``;
    otherwise the span of the first divergence.  Units are rendered only up
    to the first one that differs from the source."""
    original = src.content
    offset = 0
    for lines in _formatted_units(program, cfg or Config()):
        chunk = "\n".join(lines) + "\n"
        if not original.startswith(chunk, offset):
            ahead = original[offset:offset + len(chunk)]
            offset += next((i for i, char in enumerate(ahead)
                            if char != chunk[i]), len(ahead))
            break
        offset += len(chunk)
    else:
        if offset == len(original):
            return True, None
    line = original.count("\n", 0, offset) + 1
    col = offset - (original.rfind("\n", 0, offset) + 1) + 1
    return False, Span(line, col, line, col + 1, offset, offset + 1)
