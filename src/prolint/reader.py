"""Term reader: operator-precedence parsing of the token stream into terms,
clauses and programs, with a mutable operator table.

The reader interprets ``:- op(P, T, N)`` directives so that later clauses
parse under the updated table, and extracts exports from a ``:- module(M, Es)``
directive.  Other directives are stored but not executed.  ``Facts`` holds
what the lint rules share about one read file.

The reader alone decides which clause owns each comment
(``_attach_comments``): ``Program.comments`` lists every comment with its
kind (TRAILING, INTERIOR, PRECEDING or FREE), and ``Clause.comments`` holds
the ones a clause owns.  A comment inside a clause belongs to that clause.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, TypeVar

from .diagnostics import RULES, Diagnostic, Severity, enabled_rules
from .source_model import (
    CLOSER_KINDS,
    COMMENT_KINDS,
    ESCAPES,
    NON_CODE_KINDS,
    OPENER_KINDS,
    SourceFile,
    Span,
    Token,
    TokenKind,
    scan,
)

if TYPE_CHECKING:
    from .diagnostics import Config

# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Variable:
    name: str
    span: Span


@dataclass(slots=True)
class Atom:
    name: str
    span: Span
    quoted: bool = False
    lexeme: str | None = None
    parenthesized: bool = False

    @property
    def text(self) -> str:
        return self.lexeme if self.lexeme is not None else self.name


@dataclass(slots=True)
class Integer:
    value: int
    span: Span
    lexeme: str = ""


@dataclass(slots=True)
class Float:
    value: float
    span: Span
    lexeme: str = ""


@dataclass(slots=True)
class Str:
    text: str
    span: Span
    lexeme: str = ""


@dataclass(slots=True)
class Compound:
    name: str
    args: list
    span: Span
    parenthesized: bool = False
    functor_span: Span | None = None
    functor_lexeme: str | None = None


Term = Variable | Atom | Integer | Float | Str | Compound


def is_atom(term: Term, name: str | None = None) -> bool:
    return isinstance(term, Atom) and (name is None or term.name == name)


def is_compound(term: Term, name: str | None = None,
                arity: int | None = None) -> bool:
    return (isinstance(term, Compound)
            and (name is None or term.name == name)
            and (arity is None or len(term.args) == arity))


def indicator_of(head: Term) -> tuple[str, int] | None:
    if isinstance(head, Atom):
        return (head.name, 0)
    if isinstance(head, Compound):
        return (head.name, len(head.args))
    return None


def term_signature(term: Term) -> tuple:
    """A structural fingerprint: each subterm's functor and arity, or its
    value, in pre-order; spans and parenthesization excluded, variables
    compared by name.  It is flat, because comparing nested tuples recurses
    in C once per level and fails on a deep term."""
    signature = []
    for t in subterms(term):
        if isinstance(t, Compound):
            signature.append(("compound", t.name, len(t.args)))
        elif isinstance(t, Variable):
            signature.append(("var", t.name))
        elif isinstance(t, Atom):
            signature.append(("atom", t.name))
        elif isinstance(t, Integer):
            signature.append(("int", t.value))
        elif isinstance(t, Float):
            signature.append(("float", t.value))
        else:
            signature.append(("str", t.lexeme or t.text))
    return tuple(signature)


def structurally_equal(a: Term, b: Term) -> bool:
    return term_signature(a) == term_signature(b)


def conjunction_goals(body: Term) -> list[Term]:
    """Flatten an and-then conjunction into its goal sequence.

    Control constructs (``;``, ``->``) and explicitly parenthesized subterms
    count as single goals; rules recurse into them separately.
    """
    return [goal for goal, _ in conjunction_goal_begins(body)]


def conjunction_goal_begins(body: Term) -> list[tuple[Term, int | None]]:
    """``conjunction_goals``, each goal with the offset where it begins
    ahead of its own start, else None: the first goal of a canonical
    ``','(A, B)`` begins at the functor, so that a comment right after
    ``','(`` stays with it."""
    goals: list[tuple[Term, int | None]] = []
    stack: list[tuple[Term, int | None]] = [(body, None)]
    while stack:
        term, begin = stack.pop()
        if type(term) is Compound and term.name == "," \
                and len(term.args) == 2 and not term.parenthesized:
            if begin is None and term.functor_lexeme is not None:
                begin = term.span.byte_start
            stack.append((term.args[1], None))
            stack.append((term.args[0], begin))
        else:
            goals.append((term, begin))
    return goals


def strip_module_qualifier(goal: Term) -> Term:
    while is_compound(goal, ":", 2):
        goal = goal.args[1]
    return goal


#: Functors whose arguments are control positions rather than data.
CONTROL_FUNCTORS = frozenset({",", ";", "->", "*->"})
#: The control functors that split a body into branches.
_BRANCH_FUNCTORS = CONTROL_FUNCTORS - {","}


def leaf_goals(body: Term,
               functors: frozenset[str] = CONTROL_FUNCTORS) -> list[Term]:
    """All goal positions of a body, left to right, descending through the
    binary compounds named in ``functors``: by default conjunctions,
    disjunctions, if-then-elses and parenthesized groups (but never into
    the arguments of ordinary goals such as ``\\+`` or ``findall``)."""
    goals: list[Term] = []
    stack = [body]
    while stack:
        term = stack.pop()
        if isinstance(term, Compound) and term.name in functors \
                and len(term.args) == 2:
            stack.append(term.args[1])
            stack.append(term.args[0])
        else:
            goals.append(term)
    return goals


def goal_sequences(body: Term) -> list[list[Term]]:
    """Every and-then sequence of a body: the top-level one plus one per
    disjunction/if-then-else branch and parenthesized group, recursively."""
    sequences: list[list[Term]] = []
    work = [conjunction_goals(body)]
    while work:
        goals = work.pop()
        sequences.append(goals)
        for goal in reversed(goals):
            if isinstance(goal, Compound) and len(goal.args) == 2 \
                    and goal.name in _BRANCH_FUNCTORS:
                # Every ``;`` link and both sides of every ``->`` is one
                # branch body.
                branches = leaf_goals(goal, _BRANCH_FUNCTORS)
                work.extend(conjunction_goals(branch)
                            for branch in reversed(branches))
            elif is_compound(goal, ",", 2):
                # A parenthesized conjunction used as one goal.
                work.append(conjunction_goals(goal.args[0])
                            + conjunction_goals(goal.args[1]))
    return sequences


def contains_cut(goal: Term) -> bool:
    """True when ``goal`` is a cut or a control construct holding one."""
    stack = [goal]
    while stack:
        term = stack.pop()
        if is_atom(term, "!"):
            return True
        if isinstance(term, Compound) and term.name in CONTROL_FUNCTORS:
            stack.extend(term.args)
    return False


def final_goal(body: Term) -> Term:
    """The syntactic tail of a body: the last conjunct, descending into the
    last branch of a trailing disjunction or if-then-else."""
    term = body
    while isinstance(term, Compound) and term.name in CONTROL_FUNCTORS \
            and len(term.args) == 2:
        term = term.args[1]
    return term


def subterms(term: Term) -> list[Term]:
    """A term and all of its subterms, in pre-order."""
    out: list[Term] = []
    stack = [term]
    while stack:
        t = stack.pop()
        out.append(t)
        if isinstance(t, Compound):
            stack.extend(reversed(t.args))
    return out


# ---------------------------------------------------------------------------
# Operator table
# ---------------------------------------------------------------------------

OPERATOR_TYPES = ("xfx", "xfy", "yfx", "fy", "fx", "xf", "yf")


@dataclass(frozen=True)
class OperatorDef:
    name: str
    priority: int
    type: str


_DEFAULT_OPERATORS: list[tuple[int, str, tuple[str, ...]]] = [
    (1200, "xfx", (":-", "-->")),
    (1200, "fx", (":-", "?-")),
    (1150, "fx", ("dynamic", "discontiguous", "initialization",
                  "meta_predicate", "module_transparent", "multifile",
                  "public", "thread_local", "table")),
    (1100, "xfy", (";", "|")),
    (1050, "xfy", ("->", "*->")),
    (1000, "xfy", (",",)),
    (900, "fy", ("\\+",)),
    (700, "xfx", ("=", "\\=", "==", "\\==", "@<", "@>", "@=<", "@>=",
                  "=..", "is", "=:=", "=\\=", "<", ">", "=<", ">=")),
    (500, "yfx", ("+", "-", "/\\", "\\/", "xor")),
    (400, "yfx", ("*", "/", "//", "mod", "rem", "div", "<<", ">>")),
    (200, "xfx", ("**",)),
    (200, "xfy", ("^", ":")),
    (200, "fy", ("-", "+", "\\")),
]


class OperatorTable:
    """The operators in force: at most one prefix and one infix-or-
    postfix definition per name."""

    def __init__(self) -> None:
        self._prefix: dict[str, OperatorDef] = {}
        self._infix: dict[str, OperatorDef] = {}
        self._postfix: dict[str, OperatorDef] = {}
        #: Each operator name's highest priority, which an atom of that
        #: name has; ``add`` keeps it.
        self.priorities: dict[str, int] = {}

    @classmethod
    def default(cls) -> "OperatorTable":
        table = cls()
        table._prefix.update(_DEFAULT_TABLE._prefix)
        table._infix.update(_DEFAULT_TABLE._infix)
        table._postfix.update(_DEFAULT_TABLE._postfix)
        table.priorities.update(_DEFAULT_TABLE.priorities)
        return table

    def add(self, priority: int, type_: str, name: str) -> None:
        if type_ not in OPERATOR_TYPES:
            raise ValueError(f"bad operator type {type_!r}")
        if not 0 <= priority <= 1200:
            raise ValueError(f"operator priority {priority} out of range")
        if name == "|" and priority and (type_ not in ("xfx", "xfy", "yfx")
                                         or priority < 1001):
            raise ValueError("'|' is an operator only infix from 1001 up")
        definition = OperatorDef(name, priority, type_)
        if type_ in ("fy", "fx"):
            if priority == 0:
                self._prefix.pop(name, None)
            else:
                self._prefix[name] = definition
        elif type_ in ("xf", "yf"):
            self._infix.pop(name, None)
            if priority == 0:
                self._postfix.pop(name, None)
            else:
                self._postfix[name] = definition
        else:
            self._postfix.pop(name, None)
            if priority == 0:
                self._infix.pop(name, None)
            else:
                self._infix[name] = definition
        best = max([d.priority for d in (self._prefix.get(name),
                                         self._infix.get(name),
                                         self._postfix.get(name)) if d],
                   default=0)
        if best:
            self.priorities[name] = best
        else:
            self.priorities.pop(name, None)

    def prefix(self, name: str) -> OperatorDef | None:
        return self._prefix.get(name)

    def infix(self, name: str) -> OperatorDef | None:
        return self._infix.get(name)

    def postfix(self, name: str) -> OperatorDef | None:
        return self._postfix.get(name)


def _prebuilt_default() -> OperatorTable:
    table = OperatorTable()
    for priority, type_, names in _DEFAULT_OPERATORS:
        for name in names:
            table.add(priority, type_, name)
    return table


#: What ``OperatorTable.default`` copies: building the table anew for each
#: file took 54 ``add`` calls.
_DEFAULT_TABLE = _prebuilt_default()


# ---------------------------------------------------------------------------
# Clauses and programs
# ---------------------------------------------------------------------------


class ClauseKind(enum.Enum):
    FACT = "fact"
    RULE = "rule"
    DIRECTIVE = "directive"
    GRAMMAR_RULE = "grammar_rule"


@dataclass
class Clause:
    kind: ClauseKind
    head: Term | None
    body: Term | None
    span: Span
    #: The comments this clause owns, in source order (``_attach_comments``).
    comments: list[AttachedComment] = field(default_factory=list)

    @property
    def indicator(self) -> tuple[str, int] | None:
        return indicator_of(self.head) if self.head is not None else None

    @property
    def first_line(self) -> int:
        """The line of the clause's first preceding comment, else its own
        first line: preceding comments come first in ``comments``."""
        if self.comments \
                and self.comments[0].kind is CommentAttachment.PRECEDING:
            return self.comments[0].token.span.start_line
        return self.span.start_line


class CommentAttachment(enum.Enum):
    PRECEDING = "preceding"
    TRAILING = "trailing"
    INTERIOR = "interior"
    FREE = "free"


@dataclass
class AttachedComment:
    token: Token
    kind: CommentAttachment
    clause_index: int | None = None


@dataclass
class PredicateDef:
    indicator: tuple[str, int]
    clauses: list[Clause]
    contiguous: bool = True
    exported: bool = True


@dataclass
class Program:
    items: list[Clause] = field(default_factory=list)
    comments: list[AttachedComment] = field(default_factory=list)
    operator_table: OperatorTable = field(default_factory=OperatorTable.default)
    exports: list[tuple[str, int]] | None = None
    module_name: str | None = None
    tokens: list[Token] = field(default_factory=list)
    syntax_diagnostics: list[Diagnostic] = field(default_factory=list)
    comma_roles: dict[int, str] = field(default_factory=dict)

    @property
    def has_module_directive(self) -> bool:
        return self.exports is not None


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

#: The most brackets (parentheses, argument lists, lists, curly terms) and
#: prefix operators a term may hold open at once.  Deeper terms are one E02
#: at the start of their clause.  Infix operators awaiting their right
#: operand are not counted: a right-associative chain of n operands holds
#: n - 1 of them, but they hold no bracket, so the stack stays linear in the
#: clause's tokens.
MAX_TERM_DEPTH = 5000


class SyntaxProblem(Exception):
    """A term that does not read: ``token`` is where (None to anchor the
    problem at the clause start), ``pos`` the index in the code tokens
    where reading stopped."""

    def __init__(self, token: Token | None, message: str, pos: int) -> None:
        super().__init__(message)
        self.token = token
        self.message = message
        self.pos = pos


# The parser tests kinds through module globals: an Enum member read as a
# class attribute costs about ten times as much.
_ATOM = TokenKind.ATOM
_QUOTED_ATOM = TokenKind.QUOTED_ATOM
_VARIABLE = TokenKind.VARIABLE
_INTEGER = TokenKind.INTEGER
_FLOAT = TokenKind.FLOAT
_STRING = TokenKind.STRING
_OPEN_PAREN = TokenKind.OPEN_PAREN
_CLOSE_PAREN = TokenKind.CLOSE_PAREN
_OPEN_BRACKET = TokenKind.OPEN_BRACKET
_CLOSE_BRACKET = TokenKind.CLOSE_BRACKET
_OPEN_BRACE = TokenKind.OPEN_BRACE
_CLOSE_BRACE = TokenKind.CLOSE_BRACE
_COMMA = TokenKind.COMMA
_BAR = TokenKind.BAR
_END = TokenKind.END
_ERROR = TokenKind.ERROR
_LINE_COMMENT = TokenKind.LINE_COMMENT
_BLOCK_COMMENT = TokenKind.BLOCK_COMMENT

_OPERAND_KINDS = frozenset({
    _VARIABLE, _INTEGER, _FLOAT, _STRING, _OPEN_PAREN, _OPEN_BRACKET,
    _OPEN_BRACE, _ATOM, _QUOTED_ATOM,
})

_CLOSERS = frozenset({
    _CLOSE_PAREN, _CLOSE_BRACKET, _CLOSE_BRACE, _COMMA, _BAR, _END,
})

_new_tuple = tuple.__new__


def _merge(a: Span, b: Span) -> Span:
    # tuple.__new__ skips the named tuple's Python-level __new__.
    return _new_tuple(Span, (a[0], a[1], b[2], b[3], a[4], b[5]))


def _unquote(text: str) -> str:
    """Decode a quoted-atom lexeme to its atom name (escapes resolved)."""
    quote = text[0]
    body = text[1:-1]
    out: list[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == quote and i + 1 < len(body) and body[i + 1] == quote:
            out.append(quote)
            i += 2
        elif ch == "\\" and i + 1 < len(body):
            esc = body[i + 1]
            if esc == "\n":
                i += 2
            elif esc == "x" or esc.isdigit():
                j = i + 2 if esc == "x" else i + 1
                k = j
                while k < len(body) and body[k] not in "\\":
                    k += 1
                digits = body[j:k]
                try:
                    out.append(chr(int(digits, 16 if esc == "x" else 8)))
                except (ValueError, OverflowError):
                    out.append(digits)
                i = k + 1 if k < len(body) and body[k] == "\\" else k
            else:
                out.append(ESCAPES.get(esc, esc))
                i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


# What each pending frame of ``_parse`` waits for.  Every frame ends with the
# priority that the expression holding the awaited term continues at.
_INFIX = 0   # (kind, left, operator token, functor, priority, limit)
_PREFIX = 1  # (kind, name, operator token, priority, limit)
_PAREN = 2   # (kind, open token, limit)
_CURLY = 3   # (kind, open token, limit)
_ARGS = 4    # (kind, name, name token, args, limit)
_LIST = 5    # (kind, open token, elements, limit)
_TAIL = 6    # as _LIST, after the bar


def _parse(tokens: list[Token], pos: int, ops: OperatorTable,
           comma_roles: dict[int, str]) -> tuple[Term, int]:
    """Read one term of priority at most 1200 from the comment-free
    ``tokens`` at ``pos``; return it with the position after it.

    Operator-precedence parsing as one loop over a stack of pending frames.
    Each pass reads one primary term at priority ``limit``, then applies
    the infix and postfix operators that follow while they fit under
    ``limit``.  A primary that opens a bracket or a prefix operator, and an
    infix operator awaiting its right operand, push a frame and read the
    awaited term on the next pass; a finished term is handed to the frame on
    top, which builds on it.  A term reaching the bottom of the stack is
    returned.
    """
    prefix_ops, infix_ops, postfix_ops = ops._prefix, ops._infix, ops._postfix
    end = len(tokens)
    stack: list[tuple] = []
    push = stack.append
    pop = stack.pop
    depth = 0
    limit = 1200
    argument = False
    while True:
        # -- one primary term ----------------------------------------------
        if depth > MAX_TERM_DEPTH:
            raise SyntaxProblem(
                None, f"term nested deeper than {MAX_TERM_DEPTH} levels", pos)
        finished = False
        if argument:
            # An argument or list element: at most 999, except that an
            # operator atom of a higher priority stands alone before a
            # closer.
            argument = False
            limit = 999
            tok = tokens[pos] if pos < end else None
            if tok is not None and tok.kind is _ATOM and pos + 1 < end \
                    and tokens[pos + 1].kind in _CLOSERS \
                    and ops.priorities.get(tok.text, 0) > 999:
                pos += 1
                left = Atom(tok.text, tok.span, False, tok.text)
                finished = True
        if not finished:
            if pos == end:
                raise SyntaxProblem(None, "unexpected end of input", pos)
            tok = tokens[pos]
            kind = tok.kind
            prec = 0
            if kind is _ATOM or kind is _QUOTED_ATOM:
                text = tok.text
                pos += 1
                nxt = tokens[pos] if pos < end else None
                if nxt is not None and nxt.kind is _OPEN_PAREN \
                        and nxt.span[4] == tok.span[5]:
                    pos += 1
                    depth += 1
                    push((_ARGS, _unquote(text) if kind is _QUOTED_ATOM
                          else text, tok, [], limit))
                    argument = True
                    continue
                if kind is _QUOTED_ATOM:
                    left = Atom(_unquote(text), tok.span, True, text)
                elif text == "-" and nxt is not None \
                        and (nxt.kind is _INTEGER or nxt.kind is _FLOAT) \
                        and nxt.span[4] == tok.span[5]:
                    pos += 1
                    left = (Integer if nxt.kind is _INTEGER else Float)(
                        -nxt.value, _merge(tok.span, nxt.span),
                        "-" + nxt.text)
                else:
                    pre = prefix_ops.get(text)
                    if pre is not None and nxt is not None \
                            and nxt.kind in _OPERAND_KINDS \
                            and not _atom_stands_alone(tokens, pos, ops):
                        if pre.priority > limit:
                            raise SyntaxProblem(
                                tok, f"prefix operator {text!r} (priority "
                                f"{pre.priority}) exceeds the allowed "
                                f"priority {limit} here; add "
                                "parentheses", pos)
                        depth += 1
                        push((_PREFIX, text, tok, pre.priority, limit))
                        limit = pre.priority \
                            - (1 if pre.type == "fx" else 0)
                        continue
                    left = Atom(text, tok.span, False, text)
            elif kind is _VARIABLE:
                pos += 1
                left = Variable(tok.text, tok.span)
            elif kind is _INTEGER:
                pos += 1
                left = Integer(tok.value, tok.span, tok.text)
            elif kind is _OPEN_PAREN or kind is _OPEN_BRACE:
                pos += 1
                nxt = tokens[pos] if pos < end else None
                if kind is _OPEN_BRACE and nxt is not None \
                        and nxt.kind is _CLOSE_BRACE:
                    pos += 1
                    left = Atom("{}", _merge(tok.span, nxt.span), False,
                                "{}")
                else:
                    depth += 1
                    push((_PAREN if kind is _OPEN_PAREN else _CURLY, tok,
                          limit))
                    limit = 1200
                    continue
            elif kind is _OPEN_BRACKET:
                pos += 1
                nxt = tokens[pos] if pos < end else None
                if nxt is not None and nxt.kind is _CLOSE_BRACKET:
                    pos += 1
                    left = Atom("[]", _merge(tok.span, nxt.span), False,
                                "[]")
                else:
                    depth += 1
                    push((_LIST, tok, [], limit))
                    argument = True
                    continue
            elif kind is _FLOAT:
                pos += 1
                left = Float(tok.value, tok.span, tok.text)
            elif kind is _STRING:
                pos += 1
                left = Str(tok.text[1:-1], tok.span, tok.text)
            elif kind is _ERROR:
                raise SyntaxProblem(tok, "cannot parse past lexical error",
                                    pos)
            else:
                raise SyntaxProblem(tok, f"unexpected {tok.text!r}", pos)
        # -- operators after the term, then the frames it completes --------
        while True:
            if finished:
                finished = False
            else:
                pushed = False
                while pos < end:
                    tok = tokens[pos]
                    kind = tok.kind
                    if kind is _ATOM:
                        name = tok.text
                    elif kind is _COMMA:
                        name = ","
                    elif kind is _BAR:
                        name = "|"
                    else:
                        break
                    op = infix_ops.get(name)
                    if op is not None and op.priority <= limit \
                            and prec <= (op.priority if op.type == "yfx"
                                         else op.priority - 1):
                        pos += 1
                        if kind is _COMMA and op.type == "xfy":
                            comma_roles[tok.span[4]] = "and_then"
                        push((_INFIX, left, tok,
                              ";" if name == "|" else name, op.priority,
                              limit))
                        limit = op.priority if op.type == "xfy" \
                            else op.priority - 1
                        pushed = True
                        break
                    op = postfix_ops.get(name)
                    if op is not None and op.priority <= limit \
                            and prec <= (op.priority if op.type == "yf"
                                         else op.priority - 1):
                        pos += 1
                        left = Compound(name, [left],
                                        _merge(left.span, tok.span), False,
                                        tok.span)
                        prec = op.priority
                        continue
                    break
                if pushed:
                    break
            # ``left`` is finished: hand it to the frame on top.
            if not stack:
                return left, pos
            frame = pop()
            waiting = frame[0]
            if waiting == _INFIX:
                _, first, tok, functor, prec, limit = frame
                left = Compound(functor, [first, left],
                                _merge(first.span, left.span), False,
                                tok.span)
            elif waiting == _ARGS:
                args = frame[3]
                args.append(left)
                tok = tokens[pos] if pos < end else None
                if tok is not None and tok.kind is _COMMA:
                    pos += 1
                    comma_roles[tok.span[4]] = "arg"
                    push(frame)
                    argument = True
                    break
                close = _expect(tokens, pos, _CLOSE_PAREN,
                                "closing parenthesis")
                pos += 1
                depth -= 1
                _, name, tok, _, limit = frame
                left = Compound(name, args, _merge(tok.span, close.span),
                                False, tok.span, tok.text)
                prec = 0
            elif waiting == _PAREN:
                close = _expect(tokens, pos, _CLOSE_PAREN,
                                "closing parenthesis")
                pos += 1
                depth -= 1
                left.span = _merge(frame[1].span, close.span)
                if isinstance(left, (Atom, Compound)):
                    left.parenthesized = True
                prec = 0
                limit = frame[2]
            elif waiting == _PREFIX:
                depth -= 1
                _, name, tok, prec, limit = frame
                left = Compound(name, [left], _merge(tok.span, left.span),
                                False, tok.span)
            elif waiting == _LIST:
                elements = frame[2]
                elements.append(left)
                tok = tokens[pos] if pos < end else None
                if tok is not None and tok.kind is _COMMA:
                    pos += 1
                    comma_roles[tok.span[4]] = "list"
                    push(frame)
                    argument = True
                    break
                if tok is not None and tok.kind is _BAR:
                    pos += 1
                    push((_TAIL, *frame[1:]))
                    argument = True
                    break
                left = _close_list(tokens, pos, frame, None)
                pos += 1
                depth -= 1
                prec = 0
                limit = frame[3]
            elif waiting == _TAIL:
                left = _close_list(tokens, pos, frame, left)
                pos += 1
                depth -= 1
                prec = 0
                limit = frame[3]
            else:  # _CURLY
                close = _expect(tokens, pos, _CLOSE_BRACE, "closing brace")
                pos += 1
                depth -= 1
                left = Compound("{}", [left], _merge(frame[1].span,
                                                     close.span))
                prec = 0
                limit = frame[2]


def _atom_stands_alone(tokens: list[Token], pos: int,
                       ops: OperatorTable) -> bool:
    """True when the token at ``pos`` is an infix- or postfix-only operator
    atom with an operand after it, so the atom before it must be an
    operand rather than a prefix operator."""
    text = tokens[pos].text
    return tokens[pos].kind is _ATOM and text not in ops._prefix \
        and (text in ops._infix or text in ops._postfix) \
        and pos + 1 < len(tokens) and tokens[pos + 1].kind in _OPERAND_KINDS


def _expect(tokens: list[Token], pos: int, kind: TokenKind,
            what: str) -> Token:
    tok = tokens[pos] if pos < len(tokens) else None
    if tok is None or tok.kind is not kind:
        raise SyntaxProblem(tok, f"expected {what}", pos)
    return tok


def _close_list(tokens: list[Token], pos: int, frame: tuple,
                tail: Term | None) -> Term:
    """The list of ``frame``'s elements ending in ``tail`` (``[]`` when
    None), closed by the bracket at ``pos``."""
    close = _expect(tokens, pos, _CLOSE_BRACKET, "closing bracket")
    result: Term = tail if tail is not None \
        else Atom("[]", close.span, False, "[]")
    for element in reversed(frame[2]):
        result = Compound(".", [element, result],
                          _merge(element.span, close.span))
    result.span = _merge(frame[1].span, close.span)
    return result


def read_term(tokens: list[Token], ops: OperatorTable | None = None) -> Term:
    """Read one term from a token list (used directly in tests; read_program
    drives the same machinery clause by clause)."""
    code = [t for t in tokens if t.kind not in COMMENT_KINDS]
    term, _ = _parse(code, 0, ops or OperatorTable.default(), {})
    return term


# ---------------------------------------------------------------------------
# Program reading
# ---------------------------------------------------------------------------


def _classify(term: Term, span: Span) -> Clause:
    if is_compound(term, ":-", 2):
        return Clause(ClauseKind.RULE, *term.args, span)
    if is_compound(term, ":-", 1):
        return Clause(ClauseKind.DIRECTIVE, None, term.args[0], span)
    if is_compound(term, "-->", 2):
        return Clause(ClauseKind.GRAMMAR_RULE, *term.args, span)
    return Clause(ClauseKind.FACT, term, None, span)


def apply_directive_to_table(goal: Term, table: OperatorTable) -> None:
    """Apply an ``op/3`` directive to an operator table (other goals are
    ignored).  Used by the reader and replayed by the formatter so each
    clause prints under the table that was active when it was read."""
    goal = strip_module_qualifier(goal)
    if not is_compound(goal, "op", 3):
        return
    prio, type_, names = goal.args
    if not isinstance(prio, Integer) or not isinstance(type_, Atom):
        return
    name_terms: list[Term] = []
    if isinstance(names, Atom) and names.name != "[]":
        name_terms = [names]
    else:
        node = names
        while is_compound(node, ".", 2):
            name_terms.append(node.args[0])
            node = node.args[1]
    for name_term in name_terms:
        if isinstance(name_term, Atom):
            try:
                table.add(prio.value, type_.name, name_term.name)
            except ValueError:
                pass


def _apply_directive(goal: Term, program: Program) -> None:
    stripped = strip_module_qualifier(goal)
    apply_directive_to_table(stripped, program.operator_table)
    if is_compound(stripped, "module", 2):
        mod, exports = stripped.args
        if isinstance(mod, Atom):
            program.module_name = mod.name
        found: list[tuple[str, int]] = []
        node = exports
        while is_compound(node, ".", 2):
            entry = node.args[0]
            if (is_compound(entry, "/", 2)
                    and isinstance(entry.args[0], Atom)
                    and isinstance(entry.args[1], Integer)):
                found.append((entry.args[0].name, entry.args[1].value))
            node = node.args[1]
        program.exports = found


def read_program(tokens: list[Token]) -> tuple[Program, list[Diagnostic]]:
    """Read all clauses in order, recovering from malformed ones by skipping
    to the next clause terminator."""
    program = Program(tokens=tokens)
    diagnostics: list[Diagnostic] = []
    code = [t for t in tokens if t.kind not in COMMENT_KINDS]
    ops, comma_roles = program.operator_table, program.comma_roles
    pos, end = 0, len(code)
    while pos < end:
        start_tok = code[pos]
        if start_tok.kind is _ERROR:
            break
        if start_tok.kind is _END:
            pos += 1
            diagnostics.append(Diagnostic(
                rule_id="E02", severity=Severity.ERROR, span=start_tok.span,
                message="clause terminator '.' with no clause before it"))
            continue
        try:
            term, pos = _parse(code, pos, ops, comma_roles)
            end_tok = _expect(code, pos, _END, "end of clause ('.')")
        except SyntaxProblem as problem:
            diagnostics.append(Diagnostic(
                rule_id="E02", severity=Severity.ERROR,
                span=(problem.token or start_tok).span,
                message=problem.message))
            # Skip to just past the next clause end.  A lexical error token
            # is the last token, so skipping past it ends the reading.
            pos = problem.pos
            while pos < end and code[pos].kind is not _END:
                pos += 1
            pos += 1
            continue
        pos += 1
        clause = _classify(term, _merge(start_tok.span, end_tok.span))
        if clause.kind is ClauseKind.DIRECTIVE:
            _apply_directive(clause.body, program)
        program.items.append(clause)

    program.comments = _attach_comments(tokens, program.items)
    program.syntax_diagnostics = list(diagnostics)
    return program, diagnostics


def _attach_comments(tokens: list[Token],
                     items: list[Clause]) -> list[AttachedComment]:
    """Give each comment its kind and owner, in one forward pass over
    ``tokens`` (which arrive in byte order), and hand each clause the
    comments it owns (``Clause.comments``).

    * TRAILING: code ends on the line the comment starts on, before it; the
      comment belongs to the clause holding the last such code token (or to
      none, when that token is outside every clause).
    * INTERIOR: any other comment that starts inside a clause belongs to
      that clause.
    * PRECEDING: the remaining line-initial comments on adjacent lines form
      a block; every comment of a block belongs to the first clause starting
      after the block's last comment on that comment's last line or the
      next one.
    * FREE: every other comment, owned by no clause.
    """
    starts = [clause.span.byte_start for clause in items]

    def clause_at(byte: int) -> int | None:
        idx = bisect_right(starts, byte) - 1
        if idx >= 0 and byte <= items[idx].span.byte_end:
            return idx
        return None

    def resolve(block: list[AttachedComment]) -> None:
        # Start lines never decrease, so only the first clause starting
        # after the block can be on the line the block ends on or the next.
        end = block[-1].token.span
        idx = bisect_left(starts, end.byte_end)
        if idx < len(items) and items[idx].span.start_line in (
                end.end_line, end.end_line + 1):
            for attached in block:
                attached.kind = CommentAttachment.PRECEDING
                attached.clause_index = idx

    result: list[AttachedComment] = []
    # The line-initial comments between clauses on adjacent lines read so
    # far, as FREE until the block ends and is resolved.
    block: list[AttachedComment] = []
    last_code: Token | None = None
    for tok in tokens:
        if tok.kind not in COMMENT_KINDS:
            last_code = tok
        elif last_code is not None \
                and last_code.span.end_line == tok.span.start_line:
            result.append(AttachedComment(
                tok, CommentAttachment.TRAILING,
                clause_at(last_code.span.byte_start)))
        elif (idx := clause_at(tok.span.byte_start)) is not None:
            result.append(AttachedComment(
                tok, CommentAttachment.INTERIOR, idx))
        else:
            if block and block[-1].token.span.end_line + 1 \
                    < tok.span.start_line:
                resolve(block)
                block = []
            block.append(AttachedComment(tok, CommentAttachment.FREE))
            result.append(block[-1])
    if block:
        resolve(block)
    for attached in result:
        if attached.clause_index is not None:
            items[attached.clause_index].comments.append(attached)
    return result


def group_predicates(program: Program) -> list[PredicateDef]:
    """Group clauses by predicate indicator in first-appearance order."""
    # Each indicator's clauses with their positions among the clauses that
    # have an indicator (directives excluded).
    grouped: dict[tuple[str, int], list[tuple[int, Clause]]] = {}
    position = 0
    for clause in program.items:
        if clause.kind == ClauseKind.DIRECTIVE:
            continue
        ind = clause.indicator
        if ind is None:
            continue
        grouped.setdefault(ind, []).append((position, clause))
        position += 1

    defs: list[PredicateDef] = []
    for ind, entries in grouped.items():
        first, last = entries[0][0], entries[-1][0]
        contiguous = last - first + 1 == len(entries)
        exported = True
        if program.exports is not None:
            exported = ind in program.exports
        defs.append(PredicateDef(
            indicator=ind,
            clauses=[clause for _, clause in entries],
            contiguous=contiguous,
            exported=exported))
    return defs


class TokenIndex:
    """What the rules read off a file's tokens, in one pass: each line's
    first token and last code (non-comment) token, and at its first code
    token the bracket depth and the code token before; the sorted byte
    ranges of quoted items and comments, which hold data or prose, not
    layout; the commas, line comments and block-comment offsets; and the
    first token of each atom and variable name."""

    def __init__(self, src: SourceFile, tokens: list[Token]) -> None:
        self.offsets = src.line_starts
        first = self.first_by_line = {}
        last = self.last_code_by_line = {}
        depths = self.depth_at_line = {}
        prevs = self.prev_code_at_line = {}
        starts = self.non_code_starts = []
        ends = self.non_code_ends = []
        commas = self.commas = []
        line_comments = self.line_comments = []
        block_starts = self.block_starts = []
        atoms = self.atoms = {}
        variables = self.variables = {}
        depth = line = code_line = 0
        prev = None
        for tok in tokens:
            kind, span = tok.kind, tok.span
            if span.start_line != line:
                line = span.start_line
                first[line] = tok
            if kind in NON_CODE_KINDS:
                starts.append(span.byte_start)
                ends.append(span.byte_end)
                if kind is _LINE_COMMENT:
                    line_comments.append(tok)
                    continue
                if kind is _BLOCK_COMMENT:
                    block_starts.append(span.byte_start)
                    continue
            if line != code_line:
                code_line = line
                depths[line], prevs[line] = depth, prev
            last[line] = prev = tok
            if kind is _ATOM:
                atoms.setdefault(tok.text, tok)
            elif kind is _VARIABLE:
                variables.setdefault(tok.text, tok)
            elif kind is _COMMA:
                commas.append(tok)
            elif kind in OPENER_KINDS:
                depth += 1
            elif kind in CLOSER_KINDS:
                depth = max(0, depth - 1)

    def span_at(self, line: int, col: int, width: int = 1) -> Span:
        byte = self.offsets[line - 1] + col - 1
        return Span(line, col, line, col + width, byte, byte + width)


class TermIndex:
    """What the rules read off a file's terms, in one pre-order walk over
    each clause's head and body.  Per clause (aligned with the clauses):
    the named variables with their occurrences, in order of first
    occurrence, where the anonymous ``_`` is never aggregated.  Per file:
    the numbers, the ``'.'/2`` cells, the bodies' binary ``;``, ``->`` and
    ``*->`` compounds with their clause, and the clauses whose body holds
    the atom ``repeat``."""

    def __init__(self, clauses: list[Clause]) -> None:
        self.variables: list[dict[str, list[Variable]]] = []
        numbers = self.numbers = []
        cells = self.cells = []
        clusters = self.clusters = []
        repeats = self.repeats = []
        for clause in clauses:
            occurrences = {}
            self.variables.append(occurrences)
            for term, in_body in ((clause.head, False), (clause.body, True)):
                stack = [term] if term is not None else []
                while stack:
                    t = stack.pop()
                    kind = type(t)
                    if kind is Compound:
                        args = t.args
                        if len(args) == 2:
                            if t.name == ".":
                                cells.append(t)
                            elif in_body and t.name in _BRANCH_FUNCTORS:
                                clusters.append((t, clause))
                        stack.extend(reversed(args))
                    elif kind is Variable:
                        if t.name != "_":
                            occurrences.setdefault(t.name, []).append(t)
                    elif kind is Integer or kind is Float:
                        numbers.append(t)
                    elif in_body and kind is Atom and t.name == "repeat" \
                            and (not repeats or repeats[-1] is not clause):
                        repeats.append(clause)


_Context = TypeVar("_Context")


class Facts:
    """What the rules know about one file.  Each fact is computed on first
    use and shared by every rule that reads it: the predicates, each
    clause's leaf goals (aligned with ``program.items``), the goal
    sequences of the clauses that hold a ``repeat``, the token index and the
    term index.  ``rules`` maps each family's letter to its enabled
    ``(rule id, check)`` pairs, in registration order."""

    def __init__(self, src: SourceFile, program: Program,
                 cfg: "Config") -> None:
        self.src = src
        self.program = program
        self.cfg = cfg
        self._contexts: dict[Callable, object] = {}
        self.rules = enabled_rules(tuple(cfg.rule_enabled.items()),
                                   tuple(RULES.items()))

    @cached_property
    def predicates(self) -> list[PredicateDef]:
        return group_predicates(self.program)

    @cached_property
    def leaf_goals(self) -> list[list[Term]]:
        return [leaf_goals(clause.body) if clause.body is not None else []
                for clause in self.program.items]

    @cached_property
    def goal_sequences(self) -> list[tuple[Clause, list[list[Term]]]]:
        """Each clause whose body holds the atom ``repeat``, with its
        body's goal sequences: the rules that read them look only around a
        ``repeat`` goal."""
        return [(clause, goal_sequences(clause.body))
                for clause in self.term_index.repeats]

    @cached_property
    def index(self) -> TokenIndex:
        return TokenIndex(self.src, self.program.tokens)

    @cached_property
    def term_index(self) -> TermIndex:
        return TermIndex(self.program.items)

    def context(self, build: Callable[["Facts"], _Context]) -> _Context:
        """A rule family's own shared context, ``build(self)``, built on
        first use."""
        if build not in self._contexts:
            self._contexts[build] = build(self)
        return self._contexts[build]


def program_from_source(src: SourceFile) -> Program:
    """Scan and parse ``src``; lexical and syntax diagnostics are merged on
    the returned program."""
    tokens, lex_diags = scan(src)
    program, _ = read_program(tokens)
    program.syntax_diagnostics = list(lex_diags) + program.syntax_diagnostics
    return program
