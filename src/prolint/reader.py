"""Term reader: operator-precedence parsing of the token stream into terms,
clauses and programs, with a mutable operator table.

The reader interprets ``:- op(P, T, N)`` directives so that later clauses
parse under the updated table, and extracts exports from a ``:- module(M, Es)``
directive.  Other directives are stored but not executed.  ``Facts`` holds
what the lint rules share about one read file.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, Callable, TypeVar

from .diagnostics import Diagnostic, Severity
from .source_model import (
    COMMENT_KINDS,
    ESCAPES,
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


@dataclass
class Variable:
    name: str
    span: Span


@dataclass
class Atom:
    name: str
    span: Span
    quoted: bool = False
    lexeme: str | None = None
    parenthesized: bool = False

    @property
    def text(self) -> str:
        return self.lexeme if self.lexeme is not None else self.name


@dataclass
class Integer:
    value: int
    span: Span
    lexeme: str = ""


@dataclass
class Float:
    value: float
    span: Span
    lexeme: str = ""


@dataclass
class Str:
    text: str
    span: Span
    lexeme: str = ""


@dataclass
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
    """A structural fingerprint: spans and parenthesization excluded,
    variables compared by name."""
    if isinstance(term, Variable):
        return ("var", term.name)
    if isinstance(term, Atom):
        return ("atom", term.name)
    if isinstance(term, Integer):
        return ("int", term.value)
    if isinstance(term, Float):
        return ("float", term.value)
    if isinstance(term, Str):
        return ("str", term.lexeme or term.text)
    return ("compound", term.name,
            tuple(term_signature(a) for a in term.args))


def structurally_equal(a: Term, b: Term) -> bool:
    return term_signature(a) == term_signature(b)


def conjunction_goals(body: Term) -> list[Term]:
    """Flatten an and-then conjunction into its goal sequence.

    Control constructs (``;``, ``->``) and explicitly parenthesized subterms
    count as single goals; rules recurse into them separately.
    """
    goals: list[Term] = []
    stack = [body]
    while stack:
        term = stack.pop()
        if is_compound(term, ",", 2) and not term.parenthesized:
            stack.append(term.args[1])
            stack.append(term.args[0])
        else:
            goals.append(term)
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
    if is_atom(goal, "!"):
        return True
    if isinstance(goal, Compound) and goal.name in CONTROL_FUNCTORS:
        return any(contains_cut(a) for a in goal.args)
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


def render_canonical(term: Term) -> str:
    """Print a term in canonical prefix notation (operator-free)."""
    if isinstance(term, Variable):
        return term.name
    if isinstance(term, Atom):
        return term.text
    if isinstance(term, Integer):
        return str(term.value)
    if isinstance(term, Float):
        return repr(term.value)
    if isinstance(term, Str):
        return term.lexeme or term.text
    args = ", ".join(render_canonical(a) for a in term.args)
    name = term.name if term.name.isidentifier() else f"'{term.name}'"
    return f"{name}({args})"


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

    @classmethod
    def default(cls) -> "OperatorTable":
        table = cls()
        for priority, type_, names in _DEFAULT_OPERATORS:
            for name in names:
                table.add(priority, type_, name)
        return table

    def add(self, priority: int, type_: str, name: str) -> None:
        if type_ not in OPERATOR_TYPES:
            raise ValueError(f"bad operator type {type_!r}")
        if not 0 <= priority <= 1200:
            raise ValueError(f"operator priority {priority} out of range")
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

    def prefix(self, name: str) -> OperatorDef | None:
        return self._prefix.get(name)

    def infix(self, name: str) -> OperatorDef | None:
        return self._infix.get(name)

    def postfix(self, name: str) -> OperatorDef | None:
        return self._postfix.get(name)

    def max_priority(self, name: str) -> int:
        priorities = [d.priority
                      for d in (self._prefix.get(name), self._infix.get(name),
                                self._postfix.get(name)) if d]
        return max(priorities, default=0)


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
    neck_span: Span | None = None

    @property
    def indicator(self) -> tuple[str, int] | None:
        return indicator_of(self.head) if self.head is not None else None


class CommentAttachment(enum.Enum):
    PRECEDING = "preceding"
    TRAILING = "trailing"
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
    #: ``tokens`` without the comments, as the parser reads them.
    code_tokens: list[Token] = field(default_factory=list)
    syntax_diagnostics: list[Diagnostic] = field(default_factory=list)
    comma_roles: dict[int, str] = field(default_factory=dict)

    @property
    def has_module_directive(self) -> bool:
        return self.exports is not None


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class SyntaxProblem(Exception):
    def __init__(self, token: Token | None, message: str) -> None:
        super().__init__(message)
        self.token = token
        self.message = message


_OPERAND_KINDS = frozenset({
    TokenKind.VARIABLE, TokenKind.INTEGER, TokenKind.FLOAT, TokenKind.STRING,
    TokenKind.OPEN_PAREN, TokenKind.OPEN_BRACKET, TokenKind.OPEN_BRACE,
    TokenKind.ATOM, TokenKind.QUOTED_ATOM,
})

_CLOSERS = frozenset({
    TokenKind.CLOSE_PAREN, TokenKind.CLOSE_BRACKET, TokenKind.CLOSE_BRACE,
    TokenKind.COMMA, TokenKind.BAR, TokenKind.END,
})


def _merge(a: Span, b: Span) -> Span:
    return Span(a.start_line, a.start_col, b.end_line, b.end_col,
                a.byte_start, b.byte_end)


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


class _Parser:
    def __init__(self, tokens: list[Token], ops: OperatorTable,
                 comma_roles: dict[int, str] | None = None) -> None:
        self.tokens = [t for t in tokens if t.kind not in COMMENT_KINDS]
        self.pos = 0
        self.ops = ops
        self.comma_roles = comma_roles if comma_roles is not None else {}

    def peek(self, ahead: int = 0) -> Token | None:
        idx = self.pos + ahead
        return self.tokens[idx] if idx < len(self.tokens) else None

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: TokenKind, what: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            raise SyntaxProblem(tok, f"expected {what}")
        return self.advance()

    # -- term parsing -----------------------------------------------------

    def parse_term(self, max_prec: int) -> Term:
        term, _ = self.parse_term_prec(max_prec)
        return term

    def _infix_name(self) -> str | None:
        tok = self.peek()
        if tok is None:
            return None
        if tok.kind == TokenKind.ATOM:
            return tok.text
        if tok.kind == TokenKind.COMMA:
            return ","
        if tok.kind == TokenKind.BAR:
            return "|"
        return None

    def parse_term_prec(self, max_prec: int) -> tuple[Term, int]:
        left, left_prec = self.parse_primary(max_prec)
        return self._continue_expr(left, left_prec, max_prec)

    def _continue_expr(self, left: Term, left_prec: int,
                       max_prec: int) -> tuple[Term, int]:
        while True:
            name = self._infix_name()
            if name is None:
                break
            applied = False
            inf = self.ops.infix(name)
            if inf is not None:
                left_max = inf.priority if inf.type == "yfx" else inf.priority - 1
                if inf.priority <= max_prec and left_prec <= left_max:
                    if inf.type == "xfy":
                        left = self._parse_xfy_chain(left, inf.priority)
                    else:
                        op_tok = self.advance()
                        right, _ = self.parse_term_prec(inf.priority - 1)
                        functor = ";" if name == "|" else name
                        left = Compound(functor, [left, right],
                                        _merge(left.span, right.span),
                                        functor_span=op_tok.span)
                    left_prec = inf.priority
                    applied = True
            if not applied:
                post = self.ops.postfix(name)
                if post is not None:
                    left_max = (post.priority if post.type == "yf"
                                else post.priority - 1)
                    if post.priority <= max_prec and left_prec <= left_max:
                        op_tok = self.advance()
                        left = Compound(name, [left],
                                        _merge(left.span, op_tok.span),
                                        functor_span=op_tok.span)
                        left_prec = post.priority
                        applied = True
            if not applied:
                break
        return left, left_prec

    def _parse_xfy_chain(self, first: Term, priority: int) -> Term:
        """Collect ``a op b op c ...`` for right-associative operators
        iteratively, so long conjunction chains cannot exhaust the stack."""
        operands = [first]
        functors: list[tuple[str, Token]] = []
        while True:
            op_name = self._infix_name()
            inf = self.ops.infix(op_name) if op_name else None
            if inf is None or inf.priority != priority or inf.type != "xfy":
                break
            op_tok = self.advance()
            if op_tok.kind == TokenKind.COMMA:
                self.comma_roles[op_tok.span.byte_start] = "and_then"
            functors.append((";" if op_name == "|" else op_name, op_tok))
            # The right slot allows the full chain priority (a prefix
            # operator of equal priority may start the operand); anything
            # the operand absorbs beyond the primary stays strictly tighter.
            operand, operand_prec = self.parse_primary(priority)
            operand, operand_prec = self._continue_expr(
                operand, operand_prec, priority - 1)
            operands.append(operand)
        # The final operand may still absorb a non-xfy operator of the same
        # priority (its right slot allows priority == p).
        last, last_prec = operands[-1], 0
        follow = self._infix_name()
        follow_inf = self.ops.infix(follow) if follow else None
        if follow_inf is not None and follow_inf.priority == priority \
                and follow_inf.type != "xfy":
            last, _ = self._continue_expr(last, last_prec, priority)
            operands[-1] = last
        result = operands[-1]
        for index in range(len(operands) - 2, -1, -1):
            name, op_tok = functors[index]
            result = Compound(name, [operands[index], result],
                              _merge(operands[index].span, result.span),
                              functor_span=op_tok.span)
        return result

    def parse_primary(self, max_prec: int) -> tuple[Term, int]:
        tok = self.peek()
        if tok is None:
            raise SyntaxProblem(None, "unexpected end of input")
        kind = tok.kind
        if kind == TokenKind.VARIABLE:
            self.advance()
            return Variable(tok.text, tok.span), 0
        if kind == TokenKind.INTEGER:
            self.advance()
            return Integer(tok.value, tok.span, lexeme=tok.text), 0
        if kind == TokenKind.FLOAT:
            self.advance()
            return Float(tok.value, tok.span, lexeme=tok.text), 0
        if kind == TokenKind.STRING:
            self.advance()
            return Str(tok.text[1:-1], tok.span, lexeme=tok.text), 0
        if kind == TokenKind.OPEN_PAREN:
            open_tok = self.advance()
            inner = self.parse_term(1200)
            close_tok = self.expect(TokenKind.CLOSE_PAREN,
                                    "closing parenthesis")
            inner.span = _merge(open_tok.span, close_tok.span)
            if isinstance(inner, (Atom, Compound)):
                inner.parenthesized = True
            return inner, 0
        if kind == TokenKind.OPEN_BRACKET:
            return self.parse_list(), 0
        if kind == TokenKind.OPEN_BRACE:
            return self.parse_curly(), 0
        if kind in (TokenKind.ATOM, TokenKind.QUOTED_ATOM):
            return self.parse_atom_primary(max_prec)
        if kind == TokenKind.ERROR:
            raise SyntaxProblem(tok, "cannot parse past lexical error")
        raise SyntaxProblem(tok, f"unexpected {tok.text!r}")

    def parse_atom_primary(self, max_prec: int) -> tuple[Term, int]:
        tok = self.advance()
        quoted = tok.kind == TokenKind.QUOTED_ATOM
        name = _unquote(tok.text) if quoted else tok.text
        nxt = self.peek()
        if (nxt is not None and nxt.kind == TokenKind.OPEN_PAREN
                and nxt.span.byte_start == tok.span.byte_end):
            self.advance()
            args = [self.parse_arg()]
            while self.peek() is not None \
                    and self.peek().kind == TokenKind.COMMA:
                comma = self.advance()
                self.comma_roles[comma.span.byte_start] = "arg"
                args.append(self.parse_arg())
            close = self.expect(TokenKind.CLOSE_PAREN, "closing parenthesis")
            return Compound(name, args, _merge(tok.span, close.span),
                            functor_span=tok.span,
                            functor_lexeme=tok.text), 0
        if not quoted:
            if (name == "-" and nxt is not None
                    and nxt.kind in (TokenKind.INTEGER, TokenKind.FLOAT)
                    and nxt.span.byte_start == tok.span.byte_end):
                self.advance()
                span = _merge(tok.span, nxt.span)
                lexeme = "-" + nxt.text
                if nxt.kind == TokenKind.INTEGER:
                    return Integer(-nxt.value, span, lexeme=lexeme), 0
                return Float(-nxt.value, span, lexeme=lexeme), 0
            pre = self.ops.prefix(name)
            if (pre is not None and nxt is not None
                    and nxt.kind in _OPERAND_KINDS
                    and not self._atom_stands_alone(nxt)):
                if pre.priority > max_prec:
                    raise SyntaxProblem(
                        tok, f"prefix operator {name!r} (priority "
                        f"{pre.priority}) exceeds the allowed priority "
                        f"{max_prec} here; add parentheses")
                arg_max = pre.priority - (1 if pre.type == "fx" else 0)
                arg, _ = self.parse_term_prec(arg_max)
                return Compound(name, [arg], _merge(tok.span, arg.span),
                                functor_span=tok.span), pre.priority
        return Atom(name, tok.span, quoted=quoted, lexeme=tok.text), 0

    def _atom_stands_alone(self, nxt: Token) -> bool:
        """True when ``nxt`` is an infix/postfix-only operator atom that
        cannot begin a term, so the current atom must be an operand."""
        if nxt.kind != TokenKind.ATOM:
            return False
        if self.ops.prefix(nxt.text) is not None:
            return False
        if self.ops.infix(nxt.text) is None \
                and self.ops.postfix(nxt.text) is None:
            return False
        follower = self.peek(1)
        return follower is not None and follower.kind in _OPERAND_KINDS

    def parse_arg(self) -> Term:
        tok = self.peek()
        if (tok is not None and tok.kind == TokenKind.ATOM
                and self.ops.max_priority(tok.text) > 999):
            nxt = self.peek(1)
            if nxt is not None and nxt.kind in _CLOSERS:
                self.advance()
                return Atom(tok.text, tok.span, lexeme=tok.text)
        return self.parse_term(999)

    def parse_list(self) -> Term:
        open_tok = self.advance()
        nxt = self.peek()
        if nxt is not None and nxt.kind == TokenKind.CLOSE_BRACKET:
            close = self.advance()
            return Atom("[]", _merge(open_tok.span, close.span), lexeme="[]")
        elements = [self.parse_arg()]
        while self.peek() is not None \
                and self.peek().kind == TokenKind.COMMA:
            comma = self.advance()
            self.comma_roles[comma.span.byte_start] = "list"
            elements.append(self.parse_arg())
        tail: Term | None = None
        if self.peek() is not None and self.peek().kind == TokenKind.BAR:
            self.advance()
            tail = self.parse_arg()
        close = self.expect(TokenKind.CLOSE_BRACKET, "closing bracket")
        full_span = _merge(open_tok.span, close.span)
        result: Term = tail if tail is not None else Atom(
            "[]", Span(close.span.start_line, close.span.start_col,
                       close.span.end_line, close.span.end_col,
                       close.span.byte_start, close.span.byte_end),
            lexeme="[]")
        for element in reversed(elements):
            result = Compound(".", [element, result],
                              _merge(element.span, close.span))
        result.span = full_span
        return result

    def parse_curly(self) -> Term:
        open_tok = self.advance()
        nxt = self.peek()
        if nxt is not None and nxt.kind == TokenKind.CLOSE_BRACE:
            close = self.advance()
            return Atom("{}", _merge(open_tok.span, close.span), lexeme="{}")
        inner = self.parse_term(1200)
        close = self.expect(TokenKind.CLOSE_BRACE, "closing brace")
        return Compound("{}", [inner], _merge(open_tok.span, close.span))


def read_term(tokens: list[Token], ops: OperatorTable | None = None) -> Term:
    """Read one term from a token list (used directly in tests; read_program
    drives the same machinery clause by clause)."""
    parser = _Parser(tokens, ops or OperatorTable.default())
    term = parser.parse_term(1200)
    return term


# ---------------------------------------------------------------------------
# Program reading
# ---------------------------------------------------------------------------


def _classify(term: Term, span: Span) -> Clause:
    if is_compound(term, ":-", 2):
        return Clause(ClauseKind.RULE, term.args[0], term.args[1], span,
                      neck_span=term.functor_span)
    if is_compound(term, ":-", 1):
        return Clause(ClauseKind.DIRECTIVE, None, term.args[0], span,
                      neck_span=term.functor_span)
    if is_compound(term, "-->", 2):
        return Clause(ClauseKind.GRAMMAR_RULE, term.args[0], term.args[1],
                      span, neck_span=term.functor_span)
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
    parser = _Parser(tokens, program.operator_table, program.comma_roles)
    program.code_tokens = parser.tokens

    while parser.peek() is not None:
        tok = parser.peek()
        if tok.kind == TokenKind.ERROR:
            break
        if tok.kind == TokenKind.END:
            parser.advance()
            diagnostics.append(Diagnostic(
                rule_id="E02", severity=Severity.ERROR, span=tok.span,
                message="clause terminator '.' with no clause before it"))
            continue
        start_tok = tok
        try:
            term = parser.parse_term(1200)
            end_tok = parser.expect(TokenKind.END, "end of clause ('.')")
        except (SyntaxProblem, RecursionError) as problem:
            if isinstance(problem, RecursionError):
                anchor = start_tok.span
                message = "term is nested too deeply to read"
            else:
                anchor = problem.token.span if problem.token \
                    else start_tok.span
                message = problem.message
            diagnostics.append(Diagnostic(
                rule_id="E02", severity=Severity.ERROR, span=anchor,
                message=message))
            before = parser.pos
            while parser.peek() is not None \
                    and parser.peek().kind not in (TokenKind.END,
                                                   TokenKind.ERROR):
                parser.advance()
            if parser.peek() is not None \
                    and parser.peek().kind == TokenKind.END:
                parser.advance()
            if parser.pos == before and parser.peek() is not None:
                parser.advance()
            continue
        clause = _classify(term, _merge(start_tok.span, end_tok.span))
        if clause.kind == ClauseKind.DIRECTIVE:
            _apply_directive(clause.body, program)
        program.items.append(clause)

    program.comments = _attach_comments(tokens, program.items)
    program.syntax_diagnostics = list(diagnostics)
    return program, diagnostics


def _attach_comments(tokens: list[Token],
                     items: list[Clause]) -> list[AttachedComment]:
    """Attach each comment to a clause, in one forward pass over ``tokens``
    (which arrive in byte order).

    * TRAILING: code ends on the line the comment starts on, before it; the
      comment belongs to the clause holding the last such code token (or to
      none, when that token is outside every clause).
    * PRECEDING: line-initial comments on adjacent lines form a block; every
      comment of a block belongs to the first clause starting after the
      block's last comment on that comment's last line or the next one.
    * FREE: every other comment.
    """
    starts = [clause.span.byte_start for clause in items]

    def clause_at(byte: int) -> int | None:
        idx = bisect_right(starts, byte) - 1
        if idx >= 0 and byte <= items[idx].span.byte_end:
            return idx
        return None

    def clause_starting_after(comment: Token) -> int | None:
        # Start lines never decrease, so only the first candidate can match.
        idx = bisect_left(starts, comment.span.byte_end)
        if idx < len(items) and items[idx].span.start_line in (
                comment.span.end_line, comment.span.end_line + 1):
            return idx
        return None

    # Each comment with the code token it trails, if any.
    comments: list[tuple[Token, Token | None]] = []
    last_code: Token | None = None
    for tok in tokens:
        if tok.kind not in COMMENT_KINDS:
            last_code = tok
        elif last_code is not None \
                and last_code.span.end_line == tok.span.start_line:
            comments.append((tok, last_code))
        else:
            comments.append((tok, None))

    # Group line-initial comments into blocks of adjacent lines.
    blocks: list[list[Token]] = []
    for comment, trailed in comments:
        if trailed is not None:
            continue
        if blocks and blocks[-1][-1].span.end_line + 1 \
                >= comment.span.start_line:
            blocks[-1].append(comment)
        else:
            blocks.append([comment])
    preceding: dict[int, int] = {}
    for block in blocks:
        idx = clause_starting_after(block[-1])
        if idx is not None:
            for comment in block:
                preceding[comment.span.byte_start] = idx

    result: list[AttachedComment] = []
    for comment, trailed in comments:
        if trailed is not None:
            result.append(AttachedComment(
                comment, CommentAttachment.TRAILING,
                clause_at(trailed.span.byte_start)))
        elif comment.span.byte_start in preceding:
            result.append(AttachedComment(
                comment, CommentAttachment.PRECEDING,
                preceding[comment.span.byte_start]))
        else:
            result.append(AttachedComment(comment, CommentAttachment.FREE))
    return result


def group_predicates(program: Program) -> list[PredicateDef]:
    """Group clauses by predicate indicator in first-appearance order."""
    order: list[tuple[str, int]] = []
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
        if ind not in grouped:
            grouped[ind] = []
            order.append(ind)
        grouped[ind].append((position, clause))
        position += 1

    defs: list[PredicateDef] = []
    for ind in order:
        entries = grouped[ind]
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


_Context = TypeVar("_Context")


class Facts:
    """What the rules know about one file.  Each fact is computed on first
    use and shared by every rule that reads it; per-clause facts are lists
    aligned with ``program.items``."""

    def __init__(self, src: SourceFile, program: Program,
                 cfg: "Config") -> None:
        self.src = src
        self.program = program
        self.cfg = cfg
        self._contexts: dict[Callable, object] = {}

    @cached_property
    def predicates(self) -> list[PredicateDef]:
        return group_predicates(self.program)

    @cached_property
    def leaf_goals(self) -> list[list[Term]]:
        return [leaf_goals(clause.body) if clause.body is not None else []
                for clause in self.program.items]

    @cached_property
    def goal_sequences(self) -> list[list[list[Term]]]:
        return [goal_sequences(clause.body) if clause.body is not None
                else [] for clause in self.program.items]

    @cached_property
    def terms(self) -> list[tuple[list[Term], list[Term]]]:
        """Each clause's head subterms and body subterms, in pre-order."""
        return [(subterms(clause.head) if clause.head is not None else [],
                 subterms(clause.body) if clause.body is not None else [])
                for clause in self.program.items]

    @cached_property
    def variables(self) -> list[dict[str, list[Variable]]]:
        """Each clause's named variables with their occurrences, in order
        of first occurrence; the anonymous ``_`` is never aggregated."""
        out = []
        for head_terms, body_terms in self.terms:
            occurrences: dict[str, list[Variable]] = {}
            for term in chain(head_terms, body_terms):
                if isinstance(term, Variable) and term.name != "_":
                    occurrences.setdefault(term.name, []).append(term)
            out.append(occurrences)
        return out

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
