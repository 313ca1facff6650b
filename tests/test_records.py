"""The record classes behave as the dataclasses they replaced did.

Each record class names its fields in ``__slots__`` and the defaults of its
trailing fields in ``_defaults``; ``Record`` builds its ``__init__`` from
them and gives every record class one ``==`` and one ``repr``.  Only
``SourceFile``, which decodes its text, writes its own ``__init__``.  For
every record class: equal by fields, unequal when one field differs, a
``repr`` naming every field, the same record from positional and keyword
arguments, the defaults, a fresh list or dict per instance where the
default is ``Fresh``, even when None is passed, a ``TypeError`` naming the
class on an unknown keyword, and no hash, as records are mutable.  The two
immutable records stay hashable named tuples.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys

import pytest

import prolint
from prolint import (
    REGISTRY,
    ArgDoc,
    Clause,
    ClauseKind,
    Config,
    Diagnostic,
    DocHead,
    Program,
    Severity,
    SourceFile,
    Span,
    Token,
    TokenKind,
)
from prolint.diagnostics import Fresh, Record
from prolint.doc_rules import _DocBlock
from prolint.formatter import _Unit
from prolint.naming_rules import IdentifierWords
from prolint.reader import (
    AttachedComment,
    Atom,
    CommentAttachment,
    Compound,
    Float,
    Integer,
    OperatorDef,
    PredicateDef,
    Str,
    Variable,
)

SPAN = Span(1, 1, 1, 2, 0, 1)
ATOM = Atom("a", SPAN)
TOKEN = Token(TokenKind.LINE_COMMENT, "% c", SPAN)
CLAUSE = Clause(ClauseKind.FACT, ATOM, None, SPAN)

#: Each class with its required arguments in positional order, its
#: optional ones at their defaults, and the fields whose default is a
#: fresh list or dict.  ``Program``'s fresh operator table compares by
#: identity, so its default is checked apart.
CASES = {
    "Token": (Token, dict(kind=TokenKind.ATOM, text="a", span=SPAN),
              dict(value=None), ()),
    "Variable": (Variable, dict(name="X", span=SPAN), {}, ()),
    "Atom": (Atom, dict(name="a", span=SPAN),
             dict(quoted=False, lexeme=None, parenthesized=False), ()),
    "Integer": (Integer, dict(value=1, span=SPAN), dict(lexeme=""), ()),
    "Float": (Float, dict(value=1.5, span=SPAN), dict(lexeme=""), ()),
    "Str": (Str, dict(text="s", span=SPAN), dict(lexeme=""), ()),
    "Compound": (Compound, dict(name="f", args=[ATOM], span=SPAN),
                 dict(parenthesized=False, functor_span=None,
                      functor_lexeme=None), ()),
    "Clause": (Clause, dict(kind=ClauseKind.FACT, head=ATOM, body=None,
                            span=SPAN),
               dict(comments=[]), ("comments",)),
    "AttachedComment": (AttachedComment,
                        dict(token=TOKEN, kind=CommentAttachment.FREE),
                        dict(clause_index=None), ()),
    "PredicateDef": (PredicateDef,
                     dict(indicator=("a", 0), clauses=[CLAUSE]),
                     dict(contiguous=True, exported=True), ()),
    "Program": (Program, {},
                dict(items=[], comments=[], exports=None, module_name=None,
                     tokens=[], syntax_diagnostics=[]),
                ("items", "comments", "operator_table", "tokens",
                 "syntax_diagnostics")),
    "Diagnostic": (Diagnostic,
                   dict(rule_id="N01", severity=Severity.WARNING, span=SPAN,
                        message="m"),
                   dict(suggestion=None, predicate=None, path=""), ()),
    "Config": (Config, {},
               dict(indent_size=4, max_line_length=79, clause_lines_info=24,
                    clause_lines_warn=48, eol_comment_max=40,
                    magic_number_allowlist=frozenset({0, 1, -1, 2}),
                    inline_goal_allowlist=frozenset(
                        {("write", 1), ("nl", 0), ("print", 1),
                         ("format", 1), ("format", 2), ("format", 3)}),
                    mode_system="recommended", comma_style="simple",
                    failure_threshold=Severity.WARNING,
                    extensions=(".pl", ".pro", ".prolog"),
                    pronounceable_allowlist=frozenset(
                        {"src", "msg", "tmp", "str", "ptr", "cfg", "db"}),
                    leet_enabled=False,
                    leet_allowlist=frozenset({"i18n", "l10n"}),
                    require_docs_without_module=True,
                    public_name_pattern=None, rule_enabled={},
                    rule_severity={}, problems=[]),
               ("rule_enabled", "rule_severity", "problems")),
    "IdentifierWords": (IdentifierWords,
                        dict(segments=["a", "b"], separators=["_"]),
                        dict(trailing_digits=None), ()),
    "ArgDoc": (ArgDoc, dict(mode="+", name="X"), dict(type_name=None), ()),
    "DocHead": (DocHead, dict(predicate_name="p"),
                dict(args=[], determinism=None, marker="double"), ("args",)),
    "_DocBlock": (_DocBlock, dict(clause_index=0, tokens=[TOKEN]),
                  dict(heads=[], failure=None, group=None, group_index=None),
                  ("heads",)),
    "_Unit": (_Unit, dict(start_line=1, end_line=2),
              dict(index=None, comment=None), ()),
}


def _fields(record) -> dict:
    return {name: getattr(record, name) for name in record.__slots__}


def _record_classes() -> list[type]:
    for module in pkgutil.iter_modules(prolint.__path__):
        importlib.import_module(f"{prolint.__name__}.{module.name}")
    return Record.__subclasses__()


def test_every_record_class_has_a_case():
    """Only ``SourceFile`` writes its own ``__init__`` in its module; each
    other record class has a case above."""
    classes = _record_classes()
    assert {cls.__name__ for cls in classes
            if cls.__init__.__code__.co_filename
            == sys.modules[cls.__module__].__file__} == {"SourceFile"}
    assert {cls.__name__ for cls in classes} == set(CASES) | {"SourceFile"}
    for cls in classes:
        assert set(cls._defaults) <= set(cls.__slots__), cls.__name__


@pytest.mark.parametrize("case", sorted(CASES))
def test_record_semantics(case):
    cls, required, defaults, fresh = CASES[case]
    assert list(required) == list(cls.__slots__[:len(required)])
    assert set(required) | set(defaults) | set(fresh) == set(cls.__slots__)
    assert tuple(name for name, default in cls._defaults.items()
                 if isinstance(default, Fresh)) == fresh
    record = cls(**required)
    fields = _fields(record)
    assert {**required, **defaults}.items() <= fields.items()
    # The same fresh objects, so that a table that compares by identity
    # compares equal.
    shared = {name: fields[name] for name in fresh}
    assert cls(*required.values(), **shared) == record
    assert cls(**fields) == record and cls(**fields) is not record
    assert cls(*fields.values()) == record
    for name in fields:
        assert cls(**dict(fields, **{name: object()})) != record, name
    text = repr(record)
    assert text.startswith(f"{cls.__name__}(")
    for name, value in fields.items():
        assert f"{name}={value!r}" in text, name
    other = cls(**required)
    given_none = cls(**required, **{name: None for name in fresh})
    for name in fresh:
        assert getattr(other, name) is not getattr(record, name), name
        assert type(getattr(given_none, name)) is type(fields[name]), name
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__init__\(\) "
                       "got an unexpected keyword argument 'no_such'$"):
        cls(**required, no_such=1)
    with pytest.raises(TypeError):
        hash(record)


def test_source_file_record_semantics():
    record = SourceFile("a.pl", "p.\r\nq.\r\n")
    assert record == SourceFile("a.pl", "p.\r\nq.\r\n".encode())
    assert record != SourceFile("b.pl", "p.\r\nq.\r\n")
    assert record != SourceFile("a.pl", "p.\nq.\n")
    text = repr(record)
    assert text.startswith("SourceFile(")
    for name, value in _fields(record).items():
        assert f"{name}={value!r}" in text, name
    with pytest.raises(TypeError):
        hash(record)


def test_program_defaults_are_its_own():
    """As ``Program`` reads the default operator table, and a table compares
    by identity, two programs are unequal; their defaults are their own."""
    first, second = Program(), Program()
    for name in ("items", "comments", "operator_table", "tokens",
                 "syntax_diagnostics"):
        assert getattr(first, name) is not getattr(second, name), name
    assert first.exports is None and first.module_name is None
    assert first.operator_table.infix(":-").priority == 1200


def test_records_of_different_classes_are_unequal():
    assert Integer(1, SPAN) != Float(1, SPAN)
    assert Integer(1, SPAN, "1") == Integer(1, SPAN, "1")
    assert ATOM != "a"


def test_descriptors_stay_immutable_and_hashable():
    definition = OperatorDef(":-", 1200, "xfx")
    for record, name in ((REGISTRY["N01"], "title"), (definition, "name")):
        assert hash(record) == hash(type(record)(*record))
        with pytest.raises(AttributeError):
            setattr(record, name, "x")
    assert definition == OperatorDef(name=":-", priority=1200, type="xfx")
    assert repr(definition) \
        == "OperatorDef(name=':-', priority=1200, type='xfx')"
