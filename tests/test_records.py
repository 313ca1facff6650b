"""The record classes behave as the dataclasses they replaced did.

Each record class names its fields in ``__slots__`` and writes its own
``__init__``; ``Record`` gives them one ``==`` and one ``repr``.  For a
token, a term, a clause, a diagnostic, a config and a doc head:
equal by fields, unequal when one field differs, a ``repr`` naming every
field, the same record from positional and keyword arguments, the
defaults, a fresh list or dict per instance where the default is empty,
``TypeError`` on an unknown keyword, and no hash, as records are mutable.
The two immutable records stay hashable named tuples.
"""

from __future__ import annotations

import pytest

from prolint import (
    REGISTRY,
    Clause,
    ClauseKind,
    Config,
    Diagnostic,
    DocHead,
    Program,
    Severity,
    Span,
    Token,
    TokenKind,
)
from prolint.reader import Atom, Compound, Float, Integer, OperatorDef

SPAN = Span(1, 1, 1, 2, 0, 1)
ATOM = Atom("a", SPAN)

#: Each class with its required arguments in positional order, its
#: optional ones at their defaults, and the fields whose default is a
#: fresh empty list or dict.
CASES = {
    "Token": (Token, dict(kind=TokenKind.ATOM, text="a", span=SPAN),
              dict(value=None), ()),
    "Compound": (Compound, dict(name="f", args=[ATOM], span=SPAN),
                 dict(parenthesized=False, functor_span=None,
                      functor_lexeme=None), ()),
    "Clause": (Clause, dict(kind=ClauseKind.FACT, head=ATOM, body=None,
                            span=SPAN),
               dict(comments=[]), ("comments",)),
    "Diagnostic": (Diagnostic,
                   dict(rule_id="N01", severity=Severity.WARNING, span=SPAN,
                        message="m"),
                   dict(suggestion=None, predicate=None, path=""), ()),
    "Config": (Config, {},
               dict(indent_size=4, max_line_length=79,
                    mode_system="recommended",
                    failure_threshold=Severity.WARNING, rule_enabled={},
                    rule_severity={}, problems=[]),
               ("rule_enabled", "rule_severity", "problems")),
    "DocHead": (DocHead, dict(predicate_name="p"),
                dict(args=[], determinism=None, marker="double"), ("args",)),
}


def _fields(record) -> dict:
    return {name: getattr(record, name) for name in record.__slots__}


@pytest.mark.parametrize("case", sorted(CASES))
def test_record_semantics(case):
    cls, required, defaults, fresh = CASES[case]
    record = cls(**required)
    fields = _fields(record)
    assert {**required, **defaults}.items() <= fields.items()
    assert cls(*required.values()) == record
    assert cls(**fields) == record and cls(**fields) is not record
    assert cls(*fields.values()) == record
    for name in fields:
        assert cls(**dict(fields, **{name: object()})) != record, name
    text = repr(record)
    assert text.startswith(f"{cls.__name__}(")
    for name, value in fields.items():
        assert f"{name}={value!r}" in text, name
    other = cls(**required)
    for name in fresh:
        assert getattr(other, name) is not getattr(record, name), name
    with pytest.raises(TypeError):
        cls(**required, no_such=1)
    with pytest.raises(TypeError):
        hash(record)


def test_program_defaults_are_its_own():
    """As ``Program`` reads the default operator table, and a table compares
    by identity, two programs are unequal; their defaults are their own."""
    first, second = Program(), Program()
    for name in ("items", "comments", "operator_table", "tokens",
                 "syntax_diagnostics", "comma_roles"):
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
