"""prolint: a style checker and canonical formatter for Prolog source."""

from .diagnostics import (
    MODE_SYSTEMS,
    Config,
    Diagnostic,
    REGISTRY,
    RuleDescriptor,
    Severity,
    load_config,
    render_json,
    render_text,
    run,
)
from .reader import (
    Clause,
    ClauseKind,
    OperatorTable,
    PredicateDef,
    Program,
    conjunction_goals,
    group_predicates,
    program_from_source,
    read_program,
    read_term,
    structurally_equal,
)
from .source_model import (
    SourceFile,
    Span,
    Token,
    TokenKind,
    load_source,
    scan,
    source_from_text,
)

__version__ = "0.1.0"

__all__ = [
    "ArgDoc", "Clause", "ClauseKind", "Config", "Diagnostic", "DocHead",
    "DocHeadError", "FormatError", "MODE_SYSTEMS", "OperatorTable",
    "PredicateDef", "Program", "REGISTRY", "RuleDescriptor", "Severity",
    "SourceFile", "Span", "Token", "TokenKind", "check_format",
    "conjunction_goals", "format_program", "group_predicates",
    "load_config", "load_source",
    "parse_doc_head", "print_doc_head", "program_from_source",
    "read_program", "read_term", "render_json", "render_text", "run",
    "scan", "source_from_text", "structurally_equal",
]

#: The module of each name that loads on first access (PEP 562), so that
#: ``import prolint.cli`` loads only the layers every command runs.
_LAZY = {**dict.fromkeys(("FormatError", "check_format", "format_program"),
                         "formatter"),
         **dict.fromkeys(("ArgDoc", "DocHead", "DocHeadError",
                          "parse_doc_head", "print_doc_head"), "doc_rules")}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)
