"""Spans around the calls into each layer of prolint, recorded from outside.

``Tracer`` replaces each layer function with a wrapper that records a span
(name, start, end, parent span, file id, count) and restores the originals
when the ``with`` block ends.  A function is replaced wherever a prolint
module binds it, so ``from .reader import group_predicates`` in a rule module
is traced as well.  A layer function that a later version of prolint no
longer has is skipped; its metrics then read 0.

Spans stay in memory; ``dump`` writes them out once the run is over.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

#: (module, function, span name) of each layer call that is traced.
LAYER_FUNCTIONS = [
    ("cli", "main", "cli.main"),
    ("cli", "_expand_paths", "cli.expand"),
    ("cli", "_write_in_place", "cli.write"),
    ("source_model", "load_source", "source_model.load"),
    ("source_model", "scan", "source_model.scan"),
    ("reader", "program_from_source", "reader.program_from_source"),
    ("reader", "read_program", "reader.read"),
    ("reader", "_attach_comments", "reader.attach"),
    ("reader", "group_predicates", "reader.group"),
    ("layout_rules", "check_layout", "layout_rules"),
    ("naming_rules", "check_naming", "naming_rules"),
    ("doc_rules", "check_docs", "doc_rules"),
    ("idiom_rules", "check_idioms", "idiom_rules"),
    ("diagnostics", "run", "diagnostics.run"),
    ("diagnostics", "render_json", "diagnostics.render"),
    ("diagnostics", "load_config", "diagnostics.load_config"),
    ("formatter", "format_program", "formatter"),
]


def _count(name: str, result) -> int | tuple | None:
    """The work count recorded with a span: tokens, clauses and comments,
    diagnostics, or bytes written.  None when the layer returns something
    else than the shape read here, so that a refactored layer loses its
    count rather than breaking the traced run."""
    try:
        if name == "source_model.scan":
            return len(result[0])
        if name == "reader.read":
            return (len(result[0].items), len(result[0].comments))
        if name in ("layout_rules", "naming_rules", "doc_rules",
                    "idiom_rules", "diagnostics.run"):
            return len(result)
        if name == "formatter":
            return len(result.encode("utf-8"))
    except (TypeError, AttributeError, IndexError, KeyError):
        pass
    return None


class Tracer:
    """Records spans while installed.  A span is the list
    ``[name, start, end, parent, file_id, count, changed]``; ``parent`` is
    the index of the enclosing span or -1, and spans with the same
    ``file_id`` belong to one input file."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._file_id = -1
        self._content: str | None = None
        self._replaced: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, function):
        def traced(*args, **kwargs):
            if name == "source_model.load":
                self._file_id += 1
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self._file_id, None, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            span[5] = _count(name, result)
            if name == "source_model.load":
                self._content = getattr(result, "content", None)
            elif name == "formatter":
                span[6] = result != self._content
            return result
        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if n == "prolint" or n.startswith("prolint.")]
        for module_name, attr, name in LAYER_FUNCTIONS:
            try:
                module = importlib.import_module(f"prolint.{module_name}")
            except ImportError:
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapped = self._wrap(name, original)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        self._replaced.append((holder, key, original))
        return self

    def __exit__(self, *exc) -> None:
        for holder, key, original in reversed(self._replaced):
            setattr(holder, key, original)
        self._replaced.clear()

    def dump(self, path, header: dict) -> None:
        fields = ["name", "start", "end", "parent", "file_id", "count",
                  "changed"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"header": header, "fields": fields,
                       "spans": self.spans}, handle)


class Summary:
    """Totals over a slice of spans: inclusive and self seconds and work
    counts per span name; a name without spans reads 0."""

    def __init__(self, spans: list[list], first: int, last: int) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, list] = defaultdict(list)
        child_time: dict[int, float] = defaultdict(float)
        for index in range(last - 1, first - 1, -1):
            name, start, end, parent, _, count, changed = spans[index]
            duration = end - start
            if parent >= first:
                child_time[parent] += duration
            self.total[name] += duration
            self.self_time[name] += duration - child_time[index]
            if count is not None:
                self.counts[name].append(count)
            if changed is not None:
                self.counts[name + ".changed"].append(changed)

    def count(self, name: str, position: int | None = None) -> int:
        values = self.counts[name]
        if position is not None:
            values = [value[position] for value in values]
        return sum(values)
