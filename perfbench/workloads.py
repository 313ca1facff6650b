"""Seeded workload generators for the benchmark.

Each generator writes Prolog files under a root directory and returns a
``Workload`` describing what it wrote.  The same seed always gives the same
files.  Sizes are fixed by the generator and the ``scale`` argument; the seed
only picks names, values, orderings and where defects are planted, so runs
with different seeds do comparable amounts of work.

* ``monolith``: the formatter corpus from the test suite joined ``copies``
  times into one file.  Many comments and clauses in one file make any
  superlinear per-file step (comment attachment today) dominate.
* ``tree``: several hundred small, messily laid out files from the test
  suite's ``gen_file``, nested a few directories deep, plus non-Prolog files
  that the CLI must skip.  Per-file costs dominate.
* ``library``: documented house-style modules from ``make_library_module``
  below, with deep data terms and planted defects whose locations are
  recorded, so the checker has an expected answer that does not come from
  the program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

PROLOG_EXTENSIONS = (".pl", ".pro", ".prolog")

#: Full sizes; ``scale`` multiplies them for the growth sweep and smoke mode.
MONOLITH_COPIES = 4
TREE_FILES = 704
LIBRARY_MODULES = 48
LIBRARY_PARTS = 8


@dataclass
class Plant:
    """A defect put into a file on purpose: ``rule`` must be reported on
    some line in ``first_line..last_line`` of ``path``."""
    path: str
    rule: str
    first_line: int
    last_line: int


@dataclass
class Workload:
    root: Path
    files: list[str] = field(default_factory=list)  # relative Prolog paths
    lines: int = 0
    plants: list[Plant] = field(default_factory=list)
    #: Paths relative to ``root`` that split the workload into parts the
    #: CLI is run on one at a time.
    shards: list[str] = field(default_factory=list)

    def add(self, relpath: str, text: str) -> None:
        path = self.root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        if relpath.endswith(PROLOG_EXTENSIONS):
            self.files.append(relpath)
            self.lines += text.count("\n")


def make_monolith(root: Path, seed: int, copies: int) -> Workload:
    # Imported lazily: the test helpers import the program under test.
    from test_formatter import formatter_corpus

    blocks = list(formatter_corpus().values())
    rng = random.Random(seed)
    parts = []
    for _ in range(copies):
        order = list(blocks)
        rng.shuffle(order)
        parts.extend(order)
    workload = Workload(root)
    workload.add("monolith.pl", "\n".join(parts))
    workload.shards = ["monolith.pl"]
    return workload


def make_tree(root: Path, seed: int, files: int) -> Workload:
    from gen import gen_file

    rng = random.Random(seed)
    workload = Workload(root)
    for index in range(files):
        depth = index % 4
        parts = [f"pkg_{index % 7}"] + [f"sub_{(index >> k) % 3}_{k}"
                                        for k in range(depth)]
        ext = PROLOG_EXTENSIONS[index % 11 % 3]
        workload.add("/".join(parts + [f"unit_{index:04d}{ext}"]),
                     gen_file(rng))
        if index % 97 == 0:
            # Must be skipped by the extension filter.
            workload.add("/".join(parts + [f"notes_{index}.txt"]),
                         "not prolog :- at all (\n")
            workload.add("/".join(parts + [f"unit_{index:04d}.pl.bak"]),
                         "broken( :- .\n")
    workload.shards = sorted({f.split("/")[0] for f in workload.files})
    return workload


def make_library(root: Path, seed: int, modules: int) -> Workload:
    rng = random.Random(seed)
    workload = Workload(root)
    for index in range(modules):
        relpath = (f"lib/part_{index % LIBRARY_PARTS}/"
                   f"{_WORDS[index % len(_WORDS)]}_{index:02d}.pl")
        text, plants = make_library_module(rng, index)
        workload.add(relpath, text)
        workload.plants.extend(
            Plant(relpath, rule, first, last) for rule, first, last in plants)
    workload.shards = sorted({f.rsplit("/", 1)[0] for f in workload.files})
    return workload


GENERATORS = {
    "monolith": (make_monolith, MONOLITH_COPIES),
    "tree": (make_tree, TREE_FILES),
    "library": (make_library, LIBRARY_MODULES),
}


def make_workload(name: str, root: Path, seed: int,
                  scale: float = 1.0) -> Workload:
    """Write workload ``name`` at ``scale`` times its full size."""
    maker, full = GENERATORS[name]
    return maker(root, seed, max(1, round(full * scale)))


# ---------------------------------------------------------------------------
# Library modules
# ---------------------------------------------------------------------------

_WORDS = ["graph", "queue", "table", "parser", "lexer", "cache", "store",
          "index", "route", "batch", "shape", "trail", "frame", "token",
          "event", "ledger"]
_NOUNS = ["item", "node", "entry", "record", "edge", "slot", "field", "cell",
          "pair", "block", "chunk", "label"]
_VERBS = ["update", "merge", "insert", "check", "apply", "visit", "fold",
          "split", "count", "rank"]
_ATOMS = ["red", "green", "blue", "open", "closed", "empty", "full", "none",
          "left", "right"]
_OPS = [("===>", 700, "xfx"), ("<~>", 700, "xfx"), ("+++", 500, "yfx")]


class _Module:
    """Lines of one module plus the line ranges of planted defects."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.plants: list[tuple[str, int, int]] = []

    def emit(self, *lines: str) -> None:
        self.lines.extend(lines)

    def plant(self, rule: str, *lines: str) -> None:
        first = len(self.lines) + 1
        self.emit(*lines)
        self.plants.append((rule, first, len(self.lines)))

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _nested_term(rng: random.Random, depth: int) -> str:
    term = rng.choice(_ATOMS)
    for level in range(depth):
        functor = _NOUNS[(level + depth) % len(_NOUNS)]
        term = f"{functor}({rng.randrange(100)}, {term})"
    return term


def make_library_module(rng: random.Random,
                        index: int) -> tuple[str, list[tuple[str, int, int]]]:
    """One documented module of about 200 lines.

    The shape (predicate kinds, state length, data-term depth, operator
    directives) depends only on ``index``; ``rng`` picks names and values
    and which defects sit where.  Planted defects, one of each, are a
    terminal cut (I01), a singleton (I04), an intercaps name (N01), an
    undocumented exported predicate (D01) and an over-long line (L03).
    """
    mod = _Module()
    word = _WORDS[index % len(_WORDS)]
    name = f"{word}_{index:02d}"
    nouns = rng.sample(_NOUNS, 6)
    verbs = rng.sample(_VERBS, 6)
    depth = 20 + (index * 7) % 41
    steps = 3 + index % 4
    uses_op = index % 3 == 0
    op_name, op_priority, op_type = _OPS[index % len(_OPS)]

    threaded = [f"{verbs[k]}_{nouns[k]}s" for k in range(3)]
    classify = f"classify_{nouns[3]}"
    choose = f"choose_{nouns[4]}"
    shape = f"{nouns[5]}_shape"
    lookup = f"lookup_{nouns[0]}"
    undocumented = f"{verbs[3]}_{nouns[1]}_list"
    intercaps = f"{verbs[4]}{nouns[2].capitalize()}"
    exports = threaded + [classify, choose, shape, lookup, undocumented]
    arities = [3, 3, 3, 3, 3, 2, 2, 2]

    mod.emit(f"/*  File:    {name}.pl",
             f"    Purpose: {word} helpers, generated module {index}",
             "*/", "",
             f":- module({name},")
    for k, (pred, arity) in enumerate(zip(exports, arities)):
        sep = "])." if k == len(exports) - 1 else ","
        lead = "        [ " if k == 0 else "          "
        mod.emit(f"{lead}{pred}/{arity}{sep}")
    mod.emit("")
    if uses_op:
        mod.emit(f":- op({op_priority}, {op_type}, {op_name}).", "")

    for k, pred in enumerate(threaded):
        _emit_threaded(mod, rng, pred, steps + k, wrong_doc=(k == 1))
    _emit_classify(mod, rng, classify)
    _emit_choose(mod, rng, choose, uses_op, op_name)
    _emit_shape(mod, rng, shape, depth)
    _emit_lookup(mod, rng, lookup)

    # Planted: an exported predicate with no introductory comment (D01).
    mod.plant("D01",
              f"{undocumented}([], []).",
              f"{undocumented}([X|Xs], [Y|Ys]) :-",
              f"    {verbs[3]}_one(X, Y),",
              f"    {undocumented}(Xs, Ys).")
    mod.emit("")
    mod.emit(f"%   {verbs[3]}_one(+X, -Y) is det.", "%",
             "%   Helper for the list version above.",
             f"{verbs[3]}_one(X, {verbs[3]}(X)).", "")

    # Planted: an intercaps predicate name (N01) whose last clause ends in
    # a cut (I01) and has a singleton variable (I04).
    mod.emit(f"%   {intercaps}(+Key, -Value) is semidet.", "%",
             "%   Finds the first value stored under Key.")
    mod.plant("N01", f"{intercaps}(Key, Value) :-")
    mod.emit(f"    {lookup}(Key, Value),")
    mod.plant("I01", "    !.")
    mod.emit("")
    mod.emit(f"%   {verbs[5]}_{nouns[2]}(+Key, -Value) is det.")
    singleton = rng.choice(["Unused", "Extra", "Spare", "Ignored"])
    mod.plant("I04", f"{verbs[5]}_{nouns[2]}(Key, {singleton}, Value) :-")
    mod.emit(f"    {intercaps}(Key, Value).", "")

    # Planted: a fact whose line is over-long (L03).
    items = ", ".join(f"'{rng.choice(_ATOMS)} {n}'" for n in range(12))
    mod.plant("L03", f"{word}_defaults([{items}]).")
    mod.emit("")
    _emit_table(mod, rng, f"{word}_weight", 12 + index % 9)
    return mod.text(), mod.plants


def _emit_threaded(mod: _Module, rng: random.Random, pred: str, steps: int,
                   wrong_doc: bool) -> None:
    """A predicate threading state through S0 ... S, with a recursive list
    walk and a base case."""
    mode = "?" if wrong_doc else "+"
    det = "nondet" if wrong_doc else "det"
    mod.emit(f"%!  {pred}(+Items:list, {mode}State0, -State) is {det}.",
             "%",
             f"%   Threads the state through {steps} steps for each item.",
             f"{pred}([], S, S).",
             f"{pred}([Item|Items], S0, S) :-")
    for step in range(steps):
        mod.emit(f"    {pred}_step_{step}(Item, S{step}, S{step + 1}),")
    mod.emit(f"    {pred}(Items, S{steps}, S).", "")
    for step in range(steps):
        mod.emit(f"{pred}_step_{step}(Item, S0, S) :-",
                 "    (   Item == none",
                 "    ->  S = S0",
                 f"    ;   S = [{step}-Item|S0]",
                 "    ).")
    mod.emit("")


def _emit_classify(mod: _Module, rng: random.Random, pred: str) -> None:
    atoms = rng.sample(_ATOMS, 4)
    mod.emit(f"%!  {pred}(+Value, -Kind, -Score) is det.", "%",
             "%   Classifies Value by its type.",
             f"{pred}(Value, Kind, Score) :-",
             "    (   integer(Value)",
             f"    ->  Kind = {atoms[0]},",
             "        Score is Value * 2",
             "    ;   atom(Value)",
             f"    ->  Kind = {atoms[1]},",
             "        atom_length(Value, Score)",
             "    ;   is_list(Value)",
             f"    ->  Kind = {atoms[2]},",
             "        length(Value, Score)",
             f"    ;   Kind = {atoms[3]},",
             "        Score = 0",
             "    ).", "")


def _emit_choose(mod: _Module, rng: random.Random, pred: str,
                 uses_op: bool, op_name: str) -> None:
    a, b, c = rng.sample(_ATOMS, 3)
    pair = f"Key {op_name} Value" if uses_op else "Key-Value"
    mod.emit(f"%!  {pred}(+Pairs, ?Key, -Value) is nondet.", "%",
             "%   Enumerates the values of Key in Pairs.",
             f"{pred}(Pairs, Key, Value) :-",
             f"    member({pair}, Pairs),",
             f"    (   Value == {a}",
             f"    ;   Value == {b}",
             f"    ;   Value \\== {c}",
             "    ).", "")


def _emit_shape(mod: _Module, rng: random.Random, pred: str,
                depth: int) -> None:
    mod.emit(f"%!  {pred}(?Name, -Shape) is nondet.", "%",
             "%   Sample data terms, nested deeply.")
    for key in ("small", "large"):
        mod.emit(f"{pred}({key}, {_nested_term(rng, depth)}).")
    mod.emit("")


def _emit_lookup(mod: _Module, rng: random.Random, pred: str) -> None:
    mod.emit(f"%!  {pred}(+Key, -Value) is semidet.", "%",
             "%   Looks up Key in the weight table.",
             f"{pred}(Key, Value) :-",
             "    table_entry(Key, Value0),",
             "    (   Value0 > 10",
             "    ->  Value = high",
             "    ;   Value = low",
             "    ).", "")
    mod.emit("table_entry(Key, Value) :-",
             "    atom_length(Key, Value).", "")


def _emit_table(mod: _Module, rng: random.Random, pred: str,
                rows: int) -> None:
    mod.emit(f"%   {pred}(?Name, ?Weight) is nondet.", "%",
             "%   Weight table.")
    for row in range(rows):
        mod.emit(f"{pred}({rng.choice(_NOUNS)}_{row}, "
                 f"{rng.randrange(3, 999)}).")
