"""Which layers each command loads.

``import prolint.cli`` loads only what ``check`` and ``fmt`` share; each
command imports its own layers when it first runs.  Each case runs in a
fresh interpreter and lists the modules that the import and the command add
to ``sys.modules``: the ``prolint`` modules and ``json`` must be the
expected ones, and ``dataclasses`` and ``inspect`` must not be among them.
The cases run under the current interpreter and, when one starts, under
the oldest one that ``pyproject.toml`` accepts.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys

import pytest

import prolint

from test_min_python import _minimum_interpreter

CHILD = ("import sys\n"
         "before = set(sys.modules)\n"
         "import prolint.cli\n"
         "from prolint import Config\n"
         "Config()\n"
         "if sys.argv[1:]:\n"
         "    prolint.cli.main(sys.argv[1:])\n"
         "print(sorted(set(sys.modules) - before))\n")

SHARED = {"prolint.cli", "prolint.diagnostics", "prolint.reader",
          "prolint.source_model"}
FAMILIES = {"prolint.doc_rules", "prolint.idiom_rules",
            "prolint.layout_rules", "prolint.naming_rules"}

CASES = {
    "import": ([], SHARED),
    "check": (["check"], SHARED | FAMILIES),
    "check_json": (["check", "--format", "json"], SHARED | FAMILIES | {"json"}),
    "fmt_check": (["fmt", "--check"], SHARED | {"prolint.formatter"}),
    "fmt_write": (["fmt", "--write"], SHARED | {"prolint.formatter"}),
    "rules": (["rules"], SHARED),
}


#: Standard modules that no case may load: ``dataclasses`` imports
#: ``inspect``, and together they cost more to import than a layer.
UNWANTED = {"dataclasses", "inspect"}


def _assert_loads(case: str, tmp_path, python: str,
                  env: dict[str, str]) -> None:
    argv, want = CASES[case]
    if argv[:1] in (["check"], ["fmt"]):
        path = tmp_path / "f.pl"
        path.write_text("p :- q.\n", encoding="utf-8")
        argv = argv + [str(path)]
    out = subprocess.run([python, "-c", CHILD, *argv], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60).stdout
    added = set(ast.literal_eval(out.splitlines()[-1]))
    assert {name for name in added
            if name.startswith("prolint.") or name == "json"} == want
    assert not added & UNWANTED


@pytest.fixture(scope="module")
def minimum_interpreter():
    interpreter = _minimum_interpreter()
    if interpreter is None:
        pytest.skip("the oldest supported Python does not start")
    return interpreter


@pytest.mark.parametrize("case", sorted(CASES))
def test_command_loads_only_its_layers(case, tmp_path):
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(prolint.__file__)))
    _assert_loads(case, tmp_path, sys.executable, env)


@pytest.mark.parametrize("case", sorted(CASES))
def test_command_loads_only_its_layers_on_minimum_version(
        case, tmp_path, minimum_interpreter):
    _assert_loads(case, tmp_path, *minimum_interpreter)


def test_every_exported_name_resolves():
    for name in prolint.__all__:
        assert getattr(prolint, name) is not None, name
    namespace: dict = {}
    exec("from prolint import *", namespace)
    assert set(prolint.__all__) <= set(namespace)
    from prolint import format_program
    from prolint.formatter import format_program as defined
    assert format_program is defined
    with pytest.raises(AttributeError):
        prolint.no_such_name
