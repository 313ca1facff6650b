"""The package works on the oldest Python that ``pyproject.toml`` accepts.

``ast.parse`` with ``feature_version`` rejects newer syntax without a second
interpreter.  Newer regular-expression syntax, such as possessive
quantifiers, only fails when the pattern is compiled, and each record
class's ``__init__`` is compiled from generated source, which ``ast.parse``
never sees.  So, when that interpreter starts, the CLI runs under it, and
one record of every class is built under it, and each must print what the
current one prints.
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import prolint

from test_formatter import formatter_corpus

PACKAGE = Path(prolint.__file__).parent
PYPROJECT = PACKAGE.parent.parent / "pyproject.toml"
MIN_VERSION = tuple(int(part) for part in re.search(
    r'requires-python = ">=(\d+)\.(\d+)"',
    PYPROJECT.read_text(encoding="utf-8")).groups())


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_source_parses_as_minimum_version(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=MIN_VERSION)


def _minimum_interpreter() -> tuple[str, dict[str, str]] | None:
    """The command and environment that start the minimum Python, or None
    when it does not start.  A pyenv shim may need to be told which
    installed version to run: a shim that started this interpreter has
    set ``PYENV_VERSION`` to this one's version."""
    version = ".".join(map(str, MIN_VERSION))
    command = shutil.which(f"python{version}")
    if command is None:
        return None
    inherited = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    for env in (inherited, dict(inherited, PYENV_VERSION=version)):
        try:
            probe = subprocess.run(
                [command, "-c", "import sys; print(sys.version_info[:2])"],
                env=env, capture_output=True, text=True, timeout=60)
        except OSError:
            return None
        if probe.returncode == 0 \
                and probe.stdout.strip() == str(MIN_VERSION):
            return command, env
    return None


def test_cli_output_same_on_minimum_version(tmp_path):
    interpreter = _minimum_interpreter()
    if interpreter is None:
        pytest.skip(f"no Python {MIN_VERSION} interpreter starts")
    old_python, old_env = interpreter
    for name, text in formatter_corpus().items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    for args in (["check", "--format", "json"], ["fmt", "--check"]):
        command = ["-m", "prolint.cli", *args, str(tmp_path)]
        runs = [subprocess.run([python, *command], env=run_env,
                               capture_output=True, text=True, timeout=300)
                for python, run_env in ((sys.executable, env),
                                        (old_python, old_env))]
        current, oldest = ((run.returncode, run.stdout, run.stderr)
                           for run in runs)
        assert oldest == current, args
        assert current[0] == 1 and current[1], args


#: Builds one record of every record class from its required arguments,
#: and prints each class's fields and the ``TypeError`` of an unknown
#: keyword.
RECORDS = """\
import importlib, pkgutil, prolint
from prolint.diagnostics import Record
for module in pkgutil.iter_modules(prolint.__path__):
    importlib.import_module("prolint." + module.name)
for cls in sorted(Record.__subclasses__(), key=lambda cls: cls.__name__):
    code = cls.__init__.__code__
    args = ["x"] * (code.co_argcount - 1 - len(cls.__init__.__defaults__
                                                or ()))
    record = cls(*args)
    try:
        cls(*args, no_such=1)
    except TypeError as exc:
        error = str(exc)
    print(cls.__name__, [name for name in cls.__slots__
                         if getattr(record, name) == "x"], error)
"""


def test_records_build_on_minimum_version():
    interpreter = _minimum_interpreter()
    if interpreter is None:
        pytest.skip(f"no Python {MIN_VERSION} interpreter starts")
    old_python, old_env = interpreter
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    current, oldest = (subprocess.run(
        [python, "-c", RECORDS], env=run_env, capture_output=True,
        text=True, check=True, timeout=60).stdout
        for python, run_env in ((sys.executable, env), (old_python, old_env)))
    assert oldest == current
    assert len(current.splitlines()) == 19
    assert "Token ['kind', 'text', 'span'] Token.__init__() got an " \
        "unexpected keyword argument 'no_such'" in current.splitlines()
