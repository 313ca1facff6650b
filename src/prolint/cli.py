"""Command-line interface: ``prolint check``, ``prolint fmt``,
``prolint rules``.

Exit codes: 0 success, 1 findings at or above the failure threshold (or
non-canonical files under ``fmt --check``), 2 usage, configuration or I/O
errors.

Importing this module loads only the layers every command runs; the others
are imported where a command first needs them.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import stat
import sys
from pathlib import Path

from .diagnostics import (
    MODE_SYSTEMS,
    Config,
    REGISTRY,
    Severity,
    config_problem,
    load_config,
    parse_positive_int,
    render_json,
    render_text,
    rule_setting_problem,
    run,
)
from .reader import program_from_source
from .source_model import SourceFile, load_source

DEFAULT_CONFIG_NAME = ".prolint"


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH",
                        help="configuration file (default: ./.prolint "
                             "when present)")
    parser.add_argument("--max-line-length", metavar="N")
    parser.add_argument("--indent", metavar="N")
    parser.add_argument("--mode-system", choices=list(MODE_SYSTEMS))
    parser.add_argument("--enable", metavar="ID,...",
                        help="comma-separated rule ids to enable")
    parser.add_argument("--disable", metavar="ID,...",
                        help="comma-separated rule ids to disable")
    parser.add_argument("--severity", action="append", default=[],
                        metavar="ID=LEVEL",
                        help="override one rule's severity (repeatable)")
    parser.add_argument("--fail-on",
                        choices=[level.label for level in reversed(Severity)],
                        help="minimum severity causing a nonzero exit")


# One parser per process: argparse objects hold reference cycles, which
# ``main`` pauses the collector for.  Parsing leaves the parser unchanged.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prolint",
        description="Style checker and canonical formatter for Prolog "
                    "source code.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    check = subparsers.add_parser("check", help="lint files")
    check.add_argument("paths", nargs="+",
                       help="files or directories ('-' reads stdin)")
    check.add_argument("--format", choices=["text", "json"], default="text")
    _add_common_flags(check)

    fmt = subparsers.add_parser("fmt", help="format files")
    fmt.add_argument("paths", nargs="+",
                     help="files or directories ('-' reads stdin)")
    mode = fmt.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true",
                      help="rewrite files in place")
    mode.add_argument("--check", dest="check_only", action="store_true",
                      help="exit 1 when any file is not canonically "
                           "formatted")
    _add_common_flags(fmt)

    rules = subparsers.add_parser("rules", help="print the rule catalog")
    _add_common_flags(rules)
    return parser


def _configure(args: argparse.Namespace) -> tuple[Config, int]:
    """Build the effective Config from the config file plus flags; returns
    (config, exit_code) where a nonzero code aborts the run."""
    cfg = Config()
    config_path = getattr(args, "config", None)
    if config_path is None and os.path.exists(DEFAULT_CONFIG_NAME):
        config_path = DEFAULT_CONFIG_NAME
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            print(f"prolint: cannot read config: {exc}", file=sys.stderr)
            return cfg, 2
        cfg = load_config(text, path=str(config_path))
        if cfg.problems:
            sys.stderr.write(render_text(cfg.problems))
            if any(p.severity >= Severity.ERROR for p in cfg.problems):
                return cfg, 2

    for flag, attr in (("max_line_length", "max_line_length"),
                       ("indent", "indent_size")):
        value = getattr(args, flag, None)
        if value is None:
            continue
        try:
            setattr(cfg, attr, parse_positive_int(value))
        except ValueError as exc:
            option = "--" + flag.replace("_", "-")
            config_problem(cfg, Severity.ERROR, 1,
                           f"bad value for {option}: {exc}", "<command line>")
            sys.stderr.write(render_text(cfg.problems[-1:]))
            return cfg, 2
    if getattr(args, "mode_system", None) is not None:
        cfg.mode_system = args.mode_system
    if getattr(args, "fail_on", None) is not None:
        cfg.failure_threshold = Severity.from_name(args.fail_on)
    for flag, value in (("enable", True), ("disable", False)):
        raw = (getattr(args, flag, None) or "").upper()
        for rule_id in filter(None, map(str.strip, raw.split(","))):
            problem = rule_setting_problem(rule_id)
            if problem is not None:
                print(f"prolint: {problem}", file=sys.stderr)
                return cfg, 2
            cfg.rule_enabled[rule_id] = value
    for override in getattr(args, "severity", []):
        rule_id, sep, level = override.partition("=")
        rule_id = rule_id.strip().upper()
        if not sep or rule_setting_problem(rule_id) is not None:
            print(f"prolint: bad --severity argument {override!r}",
                  file=sys.stderr)
            return cfg, 2
        try:
            cfg.rule_severity[rule_id] = Severity.from_name(level)
        except ValueError as exc:
            print(f"prolint: {exc}", file=sys.stderr)
            return cfg, 2
    return cfg, 0


def _expand_paths(raw_paths: list[str], cfg: Config) -> list[str]:
    """Resolve files and recursed directories, path-sorted and each named
    once; '-' is stdin and comes first."""
    files: list[str] = []
    for raw in raw_paths:
        if raw == "-":
            files.append("-")
            continue
        path = Path(raw)
        if not path.is_dir():
            files.append(str(path))
            continue
        # Symlinked files count and symlinked directories are not entered,
        # as under ``Path.rglob``; a suffix is ``Path.suffix``.
        pending = [str(path)]
        while pending:
            directory = pending.pop()
            try:
                with os.scandir(directory) as entries:
                    for entry in entries:
                        name = entry.name
                        child = name if directory == "." else entry.path
                        dot = name.rfind(".")
                        if entry.is_dir(follow_symlinks=False):
                            pending.append(child)
                        elif 0 < dot < len(name) - 1 \
                                and name[dot:] in cfg.extensions \
                                and entry.is_file():
                            files.append(child)
            except OSError:  # unreadable: skipped, as by ``Path.rglob``
                continue
    ordered = ["-"] if "-" in files else []
    ordered += sorted({f for f in files if f != "-"})
    return ordered


def _read(path: str) -> SourceFile:
    if path == "-":  # decoded as a file is, whatever the locale
        return SourceFile("<stdin>", sys.stdin.buffer.read())
    return load_source(path)


def _cmd_check(args: argparse.Namespace, cfg: Config) -> int:
    files = _expand_paths(args.paths, cfg)
    all_diags = []
    io_error = False
    for path in files:
        try:
            src = _read(path)
        except (OSError, UnicodeDecodeError) as exc:
            print(f"prolint: {path}: {exc}", file=sys.stderr)
            io_error = True
            continue
        program = program_from_source(src)
        all_diags.extend(run(src, program, cfg))
    all_diags.sort(key=lambda d: d.sort_key())
    if args.format == "json":
        sys.stdout.write(render_json(all_diags))
    else:
        sys.stdout.write(render_text(all_diags))
    if io_error:
        return 2
    if any(d.severity >= cfg.failure_threshold for d in all_diags):
        return 1
    return 0


def _write_in_place(path: str, data: bytes) -> None:
    """Write through a temp file and rename so an interrupted run never
    truncates the original; the file keeps its permission bits, and a
    symlink stays one: its target is the file replaced."""
    import tempfile
    if os.path.islink(path):
        path = os.path.realpath(path)
    mode = stat.S_IMODE(os.stat(path).st_mode)
    directory = os.path.dirname(os.path.abspath(path))
    fd, temp_path = tempfile.mkstemp(dir=directory, prefix=".prolint-")
    try:
        with os.fdopen(fd, "wb") as handle:
            # mkstemp creates the file 0600, and the rename keeps that mode.
            os.fchmod(handle.fileno(), mode)
            handle.write(data)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


def _cmd_fmt(args: argparse.Namespace, cfg: Config) -> int:
    from .formatter import check_format, format_program
    files = _expand_paths(args.paths, cfg)
    failed = False
    io_error = False
    if args.write and "-" in files:
        print("prolint: cannot rewrite stdin in place", file=sys.stderr)
        return 2
    for path in files:
        try:
            src = _read(path)
        except (OSError, UnicodeDecodeError) as exc:
            print(f"prolint: {path}: {exc}", file=sys.stderr)
            io_error = True
            continue
        program = program_from_source(src)
        if program.syntax_diagnostics:
            for diag in program.syntax_diagnostics:
                diag.path = src.path
            sys.stderr.write(render_text(program.syntax_diagnostics))
            print(f"prolint: {path}: not formatted (syntax errors)",
                  file=sys.stderr)
            failed = True
            continue
        if args.check_only:
            canonical, divergence = check_format(src, program, cfg)
            if not canonical:
                print(f"{path}: needs formatting (first difference at "
                      f"{divergence.start_line}:{divergence.start_col})")
                failed = True
        elif args.write:
            text = format_program(program, cfg)
            if text != src.content or src.stray_newline is not None:
                try:
                    _write_in_place(path, src.encode(text))
                except OSError as exc:
                    print(f"prolint: {path}: {exc}", file=sys.stderr)
                    io_error = True
        else:
            sys.stdout.write(format_program(program, cfg))
    if io_error:
        return 2
    return 1 if failed else 0


_REVIEW_GUIDANCE = [
    "Choose predicate names that show the argument order, e.g. "
    "parent_child/2 instead of an ambiguous parent_of/2.",
    "Decide once whether predicate names carry the type they operate on "
    "(tree_insert vs. insert); with a module system the prefix may be "
    "redundant.",
    "Name a property or relation with a noun or adjective phrase; name an "
    "action with an imperative verb phrase (remove_duplicates, not "
    "removes_duplicates).",
]


def _cmd_rules(cfg: Config) -> int:
    for descriptor in REGISTRY.values():
        enabled = cfg.enabled(descriptor.rule_id)
        state = "" if enabled else "  (off by default)"
        print(f"{descriptor.rule_id}  {descriptor.default_severity.label:<8}"
              f" {descriptor.title}{state}")
        print(f"     {descriptor.guideline_ref}")
        if descriptor.parameters:
            print(f"     parameters: {', '.join(descriptor.parameters)}")
    print()
    print("Review guidance (not automated):")
    for line in _REVIEW_GUIDANCE:
        print(f"  - {line}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    cfg, code = _configure(args)
    if code:
        return code
    # Nothing a command builds (tokens, terms, diagnostics, output) holds a
    # reference cycle, so the cyclic collector would only walk the live
    # graph again and again; reference counting frees all of it.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        if args.command == "check":
            return _cmd_check(args, cfg)
        if args.command == "fmt":
            return _cmd_fmt(args, cfg)
        return _cmd_rules(cfg)
    finally:
        if was_enabled:
            gc.enable()


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
