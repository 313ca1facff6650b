"""End-to-end and per-layer benchmark of ``prolint check`` and ``prolint fmt``.

Run from anywhere; the checkout root is the parent of this directory:

    python3 perfbench/run.py --workload monolith --seed 1 --seconds 25 \\
        --trace 0

Workloads (see ``workloads.py``): ``monolith``, ``tree``, ``library``.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``: a fresh interpreter importing ``prolint.cli`` and building
  the default ``Config``, median over several child processes, each
  rescaled by the reference loop it times before and after.
* ``check_lines_per_s``, ``fmt_check_lines_per_s``,
  ``fmt_write_lines_per_s``: source lines per wall-clock second of
  ``cli.main`` in-process with stdout captured, for ``check --format
  json``, ``fmt --check`` and ``fmt --write`` (on a fresh copy, the copy not
  timed).  The commands run in rounds for ``--seconds`` on each shard of
  the workload; each shard's median is rescaled to the speed of a fixed
  reference loop timed between the samples (``REFERENCE_LOOP_S``).
* ``peak_rss_mb``: peak RSS of a child process running ``check --format
  json`` on the workload.

``--trace 1`` runs the same commands with a span around each layer call
(``spans.py``) and reports per-layer metrics, the growth of each layer's
cost per line from a quarter to twice the full size, and the tracing
overhead.  Spans are written to ``.perfbench/trace-<workload>-<seed>.json``
under the checkout.

Every run checks the outputs of its first round on every file
(``checks.py``) and compares each later command's output with them.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  ``--smoke`` shrinks the workload and runs one round, for the
benchmark's own test.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import io
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Per-workload scale of the full size under ``--smoke``.
SMOKE_SCALE = {"monolith": 1 / 4, "tree": 1 / 64, "library": 1 / 16}
#: Growth sweep, as scales of the full size: ``<metric>.growth`` is the cost
#: per line at twice the full size against a quarter of it, which for the
#: monolith is the test corpus joined 8 times against joined once.
SWEEP_SCALES = (0.25, 2.0)
SETUP_SPAWNS = 15
CHILD_TIMEOUT_S = 120

#: Machine-speed calibration.  Timings are divided by the time of this fixed
#: pure-Python loop, measured next to them, and multiplied by the loop's
#: time on the machine the baseline was recorded on (a 2-vCPU Intel Xeon VM
#: at 2.1 GHz, Python 3.11).  A shared machine's speed drifts by tens of
#: percent over minutes; the loop drifts with it, so dividing by it cancels
#: the drift but not a change in the program's own cost.
REFERENCE_LOOP_S = 0.02


def reference_loop() -> float:
    start = perf_counter()
    total = 0
    for i in range(400_000):
        total += i
    return perf_counter() - start


SETUP_CODE = ("from time import perf_counter\n"
              + inspect.getsource(reference_loop)
              + "before = reference_loop()\n"
              "start = perf_counter()\n"
              "import prolint.cli\n"
              "from prolint import Config\n"
              "Config()\n"
              "seconds = perf_counter() - start\n"
              "print(before, seconds, reference_loop())\n")
COMMANDS = ("check", "fmt_check", "fmt_write")
CHECK_CODE = ("import sys; from prolint.cli import main; "
              "sys.exit(main(sys.argv[1:]))")

FAMILIES = ("layout_rules", "naming_rules", "doc_rules", "idiom_rules")
#: Timed per-layer metrics that get a ``.growth``.
GROWTH_METRICS = (
    "source_model.load_s", "source_model.scan_s", "reader.parse_s",
    "reader.attach_s", "reader.group_s", "layout_rules.s", "naming_rules.s",
    "doc_rules.s", "idiom_rules.s", "diagnostics.filter_s",
    "diagnostics.render_s", "formatter.s", "cli.expand_s")


def _bootstrap():
    """Import prolint and the test helpers from this checkout, or exit with
    an error when they are missing."""
    needed = [ROOT / "src" / "prolint" / "cli.py", ROOT / "tests" / "gen.py",
              ROOT / "tests" / "oracles.py",
              ROOT / "tests" / "test_formatter.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.exit(f"perfbench: checkout lacks {', '.join(missing)}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import prolint.cli
    if Path(prolint.cli.__file__).resolve().parent != ROOT / "src" / "prolint":
        sys.exit(f"perfbench: imported prolint from {prolint.cli.__file__}, "
                 "not from this checkout")
    return prolint.cli


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _argv(command: str, target: Path) -> list[str]:
    return {"check": ["check", "--format", "json"],
            "fmt_check": ["fmt", "--check"],
            "fmt_write": ["fmt", "--write"]}[command] + [str(target)]


def _spawn(*argv: str) -> subprocess.Popen:
    """Start ``prolint`` from this checkout in a child process."""
    return subprocess.Popen([sys.executable, "-c", CHECK_CODE, *argv],
                            env=_child_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)


def _reap(proc: subprocess.Popen, deadline: float):
    """Wait for ``proc`` until ``deadline``; returns its exit code and
    resource usage, or ``(None, None)`` after killing it at the deadline."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            return None, None
        time.sleep(0.01)


class Bench:
    """One workload, the CLI commands run on it, and the checks of their
    outputs.

    Untraced timing runs every command on every shard of the workload (a
    top-level directory, or the single monolith file) in rounds.  The time
    of a command is the sum over shards of the shard's median time at
    reference speed (see ``REFERENCE_LOOP_S``), so a slow spell on a shared
    machine spoils single samples rather than the whole figure.
    """

    def __init__(self, cli, args: argparse.Namespace) -> None:
        from checks import CheckLog
        from workloads import make_workload

        self.cli = cli
        self.args = args
        self.log = CheckLog()
        self.scale = SMOKE_SCALE[args.workload] if args.smoke else 1.0
        self.min_rounds = 1 if args.smoke or args.trace else 2
        self.make_workload = make_workload
        self.workload = make_workload(args.workload, Path("input"), args.seed,
                                      self.scale)
        self.samples = {command: {shard: [] for shard in self.workload.shards}
                        for command in COMMANDS}
        self.loops: list[float] = []  # reference loop times, in order
        self.rounds = 0
        self.expected: dict[tuple[str, str], tuple[int, str]] = {}
        self.written: dict[str, str] = {}
        self.reference_copy: Path | None = None
        self.copies = 0

    # -- running the CLI -----------------------------------------------------

    def invoke(self, argv: list[str]) -> tuple[int, str, float]:
        """``cli.main(argv)`` with stdout and stderr captured; returns the
        exit code, stdout and wall seconds."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            code = self.cli.main(argv)
            seconds = perf_counter() - start
        return code, out.getvalue(), seconds

    def fresh_copy(self) -> Path:
        self.copies += 1
        copy = Path(f"write_{self.copies}")
        shutil.copytree(self.workload.root, copy)
        return copy

    def read_tree(self, root: Path) -> dict[str, str]:
        return {rel: (root / rel).read_text(encoding="utf-8")
                for rel in self.workload.files}

    def round(self) -> float:
        """Every command once on every shard, untraced; ``fmt --write``
        works on a fresh copy made beforehand.  The first round's outputs
        are the ones checked; later rounds must reproduce them.  Returns
        the seconds spent inside the CLI."""
        copy = self.fresh_copy()
        spent = 0.0
        self.loops.append(reference_loop())
        for shard in self.workload.shards:
            for command in COMMANDS:
                target = (copy if command == "fmt_write"
                          else self.workload.root) / shard
                gc.collect()  # each sample starts from the same heap state
                code, out, seconds = self.invoke(_argv(command, target))
                spent += seconds
                self.samples[command][shard].append(
                    (seconds, len(self.loops)))
                self.loops.append(reference_loop())
                if command == "fmt_write":
                    self.log.record("fmt_write_exit", str(target), code == 0,
                                    f"exit {code}")
                elif self.rounds == 0:
                    self.expected[command, shard] = (code, out)
                else:
                    self.log.record(f"repeat.{command}", str(target),
                                    (code, out) == self.expected[command,
                                                                 shard],
                                    "output differs from the first round")
        written = self.read_tree(copy)
        if self.rounds == 0:
            self.written = written
            self.reference_copy = copy
        else:
            self.log.record("repeat.fmt_write", str(copy),
                            written == self.written,
                            "written files differ from the first round")
            shutil.rmtree(copy)
        self.rounds += 1
        return spent

    def at_reference_speed(self, seconds: float, after: int) -> float:
        """Rescale a sample taken just before reference loop ``after`` by
        the median of the six loops around it."""
        window = self.loops[max(0, after - 3):after + 3]
        return seconds * REFERENCE_LOOP_S / _median(window)

    def another_round(self, done: int, spent: float) -> bool:
        """Rounds go on to ``min_rounds``, then while one more round of
        average length still fits in ``--seconds``."""
        if done < self.min_rounds:
            return True
        return not self.args.smoke \
            and spent + spent / done <= self.args.seconds

    # -- correctness ---------------------------------------------------------

    def check_outputs(self, rss: bool) -> tuple[str, float]:
        """Check every output of the first round and return the behaviour
        fingerprint and, when ``rss`` is set, the peak RSS in MB of a child
        process running ``check --format json`` on the whole workload.
        The child processes run while the in-process checks do; nothing is
        timed meanwhile."""
        from checks import (check_file, check_plants, fingerprint,
                            relative_check_json)

        root = self.workload.root
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        children = {"fmt_check_after_write": _spawn(
            "fmt", "--check", str(self.reference_copy))}
        if rss:
            children["rss"] = _spawn("check", "--format", "json", str(root))
        try:
            diagnostics = []
            for shard in self.workload.shards:
                diagnostics += relative_check_json(
                    self.expected["check", shard][1], root)
            diagnostics.sort(key=lambda d: (d["path"], d["line"], d["col"],
                                            d["rule"]))
            by_file: dict[str, list[dict]] = {}
            for diag in diagnostics:
                by_file.setdefault(diag["path"], []).append(diag)
            for rel in self.workload.files:
                text = (root / rel).read_text(encoding="utf-8")
                check_file(self.log, rel, text, self.written[rel],
                           by_file.get(rel, []))
            check_plants(self.log, self.workload.plants, diagnostics)
        finally:
            results = {name: _reap(proc, deadline)
                       for name, proc in children.items()}
        code = results["fmt_check_after_write"][0]
        self.log.record("fmt_check_after_write", str(self.reference_copy),
                        code == 0, f"exit {code}")
        shutil.rmtree(self.reference_copy)
        peak_mb = 0.0
        if rss:
            code, usage = results["rss"]
            expected = max(self.expected["check", shard][0]
                           for shard in self.workload.shards)
            self.log.record("rss_child_exit", str(root), code == expected,
                            f"exit {code}")
            peak_mb = usage.ru_maxrss / 1024.0 if usage else 0.0
        return fingerprint(diagnostics, self.written), peak_mb

    # -- end-to-end ----------------------------------------------------------

    def setup_seconds(self) -> list[float]:
        spawns = 2 if self.args.smoke else SETUP_SPAWNS
        times = []
        for index in range(spawns + 1):
            done = subprocess.run(
                [sys.executable, "-c", SETUP_CODE], env=_child_env(),
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                check=True)
            before, seconds, after = map(
                float, done.stdout.strip().splitlines()[-1].split())
            if index:  # the first spawn warms the bytecode cache
                times.append(seconds * REFERENCE_LOOP_S * 2 / (before + after))
        return times

    def end_to_end(self, setup: list[float], spent: float,
                   peak_mb: float) -> dict[str, tuple[float, str]]:
        while self.another_round(self.rounds, spent):
            spent += self.round()
        lines = self.workload.lines
        print(f"setup_s: median of {len(setup)} child processes, "
              f"quartiles {_quartiles(setup)} s")
        metrics = {"setup_s": (_median(setup), "s")}
        for command in COMMANDS:
            shards = self.samples[command].values()
            seconds = sum(_median([self.at_reference_speed(*sample)
                                   for sample in samples])
                          for samples in shards)
            wall = sum(_median([t for t, _ in samples]) for samples in shards)
            print(f"{command}: {seconds:.4f} s at reference speed "
                  f"({wall:.4f} s wall) = sum over "
                  f"{len(self.workload.shards)} shards of the median of "
                  f"{self.rounds} rounds; {lines} lines")
            metrics[f"{command}_lines_per_s"] = (lines / seconds, "1/s")
        metrics["peak_rss_mb"] = (peak_mb, "MB")
        return metrics

    # -- per-layer -----------------------------------------------------------

    def traced_pass(self, tracer, root: Path, write: bool) -> dict:
        """Traced ``check``, ``fmt --check`` and optionally ``fmt --write``
        on ``root``; returns the summaries of each command's spans."""
        from spans import Summary

        targets = {"check": root, "fmt_check": root}
        if write:
            targets["fmt_write"] = self.fresh_copy()
        summaries = {}
        with tracer:
            for command, target in targets.items():
                first = len(tracer.spans)
                self.invoke(_argv(command, target))
                summaries[command] = Summary(tracer.spans, first,
                                             len(tracer.spans))
        if write:
            shutil.rmtree(targets["fmt_write"])
        return summaries

    def per_layer(self) -> dict[str, tuple[float, str]]:
        from spans import Tracer

        tracer = Tracer()
        rounds: list[dict[str, float]] = []
        untraced: list[float] = []
        spent = 0.0
        while self.another_round(len(rounds), spent):
            start = perf_counter()
            untraced.append(
                self.invoke(_argv("check", self.workload.root))[2])
            summaries = self.traced_pass(tracer, self.workload.root, True)
            rounds.append(layer_metrics(summaries))
            spent += perf_counter() - start
        full = {name: _median([r[name] for r in rounds]) for name in rounds[0]}
        untraced_s = _median(untraced)
        full["cli.overhead_s"] = untraced_s - full.pop("_layers_s")
        full["trace.overhead_s"] = full.pop("_traced_check_s") - untraced_s

        sweep = {}
        for scale in SWEEP_SCALES:
            root = Path(f"sweep_{scale}")
            sized = self.make_workload(self.args.workload, root,
                                       self.args.seed, self.scale * scale)
            repeats = 1 if self.args.smoke or scale > 1 else 4
            samples = [layer_metrics(self.traced_pass(tracer, root, False))
                       for _ in range(repeats)]
            sweep[scale] = ({name: _median([s[name] for s in samples])
                             for name in GROWTH_METRICS}, sized.lines)
            shutil.rmtree(root)

        print(f"per-layer: median of {len(rounds)} traced rounds; "
              f"{self.workload.lines} lines")
        small, large = SWEEP_SCALES
        print(f"{'s/line at scale':<24}{small:>11}{1:>11}{large:>11}"
              f"{'growth':>9}")
        for name in GROWTH_METRICS:
            per_line = [_ratio(sweep[small][0][name], sweep[small][1]),
                        _ratio(full[name], self.workload.lines),
                        _ratio(sweep[large][0][name], sweep[large][1])]
            full[f"{name}.growth"] = _ratio(per_line[2], per_line[0])
            print(f"{name:<24}" + "".join(f"{v:>11.3e}" for v in per_line)
                  + f"{full[f'{name}.growth']:>9.2f}")
        print("cli.overhead_s is derived: untraced check wall time minus "
              "the traced load, scan, read, run and render")

        trace_path = ROOT / ".perfbench" / (
            f"trace-{self.args.workload}-{self.args.seed}.json")
        tracer.dump(trace_path, _header(self.args))
        print(f"spans written to {trace_path.relative_to(ROOT)}")
        return {name: (value, _unit(name)) for name, value in full.items()}


def layer_metrics(summaries: dict) -> dict:
    """Per-layer metrics of one traced pass (seconds are per pass), plus
    ``_layers_s`` and ``_traced_check_s`` from which the overheads are
    derived."""
    check = summaries["check"]
    total, own = check.total, check.self_time
    family_diags = {f: check.count(f) for f in FAMILIES}
    fmt = summaries["fmt_check"]
    changed = fmt.counts["formatter.changed"]
    scan_s = total["source_model.scan"]
    metrics = {
        "source_model.load_s": total["source_model.load"],
        "source_model.scan_s": scan_s,
        "source_model.tokens": check.count("source_model.scan"),
        "source_model.tokens_per_s":
            _ratio(check.count("source_model.scan"), scan_s),
        "reader.parse_s": own["reader.read"],
        "reader.attach_s": total["reader.attach"],
        "reader.group_s": total["reader.group"],
        "reader.clauses": check.count("reader.read", 0),
        "reader.comments": check.count("reader.read", 1),
        "diagnostics.filter_s": own["diagnostics.run"],
        "diagnostics.kept_share": _ratio(check.count("diagnostics.run"),
                                         sum(family_diags.values())),
        "diagnostics.render_s": total["diagnostics.render"],
        "formatter.s": fmt.total["formatter"],
        "formatter.bytes": fmt.count("formatter"),
        "formatter.changed_share": _ratio(sum(changed), len(changed)),
        "cli.expand_s": total["cli.expand"],
    }
    for family in FAMILIES:
        metrics[f"{family}.s"] = own[family]
        metrics[f"{family}.diags"] = family_diags[family]
    metrics["_layers_s"] = sum(total[name] for name in (
        "source_model.load", "source_model.scan", "reader.read",
        "diagnostics.run", "diagnostics.render"))
    metrics["_traced_check_s"] = total["cli.main"]
    if "fmt_write" in summaries:
        metrics["cli.write_s"] = summaries["fmt_write"].total["cli.write"]
    return metrics


def _unit(name: str) -> str:
    if name.endswith(("_share", ".growth")):
        return "ratio"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return "n/a"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4f}..{q3:.4f}"


def _header(args: argparse.Namespace) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "command": shlex.join([sys.executable] + sys.argv),
    }


def _recorded_fingerprint(workload: str, seed: int) -> str | None:
    baseline = HERE / "baseline.json"
    if not baseline.is_file():
        return None
    recorded = json.loads(baseline.read_text(encoding="utf-8"))
    return recorded.get("fingerprints", {}).get(workload, {}).get(str(seed))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(SMOKE_SCALE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload, one round")
    args = parser.parse_args(argv)
    cli = _bootstrap()

    header = _header(args)
    print("# " + " ".join(f"{k}={v}" for k, v in header.items()))
    work = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    previous = os.getcwd()
    os.chdir(work)  # relative paths keep outputs independent of the checkout
    try:
        bench = Bench(cli, args)
        print(f"workload {args.workload}: {len(bench.workload.files)} files, "
              f"{bench.workload.lines} lines, "
              f"{len(bench.workload.plants)} planted defects")
        setup = [] if args.trace else bench.setup_seconds()
        spent = bench.round()
        digest, peak_mb = bench.check_outputs(rss=not args.trace)
        metrics = bench.per_layer() if args.trace \
            else bench.end_to_end(setup, spent, peak_mb)
    finally:
        os.chdir(previous)
        shutil.rmtree(work, ignore_errors=True)

    recorded = None if args.smoke \
        else _recorded_fingerprint(args.workload, args.seed)
    verdict = ("smoke size, not compared" if args.smoke
               else "no recorded fingerprint for this seed" if recorded is None
               else "matches the recorded one" if recorded == digest
               else f"DIFFERS from the recorded {recorded}")
    print(f"fingerprint {args.workload} seed {args.seed}: {digest} "
          f"({verdict})")
    log = bench.log
    for failure in log.failures[:50]:
        print(f"FAILED {failure}")
    failed = len(log.failures)
    print(f"failed_share: {_ratio(failed, log.attempted):.4f} "
          f"({failed} of {log.attempted} checks)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": log.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
