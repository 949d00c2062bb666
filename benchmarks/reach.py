#!/usr/bin/env python3
"""Reach ledger: which lines of ``src/fopsim`` a program path runs.

A line is executable when a code object compiled from its module holds an
instruction on it. The ledger runs ``PROGRAM_RUNS`` under a
``sys.settrace`` line tracer: every CLI command with each option class
once, ``--format csv`` on each, ``run`` on every bundled config and on a
missing file, and ``perfbench/run.py --smoke``. Then it runs the Tier-1
suite in the same process under a second tracer, and sorts each
executable line into one of:

- program: a program run ran it;
- test-only: only Tier-1 ran it;
- unreached: nothing ran it.

A line in an ``if __name__ == "__main__":`` block runs only as ``python
-m``, in a fresh interpreter that an in-process tracer cannot see. It
counts as a program line, and the ledger lists it with that reason.

The ledger prints its counts per module, then each test-only block (the
lines of one function that only Tier-1 runs), then every unreached line.
README's "Reach" section gives each test-only block's reason; a block it
does not name is flagged, and so is a name it gives that is no longer a
test-only block. It uses only the standard library, and pytest to run
Tier-1.

Usage, from the root of a checkout:
    python benchmarks/reach.py [--json FILE]

``--json`` also writes the ledger as JSON. The exit status is 0 only if
every program run and Tier-1 exited as expected, no line is unreached
and README names exactly the test-only blocks. Traced, the program runs
take about 6 s and Tier-1 about 120 s on a 2-vCPU x86-64 machine.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib.util
import io
import json
import os
import re
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "fopsim"
CONFIGS = PACKAGE / "configs"
README = ROOT / "README.md"
MAIN_GUARD = ("runs only as `python -m`, in a fresh interpreter, which an "
              "in-process tracer cannot see")

# (fopsim arguments, expected exit status); each runs with --out set to a
# scratch directory. --n-secondary 18 and 20 give 19- and 21-host cells,
# whose tallies pad their rows, and --probs 0,1 gives the constant cells,
# which draw no lanes.
PROGRAM_RUNS: tuple[tuple[tuple[str, ...], int], ...] = (
    (("table4",), 0),
    (("--format", "csv", "--seed", "3", "table4", "--latencies", "0,60",
      "--variants", "standard,fop"), 0),
    (("--format", "csv", "table5"), 0),
    (("table5", "--rtt", "40", "--trials", "2000", "--revisits", "2",
      "--n-secondary", "18", "--probs", "0.2,0.5"), 0),
    (("table5", "--n-secondary", "20", "--probs", "0,1", "--trials", "1000"),
     0),
    (("--format", "csv", "table5", "--engine", "packet", "--trials", "30"),
     0),
    (("privacy",), 0),
    (("--format", "csv", "--seed", "2", "privacy", "--scenarios",
      "restart,ip_change", "--variants", "tfo"), 0),
    *((("--format", "csv", "run", str(path)), 0)
      for path in sorted(CONFIGS.glob("*.json"))
      + sorted(CONFIGS.glob("privacy/*.json"))),
    (("run", str(CONFIGS / "no-such-config.json")), 2),
)


def executable_lines(path: Path) -> dict[int, str]:
    """Each executable line of module ``path`` -> the qualified name of the
    outermost code object with an instruction on it (a ``def`` line belongs
    to the code that runs it, not to the function it defines)."""
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines: dict[int, str] = {}
    todo = [code]
    while todo:
        co = todo.pop(0)
        for _, _, line in co.co_lines():
            if line:  # None, or 0 for a module's first instruction
                lines.setdefault(line, getattr(co, "co_qualname", co.co_name))
        todo += [c for c in co.co_consts if hasattr(c, "co_lines")]
    return lines


def main_guard_lines(path: Path) -> set[int]:
    """Lines inside module ``path``'s ``if __name__ == "__main__":``
    blocks."""
    out: set[int] = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                and isinstance(node.test.left, ast.Name)
                and node.test.left.id == "__name__"):
            for stmt in node.body:
                out.update(range(stmt.lineno, stmt.end_lineno + 1))
    return out


class LineTracer:
    """A ``sys.settrace`` tracer that records the lines it sees run in
    files under ``root``, in this thread and in threads started while it
    is on. On exit it puts back the tracers it replaced."""

    def __init__(self, root: Path):
        self.root = str(root.resolve()) + os.sep
        self.hits: set[tuple[str, int]] = set()  # (resolved path, line)
        self._files: dict[object, str | None] = {}  # code -> path or None

    def lines(self, path: Path) -> set[int]:
        """The lines of ``path`` that ran."""
        key = str(path.resolve())
        return {line for p, line in self.hits if p == key}

    def _call(self, frame, event, arg):
        code = frame.f_code
        try:
            path = self._files[code]
        except KeyError:
            resolved = str(Path(code.co_filename).resolve())
            path = resolved if resolved.startswith(self.root) else None
            self._files[code] = path
        if path is None:
            return None
        hits = self.hits

        def line(frame, event, arg):
            if event == "line":
                hits.add((path, frame.f_lineno))
            return line
        return line

    def __enter__(self) -> "LineTracer":
        self._replaced = sys.gettrace(), threading.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._replaced[0])
        threading.settrace(self._replaced[1])


def spans(lines: list[int]) -> str:
    """``[3, 4, 5, 9]`` -> ``"3-5, 9"``."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def module_ledger(path: Path, program: set[int], tests: set[int]) -> dict:
    """Sort module ``path``'s executable lines by the first thing that ran
    them: the program (the ``program`` lines, and main-guard lines, which
    only a fresh interpreter runs), else Tier-1 (``tests``), else nothing.
    Returns the counts, the test-only and the unreached lines grouped by
    the qualified name that owns them, and the main-guard lines."""
    executable = executable_lines(path)
    guard = main_guard_lines(path) & executable.keys()
    kinds: dict[str, list[int]] = {"program": [], "test_only": [],
                                   "unreached": []}
    for line in sorted(executable):
        kind = ("program" if line in program or line in guard
                else "test_only" if line in tests else "unreached")
        kinds[kind].append(line)
    out: dict = {"counts": {"executable": len(executable),
                            **{k: len(v) for k, v in kinds.items()}},
                 "main_guard": spans(sorted(guard))}
    for kind in ("test_only", "unreached"):
        owned: dict[str, list[int]] = {}
        for line in kinds[kind]:
            owned.setdefault(executable[line], []).append(line)
        out[kind] = {name: spans(lines) for name, lines in owned.items()}
    return out


def ledger(program: LineTracer, tests: LineTracer) -> dict:
    """Counts per module and in total, and every test-only block,
    unreached line and main-guard line of ``src/fopsim``, named
    ``module:qualname``, from the lines the two tracers saw."""
    data: dict = {"modules": {}, "total": dict.fromkeys(
        ("executable", "program", "test_only", "unreached"), 0),
        "main_guard": {}, "test_only": {}, "unreached": {}}
    for path in sorted(PACKAGE.rglob("*.py")):
        name = path.relative_to(PACKAGE).as_posix()
        module = module_ledger(path, program.lines(path), tests.lines(path))
        data["modules"][name] = module["counts"]
        for kind, n in module["counts"].items():
            data["total"][kind] += n
        if module["main_guard"]:
            data["main_guard"][f"{name}:{module['main_guard']}"] = MAIN_GUARD
        for kind in ("test_only", "unreached"):
            data[kind].update((f"{name}:{qualname}", lines)
                              for qualname, lines in module[kind].items())
    return data


def run_program(outdir: str) -> list[str]:
    """Run each of ``PROGRAM_RUNS``, then ``perfbench/run.py --smoke``, in
    this process; returns one problem per run that exited other than
    expected."""
    from fopsim import cli

    problems = []
    for args, want in PROGRAM_RUNS:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            status = cli.main(["--out", outdir, *args])
        if status != want:
            problems.append(f"fopsim {' '.join(args)} exited {status}, "
                            f"not {want}: {err.getvalue().strip()}")
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    perfbench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perfbench)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        status = perfbench.main(["--smoke"])
    if status != 0:
        problems.append(f"perfbench/run.py --smoke exited {status}:\n"
                        f"{out.getvalue()}")
    return problems


def run_tier1() -> list[str]:
    """Run the Tier-1 suite in this process, from the checkout's root."""
    import pytest

    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors"])
    finally:
        os.chdir(cwd)
    return [] if status == 0 else [f"Tier-1 exited {int(status)}"]


def readme_reach_section() -> str:
    """README's "Reach" section: from its heading to the next heading."""
    match = re.search(r"^#+ Reach\b.*?(?=^#)",
                      README.read_text(encoding="utf-8"), re.M | re.S)
    return match.group(0) if match else ""


def render(data: dict) -> str:
    width = max(map(len, data["modules"]))
    rows = [f"{'module':<{width}}  executable  program  test-only  unreached"]
    for name, c in [*data["modules"].items(), ("total", data["total"])]:
        rows.append(f"{name:<{width}}  {c['executable']:>10}  {c['program']:>7}"
                    f"  {c['test_only']:>9}  {c['unreached']:>9}")
    for title, entries in (("program lines run only as python -m",
                            data["main_guard"]),
                           ("test-only blocks", data["test_only"]),
                           ("unreached lines", data["unreached"])):
        rows.append(f"\n{title} ({len(entries)}):")
        rows += [f"  {key}  {value}" for key, value in entries.items()]
    for title, keys in (("test-only blocks README's Reach section does not "
                         "name", data["unlisted"]),
                        ("README names these, which are not test-only "
                         "blocks", data["stale"])):
        if keys:
            rows.append(f"\n{title}:")
            rows += [f"  {key}" for key in keys]
    for problem in data["problems"]:
        rows.append(f"PROBLEM: {problem}")
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", type=Path, help="also write the ledger here")
    args = parser.parse_args(argv)

    # this process imports fopsim from the checkout, and so does any
    # interpreter a program run or a test starts
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT / "perfbench"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    with tempfile.TemporaryDirectory() as outdir:
        with LineTracer(PACKAGE) as program:
            problems = run_program(outdir)
    with LineTracer(PACKAGE) as tests:
        problems += run_tier1()

    data = ledger(program, tests)
    named = set(re.findall(r"`([\w/]+\.py:[\w.<>]+)`",
                           readme_reach_section()))
    data["unlisted"] = sorted(data["test_only"].keys() - named)
    data["stale"] = sorted(named - data["test_only"].keys())
    data["problems"] = problems
    print(render(data))
    if args.json:
        args.json.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    ok = not (problems or data["unlisted"] or data["stale"]
              or data["total"]["unreached"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
