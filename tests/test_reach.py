"""The reach ledger's line classifier, on a small fixture module.

``benchmarks/reach.py`` traces the whole Tier-1 suite, so Tier-1 checks
its classifier here, on a module whose every line is known, rather than
by tracing itself.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FIXTURE = '''\
"""A module with a line of each kind."""


def program(flag):
    if flag:
        return 1
    raise ValueError("a guard only a test trips")


def tested(items):
    return [item
            for item in items]


def unreached():
    return 3


if __name__ == "__main__":
    program(True)
'''


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_classifier_counts_a_fixture_module(tmp_path):
    reach = load("reach", ROOT / "benchmarks" / "reach.py")
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    with reach.LineTracer(tmp_path) as program:
        fixture = load("fixture", path)
        fixture.program(True)
    with reach.LineTracer(tmp_path) as tests:
        assert fixture.tested("ab") == ["a", "b"]
        try:
            fixture.program(False)
        except ValueError:
            pass

    assert reach.main_guard_lines(path) == {20}
    ledger = reach.module_ledger(path, program.lines(path), tests.lines(path))
    # program: the docstring, four def lines, the main guard's test and
    # body, and lines 5-6; Tier-1: line 7 and the comprehension's lines,
    # which belong to the function that runs it
    assert ledger["counts"] == {"executable": 12, "program": 8,
                                "test_only": 3, "unreached": 1}
    assert ledger["test_only"] == {"program": "7", "tested": "11-12"}
    assert ledger["unreached"] == {"unreached": "16"}
    assert ledger["main_guard"] == "20"
