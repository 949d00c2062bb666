#!/usr/bin/env python3
"""Write one point of fopsim's BENCH trajectory: ``BENCH_<pr>.json``.

The file holds the size of ``src/fopsim`` (Python lines, and parameters
or class-body fields that take a default), the wall time of the Tier-1
suite, the wall time of each CLI command (see ``CLI_COMMANDS``), the
number of random streams one packet-engine Table 5 trial derives, the
peak RSS of a process that runs one 3200-visit ``tracking_longrun``
scenario, the size of that run's summary as JSON and the peak RSS of a
process that also writes it, the exact work counts of
``work_counts.py``'s cases (the counts ``tests/test_work.py`` pins), the
layer micro-benchmarks' figures (see
``LAYER_BENCHES``) beside the median of perfbench's speed probe, the
reach ledger's line counts (``reach.py``: executable, program, test-only
and unreached lines per module and in total), and the corrected
``--trace 0`` end-to-end medians of every perfbench workload, with
perfbench's record of the machine.

Usage, from the root of a checkout:
    python benchmarks/record.py --pr N

Each workload runs once per seed in ``SEEDS``, for ``SECONDS`` each,
one after another; a run whose checks fail stops the script. Each CLI
command runs once, in a fresh interpreter, with its default seed; one
that exits other than 0 stops the script. The run count, length and
seeds are fixed so that every point of the trajectory is measured the
same way. Each layer micro-benchmark runs once, in a fresh interpreter,
with its default arguments.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fopsim"
WORKLOADS = ("revisit_packet", "tracking_longrun", "revisit_fast")
E2E_METRICS = ("ops_per_s", "op_ms_p50", "op_ms_p90", "setup_s", "peak_rss_mb")
SEEDS = (1, 2, 3)
SECONDS = 30.0
CONFIGS = PACKAGE / "configs"
# name -> arguments of ``fopsim``: the default table commands, ``run`` on
# every bundled config, the fast engine's Table 5 at 1M trials a cell and
# the packet engine's Table 5
CLI_COMMANDS = {
    "table4": ["table4"],
    "table5": ["table5"],
    "table5 --trials 1000000": ["table5", "--trials", "1000000"],
    "privacy": ["privacy"],
    **{f"run {path.relative_to(CONFIGS).as_posix()}": ["run", str(path)]
       for path in sorted(CONFIGS.glob("*.json"))
       + sorted(CONFIGS.glob("privacy/*.json"))},
    "table5 --engine packet --trials 30": ["table5", "--engine", "packet",
                                           "--trials", "30"],
}


def sources() -> list[Path]:
    return sorted(PACKAGE.rglob("*.py"))


def line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sources())


def defaulted_parameters() -> int:
    """Function and lambda parameters with a default, plus annotated
    class-body fields with a value (dataclass fields with a default)."""
    count = 0
    for path in sources():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef):
                count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                             for s in node.body)
    return count


def src_env() -> dict:
    """The environment, with this checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def tier1() -> dict:
    """Wall time and summary line of the Tier-1 suite."""
    env = src_env()
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    return {"wall_s": round(wall, 2), "exit_status": done.returncode,
            "summary": lines[-1] if lines else ""}


def cli_times() -> dict:
    """Wall seconds of each of ``CLI_COMMANDS``, interpreter start-up
    included."""
    env, times = src_env(), {}
    with tempfile.TemporaryDirectory() as outdir:
        for name, args in CLI_COMMANDS.items():
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, "-m", "fopsim.cli", "--out", outdir, *args],
                cwd=ROOT, env=env, capture_output=True, text=True)
            wall = time.perf_counter() - start
            if done.returncode != 0:
                raise SystemExit(f"record: fopsim {name} exited "
                                 f"{done.returncode}:\n{done.stdout}{done.stderr}")
            times[name] = round(wall, 3)
    return times


def work() -> dict:
    """``work_counts.py``'s counts of each of its cases: work that depends
    on the code alone, not on the machine."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "work_counts.py")],
        cwd=ROOT, env=src_env(), capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"record: counting work failed:\n{done.stderr}")
    return json.loads(done.stdout)


def reach() -> dict:
    """``reach.py``'s line counts per module and in total. Unreached or
    unlisted lines are recorded as counted; a program run or Tier-1 that
    failed under the tracer stops the script."""
    with tempfile.TemporaryDirectory() as outdir:
        path = Path(outdir) / "reach.json"
        done = subprocess.run(
            [sys.executable, str(ROOT / "benchmarks" / "reach.py"),
             "--json", str(path)],
            cwd=ROOT, env=src_env(), capture_output=True, text=True)
        data = (json.loads(path.read_text(encoding="utf-8"))
                if path.exists() else {"problems": [done.stderr]})
    if data["problems"]:
        raise SystemExit("record: the reach ledger failed:\n"
                         + "\n".join(data["problems"]))
    return {"modules": data["modules"], "total": data["total"]}


def packet_trial_streams(counts: dict) -> int:
    """Random streams one packet-engine Table 5 trial derives, from the
    30-trial and the one-trial tfo cells of ``work()``."""
    return ((counts["packet_30_tfo"]["streams"]
             - counts["packet_1_tfo"]["streams"]) // 29)


# runs tracking_longrun's scenario at 3200 visits (tfo, config seed 7) and
# prints the process's own peak RSS in MiB (Linux reports KiB); given the
# argument "report", it first writes the run's summary as JSON and prints
# the size of that JSON in MB
_LINKAGE_RSS = """
import json, resource, sys
sys.path.insert(0, "perfbench")
from workloads import TrackingLongrun
from fopsim.config import ScenarioConfig
from fopsim.scenario import run_scenario
from fopsim.transport import TcpVariant

workload = TrackingLongrun(1, False, ".")
workload.visits = 3200
result = run_scenario(ScenarioConfig.from_dict(
    workload.make_config(7, TcpVariant.TFO)))
if not result.passed:
    raise SystemExit(f"checks failed: {result.checks}")
if sys.argv[1:] == ["report"]:
    print(len(json.dumps(result.summary())) / 1e6)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def run_3200(*args: str) -> list[float]:
    """The figures ``_LINKAGE_RSS`` prints, run with ``args`` in a fresh
    interpreter."""
    done = subprocess.run([sys.executable, "-c", _LINKAGE_RSS, *args],
                          cwd=ROOT, env=src_env(), capture_output=True,
                          text=True)
    if done.returncode != 0:
        raise SystemExit(f"record: the 3200-visit run failed:\n{done.stderr}")
    return [float(figure) for figure in done.stdout.split()]


def linkage_3200_peak_rss_mb() -> float:
    """Peak RSS of a process that runs one 3200-visit scenario, linkage
    graphs and checks included: where quadratic linkage state shows."""
    (rss,) = run_3200()
    return round(rss, 1)


def report_3200() -> dict:
    """The size in MB of the 3200-visit scenario's summary as JSON, and the
    peak RSS of a process that runs the scenario and then writes it:
    where a quadratic report shows."""
    mb, rss = run_3200("report")
    return {"report_3200_mb": round(mb, 2),
            "report_3200_peak_rss_mb": round(rss, 1)}


# the layer micro-benchmarks under benchmarks/, each of which writes its
# rows as JSON with --output
LAYER_BENCHES = ("bench_stack", "bench_kernels")
PROBES = 5  # perfbench probe() calls before and after each micro-benchmark


def perfbench_probe():
    """perfbench's ``probe``: seconds a fixed pure-Python loop takes now."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.probe


def layers() -> dict:
    """Each of ``LAYER_BENCHES``' rows, and the median of perfbench's
    probe taken around them (``probe_s``): the host speed they were
    measured at, the figure perfbench scales its own times by."""
    probe = perfbench_probe()
    probes = [probe() for _ in range(PROBES)]
    out: dict = {}
    with tempfile.TemporaryDirectory() as outdir:
        for name in LAYER_BENCHES:
            path = Path(outdir) / f"{name}.json"
            done = subprocess.run(
                [sys.executable, str(ROOT / "benchmarks" / f"{name}.py"),
                 "--output", str(path)],
                cwd=ROOT, env=src_env(), capture_output=True, text=True)
            if done.returncode != 0:
                raise SystemExit(f"record: {name} exited {done.returncode}:\n"
                                 f"{done.stdout}{done.stderr}")
            out[name] = json.loads(path.read_text(encoding="utf-8"))
            probes += [probe() for _ in range(PROBES)]
    out["probe_s"] = statistics.median(probes)
    return out


def perfbench_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One untraced perfbench run: (machine record, metric -> value)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"record: perfbench {workload} seed {seed} failed:\n"
                         f"{done.stdout}{done.stderr}")
    record = next(json.loads(line[len("record "):]) for line in lines
                  if line.startswith("record "))
    result = json.loads(lines[-1])
    return record, {k: m["value"] for k, m in result["metrics"].items()}


def perfbench() -> dict:
    out: dict = {"runs": len(SEEDS), "seconds": SECONDS,
                 "seeds": list(SEEDS), "workloads": {}}
    for workload in WORKLOADS:
        samples = []
        for s in SEEDS:
            out["record"], metrics = perfbench_run(workload, s, SECONDS)
            samples.append(metrics)
        out["workloads"][workload] = {
            m: statistics.median(x[m] for x in samples) for m in E2E_METRICS}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True,
                        help="number in the output file name BENCH_<pr>.json")
    args = parser.parse_args(argv)

    counts = work()
    data = {"pr": args.pr, "src_lines": line_count(),
            "defaulted_parameters": defaulted_parameters(),
            "tier1": tier1(),
            "cli_wall_s": cli_times(),
            "packet_trial_streams": packet_trial_streams(counts),
            "work": counts,
            "reach": reach(),
            "linkage_3200_peak_rss_mb": linkage_3200_peak_rss_mb(),
            **report_3200(),
            "layers": layers(),
            "perfbench": perfbench()}
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(json.dumps(data, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
