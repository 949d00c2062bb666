#!/usr/bin/env python3
"""fopsim's benchmark: end-to-end host-time metrics, or per-layer metrics
from a traced run, for one workload.

    python3 perfbench/run.py --workload revisit_packet --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload tracking_longrun --seed 1 --trace 1
    python3 perfbench/run.py --smoke

Run it from a checkout of the repository; fopsim is imported from its
``src/``. One process and thread drive the workload in a closed loop:
the next op starts when the previous one has finished. Times are host
wall times scaled to a nominal host speed (see ``SpeedClock``); the
uncorrected wall times are printed and saved beside them. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit status is 0 only if every check
passed. Spans and a full result record go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MIN_OPS = 100        # op_ms_p90 then has at least 10 samples beyond it
SETUP_REPS = 5       # set-ups per run; setup_s reports their median
LOOP_LIMIT_S = 150   # the timed loop stops here whatever MIN_OPS says

E2E_UNITS = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
             "setup_s": "s", "peak_rss_mb": "MiB"}

# A shared host's speed drifts. On a 2-vCPU x86-64 sandbox it moved
# between states up to 1.75x apart, for seconds to minutes at a time, and
# all three workloads slowed alike. So every timed call is bracketed by a
# fixed pure-Python probe, and its wall time is scaled to the speed at
# which the probe takes PROBE_NOMINAL_S (about that sandbox's speed).
PROBE_NOMINAL_S = 0.0005


def probe() -> float:
    """Seconds the host now takes for a fixed pure-Python loop, best of 3."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        acc, table = 0, {}
        for i in range(4000):
            table[i & 255] = acc
            acc = (acc * 31 + i) & 0xFFFFFFFF
        best = min(best, perf_counter() - start)
    return best


class SpeedClock:
    """Scales wall times to the nominal host speed, using the probes taken
    just before and just after each timed call."""

    def __init__(self):
        self.before = probe()
        self.probes = [self.before]

    def correct(self, wall: float) -> float:
        """``wall`` seconds, just measured, at the nominal host speed."""
        after = probe()
        self.probes.append(after)
        scaled = wall * 2 * PROBE_NOMINAL_S / (self.before + after)
        self.before = after
        return scaled


# What a user pays to import the fopsim modules a workload uses; timed in
# a fresh interpreter, since a process imports a module only once.
IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); "
                "import fopsim, fopsim.capture, fopsim.config, "
                "fopsim.experiments, fopsim.scenario; "
                "print(time.perf_counter() - t)")


def import_fopsim() -> None:
    """Import fopsim from this checkout's sources."""
    if not (SRC / "fopsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fopsim sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import fopsim
    if Path(fopsim.__file__).resolve().parent != (SRC / "fopsim").resolve():
        raise SystemExit(f"perfbench: imported fopsim from {fopsim.__file__}, "
                         f"not from {SRC}")


def import_seconds() -> float:
    done = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout)


def unit_of(metric: str) -> str:
    if metric in E2E_UNITS:
        return E2E_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric == "capture.bytes":
        return "bytes"
    return "count"


def run_record() -> dict:
    """The machine and software a result was measured with."""
    import cryptography
    import numpy
    from fopsim import kernels
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "cryptography": cryptography.__version__,
            "kernels_backend": kernels.backend_name(), "src_lines": src_lines}


def set_up(cls, seed: int, smoke: bool, workdir: str, failures: list):
    """Import fopsim, build the workload and run one warm-up op; as often
    as SETUP_REPS says, once in smoke mode."""
    clock, walls, samples = SpeedClock(), [], []
    for rep in range(1 if smoke else SETUP_REPS):
        imported = import_seconds()
        start = perf_counter()
        workload = cls(seed, smoke, workdir)
        run_op(workload, workload.make_op(-1 - rep), failures, "warm-up op")
        walls.append(imported + perf_counter() - start)
        samples.append(clock.correct(walls[-1]))
    return workload, statistics.median(samples), statistics.median(walls)


def run_op(workload, op, failures: list, kind: str = "op"):
    try:
        return workload.run(op)
    except Exception as exc:  # a failed op is counted, and the run goes on
        failures.append(f"{kind} {op.index}: {type(exc).__name__}: {exc}")
        return None


def op_metrics(times: list[float], completed: int) -> dict:
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return {"ops_per_s": completed / sum(times),
            "op_ms_p50": 1000 * statistics.median(times),
            "op_ms_p90": 1000 * deciles[8]}


def measure(workload, seconds: float, min_ops: int) -> dict:
    """Closed loop: ops until ``seconds`` have passed and ``min_ops`` ran."""
    clock, walls, times, failures = SpeedClock(), [], [], []
    start = perf_counter()
    index = 0
    while True:
        elapsed = perf_counter() - start
        if (index >= min_ops and elapsed >= seconds) or elapsed >= LOOP_LIMIT_S:
            break
        op = workload.make_op(index)
        t0 = perf_counter()
        run_op(workload, op, failures)
        walls.append(perf_counter() - t0)
        times.append(clock.correct(walls[-1]))
        index += 1
    completed = index - len(failures)
    return {"attempted": index, "failures": failures,
            "metrics": op_metrics(times, completed),
            "wall": op_metrics(walls, completed),
            "probe_ms_p50": 1000 * statistics.median(clock.probes)}


def measure_traced(workload, cls, seed: int, smoke: bool, workdir: str) -> dict:
    """Run the workload's fixed traced ops untraced, then traced by a fresh
    instance, and derive the per-layer metrics from the second pass."""
    import spans
    ops = [workload.make_op(i) for i in range(workload.trace_ops)]
    failures: list[str] = []
    clock = SpeedClock()
    start = perf_counter()
    plain = [run_op(workload, op, failures) for op in ops]
    plain_s = clock.correct(perf_counter() - start)

    traced_workload = cls(seed, smoke, workdir)
    tracer, public, lines = spans.Tracer(), Counter(), []
    with spans.instrument(tracer):
        start = perf_counter()
        for op in ops:
            tracer.op = op.index
            outcome = run_op(traced_workload, op, failures)
            spans.tally_op(tracer, public, outcome.public if outcome else {})
            lines.append(outcome.line if outcome else "failed")
        traced_s = clock.correct(perf_counter() - start)
    failures += traced_workload.finish()

    if [o.line if o else "failed" for o in plain] != lines:
        failures.append("the traced pass gave other outputs than the untraced one")
    failures += spans.coverage_problems(tracer, public, len(ops),
                                        workload.worlds_per_op)
    metrics = spans.layer_metrics(tracer, public)
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    OUT.mkdir(exist_ok=True)
    tracer.write(str(OUT / f"spans-{workload.name}-seed{seed}.jsonl"))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    return {"attempted": 2 * len(ops), "failures": failures, "metrics": metrics,
            "digest": digest, "traced_ops": len(ops)}


def run_workload(cls, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        warm_up_failures: list[str] = []
        workload, setup_s, setup_wall = set_up(cls, seed, smoke, workdir,
                                               warm_up_failures)
        if trace:
            result = measure_traced(workload, cls, seed, smoke, workdir)
        else:
            result = measure(workload, seconds,
                             workload.trace_ops if smoke else MIN_OPS)
            result["failures"] += workload.finish()
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result["metrics"].update(setup_s=setup_s,
                                     peak_rss_mb=rss_kib / 1024)
            result["wall"]["setup_s"] = setup_wall
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["failures"] = warm_up_failures + result["failures"]
    result["workload"] = cls.name
    return result


def result_line(result: dict) -> dict:
    ops_failed = sum(f.startswith("op ") for f in result["failures"])
    return {"correct": not result["failures"], "attempted": result["attempted"],
            "failed": ops_failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)}
                        for k, v in result["metrics"].items()}}


def report(result: dict, record: dict, seed: int, trace: bool) -> dict:
    for failure in result["failures"]:
        print(f"FAILED {result['workload']}: {failure}")
    line = result_line(result)
    full = dict(line, workload=result["workload"], seed=seed, trace=int(trace),
                record=record, failures=result["failures"],
                digest=result.get("digest"), traced_ops=result.get("traced_ops"),
                wall=result.get("wall"), probe_ms_p50=result.get("probe_ms_p50"))
    path = OUT / f"{result['workload']}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")
    summary = " ".join(f"{k}={m['value']:.6g}{m['unit']}"
                       for k, m in line["metrics"].items())
    print(f"{result['workload']} seed={seed} trace={int(trace)} "
          f"digest={result.get('digest')} {summary}")
    if "wall" in result:
        print("uncorrected wall time: " + " ".join(
            f"{k}={v:.6g}" for k, v in result["wall"].items())
            + f" probe_ms_p50={result['probe_ms_p50']:.4g}")
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at minimum size, untraced and "
                             "traced, in a few seconds")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    import_fopsim()
    from workloads import WORKLOADS
    record = run_record()
    print("record " + json.dumps(record, sort_keys=True))

    if args.smoke:
        lines = [report(run_workload(cls, args.seed, 0.0, trace, True),
                        record, args.seed, trace)
                 for cls in WORKLOADS.values() for trace in (False, True)]
        line = {"correct": all(x["correct"] for x in lines),
                "attempted": sum(x["attempted"] for x in lines),
                "failed": sum(x["failed"] for x in lines), "metrics": {}}
    else:
        if args.workload not in WORKLOADS:
            parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), False)
        line = report(result, record, args.seed, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
