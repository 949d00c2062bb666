"""The benchmark's own test: smoke mode passes, and BENCHMARK.json names
exactly the metrics the benchmark prints.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_runs_every_workload_and_passes_its_checks():
    out = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    results = [json.loads(p.read_text()) for p in
               sorted((ROOT / "perfbench" / "out").glob("*-seed1-trace*.json"))]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    assert {r["workload"] for r in results} == workloads
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for r in results:
            if r["trace"] == trace:
                got = {k: m["unit"] for k, m in r["metrics"].items()}
                assert got == want, (r["workload"], trace)
