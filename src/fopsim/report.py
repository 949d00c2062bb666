"""Machine-readable experiment reports.

Reports are plain dicts with a stable envelope (command, seed, params,
results, reference, checks, passed). JSON output is byte-deterministic
for a fixed report; CSV output uses fixed column orders per command.
"""

from __future__ import annotations

import csv
import json

__all__ = ["check", "make_report", "report_json", "write_json", "write_csv"]


def check(name: str, passed: bool, detail: str) -> dict:
    """One named pass/fail entry of a report's ``checks`` list."""
    return {"name": name, "passed": bool(passed), "detail": detail}


def make_report(command: str, seed: int, params: dict, results: dict,
                reference: dict, checks: list[dict]) -> dict:
    return {
        "command": command,
        "seed": seed,
        "params": params,
        "results": results,
        "reference": reference,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def report_json(report: dict) -> bytes:
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode("utf-8")


def write_json(report: dict, path) -> None:
    with open(path, "wb") as fh:
        fh.write(report_json(report))


def write_csv(report: dict, path) -> None:
    command = report["command"]
    if command == "table4":
        header = ["rtt_ms", "variant", "initial_ms", "resumed_ms",
                  "resumed_vs_initial_saving"]
        rows = []
        for row in report["results"]["rows"]:
            for variant, cell in row["variants"].items():
                rows.append([row["rtt_ms"], variant, cell["initial_ms"],
                             cell["resumed_ms"],
                             f"{cell['resumed_vs_initial_saving']:.6f}"])
    elif command == "table5":
        header = ["revisit", "variant", "kind", "p_save0", "p_save1",
                  "p_save2", "mean_delay_overhead_ms"]
        rows = []
        for row in report["results"]["rows"]:
            for variant, cells in row["variants"].items():
                for kind in ("analytic", "montecarlo"):
                    cell = cells.get(kind)
                    if cell is None:
                        continue
                    rows.append([row["revisit"], variant, kind,
                                 f"{cell['p_save0']:.6f}",
                                 f"{cell['p_save1']:.6f}",
                                 f"{cell['p_save2']:.6f}",
                                 f"{cell['mean_delay_overhead_ms']:.4f}"])
    elif command == "privacy":
        header = ["scenario", "variant", "adversary", "verdict", "cross_links"]
        rows = [[c["scenario"], c["variant"], c["adversary"], c["verdict"],
                 c["cross_links"]] for c in report["results"]["cells"]]
    elif command == "run":
        header = ["check", "passed", "detail"]
        rows = [[c["name"], c["passed"], c["detail"]]
                for c in report["checks"]]
    else:
        raise ValueError(f"no CSV writer for command {command!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
