"""Command-line front end.

Subcommands: table4 (latency grid), table5 (revisit savings), privacy
(tracking matrix), run (scripted scenario config). Every command writes a
deterministic report into the output directory and exits 0 only if all of
the report's checks pass. FOPSIM_OUT overrides the default output
directory.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import partial
from pathlib import Path

from . import report as report_mod
from .capture import write_capture
from .config import load_config
from .experiments import (
    EXPECTED_VERDICTS,
    PRIVACY_SCENARIOS,
    REFERENCE_N_SECONDARY,
    REFERENCE_RTT_MS,
    RevisitFailureModel,
    run_privacy_matrix,
    table4_grid,
    table5_analytic,
    table5_montecarlo,
)
from .experiments.reference import (
    REFERENCE_TABLE4_MS,
    REFERENCE_TABLE5,
    TABLE5_TOLERANCES,
)
from .experiments.table4 import RTT_COUNTS
from .experiments.table5 import binomial_tail
from .rngtools import SeedTree
from .scenario import run_scenario
from .simcore import SimulationError
from .transport import TcpVariant

__all__ = ["main", "cmd_table4", "cmd_table5", "cmd_privacy", "cmd_run"]

# A Monte Carlo count passes its check when its one-sided binomial tail is
# at least Phi(-3), the level of each side of a normal 3-sigma band.
THREE_SIGMA_TAIL = 0.5 * math.erfc(3 / math.sqrt(2))

# ---------------------------------------------------------------- table4


def cmd_table4(rtt_list: list[int] | None = None,
               variants: list[TcpVariant] | None = None,
               *, seed: int = 1) -> dict:
    rtt_list = rtt_list if rtt_list else [0, 50, 100, 150]
    variants = variants or list(TcpVariant)
    if any(rtt < 0 for rtt in rtt_list):
        raise ValueError("latencies must be >= 0")
    grid = table4_grid(rtt_list, variants, seed=seed)

    checks = []
    for row in grid["rows"]:
        rtt = row["rtt_ms"]
        for name, cell in row["variants"].items():
            want_i, want_r = RTT_COUNTS[TcpVariant(name)]
            checks.append(report_mod.check(
                f"rtt{rtt}_{name}_initial_3rtt",
                cell["initial_ms"] == want_i * rtt,
                f"{cell['initial_ms']} ms vs {want_i}x{rtt} ms"))
            checks.append(report_mod.check(
                f"rtt{rtt}_{name}_resumed_{want_r}rtt",
                cell["resumed_ms"] == want_r * rtt,
                f"{cell['resumed_ms']} ms vs {want_r}x{rtt} ms"))
        if "tfo" in row["variants"] and "fop" in row["variants"]:
            checks.append(report_mod.check(
                f"rtt{rtt}_tfo_equals_fop_resumed",
                row["variants"]["tfo"]["resumed_ms"]
                == row["variants"]["fop"]["resumed_ms"],
                "abbreviated resumption durations identical"))
        if rtt >= 50:
            for name in ("tfo", "fop"):
                if name in row["variants"]:
                    saving = row["variants"][name]["resumed_vs_initial_saving"]
                    checks.append(report_mod.check(
                        f"rtt{rtt}_{name}_saving_over_half",
                        saving > 0.5, f"resumed-vs-initial saving {saving:.3f}"))

    reference = {
        "published_ms": {str(k): v for k, v in REFERENCE_TABLE4_MS.items()},
        "note": ("published milliseconds include testbed CPU overhead and are "
                 "not reproduced; the simulated quantity is the RTT structure"),
    }
    return report_mod.make_report(
        "table4", seed, {"rtt_ms": rtt_list,
                         "variants": [v.value for v in variants]},
        grid, reference, checks)


# ---------------------------------------------------------------- table5


def _distribution_cell(dist) -> dict:
    return {
        "p_save0": dist.p_save0,
        "p_save1": dist.p_save1,
        "p_save2": dist.p_save2,
        "mean_delay_overhead_ms": -dist.mean_saving_ms if dist.mean_saving_ms else 0.0,
        "trials": dist.trials,
    }


def cmd_table5(probs: list[float] | None = None, *,
               rtt: int = REFERENCE_RTT_MS, trials: int = 100_000,
               revisits: int = 3, n_secondary: int = REFERENCE_N_SECONDARY,
               seed: int = 1, engine: str = "fast") -> dict:
    for name, value, low in (("trials", trials, 0), ("revisits", revisits, 1),
                             ("n_secondary", n_secondary, 0), ("rtt", rtt, 0)):
        if value < low:
            raise ValueError(f"{name} must be >= {low}")
    using_reference = not probs
    model = (RevisitFailureModel.reference() if using_reference
             else RevisitFailureModel(tuple(probs)))
    checks = []
    rows = []
    for revisit in range(1, revisits + 1):
        row = {"revisit": revisit, "p_miss": model.prob_for(revisit),
               "variants": {}}
        for variant in (TcpVariant.TFO, TcpVariant.FOP):
            analytic = table5_analytic(model, revisit, n_secondary, rtt, variant)
            cells = {"analytic": _distribution_cell(analytic)}
            total = analytic.p_save0 + analytic.p_save1 + analytic.p_save2
            checks.append(report_mod.check(
                f"r{revisit}_{variant.value}_distribution_sums_to_one",
                abs(total - 1.0) <= 1e-12, f"sum {total!r}"))
            if trials > 0:
                mc = table5_montecarlo(model, revisit, n_secondary, rtt,
                                       trials, seed, variant, engine=engine)
                cells["montecarlo"] = _distribution_cell(mc)
                for idx, (emp, exact) in enumerate(zip(mc.as_tuple(),
                                                       analytic.as_tuple())):
                    tail = binomial_tail(round(emp * trials), trials, exact)
                    checks.append(report_mod.check(
                        f"r{revisit}_{variant.value}_mc_save{idx}_within_3sigma",
                        tail >= THREE_SIGMA_TAIL,
                        f"empirical {emp:.5f} vs analytic {exact:.5f} "
                        f"(tail probability {tail:.3g}, N={trials})"))
            row["variants"][variant.value] = cells
        rows.append(row)

    reference: dict = {}
    if using_reference and rtt == REFERENCE_RTT_MS and n_secondary == REFERENCE_N_SECONDARY:
        reference = {"published_cells": {
            str(r): {v: list(vals) for v, vals in cols.items()}
            for r, cols in REFERENCE_TABLE5.items()}}
        tol_p = TABLE5_TOLERANCES["probability"]
        tol_m = TABLE5_TOLERANCES["mean_ms"]
        for row in rows:
            ref = REFERENCE_TABLE5.get(row["revisit"])
            if ref is None:
                continue
            for variant, (r0, r1, r2, rmean) in ref.items():
                cell = row["variants"][variant]["analytic"]
                got = (cell["p_save0"], cell["p_save1"], cell["p_save2"])
                if variant == "fop":
                    checks.append(report_mod.check(
                        f"r{row['revisit']}_fop_cells_exact",
                        got == (r0, r1, r2)
                        and cell["mean_delay_overhead_ms"] == rmean,
                        f"{got} mean {cell['mean_delay_overhead_ms']} "
                        f"vs {(r0, r1, r2)} mean {rmean}"))
                    continue
                for idx, (g, r) in enumerate(zip(got, (r0, r1, r2))):
                    checks.append(report_mod.check(
                        f"r{row['revisit']}_{variant}_save{idx}_matches_reference",
                        abs(g - r) <= tol_p,
                        f"analytic {g:.5f} vs published {r:.3f} (tol {tol_p})"))
                checks.append(report_mod.check(
                    f"r{row['revisit']}_{variant}_mean_matches_reference",
                    abs(cell["mean_delay_overhead_ms"] - rmean) <= tol_m,
                    f"analytic {cell['mean_delay_overhead_ms']:.2f} ms vs "
                    f"published {rmean} ms (tol {tol_m} ms)"))

    params = {"probs": list(model.p_by_revisit), "rtt_ms": rtt,
              "trials": trials, "n_secondary": n_secondary, "engine": engine,
              "reference_model": using_reference}
    return report_mod.make_report("table5", seed, params, {"rows": rows},
                                  reference, checks)


# ---------------------------------------------------------------- privacy


def cmd_privacy(scenarios: list[str] | None = None,
                variants: list[TcpVariant] | None = None, *,
                seed: int = 1, outdir: Path | None = None) -> dict:
    scenarios = scenarios or sorted(PRIVACY_SCENARIOS)
    variants = variants or [TcpVariant.TFO, TcpVariant.FOP]
    for name in scenarios:
        if name not in PRIVACY_SCENARIOS:
            raise ValueError(f"unknown scenario: {name!r}")
    cells = []
    checks = []
    for name in scenarios:
        for variant in variants:
            cell = run_privacy_matrix(variant, name, seed=seed)
            cells.append(cell)
            expected = EXPECTED_VERDICTS.get(variant.value, {}).get(name)
            if expected is not None:
                checks.append(report_mod.check(
                    f"{name}_{variant.value}_verdict",
                    cell.verdict == expected,
                    f"got {cell.verdict}, expected {expected}"))
            if outdir is not None:
                write_capture(outdir / f"{name}_{variant.value}.fopcap",
                              cell.tap_packets)
    lifetimes = {c.lifetime_ms for c in cells}
    if len(lifetimes) != 1:
        raise ValueError(f"privacy configs disagree on cookie_lifetime_ms: "
                         f"{sorted(lifetimes, key=str)}")
    (lifetime,) = lifetimes
    results = {"cells": [c.to_dict() for c in cells]}
    reference = {"expected_verdicts": EXPECTED_VERDICTS}
    return report_mod.make_report(
        "privacy", seed,
        {"scenarios": scenarios, "variants": [v.value for v in variants],
         "lifetime_ms": lifetime},
        results, reference, checks)


# ------------------------------------------------------------------- run


def cmd_run(config_path, *, outdir: Path | None = None) -> dict:
    cfg = load_config(config_path)
    result = run_scenario(cfg)
    if outdir is not None:
        write_capture(outdir / "capture.fopcap", result.tap_packets)
    return report_mod.make_report(
        "run", cfg.seed, {"config": cfg.to_dict()},
        result.summary(), {}, result.checks)


# ---------------------------------------------------------------- driver


def _csv(convert):
    """An argparse type: comma-separated ``convert`` values, blanks skipped."""
    def parse(text: str) -> list:
        return [convert(x.strip()) for x in text.split(",") if x.strip()]
    parse.__name__ = f"comma-separated {convert.__name__}"  # named in errors
    return parse


def _seed(text: str) -> int:
    """An argparse type: a root seed, checked as ``SeedTree`` checks it, so
    that every command rejects it alike, one that derives no stream too."""
    seed = int(text)
    try:
        SeedTree(seed)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return seed


_seed.__name__ = "seed"  # named in errors


def _build_parser() -> argparse.ArgumentParser:
    """The command line. An option the user leaves out is left out of the
    parsed arguments, so its ``cmd_*`` function's default applies."""
    parser = argparse.ArgumentParser(
        prog="fopsim", argument_default=argparse.SUPPRESS,
        description="Deterministic laboratory for abbreviated TCP/TLS "
                    "handshakes and cookie-linkability analysis.")
    parser.add_argument("--seed", type=_seed, help="table4, table5, privacy only")
    parser.add_argument("--out", type=str, default=None,
                        help="output directory (default: $FOPSIM_OUT or ./fopsim-out)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=partial(
            argparse.ArgumentParser, argument_default=argparse.SUPPRESS))

    p4 = sub.add_parser("table4", help="connection durations across latencies")
    p4.add_argument("--latencies", dest="rtt_list", metavar="LATENCIES",
                    type=_csv(int), help="comma-separated RTT values in ms")
    p4.add_argument("--variants", type=_csv(TcpVariant))

    p5 = sub.add_parser("table5", help="revisit savings under load balancing")
    p5.add_argument("--rtt", type=int)
    p5.add_argument("--trials", type=int)
    p5.add_argument("--revisits", type=int)
    p5.add_argument("--n-secondary", type=int)
    p5.add_argument("--probs", type=_csv(float),
                    help="comma-separated per-revisit miss probabilities "
                         "(default: bundled reference model)")
    p5.add_argument("--engine", choices=("fast", "packet"))

    pp = sub.add_parser("privacy", help="tracking matrix across scenarios")
    pp.add_argument("--scenarios", type=_csv(str))
    pp.add_argument("--variants", type=_csv(TcpVariant))

    pr = sub.add_parser("run", help="execute a scenario config file")
    pr.add_argument("config_path", metavar="config", type=str)

    return parser


_COMMANDS = {"table4": cmd_table4, "table5": cmd_table5,
             "privacy": cmd_privacy, "run": cmd_run}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    kwargs = vars(parser.parse_args(argv))
    command = _COMMANDS[kwargs.pop("command")]
    out, fmt = kwargs.pop("out"), kwargs.pop("format")
    if command is cmd_run and "seed" in kwargs:
        parser.error("--seed does not apply to run: the config sets the seed")
    outdir = Path(out or os.environ.get("FOPSIM_OUT", "fopsim-out"))
    outdir.mkdir(parents=True, exist_ok=True)
    if command in (cmd_privacy, cmd_run):
        kwargs["outdir"] = outdir

    try:
        report = command(**kwargs)
    except (ValueError, SimulationError) as exc:  # a ConfigError too
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report_mod.write_json(report, outdir / "report.json")
    if fmt == "csv":
        report_mod.write_csv(report, outdir / "report.csv")

    failed = [c for c in report["checks"] if not c["passed"]]
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"[{status}] {check['name']}: {check['detail']}")
    print(f"report: {outdir / 'report.json'}"
          + (f", {outdir / 'report.csv'}" if fmt == "csv" else ""))
    print(f"{len(report['checks']) - len(failed)}/{len(report['checks'])} "
          f"checks passed")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
