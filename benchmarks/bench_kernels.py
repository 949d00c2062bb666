#!/usr/bin/env python3
"""Benchmark the fast Monte Carlo engine: drawing vs tallying.

Runs the fast engine's loop by hand: draw one block of 32-bit draws
(``table5.draw_block_rows`` trials, two draws per raw PCG64 output) with
``rngtools.random_uint32``, then count it with ``kernels.tally_savings``
against ``table5.hit_threshold``. Both phases are timed per 1M trials,
and the tally also per block and as a share of the draw
(``tally_over_draw``, tally time over draw time). The kernel folds a
row's miss flags four hosts to a 32-bit word, so the default 20-host row
needs no padding; pass ``--hosts 19`` or ``--hosts 21`` to time a padded
row. By default it times two hit probabilities: the reference 0.607
and 1.0, a miss probability of 0, whose threshold is 2^32. Every block
is also counted by the plain numpy reference tally, outside the timed
phases, and the totals must agree.

Usage:
    python benchmarks/bench_kernels.py
    python benchmarks/bench_kernels.py --trials 1000000 --hosts 20
    python benchmarks/bench_kernels.py --q 0.607 0.5 1.0
    python benchmarks/bench_kernels.py --output results.json
"""

import argparse
import json
import time

import numpy as np

from fopsim import kernels
from fopsim.experiments.table5 import draw_block_rows, hit_threshold
from fopsim.rngtools import random_uint32


def reference_tally(draws, threshold):
    hit = draws < threshold
    saved = hit[:, 0].astype(np.int64) + hit[:, 1:].all(axis=1)
    return np.bincount(saved, minlength=3)


def run_once(trials, hosts, q, seed):
    """Seconds spent drawing and tallying ``trials`` trials, and counts."""
    rng = np.random.default_rng(seed)
    rows = draw_block_rows(hosts)
    threshold = hit_threshold(1.0 - q)
    draw_s = tally_s = 0.0
    counts = np.zeros(3, dtype=np.int64)
    expected = np.zeros(3, dtype=np.int64)
    for start in range(0, trials, rows):
        n = min(rows, trials - start)
        t0 = time.perf_counter()
        draws = random_uint32(rng, n * hosts).reshape(n, hosts)
        t1 = time.perf_counter()
        counts += kernels.tally_savings(draws, threshold)
        t2 = time.perf_counter()
        draw_s += t1 - t0
        tally_s += t2 - t1
        expected += reference_tally(draws, threshold)
        del draws
    if not np.array_equal(counts, expected):
        raise AssertionError(f"kernel counted {counts.tolist()}, "
                             f"reference {expected.tolist()}")
    return draw_s, tally_s, counts.tolist()


def run(trials, hosts, q, repeats, seed=1234):
    draw_s = tally_s = float("inf")
    for _ in range(repeats):
        d, t, counts = run_once(trials, hosts, q, seed)
        draw_s, tally_s = min(draw_s, d), min(tally_s, t)
    per_m = 1e6 / trials
    block_rows = min(trials, draw_block_rows(hosts))
    row = {"trials": trials, "hosts": hosts, "q": q,
           "block_rows": block_rows,
           "draw_ms_per_mtrial": draw_s * per_m * 1e3,
           "tally_ms_per_mtrial": tally_s * per_m * 1e3,
           "tally_ms_per_block": tally_s * block_rows / trials * 1e3,
           "tally_over_draw": tally_s / draw_s,
           "tally": counts}
    print(f"{'trials':>10} {'hosts':>6} {'q':>6} {'draw ms/1M':>11} "
          f"{'tally ms/1M':>12} {'tally ms/block':>15} {'tally/draw':>11} "
          f"{'tally Mtrials/s':>16}")
    print(f"{trials:>10} {hosts:>6} {q:>6} {row['draw_ms_per_mtrial']:>11.1f} "
          f"{row['tally_ms_per_mtrial']:>12.1f} "
          f"{row['tally_ms_per_block']:>15.3f} "
          f"{row['tally_over_draw']:>11.2f} "
          f"{trials / tally_s / 1e6:>16.1f}")
    print(f"counts {counts} match the reference tally")
    return row


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=1_000_000)
    parser.add_argument("--hosts", type=int, default=20,
                        help="primary plus secondaries per trial")
    parser.add_argument("--q", type=float, nargs="+", default=[0.607, 1.0],
                        help="per-host hit probabilities, timed in turn")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--output", type=str, default=None,
                        help="write timings as JSON")
    args = parser.parse_args()

    rows = [run(args.trials, args.hosts, q, args.repeats) for q in args.q]
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2)
        print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
