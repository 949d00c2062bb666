#!/usr/bin/env python3
"""Benchmark the fast Monte Carlo engine: drawing vs tallying.

Runs the fast engine's loop by hand. ``table5.miss_blocks`` draws each
block of ``table5.draw_block_rows`` trials: it reads the block's lanes,
one byte per host and eight hosts per raw PCG64 output, and settles its
ties. Then ``kernels.tally_savings`` folds the block's miss flags. Both
phases are timed per 1M trials, and the fold also per block and as a
share of the draw (``tally_over_draw``, fold time over draw time). It
also counts the minor page faults (``ru_minflt``) of one cell's draw
and fold per 1M trials: a buffer that malloc hands back to the OS and
faults in again each block shows there. It counts them in a fresh
interpreter, on the second of two cells, since the checks below grow
the heap of this one enough to hide such faults. By default it times
19, 20 and 21 hosts: the kernel reads a 20-host row's flags in place and
first copies a 19- or 21-host block into padded rows. It times three
hit probabilities: the reference 0.607, and 0.0 and 1.0, whose
thresholds 0 and 2^32 decide every host without reading a lane. Every
block is also checked outside the timed phases against its
own reference: each host's 32-bit value, lane * 2^24 + low, rebuilt
from a second generator at the same seed, compared with the threshold
and counted by the plain numpy tally. The totals must agree, and the
draw must leave its stream where the reference leaves its own.

Usage:
    python benchmarks/bench_kernels.py
    python benchmarks/bench_kernels.py --trials 1000000 --hosts 20
    python benchmarks/bench_kernels.py --q 0.607 0.5 1.0
    python benchmarks/bench_kernels.py --output results.json
"""

import argparse
import json
import subprocess
import sys
import time

import numpy as np

from fopsim import kernels
from fopsim.experiments.table5 import draw_block_rows, hit_threshold, miss_blocks


def reference_tally(hit):
    saved = hit[:, 0].astype(np.int64) + hit[:, 1:].all(axis=1)
    return np.bincount(saved, minlength=3)


def reference_hits(seed, threshold, hosts, trials, ties_rng):
    """Each block's hit flags from the hosts' rebuilt 32-bit values, the
    ties' low bits read from ``ties_rng``, a bit generator at ``seed``."""
    lanes_rng = np.random.default_rng(seed).bit_generator
    ties_rng.advance(-(-trials * hosts // 8))
    rows = draw_block_rows(hosts)
    for start in range(0, trials, rows):
        n = min(rows, trials - start)
        raw = lanes_rng.random_raw(-(-n * hosts // 8)).astype("<u8")
        lanes = raw.view(np.uint8)[:n * hosts].astype(np.uint32)
        values = lanes << 24
        if threshold % 2**24:
            ties = np.flatnonzero(lanes == threshold >> 24)
            values[ties] |= ties_rng.random_raw(len(ties)).astype(
                np.uint32) & 0xFFFFFF
        yield values.reshape(n, hosts).astype(np.int64) < threshold


def run_once(trials, hosts, q, seed):
    """Seconds spent drawing and tallying ``trials`` trials, and counts."""
    rng = np.random.default_rng(seed)
    threshold = hit_threshold(1.0 - q)
    blocks = miss_blocks(rng, threshold, hosts, trials)
    ties_rng = np.random.default_rng(seed).bit_generator
    reference = reference_hits(seed, threshold, hosts, trials, ties_rng)
    draw_s = tally_s = 0.0
    counts = np.zeros(3, dtype=np.int64)
    expected = np.zeros(3, dtype=np.int64)
    while True:
        t0 = time.perf_counter()
        miss = next(blocks, None)
        t1 = time.perf_counter()
        if miss is None:
            break
        counts += kernels.tally_savings(miss)
        t2 = time.perf_counter()
        draw_s += t1 - t0
        tally_s += t2 - t1
        expected += reference_tally(next(reference))
        del miss
    if not np.array_equal(counts, expected):
        raise AssertionError(f"kernel counted {counts.tolist()}, "
                             f"reference {expected.tolist()}")
    if rng.bit_generator.state != ties_rng.state:
        raise AssertionError("the draw read a different number of ties "
                             "from the reference")
    return draw_s, tally_s, counts.tolist()


# one cell's draw and fold, run twice; prints the minor page faults of
# the second, a cell in a process that has run one before
_CELL_FAULTS = """
import resource, sys
import numpy as np
from fopsim import kernels
from fopsim.experiments.table5 import hit_threshold, miss_blocks

trials, hosts, q, seed = map(float, sys.argv[1:])
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for miss in miss_blocks(np.random.default_rng(int(seed)),
                            hit_threshold(1.0 - q), int(hosts), int(trials)):
        kernels.tally_savings(miss)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def cell_faults(trials, hosts, q, seed):
    """Minor page faults of one cell's draw and fold, counted in a fresh
    interpreter (see ``_CELL_FAULTS``)."""
    done = subprocess.run(
        [sys.executable, "-c", _CELL_FAULTS, *map(str, (trials, hosts, q, seed))],
        capture_output=True, text=True, check=True)
    return int(done.stdout)


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
           "minor_faults_per_mtrial": cell_faults(trials, hosts, q, seed) * per_m,
           "tally": counts}
    print(f"{'trials':>10} {'hosts':>6} {'q':>6} {'draw ms/1M':>11} "
          f"{'tally ms/1M':>12} {'tally ms/block':>15} {'tally/draw':>11} "
          f"{'tally Mtrials/s':>16} {'faults/1M':>10}")
    print(f"{trials:>10} {hosts:>6} {q:>6} {row['draw_ms_per_mtrial']:>11.1f} "
          f"{row['tally_ms_per_mtrial']:>12.1f} "
          f"{row['tally_ms_per_block']:>15.3f} "
          f"{row['tally_over_draw']:>11.2f} "
          f"{trials / tally_s / 1e6:>16.1f} "
          f"{row['minor_faults_per_mtrial']:>10.0f}")
    print(f"counts {counts} match the reference tally")
    return row


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=1_000_000)
    parser.add_argument("--hosts", type=int, nargs="+", default=[19, 20, 21],
                        help="primary plus secondaries per trial, timed in turn")
    parser.add_argument("--q", type=float, nargs="+", default=[0.607, 0.0, 1.0],
                        help="per-host hit probabilities, timed in turn")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--output", type=str, default=None,
                        help="write timings as JSON")
    args = parser.parse_args()

    rows = [run(args.trials, hosts, q, args.repeats)
            for hosts in args.hosts for q in args.q]
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2)
        print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
