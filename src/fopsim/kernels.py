"""Hot Monte Carlo kernel: per-trial fetch-savings tallies.

``tally_savings`` compares a block of pre-drawn 32-bit draws (two per
raw PCG64 output, see ``rngtools.random_uint32``) with an integer hit
threshold and counts the trials that save 0, 1 or 2 round trips. One
compare writes each row's miss flags as bytes of 0 or 1, padded with
"no miss" bytes to whole 32-bit words. (A row of a multiple of four
hosts, such as Table 5's 20, then needs no padding, and the compare
writes one contiguous buffer.) The kernel then folds the row four hosts
to a word: it copies word 0, splits off its byte 0, the primary's flag,
and ORs the row's other words into the rest. The result is one
"stalled" word per row, nonzero exactly when a secondary misses. Three
counts of nonzero values then give the tally.
``benchmarks/bench_kernels.py`` times it against drawing the 32-bit
draws.
"""

from __future__ import annotations

import numpy as np

__all__ = ["backend_name", "tally_savings"]


def tally_savings(draws: np.ndarray, threshold: int) -> tuple[int, int, int]:
    """Count trials saving 0/1/2 round trips.

    ``draws`` is a uint32 block, a row per trial: column 0 is the primary
    host's draw, the rest are the secondaries'. A draw below
    ``threshold`` (0 to 2^32) means the abbreviated attempt hits; one RTT
    is saved on the primary, and one more only if every secondary hits
    (the parallel stage finishes early only when nothing stalls it).
    """
    rows, cols = draws.shape
    # pad each row with "no miss" up to whole words; padding never stalls
    # a stage
    miss = np.empty((rows, -(-cols // 4) * 4), dtype=bool)
    miss[:, cols:] = False
    if threshold:
        # a uint32 bound: numpy compares an out-of-range Python int such
        # as 2^32 on a path about 3x slower
        np.greater(draws, np.uint32(threshold - 1), out=miss[:, :cols])
    else:
        miss[:, :cols] = True
    words = miss.view("<u4")
    stalled = words[:, 0].copy()
    primary = stalled & np.uint32(1)  # byte 0 of word 0
    stalled ^= primary
    # OR two strided words per pass: reading a strided word costs numpy
    # more than the contiguous OR into the fold
    for j in range(1, words.shape[1] - 1, 2):
        stalled |= words[:, j] | words[:, j + 1]
    if words.shape[1] % 2 == 0:
        stalled |= words[:, -1]
    n_primary = int(np.count_nonzero(primary))
    n_stalled = int(np.count_nonzero(stalled))
    n0 = int(np.count_nonzero(np.logical_and(primary, stalled)))
    return n0, n_primary + n_stalled - 2 * n0, rows - n_primary - n_stalled + n0


def backend_name() -> str:
    return "numpy"
