"""Hot Monte Carlo kernel: per-trial fetch-savings tallies.

``tally_savings`` counts the trials of a block of miss flags (see
``table5.miss_blocks``) that save 0, 1 or 2 round trips. It reads each
row's flags, bytes of 0 or 1, as 32-bit words, four hosts to a word. A
contiguous block of rows of a multiple of four hosts, such as Table 5's
20, is read in place; any other block is first copied into rows padded
with "no miss" bytes to whole words, kept for the next block of its
width. The kernel then folds each row: it copies word 0, splits off its
byte 0, the primary's flag, and ORs the row's other words into
the rest. The result is one "stalled" word per row, nonzero exactly
when a secondary misses. Three counts of nonzero values then give the
tally. ``benchmarks/bench_kernels.py`` times it against drawing the
flags.
"""

from __future__ import annotations

import numpy as np

__all__ = ["backend_name", "tally_savings"]

# host count -> padded rows, which only ever get a row's first ``cols``
# bytes written: a buffer per block went back to the OS and faulted in
# again each block (about 30x the page faults of a 20-host cell)
_padded: dict[int, np.ndarray] = {}


def tally_savings(miss: np.ndarray) -> tuple[int, int, int]:
    """Count trials saving 0/1/2 round trips.

    ``miss`` is a bool block of miss flags, a row per trial: column 0 is
    the primary host's, the rest are the secondaries'. A host that does
    not miss hits its abbreviated attempt; one RTT is saved on the
    primary, and one more only if every secondary hits (the parallel
    stage finishes early only when nothing stalls it).
    """
    rows, cols = miss.shape
    if cols % 4 or not miss.flags.c_contiguous:
        # pad each row with "no miss" up to whole words; padding never
        # stalls a stage
        padded = _padded.get(cols)
        if padded is None or len(padded) < rows:
            padded = _padded[cols] = np.zeros((rows, -(-cols // 4) * 4), bool)
        padded[:rows, :cols] = miss
        miss = padded[:rows]
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
