"""Hot Monte Carlo kernel: per-trial fetch-savings tallies.

``tally_savings`` counts the trials of a block of miss flags (see
``table5.miss_blocks``) that save 0, 1 or 2 round trips. It reads each
row's flags, bytes of 0 or 1, as 32-bit words, four hosts to a word, in
place: a row's first ``cols // 4 * 4`` bytes are its whole words,
wherever the row starts. A block that is not contiguous is copied once
first. The kernel folds each row: it copies word 0, splits off its byte
0, the primary's flag, and ORs the row's other words into the rest. A
host count that is not a multiple of four leaves 1 to 3 flags past the
whole words; the fold ORs in the row's last four bytes, which hold them
and flags already folded. The result is one "stalled" word per row,
nonzero exactly when a secondary misses. Three counts of nonzero values
then give the tally. ``benchmarks/bench_kernels.py`` times it against
drawing the flags.
"""

from __future__ import annotations

import numpy as np

__all__ = ["backend_name", "tally_savings"]


def tally_savings(miss: np.ndarray) -> tuple[int, int, int]:
    """Count trials saving 0/1/2 round trips.

    ``miss`` is a bool block of miss flags, a row per trial: column 0 is
    the primary host's, the rest are the secondaries'. A host that does
    not miss hits its abbreviated attempt; one RTT is saved on the
    primary, and one more only if every secondary hits (the parallel
    stage finishes early only when nothing stalls it).
    """
    rows, cols = miss.shape
    miss = np.ascontiguousarray(miss)
    if cols < 4:  # no whole word
        primary = miss[:, 0]
        stalled = miss[:, 1:].any(axis=1)
    else:
        words = miss[:, :cols // 4 * 4].view("<u4")
        stalled = words[:, 0].copy()
        primary = stalled & np.uint32(1)  # byte 0 of word 0
        stalled ^= primary
        # OR two strided words per pass: reading a strided word costs
        # numpy more than the contiguous OR into the fold
        for j in range(1, words.shape[1] - 1, 2):
            stalled |= words[:, j] | words[:, j + 1]
        if words.shape[1] % 2 == 0:
            stalled |= words[:, -1]
        if cols % 4:
            # the row's last four bytes: its 1 to 3 leftover flags, after
            # secondaries' flags already folded in, which OR leaves as is
            stalled |= miss[:, cols - 4:].view("<u4")[:, 0]
    n_primary = int(np.count_nonzero(primary))
    n_stalled = int(np.count_nonzero(stalled))
    n0 = int(np.count_nonzero(np.logical_and(primary, stalled)))
    return n0, n_primary + n_stalled - 2 * n0, rows - n_primary - n_stalled + n0


def backend_name() -> str:
    return "numpy"
