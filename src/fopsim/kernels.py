"""Hot Monte Carlo kernel: per-trial fetch-savings tallies.

``tally_savings`` compares a block of pre-drawn 32-bit draws (two per
raw PCG64 output, see ``rngtools.random_uint32``) with an integer hit
threshold and counts the trials that save 0, 1 or 2 round trips. It
tests four hosts at a time: the row's hit flags are bytes of 0 or 1, and
four of them read as one little-endian 32-bit word equal to ``_ALL_HIT``
exactly when all four hit. (A row of a multiple of four hosts, such as
Table 5's 20, then needs no padding, and the compare writes one
contiguous buffer.) ``benchmarks/bench_kernels.py`` times it
against drawing the 32-bit draws.
"""

from __future__ import annotations

import numpy as np

__all__ = ["backend_name", "tally_savings"]

_ALL_HIT = 0x01010101  # four bool bytes, every one True


def tally_savings(draws: np.ndarray, threshold: int) -> tuple[int, int, int]:
    """Count trials saving 0/1/2 round trips.

    ``draws`` is a uint32 block, a row per trial: column 0 is the primary
    host's draw, the rest are the secondaries'. A draw below
    ``threshold`` (0 to 2^32) means the abbreviated attempt hits; one RTT
    is saved on the primary, and one more only if every secondary hits
    (the parallel stage finishes early only when nothing stalls it).
    """
    rows, cols = draws.shape
    # pad each row with hits up to whole words; padding never stalls a stage
    hit = np.empty((rows, -(-cols // 4) * 4), dtype=bool)
    hit[:, cols:] = True
    if threshold:
        # a uint32 bound: numpy compares an out-of-range Python int such
        # as 2^32 on a path about 3x slower
        np.less_equal(draws, np.uint32(threshold - 1), out=hit[:, :cols])
    else:
        hit[:, :cols] = False
    words = hit.view("<u4")
    # byte 0 of word 0 is the primary: count it as a hit here
    secondaries = (words[:, 0] | 1) == _ALL_HIT
    for j in range(1, words.shape[1]):
        secondaries &= words[:, j] == _ALL_HIT
    primary = hit[:, 0]
    n_primary = int(np.count_nonzero(primary))
    n_secondaries = int(np.count_nonzero(secondaries))
    n2 = int(np.count_nonzero(primary & secondaries))
    n0 = rows - n_primary - n_secondaries + n2
    return n0, rows - n0 - n2, n2


def backend_name() -> str:
    return "numpy"
