"""Delay savings on website revisits under load balancing.

A fetch touches a primary host and then n secondary hosts in parallel.
Relative to a revisit over the standard stack (2 RTT per stage), an
abbreviated hit saves one RTT on the primary, and one more only when all
secondaries hit. The analytic distribution with miss probability p and
q = 1 - p:

    P(save 2) = q^(n+1)
    P(save 0) = p * (1 - q^n)
    P(save 1) = 1 - P(save 0) - P(save 2)
    mean saving = rtt * (P(save 1) + 2 * P(save 2))

The hostname-bound variant is never affected by the serving address and
saves two RTTs on every revisit.

Both sampling engines read the same miss flags from the
``("table5", variant, revisit)`` stream (``miss_blocks``). Host k of a
cell (trial k // hosts, column k % hosts) has the 32-bit value
v = lane * 2^24 + low and misses iff v >= T = ``hit_threshold(p)`` =
ceil(q * 2^32). So P(hit) = T / 2^32, within 2^-32 of q, for every host
independently, and p = 0 or 1 stays exact. The lane is byte k % 8 of
raw output k // 8 (``rngtools.random_lanes``). It decides the host
unless it equals T >> 24: a larger lane misses, a smaller one hits. Only
such a tie, about 1 host in 256, reads ``low``: the low 24 bits of one
raw output, taken in host order after the cell's ceil(trials * hosts / 8)
lane outputs. A tie reads no output when T alone decides it
(T & 0xFFFFFF == 0), and at T = 0 or 2^32 no lane is read. Both engines
hold one block of ``draw_block_rows`` trials' flags at a time, and the
block size never changes a flag. The packet engine gives each pool a
miss probability of 1 or 0 from its flag, so the engines agree trial for
trial; every trial's World runs at the cell's seed.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .. import kernels
from ..rngtools import SeedTree, random_lanes
from ..transport import TcpVariant
from .failure import RevisitFailureModel
from .table4 import run_fetch_pair, split_rtt

__all__ = [
    "SavingsDistribution",
    "draw_block_rows",
    "hit_threshold",
    "miss_blocks",
    "table5_analytic",
    "table5_montecarlo",
]

# Both engines read a block of about this many 8-bit lanes (256 KiB of
# raw outputs) at a time, small enough to stay in cache between drawing
# and tallying.
_DRAW_BLOCK_LANES = 1 << 18


def draw_block_rows(cols: int) -> int:
    """Trials per draw block, for ``cols`` hosts each.

    A block takes whole raw outputs, a multiple of 8 lanes, so blocks
    read the lanes one ``random_lanes`` call for every trial would.
    """
    step = 8 // math.gcd(cols, 8)
    return max(step, _DRAW_BLOCK_LANES // cols // step * step)


def hit_threshold(p: float) -> int:
    """The 32-bit values below this hit when the miss probability is ``p``:
    ceil((1 - p) * 2^32), which is 2^32 at p = 0 and 0 at p = 1."""
    return math.ceil((1.0 - p) * 2**32)


@dataclass(frozen=True)
class SavingsDistribution:
    p_save0: float
    p_save1: float
    p_save2: float
    mean_saving_ms: float
    trials: int = 0  # 0 = analytic

    def __post_init__(self):
        total = self.p_save0 + self.p_save1 + self.p_save2
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.p_save0, self.p_save1, self.p_save2)


def _check_cell(revisit: int, n_secondary: int, variant: TcpVariant) -> None:
    if revisit < 1:
        raise ValueError("revisit index starts at 1")
    if n_secondary < 0:
        raise ValueError("n_secondary must be >= 0")
    if variant not in (TcpVariant.TFO, TcpVariant.FOP):
        raise ValueError("savings are defined for the abbreviated variants")


def table5_analytic(model: RevisitFailureModel, revisit: int,
                    n_secondary: int, rtt_ms: float,
                    variant: TcpVariant) -> SavingsDistribution:
    _check_cell(revisit, n_secondary, variant)
    if variant is TcpVariant.FOP:
        return SavingsDistribution(0.0, 0.0, 1.0, 2.0 * rtt_ms)
    p = model.prob_for(revisit)
    q = 1.0 - p
    p2 = q ** (n_secondary + 1)
    p0 = p * (1.0 - q ** n_secondary)
    p1 = 1.0 - p0 - p2
    mean = rtt_ms * (p1 + 2.0 * p2)
    return SavingsDistribution(p0, p1, p2, mean)


def table5_montecarlo(model: RevisitFailureModel, revisit: int,
                      n_secondary: int, rtt_ms: float, trials: int, seed: int,
                      variant: TcpVariant, engine: str) -> SavingsDistribution:
    """Empirical savings distribution over ``trials`` website revisits.

    engine="fast" tallies the miss flags with ``kernels.tally_savings``;
    engine="packet" runs every trial, an initial visit and the revisit,
    through the packet simulator, and counts the RTTs the stack saves.
    """
    _check_cell(revisit, n_secondary, variant)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if engine == "fast":
        counts = _montecarlo_fast(model, revisit, n_secondary, trials,
                                  seed, variant)
    elif engine == "packet":
        counts = _montecarlo_packet(model, revisit, n_secondary, rtt_ms,
                                    trials, seed, variant)
    else:
        raise ValueError(f"unknown engine: {engine!r}")
    n0, n1, n2 = counts
    mean = rtt_ms * (n1 + 2 * n2) / trials
    return SavingsDistribution(n0 / trials, n1 / trials, n2 / trials,
                               mean, trials=trials)


def miss_blocks(rng: np.random.Generator, threshold: int, cols: int,
                trials: int):
    """The miss flags of ``trials`` trials of ``cols`` hosts, read from
    ``rng`` as the module docstring says, as bool blocks of
    ``draw_block_rows(cols)`` rows, a row per trial (the last block may
    be shorter). A host misses iff its value is at least ``threshold``
    (0 to 2^32). Once every block is read, ``rng`` ends past the lane
    outputs and the ties' outputs.
    """
    lane_threshold, low_threshold = divmod(threshold, 1 << 24)
    lane_outputs = -(-trials * cols // 8)
    tie_bits = None  # reads the ties' outputs, made at the cell's first tie
    ties_read = 0
    rows = draw_block_rows(cols)
    if threshold in (0, 1 << 32):
        # every host misses (T = 0) or hits (T = 2^32) whatever its lane:
        # step past the lanes unread, and yield one read-only block
        rng.bit_generator.advance(lane_outputs)
        block = np.full((min(rows, trials), cols), threshold == 0)
        block.flags.writeable = False
        yield from (block[:min(rows, trials - s)] for s in range(0, trials, rows))
        return
    # one tie-search buffer for every block: allocating it afresh made
    # malloc return memory to the OS and fault it back in, block after
    # block (31x the page faults of a 1M-trial cell, 40% more time). It
    # holds whole 64-bit words for ``_flag_positions``, whose bytes past
    # a block's lanes must be False: each block clears them, as a shorter
    # last block would otherwise see the flags of the block before.
    is_tie = np.empty(-(-min(rows, trials) * cols // 8) * 8, dtype=bool)
    for start in range(0, trials, rows):
        n = min(rows, trials - start)
        lanes = random_lanes(rng, n * cols)
        if low_threshold:
            miss = lanes > lane_threshold
            np.equal(lanes, lane_threshold, out=is_tie[:n * cols])
            is_tie[n * cols:] = False
            ties = _flag_positions(is_tie, n * cols)
            if len(ties):
                if tie_bits is None:
                    # a copy of the stream, past the lane outputs it has
                    # yet to read
                    tie_bits = copy.copy(rng.bit_generator)
                    tie_bits.advance(lane_outputs - -(-(start + n) * cols // 8))
                low = tie_bits.random_raw(len(ties)) & 0xFFFFFF
                miss[ties] = low >= low_threshold
                ties_read += len(ties)
        else:
            # a tie's value is at least the threshold whatever its low
            # bits, so no tie reads an output
            miss = lanes >= lane_threshold
        yield miss.reshape(n, cols)
    rng.bit_generator.advance(ties_read)


def _flag_positions(flags: np.ndarray, n: int) -> np.ndarray:
    """``np.flatnonzero(flags[:n])``, for a bool array ``flags`` of whole
    64-bit words whose bytes from ``n`` on are False.

    It finds the nonzero words first, then the set bytes of only those
    words. Ties are about 1 byte in 256, so about 3% of the words are
    flagged, and the byte scan reads a small gather instead of the block.
    """
    words = flags[:-(-n // 8) * 8].view(np.uint64)
    flagged = np.flatnonzero(words != 0)
    # the flagged words' bytes, in memory order whatever the byte order
    byte = np.flatnonzero(words.take(flagged).view(bool))
    return flagged[byte >> 3] * 8 + (byte & 7)


def _cell_miss_blocks(model: RevisitFailureModel, revisit: int, cols: int,
                      trials: int, seed: int, variant: TcpVariant):
    return miss_blocks(SeedTree(seed).stream("table5", variant.value, revisit),
                       hit_threshold(model.prob_for(revisit)), cols, trials)


def _montecarlo_fast(model: RevisitFailureModel, revisit: int,
                     n_secondary: int, trials: int, seed: int,
                     variant: TcpVariant) -> tuple[int, int, int]:
    if variant is TcpVariant.FOP:
        # hostname-bound cookies: every draw is a hit by construction
        return (0, 0, trials)
    n0 = n1 = n2 = 0
    for miss in _cell_miss_blocks(model, revisit, n_secondary + 1, trials,
                                  seed, variant):
        c0, c1, c2 = kernels.tally_savings(miss)
        n0 += c0
        n1 += c1
        n2 += c2
    return (n0, n1, n2)


def _montecarlo_packet(model: RevisitFailureModel, revisit: int,
                       n_secondary: int, rtt_ms: float, trials: int,
                       seed: int, variant: TcpVariant) -> tuple[int, int, int]:
    rtt = int(rtt_ms)
    if rtt <= 0 or rtt != rtt_ms:
        raise ValueError("packet engine needs a positive integer RTT")
    if n_secondary < 1:
        # the two-stage savings accounting needs a real secondary stage;
        # the fast engine handles the degenerate single-host case
        raise ValueError("packet engine needs at least one secondary host")
    up, down = split_rtt(rtt)
    counts = [0, 0, 0]
    for miss in _cell_miss_blocks(model, revisit, n_secondary + 1, trials,
                                  seed, variant):
        # each pool misses always or never, as its flag says
        for row in miss:
            _, duration = run_fetch_pair(seed, row.astype(float).tolist(),
                                         up, down, variant)
            saved, rem = divmod(4 * rtt - duration, rtt)
            if rem or not 0 <= saved <= 2:
                raise RuntimeError(
                    f"unexpected revisit duration {duration} ms at RTT {rtt} ms")
            counts[saved] += 1
    return tuple(counts)
