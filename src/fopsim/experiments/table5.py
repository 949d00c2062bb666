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

Both sampling engines read one 32-bit draw per host and trial from the
``("table5", variant, revisit)`` stream (``rngtools.random_uint32``, two
draws per raw PCG64 output). A host hits iff its draw is below
``hit_threshold(p)`` = ceil(q * 2^32), so P(hit) is within 2^-32 of q,
and p = 0 or 1 stays exact. Both engines hold one block of
``draw_block_rows`` trials' draws at a time. The packet engine gives
each pool a miss probability of 1 or 0 from its draw, so the engines
agree trial for trial; every trial's World runs at the cell's seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import kernels
from ..rngtools import SeedTree, random_uint32
from ..transport import TcpVariant
from .failure import RevisitFailureModel
from .table4 import run_fetch_pair, split_rtt

__all__ = [
    "SavingsDistribution",
    "draw_block_rows",
    "hit_threshold",
    "table5_analytic",
    "table5_montecarlo",
]

# Both engines draw a block of about this many 32-bit draws (1 MiB of
# raw outputs) at a time, small enough to stay in cache between drawing
# and tallying.
_DRAW_BLOCK_DRAWS = 1 << 18


def draw_block_rows(cols: int) -> int:
    """Trials per draw block, for ``cols`` hosts each.

    A block takes an even number of draws, whole raw outputs, so blocks
    read the draws one ``random_uint32`` call for every trial would.
    """
    rows = max(2, _DRAW_BLOCK_DRAWS // cols)
    return rows - rows * cols % 2


def hit_threshold(p: float) -> int:
    """The 32-bit draws below this hit when the miss probability is ``p``:
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

    engine="fast" tallies the draws with ``kernels.tally_savings``;
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


def _draw_blocks(model: RevisitFailureModel, revisit: int, cols: int,
                 trials: int, seed: int, variant: TcpVariant):
    """The cell's stream as ``draw_block_rows(cols)``-trial uint32 blocks,
    a row per trial (the last block may be shorter), each with the hit
    threshold."""
    threshold = hit_threshold(model.prob_for(revisit))
    rng = SeedTree(seed).stream("table5", variant.value, revisit)
    rows = draw_block_rows(cols)
    for start in range(0, trials, rows):
        n = min(rows, trials - start)
        yield random_uint32(rng, n * cols).reshape(n, cols), threshold


def _montecarlo_fast(model: RevisitFailureModel, revisit: int,
                     n_secondary: int, trials: int, seed: int,
                     variant: TcpVariant) -> tuple[int, int, int]:
    if variant is TcpVariant.FOP:
        # hostname-bound cookies: every draw is a hit by construction
        return (0, 0, trials)
    n0 = n1 = n2 = 0
    for draws, threshold in _draw_blocks(model, revisit, n_secondary + 1,
                                         trials, seed, variant):
        c0, c1, c2 = kernels.tally_savings(draws, threshold)
        del draws  # free this block before the next is drawn
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
    for draws, threshold in _draw_blocks(model, revisit, n_secondary + 1,
                                         trials, seed, variant):
        # each pool misses always or never, as its draw says
        for row in (draws >= threshold).astype(float):
            _, duration = run_fetch_pair(seed, row.tolist(), up, down, variant)
            saved, rem = divmod(4 * rtt - duration, rtt)
            if rem or not 0 <= saved <= 2:
                raise RuntimeError(
                    f"unexpected revisit duration {duration} ms at RTT {rtt} ms")
            counts[saved] += 1
    return tuple(counts)
