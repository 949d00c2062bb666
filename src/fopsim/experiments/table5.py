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

Both sampling engines read one uniform per host and trial from the
``("table5", variant, revisit)`` stream. The packet engine gives each
pool a miss probability of 1 or 0 from its draw, so the engines agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import kernels
from ..rngtools import SeedTree
from ..transport import TcpVariant
from .failure import RevisitFailureModel
from .table4 import run_fetch_pair, split_rtt

__all__ = [
    "SavingsDistribution",
    "draw_block_rows",
    "table5_analytic",
    "table5_montecarlo",
]

# The fast engine draws its uniforms into one reused block of about this
# many bytes, small enough to stay in cache between drawing and tallying.
_DRAW_BLOCK_BYTES = 2 << 20


def draw_block_rows(cols: int) -> int:
    """Trials per draw block of the fast engine, for ``cols`` hosts each."""
    return max(1, _DRAW_BLOCK_BYTES // (8 * cols))


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


def table5_analytic(model: RevisitFailureModel, revisit: int,
                    n_secondary: int, rtt_ms: float,
                    variant: TcpVariant) -> SavingsDistribution:
    if variant is TcpVariant.FOP:
        return SavingsDistribution(0.0, 0.0, 1.0, 2.0 * rtt_ms)
    if variant is not TcpVariant.TFO:
        raise ValueError("savings are defined for the abbreviated variants")
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


def _montecarlo_fast(model: RevisitFailureModel, revisit: int,
                     n_secondary: int, trials: int, seed: int,
                     variant: TcpVariant) -> tuple[int, int, int]:
    if variant is TcpVariant.FOP:
        # hostname-bound cookies: every draw is a hit by construction
        return (0, 0, trials)
    q = 1.0 - model.prob_for(revisit)
    rng = SeedTree(seed).stream("table5", variant.value, revisit)
    cols = n_secondary + 1
    rows = min(trials, draw_block_rows(cols))
    block = np.empty((rows, cols))
    n0 = n1 = n2 = 0
    # filling row blocks in order draws the doubles rng.random((trials,
    # cols)) would, so the block size never changes a count
    for start in range(0, trials, rows):
        uniforms = block[:min(rows, trials - start)]
        rng.random(out=uniforms)
        c0, c1, c2 = kernels.tally_savings(uniforms, q)
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
    seeds = SeedTree(seed)
    # the fast engine's draws, a row per trial: a draw at or above q misses
    misses = seeds.stream("table5", variant.value, revisit).random(
        (trials, n_secondary + 1)) >= 1.0 - model.prob_for(revisit)
    counts = [0, 0, 0]
    for trial, row in enumerate(misses.astype(float).tolist()):
        world_seed = int(seeds.stream("t5pkt", variant.value, revisit,
                                      trial).integers(0, 2**63))
        _, duration = run_fetch_pair(world_seed, row, up, down, variant)
        saved, rem = divmod(4 * rtt - duration, rtt)
        if rem or not 0 <= saved <= 2:
            raise RuntimeError(
                f"unexpected revisit duration {duration} ms at RTT {rtt} ms")
        counts[saved] += 1
    return tuple(counts)

