"""Per-revisit abbreviated-handshake failure probabilities.

The model captures how often a revisit is served from an address the
client holds no cookie for. Probabilities can be derived from observed
per-hostname serving-address sequences or taken from the bundled
reference aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

__all__ = [
    "REFERENCE_FAILURE_PROBS",
    "REFERENCE_RTT_MS",
    "REFERENCE_N_SECONDARY",
    "RevisitFailureModel",
    "derive_failure_model",
]

# Reference aggregates from the published large-scale measurement:
# 39.3% of first revisits and 24.7% of second revisits hit a fresh serving
# address. The third value is back-solved from the reported 13.4% chance
# that all 20 hosts of the sample website keep cookie-matching addresses
# on the third revisit: q^20 = 0.134.
REFERENCE_FAILURE_PROBS = (0.393, 0.247, 1.0 - 0.134 ** (1.0 / 20.0))

REFERENCE_RTT_MS = 60       # LTE round trip used by the reference analysis
REFERENCE_N_SECONDARY = 19  # secondary hosts of the sample website


@dataclass(frozen=True)
class RevisitFailureModel:
    """p_by_revisit[r-1] = probability the r-th revisit misses."""

    p_by_revisit: tuple[float, ...]

    def __post_init__(self):
        if not self.p_by_revisit:
            raise ValueError("at least one probability required")
        for p in self.p_by_revisit:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability out of [0,1]: {p}")

    @classmethod
    def reference(cls) -> "RevisitFailureModel":
        return cls(REFERENCE_FAILURE_PROBS)

    @classmethod
    def constant(cls, p: float) -> "RevisitFailureModel":
        return cls((float(p),))

    @classmethod
    def from_new_ip_counts(cls, new_ip_counts: Sequence[int],
                           total_hostnames: int) -> "RevisitFailureModel":
        """Aggregate form: per revisit, how many of ``total_hostnames``
        were served from a previously unseen address."""
        if total_hostnames <= 0:
            raise ValueError("total_hostnames must be positive")
        if not new_ip_counts:
            raise ValueError("empty counts")
        return cls(tuple(c / total_hostnames for c in new_ip_counts))

    def prob_for(self, revisit: int) -> float:
        """Revisits beyond the configured list reuse the last probability."""
        if revisit < 1:
            raise ValueError("revisit index starts at 1")
        return self.p_by_revisit[min(revisit, len(self.p_by_revisit)) - 1]


def derive_failure_model(ip_sequences: Mapping[str, Sequence[str]]
                         ) -> RevisitFailureModel:
    """Turn observed serving-address sequences into miss probabilities.

    ``ip_sequences[hostname]`` lists the address that served each
    successive connection. The r-th revisit misses when its address was
    never seen in the connections before it (no cookie can match).
    """
    if not ip_sequences:
        raise ValueError("empty observation set")
    max_revisits = max(len(seq) for seq in ip_sequences.values()) - 1
    if max_revisits < 1:
        raise ValueError("need at least two connections per hostname")
    probs = []
    for r in range(1, max_revisits + 1):
        eligible = [seq for seq in ip_sequences.values() if len(seq) > r]
        if not eligible:
            break
        fresh = sum(1 for seq in eligible if seq[r] not in set(seq[:r]))
        probs.append(fresh / len(eligible))
    return RevisitFailureModel(tuple(probs))

