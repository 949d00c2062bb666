"""Per-revisit abbreviated-handshake failure probabilities.

The model captures how often a revisit is served from an address the
client holds no cookie for. Probabilities can be derived from observed
per-hostname serving-address sequences or taken from the bundled
reference aggregates. The model itself lives in ``simcore``; each
server pool's load balancing draws from it. It is re-exported here.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..simcore import REFERENCE_FAILURE_PROBS, RevisitFailureModel

__all__ = [
    "REFERENCE_FAILURE_PROBS",
    "REFERENCE_RTT_MS",
    "REFERENCE_N_SECONDARY",
    "RevisitFailureModel",
    "derive_failure_model",
]

REFERENCE_RTT_MS = 60       # LTE round trip used by the reference analysis
REFERENCE_N_SECONDARY = 19  # secondary hosts of the sample website


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
        fresh = sum(1 for seq in eligible if seq[r] not in set(seq[:r]))
        probs.append(fresh / len(eligible))
    return RevisitFailureModel(tuple(probs))

