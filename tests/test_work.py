"""Exact work counts of fixed Table 5 packet cells.

The work a run does is deterministic, so it is pinned exactly, as the
golden digests pin bytes: X25519 key loads and exchanges, derived random
streams and link sends. A timing would not show one extra exchange per
full handshake; these counts do. Counts come from wrappers installed
here, as perfbench's spans count.

A change that moves a count updates it here and says why.
"""

from collections import Counter

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from fopsim import tlschan
from fopsim.experiments.failure import (
    REFERENCE_N_SECONDARY,
    REFERENCE_RTT_MS,
    RevisitFailureModel,
)
from fopsim.experiments.table5 import table5_montecarlo
from fopsim.rngtools import SeedTree
from fopsim.simcore import Link
from fopsim.transport import TcpVariant


class CountedKey:
    """Stands in for ``X25519PrivateKey`` inside ``tlschan``, counting
    the keys loaded and the exchanges made with them."""

    work: Counter

    def __init__(self, key):
        self._key = key

    @classmethod
    def from_private_bytes(cls, data):
        cls.work["x25519_loads"] += 1
        return cls(X25519PrivateKey.from_private_bytes(data))

    def public_key(self):
        return self._key.public_key()

    def exchange(self, peer):
        self.work["x25519_exchanges"] += 1
        return self._key.exchange(peer)


@pytest.fixture
def work(monkeypatch):
    """Counts of the work done inside the test."""
    counts = Counter()
    stream, send = SeedTree.stream, Link.send

    def counted_stream(tree, *names):
        counts["streams"] += 1
        return stream(tree, *names)

    def counted_send(link, pkt, deliver):
        counts["link_sends"] += 1
        send(link, pkt, deliver)

    monkeypatch.setattr(CountedKey, "work", counts, raising=False)
    monkeypatch.setattr(tlschan, "X25519PrivateKey", CountedKey)
    monkeypatch.setattr(SeedTree, "stream", counted_stream)
    monkeypatch.setattr(Link, "send", counted_send)
    return counts


def packet_cell(trials, variant):
    """The reference first-revisit cell of 20 hosts at seed 7."""
    table5_montecarlo(RevisitFailureModel.reference(), 1, REFERENCE_N_SECONDARY,
                      REFERENCE_RTT_MS, trials=trials, seed=7, variant=variant,
                      engine="packet")


# A trial's initial visit makes 20 full handshakes, a key pair loaded and
# an exchange on each side; its revisit resumes all 20 with psk_ke and
# makes none. It derives 21 streams, the client's and 20 pools'; the cell
# adds its ("table5", variant, revisit) stream. A tfo revisit's
# load-balancer misses cost it link sends that a fop revisit saves.
@pytest.mark.parametrize("variant, link_sends", [
    (TcpVariant.TFO, 185), (TcpVariant.FOP, 180)])
def test_one_trial_cell(work, variant, link_sends):
    packet_cell(1, variant)
    assert work == {"x25519_loads": 40, "x25519_exchanges": 40,
                    "streams": 22, "link_sends": link_sends}


def test_thirty_trial_cell(work):
    packet_cell(30, TcpVariant.TFO)
    assert {k: work[k] for k in ("x25519_loads", "x25519_exchanges",
                                 "streams")} == {
        "x25519_loads": 1200, "x25519_exchanges": 1200, "streams": 631}
