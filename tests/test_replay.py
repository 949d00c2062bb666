"""Every bundled config, under every variant, with duplicated SYNs and
with its client packets replayed after the run.

SYN data can arrive twice (RFC 7413 §6.1), and an on-path attacker can
replay 0-RTT data (RFC 8446 §8); FOP's single-use tickets are its guard.

- **Duplicate SYNs.** Each client SYN reaches its pool a second time,
  1 ms after the original. The run's connection records and check
  verdicts are those of the undisturbed run.
- **Replays.** Once the run has ended, every packet a client sent to a
  pool is sent again on the uplink, all shifted by one constant so that
  the first leaves 1 s after the run's end. No pool answers a replayed
  request: it sends no app record after the shift. A replayed ticket
  offer names a used ticket, so a pool that gets it asks for a retry and
  drops the early data that came with it. Every pool session ends
  released, and the run's own end check passes.
"""

from dataclasses import replace
from functools import partial
from importlib import resources
from unittest import mock

import pytest

from fopsim.config import load_config
from fopsim.scenario import run_scenario
from fopsim.stack import World
from fopsim.tlschan import (
    FLAG_PSK,
    MSG_CHLO,
    MSG_SHLO,
    REC_APP,
    REC_HANDSHAKE,
    SHLO_RETRY,
    parse_records,
)
from fopsim.transport import TcpVariant

CONFIGS = resources.files("fopsim").joinpath("configs")
NAMES = sorted(f"{folder}{path.name}" for folder in ("", "privacy/")
               for path in CONFIGS.joinpath(folder).iterdir()
               if path.name.endswith(".json"))
RUNS = [(name, variant.value) for name in NAMES for variant in TcpVariant]
REPLAY_GAP = 1000  # ms from the run's end to the first replayed packet


def config(name, variant):
    return replace(load_config(CONFIGS.joinpath(name)), variant=variant)


def verdicts(result):
    return [(c["name"], c["passed"]) for c in result.checks]


def hellos(pkt):
    """The (type, flags) of each hello in ``pkt``'s payload."""
    return [(body[0], body[1]) for tag, body in parse_records(pkt.payload)
            if tag == REC_HANDSHAKE]


def replayed(name, variant):
    """The run of ``name`` under ``variant``, then its replay: returns its
    World, every packet its pools sent after the shift, and the replayed
    packets they dropped as "tls-error"."""
    result = run_scenario(config(name, variant))
    world, tap = result.world, result.tap_packets
    pools = world._pools_by_ip
    sent = [(t, pkt) for t, pkt in tap if pkt.dst.ip in pools]
    start = world.sim.now + REPLAY_GAP
    shift = start - sent[0][0]
    deliver = partial(World._arrive_public, world)
    for t, pkt in sent:
        world.sim.schedule(t + shift, partial(world.uplink.send, pkt, deliver))
    world.run()  # raises on a connection, session or mapping left behind
    answers = [pkt for t, pkt in tap if t >= start and pkt.src.ip in pools]
    failed = [pkt for t, pkt, reason in world.dropped
              if t >= start and reason == "tls-error"]
    return world, answers, failed


def test_every_bundled_config_is_run():
    assert len(RUNS) == 33


@pytest.mark.parametrize("name, variant", RUNS)
def test_duplicate_syns_keep_records_and_verdicts(name, variant):
    cfg = config(name, variant)
    plain = run_scenario(cfg)
    arrive = World._arrive_public
    copies = []

    def twice(world, pkt):
        arrive(world, pkt)
        if pkt.is_syn():
            copies.append(pkt)
            world.sim.schedule(world.sim.now + 1,
                               partial(arrive, world, pkt.copy()))

    with mock.patch.object(World, "_arrive_public", twice):
        result = run_scenario(cfg)
    assert copies
    assert result.world.all_records() == plain.world.all_records()
    assert verdicts(result) == verdicts(plain)


@pytest.mark.parametrize("name, variant", RUNS)
def test_replayed_requests_are_not_answered(name, variant):
    world, answers, failed = replayed(name, variant)
    assert all(not pool._conns for pool in world._pools_by_ip.values())
    assert [pkt for pkt in answers if any(
        tag == REC_APP for tag, _ in parse_records(pkt.payload))] == []
    # a used ticket draws a retry request, and its early data is dropped:
    # no flight that offers a ticket fails
    assert [pkt for pkt in failed if any(
        kind == MSG_CHLO and flags & FLAG_PSK
        for kind, flags in hellos(pkt))] == []


def test_replayed_ticket_offers_draw_retry_requests():
    # the one program path to a HelloRetryRequest: a ticket offer the
    # pool no longer holds
    retries = sum(hellos(pkt).count((MSG_SHLO, SHLO_RETRY))
                  for run in RUNS for pkt in replayed(*run)[1])
    assert retries == 17
