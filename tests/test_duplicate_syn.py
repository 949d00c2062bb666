"""Scenario runs with every data-bearing client SYN delivered twice.

A server may see SYN data twice (RFC 7413 §6.1). Here each client SYN
that carries data reaches its pool again 1 ms after the original. A copy
that arrives while the original's session is open is dropped as
"duplicate-syn" and leaves that session alone. One that arrives later is
a pool observation that no connection record claims: the linkage checks
must still compute, with the copy's node labelled None. Where that
copy's session answers a client port whose connection has ended, the
client answers with a RST, which ends the session.
"""

from dataclasses import replace
from functools import partial
from importlib import resources
from unittest import mock

import pytest

from fopsim.config import load_config
from fopsim.scenario import run_scenario
from fopsim.stack import World

CONFIGS = resources.files("fopsim").joinpath("configs")


def config(name, variant):
    return replace(load_config(CONFIGS.joinpath(name)), variant=variant)


def run_with_copies(cfg):
    """``run_scenario(cfg)`` with each data-bearing client SYN delivered
    again 1 ms later; returns the result and the (arrival time, source)
    of every copy."""
    arrive = World._arrive_public
    copies = []

    def twice(world, pkt):
        arrive(world, pkt)
        if pkt.is_syn() and pkt.payload:
            at = world.sim.now + 1
            copies.append((at, pkt.src))
            world.sim.schedule(at, partial(arrive, world, pkt.copy()))

    with mock.patch.object(World, "_arrive_public", twice):
        return run_scenario(cfg), copies


@pytest.mark.parametrize("variant", ["tfo", "fop"])
def test_copies_are_unlabelled_and_verdicts_hold(variant):
    cfg = config("shared_nat_two_clients.json", variant)
    plain = run_scenario(cfg)
    result, copies = run_with_copies(cfg)
    assert copies
    assert ([c["passed"] for c in result.checks]
            == [c["passed"] for c in plain.checks])
    graph, labels = result.linkage("host", None)
    assert (len(graph.nodes)
            == len(plain.world.host_observations()) + len(copies))
    for obs, label in zip(graph.nodes, labels):
        assert (label is None) == ((obs.time, obs.wire_src) in copies)


# the copy reaches the pool while the full handshake it repeats is open
@pytest.mark.parametrize("name", ["privacy/restart.json",
                                  "privacy/virtual_hosts.json"])
def test_a_copy_of_an_open_connection_is_dropped(name):
    cfg = config(name, "tfo")
    plain = run_scenario(cfg)
    result, copies = run_with_copies(cfg)
    assert copies
    assert [(t, pkt.src) for t, pkt, reason in result.world.dropped
            if reason == "duplicate-syn"] == copies
    assert result.world.all_records() == plain.world.all_records()
    assert ([c["passed"] for c in result.checks]
            == [c["passed"] for c in plain.checks])


# a copy that reaches the pool after the session answered opens a second
# session there, whose answer reaches a closed client port: the client's
# RST ends that session
@pytest.mark.parametrize("name", [
    "privacy/cross_application.json", "privacy/lifetime_expiry.json",
    "privacy/private_mode.json", "privacy/third_party.json"])
def test_a_copy_answered_after_its_connection_ended_is_reset(name):
    cfg = config(name, "tfo")
    plain = run_scenario(cfg)
    result, copies = run_with_copies(cfg)
    assert len(copies) == 1
    world = result.world
    assert [reason for _, _, reason in world.dropped] == ["no-connection"]
    (answer,) = [pkt for _, pkt, _ in world.dropped]
    assert [(pkt.src, pkt.dst) for _, pkt in result.tap_packets
            if pkt.is_rst()] == [(answer.dst, answer.src)]
    assert all(not pool._conns for pool in world._pools_by_ip.values())
    assert world.all_records() == plain.world.all_records()
    assert ([c["passed"] for c in result.checks]
            == [c["passed"] for c in plain.checks])
