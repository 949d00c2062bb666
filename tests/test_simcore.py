from dataclasses import astuple
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fopsim.rngtools import SeedTree, Uniforms
from fopsim.scenario import run_scenario
from fopsim.simcore import (
    Endpoint,
    FoKind,
    Link,
    Packet,
    SimulationError,
    Simulator,
    TcpFlags,
)
from fopsim.stack import World
from fopsim.transport import TcpVariant


def make_packet(src=("203.0.113.1", 50001), dst=("198.51.100.1", 443),
                flags=TcpFlags.SYN, **kw):
    return Packet(src=Endpoint(*src), dst=Endpoint(*dst), flags=flags, **kw)


class TestSimulator:
    def test_event_fires_at_its_timestamp(self):
        sim = Simulator()
        fired = []
        sim.schedule(5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5]

    def test_ties_fire_in_insertion_order(self):
        sim = Simulator()
        order = []
        sim.schedule(5, lambda: order.append("first"))
        sim.schedule(5, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second"]

    def test_scheduling_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule(9, lambda: None)

    def test_negative_time_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_clock_monotone_across_events(self):
        sim = Simulator()
        seen = []
        for t in (3, 1, 2):
            sim.schedule(t, lambda t=t: seen.append((t, sim.now)))
        sim.run()
        assert seen == [(1, 1), (2, 2), (3, 3)]


class TestLink:
    def test_delivery_after_one_way_delay(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, 30)
        link.send(make_packet(), lambda pkt: arrivals.append(sim.now))
        sim.run()
        assert arrivals == [30]

    def test_round_trip_is_one_rtt(self):
        # request over one 30 ms link, reply over another: reply lands at 60
        sim = Simulator()
        done = []
        back = Link(sim, 30)
        forth = Link(sim, 30)
        forth.send(make_packet(), lambda pkt: back.send(
            pkt, lambda pkt: done.append(sim.now)))
        sim.run()
        assert done == [60]

    def test_tap_sees_identical_option_bytes(self, monkeypatch,
                                             bundled_configs):
        sim = Simulator()
        received = []
        link = Link(sim, 10)
        link.tap = []
        cookie = bytes(range(16))
        link.send(make_packet(fo_kind=FoKind.COOKIE, fo_cookie=cookie),
                  received.append)
        sim.run()
        (t, seen), = link.tap
        assert t == 0
        assert seen.fo_cookie == received[0].fo_cookie == cookie
        # the tap keeps the sent packet itself, so no layer may change a
        # packet once it is sent: every bundled run's tap still reads as
        # each packet did at send time
        snapshots = []
        send = Link.send

        def snapshot_send(link, pkt, deliver):
            if link.tap is not None:
                snapshots.append((link.sim.now, astuple(pkt)))
            send(link, pkt, deliver)

        monkeypatch.setattr(Link, "send", snapshot_send)
        for cfg in bundled_configs:
            snapshots.clear()
            tap = run_scenario(cfg).tap_packets
            assert snapshots, cfg.name
            assert [(t, astuple(p)) for t, p in tap] == snapshots, \
                (cfg.name, cfg.variant)

    def test_observer_completeness(self):
        # the wire log holds everything sent over the link, in order
        sim = Simulator()
        delivered = []
        link = Link(sim, 5)
        link.tap = []
        payloads = [bytes([i]) * i for i in range(1, 8)]
        for pl in payloads:
            link.send(make_packet(payload=pl), delivered.append)
        sim.run()
        assert [p.payload for _, p in link.tap] == payloads
        assert [p.payload for p in delivered] == payloads

    def test_fifo_order_preserved(self):
        sim = Simulator()
        got = []
        link = Link(sim, 7)
        for i in range(20):
            link.send(make_packet(payload=bytes([i])),
                      lambda pkt: got.append(pkt.payload))
        sim.run()
        assert got == [bytes([i]) for i in range(20)]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Link(Simulator(), -1)


class TestEndpointPacket:
    def test_port_range_enforced(self):
        with pytest.raises(ValueError):
            Endpoint("10.0.0.1", 0)
        with pytest.raises(ValueError):
            Endpoint("10.0.0.1", 65536)

    def test_cookie_option_must_be_16_bytes(self):
        with pytest.raises(ValueError):
            make_packet(fo_kind=FoKind.COOKIE, fo_cookie=b"short")

    def test_cookie_only_with_cookie_kind(self):
        for kind in (FoKind.ABSENT, FoKind.REQUEST):
            with pytest.raises(ValueError, match="only valid"):
                make_packet(fo_kind=kind, fo_cookie=bytes(16))

    def test_copy_is_independent(self):
        pkt = make_packet(payload=b"data")
        dup = pkt.copy()
        dup.payload = b"other"
        assert pkt.payload == b"data"


# The NAT gateway and the load balancer are parts of stack's GatewayNode
# and ServerPool; they are tested here on their own, outside any run.

def gateway(public_ip="192.0.2.1"):
    world = World(1, 30, 30)
    return world, world.add_gateway(public_ip)


class TestNat:
    def test_fresh_mapping_and_inverse(self):
        _, gw = gateway()
        out = gw.outbound(make_packet(src=("10.0.0.2", 5000)))
        assert out.src == Endpoint("192.0.2.1", 40001)
        reply = make_packet(src=("198.51.100.1", 443), dst=("192.0.2.1", 40001),
                            flags=TcpFlags.SYN | TcpFlags.ACK)
        back = gw.inbound(reply)
        assert back.dst == Endpoint("10.0.0.2", 5000)

    def test_mapping_stable_per_local_endpoint(self):
        _, gw = gateway()
        a1 = gw.outbound(make_packet(src=("10.0.0.2", 5000)))
        a2 = gw.outbound(make_packet(src=("10.0.0.2", 5000)))
        b = gw.outbound(make_packet(src=("10.0.0.3", 5000)))
        assert a1.src == a2.src
        assert b.src.port != a1.src.port

    def test_unmapped_inbound_dropped(self):
        _, gw = gateway()
        reply = make_packet(src=("198.51.100.1", 443), dst=("192.0.2.1", 41234))
        assert gw.inbound(reply) is None

    def test_rotate_changes_wire_source_not_local(self):
        world, gw = gateway()
        gw.outbound(make_packet(src=("10.0.0.2", 5000)))
        world.readdress(gw, "192.0.2.99")
        out = gw.outbound(make_packet(src=("10.0.0.2", 5000)))
        assert out.src == Endpoint("192.0.2.99", 40001)  # mapping persisted

    def test_rotate_to_same_ip_changes_nothing(self):
        # the gateway claims the address it holds: its entry, its mappings
        # and the connection behind them all stay
        world, gw = gateway()
        world.add_pool("shop.example", ["198.51.100.1"], (0.0,))
        client = world.add_client("alice", "10.0.0.2", TcpVariant.TFO,
                                  lifetime=None, gateway=gw)
        record = client.open_connection("shop.example", "t", "ctx", ())
        mappings = dict(gw._by_local)
        world.readdress(gw, "192.0.2.1")
        assert gw.ip == "192.0.2.1"
        assert world._holders == {"192.0.2.1": gw}
        assert gw._by_local == mappings and len(mappings) == 1
        assert len(client._conns) == 1 and record.aborted is None
        world.run()
        assert record.t_done is not None


def lb(ips, *probs):
    return World(1, 30, 30).add_pool("h", ips, probs)


class TestLoadBalancer:
    def test_miss_fraction_matches_probability(self):
        # reference first-revisit rate over one million draws
        model = lb(["a", "b"], 0.393)
        uniforms = Uniforms(SeedTree(7), "lb")
        misses = sum(
            1 for _ in range(1_000_000)
            if model.select(1, uniforms, held_ips=["a"]) == "b")
        assert abs(misses / 1_000_000 - 0.393) < 0.002

    def test_zero_probability_always_matches(self):
        model = lb(["a", "b"], 0.0)
        uniforms = Uniforms(SeedTree(1), "lb")
        for _ in range(200):
            assert model.select(1, uniforms, held_ips=["a"]) == "a"

    def test_probability_one_never_matches(self):
        model = lb(["a", "b"], 1.0)
        uniforms = Uniforms(SeedTree(1), "lb")
        for _ in range(200):
            assert model.select(1, uniforms, held_ips=["a"]) == "b"

    def test_first_visit_not_eligible(self):
        # no uniform either: none is taken, none skipped
        model = lb(["a", "b"], 0.5)
        uniforms = Uniforms(SeedTree(0), "lb")
        assert model.select(0, uniforms, held_ips=["b"]) == "a"
        # so the first fractional call reads the stream's first uniform
        stream = SeedTree(0).stream("lb")
        assert ([uniforms.below(0.5) for _ in range(64)]
                == [u < 0.5 for u in stream.random(64)])

    def test_miss_with_every_address_held_serves_first_held(self):
        uniforms = Uniforms(SeedTree(0), "lb")
        assert lb(["a"], 1.0).select(1, uniforms, held_ips=["a"]) == "a"
        assert lb(["a", "b"], 1.0).select(1, uniforms, held_ips=["a", "b"]) == "a"

    def test_held_ips_may_be_a_one_shot_iterable(self):
        model = lb(["a", "b", "c"], 0.0)
        held = ["b", "c"]
        from_list = model.select(1, Uniforms(SeedTree(0), "lb"), held)
        from_gen = model.select(1, Uniforms(SeedTree(0), "lb"),
                                (ip for ip in held))
        assert from_gen == from_list == "c"

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1),
           probs=st.lists(st.one_of(
               st.sampled_from([0.0, 1.0]),
               st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
               min_size=1, max_size=4),
           n_ips=st.integers(1, 3),
           held_sets=st.lists(st.sets(st.sampled_from("abc")), max_size=8))
    # decided revisits skip two uniforms before the stream is first derived
    @example(seed=5, probs=[0.0, 1.0, 0.5], n_ips=2,
             held_sets=[set(), {"a"}, {"a"}, {"a"}, {"a", "b"}])
    def test_uniforms_select_as_a_uniform_at_every_eligible_revisit(
            self, seed, probs, n_ips, held_sets):
        model = lb(list("abc"[:n_ips]), *probs)
        ours = Uniforms(SeedTree(seed), "lb", "c1", "h")
        # the reference computes a uniform at every eligible revisit
        rng = SeedTree(seed).stream("lb", "c1", "h")
        reference = SimpleNamespace(below=lambda p: rng.random() < p)
        for revisit, held in enumerate(held_sets):
            assert (model.select(revisit, ours, held)
                    == model.select(revisit, reference, held))
        # both have taken the same number of uniforms
        assert ([ours.below(0.5) for _ in range(64)]
                == [reference.below(0.5) for _ in range(64)])

    def test_validation(self):
        with pytest.raises(ValueError):
            lb([], 0.1)
        with pytest.raises(ValueError):
            lb(["a"], 1.5)
        with pytest.raises(ValueError):
            lb(["a"])
