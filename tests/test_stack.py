"""End-to-end handshake flows over the simulated network."""

import gc
import weakref
from importlib import resources

import pytest

from fopsim.adversary import cleartext_cookie_counts, observe
from fopsim.capture import capture_bytes
from fopsim.config import ScenarioConfig, load_config
from fopsim.scenario import build_world, run_scenario
from fopsim.simcore import (Endpoint, FoKind, Link, Packet, SimulationError,
                            Simulator, TcpFlags)
from fopsim.stack import (CLIENT_PORTS, NAT_PORTS, ClientHost, GatewayNode,
                          ServerPool, World, schedule_fetch)
from fopsim.transport import TcpVariant

D = 30  # one-way delay used throughout


def one_host_world(variant, nat=False):
    world = World(1, D, D)
    world.add_pool("shop.example", ["198.51.100.1"], (0.0,))
    if nat:
        gw = world.add_gateway("192.0.2.1")
        client = world.add_client("alice", "10.0.0.2", variant,
                                  lifetime=None, gateway=gw)
        return world, client, gw
    client = world.add_client("alice", "203.0.113.1", variant, lifetime=None,
                              gateway=None)
    return world, client, None


def visit(world, client, at):
    schedule_fetch(world, client, "shop.example", (), at, "t", "ctx")


def duration(record):
    return record.t_done - record.t_start


class TestRttStructure:
    @pytest.mark.parametrize("variant", list(TcpVariant))
    def test_initial_connection_takes_three_rtt(self, variant):
        world, client, _ = one_host_world(variant)
        visit(world, client, 0)
        world.run()
        assert duration(client.records[0]) == 6 * D

    def test_standard_resumed_takes_two_rtt(self):
        world, client, _ = one_host_world(TcpVariant.STANDARD)
        visit(world, client, 0)
        visit(world, client, 10_000)
        world.run()
        assert duration(client.records[1]) == 4 * D
        assert not client.records[1].zero_rtt_accepted

    @pytest.mark.parametrize("variant", [TcpVariant.TFO, TcpVariant.FOP])
    def test_accepted_abbreviated_resumption_takes_one_rtt(self, variant):
        world, client, _ = one_host_world(variant)
        visit(world, client, 0)
        visit(world, client, 10_000)
        world.run()
        record = client.records[1]
        assert duration(record) == 2 * D
        assert record.zero_rtt_accepted and record.attempted_abbreviated

    @pytest.mark.parametrize("variant", [TcpVariant.TFO, TcpVariant.FOP])
    def test_rejected_abbreviated_costs_standard_handshake(self, variant):
        # public address rotates between visits: the presented cookie no
        # longer matches, the attempt is rejected, total equals 2 RTT
        world, client, gw = one_host_world(variant, nat=True)
        visit(world, client, 0)
        world.sim.schedule(5_000, lambda: world.readdress(gw, "192.0.2.99"))
        visit(world, client, 10_000)
        world.run()
        record = client.records[1]
        assert record.attempted_abbreviated
        assert not record.zero_rtt_accepted
        assert duration(record) == 4 * D

    def test_rejected_equals_standard_resumed_duration(self):
        world, client, gw = one_host_world(TcpVariant.TFO, nat=True)
        visit(world, client, 0)
        world.sim.schedule(5_000, lambda: world.readdress(gw, "192.0.2.99"))
        visit(world, client, 10_000)
        world2, client2, _ = one_host_world(TcpVariant.STANDARD)
        visit(world2, client2, 0)
        visit(world2, client2, 10_000)
        world.run()
        world2.run()
        assert duration(client.records[1]) == duration(client2.records[1])

    def test_exchange_duration_is_multiple_of_2d(self):
        for variant in TcpVariant:
            world, client, _ = one_host_world(variant)
            for k in range(3):
                visit(world, client, k * 10_000)
            world.run()
            for record in client.records:
                assert duration(record) % (2 * D) == 0

    def test_asymmetric_delays_sum_to_rtt(self):
        world = World(1, 40, 20)
        world.add_pool("shop.example", ["198.51.100.1"], (0.0,))
        client = world.add_client("alice", "203.0.113.1", TcpVariant.STANDARD,
                                  lifetime=None, gateway=None)
        visit(world, client, 0)
        world.run()
        assert duration(client.records[0]) == 3 * 60


class TestFopFlows:
    def test_rejection_keeps_consumed_ticket_out_and_delivers_fresh_one(self):
        world, client, gw = one_host_world(TcpVariant.FOP, nat=True)
        visit(world, client, 0)
        world.sim.schedule(5_000, lambda: world.readdress(gw, "192.0.2.99"))
        visit(world, client, 10_000)
        world.run()
        # replacement plaintext cookie was not cached by the kernel
        assert client.kernel.get(client.ip, "198.51.100.1", 443) is None
        # the fresh ticket arrived sealed and is ready for the next visit
        visit(world, client, 20_000)
        world.run()
        assert client.records[2].zero_rtt_accepted

    def test_server_losing_ticket_state_falls_back_within_connection(self):
        # TCP accepts the cookie, the channel rejects the unknown ticket
        # with a retry request: the session completes as a full handshake
        # in the same connection, one round trip later
        world, client, _ = one_host_world(TcpVariant.FOP)
        pool = world.pool_for("shop.example")
        visit(world, client, 0)
        world.sim.schedule(5_000, pool.ticket_store.clear)
        visit(world, client, 10_000)
        world.run()
        record = client.records[1]
        assert record.attempted_abbreviated
        assert record.zero_rtt_accepted          # the TCP layer accepted
        assert duration(record) == 6 * D  # retry, full handshake, request
        # and a fresh ticket arrived
        assert client.tls.take("shop.example", "ctx",
                               world.sim.now, lifetime=None) is not None

    @pytest.mark.parametrize("late, offered", [(0, True), (1, False)])
    def test_ticket_age_counts_from_issue(self, late, offered):
        # the server issues the ticket with its SHLO at 3D, and the client
        # stores it one downlink delay later; the lifetime runs from 3D
        lifetime = 1_000
        world = World(1, D, D)
        world.add_pool("shop.example", ["198.51.100.1"], (0.0,))
        client = world.add_client("alice", "203.0.113.1", TcpVariant.FOP,
                                  lifetime=lifetime, gateway=None)
        visit(world, client, 0)
        visit(world, client, 3 * D + lifetime + late)
        world.run()
        assert client.records[1].attempted_abbreviated is offered

    @pytest.mark.parametrize("variant", ["fop", "standard"])
    def test_fop_host_never_presents_a_kernel_cache_cookie(self, variant):
        # a valid cookie in the host's shared kernel cache, as a tfo stack
        # would leave it, must not ride a fop or standard SYN: it would
        # link those visits to every visit that presented it
        from fopsim.cookies import mint
        from fopsim.rngtools import SeedTree
        fop = variant == "fop"
        world, client, _ = one_host_world(TcpVariant(variant))
        cookie = mint(world.pool_for("shop.example").cookie_key, client.ip,
                      SeedTree(0).stream("seeded"))
        client.kernel.set(client.ip, "198.51.100.1", 443, cookie)
        tap = world.attach_tap()
        visit(world, client, 0)
        visit(world, client, 10_000)
        world.run()
        initial, revisit = (p for _, p in tap if p.is_syn())
        assert initial.fo_kind is FoKind.ABSENT
        assert revisit.fo_kind is (FoKind.COOKIE if fop else FoKind.ABSENT)
        assert revisit.fo_cookie != cookie
        assert cookie not in cleartext_cookie_counts(tap)
        # a fop revisit is accepted on the ticket's cookie
        assert client.records[1].zero_rtt_accepted is fop
        assert client.kernel.get(client.ip, "198.51.100.1", 443) == cookie

    def test_fop_cookie_appears_in_at_most_one_syn(self):
        world, client, _ = one_host_world(TcpVariant.FOP)
        tap = world.attach_tap()
        for k in range(4):
            visit(world, client, k * 10_000)
        world.run()
        syn_cookies = [bytes(p.fo_cookie) for _, p in tap
                       if p.is_syn() and p.fo_kind is FoKind.COOKIE]
        assert len(syn_cookies) == len(set(syn_cookies)) == 3

    def test_fop_issuance_never_in_cleartext(self):
        world, client, _ = one_host_world(TcpVariant.FOP)
        tap = world.attach_tap()
        for k in range(3):
            visit(world, client, k * 10_000)
        world.run()
        # every cookie the client ever presented came out of a sealed ticket;
        # the wire shows each at most once and never inside any payload
        counts = cleartext_cookie_counts(tap)
        assert all(n == 1 for n in counts.values())
        for cookie in counts:
            assert all(cookie not in p.payload for _, p in tap)

    def test_resumption_accepted_at_different_pool_address(self):
        # miss probability 1: the revisit is served from a fresh pool
        # address; the hostname-bound cookie still authorizes 0-RTT there
        world = World(1, D, D)
        world.add_pool("shop.example", ["198.51.100.1", "198.51.100.2"], [1.0])
        client = world.add_client("alice", "203.0.113.1", TcpVariant.FOP,
                                  lifetime=None, gateway=None)
        tap = world.attach_tap()
        visit(world, client, 0)
        visit(world, client, 10_000)
        world.run()
        assert [p.dst.ip for _, p in tap if p.is_syn()] \
            == ["198.51.100.1", "198.51.100.2"]
        second = client.records[1]
        assert second.zero_rtt_accepted
        assert duration(second) == 2 * D

    def test_tfo_misses_at_different_pool_address(self):
        # same topology under plain Fast Open: fresh address, cache miss
        world = World(1, D, D)
        world.add_pool("shop.example", ["198.51.100.1", "198.51.100.2"], [1.0])
        client = world.add_client("alice", "203.0.113.1", TcpVariant.TFO,
                                  lifetime=None, gateway=None)
        visit(world, client, 0)
        visit(world, client, 10_000)
        world.run()
        second = client.records[1]
        assert not second.attempted_abbreviated
        assert duration(second) == 4 * D  # session resumption still works

    def test_no_ticket_id_reused_across_resumptions(self):
        # ticket identifiers ride resumption hellos in the clear; across a
        # whole trace each value may appear at most once
        from fopsim.tlschan import (MSG_CHLO, REC_HANDSHAKE, _decode_chlo,
                                    parse_records)
        for variant in (TcpVariant.TFO, TcpVariant.FOP, TcpVariant.STANDARD):
            world, client, _ = one_host_world(variant)
            tap = world.attach_tap()
            for k in range(5):
                visit(world, client, k * 10_000)
            world.run()
            seen = []
            for _, pkt in tap:
                if not pkt.payload:
                    continue
                for tag, body in parse_records(pkt.payload):
                    if tag == REC_HANDSHAKE and body[0] == MSG_CHLO:
                        ticket_id = _decode_chlo(body)[3]
                        if ticket_id is not None:
                            seen.append(ticket_id)
            assert len(seen) == 4, variant
            assert len(set(seen)) == len(seen), variant

    def test_wire_flow_structurally_identical_to_tfo(self):
        flows = {}
        for variant in (TcpVariant.TFO, TcpVariant.FOP):
            world, client, _ = one_host_world(variant)
            tap = world.attach_tap()
            visit(world, client, 0)
            visit(world, client, 10_000)
            world.run()
            resumed = [(int(p.flags), int(p.fo_kind),
                        len(p.fo_cookie or b""), p.ack_len > 0, bool(p.payload))
                       for t, p in tap if t >= 10_000]
            flows[variant] = resumed
        assert flows[TcpVariant.TFO] == flows[TcpVariant.FOP]


class TestTfoFlows:
    def test_initial_handshake_issues_cleartext_cookie(self):
        world, client, _ = one_host_world(TcpVariant.TFO)
        tap = world.attach_tap()
        visit(world, client, 0)
        world.run()
        synacks = [p for _, p in tap if p.is_synack()]
        assert synacks[0].fo_kind is FoKind.COOKIE

    def test_cookie_reused_across_connections(self):
        world, client, _ = one_host_world(TcpVariant.TFO)
        tap = world.attach_tap()
        for k in range(3):
            visit(world, client, k * 10_000)
        world.run()
        counts = cleartext_cookie_counts(tap)
        assert max(counts.values()) == 3  # issuance + two reuses

    def test_nat_rotation_keeps_client_attempting(self):
        # the kernel cache key uses the static local address, so the
        # abbreviated attempt still happens after the public IP changed
        world, client, gw = one_host_world(TcpVariant.TFO, nat=True)
        visit(world, client, 0)
        world.sim.schedule(5_000, lambda: world.readdress(gw, "192.0.2.99"))
        visit(world, client, 10_000)
        world.run()
        assert client.records[1].attempted_abbreviated

    def test_client_ip_change_forces_initial_flow(self):
        world, client, _ = one_host_world(TcpVariant.TFO)
        visit(world, client, 0)
        world.sim.schedule(5_000, lambda: world.readdress(client, "203.0.113.99"))
        visit(world, client, 10_000)
        world.run()
        assert not client.records[1].attempted_abbreviated
        assert duration(client.records[1]) == 4 * D  # session still resumes

    def test_misses_go_on_once_every_pool_address_holds_a_cookie(self):
        world = World(1, D, D)
        world.add_pool("shop.example", ["198.51.100.1", "198.51.100.2"],
                       (0.393,))
        client = world.add_client("alice", "203.0.113.1", TcpVariant.TFO,
                                  lifetime=None, gateway=None)
        for k in range(12):
            visit(world, client, k * 10_000)
        world.run()
        assert len(client.records) == 12
        assert all(r.t_done is not None for r in client.records)

    @pytest.mark.parametrize("holder", ["client", "local", "gateway"])
    def test_change_ip_onto_address_in_use_fails_loudly(self, holder):
        # alice taking bob's address used to reroute bob's replies to her,
        # leaving both of bob's connections unfinished and unreported
        world = World(1, D, D)
        world.add_pool("shop.example", ["198.51.100.1"], (0.0,))
        gw = world.add_gateway("192.0.2.1")
        behind = gw if holder == "local" else None
        alice = world.add_client("alice", "10.0.0.2" if behind
                                 else "203.0.113.10", TcpVariant.TFO,
                                 lifetime=None, gateway=behind)
        bob = world.add_client("bob", "10.0.0.3" if behind
                               else "203.0.113.11", TcpVariant.TFO,
                               lifetime=None, gateway=behind)
        target = "192.0.2.1" if holder == "gateway" else bob.ip
        world.sim.schedule(100, lambda: world.readdress(alice, target))
        for at in (0, 1_000):
            visit(world, bob, at)
        with pytest.raises(SimulationError, match="in use"):
            world.run()
        assert alice.ip != target

    def test_gateway_rotation_onto_client_address_fails_loudly(self):
        world, alice, gw = one_host_world(TcpVariant.TFO, nat=True)
        bob = world.add_client("bob", "203.0.113.11", TcpVariant.TFO,
                               lifetime=None, gateway=None)
        world.sim.schedule(100, lambda: world.readdress(gw, bob.ip))
        for at in (0, 1_000):
            visit(world, bob, at)
        with pytest.raises(SimulationError, match="in use"):
            world.run()
        assert gw.ip == "192.0.2.1"

    def test_second_client_at_address_in_use_rejected(self):
        # a second holder would take over the first one's replies,
        # leaving its connection unfinished and nothing in ``dropped``
        world, alice, _ = one_host_world(TcpVariant.TFO)
        with pytest.raises(SimulationError, match="in use"):
            world.add_client("bob", alice.ip, TcpVariant.TFO, lifetime=None,
                             gateway=None)
        assert "bob" not in world.clients
        visit(world, alice, 0)
        world.run()
        assert duration(alice.records[0]) == 6 * D

    def test_second_client_with_an_id_in_use_rejected(self):
        world, alice, _ = one_host_world(TcpVariant.TFO)
        with pytest.raises(ValueError, match="duplicate client id"):
            world.add_client("alice", "203.0.113.9", TcpVariant.TFO,
                             lifetime=None, gateway=None)
        assert world.clients == {"alice": alice}
        assert world._holders == {alice.ip: alice}

    def test_hostname_no_pool_serves_raises(self):
        world, _, _ = one_host_world(TcpVariant.TFO)
        with pytest.raises(KeyError, match="no pool serves"):
            world.pool_for("other.example")

    def test_second_pool_at_address_in_use_rejected(self):
        # the second pool would take every packet sent to the address,
        # and strand the first pool's clients with a "tls-error"
        world, alice, _ = one_host_world(TcpVariant.TFO)
        with pytest.raises(ValueError, match="already served"):
            world.add_pool("two.example", ["198.51.100.1"], (0.0,))
        assert (world._pools_by_ip["198.51.100.1"]
                is world.pool_for("shop.example"))
        visit(world, alice, 0)
        world.run()
        assert duration(alice.records[0]) == 6 * D

    @pytest.mark.parametrize("hostnames, ips, error", [
        ("two.example", ["198.51.100.1"], "already served"),
        (("three.example", "shop.example"), ["198.51.100.3"], "registered"),
        (("four.example", "four.example"), ["198.51.100.4"], "registered"),
        ("five.example", ["198.51.100.5", "198.51.100.5"], "already served"),
    ], ids=["address-in-use", "hostname-in-use", "hostname-repeated",
            "address-repeated"])
    def test_rejected_pool_registers_nothing(self, hostnames, ips, error):
        world, alice, _ = one_host_world(TcpVariant.TFO)
        with pytest.raises(ValueError, match=error):
            world.add_pool(hostnames, ips, (0.0,))
        assert len({*world._pools_by_hostname.values(),
                    *world._pools_by_ip.values()}) == 1
        assert list(world._pools_by_hostname) == ["shop.example"]
        assert list(world._pools_by_ip) == ["198.51.100.1"]
        visit(world, alice, 0)
        world.run()
        assert duration(alice.records[0]) == 6 * D

    def test_gateway_at_client_address_rejected(self):
        world, alice, _ = one_host_world(TcpVariant.TFO)
        with pytest.raises(SimulationError, match="in use"):
            world.add_gateway(alice.ip)
        assert world._holders == {alice.ip: alice}


def address_change_config(change, at_ms, variant):
    """One client, one pool, a visit at 0 ms and a revisit at 5000 ms; the
    client's address moves at ``at_ms``: its gateway rotates, or the
    client changes its public or NAT-local address."""
    nat = change in ("gateway", "nat_local")
    cfg = {"version": 1, "name": change, "variant": variant.value, "seed": 1,
           "clients": [{"id": "c", "ip": "10.0.0.2" if nat else "203.0.113.1",
                        "behind_nat": nat}],
           "nat": {"public_ip": "192.0.2.1"} if nat else None,
           "hosts": [{"hostnames": ["shop.example"], "ips": ["198.51.100.1"]}],
           "visits": [{"at_ms": at, "client": "c", "hostname": "shop.example"}
                      for at in (0, 5_000)]}
    if change == "gateway":
        cfg["nat"]["rotations"] = [{"at_ms": at_ms, "new_ip": "192.0.2.9"}]
    else:
        new_ip = "10.0.0.9" if nat else "203.0.113.9"
        cfg["events"] = [{"at_ms": at_ms, "client": "c", "kind": "change_ip",
                          "new_ip": new_ip}]
    return ScenarioConfig.from_dict(cfg)


class TestAddressChanges:
    # at 1 ms the SYN is still on its way to the pool; at 45 ms the pool
    # holds the connection and its SYN-ACK is on its way back
    @pytest.mark.parametrize("at_ms", [1, 45])
    @pytest.mark.parametrize("variant", list(TcpVariant))
    @pytest.mark.parametrize("change", ["gateway", "public", "nat_local"])
    def test_change_aborts_stranded_connection(self, change, variant, at_ms):
        world = build_world(address_change_config(change, at_ms, variant))
        world.run()
        first, revisit = world.all_records()
        assert first.aborted == "address-changed" and first.t_done is None
        assert revisit.aborted is None and revisit.t_done is not None
        assert [len(c._conns) for c in world.clients.values()] == [0]
        assert [len(pool._conns)
                for pool in world._pools_by_hostname.values()] == [0]
        # the SYN-ACK is dropped: the old public address has no route, a
        # host no connection left to take it, and a gateway no mapping,
        # which the aborted connection released
        reason = "no-route" if at_ms == 1 else "no-connection"
        if change == "nat_local" or (change == "gateway" and at_ms == 45):
            reason = "nat-unmapped"
        assert [r for _, p, r in world.dropped if p.is_synack()] == [reason]

    def test_change_at_equal_address_keeps_connection(self):
        world, client, _ = one_host_world(TcpVariant.TFO)
        visit(world, client, 0)
        world.sim.schedule(1, lambda: world.readdress(client, client.ip))
        world.run()
        assert duration(client.records[0]) == 6 * D

    def test_client_tls_error_releases_the_pool_connection(self, monkeypatch):
        # the client gives up on a SHLO it cannot parse; the pool, waiting
        # for the request that will never come, lets the connection go
        from fopsim.tlschan import ChannelError, ClientSession

        def fail(self, data):
            raise ChannelError("forced")
        monkeypatch.setattr(ClientSession, "on_bytes", fail)
        world, client, _ = one_host_world(TcpVariant.STANDARD)
        visit(world, client, 0)
        world.run()
        assert client.records[0].aborted == "tls-error"
        pool = world.pool_for("shop.example")
        assert client._conns == {} and pool._conns == {}

    @pytest.mark.parametrize("variant, resumed", [("fop", 2 * D),
                                                  ("standard", 4 * D)])
    def test_ticket_before_a_failing_record_is_kept(self, monkeypatch,
                                                    variant, resumed):
        # a corrupt record follows the SHLO's ticket record: the client
        # gives the connection up, but the ticket it opened is stored and
        # offered on the next visit
        from fopsim.tlschan import REC_APP, ServerSession, frame
        on_chlo = ServerSession._on_chlo
        monkeypatch.setattr(ServerSession, "_on_chlo", lambda self, *a:
                            on_chlo(self, *a) + frame(REC_APP, b"junk"))
        world, client, _ = one_host_world(TcpVariant(variant))
        visit(world, client, 0)
        world.run()
        assert client.records[0].aborted == "tls-error"
        pool = world.pool_for("shop.example")
        assert client._conns == {} and pool._conns == {}
        key = ("shop.example", "ctx" if variant == "fop" else None)
        (ticket,) = client.tls._entries[key]
        assert bytes(ticket.ticket_id) in pool.ticket_store
        monkeypatch.undo()
        visit(world, client, 10_000)
        world.run()
        revisit = client.records[1]
        assert revisit.aborted is None and duration(revisit) == resumed
        assert revisit.attempted_abbreviated is (variant == "fop")
        # the pool redeemed it, and the client holds the revisit's ticket
        assert bytes(ticket.ticket_id) not in pool.ticket_store
        (fresh,) = client.tls._entries[key]
        assert fresh.issued_at > ticket.issued_at


class TestNatOpacity:
    def test_no_local_address_on_public_side(self):
        world, client, gw = one_host_world(TcpVariant.TFO, nat=True)
        tap = world.attach_tap()
        for k in range(3):
            visit(world, client, k * 10_000)
        world.run()
        assert tap
        for _, pkt in tap:
            assert not pkt.src.ip.startswith("10.")
            assert not pkt.dst.ip.startswith("10.")

    def test_replies_reach_client_through_gateway(self):
        world, client, _ = one_host_world(TcpVariant.STANDARD, nat=True)
        visit(world, client, 0)
        world.run()
        assert duration(client.records[0]) == 6 * D


class TestDeterminism:
    def run_once(self, seed, tap_first=False):
        world = World(seed, D, D)
        tap = world.attach_tap() if tap_first else None
        world.add_pool("shop.example", ["198.51.100.5", "198.51.100.6"], [0.4])
        world.add_pool("cdn.example", ["198.51.100.7"], (0.0,))
        gw = world.add_gateway("192.0.2.1")
        alice = world.add_client("alice", "10.0.0.2", TcpVariant.TFO,
                                 lifetime=None, gateway=gw)
        bob = world.add_client("bob", "203.0.113.3", TcpVariant.FOP,
                               lifetime=None, gateway=None)
        if tap is None:
            tap = world.attach_tap()
        for k in range(3):
            schedule_fetch(world, alice, "shop.example", (), k * 7_000,
                           "a", "a")
            schedule_fetch(world, bob, "shop.example", ["cdn.example"],
                           k * 9_000 + 500, "b", "b")
        world.run()
        durations = tuple(duration(r) for r in world.all_records())
        return capture_bytes(tap), durations

    def test_identical_seed_gives_identical_trace(self):
        assert self.run_once(42) == self.run_once(42)

    def test_different_seed_changes_bytes(self):
        assert self.run_once(42)[0] != self.run_once(43)[0]

    def test_tap_attached_first_logs_hosts_added_later(self):
        # every host sends on the World's two links, the only ones it has
        assert self.run_once(42, tap_first=True) == self.run_once(42)
        world, client, gw = one_host_world(TcpVariant.TFO, nat=True)
        links = [[v for v in vars(part).values() if isinstance(v, Link)]
                 for part in (world, client, gw)]
        assert links == [[world.uplink, world.downlink], [], []]


class TestServerGuards:
    def test_syn_payload_never_delivered_without_valid_cookie(self):
        from fopsim.simcore import Endpoint, Packet
        world, client, _ = one_host_world(TcpVariant.TFO)
        server = world.pool_for("shop.example")
        tap = world.attach_tap()
        forged = Packet(src=Endpoint("203.0.113.1", 50009),
                        dst=Endpoint("198.51.100.1", 443),
                        flags=TcpFlags.SYN, fo_kind=FoKind.COOKIE,
                        fo_cookie=b"\x00" * 16, payload=b"evil")
        server.receive(forged)
        (obs,) = world.host_observations()
        assert server._conns[forged.src].issued_cookies is obs.issued_cookies
        assert obs.presented_cookie == b"\x00" * 16
        assert len(obs.issued_cookies) == 1  # a replacement: the cookie failed
        # the payload never reached the channel: no SHLO rides the SYN-ACK
        ((_, synack),) = tap
        assert synack.ack_len == 0 and synack.payload == b""

    def test_syn_whose_flight_fails_is_still_observed(self):
        # the pool validated the SYN's cookie before its data failed to
        # parse, so the SYN is an observation like any other
        from fopsim.rngtools import SeedTree
        from fopsim.simcore import Endpoint, Packet
        from fopsim.cookies import mint
        world, _, _ = one_host_world(TcpVariant.TFO)
        pool = world.pool_for("shop.example")
        src = Endpoint("203.0.113.1", 50009)
        cookie = mint(pool.cookie_key, src.ip, SeedTree(0).stream("forge"))
        syn = Packet(src=src, dst=Endpoint("198.51.100.1", 443),
                     flags=TcpFlags.SYN, fo_kind=FoKind.COOKIE,
                     fo_cookie=cookie, payload=b"\x01\x00")
        pool.receive(syn)
        (obs,) = world.host_observations()
        assert obs.presented_cookie == cookie
        assert world.dropped == [(0, syn, "tls-error")]
        assert src not in pool._conns

    def test_ticket_recorded_when_a_later_record_fails(self):
        # the CHLO is answered with a sealed ticket, then the junk record
        # fails to authenticate: the ticket was issued all the same
        from fopsim.cookies import validate
        from fopsim.rngtools import SeedTree
        from fopsim.simcore import Endpoint, Packet
        from fopsim.tlschan import (REC_APP, ClientSession, ClientTlsCache,
                                    frame)
        world, _, _ = one_host_world(TcpVariant.TFO)
        pool = world.pool_for("shop.example")
        src, dst = Endpoint("203.0.113.1", 50009), Endpoint("198.51.100.1", 443)
        session = ClientSession("shop.example", SeedTree(0).stream("forge"),
                                ClientTlsCache(), None, fop=True,
                                ticket=None)
        data = Packet(src=src, dst=dst, flags=TcpFlags.ACK,
                      payload=session.first_flight() + frame(REC_APP, b"junk"))
        pool.receive(Packet(src=src, dst=dst, flags=TcpFlags.SYN))
        pool.receive(data)
        (obs,) = world.host_observations()
        (cookie,) = obs.issued_cookies
        assert validate(cookie, pool.cookie_key, src.ip)
        assert world.dropped == [(0, data, "tls-error")]
        assert src not in pool._conns

    @pytest.mark.parametrize("path", ["data", "syn_data", "zero_key_share"])
    def test_malformed_flight_aborts_only_its_connection(self, path):
        # a 2-byte flight is shorter than one TLS record header; an
        # all-zero key share has no X25519 shared secret
        from fopsim.rngtools import SeedTree
        from fopsim.simcore import Endpoint, Packet
        from fopsim.tlschan import REC_HANDSHAKE, _encode_chlo, frame
        from fopsim.cookies import mint
        world, client, _ = one_host_world(TcpVariant.FOP)
        server = world.pool_for("shop.example")
        src = Endpoint("203.0.113.1", 50009)
        dst = Endpoint("198.51.100.1", 443)
        if path == "syn_data":
            cookie = mint(server.cookie_key, src.ip,
                          SeedTree(0).stream("forge"))
            flights = [Packet(src=src, dst=dst, flags=TcpFlags.SYN,
                              fo_kind=FoKind.COOKIE, fo_cookie=cookie,
                              payload=b"\x01\x00")]
        else:
            payload = b"\x01\x00"
            if path == "zero_key_share":
                payload = frame(REC_HANDSHAKE, _encode_chlo(
                    0, bytes(16), bytes(32), None, "shop.example"))
            flights = [Packet(src=src, dst=dst, flags=TcpFlags.SYN),
                       Packet(src=src, dst=dst, flags=TcpFlags.ACK,
                              payload=payload)]
        for t, pkt in enumerate(flights):
            world.sim.schedule(t, lambda pkt=pkt: server.receive(pkt))
        visit(world, client, 10)
        world.run()
        last = len(flights) - 1
        expected = [(last, flights[last], "tls-error")]
        if path != "syn_data":
            # the SYN-ACK answering the forged SYN reaches alice's host,
            # which has no connection on that port
            expected.append((D, Packet(src=dst, dst=src,
                                       flags=TcpFlags.SYN | TcpFlags.ACK),
                             "no-connection"))
        # so does the pool's RST for the failed flight, which is not answered
        expected.append((last + D, Packet(src=dst, dst=src,
                                          flags=TcpFlags.RST),
                         "no-connection"))
        assert [(t, pkt, reason) for t, pkt, reason in world.dropped] \
            == expected
        assert src not in server._conns
        assert duration(client.records[0]) == 6 * D  # the run went on

    @pytest.mark.parametrize("nat", [False, True], ids=["public", "nat"])
    @pytest.mark.parametrize("variant", list(TcpVariant))
    def test_pool_tls_error_resets_the_client(self, monkeypatch, variant,
                                              nat):
        # the pool gives up on a flight it cannot parse and sends a RST,
        # which ends the client's connection instead of leaving it waiting;
        # a tfo revisit's flight fails in its SYN, before any SYN-ACK
        from fopsim.tlschan import ChannelError, ServerSession

        def fail(self, data, now):
            raise ChannelError("forced")
        monkeypatch.setattr(ServerSession, "on_bytes", fail)
        world, client, gw = one_host_world(variant, nat=nat)
        visit(world, client, 0)
        visit(world, client, 10_000)
        world.run()  # raises on a connection left open
        assert [r.aborted for r in client.records] == ["reset", "reset"]
        assert [reason for _, _, reason in world.dropped] == ["tls-error"] * 2
        assert client._conns == {}
        assert world.pool_for("shop.example")._conns == {}
        assert gw is None or gw._by_local == {}

    def test_data_without_connection_listed_as_dropped(self):
        # a bare ACK, as after a 0-RTT answer, needs no connection
        from fopsim.simcore import Endpoint, Packet
        world, _, _ = one_host_world(TcpVariant.TFO)
        src, dst = Endpoint("203.0.113.9", 50001), Endpoint("198.51.100.1", 443)
        data = Packet(src=src, dst=dst, flags=TcpFlags.ACK, payload=b"x")
        pool = world.pool_for("shop.example")
        pool.receive(Packet(src=src, dst=dst, flags=TcpFlags.ACK))
        pool.receive(data)
        # a packet to an address no pool serves has no route
        stray = Packet(src=src, dst=Endpoint("192.0.2.1", 443),
                       flags=TcpFlags.SYN)
        world._arrive_public(stray)
        assert world.dropped == [(0, data, "no-connection"),
                                 (0, stray, "no-route")]

    def test_segment_to_a_closed_port_draws_one_rst_and_a_rst_none(self):
        # RFC 9293 §3.10.7.1: a segment for no connection is answered with
        # a RST, and a RST, whatever else it carries, is never answered
        world, _, _ = one_host_world(TcpVariant.TFO)
        tap = world.attach_tap()
        server = Endpoint("198.51.100.1", 443)
        closed = Endpoint("203.0.113.1", 50001)
        for flags in (TcpFlags.SYN | TcpFlags.ACK, TcpFlags.RST,
                      TcpFlags.SYN | TcpFlags.RST):
            world.send_to_client(Packet(src=server, dst=closed, flags=flags))
        world.run()
        assert ([reason for _, _, reason in world.dropped]
                == ["no-connection"] * 3)
        assert [pkt for _, pkt in tap if pkt.src == closed] == [
            Packet(src=closed, dst=server, flags=TcpFlags.RST)]
        assert observe(tap) == []

    def test_rst_releases_the_session_it_names(self):
        world, client, _ = one_host_world(TcpVariant.STANDARD)
        pool = world.pool_for("shop.example")
        src, dst = Endpoint(client.ip, 50001), Endpoint("198.51.100.1", 443)
        pool.receive(Packet(src=src, dst=dst, flags=TcpFlags.SYN))
        assert src in pool._conns
        pool.receive(Packet(src=src, dst=dst, flags=TcpFlags.RST))
        assert pool._conns == {} and world.dropped == []

    def test_run_fails_on_connection_neither_finished_nor_aborted(
            self, monkeypatch):
        # a server that never answers leaves the connection open forever
        from fopsim.tlschan import ServerSession
        monkeypatch.setattr(ServerSession, "on_bytes",
                            lambda self, data, now: b"")
        world, client, _ = one_host_world(TcpVariant.STANDARD)
        visit(world, client, 0)
        with pytest.raises(SimulationError, match=r"aborted: \[1\]"):
            world.run()
        assert client.records[0].t_done is None

    def test_run_fails_on_state_left_after_its_connections(self):
        world, client, gw = one_host_world(TcpVariant.TFO, nat=True)
        visit(world, client, 0)
        session = Endpoint("203.0.113.9", 50001)
        world.pool_for("shop.example")._conns[session] = None
        gw.public_endpoint(Endpoint("10.0.0.2", 60000))
        with pytest.raises(SimulationError) as err:
            world.run()
        assert str(err.value) == (
            "state left after the run: ["
            "\"gateway mapping Endpoint(ip='10.0.0.2', port=60000)\", "
            "\"shop.example session Endpoint(ip='203.0.113.9', port=50001)\"]")
        # the visit itself released everything it held
        assert client.records[0].t_done is not None


class TestBurstsAndMixing:
    def test_burst_without_enough_tickets_falls_back_gracefully(self):
        world, client, _ = one_host_world(TcpVariant.FOP)
        visit(world, client, 0)
        visit(world, client, 10_000)
        visit(world, client, 10_000)  # cache exhausted
        world.run()
        second, third = client.records[1], client.records[2]
        assert second.zero_rtt_accepted
        assert not third.attempted_abbreviated  # initial flow, still completes
        assert duration(third) == 6 * D

    def test_mixed_variant_clients_share_a_pool_without_interference(self):
        world = World(1, D, D)
        world.add_pool("shop.example", ["198.51.100.1"], (0.0,))
        clients = {variant: world.add_client(variant.value,
                                             f"203.0.113.{i + 1}", variant,
                                             lifetime=None, gateway=None)
                   for i, variant in enumerate(TcpVariant)}
        for k in range(3):
            for variant, client in clients.items():
                schedule_fetch(world, client, "shop.example", (), k * 10_000,
                               variant.value, "ctx")
        world.run()
        expected_revisit = {TcpVariant.STANDARD: 4 * D,
                            TcpVariant.TFO: 2 * D, TcpVariant.FOP: 2 * D}
        for variant, client in clients.items():
            assert duration(client.records[0]) == 6 * D
            for record in client.records[1:]:
                assert duration(record) == expected_revisit[variant], variant


def weak_parts(world):
    """Weak references to ``world``, one of its clients, one of its pools
    and its gateway, if it has one."""
    parts = [world, next(iter(world.clients.values())),
             next(iter(world._pools_by_hostname.values()))]
    return [weakref.ref(part) for part in parts + world.gateways]


@pytest.fixture
def no_gc():
    """Only reference counting frees objects inside the test."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class TestRetainedState:
    @pytest.mark.parametrize("variant", list(TcpVariant))
    def test_fetch_pair_releases_finished_connections(self, monkeypatch,
                                                      variant):
        # covers a 0-RTT answer inside the SYN-ACK, a load-balancer miss
        # and a full handshake whose response follows the SYN-ACK
        from fopsim import scenario
        from fopsim.experiments import table4
        worlds = []

        class Recorded(World):
            def __init__(self, *args, **kw):
                super().__init__(*args, **kw)
                worlds.append(self)

        monkeypatch.setattr(scenario, "World", Recorded)
        table4.run_fetch_pair(7, (0.393,) * 20, D, D, variant)
        (world,) = worlds
        records = world.all_records()
        assert len(records) == 40
        assert all(r.t_done is not None and not r.aborted for r in records)
        assert [len(c._conns) for c in world.clients.values()] == [0]
        assert sum(len(pool._conns)
                   for pool in world._pools_by_hostname.values()) == 0

    # the World owns its hosts, pools and gateway, and every edge back up
    # is weak: with the cyclic collector off, all of them go with the
    # last outside reference to the World
    @pytest.mark.parametrize("run", [True, False], ids=["run", "never-run"])
    @pytest.mark.parametrize("name", [
        "nat_rotation_tfo.json", "nat_rotation_fop.json",
        "shared_nat_two_clients.json", "privacy/nat_rotation.json"])
    def test_scenario_world_freed(self, no_gc, name, run):
        # a World never run still holds its rotations and visits
        cfg = load_config(resources.files("fopsim").joinpath(f"configs/{name}"))
        world = run_scenario(cfg).world if run else build_world(cfg)
        refs = weak_parts(world)
        assert len(refs) == 4
        del world
        assert [ref() for ref in refs] == [None] * 4

    @pytest.mark.parametrize("variant", list(TcpVariant))
    def test_fetch_pair_world_freed(self, no_gc, monkeypatch, variant):
        from fopsim import scenario
        from fopsim.experiments import table4
        refs = []

        class Recorded(World):
            def run(self):
                super().run()
                refs.extend(weak_parts(self))

        monkeypatch.setattr(scenario, "World", Recorded)
        table4.run_fetch_pair(7, (0.393,) * 20, D, D, variant)
        assert len(refs) == 3
        assert [ref() for ref in refs] == [None] * 3

    @pytest.mark.parametrize("change", ["public", "nat_local"])
    def test_world_with_aborted_connection_freed(self, no_gc, change):
        result = run_scenario(address_change_config(change, 45, TcpVariant.TFO))
        assert result.world.all_records()[0].aborted == "address-changed"
        refs = weak_parts(result.world)
        del result
        assert [ref() for ref in refs] == [None] * len(refs)

    def test_world_with_open_connection_freed(self, no_gc, monkeypatch):
        # a run that fails leaves its connection open, and the open
        # connection holds its host only weakly
        from fopsim.tlschan import ServerSession
        monkeypatch.setattr(ServerSession, "on_bytes",
                            lambda self, data, now: b"")
        world, client, _ = one_host_world(TcpVariant.STANDARD)
        visit(world, client, 0)
        with pytest.raises(SimulationError, match="aborted"):
            world.run()
        assert len(client._conns) == 1
        refs = weak_parts(world)
        del world, client
        assert [ref() for ref in refs] == [None] * 3

    def test_host_outliving_its_world_raises(self, no_gc):
        world, client, _ = one_host_world(TcpVariant.TFO)
        del world
        with pytest.raises(ReferenceError):
            client.open_connection("shop.example", "t", "ctx", ())


# Every attribute of the stack's stateful objects, as a run leaves them, is
# fixed when the World is built, held by ``World.state()`` under its own
# name less any leading underscore, or outside the state: empty whenever
# the World is quiescent, an address map that ``World.load`` rebuilds
# through ``readdress``, or the event loop's tie-break count, which orders
# only its own World's events. An attribute added later fails the guard
# until the state holds it or it is listed here.
FIXED_AT_BUILD = {
    World: {"sim", "seeds", "uplink", "downlink", "clients", "gateways",
            "_pools_by_hostname", "_pools_by_ip"},
    Simulator: set(),
    Link: {"sim", "one_way_delay"},
    ClientHost: {"world", "client_id", "variant", "lifetime", "gateway",
                 "_sender"},
    ServerPool: {"world", "hostnames", "ips", "failures", "cookie_key",
                 "_tcp"},
    GatewayNode: {"world"},
}
OUTSIDE_STATE = {
    World: {"_holders"},
    Simulator: {"_heap", "_seq"},
    Link: set(),
    ClientHost: {"_conns"},
    ServerPool: {"_conns"},
    GatewayNode: {"_by_local", "_by_port", "locals"},
}


class TestRunStateGuard:
    @staticmethod
    def held(world):
        """The World and every stateful object under it, each with the
        names ``world.state()`` holds for it."""
        state = world.state()
        parts = {world: state.keys() - {"now", "tap", "clients", "gateways",
                                        "pools"},
                 world.sim: {"now"}, world.uplink: {"tap"},
                 world.downlink: {"tap"}}
        parts.update((world.clients[client_id], saved.keys())
                     for client_id, saved in state["clients"].items())
        parts.update((gateway, saved.keys()) for gateway, saved
                     in zip(world.gateways, state["gateways"], strict=True))
        parts.update((world.pool_for(hostname), saved.keys())
                     for hostname, saved in state["pools"].items())
        return parts

    def test_every_attribute_is_fixed_or_run_state(self):
        world = build_world(load_config(
            resources.files("fopsim").joinpath("configs/nat_rotation_tfo.json")))
        world.attach_tap()
        built = {id(part): {name: getattr(part, name)
                            for name in FIXED_AT_BUILD[type(part)]}
                 for part in [world, world.sim, world.uplink, world.downlink,
                              *world.clients.values(), *world.gateways,
                              *set(world._pools_by_ip.values())]}
        world.run()
        held = self.held(world)
        assert len(held) == len(built)
        assert {type(part) for part in held} == set(FIXED_AT_BUILD)
        for part, names in held.items():
            kind = type(part)
            assert not FIXED_AT_BUILD[kind] & OUTSIDE_STATE[kind], kind
            rest = set(vars(part)) - FIXED_AT_BUILD[kind] - OUTSIDE_STATE[kind]
            assert {name.lstrip("_") for name in rest} == set(names), kind
            # a fixed attribute still holds what the build gave it
            for name, value in built[id(part)].items():
                assert getattr(part, name) is value, (kind, name)


class TestFetch:
    def test_secondaries_start_after_primary_completes(self):
        world = World(1, D, D)
        world.add_pool("primary.example", ["198.51.100.1"], (0.0,))
        for i in range(3):
            world.add_pool(f"s{i}.example", [f"198.51.101.{i + 1}"], (0.0,))
        client = world.add_client("alice", "203.0.113.1", TcpVariant.STANDARD,
                                  lifetime=None, gateway=None)
        schedule_fetch(world, client, "primary.example",
                       [f"s{i}.example" for i in range(3)], 0, "f", "f")
        world.run()
        # initial: primary 6d, then all secondaries in parallel add 6d
        assert max(r.t_done for r in client.records) == 12 * D
        primary, *secondaries = client.records
        assert len(secondaries) == 3
        assert all(s.t_start == primary.t_done for s in secondaries)

    def test_primary_done_after_release_and_ticket_stored(self):
        # a secondary to the primary's own hostname opens once the primary
        # is released and its ticket stored: it resumes on that ticket
        world, client, _ = one_host_world(TcpVariant.FOP)
        schedule_fetch(world, client, "shop.example", ["shop.example"], 0,
                       "f", "f")
        world.run()
        primary, secondary = client.records
        assert primary.t_done == secondary.t_start == 6 * D
        assert secondary.truth_label == "f"
        assert secondary.attempted_abbreviated and secondary.zero_rtt_accepted
        assert duration(secondary) == 2 * D
        assert client._conns == {}

    def test_fetch_without_secondaries(self):
        world, client, _ = one_host_world(TcpVariant.STANDARD)
        schedule_fetch(world, client, "shop.example", [], 0, "f", "f")
        world.run()
        (record,) = client.records
        assert duration(record) == 6 * D


class TestClientPorts:
    def test_ports_wrap_past_the_last(self):
        world, client, _ = one_host_world(TcpVariant.TFO)
        tap = world.attach_tap()
        client._next_port = 65534
        for k in range(4):
            visit(world, client, k * 10_000)
        world.run()
        assert all(r.t_done is not None for r in client.records)
        syn_ports = [pkt.src.port for _, pkt in tap
                     if pkt.is_syn() and pkt.src.ip == client.ip]
        assert syn_ports == [65534, 65535, 50001, 50002]

    def test_port_with_an_open_connection_is_skipped(self):
        world, client, _ = one_host_world(TcpVariant.TFO)
        client._next_port = 65535
        client._conns[50001] = None  # held by a connection still open
        assert [client._take_port() for _ in range(2)] == [65535, 50002]

    def test_every_port_in_use_raises(self):
        world, client, _ = one_host_world(TcpVariant.TFO)
        client._conns.update(dict.fromkeys(CLIENT_PORTS))
        with pytest.raises(SimulationError, match="every local port"):
            client._take_port()


class TestNatPorts:
    def test_first_ports_count_up_from_nat_first_port(self):
        # each mapping is released before the next is made, yet ports
        # still count up, as they did when no mapping was ever released
        world, client, gw = one_host_world(TcpVariant.TFO, nat=True)
        tap = world.attach_tap()
        for k in range(3):
            visit(world, client, k * 10_000)
        world.run()
        syn_ports = [pkt.src.port for _, pkt in tap if pkt.is_syn()]
        assert syn_ports == [40001, 40002, 40003]
        assert gw._by_local == {} and gw._by_port == {}

    def test_ports_wrap_past_the_last(self):
        world, client, gw = one_host_world(TcpVariant.TFO, nat=True)
        tap = world.attach_tap()
        gw._next_port = 65534
        for k in range(4):
            visit(world, client, k * 10_000)
        world.run()
        assert all(r.t_done is not None for r in client.records)
        syn_ports = [pkt.src.port for _, pkt in tap if pkt.is_syn()]
        assert syn_ports == [65534, 65535, 40001, 40002]

    def test_released_ports_serve_more_endpoints_than_ports(self):
        # two local addresses' worth of client ports: more distinct local
        # endpoints than the gateway has public ports
        world, _, gw = one_host_world(TcpVariant.TFO, nat=True)
        locals_ = [Endpoint(ip, port) for ip in ("10.0.0.2", "10.0.0.3")
                   for port in CLIENT_PORTS]
        assert len(locals_) > len(NAT_PORTS)
        ports = []
        for local in locals_:
            ports.append(gw.public_endpoint(local).port)
            gw.release(local)
        assert ports[:len(NAT_PORTS)] == list(NAT_PORTS)
        assert ports[len(NAT_PORTS)] == NAT_PORTS[0]
        assert gw._by_local == {} and gw._by_port == {}

    def test_mapped_port_is_skipped(self):
        world, _, gw = one_host_world(TcpVariant.TFO, nat=True)
        held = gw.public_endpoint(Endpoint("10.0.0.2", 50001))
        gw._next_port = 65535
        ports = [gw.public_endpoint(Endpoint("10.0.0.2", 50002 + k)).port
                 for k in range(2)]
        assert held.port == 40001 and ports == [65535, 40002]

    def test_aborted_connection_releases_its_mapping(self):
        world, client, gw = one_host_world(TcpVariant.TFO, nat=True)
        visit(world, client, 0)
        world.sim.schedule(45, lambda: world.readdress(gw, "192.0.2.9"))
        world.run()
        assert client.records[0].aborted == "address-changed"
        assert gw._by_local == {} and gw._by_port == {}

    def test_every_port_mapped_raises(self):
        world, _, gw = one_host_world(TcpVariant.TFO, nat=True)
        gw._by_port.update(dict.fromkeys(NAT_PORTS))
        with pytest.raises(SimulationError,
                           match="gateway 192.0.2.1: every public port"):
            gw.public_endpoint(Endpoint("10.0.0.2", 50001))
