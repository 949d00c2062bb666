#!/usr/bin/env python3
"""Benchmark the per-connection layers of the packet engine and the
analysis that follows a tapped run.

Times one call of each piece a packet-engine trial repeats: stream
derivation, handshake randomness, X25519, a TLS handshake pair (full,
resumed, and a rejected ticket answered by a retry request), packet
construction and copy, a send on a tapped link, building the 20-pool
World of a Table 5 trial, and one whole packet-engine trial
(``run_fetch_pair`` on 20 hosts). Then the linkage-graph and capture
layers on a 400-visit tapped scenario: encoding and reading back its
capture; building its passive graph (from the tap), host graph and
address-baseline graph; the components of the address-baseline and host
graphs; and the address-baseline graph's cross-label links under the
host labels. Each figure is the best mean over several repeats.

Usage:
    python benchmarks/bench_stack.py
    python benchmarks/bench_stack.py --number 2000 --repeats 7
    python benchmarks/bench_stack.py --output results.json
"""

import argparse
import json
import os
import tempfile
import time

import numpy as np
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)

from fopsim.adversary import (
    cross_context_links,
    link_host,
    link_ip_baseline,
    link_passive,
    observe,
)
from fopsim.capture import capture_bytes, read_capture, write_capture
from fopsim.config import ScenarioConfig
from fopsim.cookies import ServerCookieKey
from fopsim.experiments.failure import REFERENCE_N_SECONDARY, REFERENCE_RTT_MS
from fopsim.experiments.table4 import run_fetch_pair, split_rtt
from fopsim.rngtools import SeedTree, random_bytes
from fopsim.scenario import run_scenario
from fopsim.simcore import Endpoint, FoKind, Link, Packet, Simulator, TcpFlags
from fopsim.stack import World
from fopsim.tlschan import (
    RESPONSE,
    ClientSession,
    ClientTlsCache,
    ServerSession,
    SessionTicket,
)
from fopsim.transport import TcpVariant


def per_call(fn, number, repeats):
    """Best mean seconds per call of ``fn()`` over ``repeats`` batches."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - start) / number)
    return best


def handshake(client, server):
    """Run one client/server session pair to the response; the client
    stores the ticket it receives in its cache."""
    out = client.on_bytes(server.on_bytes(client.first_flight(), 0))
    while out:  # the CHLO that answers a retry request, then the request
        out = client.on_bytes(server.on_bytes(out, 0))
    if client.response != RESPONSE:
        raise RuntimeError("handshake pair did not deliver the response")


def handshake_cases(rng):
    key = ServerCookieKey.generate(rng)
    store = {}
    tickets = ClientTlsCache()

    def client(ticket=None):
        return ClientSession("a.example", rng, tickets, None,
                             fop=True, ticket=ticket)

    def server():
        return ServerSession(hostnames=("a.example",), cookie_key=key,
                             ticket_store=store, rng=rng,
                             client_ip="203.0.113.1", issued_cookies=[])

    def full():
        handshake(client(), server())

    def resumed():
        ticket = tickets.take("a.example", None, 0, lifetime=None)
        if ticket is None:
            full()
            ticket = tickets.take("a.example", None, 0, lifetime=None)
        session = client(ticket)
        handshake(session, server())
        if not session.resumption_accepted:
            raise RuntimeError("server refused the resumption ticket")

    def retried():
        # a ticket the server never issued: retry request, then full
        unknown = SessionTicket(rng.bytes(16), rng.bytes(16), None, 0)
        handshake(client(unknown), server())

    return full, resumed, retried


def build_world(rng):
    # the hostnames of a Table 5 trial: a primary and 19 secondaries
    hosts = ["primary.site.example"] + [f"asset{i}.site.example"
                                        for i in range(19)]

    def build():
        world = World(int(rng.integers(0, 2**63)), 30, 30)
        for i, hostname in enumerate(hosts):
            world.add_pool(hostname, [f"198.51.{i}.1", f"198.51.{i}.2"], (0.393,))
        world.add_client("c1", "203.0.113.1", TcpVariant.TFO, lifetime=None,
                         gateway=None)
    return build


def packet_trial(rng):
    """One Table 5 trial of the packet engine: each of a primary and 19
    secondaries misses its revisit with probability 0.393, drawn anew per
    trial as 0 or 1, as ``table5_montecarlo`` draws it."""
    up, down = split_rtt(REFERENCE_RTT_MS)

    def trial():
        misses = (rng.random(REFERENCE_N_SECONDARY + 1) >= 0.607).astype(float)
        run_fetch_pair(int(rng.integers(0, 2**63)), misses.tolist(), up, down,
                       TcpVariant.TFO)
    return trial


def tapped_scenario(visits):
    """A tfo run of ``visits`` visits one minute apart: 8 clients, 4 of them
    behind one NAT gateway, visit 4 single-address hosts at random."""
    rng = np.random.default_rng(7)
    clients = [{"id": f"c{i}", "behind_nat": i < 4,
                "ip": f"10.0.0.{2 + i}" if i < 4 else f"203.0.113.{10 + i}"}
               for i in range(8)]
    hosts = [{"hostnames": [f"h{i}.example"], "ips": [f"198.51.100.{10 + i}"]}
             for i in range(4)]
    schedule = [{"at_ms": k * 60_000, "client": f"c{rng.integers(8)}",
                 "hostname": f"h{rng.integers(4)}.example"}
                for k in range(visits)]
    return run_scenario(ScenarioConfig.from_dict({
        "version": 1, "name": "bench", "variant": "tfo", "seed": 1,
        "cookie_lifetime_ms": 86_400_000, "clients": clients,
        "nat": {"public_ip": "192.0.2.1"}, "hosts": hosts,
        "visits": schedule}))


def analysis_cases(number, workdir):
    result = tapped_scenario(400)
    tap, observations = result.tap_packets, result.world.host_observations()
    labels = result.linkage("host", None)[1]
    path = os.path.join(workdir, "tap.fopcap")
    write_capture(path, tap)
    calls = number // 100
    return [
        ("capture.capture_bytes_400", lambda: capture_bytes(tap), calls),
        ("capture.read_capture_400", lambda: read_capture(path), calls),
        ("adversary.link_passive_400", lambda: link_passive(observe(tap)),
         calls),
        ("adversary.link_host_400", lambda: link_host(observations), calls),
        ("adversary.link_ip_baseline_400",
         lambda: link_ip_baseline(observations), calls),
        ("adversary.components_400", result.ip_graph.components, calls),
        ("adversary.host_components_400", result.host_graph.components, calls),
        ("adversary.cross_context_links_400",
         lambda: cross_context_links(result.ip_graph, labels), calls),
    ]


def run(number, repeats, workdir):
    rng = np.random.default_rng(1234)
    tree = SeedTree(1234)
    priv = X25519PrivateKey.from_private_bytes(rng.bytes(32))
    peer = X25519PrivateKey.from_private_bytes(rng.bytes(32)).public_key()
    peer_raw = peer.public_bytes_raw()
    src, dst = Endpoint("203.0.113.1", 50001), Endpoint("198.51.100.1", 443)
    pkt = Packet(src, dst, TcpFlags.SYN, FoKind.COOKIE, bytes(16), 0, b"x" * 200)
    full, resumed, retried = handshake_cases(rng)
    # the link's events are never run: its clock stays at 0, so each send
    # appends to the end of the event heap and of the tap
    sim = Simulator()
    link = Link(sim, 10)
    link.tap = []

    def deliver(packet):
        pass

    cases = [
        ("rngtools.stream", lambda: tree.stream("pool", "h7.example"), number),
        ("rngtools.random_bytes_48", lambda: random_bytes(rng, 48), number),
        ("numpy.Generator.bytes_48", lambda: rng.bytes(48), number),
        ("x25519.keygen", lambda: X25519PrivateKey.from_private_bytes(
            random_bytes(rng, 32)).public_key().public_bytes_raw(), number // 10),
        ("x25519.exchange", lambda: priv.exchange(
            X25519PublicKey.from_public_bytes(peer_raw)), number // 10),
        ("tlschan.full_handshake_pair", full, number // 20),
        ("tlschan.resumed_handshake_pair", resumed, number // 20),
        ("tlschan.retry_handshake_pair", retried, number // 20),
        ("simcore.packet_new", lambda: Packet(src, dst, TcpFlags.ACK,
                                              payload=b"x" * 200), number),
        ("simcore.packet_copy", pkt.copy, number),
        ("simcore.link_send_tapped", lambda: link.send(pkt, deliver), number),
        ("stack.world_20_pools", build_world(rng), number // 200),
        ("stack.packet_trial_20_hosts", packet_trial(rng), number // 200),
    ] + analysis_cases(number, workdir)
    rows = []
    print(f"{'layer':>32} {'calls':>7} {'us/call':>10}")
    for name, fn, calls in cases:
        calls = max(1, calls)
        seconds = per_call(fn, calls, repeats)
        rows.append({"name": name, "calls": calls, "seconds_per_call": seconds})
        print(f"{name:>32} {calls:>7} {seconds * 1e6:>10.2f}")
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", type=int, default=1000,
                        help="calls per repeat for the cheapest layers")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--output", type=str, default=None,
                        help="write timings as JSON")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as workdir:
        rows = run(args.number, args.repeats, workdir)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2)
        print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
