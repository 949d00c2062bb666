"""Hosts, load-balanced server pools, NAT gateways, and the simulated
internet tying the layers together.

A World owns the event loop and routes packets between client hosts
(optionally behind a NAT gateway) and server pools; a pool serves every
one of its addresses itself. Each client host runs one stack, standard,
tfo or fop, for every connection it opens. All one-way delay sits on the
World's uplink from the clients and its downlink to them, so a request/
response exchange takes exactly two link delays with no processing time.

The World owns everything below it, its event loop and links included;
every edge back up, to the World or a host's gateway, is weak, so a
World is freed as soon as its last outside reference goes, and a host
that outlives its World raises ``ReferenceError`` when it reaches for it.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import transport
from .adversary import HostObservation
from .capture import capture_bytes, decode_capture
from .cookies import ServerCookieKey
from .rngtools import SeedTree
from .simcore import (
    Endpoint,
    Link,
    Packet,
    RevisitFailureModel,
    SimTime,
    SimulationError,
    Simulator,
    TcpFlags,
)
from .tlschan import (
    ChannelError,
    ClientSession,
    ClientTlsCache,
    ServerSession,
    SessionTicket,
)
from .transport import ClientConn, TcpVariant, TfoClientCache

__all__ = [
    "ConnRecord",
    "ServerPool",
    "ClientHost",
    "GatewayNode",
    "World",
    "schedule_fetch",
]

SERVER_PORT = 443
NAT_PORTS = range(40001, 65536)  # a gateway's public ports, taken in turn
CLIENT_PORTS = range(50001, 65536)  # a client's local ports, taken in turn


def _first_free(ports: range, start: int, held) -> Optional[int]:
    """The first of ``ports`` not in ``held``, counting up from ``start``
    and wrapping past the last port to the first (RFC 6056's sequential
    selection), or None when every port is held."""
    for k in range(len(ports)):
        port = ports[(start - ports.start + k) % len(ports)]
        if port not in held:
            return port
    return None


@dataclass
class ConnRecord:
    """Ground-truth record of one connection attempt (outside attacker view).

    ``wire_src`` is the endpoint its SYN left from, after NAT.
    ``aborted`` is None, or why the connection was given up: "tls-error"
    for a flight that failed to parse, "reset" for a RST from the pool,
    "address-changed" once the host's address moved under it."""

    conn_id: int
    hostname: str
    truth_label: str
    t_start: SimTime
    wire_src: Endpoint
    t_done: Optional[SimTime] = None
    zero_rtt_accepted: bool = False
    attempted_abbreviated: bool = False
    aborted: Optional[str] = None


class ServerPool:
    """Addresses serving one or more hostnames behind a shared cookie
    secret and a shared session-ticket store.

    The pool is also the host-based tracker: every SYN it accepts adds a
    ``HostObservation`` to ``World.host_observations()``, holding the
    cookie the SYN presented and each cookie the pool hands out on that
    connection, in the SYN-ACK or inside a session ticket, recorded as
    it is minted. The pool draws from one stream, ``("pool", first
    hostname)``: its cookie key is the stream's first 16 bytes.

    A connection's state is kept until its session has sent the response,
    keyed by the client endpoint, which names one connection across the
    whole pool. A flight that fails to parse aborts its own connection:
    the packet is listed in ``World.dropped`` as "tls-error", the
    connection's state is dropped and the client is sent a RST, as a TLS
    stack closing on a fatal alert would (RFC 8446 §6.2). Data from an
    endpoint with no open connection is listed as "no-connection", a SYN
    from one with an open connection as "duplicate-syn". State is also
    released when a RST from the client ends it, when the client gives it
    up, or when a reply cannot reach it, as an idle timeout would."""

    def __init__(self, world: "World", hostnames: Sequence[str],
                 ips: Sequence[str], failure_probs: Sequence[float]):
        if not ips:
            raise ValueError("a pool needs at least one address")
        self.world = weakref.proxy(world)
        self.hostnames = tuple(hostnames)
        self.ips = tuple(ips)
        self.failures = RevisitFailureModel(tuple(failure_probs))
        self.rng = world.seeds.stream("pool", self.hostnames[0])
        self.cookie_key = ServerCookieKey.generate(self.rng)
        self.ticket_store: dict[bytes, bytes] = {}
        self._tcp = transport.ServerConn(key=self.cookie_key, rng=self.rng)
        self._conns: dict[Endpoint, ServerSession] = {}

    def select(self, revisit: int, held_ips: Iterable[str],
               uniform: Callable[[], float]) -> str:
        """Pick the address serving a client's ``revisit``-th revisit.

        ``held_ips`` are the pool addresses the client currently holds
        cookies for. With probability ``failures.prob_for(revisit)`` the
        revisit misses: a probability of 0 or 1 decides it without a
        draw, and any other is compared with one ``uniform()``. A hit
        serves the last held address in pool order.
        A miss serves the first address the client holds no cookie for
        or, once it holds one for every address, the first held address,
        so the address still moves in a pool of two or more.
        """
        held_set = set(held_ips)
        held = [ip for ip in self.ips if ip in held_set]
        if revisit < 1 or not held:
            return self.ips[0]
        p = self.failures.prob_for(revisit)
        if p == 0 or (p < 1 and uniform() >= p):  # a hit
            return held[-1]
        fresh = [ip for ip in self.ips if ip not in held_set]
        return fresh[0] if fresh else held[0]

    def receive(self, pkt: Packet) -> None:
        world = self.world
        if pkt.is_syn():
            if pkt.src in self._conns:
                world._drop(pkt, "duplicate-syn")
                return
            synack, data = self._tcp.accept(pkt)
            obs = HostObservation(time=world.sim.now, wire_src=pkt.src,
                                  presented_cookie=pkt.fo_cookie)
            if synack.fo_cookie is not None:
                obs.issued_cookies.append(synack.fo_cookie)
            world._host_obs.append(obs)
            self._conns[pkt.src] = ServerSession(
                hostnames=self.hostnames, cookie_key=self.cookie_key,
                ticket_store=self.ticket_store, rng=self.rng,
                client_ip=pkt.src.ip, issued_cookies=obs.issued_cookies)
            out = self._feed(pkt, data) if data else b""
            if out is not None:
                synack.payload = out
                world.send_to_client(synack)
        elif pkt.payload:
            if pkt.src not in self._conns:
                world._drop(pkt, "no-connection")
                return
            out = self._feed(pkt, pkt.payload)
            if out:
                world.send_to_client(Packet(  # from the address it reached
                    src=pkt.dst, dst=pkt.src, flags=TcpFlags.ACK, payload=out))
        elif pkt.is_rst():
            self.release(pkt.src)
        # a bare ACK, as after a 0-RTT answer, needs nothing

    def _feed(self, pkt: Packet, data: bytes) -> Optional[bytes]:
        """Feed ``data`` from ``pkt``'s sender to its session; returns the
        session's output, or None when the flight failed to parse, which
        resets the connection. The connection is released once it has
        responded or failed."""
        session = self._conns[pkt.src]
        try:
            out = session.on_bytes(data, self.world.sim.now)
        except ChannelError:
            self.world._drop(pkt, "tls-error")
            self.world.send_to_client(Packet(src=pkt.dst, dst=pkt.src,
                                             flags=TcpFlags.RST))
            out = None
        if out is None or session.responded:
            self.release(pkt.src)
        return out

    def release(self, client: Endpoint) -> None:
        """Drop the state of ``client``'s connection, if any is open."""
        self._conns.pop(client, None)


class ClientHost:
    """A simulated end host: one stack, ``variant``, for every connection,
    one kernel cookie cache, which only tfo connections are given, and one
    TLS cache, which sessions fill as they open tickets. A fop host keys
    tickets by hostname and the visit's context label and takes none older
    than ``lifetime`` ms (None: no limit); other hosts key them by hostname
    alone (context None) and keep them. A host sends on the World's
    uplink, through its gateway first if it is behind a NAT."""

    def __init__(self, world: "World", client_id: str, ip: str,
                 variant: TcpVariant, lifetime: Optional[int],
                 gateway: Optional["GatewayNode"]):
        self.world = weakref.proxy(world)
        self.client_id = client_id
        self.ip = ip
        self.variant = variant
        self.lifetime = lifetime if variant is TcpVariant.FOP else None
        # the gateway's ``locals`` holds this host
        self.gateway = None if gateway is None else weakref.proxy(gateway)
        self.kernel = TfoClientCache()
        self.tls = ClientTlsCache()
        self.rng = world.seeds.stream("client", client_id)
        # what every connection sends through, weak: the host holds them
        self._sender = partial(ClientHost._send, weakref.proxy(self))
        self.records: list[ConnRecord] = []
        self._next_port = CLIENT_PORTS[0]
        self._conns: dict[int, tuple[ClientConn, ClientSession, ConnRecord,
                                     Sequence[str]]] = {}
        # hostname -> (connections so far, last serving address, the
        # ("lb", client_id, hostname) stream, derived at its first draw)
        self._lb: dict[str, tuple[int, str, Optional[np.random.Generator]]] = {}

    def open_connection(self, hostname: str, truth_label: str,
                        context_label: Optional[str],
                        secondaries: Sequence[str]) -> ConnRecord:
        """Connect to ``hostname``; once it has responded, connect to each
        of ``secondaries`` under the same labels."""
        world = self.world
        now = world.sim.now
        pool = world.pool_for(hostname)
        tfo = self.variant is TcpVariant.TFO
        fop = self.variant is TcpVariant.FOP

        revisit, last, rng = self._lb.get(hostname, (0, None, None))

        def uniform() -> float:
            nonlocal rng
            if rng is None:
                rng = world.seeds.stream("lb", self.client_id, hostname)
            return rng.random()

        if tfo:
            held = self.kernel.ips_with_cookie(self.ip, pool.ips, SERVER_PORT)
        else:
            held = [] if last is None else [last]
        serving_ip = pool.select(revisit, held, uniform)
        self._lb[hostname] = (revisit + 1, serving_ip, rng)

        context = context_label if fop else None
        ticket = self.tls.take(hostname, context, now, self.lifetime)
        port = self._take_port()
        src = Endpoint(self.ip, port)
        wire_src = src if self.gateway is None else self.gateway.public_endpoint(src)
        record = ConnRecord(conn_id=world._next_conn_id, hostname=hostname,
                            truth_label=truth_label, t_start=now, wire_src=wire_src)
        world._next_conn_id += 1
        session = ClientSession(hostname, self.rng, self.tls, context,
                                fop=fop, ticket=ticket)
        # only a tfo connection sees the kernel cache; only a fop ticket
        # carries a cookie, which its connection presents
        cookie = None if ticket is None else ticket.embedded_cookie
        conn = ClientConn(src, Endpoint(serving_ip, SERVER_PORT),
                          self._sender,
                          cache=self.kernel if tfo else None, cookie=cookie)
        self._conns[port] = (conn, session, record, secondaries)
        self.records.append(record)
        conn.connect(session.first_flight())
        record.attempted_abbreviated = conn.cookie is not None
        return record

    def _take_port(self) -> int:
        """The next local port with no open connection."""
        port = _first_free(CLIENT_PORTS, self._next_port, self._conns)
        if port is None:
            raise SimulationError(
                f"client {self.client_id}: every local port is in use")
        self._next_port = port + 1
        return port

    def _send(self, pkt: Packet) -> None:
        if self.gateway is not None:
            pkt = self.gateway.outbound(pkt)
        self.world.uplink.send(pkt, partial(World._arrive_public, self.world))

    def receive(self, pkt: Packet) -> None:
        """Deliver one packet: TCP, then TLS, whose session stores tickets
        in the TLS cache as it opens them. A response ends the connection.
        A flight that fails to parse aborts it, and so does a RST. A
        segment for a port with no open connection is listed as
        "no-connection" and, unless it is a RST, answered with one
        (RFC 9293 §3.10.7.1)."""
        port = pkt.dst.port
        entry = self._conns.get(port)
        if entry is None:
            self.world._drop(pkt, "no-connection")
            if not pkt.is_rst():  # a RST is never answered
                self._send(Packet(src=pkt.dst, dst=pkt.src,
                                  flags=TcpFlags.RST))
            return
        conn, session, _, _ = entry
        data = conn.on_packet(pkt)
        if not data:
            if pkt.is_rst():
                self._end(port, "reset")
            return
        try:
            out = session.on_bytes(data)
        except ChannelError:
            self._end(port, "tls-error")
            return
        if out:
            conn.send_app(out)
        if session.response is not None:
            self._end(port, None)

    def _end(self, port: int, aborted: Optional[str]) -> None:
        """End connection ``port`` and release its gateway mapping. With
        ``aborted`` None it has its response: its record is filled, then
        its secondaries open under its session's context, the fop label or
        None. Otherwise it is given up for that reason, and the pool
        serving it releases it too."""
        conn, session, record, secondaries = self._conns.pop(port)
        if self.gateway is not None:
            self.gateway.release(conn.src)
        if aborted is not None:
            record.aborted = aborted
            self.world.pool_for(record.hostname).release(record.wire_src)
            return
        record.t_done = self.world.sim.now
        record.zero_rtt_accepted = conn.zero_rtt_accepted
        for hostname in secondaries:
            self.open_connection(hostname, record.truth_label,
                                 session.context, ())


class GatewayNode:
    """Port-translating NAT gateway; local hops cost zero delay. A mapping
    holds a public port, which a packet leaves from at the gateway's
    ``ip`` of the moment: the address may change over time (see
    ``World.readdress``) and every mapping keeps its port. A mapping
    lasts until the connection behind it ends, when its host releases it;
    a packet for a released port is listed as "nat-unmapped"."""

    def __init__(self, world: "World", ip: str):
        self.world = weakref.proxy(world)
        self.ip = ip
        self._by_local: dict[Endpoint, int] = {}  # local -> public port
        self._by_port: dict[int, Endpoint] = {}  # public port -> local
        self._next_port = NAT_PORTS[0]
        self.locals: dict[str, ClientHost] = {}

    def public_endpoint(self, local: Endpoint) -> Endpoint:
        """The public address at the port mapped to ``local``, which is
        mapped to the next port with no mapping on first use."""
        port = self._by_local.get(local)
        if port is None:
            port = _first_free(NAT_PORTS, self._next_port, self._by_port)
            if port is None:
                raise SimulationError(
                    f"gateway {self.ip}: every public port is mapped")
            self._next_port = port + 1
            self._by_local[local] = port
            self._by_port[port] = local
        return Endpoint(self.ip, port)

    def release(self, local: Endpoint) -> None:
        """Drop ``local``'s mapping, if it has one: its port is free."""
        port = self._by_local.pop(local, None)
        if port is not None:
            del self._by_port[port]

    def outbound(self, pkt: Packet) -> Packet:
        """``pkt`` as it leaves on the WAN side, from its public endpoint."""
        out = pkt.copy()
        out.src = self.public_endpoint(pkt.src)
        return out

    def inbound(self, pkt: Packet) -> Optional[Packet]:
        """``pkt`` addressed to the local endpoint its port maps to, or
        None for an unmapped port."""
        local = self._by_port.get(pkt.dst.port)
        if local is None:
            return None
        out = pkt.copy()
        out.dst = local
        return out

    def receive(self, pkt: Packet) -> None:
        local = self.inbound(pkt)
        if local is None:
            self.world._undeliverable(pkt, "nat-unmapped")
            return
        # mapped, so its connection is open and its host holds this address
        self.locals[local.dst.ip].receive(local)


class World:
    """One deterministic scenario universe."""

    def __init__(self, seed: int, delay_up: int, delay_down: int):
        self.sim = Simulator()
        self.seeds = SeedTree(seed)
        self.uplink = Link(self.sim, delay_up)
        self.downlink = Link(self.sim, delay_down)
        self.clients: dict[str, ClientHost] = {}
        self.gateways: list[GatewayNode] = []
        self.dropped: list[tuple[SimTime, Packet, str]] = []
        self._pools_by_hostname: dict[str, ServerPool] = {}
        self._pools_by_ip: dict[str, ServerPool] = {}
        # public clients and gateways; NAT-local addresses are in each
        # gateway's ``locals``
        self._holders: dict[str, ClientHost | GatewayNode] = {}
        self._next_conn_id = 1
        self._host_obs: list[HostObservation] = []

    # -- topology construction -------------------------------------------

    def add_pool(self, hostnames, ips, failure_probs) -> ServerPool:
        """Add a pool serving ``hostnames`` at ``ips``. A name or address
        already served, or repeated in the call, is rejected before
        anything is registered."""
        hostnames = ((hostnames,) if isinstance(hostnames, str)
                     else tuple(hostnames))
        ips = tuple(ips)
        for h in hostnames:
            if h in self._pools_by_hostname or hostnames.count(h) > 1:
                raise ValueError(f"hostname already registered: {h}")
        for ip in ips:  # a second pool would take the address's packets
            if ip in self._pools_by_ip or ips.count(ip) > 1:
                raise ValueError(f"address already served: {ip}")
        pool = ServerPool(self, hostnames, ips, failure_probs)
        self._pools_by_hostname.update(dict.fromkeys(pool.hostnames, pool))
        self._pools_by_ip.update(dict.fromkeys(pool.ips, pool))
        return pool

    def add_gateway(self, ip: str) -> GatewayNode:
        node = GatewayNode(self, ip)
        self.readdress(node, ip)
        self.gateways.append(node)
        return node

    def add_client(self, client_id: str, ip: str, variant: TcpVariant, *,
                   lifetime: Optional[int],
                   gateway: Optional[GatewayNode]) -> ClientHost:
        if client_id in self.clients:
            raise ValueError(f"duplicate client id: {client_id}")
        client = ClientHost(self, client_id, ip, variant, lifetime, gateway)
        self.readdress(client, ip)
        self.clients[client_id] = client
        return client

    def attach_tap(self) -> list[tuple[SimTime, Packet]]:
        """The wire log of the public side of the network: every packet
        sent on the uplink or the downlink after the call, with its send
        time, whichever host sent it or is to receive it."""
        tap: list[tuple[SimTime, Packet]] = []
        self.uplink.tap = self.downlink.tap = tap
        return tap

    # -- addresses -----------------------------------------------------------

    def readdress(self, holder: ClientHost | GatewayNode, new_ip: str) -> None:
        """Make ``holder`` the one holder of ``new_ip`` in its address map:
        the World's, or its gateway's ``locals`` for a NAT-local client.
        Taking an address in use would silently reroute its holder's
        packets. A move off ``holder.ip`` aborts every connection behind
        the holder, whose old endpoints no packet can reach any more, and
        gives the old address up; a move to ``holder.ip`` changes
        nothing."""
        if isinstance(holder, GatewayNode):
            by_ip, behind = self._holders, holder.locals.values()
        else:
            gateway = holder.gateway
            by_ip = self._holders if gateway is None else gateway.locals
            behind = (holder,)
        if by_ip.setdefault(new_ip, holder) is not holder:
            raise SimulationError(f"address {new_ip} is already in use")
        if new_ip != holder.ip:
            for client in behind:
                for port in list(client._conns):
                    client._end(port, "address-changed")
            del by_ip[holder.ip]
            holder.ip = new_ip

    # -- routing -----------------------------------------------------------

    def _arrive_public(self, pkt: Packet) -> None:
        pool = self._pools_by_ip.get(pkt.dst.ip)
        if pool is None:
            self._drop(pkt, "no-route")
            return
        pool.receive(pkt)

    def send_to_client(self, pkt: Packet) -> None:
        holder = self._holders.get(pkt.dst.ip)
        if holder is None:
            self._undeliverable(pkt, "no-route")
        else:
            self.downlink.send(pkt, holder.receive)

    def _drop(self, pkt: Packet, reason: str) -> None:
        self.dropped.append((self.sim.now, pkt, reason))

    def _undeliverable(self, pkt: Packet, reason: str) -> None:
        """Drop a pool's reply that cannot reach its client, whose address
        is gone: the pool releases that connection."""
        self._drop(pkt, reason)
        self._pools_by_ip[pkt.src.ip].release(pkt.dst)

    # -- misc ----------------------------------------------------------------

    def pool_for(self, hostname: str) -> ServerPool:
        pool = self._pools_by_hostname.get(hostname)
        if pool is None:
            raise KeyError(f"no pool serves hostname {hostname!r}")
        return pool

    def host_observations(self) -> list[HostObservation]:
        """All pools' observations in SYN-arrival order."""
        return list(self._host_obs)

    def all_records(self) -> list[ConnRecord]:
        recs = []
        for client in self.clients.values():
            recs.extend(client.records)
        recs.sort(key=lambda r: (r.t_start, r.conn_id))
        return recs

    def run(self) -> None:
        """Run every scheduled event, then check that the World is
        quiescent (see ``_check_quiescent``)."""
        self.sim.run()
        self._check_quiescent()

    def _check_quiescent(self) -> None:
        """Raise ``SimulationError`` unless every connection finished or
        aborted and no pool session, gateway mapping or event is left."""
        stuck = [r.conn_id for c in self.clients.values() for r in c.records
                 if r.t_done is None and not r.aborted]
        if stuck:
            raise SimulationError(
                f"connections neither finished nor aborted: {stuck}")
        left = sorted({f"{pool.hostnames[0]} session {src}"
                       for pool in self._pools_by_ip.values() for src in pool._conns}
                      | {f"gateway mapping {local}" for node in self.gateways
                         for local in node._by_local}
                      | {f"event at {at} ms" for at, _, _ in self.sim._heap})
        if left:
            raise SimulationError(f"state left after the run: {left}")

    # -- run state -----------------------------------------------------------

    def state(self) -> dict:
        """The run state, as plain data: ints, strings, bytes, bools, None,
        tuples, dicts and each generator's ``bit_generator.state``. It is
        defined only when the World is quiescent, as after ``run``, and
        raises ``SimulationError`` otherwise. It holds the clock, the next
        connection id, the host observations, the wire log (as capture
        bytes, or None without a tap) and the drops; per client, its
        address, caches, records, next port, stream and load-balancer
        positions; per gateway, its address and next port; per pool, its
        stream and ticket store. Everything else is fixed when the World
        is built, empty when it is quiescent, or an address map."""
        self._check_quiescent()
        tap = self.uplink.tap
        return {
            "now": self.sim.now,
            "next_conn_id": self._next_conn_id,
            "host_obs": tuple(
                (o.time, (o.wire_src.ip, o.wire_src.port), o.presented_cookie,
                 tuple(o.issued_cookies)) for o in self._host_obs),
            "tap": None if tap is None else capture_bytes(tap),
            "dropped": (capture_bytes((t, pkt) for t, pkt, _ in self.dropped),
                        tuple(reason for _, _, reason in self.dropped)),
            "clients": {client_id: {
                "ip": c.ip,
                "kernel": dict(c.kernel._entries),
                "tls": {key: tuple((t.ticket_id, t.resumption_secret,
                                    t.embedded_cookie, t.issued_at) for t in queue)
                        for key, queue in c.tls._entries.items()},
                "rng": c.rng.bit_generator.state,
                "records": tuple(
                    (r.conn_id, r.hostname, r.truth_label, r.t_start,
                     (r.wire_src.ip, r.wire_src.port), r.t_done,
                     r.zero_rtt_accepted, r.attempted_abbreviated, r.aborted)
                    for r in c.records),
                "next_port": c._next_port,
                # hostname -> (connections so far, last serving address,
                # the lb stream's state or None)
                "lb": {hostname: (count, last, None if rng is None
                                  else rng.bit_generator.state)
                       for hostname, (count, last, rng) in c._lb.items()},
            } for client_id, c in self.clients.items()},
            "gateways": tuple({"ip": g.ip, "next_port": g._next_port}
                              for g in self.gateways),
            "pools": {pool.hostnames[0]: {"rng": pool.rng.bit_generator.state,
                                          "ticket_store": dict(pool.ticket_store)}
                      for pool in self._pools_by_hostname.values()},
        }

    def load(self, state: dict) -> None:
        """Set ``state``, taken by ``state()`` from a World built from a
        config, on this World: one newly built from the same config with
        only its later visits, events and rotations scheduled. Addresses
        move through ``readdress``. An event scheduled before the state's
        clock raises ``SimulationError``: it would run in the past."""
        now = state["now"]
        early = [at for at, _, _ in self.sim._heap if at < now]
        if early:
            raise SimulationError(f"an event at {min(early)} ms falls before "
                                  f"the state's clock, {now} ms")
        self.sim.now = now
        self._next_conn_id = state["next_conn_id"]
        self._host_obs = [HostObservation(t, Endpoint(*src), cookie, list(issued))
                          for t, src, cookie, issued in state["host_obs"]]
        if state["tap"] is not None:
            self.uplink.tap = self.downlink.tap = decode_capture(state["tap"])
        dropped, reasons = state["dropped"]
        self.dropped = [(t, pkt, reason) for (t, pkt), reason
                        in zip(decode_capture(dropped), reasons)]
        for client_id, saved in state["clients"].items():
            c = self.clients[client_id]
            self.readdress(c, saved["ip"])
            c.kernel._entries = dict(saved["kernel"])
            c.tls._entries = {key: deque(SessionTicket(*t) for t in tickets)
                              for key, tickets in saved["tls"].items()}
            c.rng.bit_generator.state = saved["rng"]
            c.records = [ConnRecord(conn_id, hostname, label, t_start,
                                    Endpoint(*src), *rest)
                         for conn_id, hostname, label, t_start, src, *rest
                         in saved["records"]]
            c._next_port = saved["next_port"]
            c._lb = {}
            for hostname, (count, last, rng_state) in saved["lb"].items():
                rng = None
                if rng_state is not None:
                    rng = self.seeds.stream("lb", client_id, hostname)
                    rng.bit_generator.state = rng_state
                c._lb[hostname] = (count, last, rng)
        for g, saved in zip(self.gateways, state["gateways"], strict=True):
            self.readdress(g, saved["ip"])
            g._next_port = saved["next_port"]
        for hostname, saved in state["pools"].items():
            pool = self.pool_for(hostname)
            pool.rng.bit_generator.state = saved["rng"]
            pool.ticket_store = dict(saved["ticket_store"])


def schedule_fetch(world: World, client: ClientHost, primary: str,
                   secondaries: Sequence[str], at: SimTime, truth_label: str,
                   context_label: Optional[str]) -> None:
    """Fetch a site: connect to the primary host at ``at``, then, once it
    has responded, to every secondary in parallel."""
    world.sim.schedule(at, partial(client.open_connection, primary,
                                   truth_label, context_label, secondaries))
