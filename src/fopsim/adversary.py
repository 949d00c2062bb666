"""Passive and host-based trackers reconstructing linkage from cookies.

The passive observer sees only wire bytes (built from Packet fields, never
keys); the host-based tracker is the server pool itself and additionally
knows which cookies it issued inside tickets.
Connected components of the resulting linkage graph are tracking profiles.

A graph keeps each set of observations that show one key (a cookie, an
address) as a group, whose every pair is joined, and the edges that join
two observations singly (issuance chains) as explicit edges. So a graph
grows with its observations, not with their pairs: components, periods
and cross-label counts read the groups in O(nodes + explicit edges), and
a report writes the groups and explicit edges as they are held.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Optional

from .simcore import Endpoint, FoKind, Packet, SimTime
from .tlschan import REC_HANDSHAKE, ChannelError, parse_records

__all__ = [
    "ConnObservation",
    "HostObservation",
    "LinkageGraph",
    "LinkageEdges",
    "observe",
    "link_passive",
    "link_host",
    "link_ip_baseline",
    "tracking_period",
    "issuance_chain_after_rejection",
    "cross_context_links",
    "cleartext_cookie_counts",
]


@dataclass
class ConnObservation:
    """What a wire tap learns about one connection attempt."""

    time: SimTime
    wire_src: Endpoint
    wire_dst: Endpoint
    cookie_in_syn: Optional[bytes] = None
    cookie_in_synack: Optional[bytes] = None
    payload_opaque: bool = False

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "src": f"{self.wire_src.ip}:{self.wire_src.port}",
            "dst": f"{self.wire_dst.ip}:{self.wire_dst.port}",
            "cookie_in_syn": self.cookie_in_syn.hex() if self.cookie_in_syn else None,
            "cookie_in_synack": (self.cookie_in_synack.hex()
                                 if self.cookie_in_synack else None),
            "payload_opaque": self.payload_opaque,
        }


@dataclass
class HostObservation:
    """What the serving pool learns about one connection attempt."""

    time: SimTime
    wire_src: Endpoint
    presented_cookie: Optional[bytes] = None
    issued_cookies: list[bytes] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "client_wire_ip": self.wire_src.ip,
            "presented_cookie": (self.presented_cookie.hex()
                                 if self.presented_cookie else None),
            "issued_cookies": [c.hex() for c in self.issued_cookies],
        }


def _payload_opaque(payload: bytes) -> bool:
    """A flight is opaque when it exposes no plaintext handshake metadata.

    The 3-byte record framing is public knowledge; unparseable payloads
    count as opaque."""
    if not payload:
        return False
    try:
        records = parse_records(payload)
    except ChannelError:
        return True
    return all(tag != REC_HANDSHAKE for tag, _ in records)


def observe(packets: Iterable[tuple[SimTime, Packet]]) -> list[ConnObservation]:
    """One observation per connection attempt, built from wire bytes only.
    A RST opens and answers no attempt."""
    observations: list[ConnObservation] = []
    waiting: dict[tuple[Endpoint, Endpoint], ConnObservation] = {}
    for t, pkt in packets:
        if pkt.is_syn():
            obs = ConnObservation(
                time=t, wire_src=pkt.src, wire_dst=pkt.dst,
                cookie_in_syn=(bytes(pkt.fo_cookie)
                               if pkt.fo_kind is FoKind.COOKIE else None),
                payload_opaque=_payload_opaque(pkt.payload))
            observations.append(obs)
            waiting[(pkt.src, pkt.dst)] = obs
        elif pkt.is_synack():
            obs = waiting.pop((pkt.dst, pkt.src), None)
            if obs is not None and pkt.fo_kind is FoKind.COOKIE:
                obs.cookie_in_synack = bytes(pkt.fo_cookie)
    return observations


class LinkageGraph:
    """Observations as nodes, joined by groups and explicit edges;
    components = profiles.

    A group is a label and ascending node indices, every pair of which is
    joined. Explicit edges (``add_edge``) are kept in insertion order.
    """

    def __init__(self, observations: Sequence):
        self.nodes = list(observations)
        self.groups: list[tuple[str, list[int]]] = []
        self.explicit_edges: list[tuple[int, int, str]] = []

    def add_edge(self, i: int, j: int, label: str) -> None:
        if i == j:
            raise ValueError("self edges are meaningless here")
        self.explicit_edges.append((min(i, j), max(i, j), label))

    @property
    def edges(self) -> "LinkageEdges":
        """The joined pairs, counted, not listed."""
        # a fresh view each time: a view kept on the graph would make the
        # pair a reference cycle, left to the cyclic collector
        return LinkageEdges(self)

    def components(self) -> list[list[int]]:
        """Connected components, each in index order, ordered by their
        first index."""
        # union-find with path halving; a root is its component's least
        # index, so parent[x] <= x throughout
        parent = list(range(len(self.nodes)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        # one join per group member, to the group's running root
        for _, indices in self.groups:
            root = find(indices[0])
            for x in islice(indices, 1, None):
                other = find(x)
                if other < root:
                    parent[root] = other
                    root = other
                elif other > root:
                    parent[other] = root
        for i, j, _ in self.explicit_edges:
            i, j = find(i), find(j)
            if i < j:
                parent[j] = i
            elif j < i:
                parent[i] = j
        # in index order a node's parent already points at its root
        components: dict[int, list[int]] = {}
        for x, p in enumerate(parent):
            parent[x] = root = parent[p]
            components.setdefault(root, []).append(x)
        return list(components.values())

    def component_periods(self) -> list[SimTime]:
        return _periods(self.nodes, self.components())

    def to_dict(self) -> dict:
        components = self.components()
        return {
            "nodes": [obs.to_dict() for obs in self.nodes],
            "groups": [[label, list(indices)]
                       for label, indices in self.groups],
            "explicit_edges": [[i, j, label]
                               for i, j, label in self.explicit_edges],
            "components": components,
            "tracking_period_ms": max(_periods(self.nodes, components),
                                      default=0),
        }


class LinkageEdges:
    """The number of a graph's joined pairs: C(n, 2) for each group of n,
    plus the explicit edges. A pair joined twice (by two groups, or by a
    group and an explicit edge) counts twice."""

    __slots__ = ("_graph",)

    def __init__(self, graph: LinkageGraph):
        self._graph = graph

    def __len__(self) -> int:
        graph = self._graph
        return (sum(len(ix) * (len(ix) - 1) // 2 for _, ix in graph.groups)
                + len(graph.explicit_edges))


def _link_groups(graph: LinkageGraph, groups: dict[object, list[int]],
                 label: str) -> None:
    """Join every pair within each group of two or more, in group order.

    Each group's indices must strictly increase (appended in enumeration
    order). The graph keeps the lists themselves."""
    graph.groups.extend((label, indices) for indices in groups.values()
                        if len(indices) > 1)


def link_passive(observations: Sequence[ConnObservation]) -> LinkageGraph:
    """Link observations sharing identical cleartext cookie bytes, whether
    the bytes rode a SYN or a SYN-ACK."""
    graph = LinkageGraph(observations)
    sightings: dict[bytes, list[int]] = {}
    for idx, obs in enumerate(observations):
        syn, synack = obs.cookie_in_syn, obs.cookie_in_synack
        if syn is not None:
            sightings.setdefault(syn, []).append(idx)
        if synack is not None:
            if synack == syn:
                graph.add_edge(idx, idx, "same-cookie")  # raises: a self edge
            sightings.setdefault(synack, []).append(idx)
    _link_groups(graph, sightings, "same-cookie")
    return graph


def link_host(observations: Sequence[HostObservation]) -> LinkageGraph:
    """Pool-side linkage: same presented cookie, plus issuance chains
    (a cookie handed out in one connection presented in another)."""
    graph = LinkageGraph(observations)
    presented: dict[bytes, list[int]] = {}
    issued: dict[bytes, list[int]] = {}
    for idx, obs in enumerate(observations):
        if obs.presented_cookie is not None:
            presented.setdefault(bytes(obs.presented_cookie), []).append(idx)
        for cookie in obs.issued_cookies:
            issued.setdefault(bytes(cookie), []).append(idx)
    _link_groups(graph, presented, "same-cookie")
    for cookie, issuers in issued.items():
        for i in issuers:
            for j in presented.get(cookie, ()):
                if i != j:
                    graph.add_edge(i, j, "issuance-chain")
    return graph


def link_ip_baseline(observations: Sequence[HostObservation]) -> LinkageGraph:
    """Address-based tracking baseline; kept apart from cookie linkage."""
    graph = LinkageGraph(observations)
    by_ip: dict[str, list[int]] = {}
    for idx, obs in enumerate(observations):
        by_ip.setdefault(obs.wire_src.ip, []).append(idx)
    _link_groups(graph, by_ip, "same-ip")
    return graph


def tracking_period(graph: LinkageGraph) -> SimTime:
    """Longest observation span within any single profile."""
    return max(graph.component_periods(), default=0)


def _periods(nodes: Sequence, components: list[list[int]]) -> list[SimTime]:
    """The observation span of each component."""
    periods = []
    for comp in components:
        times = [nodes[i].time for i in comp]
        periods.append(max(times) - min(times))
    return periods


def issuance_chain_after_rejection(graph: LinkageGraph) -> bool:
    """True when a connection that presented a cookie was issued a fresh
    one that a later connection presented: the pool's profile survives
    the rejection of the old cookie."""
    return any(label == "issuance-chain"
               and graph.nodes[i].presented_cookie is not None
               for i, _, label in graph.explicit_edges)


def cross_context_links(graph: LinkageGraph, truth_labels: Sequence) -> int:
    """Edges joining observations generated under different ground-truth
    labels; the labels come from the scenario script, not the attacker.
    An edge touching a node labelled None, which no connection claims,
    counts for nothing; a pair joined twice counts twice, as in
    ``len(graph.edges)``."""
    if len(truth_labels) != len(graph.nodes):
        raise ValueError("one truth label per observation required")
    pairs = ((truth_labels[i], truth_labels[j]) for i, j, _ in graph.explicit_edges)
    links = sum(a != b and None not in (a, b) for a, b in pairs)
    for _, indices in graph.groups:
        # all labelled pairs of the group, less those within one label
        counts = Counter(map(truth_labels.__getitem__, indices))
        n = len(indices) - counts.pop(None, 0)
        same = sum(k * (k - 1) for k in counts.values())
        links += (n * (n - 1) - same) // 2
    return links


def cleartext_cookie_counts(packets: Iterable[tuple[SimTime, Packet]]) -> dict[bytes, int]:
    """How often each cookie byte string rode the wire in the clear."""
    counts: dict[bytes, int] = {}
    for _, pkt in packets:
        if pkt.fo_kind is FoKind.COOKIE:
            cookie = bytes(pkt.fo_cookie)
            counts[cookie] = counts.get(cookie, 0) + 1
    return counts
