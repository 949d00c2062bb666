"""Observation building, linkage graphs, and tracking metrics."""

import gc
import itertools
import random
import tracemalloc
import weakref
from dataclasses import replace
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fopsim.adversary import (
    ConnObservation,
    HostObservation,
    LinkageGraph,
    _link_groups,
    cross_context_links,
    link_host,
    link_ip_baseline,
    link_passive,
    observe,
    tracking_period,
)
from fopsim.capture import capture_bytes, read_capture
from fopsim.config import load_config
from fopsim.scenario import run_scenario
from fopsim.simcore import Endpoint
from fopsim.stack import World, schedule_fetch
from fopsim.transport import TcpVariant

DAY = 86_400_000

props = settings(derandomize=True, database=None, deadline=None,
                 max_examples=200)


def run_trace(variant, visits, *, seed=1, nat=False, clients=("alice",),
              lifetime=None, rotate_at=None, new_ip="192.0.2.99"):
    """visits: list of (at, client_id); single tracked host."""
    world = World(seed, 30, 30)
    world.add_pool("tracker.example", ["198.51.100.3"], (0.0,))
    gw = world.add_gateway("192.0.2.1") if nat else None
    hosts = {}
    for i, cid in enumerate(clients):
        ip = f"10.0.0.{i + 2}" if nat else f"203.0.113.{i + 10}"
        hosts[cid] = world.add_client(cid, ip, variant, lifetime=lifetime,
                                      gateway=gw)
    tap = world.attach_tap()
    for at, cid in visits:
        schedule_fetch(world, hosts[cid], "tracker.example", (), at, cid, "ctx")
    if rotate_at is not None:
        world.sim.schedule(rotate_at, lambda: world.readdress(gw, new_ip))
    world.run()
    return world, tap


class TestObserve:
    def test_tfo_initial_yields_synack_cookie(self):
        _, tap = run_trace(TcpVariant.TFO, [(0, "alice")])
        obs = observe(tap)
        assert len(obs) == 1
        assert obs[0].cookie_in_syn is None
        assert obs[0].cookie_in_synack is not None

    def test_fop_issuance_shows_no_cleartext_cookie(self):
        _, tap = run_trace(TcpVariant.FOP, [(0, "alice")])
        obs = observe(tap)
        assert obs[0].cookie_in_syn is None
        assert obs[0].cookie_in_synack is None

    def test_fop_0rtt_cookie_seen_exactly_once(self):
        _, tap = run_trace(TcpVariant.FOP,
                              [(0, "alice"), (10_000, "alice"), (20_000, "alice")])
        obs = observe(tap)
        cookies = [o.cookie_in_syn for o in obs if o.cookie_in_syn]
        assert len(cookies) == 2  # the two resumptions
        assert len(set(cookies)) == 2

    def test_sealed_flights_marked_opaque(self):
        _, tap = run_trace(TcpVariant.FOP, [(0, "alice"), (10_000, "alice")])
        obs = observe(tap)
        # resumption SYN carries handshake metadata plus sealed early data
        assert obs[1].cookie_in_syn is not None
        assert not obs[1].payload_opaque
        # a payload whose record framing fails exposes nothing readable
        syn = next(pkt for t, pkt in tap if t == obs[1].time and pkt.is_syn())
        torn = replace(syn, payload=syn.payload[:-1])
        assert observe([(0, torn)])[0].payload_opaque

    def test_one_observation_per_connection(self):
        _, tap = run_trace(TcpVariant.TFO,
                              [(k * 5_000, "alice") for k in range(4)])
        assert len(observe(tap)) == 4


class TestLinkPassive:
    def test_issuance_plus_reuses_form_one_component(self):
        # brute force over a 3-connection scripted trace: one cookie is
        # issued once and reused twice, so grouping by equal bytes gives a
        # single group of size 3
        _, tap = run_trace(TcpVariant.TFO,
                              [(0, "alice"), (10_000, "alice"), (20_000, "alice")])
        obs = observe(tap)
        graph = link_passive(obs)

        values = {}
        for i, o in enumerate(obs):
            for c in (o.cookie_in_syn, o.cookie_in_synack):
                if c:
                    values.setdefault(c, set()).add(i)
        brute = {frozenset(v) for v in values.values() if len(v) > 1}
        assert brute == {frozenset({0, 1, 2})}
        assert sorted(map(len, graph.components())) == [3]

    def test_fop_trace_gives_only_singletons(self):
        _, tap = run_trace(TcpVariant.FOP,
                              [(k * 7_000, "alice") for k in range(5)])
        graph = link_passive(observe(tap))
        assert all(len(c) == 1 for c in graph.components())

    def test_nat_clients_distinguished_despite_shared_ip(self):
        visits = [(0, "alice"), (5_000, "bob"), (10_000, "alice"), (15_000, "bob")]
        _, tap = run_trace(TcpVariant.TFO, visits, nat=True,
                              clients=("alice", "bob"))
        obs = observe(tap)
        assert len({o.wire_src.ip for o in obs}) == 1  # one public address
        comps = link_passive(obs).components()
        assert sorted(map(len, comps)) == [2, 2]
        labels = ["alice", "bob", "alice", "bob"]
        for comp in comps:
            assert len({labels[i] for i in comp}) == 1

    def test_view_soundness_from_serialized_capture(self, tmp_path):
        _, tap = run_trace(TcpVariant.TFO,
                              [(k * 5_000, "alice") for k in range(3)])
        live = link_passive(observe(tap))
        path = tmp_path / "trace.fopcap"
        path.write_bytes(capture_bytes(tap))
        replayed = link_passive(observe(read_capture(path)))
        assert replayed.to_dict() == live.to_dict()

    def test_monotonicity_adding_observations_keeps_edges(self):
        _, tap = run_trace(TcpVariant.TFO,
                              [(k * 5_000, "alice") for k in range(4)])
        obs = observe(tap)
        for k in range(1, len(obs) + 1):
            earlier = set(joined_pairs(link_passive(obs[:k])))
            later = set(joined_pairs(link_passive(obs)))
            assert earlier <= later


class TestLinkHost:
    def test_chain_survives_public_ip_rotation(self):
        visits = [(0, "alice"), (10_000, "alice"), (20_000, "alice")]
        world, _ = run_trace(TcpVariant.TFO, visits, nat=True,
                               rotate_at=15_000)
        graph = link_host(world.host_observations())
        assert len(graph.components()) == 1
        assert any(label == "issuance-chain"
                   for _, _, label in graph.explicit_edges)

    def test_fop_same_context_chain_links_at_host(self):
        visits = [(0, "alice"), (10_000, "alice"), (20_000, "alice")]
        world, _ = run_trace(TcpVariant.FOP, visits)
        graph = link_host(world.host_observations())
        assert len(graph.components()) == 1  # within one context

    def test_fop_distinct_contexts_stay_unlinked(self):
        world = World(1, 30, 30)
        world.add_pool("tracker.example", ["198.51.100.3"], (0.0,))
        client = world.add_client("alice", "203.0.113.10", TcpVariant.FOP,
                                  lifetime=None, gateway=None)
        for k, ctx in enumerate(["ctx-a", "ctx-a", "ctx-b", "ctx-b"]):
            schedule_fetch(world, client, "tracker.example", (), k * 10_000,
                           ctx, ctx)
        world.run()
        graph = link_host(world.host_observations())
        labels = [r.truth_label for r in world.all_records()]
        assert cross_context_links(graph, labels) == 0
        assert sorted(map(len, graph.components())) == [2, 2]

    def test_recovers_ground_truth_client_partition(self):
        # brute-force comparison on all 2-client splits of 6 connections
        for split in itertools.combinations(range(6), 3):
            visits = sorted(
                [(i * 5_000, "alice" if i in split else "bob")
                 for i in range(6)])
            world, _ = run_trace(TcpVariant.TFO, visits,
                                   clients=("alice", "bob"))
            graph = link_host(world.host_observations())
            labels = ["alice" if i in split else "bob" for i in range(6)]
            for comp in graph.components():
                assert len({labels[i] for i in comp}) == 1
            assert len(graph.components()) == 2


class TestMetrics:
    def test_single_observation_period_is_zero(self):
        graph = link_host([HostObservation(time=100,
                                           wire_src=Endpoint("a", 50001))])
        assert tracking_period(graph) == 0

    def test_empty_graph_period_is_zero(self):
        assert tracking_period(link_host([])) == 0

    def test_chain_spanning_ten_days(self):
        visits = [(k * DAY, "alice") for k in range(11)]
        world, _ = run_trace(TcpVariant.TFO, visits)
        graph = link_host(world.host_observations())
        assert tracking_period(graph) == 10 * DAY

    def test_fop_period_bounded_by_lifetime(self):
        lifetime = 3_600_000
        visits = [(k * (lifetime + 1_000), "alice") for k in range(4)]
        world, _ = run_trace(TcpVariant.FOP, visits, lifetime=lifetime)
        graph = link_host(world.host_observations())
        assert all(p <= lifetime for p in graph.component_periods())

    def test_cross_context_requires_matching_lengths(self):
        graph = link_host([HostObservation(time=0,
                                           wire_src=Endpoint("a", 50001))])
        with pytest.raises(ValueError):
            cross_context_links(graph, [])

    def test_fop_shared_context_allows_within_host_linkage(self):
        # degenerate configuration: a single shared context behaves like
        # plain within-context host tracking
        visits = [(0, "alice"), (10_000, "alice")]
        world, _ = run_trace(TcpVariant.FOP, visits)
        graph = link_host(world.host_observations())
        labels = ["a", "b"]  # script labels differ, context is shared
        assert cross_context_links(graph, labels) > 0


class TestIpBaseline:
    def test_same_source_address_links(self):
        obs = [HostObservation(time=0, wire_src=Endpoint("1.2.3.4", 50001)),
               HostObservation(time=50, wire_src=Endpoint("1.2.3.4", 50001)),
               HostObservation(time=99, wire_src=Endpoint("9.9.9.9", 50001))]
        graph = link_ip_baseline(obs)
        assert sorted(map(len, graph.components())) == [1, 2]
        assert [label for label, _ in graph.groups] == ["same-ip"]
        assert graph.explicit_edges == []

    def test_rotation_splits_ip_tracking_but_not_cookie_tracking(self):
        visits = [(0, "alice"), (10_000, "alice"), (20_000, "alice"),
                  (30_000, "alice")]
        world, _ = run_trace(TcpVariant.TFO, visits, nat=True,
                               rotate_at=15_000)
        obs = world.host_observations()
        ip_graph = link_ip_baseline(obs)
        cookie_graph = link_host(obs)
        assert tracking_period(cookie_graph) > tracking_period(ip_graph)


class TestSerialization:
    def test_dict_form_has_components_and_period(self):
        world, _ = run_trace(TcpVariant.TFO, [(0, "alice"), (9_000, "alice")])
        data = link_host(world.host_observations()).to_dict()
        assert set(data) == {"nodes", "groups", "explicit_edges",
                             "components", "tracking_period_ms"}
        assert data["tracking_period_ms"] == 9_000

    def test_dict_form_computes_components_once(self, monkeypatch):
        world, _ = run_trace(TcpVariant.TFO, [(0, "alice"), (9_000, "alice")])
        graph = link_host(world.host_observations())
        calls = []
        components = LinkageGraph.components

        def counted(self):
            calls.append(self)
            return components(self)
        monkeypatch.setattr(LinkageGraph, "components", counted)
        data = graph.to_dict()
        assert calls == [graph]
        assert data["components"] == [[0, 1]]
        assert data["tracking_period_ms"] == tracking_period(graph) == 9_000


def pairwise_reference(groups, n, label):
    """The edges of joining every pair of each group with ``add_edge``."""
    graph = LinkageGraph(range(n))
    for indices in groups.values():
        for a in range(len(indices)):
            for b in range(a + 1, len(indices)):
                graph.add_edge(indices[a], indices[b], label)
    return graph.explicit_edges


def joined_pairs(graph):
    """Every pair ``graph`` joins: each group's pairs in group, then index
    order, then the explicit edges."""
    pairs = [(i, j, label) for label, indices in graph.groups
             for i, j in itertools.combinations(indices, 2)]
    return pairs + graph.explicit_edges


def bfs_partition(n, edges):
    """Connected components by breadth-first search, each sorted, ordered
    by their least index."""
    neighbours = {x: set() for x in range(n)}
    for i, j, _ in edges:
        neighbours[i].add(j)
        neighbours[j].add(i)
    seen, parts = set(), []
    for start in range(n):
        if start in seen:
            continue
        part, frontier = {start}, [start]
        while frontier:
            frontier = [y for x in frontier for y in neighbours[x] - part]
            part.update(frontier)
        seen |= part
        parts.append(sorted(part))
    return parts


class TestFastPaths:
    @props
    @given(keys=st.lists(st.integers(0, 6), max_size=40))
    def test_link_groups_match_pairwise_reference(self, keys):
        groups = {}
        for idx, key in enumerate(keys):
            groups.setdefault(key, []).append(idx)
        graph = LinkageGraph(keys)
        _link_groups(graph, groups, "same-x")
        assert (joined_pairs(graph)
                == pairwise_reference(groups, len(keys), "same-x"))

    @props
    @given(data=st.data(), n=st.integers(0, 30))
    def test_cross_context_links_match_pairwise_count(self, data, n):
        # a node labelled None, which no connection claims, is in no
        # counted pair
        labels = data.draw(st.lists(st.sampled_from([None, "a", "b"]),
                                    min_size=n, max_size=n))
        groups = {}
        for idx in range(n):
            groups.setdefault(data.draw(st.integers(0, 4)), []).append(idx)
        graph = LinkageGraph(range(n))
        _link_groups(graph, groups, "same-x")
        node = st.integers(0, max(n - 1, 0))
        for i, j in data.draw(st.lists(st.tuples(node, node),
                                       max_size=10 if n else 0)):
            if i != j:
                graph.add_edge(i, j, "x")
        assert cross_context_links(graph, labels) == sum(
            None not in (labels[i], labels[j]) and labels[i] != labels[j]
            for i, j, _ in joined_pairs(graph))

    @props
    @given(data=st.data(), n=st.integers(0, 30))
    def test_overlapping_groups_match_bfs_partition(self, data, n):
        # a node may sit in two groups, as a passive observation whose SYN
        # and SYN-ACK show different cookies; explicit edges come on top
        keys = data.draw(st.lists(st.sets(st.integers(0, 8), max_size=2),
                                  min_size=n, max_size=n))
        groups = {}
        for idx, node_keys in enumerate(keys):
            for key in sorted(node_keys):
                groups.setdefault(key, []).append(idx)
        graph = LinkageGraph(range(n))
        _link_groups(graph, groups, "same-x")
        node = st.integers(0, max(n - 1, 0))
        for i, j in data.draw(st.lists(st.tuples(node, node),
                                       max_size=10 if n else 0)):
            if i != j:
                graph.add_edge(i, j, "x")
        assert graph.components() == bfs_partition(n, joined_pairs(graph))
        assert joined_pairs(graph) == (
            pairwise_reference(groups, n, "same-x") + graph.explicit_edges)

    @props
    @given(ips=st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=40))
    def test_ip_baseline_matches_pairwise_reference(self, ips):
        obs = [HostObservation(time=k, wire_src=Endpoint(ip, 50001))
               for k, ip in enumerate(ips)]
        groups = {}
        for idx, ip in enumerate(ips):
            groups.setdefault(ip, []).append(idx)
        assert (joined_pairs(link_ip_baseline(obs))
                == pairwise_reference(groups, len(ips), "same-ip"))

    @pytest.mark.parametrize("earlier", [0, 1, 3])
    def test_cookie_in_syn_and_synack_of_one_observation_raises(self, earlier):
        src, dst = Endpoint("203.0.113.1", 50001), Endpoint("198.51.100.1", 443)
        cookie = bytes(range(16))
        obs = [ConnObservation(time=k, wire_src=src, wire_dst=dst,
                               cookie_in_syn=cookie) for k in range(earlier)]
        obs.append(ConnObservation(time=earlier, wire_src=src, wire_dst=dst,
                                   cookie_in_syn=cookie,
                                   cookie_in_synack=cookie))
        with pytest.raises(ValueError, match="self edges"):
            link_passive(obs)

    @props
    @given(data=st.data(), n=st.integers(0, 30))
    def test_components_match_bfs_partition(self, data, n):
        node = st.integers(0, max(n - 1, 0))
        pairs = data.draw(st.lists(st.tuples(node, node),
                                   max_size=60 if n else 0))
        graph = LinkageGraph(range(n))
        for i, j in pairs:
            if i != j:
                graph.add_edge(i, j, "x")
        assert graph.components() == bfs_partition(n, graph.explicit_edges)

    def test_components_match_bfs_partition_on_many_small_graphs(self):
        # a union-find that links a lesser root under a greater one gets
        # about 2% of these dense small graphs wrong
        rng = random.Random(5)
        for _ in range(3000):
            n = rng.randint(1, 12)
            graph = LinkageGraph(range(n))
            for _ in range(rng.randint(0, 15)):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    graph.add_edge(i, j, "x")
            assert graph.components() == bfs_partition(n, graph.explicit_edges)


class TestScale:
    @pytest.fixture
    def no_cyclic_collector(self):
        enabled = gc.isenabled()
        gc.disable()
        yield
        if enabled:
            gc.enable()

    def test_graphs_are_freed_by_reference_counting(self, no_cyclic_collector):
        graph = link_ip_baseline([HostObservation(time=k,
                                                  wire_src=Endpoint("a", 50001))
                                  for k in range(3)])
        assert len(graph.edges) == 3
        assert graph.groups == [("same-ip", [0, 1, 2])]
        ref = weakref.ref(graph)
        del graph
        assert ref() is None

        path = resources.files("fopsim").joinpath("configs/nat_rotation_tfo.json")
        result = run_scenario(load_config(path))
        graphs = (result.passive_graph, result.host_graph, result.ip_graph)
        result.summary()
        refs = [weakref.ref(g) for g in graphs]
        del result, graphs
        assert [r() for r in refs] == [None, None, None]

    def test_one_address_of_20000_observations_stays_linear(self):
        # 199,990,000 pairs: as tuples they would take gigabytes
        n = 20_000
        obs = [HostObservation(time=k, wire_src=Endpoint("192.0.2.1", 50001))
               for k in range(n)]
        labels = ["a", "b"] * (n // 2)
        tracemalloc.start()
        try:
            graph = link_ip_baseline(obs)
            edges = len(graph.edges)
            components = graph.components()
            links = cross_context_links(graph, labels)
            period = tracking_period(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert edges == n * (n - 1) // 2 == 199_990_000
        assert components == [list(range(n))]
        # every pair, less the pairs within each label of n / 2
        assert links == edges - 2 * (n // 2) * (n // 2 - 1) // 2 == 100_000_000
        assert period == n - 1
        assert peak < 4 * 2**20
