"""Linkage graphs against a pairwise reference.

The reference writes out every joined pair, in the order the linkers list
them, and reads components, periods, cross-label counts and check
verdicts off that pair list alone. The graphs under test keep groups and
explicit edges instead, and so do their reports; every figure must
agree, and so must the pairs a graph's report describes, in the
reference's order. Covered: every bundled config under tfo and fop, long
NAT runs of 400 and 1600 visits, and (through ``assert_matches_pairwise``)
the scenario fuzz's configs.

The truth labels of graph nodes come from a join keyed by each SYN's wire
endpoint (``ScenarioResult.linkage``). On runs where every connection has
exactly one observation it must agree with the positional join it
replaced, kept here as ``positional_linkage``.
"""

import operator
import random
from dataclasses import replace
from importlib import resources
from unittest import mock

import pytest

from fopsim import report, scenario
from fopsim.config import ScenarioConfig, load_config
from fopsim.scenario import run_scenario


def pairs_within(groups, label):
    """Every pair of each group, (smaller, larger, label), groups in
    insertion order, then by index."""
    return [(indices[a], indices[b], label)
            for indices in groups.values()
            for a in range(len(indices))
            for b in range(a + 1, len(indices))]


def grouped(nodes, keys_of):
    """key -> indices of the nodes that show it, keys in order of first
    sighting."""
    groups = {}
    for idx, node in enumerate(nodes):
        for key in keys_of(node):
            groups.setdefault(key, []).append(idx)
    return groups


class PairwiseGraph:
    """A linkage graph as the list of its joined pairs."""

    def __init__(self, nodes, edges):
        self.nodes = list(nodes)
        self.edges = edges

    def components(self):
        neighbours = {x: set() for x in range(len(self.nodes))}
        for i, j, _ in self.edges:
            neighbours[i].add(j)
            neighbours[j].add(i)
        seen, parts = set(), []
        for start in range(len(self.nodes)):
            if start in seen:
                continue
            part, frontier = {start}, [start]
            while frontier:
                frontier = [y for x in frontier for y in neighbours[x] - part]
                part.update(frontier)
            seen |= part
            parts.append(sorted(part))
        return parts

    def component_periods(self):
        return [max(self.nodes[i].time for i in comp)
                - min(self.nodes[i].time for i in comp)
                for comp in self.components()]


def passive_reference(observations):
    def keys(obs):
        if obs.cookie_in_syn is not None and obs.cookie_in_syn == obs.cookie_in_synack:
            raise ValueError("self edges are meaningless here")
        return [c for c in (obs.cookie_in_syn, obs.cookie_in_synack)
                if c is not None]
    return PairwiseGraph(observations, pairs_within(
        grouped(observations, keys), "same-cookie"))


def host_reference(observations):
    presented = grouped(observations, lambda o: [bytes(o.presented_cookie)]
                        if o.presented_cookie is not None else [])
    issued = grouped(observations, lambda o: map(bytes, o.issued_cookies))
    chains = [(min(i, j), max(i, j), "issuance-chain")
              for cookie, issuers in issued.items() for i in issuers
              for j in presented.get(cookie, ()) if i != j]
    return PairwiseGraph(observations,
                         pairs_within(presented, "same-cookie") + chains)


def ip_reference(observations):
    return PairwiseGraph(observations, pairs_within(
        grouped(observations, lambda o: [o.wire_src.ip]), "same-ip"))


def tracking_period_reference(graph):
    return max(graph.component_periods(), default=0)


def cross_links_reference(graph, labels):
    if len(labels) != len(graph.nodes):
        raise ValueError("one truth label per observation required")
    return sum(None not in (labels[i], labels[j]) and labels[i] != labels[j]
               for i, j, _ in graph.edges)


def issuance_chain_reference(graph):
    return any(label == "issuance-chain"
               and graph.nodes[i].presented_cookie is not None
               for i, _, label in graph.edges)


def report_pairs(data):
    """The pairs a graph's ``to_dict()`` describes: each group's pairs in
    group, then index order, then the explicit edges."""
    return [(indices[a], indices[b], label)
            for label, indices in data["groups"]
            for a in range(len(indices))
            for b in range(a + 1, len(indices))] + [
        tuple(edge) for edge in data["explicit_edges"]]


def comparable(measured):
    """A check's measurement without its graph object."""
    if isinstance(measured, tuple) and len(measured) == 3:
        links, _, labels = measured
        return links, labels
    return measured


def positional_linkage(result, adversary, hostname):
    """The nodes and truth labels of the positional join: records sorted
    by (start time, connection id), paired with the graph's nodes in
    order, which holds only while each connection has one observation."""
    records = result.world.all_records()
    graph = result.passive_graph if adversary == "passive" else result.host_graph
    assert len(records) == len(graph.nodes), adversary
    pairs = list(zip(records, graph.nodes))
    if adversary != "passive" and hostname is not None:
        served = result.world.pool_for(hostname).hostnames
        pairs = [(r, obs) for r, obs in pairs if r.hostname in served]
    return [obs for _, obs in pairs], [r.truth_label for r, _ in pairs]


def assert_keyed_join_matches_positional(result):
    """``result.linkage`` gives the positional join's nodes and labels for
    both adversaries, unfiltered and filtered by each check's hostname."""
    hostnames = {None} | {c.get("hostname") for c in result.config.checks}
    for adversary in ("passive", "host"):
        for hostname in hostnames:
            nodes, labels = positional_linkage(result, adversary, hostname)
            graph, keyed = result.linkage(adversary, hostname)
            assert len(graph.nodes) == len(nodes), (adversary, hostname)
            assert all(map(operator.is_, graph.nodes, nodes)), (adversary,
                                                                hostname)
            assert keyed == labels, (adversary, hostname)


def assert_matches_pairwise(result):
    """Every graph, figure and check verdict of ``result`` equals the
    pairwise reference's, and its truth labels the positional join's."""
    assert_keyed_join_matches_positional(result)
    host_obs = result.world.host_observations()
    refs = {"passive": passive_reference(result.passive_graph.nodes),
            "host": host_reference(host_obs),
            "ip": ip_reference(host_obs)}
    graphs = {"passive": result.passive_graph, "host": result.host_graph,
              "ip": result.ip_graph}
    labels = {"passive": result.linkage("passive", None)[1],
              "host": result.linkage("host", None)[1]}
    labels["ip"] = labels["host"]
    for name, graph in graphs.items():
        ref = refs[name]
        assert len(graph.edges) == len(ref.edges), name
        assert report_pairs(graph.to_dict()) == ref.edges, name
        assert graph.components() == ref.components(), name
        assert graph.component_periods() == ref.component_periods(), name
        assert (scenario.tracking_period(graph)
                == tracking_period_reference(ref)), name
        assert (scenario.cross_context_links(graph, labels[name])
                == cross_links_reference(ref, labels[name])), name
        assert (scenario.issuance_chain_after_rejection(graph)
                == issuance_chain_reference(ref)), name

    # every check again, on the reference graphs and reference readers
    ref_result = replace(result, passive_graph=refs["passive"],
                         host_graph=refs["host"], ip_graph=refs["ip"],
                         checks=[], measured=[])
    with mock.patch.multiple(
            scenario, tracking_period=tracking_period_reference,
            cross_context_links=cross_links_reference,
            issuance_chain_after_rejection=issuance_chain_reference,
            link_host=host_reference):
        for check, entry, measured in zip(result.config.checks, result.checks,
                                          result.measured):
            ref_measured, passed, detail = scenario._evaluate(check, ref_result)
            assert entry == report.check(check["kind"], passed, detail)
            assert comparable(measured) == comparable(ref_measured)


def longrun_config(visits, variant, seed):
    """A long NAT run: 8 clients, 4 of them behind one gateway that rotates
    twice, visiting 4 single-address hosts a minute apart, each client
    under two labels, each its own context. The first and last visits are
    c0's to h0, under different labels."""
    rng = random.Random(seed)
    gap = 60_000
    clients = [{"id": f"c{i}", "behind_nat": i < 4,
                "ip": f"10.0.0.{2 + i}" if i < 4 else f"203.0.113.{10 + i}"}
               for i in range(8)]
    hosts = [{"hostnames": [f"h{i}.example"], "ips": [f"198.51.100.{10 + i}"]}
             for i in range(4)]
    rotations = [{"at_ms": visits * k // 3 * gap + gap // 2,
                  "new_ip": f"192.0.2.{10 + k}"} for k in (1, 2)]
    schedule = []
    for k in range(visits):
        if k in (0, visits - 1):
            client, host, label = 0, 0, "ab"[k > 0]
        else:
            client, host, label = rng.randrange(8), rng.randrange(4), rng.choice("ab")
        schedule.append({"at_ms": k * gap, "client": f"c{client}",
                         "hostname": f"h{host}.example",
                         "label": f"c{client}-{label}",
                         "context": f"c{client}-{label}"})
    if variant == "tfo":
        checks = [{"kind": "linkage_across_labels", "adversary": "host"},
                  {"kind": "tracking_period_exceeds_ip_baseline"},
                  {"kind": "issuance_chain_edge_present"},
                  {"kind": "ip_baseline_links_across_labels"}]
    else:
        checks = [{"kind": "passive_singletons"},
                  {"kind": "no_cleartext_cookie_reuse"},
                  {"kind": "no_linkage_across_labels", "adversary": "passive"},
                  {"kind": "no_linkage_across_labels", "adversary": "host",
                   "hostname": "h0.example"},
                  {"kind": "tracking_period_within_lifetime"}]
    return ScenarioConfig.from_dict({
        "version": 1, "name": f"longrun-{variant}", "variant": variant,
        "seed": seed, "one_way_delay_ms": 15, "cookie_lifetime_ms": 86_400_000,
        "clients": clients,
        "nat": {"public_ip": "192.0.2.1", "rotations": rotations},
        "hosts": hosts, "visits": schedule, "checks": checks})


@pytest.mark.parametrize("variant", ["standard", "tfo", "fop"])
def test_keyed_join_matches_positional_on_bundled_runs(variant):
    configs = resources.files("fopsim").joinpath("configs")
    paths = (sorted(configs.glob("*.json"))
             + sorted(configs.glob("privacy/*.json")))
    assert len(paths) == 11
    for path in paths:
        result = run_scenario(replace(load_config(path), variant=variant))
        assert_keyed_join_matches_positional(result)


def test_bundled_configs_match_pairwise_reference(bundled_configs):
    for cfg in bundled_configs:
        assert_matches_pairwise(run_scenario(cfg))


@pytest.mark.parametrize("visits, variant", [(400, "tfo"), (400, "fop"),
                                             (1600, "tfo"), (1600, "fop")])
def test_long_runs_match_pairwise_reference(visits, variant):
    result = run_scenario(longrun_config(visits, variant, seed=7))
    # quadratic in the visits: the reference has pairs to compare
    ref = ip_reference(result.world.host_observations())
    assert len(ref.edges) > visits ** 2 // 20
    # linear in the visits: a node sits in at most two groups (passive:
    # its SYN's and its SYN-ACK's cookie; host: its presented cookie)
    summary = result.summary()
    for name in ("passive", "host"):
        data = summary[name]
        held = sum(len(indices) for _, indices in data["groups"])
        assert held <= 2 * len(data["nodes"]), name
    assert_matches_pairwise(result)
