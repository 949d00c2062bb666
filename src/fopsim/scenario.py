"""Executes scripted scenario configs and evaluates their checks."""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import partial
from typing import Optional

from . import report
from .adversary import (
    LinkageGraph,
    cleartext_cookie_counts,
    cross_context_links,
    issuance_chain_after_rejection,
    link_host,
    link_ip_baseline,
    link_passive,
    observe,
    tracking_period,
)
from .config import DEFAULTS, ScenarioConfig
from .simcore import Endpoint
from .stack import ConnRecord, World, schedule_fetch
from .transport import TcpVariant

__all__ = ["ScenarioResult", "build_world", "run_scenario", "scenario_result"]


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    world: World
    tap_packets: list
    passive_graph: LinkageGraph
    host_graph: LinkageGraph
    ip_graph: LinkageGraph
    checks: list[dict]        # one report entry per config check
    measured: list            # what each check measured, in the same order

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def linkage(self, adversary: str, hostname: Optional[str]
                ) -> tuple[LinkageGraph, list[Optional[str]]]:
        """The adversary's linkage graph and the ground-truth label of each
        of its nodes. Records, in start order, each claim the first
        unclaimed node of their ``wire_src`` seen at or after their start;
        a node no record claims (such as a copy of a SYN) is labelled
        None. A host adversary sees every pool, or with ``hostname`` only
        the nodes whose records name a hostname of the pool serving it."""
        graph = self.passive_graph if adversary == "passive" else self.host_graph
        unclaimed: dict[Endpoint, list[int]] = {}
        for idx, obs in enumerate(graph.nodes):
            unclaimed.setdefault(obs.wire_src, []).append(idx)
        queues = {src: iter(indices) for src, indices in unclaimed.items()}
        owners: list[Optional[ConnRecord]] = [None] * len(graph.nodes)
        for record in self.world.all_records():
            for idx in queues.get(record.wire_src, ()):
                if graph.nodes[idx].time >= record.t_start:
                    owners[idx] = record
                    break
        if adversary != "passive" and hostname is not None:
            served = self.world.pool_for(hostname).hostnames
            owned = [(obs, r) for obs, r in zip(graph.nodes, owners)
                     if r is not None and r.hostname in served]
            graph = link_host([obs for obs, _ in owned])
            owners = [r for _, r in owned]
        return graph, [None if r is None else r.truth_label for r in owners]

    def summary(self) -> dict:
        return {
            "name": self.config.name,
            "variant": self.config.variant,
            "seed": self.config.seed,
            "connections": len(self.world.all_records()),
            "passive": self.passive_graph.to_dict(),
            "host": self.host_graph.to_dict(),
            "ip_baseline_period_ms": tracking_period(self.ip_graph),
            "checks": self.checks,
            "passed": self.passed,
        }


def build_world(cfg: ScenarioConfig) -> World:
    """The World ``cfg`` describes, with its gateway rotations, client
    events and visits scheduled: ready to run."""
    delay = cfg.one_way_delay_ms
    up, down = (delay, delay) if isinstance(delay, int) else delay
    world = World(cfg.seed, up, down)
    failure_probs = DEFAULTS["hosts"]["failure_probs"]
    for host in cfg.hosts:
        world.add_pool(tuple(host["hostnames"]), list(host["ips"]),
                       tuple(host.get("failure_probs", failure_probs)))
    gateway = None
    if cfg.nat is not None:
        gateway = world.add_gateway(cfg.nat["public_ip"])
    variant = TcpVariant(cfg.variant)
    behind_nat = DEFAULTS["clients"]["behind_nat"]
    for c in cfg.clients:
        world.add_client(c["id"], c["ip"], variant,
                         lifetime=cfg.cookie_lifetime_ms,
                         gateway=(gateway if c.get("behind_nat", behind_nat)
                                  else None))
    # gateway rotations, then client events, then visits: at equal times
    # they run in that order
    sim = world.sim
    # the World's own event loop holds it only weakly
    readdress = partial(World.readdress, weakref.proxy(world))
    if gateway is not None:
        for rot in cfg.nat.get("rotations", DEFAULTS["nat"]["rotations"]):
            sim.schedule(rot["at_ms"], partial(readdress, gateway,
                                               rot["new_ip"]))
    for ev in cfg.events:
        client = world.clients[ev["client"]]
        action = (partial(readdress, client, ev["new_ip"])
                  if ev["kind"] == "change_ip" else client.tls.clear)
        sim.schedule(ev["at_ms"], action)
    visit = DEFAULTS["visits"]
    for v in cfg.visits:
        schedule_fetch(world, world.clients[v["client"]], v["hostname"],
                       v.get("secondaries", visit["secondaries"]), v["at_ms"],
                       v.get("label", visit["label"]),
                       v.get("context", visit["context"]))
    return world


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    world = build_world(cfg)
    tap = world.attach_tap()
    world.run()
    return scenario_result(cfg, world, tap)


def scenario_result(cfg: ScenarioConfig, world: World,
                    tap: list) -> ScenarioResult:
    """``cfg``'s result, from ``world`` once it has run and from its wire
    log ``tap``."""
    host_obs = world.host_observations()
    result = ScenarioResult(
        config=cfg, world=world, tap_packets=tap,
        passive_graph=link_passive(observe(tap)),
        host_graph=link_host(host_obs), ip_graph=link_ip_baseline(host_obs),
        checks=[], measured=[])
    for check in cfg.checks:
        measured, passed, detail = _evaluate(check, result)
        result.checks.append(report.check(check["kind"], passed, detail))
        result.measured.append(measured)
    return result


def _evaluate(check: dict, result: ScenarioResult) -> tuple:
    """What ``check`` measures of ``result``, its verdict and its detail."""
    kind = check["kind"]
    if kind == "tracking_period_exceeds_ip_baseline":
        cookie = tracking_period(result.host_graph)
        ip = tracking_period(result.ip_graph)
        return ((cookie, ip), cookie > ip,
                f"cookie profile spans {cookie} ms, address baseline {ip} ms")
    if kind == "issuance_chain_edge_present":
        present = issuance_chain_after_rejection(result.host_graph)
        return (present, present,
                "replacement cookie chained a rejected attempt" if present
                else "no issuance-chain edge after a rejection")
    if kind == "tracking_period_within_lifetime":
        period = tracking_period(result.host_graph)
        limit = result.config.cookie_lifetime_ms
        return (period, limit is None or period <= limit,
                f"longest profile {period} ms, limit {limit} ms")
    if kind == "passive_singletons":
        sizes = [len(c) for c in result.passive_graph.components()]
        return sizes, all(s == 1 for s in sizes), f"component sizes {sizes}"
    if kind == "no_cleartext_cookie_reuse":
        counts = cleartext_cookie_counts(result.tap_packets)
        repeats = {c.hex(): n for c, n in counts.items() if n > 1}
        return (counts, not repeats,
                f"repeated cookie sightings: {repeats}" if repeats
                else "every cookie crossed the wire at most once")
    if kind in ("linkage_across_labels", "no_linkage_across_labels"):
        check = {**DEFAULTS["checks"], **check}
        adversary = check["adversary"]
        graph, labels = result.linkage(adversary, check["hostname"])
        links = cross_context_links(graph, labels)
        want_links = kind == "linkage_across_labels"
        return ((links, graph, labels), (links > 0) == want_links,
                f"{links} cross-label edges in the {adversary} graph")
    if kind == "ip_baseline_links_across_labels":
        _, labels = result.linkage("host", None)
        links = cross_context_links(result.ip_graph, labels)
        return (links, links > 0,
                f"{links} cross-label edges under address-only tracking")
    raise ValueError(f"unknown check kind: {kind!r}")
