"""Tracking scenarios: who can link whose visits, under which stack.

Each scenario is a bundled config, ``configs/privacy/<name>.json``, that
scripts ground-truth labeled visits and holds one
``no_linkage_across_labels`` check naming its adversary: a serving pool
for host-based tracking, or a wire tap for the passive observer. A cell
runs the config under the requested variant and seed, reports what the
check measured, and is "viable" when the check fails: a linkage edge
crosses the boundary the scenario is about (first parties, browsing
modes, address epochs, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from importlib import resources

from ..adversary import LinkageGraph
from ..config import DEFAULTS, ScenarioConfig, load_config
from ..scenario import run_scenario
from ..transport import TcpVariant

__all__ = [
    "CellResult",
    "NatTrackingResult",
    "PRIVACY_SCENARIOS",
    "EXPECTED_VERDICTS",
    "run_privacy_matrix",
    "run_nat_prolonged_tracking",
]

PRIVACY_SCENARIOS = ("third_party", "virtual_hosts", "ip_change", "private_mode",
                     "restart", "cross_application", "nat_rotation",
                     "lifetime_expiry")

EXPECTED_VERDICTS = {
    "tfo": {name: ("blocked" if name == "ip_change" else "viable")
            for name in PRIVACY_SCENARIOS},
    "fop": {name: "blocked" for name in PRIVACY_SCENARIOS},
}


@dataclass
class CellResult:
    scenario: str
    variant: str
    adversary: str            # "host" or "passive"
    verdict: str              # "viable" or "blocked"
    cross_links: int
    graph: LinkageGraph
    truth_labels: list[str]
    lifetime_ms: int | None  # the config's cookie_lifetime_ms
    tap_packets: list

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "variant": self.variant,
            "adversary": self.adversary,
            "verdict": self.verdict,
            "cross_links": self.cross_links,
            "truth_labels": list(self.truth_labels),
            "graph": self.graph.to_dict(),
        }


def _config(scenario: str, variant: TcpVariant, seed: int) -> ScenarioConfig:
    if scenario not in PRIVACY_SCENARIOS:
        raise ValueError(f"unknown scenario: {scenario!r} "
                         f"(known: {', '.join(sorted(PRIVACY_SCENARIOS))})")
    path = resources.files("fopsim") / "configs" / "privacy" / f"{scenario}.json"
    return replace(load_config(path), variant=variant.value, seed=seed)


def run_privacy_matrix(variant: TcpVariant, scenario: str, *,
                       seed: int) -> CellResult:
    result = run_scenario(_config(scenario, variant, seed))
    (check,) = result.config.checks
    ((links, graph, labels),) = result.measured
    return CellResult(scenario=scenario, variant=variant.value,
                      adversary=check.get("adversary",
                                          DEFAULTS["checks"]["adversary"]),
                      verdict="blocked" if result.passed else "viable",
                      cross_links=links, graph=graph, truth_labels=labels,
                      lifetime_ms=result.config.cookie_lifetime_ms,
                      tap_packets=result.tap_packets)


@dataclass
class NatTrackingResult:
    """Host-based tracking analysis of the gateway-rotation script."""

    cookie_period_ms: int
    ip_period_ms: int
    chain_edge_after_rejection: bool
    passive_graph: LinkageGraph
    lifetime: int


def run_nat_prolonged_tracking(variant: TcpVariant, *,
                               seed: int) -> NatTrackingResult:
    result = run_scenario(replace(
        _config("nat_rotation", variant, seed),
        checks=[{"kind": "tracking_period_exceeds_ip_baseline"},
                {"kind": "issuance_chain_edge_present"}]))
    (cookie_ms, ip_ms), chain_edge = result.measured
    return NatTrackingResult(
        cookie_period_ms=cookie_ms, ip_period_ms=ip_ms,
        chain_edge_after_rejection=chain_edge,
        passive_graph=result.passive_graph,
        lifetime=result.config.cookie_lifetime_ms)
