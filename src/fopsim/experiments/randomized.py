"""Randomized revisit schedules for wire-level linkability properties.

Each schedule draws 2-5 clients (optionally behind one NAT), a few
single-address hosts, and a strictly ordered visit sequence. Run under the
hostname-bound stack, the wire must never show a cookie twice and the
passive graph must stay fully disconnected; under plain Fast Open, any
revisit must produce a linked component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import ScenarioConfig
from ..scenario import run_scenario
from ..transport import TcpVariant

__all__ = ["RandomScheduleSpec", "random_schedule", "run_random_scenario",
           "RandomScenarioResult"]


@dataclass(frozen=True)
class RandomScheduleSpec:
    n_clients: int
    nat: bool
    n_hosts: int
    visits: tuple[tuple[int, int, int], ...]  # (at_ms, client_idx, host_idx)

    @property
    def has_revisit(self) -> bool:
        seen = set()
        for _, client, host in self.visits:
            if (client, host) in seen:
                return True
            seen.add((client, host))
        return False


def random_schedule(rng: np.random.Generator) -> RandomScheduleSpec:
    n_clients = int(rng.integers(2, 6))
    nat = bool(rng.integers(0, 2))
    n_hosts = int(rng.integers(1, 4))
    n_visits = int(rng.integers(4, 11))
    visits = tuple(
        (1000 * (k + 1),
         int(rng.integers(0, n_clients)),
         int(rng.integers(0, n_hosts)))
        for k in range(n_visits))
    return RandomScheduleSpec(n_clients, nat, n_hosts, visits)


@dataclass
class RandomScenarioResult:
    component_sizes: list[int]
    cookie_counts: dict[bytes, int]

    @property
    def all_singletons(self) -> bool:
        return all(size == 1 for size in self.component_sizes)

    @property
    def has_multi_component(self) -> bool:
        return any(size >= 2 for size in self.component_sizes)


def run_random_scenario(spec: RandomScheduleSpec, variant: TcpVariant,
                        seed: int) -> RandomScenarioResult:
    """Run the schedule as a scenario config: every client browses in one
    shared context, labeled with its own id; two checks measure the run."""
    clients = [{"id": f"c{c}",
                "ip": f"10.0.0.{c + 2}" if spec.nat else f"203.0.113.{c + 10}",
                "behind_nat": spec.nat} for c in range(spec.n_clients)]
    result = run_scenario(ScenarioConfig.from_dict({
        "version": 1, "name": "random-schedule", "variant": variant.value,
        "seed": seed, "cookie_lifetime_ms": None, "clients": clients,
        "nat": {"public_ip": "192.0.2.1"} if spec.nat else None,
        "hosts": [{"hostnames": [f"host{h}.example"],
                   "ips": [f"198.51.100.{h + 1}"]} for h in range(spec.n_hosts)],
        "visits": [{"at_ms": at, "client": f"c{c}",
                    "hostname": f"host{h}.example", "label": f"c{c}",
                    "context": "shared"} for at, c, h in spec.visits],
        "checks": [{"kind": "passive_singletons"},
                   {"kind": "no_cleartext_cookie_reuse"}],
    }))
    sizes, counts = result.measured
    return RandomScenarioResult(component_sizes=sizes, cookie_counts=counts)
