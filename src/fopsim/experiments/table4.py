"""Connection-establishment durations across variants and latencies.

With zero processing delay, durations are pure RTT counts: 3 round trips
for any initial connection, 2 for a resumed connection over the standard
handshake, and 1 for an accepted abbreviated resumption.
"""

from __future__ import annotations

from ..config import CONFIG_VERSION, ScenarioConfig
from ..scenario import build_world
from ..transport import TcpVariant

__all__ = ["run_table4", "table4_grid", "split_rtt", "RTT_COUNTS"]

# round trips to first application response: (initial, resumed)
RTT_COUNTS = {
    TcpVariant.STANDARD: (3, 2),
    TcpVariant.TFO: (3, 1),
    TcpVariant.FOP: (3, 1),
}


def split_rtt(rtt_ms: int) -> tuple[int, int]:
    """Split a round-trip budget into integer up/down one-way delays."""
    up = (rtt_ms + 1) // 2
    return up, rtt_ms - up


def run_table4(variant: TcpVariant, up: int, down: int,
               *, seed: int) -> tuple[int, int]:
    """Simulated durations (ms) of an initial connection plus a short
    response, and of a revisit to the same single-address host that
    resumes it: ``(initial, resumed)``.
    """
    visit = {"client": "c1", "hostname": "site.example", "label": "t4",
             "context": "t4"}
    cfg = ScenarioConfig.from_dict({
        "version": CONFIG_VERSION, "name": "table4",
        "variant": variant.value, "seed": seed,
        "one_way_delay_ms": [up, down],
        "cookie_lifetime_ms": None,
        "clients": [{"id": "c1", "ip": "203.0.113.1"}],
        "hosts": [{"hostnames": ["site.example"], "ips": ["198.51.100.1"]}],
        "visits": [{"at_ms": 0, **visit}, {"at_ms": 1_000_000, **visit}],
    })
    world = build_world(cfg)
    world.run()
    initial, resumed = world.clients["c1"].records
    if initial.duration is None or resumed.duration is None:
        raise RuntimeError("connection did not complete")
    return initial.duration, resumed.duration


def table4_grid(rtt_list: list[int], variants: list[TcpVariant],
                *, seed: int = 0) -> dict:
    """Durations for every (RTT, variant, mode) cell, via simulation."""
    rows = []
    for rtt in rtt_list:
        up, down = split_rtt(rtt)
        cells = {}
        for variant in variants:
            initial, resumed = run_table4(variant, up, down, seed=seed)
            saving = 1.0 - resumed / initial if initial else 0.0
            cells[variant.value] = {
                "initial_ms": initial,
                "resumed_ms": resumed,
                "resumed_vs_initial_saving": saving,
            }
        rows.append({"rtt_ms": rtt, "one_way_up_ms": up,
                     "one_way_down_ms": down, "variants": cells})
    return {"rows": rows}
