"""Connection-establishment durations across variants and latencies.

With zero processing delay, durations are pure RTT counts: 3 round trips
for any initial connection, 2 for a resumed connection over the standard
handshake, and 1 for an accepted abbreviated resumption.
"""

from __future__ import annotations

from ..config import CONFIG_VERSION, ScenarioConfig
from ..scenario import build_world
from ..transport import TcpVariant

__all__ = ["run_fetch_pair", "table4_grid", "split_rtt", "RTT_COUNTS"]

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


def run_fetch_pair(seed: int, miss_probs, up: int, down: int,
                   variant: TcpVariant) -> tuple[int, int]:
    """Durations (ms) of an initial fetch of a primary host plus parallel
    secondaries, each behind its own two-address pool, and of one revisit
    fetch that resumes them: ``(initial, revisit)``. ``miss_probs`` holds
    each host's revisit miss probability, primary first, one host per
    entry. A fetch lasts until its slowest connection responds."""
    revisit_at = 1_000_000
    primary = "primary.site.example"
    secondaries = [f"asset{i}.site.example" for i in range(len(miss_probs) - 1)]
    fetch = {"client": "c1", "hostname": primary,
             "secondaries": secondaries, "label": "fetch", "context": "fetch"}
    cfg = ScenarioConfig.from_dict({
        "version": CONFIG_VERSION, "name": "fetch-pair",
        "variant": variant.value, "seed": seed, "one_way_delay_ms": [up, down],
        "cookie_lifetime_ms": None,
        "clients": [{"id": "c1", "ip": "203.0.113.1"}],
        "hosts": [{"hostnames": [hostname],
                   "ips": [f"198.51.{i}.1", f"198.51.{i}.2"],
                   "failure_probs": [miss_probs[i]]}
                  for i, hostname in enumerate([primary] + secondaries)],
        "visits": [{"at_ms": 0, **fetch}, {"at_ms": revisit_at, **fetch}],
    })
    world = build_world(cfg)
    world.run()
    records = world.clients["c1"].records
    # secondaries open only once the primary has responded, so a primary
    # that never responds leaves one unfinished record
    if any(r.t_done is None for r in records):
        raise RuntimeError("fetch did not complete")
    initial = max(r.t_done for r in records if r.t_start < revisit_at)
    revisit = max(r.t_done for r in records if r.t_start >= revisit_at)
    return initial, revisit - revisit_at


def table4_grid(rtt_list: list[int], variants: list[TcpVariant],
                *, seed: int) -> dict:
    """Durations for every (RTT, variant, mode) cell, via simulation: an
    initial visit to one host that never misses, and a revisit that
    resumes it, so both are exact RTT counts."""
    rows = []
    for rtt in rtt_list:
        up, down = split_rtt(rtt)
        cells = {}
        for variant in variants:
            initial, resumed = run_fetch_pair(seed, (0.0,), up, down, variant)
            saving = 1.0 - resumed / initial if initial else 0.0
            cells[variant.value] = {
                "initial_ms": initial,
                "resumed_ms": resumed,
                "resumed_vs_initial_saving": saving,
            }
        rows.append({"rtt_ms": rtt, "one_way_up_ms": up,
                     "one_way_down_ms": down, "variants": cells})
    return {"rows": rows}
