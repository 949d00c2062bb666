"""Whole-stack runs of arbitrary valid scenario configs.

The strategy uses every field of the config schema: multi-address pools
that miss on revisits, virtual hosts, fetches with secondaries, a NAT
gateway that rotates, client address changes and TLS cache clears at any
time (inside handshakes too), both cookie lifetimes and asymmetric
delays, under every variant. Each run must end cleanly and reproduce
byte for byte; under the privacy variant the wire must stay unlinkable.
Its linkage graphs must match the pairwise reference of
``test_linkage_reference``. Run again with every time moved later by
``SHIFT_MS``, it must give the same wire, records and checks, shifted.
"""

import copy
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fopsim.capture import capture_bytes, read_capture
from fopsim.config import ScenarioConfig
from fopsim.scenario import run_scenario
from test_linkage_reference import assert_matches_pairwise

PROBS = [0.0, 0.393, 0.7, 1.0]
LIFETIMES = [600_000, 3_600_000]  # 10 and 60 minutes
# past both lifetimes: a rule that read the absolute time where it should
# read an age would decide differently in the shifted run
SHIFT_MS = 10_000_000
# a burst of visits, then a second one past the shorter lifetime
times = st.builds(lambda t, late: t + 700_000 * late,
                  st.integers(0, 600), st.integers(0, 1))
FOP_CHECKS = ("passive_singletons", "no_cleartext_cookie_reuse")
OTHER_CHECKS = [
    {"kind": "tracking_period_exceeds_ip_baseline"},
    {"kind": "issuance_chain_edge_present"},
    {"kind": "tracking_period_within_lifetime"},
    {"kind": "linkage_across_labels", "adversary": "passive"},
    {"kind": "no_linkage_across_labels", "adversary": "host",
     "hostname": "h0-0.example"},
    {"kind": "ip_baseline_links_across_labels"},
]


@st.composite
def configs(draw, variant):
    hosts, hostnames, n_ips = [], [], 0
    for i in range(draw(st.integers(1, 3))):
        names = [f"h{i}-{j}.example" for j in range(draw(st.integers(1, 2)))]
        k = draw(st.integers(1, 3))
        hosts.append({"hostnames": names,
                      "ips": [f"198.51.100.{n_ips + j + 1}" for j in range(k)],
                      "failure_probs": draw(st.lists(st.sampled_from(PROBS),
                                                     min_size=1, max_size=3))})
        hostnames += names
        n_ips += k

    nat = None
    if draw(st.booleans()):
        nat = {"public_ip": "192.0.2.1",
               "rotations": [{"at_ms": draw(times), "new_ip": f"192.0.2.{10 + k}"}
                             for k in range(draw(st.integers(1, 2)))]}
    clients = []
    for i in range(draw(st.integers(1, 3))):
        behind = nat is not None and draw(st.booleans())
        clients.append({"id": f"c{i}", "behind_nat": behind,
                        "ip": f"10.0.0.{i + 2}" if behind else f"203.0.113.{i + 10}"})

    events = []
    for k in range(draw(st.integers(0, 3))):
        client = draw(st.sampled_from(clients))
        event = {"at_ms": draw(times), "client": client["id"],
                 "kind": draw(st.sampled_from(["change_ip", "clear_tls_cache"]))}
        if event["kind"] == "change_ip":
            event["new_ip"] = (f"10.0.1.{k + 1}" if client["behind_nat"]
                               else f"203.0.114.{k + 1}")
        events.append(event)

    visits = [{"at_ms": draw(times), "client": draw(st.sampled_from(clients))["id"],
               "hostname": draw(st.sampled_from(hostnames)),
               "secondaries": draw(st.lists(st.sampled_from(hostnames),
                                            max_size=2, unique=True)),
               "label": draw(st.sampled_from(["a", "b"])),
               "context": draw(st.sampled_from([None, "x", "y"]))}
              for _ in range(draw(st.integers(1, 6)))]
    delay = draw(st.one_of(st.integers(0, 40),
                           st.lists(st.integers(0, 40), min_size=2, max_size=2)))
    data = {"version": 1, "name": "fuzz",
            "variant": variant,
            "seed": draw(st.integers(0, 2**32)), "one_way_delay_ms": delay,
            "cookie_lifetime_ms": draw(st.sampled_from(LIFETIMES)),
            "clients": clients, "nat": nat, "hosts": hosts, "visits": visits,
            "checks": ([{"kind": kind} for kind in FOP_CHECKS]
                       + draw(st.lists(st.sampled_from(OTHER_CHECKS),
                                       max_size=2)))}
    if events:
        data["events"] = events
    return data


def shifted(config):
    """``config`` with every visit, event and rotation ``SHIFT_MS`` later."""
    data = copy.deepcopy(config)
    rotations = data["nat"]["rotations"] if data["nat"] else []
    for item in data["visits"] + data.get("events", []) + rotations:
        item["at_ms"] += SHIFT_MS
    return data


def shifted_back(result, shift):
    """``result``'s wire log, without payload bytes but with their length,
    and its records, each time moved ``shift`` earlier."""
    wire = [(t - shift, replace(pkt, payload=b""), len(pkt.payload))
            for t, pkt in result.tap_packets]
    records = [replace(r, t_start=r.t_start - shift,
                       t_done=None if r.t_done is None else r.t_done - shift)
               for r in result.world.all_records()]
    return wire, records


def run_bytes(cfg):
    result = run_scenario(cfg)
    return result, json.dumps(result.summary(), sort_keys=True), \
        capture_bytes(result.tap_packets)


@pytest.mark.parametrize("variant", ["standard", "tfo", "fop"])
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data())
def test_any_valid_config_runs_cleanly_and_reproduces(tmp_path_factory,
                                                      variant, data):
    config = data.draw(configs(variant))
    cfg = ScenarioConfig.from_dict(config)
    assert cfg.to_dict() == config

    result, report, capture = run_bytes(cfg)
    assert run_bytes(cfg)[1:] == (report, capture)
    # every check keeps what it measured, in config order
    assert len(result.measured) == len(result.checks) == len(cfg.checks)
    assert_matches_pairwise(result)

    # the same run later: the same headers, cookies included; payloads
    # keep their lengths, as a sealed ticket carries its issue time
    later = run_scenario(ScenarioConfig.from_dict(shifted(config)))
    assert shifted_back(later, SHIFT_MS) == shifted_back(result, 0)
    assert later.checks == result.checks

    path = tmp_path_factory.getbasetemp() / "scenario_fuzz.fopcap"
    path.write_bytes(capture)
    assert capture_bytes(read_capture(path)) == capture

    if cfg.variant == "fop":
        passed = {c["name"]: c["passed"] for c in result.checks}
        assert all(passed[kind] for kind in FOP_CHECKS), result.checks
    world = result.world
    assert all(not c._conns for c in world.clients.values())
    assert all(not pool._conns for pool in world._pools_by_hostname.values())
