"""A run's state as plain data: ``World.state()`` and ``World.load()``.

- **Split identity.** Every bundled config, under every variant, is split
  at each point between visits where its run is quiescent. One World runs
  the visits, events and rotations before the point; a second, built from
  the rest, loads its state and runs on. The report and the capture are
  byte-identical to the unsplit run's, and so is the state at the end.
- **Plain data.** The state holds only ints, strings, bytes, bools, None,
  tuples and dicts: no crypto object, proxy or packet.
- **Defined only when quiescent.** ``state()`` with a connection open, a
  pool session, a gateway mapping or an event left raises as the end of
  ``World.run`` does, and ``load()`` refuses a World with an event
  scheduled before the state's clock.
"""

import copy
import json
from dataclasses import replace
from importlib import resources

import pytest

from fopsim import report
from fopsim.capture import capture_bytes
from fopsim.config import ScenarioConfig, load_config
from fopsim.scenario import build_world, run_scenario, scenario_result
from fopsim.simcore import Endpoint, Packet, SimulationError, TcpFlags
from fopsim.stack import World, schedule_fetch
from fopsim.transport import TcpVariant

CONFIGS = resources.files("fopsim").joinpath("configs")
NAMES = sorted(f"{folder}{path.name}" for folder in ("", "privacy/")
               for path in CONFIGS.joinpath(folder).iterdir()
               if path.name.endswith(".json"))
RUNS = [(name, variant.value) for name in NAMES for variant in TcpVariant]
PLAIN = (int, str, bytes, bool, type(None))
D = 30  # one-way delay of the hand-built Worlds


def halves(config: dict, at: int) -> tuple[dict, dict]:
    """``config`` (a config's dict) split at ``at`` ms: its visits, events
    and rotations before ``at``, and those at or after it."""
    parts = []
    for keep in (lambda item: item["at_ms"] < at,
                 lambda item: item["at_ms"] >= at):
        data = copy.deepcopy(config)
        for owner, key in ((data, "visits"), (data, "events"),
                           (data["nat"] or {}, "rotations")):
            if key in owner:
                owner[key] = [item for item in owner[key] if keep(item)]
        parts.append(data)
    return parts[0], parts[1]


def split_points(cfg: ScenarioConfig) -> list[int]:
    """Each time between two visits of ``cfg``: a later visit's time."""
    return sorted({v["at_ms"] for v in cfg.visits})[1:]


def split_run(cfg: ScenarioConfig, at: int):
    """``cfg`` run in two Worlds split at ``at`` ms: the second World, run,
    or None when the first has not gone quiescent before ``at``, so that
    the unsplit run interleaves the halves."""
    first_cfg, rest_cfg = (ScenarioConfig.from_dict(half)
                           for half in halves(cfg.to_dict(), at))
    first = build_world(first_cfg)
    first.attach_tap()
    first.run()
    if first.sim.now >= at:
        return None
    rest = build_world(rest_cfg)
    rest.load(first.state())
    rest.run()
    return rest


def run_output(cfg: ScenarioConfig, world: World) -> tuple[str, bytes]:
    """The ``run`` command's report and capture of ``world``, run."""
    result = scenario_result(cfg, world, world.uplink.tap)
    made = report.make_report("run", cfg.seed, {"config": cfg.to_dict()},
                              result.summary(), {}, result.checks)
    return json.dumps(made, sort_keys=True), capture_bytes(result.tap_packets)


def walk(value):
    """Every leaf of ``value`` and the type of every container in it."""
    if type(value) is dict:
        yield dict
        for key, item in value.items():
            yield from walk(key)
            yield from walk(item)
    elif type(value) is tuple:
        yield tuple
        for item in value:
            yield from walk(item)
    else:
        yield type(value)


@pytest.mark.parametrize("name,variant", RUNS)
def test_split_runs_are_the_unsplit_run(name, variant):
    cfg = replace(load_config(CONFIGS.joinpath(name)), variant=variant)
    whole = run_scenario(cfg)
    expected = run_output(cfg, whole.world)
    splits = 0
    for at in split_points(cfg):
        rest = split_run(cfg, at)
        if rest is None:
            continue
        splits += 1
        assert run_output(cfg, rest) == expected, at
        assert rest.state() == whole.world.state(), at
    # every bundled run goes quiescent between its visits
    assert splits == len(split_points(cfg)) > 0


# No bundled run draws a load-balancer uniform: this one does, at every
# revisit, from its client's ("lb", "alice", "shop.example") stream.
LB_CONFIG = {
    "version": 1, "name": "lb-misses", "variant": "tfo", "seed": 3,
    "clients": [{"id": "alice", "ip": "203.0.113.1"}],
    "hosts": [{"hostnames": ["shop.example"],
               "ips": ["198.51.100.1", "198.51.100.2"],
               "failure_probs": [0.5]}],
    "visits": [{"at_ms": k * 60_000, "client": "alice",
                "hostname": "shop.example", "label": "a"} for k in range(8)],
}


@pytest.mark.parametrize("variant", ["tfo", "fop"])
def test_split_runs_carry_the_load_balancer_stream(variant):
    cfg = ScenarioConfig.from_dict({**LB_CONFIG, "variant": variant})
    whole = run_scenario(cfg)
    expected = run_output(cfg, whole.world)
    for at in split_points(cfg):
        rest = split_run(cfg, at)
        assert run_output(cfg, rest) == expected, at
        assert rest.state() == whole.world.state(), at
    (_, _, stream), = whole.world.state()["clients"]["alice"]["lb"].values()
    assert stream is not None


@pytest.mark.parametrize("name,variant", RUNS[::4])
def test_state_is_plain_data(name, variant):
    cfg = replace(load_config(CONFIGS.joinpath(name)), variant=variant)
    state = run_scenario(cfg).world.state()
    assert set(walk(state)) <= {dict, tuple, *PLAIN}


def one_host_world(nat=False):
    world = World(1, D, D)
    world.add_pool("shop.example", ["198.51.100.1"], (0.0,))
    gateway = world.add_gateway("192.0.2.1") if nat else None
    client = world.add_client("alice", "10.0.0.2" if nat else "203.0.113.1",
                              TcpVariant.FOP, lifetime=None, gateway=gateway)
    return world, client, gateway


def visit(world, client, at):
    schedule_fetch(world, client, "shop.example", ("shop.example",), at,
                   "t", "ctx")


def test_load_onto_a_bare_world_gives_the_state_back():
    world, client, _ = one_host_world(nat=True)
    world.attach_tap()
    visit(world, client, 0)
    world.run()
    state = world.state()
    assert state["clients"]["alice"]["tls"]  # the secondary left a ticket
    again, _, _ = one_host_world(nat=True)
    again.load(state)
    assert again.state() == state


def test_loaded_world_resumes_on_the_saved_ticket():
    world, client, _ = one_host_world()
    visit(world, client, 0)
    world.run()
    again, alice, _ = one_host_world()
    visit(again, alice, 1000)
    again.load(world.state())
    again.run()
    first, second, revisit, _ = sorted(again.all_records(),
                                       key=lambda r: r.conn_id)
    assert (first.conn_id, revisit.conn_id) == (1, 3)
    assert revisit.zero_rtt_accepted and revisit.t_done - revisit.t_start == 2 * D


class TestQuiescence:
    def test_open_connection(self):
        world, client, _ = one_host_world()
        visit(world, client, 0)
        raised = []

        def take_state():
            with pytest.raises(SimulationError) as info:
                world.state()
            raised.append(str(info.value))

        world.sim.schedule(D, take_state)
        world.run()
        assert raised == ["connections neither finished nor aborted: [1]"]

    def test_pool_session(self):
        world, client, _ = one_host_world()
        pool = world.pool_for("shop.example")
        world.run()
        pool._conns[Endpoint(client.ip, 50001)] = None
        with pytest.raises(SimulationError, match=r"state left after the run: "
                           r"\[.shop.example session Endpoint"):
            world.state()

    def test_gateway_mapping(self):
        world, client, gateway = one_host_world(nat=True)
        world.run()
        gateway.public_endpoint(Endpoint(client.ip, 50001))
        with pytest.raises(SimulationError, match=r"state left after the run: "
                           r"\[.gateway mapping Endpoint"):
            world.state()

    def test_pending_event(self):
        world, client, _ = one_host_world()
        visit(world, client, 5)
        with pytest.raises(SimulationError, match=r"state left after the run: "
                           r"\['event at 5 ms'\]"):
            world.state()

    def test_load_refuses_an_event_before_the_clock(self):
        world, client, _ = one_host_world()
        visit(world, client, 0)
        world.run()
        state = world.state()
        again, alice, _ = one_host_world()
        visit(again, alice, state["now"] - 1)
        with pytest.raises(SimulationError, match="before the state's clock"):
            again.load(state)
        later, bob, _ = one_host_world()
        visit(later, bob, state["now"])  # at the clock is not before it
        later.load(state)


def test_reset_packet_in_the_drops_keeps_its_flags():
    world, client, _ = one_host_world()
    world.run()
    rst = Packet(src=Endpoint("198.51.100.1", 443),
                 dst=Endpoint(client.ip, 50001), flags=TcpFlags.RST)
    world._drop(rst, "no-connection")
    again, _, _ = one_host_world()
    again.load(world.state())
    [(t, pkt, reason)] = again.dropped
    assert (t, pkt, reason) == (0, rst, "no-connection")
    assert pkt.is_rst()
