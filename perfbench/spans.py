"""Spans around the calls into each fopsim layer, for the traced run.

``instrument`` replaces the layers' public functions and methods with
wrappers that record a span per call: name, start, end, parent span and
op id. A function is replaced under every name a module of fopsim binds
it to, because a caller resolves the name it imported (``scenario``
imports ``link_passive`` by name). Spans stay in memory until
``Tracer.write``. A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from fopsim import adversary, capture, cookies, kernels, rngtools, scenario
from fopsim import simcore, stack, tlschan, transport
from fopsim.experiments import table5


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op]
        self.counts: Counter = Counter()   # calls and summed results
        self.worlds: list = []        # Worlds built during the current op
        self.sessions: list = []      # ClientSessions of the current op
        self.op = -1
        self._open: list[int] = []

    def wrap(self, name: str, fn, on_call=None):
        """``fn`` recording a span ``name`` per call; ``on_call(args,
        result)`` sees each call's arguments and result."""
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kw):
            rec = [name, perf_counter(), 0.0, open_[-1] if open_ else -1, self.op]
            open_.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kw)
            finally:
                rec[2] = perf_counter()
                open_.pop()
            if on_call is not None:
                on_call(args, result)
            return result
        return traced

    def count(self, name: str, fn):
        """``fn`` counting its calls under ``name``, without a span."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)
        return counted

    def times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child[i]
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}))
                fh.write("\n")


def _rebind(original, replacement, patches: list) -> None:
    """Point every fopsim module name bound to ``original`` at
    ``replacement``."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "fopsim" or modname.startswith("fopsim.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                patches.append((module, attr, original))
                setattr(module, attr, replacement)


@contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    patches: list = []
    t = tracer

    def method(cls, attr, name, on_call=None, count_only=False):
        original = cls.__dict__[attr]
        patches.append((cls, attr, original))
        setattr(cls, attr, t.count(name, original) if count_only
                else t.wrap(name, original, on_call))

    def function(module, attr, name, on_call=None):
        original = getattr(module, attr)
        _rebind(original, t.wrap(name, original, on_call), patches)

    def add(key, value=1):
        t.counts[key] += value

    def on_validate(args, ok):
        if not ok:
            add("cookies.rejects")

    def on_graph(args, graph):
        add("adversary.edges", len(graph.edges))

    def on_capture_bytes(args, data):
        add("capture.bytes", len(data))

    def on_tally(args, result):
        add("kernels.trials", len(args[0]))

    original_schedule = simcore.Simulator.schedule
    event = functools.partial(t.wrap, "simcore.event")

    def schedule(sim, at, action):
        t.counts["simcore.events"] += 1
        return original_schedule(sim, at, event(action))

    def table5_montecarlo(*args, engine="fast", **kw):
        return (fast if engine == "fast" else packet)(*args, engine=engine, **kw)
    fast = t.wrap("experiments.table5_fast", table5.table5_montecarlo)
    packet = t.wrap("experiments.table5_packet", table5.table5_montecarlo)

    try:
        method(rngtools.SeedTree, "stream", "rngtools.stream")
        method(stack.World, "__init__", "stack.world_init",
               on_call=lambda args, _: t.worlds.append(args[0]))
        for attr in ("add_pool", "add_client", "add_gateway", "attach_tap"):
            method(stack.World, attr, f"stack.{attr}")
        method(stack.ClientHost, "open_connection", "stack.open_connection")
        method(simcore.Simulator, "run", "simcore.run")
        patches.append((simcore.Simulator, "schedule", original_schedule))
        simcore.Simulator.schedule = schedule
        method(simcore.Link, "send", "simcore.link_send")
        method(simcore.Packet, "copy", "simcore.packet_copies", count_only=True)
        method(transport.ClientConn, "connect", "transport.connect")
        method(transport.ServerConn, "accept", "transport.accept")
        method(tlschan.ClientSession, "__init__", "tlschan.client_session_init",
               on_call=lambda args, _: t.sessions.append(args[0]))
        method(tlschan.ClientSession, "on_bytes", "tlschan.client_on_bytes")
        method(tlschan.ServerSession, "on_bytes", "tlschan.server_on_bytes")
        function(cookies, "mint", "cookies.mint")
        function(cookies, "validate", "cookies.validate", on_validate)
        function(adversary, "observe", "adversary.observe")
        for attr in ("link_passive", "link_host", "link_ip_baseline"):
            function(adversary, attr, "adversary.link", on_graph)
        method(adversary.LinkageGraph, "components", "adversary.components")
        function(capture, "capture_bytes", "capture.encode", on_capture_bytes)
        function(capture, "read_capture", "capture.decode")
        function(scenario, "_evaluate", "scenario.checks")
        function(kernels, "tally_savings", "kernels.tally", on_tally)
        _rebind(table5.table5_montecarlo, table5_montecarlo, patches)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def tally_op(tracer: Tracer, public: Counter, outcome_public: dict) -> None:
    """Add the counts that fopsim's public records give for the op just
    run, then drop the op's Worlds and sessions."""
    for world in tracer.worlds:
        records = world.all_records()
        observations = world.host_observations()
        public["connections"] += len(records)
        public["zero_rtt_attempted"] += sum(r.attempted_abbreviated for r in records)
        public["zero_rtt_accepted"] += sum(r.zero_rtt_accepted for r in records)
        public["accepts"] += len(observations)
        public["cookies_issued"] += sum(len(o.issued_cookies) for o in observations)
        public["cookies_presented"] += sum(o.presented_cookie is not None
                                           for o in observations)
    for session in tracer.sessions:
        public["sessions"] += 1
        if session.established:
            public["resumed" if session.resumption_accepted else "full"] += 1
    public.update(outcome_public)
    tracer.worlds.clear()
    tracer.sessions.clear()


def coverage_problems(tracer: Tracer, public: Counter, ops: int,
                      worlds_per_op: int) -> list[str]:
    """Span counts that disagree with the public records of the same ops."""
    calls = {name: v[0] for name, v in tracer.times().items()}
    calls.update(tracer.counts)
    pairs = [
        ("stack.world_init", ops * worlds_per_op),
        ("stack.open_connection", public["connections"]),
        ("tlschan.client_session_init", public["connections"]),
        ("transport.connect", public["connections"]),
        ("transport.accept", public["accepts"]),
        ("cookies.mint", public["cookies_issued"]),
        ("cookies.validate", public["cookies_presented"]),
    ]
    for key, name in (("link_sends", "simcore.link_send"),
                      ("edges", "adversary.edges"),
                      ("capture_bytes", "capture.bytes"),
                      ("trials", "kernels.trials")):
        if key in public:
            pairs.append((name, public[key]))
    problems = [f"{name}: {calls.get(name, 0)} spans, {want} in public records"
                for name, want in pairs if calls.get(name, 0) != want]
    if public["full"] + public["resumed"] != public["sessions"]:
        problems.append(f"{public['sessions']} client sessions, but "
                        f"{public['full']} full + {public['resumed']} resumed "
                        "handshakes completed")
    return problems


def layer_metrics(tracer: Tracer, public: Counter) -> dict[str, float]:
    """The per-layer metrics of one traced run: counts are totals over
    its ops, ``*_s`` are self times in seconds summed over its ops."""
    times = tracer.times()

    def calls(*names):
        return sum(times.get(n, (0, 0.0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(times.get(n, (0, 0.0, 0.0))[2] for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    c = tracer.counts
    return {
        "rngtools.streams": calls("rngtools.stream"),
        "rngtools.stream_s": self_s("rngtools.stream"),
        "stack.worlds": calls("stack.world_init"),
        "stack.world_build_s": self_s("stack.world_init", "stack.add_pool",
                                      "stack.add_client", "stack.add_gateway",
                                      "stack.attach_tap"),
        "stack.connections": calls("stack.open_connection"),
        "stack.open_connection_s": self_s("stack.open_connection"),
        "simcore.events": c["simcore.events"],
        "simcore.run_self_s": self_s("simcore.run"),
        "simcore.link_sends": calls("simcore.link_send"),
        "simcore.packet_copies": c["simcore.packet_copies"],
        "simcore.link_send_s": self_s("simcore.link_send"),
        "transport.connect_s": self_s("transport.connect"),
        "transport.accept_s": self_s("transport.accept"),
        "transport.zero_rtt_attempted": public["zero_rtt_attempted"],
        "transport.zero_rtt_accepted": public["zero_rtt_accepted"],
        "transport.zero_rtt_accept_ratio": ratio(public["zero_rtt_accepted"],
                                                 public["zero_rtt_attempted"]),
        "tlschan.client_sessions": calls("tlschan.client_session_init"),
        "tlschan.client_session_init_s": self_s("tlschan.client_session_init"),
        "tlschan.client_on_bytes_s": self_s("tlschan.client_on_bytes"),
        "tlschan.server_on_bytes_s": self_s("tlschan.server_on_bytes"),
        "tlschan.full_handshakes": public["full"],
        "tlschan.resumed_handshakes": public["resumed"],
        "cookies.mints": calls("cookies.mint"),
        "cookies.mint_s": self_s("cookies.mint"),
        "cookies.validates": calls("cookies.validate"),
        "cookies.validate_s": self_s("cookies.validate"),
        "cookies.rejects": c["cookies.rejects"],
        "cookies.validate_reject_ratio": ratio(c["cookies.rejects"],
                                               calls("cookies.validate")),
        "adversary.observe_s": self_s("adversary.observe"),
        "adversary.link_s": self_s("adversary.link"),
        "adversary.edges": c["adversary.edges"],
        "adversary.components_s": self_s("adversary.components"),
        "capture.encode_s": self_s("capture.encode"),
        "capture.decode_s": self_s("capture.decode"),
        "capture.bytes": c["capture.bytes"],
        "scenario.checks_s": self_s("scenario.checks"),
        "kernels.tally_s": self_s("kernels.tally"),
        "kernels.trials": c["kernels.trials"],
        "experiments.table5_fast_self_s": self_s("experiments.table5_fast"),
    }
