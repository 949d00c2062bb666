#!/usr/bin/env python3
"""Exact work counts of fixed fopsim runs.

The work a run does is deterministic, so it can be pinned exactly, as the
golden digests pin bytes. A timing would not show one extra X25519
exchange per full handshake; these counts do. Each case counts, through
wrappers installed for its length (as perfbench's spans count):

- ``x25519_loads`` and ``x25519_exchanges``: X25519 keys loaded inside
  ``tlschan`` and the exchanges made with them;
- ``record_keys``: calls of ``tlschan.derive_record_key`` and
  ``tlschan.derive_early_key``, on either side;
- ``streams``: ``SeedTree.stream`` calls;
- ``events``: events scheduled on a ``Simulator``;
- ``link_sends``: packets sent on a ``Link``;
- ``full_handshakes`` and ``resumed_handshakes``: client sessions that
  finished a handshake, without and with an accepted resumption;
- ``table5_outputs``, for a Table 5 cell: the raw outputs its
  ``("table5", variant, revisit)`` stream drew. That is ceil(trials *
  hosts / 8) lane outputs plus one per tie read (a lane equal to T >> 24,
  read only when T & 0xFFFFFF is not 0; see ``experiments.table5``),
  and the case fails unless the stream's end state is a fresh stream's
  advanced by that many.

The cases (``CASES``) are one-trial 20-host packet cells under tfo and
fop, a 30-trial tfo packet cell and a 1M-trial tfo fast cell, all at
seed 7, one 400-visit tfo run of perfbench's ``tracking_longrun``
scenario at config seed 7, and the two bundled address-change configs,
``nat_rotation_tfo.json`` and ``privacy/ip_change.json``, under tfo. ``tests/test_work.py`` pins every count, and
``benchmarks/record.py`` writes them into each ``BENCH_*.json``.

Usage, from the root of a checkout:
    PYTHONPATH=src python benchmarks/work_counts.py
prints ``{case: {count: value}}`` as JSON.
"""

from __future__ import annotations

import contextlib
import importlib.util
import json
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from fopsim import tlschan
from fopsim.config import ScenarioConfig
from fopsim.experiments.failure import (
    REFERENCE_N_SECONDARY,
    REFERENCE_RTT_MS,
    RevisitFailureModel,
)
from fopsim.experiments.table5 import hit_threshold, table5_montecarlo
from fopsim.rngtools import SeedTree, random_lanes
from fopsim.scenario import run_scenario
from fopsim.simcore import Link, Simulator
from fopsim.transport import TcpVariant

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
MODEL = RevisitFailureModel.reference()
HOSTS = REFERENCE_N_SECONDARY + 1
LONGRUN_VISITS = 400
# lanes read at a time when counting a fresh stream's ties: whole outputs
_TIE_CHUNK_LANES = 1 << 22


class CountedKey:
    """Stands in for ``X25519PrivateKey`` inside ``tlschan``, counting
    the keys loaded and the exchanges made with them into ``work``."""

    work: Counter

    def __init__(self, key):
        self._key = key

    @classmethod
    def from_private_bytes(cls, data):
        cls.work["x25519_loads"] += 1
        return cls(X25519PrivateKey.from_private_bytes(data))

    def public_key(self):
        return self._key.public_key()

    def exchange(self, peer):
        self.work["x25519_exchanges"] += 1
        return self._key.exchange(peer)


@contextlib.contextmanager
def counting():
    """Count the work done inside the block. Yields the Counter of counts
    and a list of each ``table5`` stream derived, as (names, generator);
    the block's end adds the handshakes to the counts."""
    counts: Counter = Counter()
    sessions, table5 = [], []
    stream, schedule, send = SeedTree.stream, Simulator.schedule, Link.send
    session_init = tlschan.ClientSession.__init__
    record_key, early_key = tlschan.derive_record_key, tlschan.derive_early_key

    def counted_stream(tree, *names):
        counts["streams"] += 1
        rng = stream(tree, *names)
        if names[0] == "table5":
            table5.append((names, rng))
        return rng

    def counted_schedule(sim, at, action):
        counts["events"] += 1
        schedule(sim, at, action)

    def counted_send(link, pkt, deliver):
        counts["link_sends"] += 1
        send(link, pkt, deliver)

    def counted_record_key(*args):
        counts["record_keys"] += 1
        return record_key(*args)

    def counted_early_key(*args):
        counts["record_keys"] += 1
        return early_key(*args)

    def kept_session_init(session, *args, **kw):
        session_init(session, *args, **kw)
        sessions.append(session)

    patches = [(tlschan, "X25519PrivateKey", CountedKey),
               (SeedTree, "stream", counted_stream),
               (Simulator, "schedule", counted_schedule),
               (Link, "send", counted_send),
               (tlschan, "derive_record_key", counted_record_key),
               (tlschan, "derive_early_key", counted_early_key),
               (tlschan.ClientSession, "__init__", kept_session_init)]
    originals = [(owner, name, owner.__dict__[name])
                 for owner, name, _ in patches]
    CountedKey.work = counts
    for owner, name, value in patches:
        setattr(owner, name, value)
    try:
        yield counts, table5
    finally:
        for owner, name, value in originals:
            setattr(owner, name, value)
    for session in sessions:
        if session.established:
            counts["resumed_handshakes" if session.resumption_accepted
                   else "full_handshakes"] += 1


def table5_outputs(table5, trials: int, variant: TcpVariant) -> int:
    """The raw outputs the one ``table5`` stream of a first-revisit cell
    of ``trials`` trials of ``HOSTS`` hosts drew: its lane outputs plus
    the ties read, counted on a fresh stream. Raises AssertionError
    unless the stream ends where a fresh one advanced by that many does."""
    names = ("table5", variant.value, 1)
    ((drawn_names, drawn),) = table5
    if drawn_names != names:
        raise AssertionError(f"expected the {names} stream, not {drawn_names}")
    threshold = hit_threshold(MODEL.prob_for(1))
    lanes = trials * HOSTS
    ties = 0
    if threshold & 0xFFFFFF:
        fresh = SeedTree(SEED).stream(*names)
        for start in range(0, lanes, _TIE_CHUNK_LANES):
            chunk = random_lanes(fresh, min(_TIE_CHUNK_LANES, lanes - start))
            ties += int((chunk == threshold >> 24).sum())
    outputs = -(-lanes // 8) + ties
    expected = SeedTree(SEED).stream(*names)
    expected.bit_generator.advance(outputs)
    if drawn.bit_generator.state != expected.bit_generator.state:
        raise AssertionError(f"the table5 stream did not draw {outputs} outputs")
    return outputs


def table5_cell(trials: int, variant: TcpVariant, engine: str) -> dict:
    """The counts of the first-revisit reference cell of ``HOSTS`` hosts
    at seed ``SEED``, with its ``table5_outputs`` when it draws."""
    with counting() as (counts, table5):
        table5_montecarlo(MODEL, 1, REFERENCE_N_SECONDARY, REFERENCE_RTT_MS,
                          trials=trials, seed=SEED, variant=variant,
                          engine=engine)
    if table5:
        counts["table5_outputs"] = table5_outputs(table5, trials, variant)
    return dict(counts)


def longrun_config() -> dict:
    """perfbench's ``tracking_longrun`` scenario: ``LONGRUN_VISITS``
    visits under tfo, at config seed ``SEED``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workload = workloads.TrackingLongrun(1, False, str(ROOT))
    workload.visits = LONGRUN_VISITS
    return workload.make_config(SEED, TcpVariant.TFO)


def longrun() -> dict:
    cfg = ScenarioConfig.from_dict(longrun_config())
    with counting() as (counts, _):
        result = run_scenario(cfg)
    if not result.passed:
        raise AssertionError(f"checks failed: {result.checks}")
    return dict(counts)


def bundled(name: str) -> dict:
    """The counts of the bundled config ``configs/{name}``, run under
    tfo."""
    data = json.loads((resources.files("fopsim") / "configs" / name)
                      .read_text(encoding="utf-8"))
    data["variant"] = TcpVariant.TFO.value
    with counting() as (counts, _):
        run_scenario(ScenarioConfig.from_dict(data))
    return dict(counts)


CASES = {
    "packet_1_tfo": lambda: table5_cell(1, TcpVariant.TFO, "packet"),
    "packet_1_fop": lambda: table5_cell(1, TcpVariant.FOP, "packet"),
    "packet_30_tfo": lambda: table5_cell(30, TcpVariant.TFO, "packet"),
    "fast_1m_tfo": lambda: table5_cell(1_000_000, TcpVariant.TFO, "fast"),
    "longrun_400_tfo": longrun,
    "nat_rotation_tfo": lambda: bundled("nat_rotation_tfo.json"),
    "ip_change_tfo": lambda: bundled("privacy/ip_change.json"),
}


def main() -> int:
    print(json.dumps({name: case() for name, case in CASES.items()},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
