"""Exact work counts of fixed Table 5 cells, of a long scenario run and of
the bundled address-change runs.

The work a run does is deterministic, so it is pinned exactly, as the
golden digests pin bytes: X25519 key loads and exchanges, record keys
derived, derived random streams, events scheduled, link sends, full and
resumed handshakes, and the raw outputs a Table 5 cell's stream draws. A timing would not show
one extra exchange per full handshake; these counts do. They come from
``benchmarks/work_counts.py``, which also writes them into each BENCH
file, so the pinned and the recorded counts cannot drift apart.

A change that moves a count updates it here and says why.
"""

import importlib.util
from pathlib import Path

import pytest


def load_work_counts():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "work_counts.py"
    spec = importlib.util.spec_from_file_location("work_counts", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


work_counts = load_work_counts()


# A trial's initial visit makes 20 full handshakes, a key pair loaded and
# an exchange on each side; its revisit resumes all 20 with psk_ke and
# makes none. Every handshake derives 4 record keys, an s2c key on each
# side and the request's key on each side: the c2s key after a full
# handshake, the early key on a resumption. It derives 21 streams, the client's and 20 pools'; the cell
# adds its ("table5", variant, revisit) stream, of which 20 lanes take 3
# outputs and no lane ties. Every event but the two visits delivers a link
# send. A tfo revisit's load-balancer misses cost it link sends that a fop
# revisit saves.
def one_trial(link_sends):
    return {"x25519_loads": 40, "x25519_exchanges": 40, "record_keys": 160,
            "streams": 22,
            "events": link_sends + 2, "link_sends": link_sends,
            "full_handshakes": 20, "resumed_handshakes": 20,
            "table5_outputs": 3}


# 30 trials: 600 lanes take 75 outputs, and 2 ties read one each. A 1M-
# trial fast cell runs no trial: 20M lanes take 2.5M outputs, and the
# 77,921 ties (about 1 lane in 256) one each. The 400-visit run is
# perfbench's tracking_longrun scenario: 8 clients and 4 pools derive 12
# streams; 32 first visits of a client to a host make full handshakes, and
# every other visit resumes. The two address-change configs run under tfo,
# one client and one pool each (2 streams): nat_rotation_tfo's five visits
# make one full handshake and four resumptions, with one rotation event;
# ip_change's two visits one of each, with one change_ip event. Every
# other event is a link send.
EXPECTED = {
    "packet_1_tfo": one_trial(185),
    "packet_1_fop": one_trial(180),
    "packet_30_tfo": {"x25519_loads": 1200, "x25519_exchanges": 1200,
                      "record_keys": 4800,
                      "streams": 631, "events": 5692, "link_sends": 5632,
                      "full_handshakes": 600, "resumed_handshakes": 600,
                      "table5_outputs": 77},
    "fast_1m_tfo": {"streams": 1, "table5_outputs": 2_577_921},
    "longrun_400_tfo": {"x25519_loads": 64, "x25519_exchanges": 64,
                        "record_keys": 1600,
                        "streams": 12, "events": 1730, "link_sends": 1328,
                        "full_handshakes": 32, "resumed_handshakes": 368},
    "nat_rotation_tfo": {"x25519_loads": 2, "x25519_exchanges": 2,
                         "record_keys": 20,
                         "streams": 2, "events": 25, "link_sends": 19,
                         "full_handshakes": 1, "resumed_handshakes": 4},
    "ip_change_tfo": {"x25519_loads": 2, "x25519_exchanges": 2,
                      "record_keys": 8,
                      "streams": 2, "events": 13, "link_sends": 10,
                      "full_handshakes": 1, "resumed_handshakes": 1},
}


def test_every_case_is_pinned():
    assert set(work_counts.CASES) == set(EXPECTED)


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_case(case):
    assert work_counts.CASES[case]() == EXPECTED[case]


def test_counting_restores_what_it_wraps():
    from fopsim import tlschan
    from fopsim.rngtools import SeedTree
    from fopsim.simcore import Link, Simulator
    wrapped = [(tlschan, "X25519PrivateKey"), (SeedTree, "stream"),
               (Simulator, "schedule"), (Link, "send"),
               (tlschan, "derive_record_key"), (tlschan, "derive_early_key"),
               (tlschan.ClientSession, "__init__")]
    before = [owner.__dict__[name] for owner, name in wrapped]
    with pytest.raises(KeyError):
        with work_counts.counting():
            raise KeyError
    assert [owner.__dict__[name] for owner, name in wrapped] == before


def test_a_stream_that_draws_one_output_more_fails():
    from fopsim.rngtools import SeedTree
    from fopsim.transport import TcpVariant
    names = ("table5", "tfo", 1)
    rng = SeedTree(work_counts.SEED).stream(*names)
    rng.bit_generator.advance(3 + 1)
    with pytest.raises(AssertionError, match="did not draw 3 outputs"):
        work_counts.table5_outputs([(names, rng)], 1, TcpVariant.TFO)
