import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fopsim.experiments.table4 import table4_grid
from fopsim.experiments.table5 import table5_montecarlo
from fopsim.rngtools import SeedTree, _name_key, random_bytes, random_lanes
from fopsim.scenario import run_scenario
from fopsim.simcore import RevisitFailureModel
from fopsim.transport import TcpVariant

seeds = st.integers(0, 2**64 - 1)
names = st.one_of(st.text(max_size=12), st.integers(0, 2**40))

# one step of a draw sequence, of the kinds fopsim makes on a stream it
# hands to random_bytes: whole 64-bit words of bytes, or a 64-bit draw
steps = st.one_of(
    st.integers(1, 8).map(lambda k: 8 * k),
    st.sampled_from(["random", "integers63"]),
)


def _draw(rng, step, take_bytes):
    if step == "random":
        return rng.random()
    if step == "integers63":
        return int(rng.integers(0, 2**63))
    return take_bytes(rng, step)


def _live_state(rng):
    """The generator state that later draws depend on. The half-word slot
    ``uinteger`` is dead unless ``has_uint32`` is set."""
    state = rng.bit_generator.state
    if not state["has_uint32"]:
        del state["uinteger"]
    return state


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(seed=seeds, sequence=st.lists(steps, max_size=20))
def test_random_bytes_matches_generator_bytes(seed, sequence):
    ours = np.random.default_rng(seed)
    theirs = np.random.default_rng(seed)
    for step in sequence:
        assert (_draw(ours, step, random_bytes)
                == _draw(theirs, step, lambda rng, n: rng.bytes(n)))
        assert _live_state(ours) == _live_state(theirs)


def test_random_bytes_reads_whole_words_raw():
    rng = np.random.default_rng(3)
    assert random_bytes(rng, 48) == np.random.default_rng(3).bytes(48)
    with pytest.raises(ValueError, match="64-bit words"):
        random_bytes(rng, 12)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 20, 32])
def test_random_lanes_reads_raw_outputs_low_byte_first(n):
    rng = np.random.default_rng(6)
    raw = np.random.default_rng(6).bit_generator.random_raw(4).tolist()
    lanes = [w >> shift & 0xFF for w in raw for shift in range(0, 64, 8)]
    got = random_lanes(rng, n)
    assert got.dtype == np.uint8 and got.tolist() == lanes[:n]
    # the stream is left exactly ceil(n / 8) outputs further on
    after = np.random.default_rng(6)
    after.bit_generator.advance(-(-n // 8))
    assert rng.bit_generator.state == after.bit_generator.state


def test_random_lanes_in_pieces_of_whole_outputs_read_one_call():
    rng = np.random.default_rng(8)
    pieces = [random_lanes(rng, n) for n in (16, 8, 40, 5)]
    whole = random_lanes(np.random.default_rng(8), 69)
    assert np.concatenate(pieces).tolist() == whole.tolist()


def test_program_streams_hold_no_half_word_at_any_byte_draw(monkeypatch,
                                                           bundled_configs):
    # random_bytes gives rng.bytes's bytes only on a PCG64 stream with no
    # 32-bit half-word buffered: every run fopsim makes keeps it so
    calls = []

    def checked(rng, n):
        bg = rng.bit_generator
        calls.append(n)
        assert type(bg) is np.random.PCG64
        assert bg.state["has_uint32"] == 0
        return random_bytes(rng, n)

    for name, module in list(sys.modules.items()):
        if name == "fopsim" or name.startswith("fopsim."):
            for attr, value in list(vars(module).items()):
                if value is random_bytes:
                    monkeypatch.setattr(module, attr, checked)
    for cfg in bundled_configs:
        run_scenario(cfg)
    table4_grid([50, 100], list(TcpVariant), seed=0)
    for variant in (TcpVariant.TFO, TcpVariant.FOP):
        table5_montecarlo(RevisitFailureModel.reference(), 1, 19, 60,
                          trials=6, seed=0, variant=variant, engine="packet")
    assert set(calls) == {8, 16, 32, 48}


def test_lb_streams_derived_only_where_chance_decides(monkeypatch,
                                                     bundled_configs):
    # a miss probability of 0 or 1 settles a revisit without its uniform,
    # so no run with only such probabilities derives an lb stream
    derived = []
    stream = SeedTree.stream

    def counted(tree, *path):
        derived.append(path[0])
        return stream(tree, *path)

    monkeypatch.setattr(SeedTree, "stream", counted)
    for variant in (TcpVariant.TFO, TcpVariant.FOP):
        derived.clear()
        table5_montecarlo(RevisitFailureModel.reference(), 1, 19, 60,
                          trials=1, seed=0, variant=variant, engine="packet")
        # the cell's draws, the trial's client and each of its 20 pools,
        # whose one stream also gives its cookie key
        assert sorted(derived) == sorted(["table5", "client"] + ["pool"] * 20)
    derived.clear()
    for cfg in bundled_configs:
        run_scenario(cfg)
    assert derived and "lb" not in derived


def test_stream_name_of_another_type_is_keyed_by_its_text():
    for name, text in ((1.5, "1.5"), (None, "None"), (b"a", "b'a'")):
        assert (SeedTree(3).stream("x", name).bit_generator.state
                == SeedTree(3).stream("x", text).bit_generator.state)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(seed=seeds, path=st.lists(names, max_size=5))
def test_stream_matches_numpy_seed_sequence(seed, path):
    key = tuple(_name_key(n) for n in path)
    expected = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=key)))
    assert (SeedTree(seed).stream(*path).bit_generator.state
            == expected.bit_generator.state)
