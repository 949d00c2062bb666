import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fopsim.rngtools import SeedTree, _name_key, random_bytes

seeds = st.integers(0, 2**64 - 1)
names = st.one_of(st.text(max_size=12), st.integers(0, 2**40))

# one step of a draw sequence: a byte length, or another kind of draw
steps = st.one_of(
    st.integers(1, 8).map(lambda k: 8 * k),
    st.integers(1, 40),
    st.sampled_from(["random", "integers63", "integers10"]),
)


def _draw(rng, step, take_bytes):
    if step == "random":
        return rng.random()
    if step == "integers63":
        return int(rng.integers(0, 2**63))
    if step == "integers10":  # a 32-bit draw: leaves a half-word buffered
        return int(rng.integers(0, 10))
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


class _CountingGenerator(np.random.Generator):
    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.calls = 0

    def bytes(self, length):
        self.calls += 1
        return super().bytes(length)


def test_random_bytes_reads_whole_words_raw():
    rng = _CountingGenerator(np.random.PCG64(3))
    assert random_bytes(rng, 48) == np.random.default_rng(3).bytes(48)
    assert rng.calls == 0
    random_bytes(rng, 12)  # not whole 64-bit words: Generator.bytes
    assert rng.calls == 1


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(seed=seeds, path=st.lists(names, max_size=5))
def test_stream_matches_numpy_seed_sequence(seed, path):
    key = tuple(_name_key(n) for n in path)
    expected = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=key)))
    assert (SeedTree(seed).stream(*path).bit_generator.state
            == expected.bit_generator.state)


def test_stream_seed_words_serve_only_pcg64():
    seed_seq = SeedTree(1).stream("x").bit_generator.seed_seq
    with pytest.raises(ValueError):
        seed_seq.generate_state(8)
