"""The word-parallel tally must count exactly what the plain one does."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fopsim import kernels


def reference_tally(uniforms, q):
    hit = uniforms < q
    saved = hit[:, 0].astype(np.int64) + hit[:, 1:].all(axis=1)
    n0, n1, n2 = np.bincount(saved, minlength=3)
    return int(n0), int(n1), int(n2)


@pytest.fixture
def uniforms():
    return np.random.default_rng(2).random((5_000, 20))


def test_numpy_tally_counts_correctly():
    u = np.array([[0.1, 0.2, 0.3],   # primary hit, all secondaries hit -> 2
                  [0.9, 0.2, 0.3],   # primary miss, secondaries hit    -> 1
                  [0.1, 0.9, 0.3],   # primary hit, one secondary miss  -> 1
                  [0.9, 0.9, 0.9]])  # everything misses                -> 0
    assert kernels.tally_savings(u, 0.5) == (1, 2, 1)


def test_no_secondaries_edge_case():
    u = np.array([[0.1], [0.9]])
    # the parallel stage is vacuous: its RTT is always saved
    assert kernels.tally_savings(u, 0.5) == (0, 1, 1)


def test_counts_sum_to_trials(uniforms):
    n0, n1, n2 = kernels.tally_savings(uniforms, 0.6)
    assert n0 + n1 + n2 == len(uniforms)


def test_backend_is_numpy():
    assert kernels.backend_name() == "numpy"


@st.composite
def _blocks(draw):
    """A block of 0-30 trials over 1-40 hosts, and a threshold that is 0,
    1 or one of its draws. Draws come mostly from a few values, so whole
    rows hit and a draw equal to the threshold is common."""
    cols = draw(st.integers(1, 40))
    rows = draw(st.integers(0, 30))
    values = st.sampled_from([0.0, 0.25, 0.5, 0.75]) | st.floats(
        0.0, 1.0, exclude_max=True)
    block = draw(arrays(np.float64, (rows, cols), elements=values))
    q = draw(st.sampled_from([0.0, 1.0, *block.ravel()[:64].tolist()]))
    return block, q


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_blocks())
def test_tally_matches_reference(case):
    block, q = case
    assert kernels.tally_savings(block, q) == reference_tally(block, q)


@pytest.mark.parametrize("cols", [1, 7, 8, 9, 16, 17, 20, 40])
def test_tally_matches_reference_on_uniforms(cols):
    u = np.random.default_rng(cols).random((2_000, cols))
    for q in (0.0, 0.5, 0.95, 0.999, 1.0):
        assert kernels.tally_savings(u, q) == reference_tally(u, q)
