"""The word-parallel tally must count exactly what the plain one does."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fopsim import kernels
from fopsim.rngtools import random_uint32


def reference_tally(draws, threshold):
    hit = draws < threshold
    saved = hit[:, 0].astype(np.int64) + hit[:, 1:].all(axis=1)
    n0, n1, n2 = np.bincount(saved, minlength=3)
    return int(n0), int(n1), int(n2)


def draws_of(seed, rows, cols):
    return random_uint32(np.random.default_rng(seed), rows * cols).reshape(
        rows, cols)


@pytest.fixture
def draws():
    return draws_of(2, 5_000, 20)


def test_numpy_tally_counts_correctly():
    d = np.array([[1, 2, 3],   # primary hit, all secondaries hit -> 2
                  [9, 2, 3],   # primary miss, secondaries hit    -> 1
                  [1, 9, 3],   # primary hit, one secondary miss  -> 1
                  [9, 9, 9]],  # everything misses                -> 0
                 dtype=np.uint32)
    assert kernels.tally_savings(d, 5) == (1, 2, 1)


def test_no_secondaries_edge_case():
    d = np.array([[1], [9]], dtype=np.uint32)
    # the parallel stage is vacuous: its RTT is always saved
    assert kernels.tally_savings(d, 5) == (0, 1, 1)


def test_counts_sum_to_trials(draws):
    n0, n1, n2 = kernels.tally_savings(draws, 2**31)
    assert n0 + n1 + n2 == len(draws)


def test_threshold_extremes_are_exact(draws):
    # 2^32 is above every 32-bit draw, and no draw is below 0
    assert kernels.tally_savings(draws, 2**32) == (0, 0, len(draws))
    assert kernels.tally_savings(draws, 0) == (len(draws), 0, 0)


def test_backend_is_numpy():
    assert kernels.backend_name() == "numpy"


@st.composite
def _blocks(draw):
    """A uint32 block of 0-30 trials over 1-40 hosts, and a threshold
    that is 0, 2^32 or one of its draws. Draws come mostly from a few
    values, so whole rows hit and a draw equal to the threshold is
    common."""
    cols = draw(st.integers(1, 40))
    rows = draw(st.integers(0, 30))
    values = st.sampled_from([0, 2**30, 2**31, 3 * 2**30, 2**32 - 1]) | \
        st.integers(0, 2**32 - 1)
    block = draw(arrays(np.uint32, (rows, cols), elements=values))
    threshold = draw(st.sampled_from([0, 2**32, *block.ravel()[:64].tolist()]))
    return block, threshold


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_blocks())
def test_tally_matches_reference(case):
    block, threshold = case
    assert (kernels.tally_savings(block, threshold)
            == reference_tally(block, threshold))


@pytest.mark.parametrize("cols", [1, 7, 8, 9, 16, 17, 20, 40])
def test_tally_matches_reference_on_uniforms(cols):
    d = draws_of(cols, 2_000, cols)
    for q in (0.0, 0.5, 0.95, 0.999, 1.0):
        threshold = math.ceil(q * 2**32)
        assert (kernels.tally_savings(d, threshold)
                == reference_tally(d, threshold))
