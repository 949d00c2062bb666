"""The word-parallel tally must count exactly what the plain one does."""

import importlib.util
import math
from pathlib import Path

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


def planted_block(hosts, rows=600):
    """Draws of 0 and 2^32 - 1 only, so thresholds 1 and 2^32 - 1 both
    split them: the primary misses half the time, each secondary 3%, so
    most rows have every secondary hit and many a lone primary miss."""
    rng = np.random.default_rng(hosts)
    miss = rng.random((rows, hosts)) < 0.03
    miss[:, 0] = rng.random(rows) < 0.5
    return np.where(miss, 2**32 - 1, 0).astype(np.uint32)


@pytest.mark.parametrize("threshold", [0, 1, 2**32 - 1, 2**32])
@pytest.mark.parametrize("hosts", [19, 20, 21])
def test_tally_matches_reference_on_strided_blocks(hosts, threshold):
    block = planted_block(hosts)
    wide = np.zeros((len(block), hosts + 5), dtype=np.uint32)
    wide[:, 2:hosts + 2] = block
    column_slice = wide[:, 2:hosts + 2]
    transposed = np.ascontiguousarray(block.T).T
    for strided in (column_slice, transposed):
        assert not strided.flags.c_contiguous
        assert (kernels.tally_savings(strided, threshold)
                == reference_tally(block, threshold))
    n0, n1, n2 = reference_tally(block, threshold)
    if 0 < threshold < 2**32:  # the block exercises every count
        assert min(n0, n1, n2) > 0


def load_bench_kernels():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("q", [0.607, 1.0])
@pytest.mark.parametrize("hosts", [19, 20, 21])
def test_bench_kernels_runs_and_checks_its_counts(hosts, q):
    # ``run`` raises unless every block's tally equals its reference tally
    row = load_bench_kernels().run(20_000, hosts, q, repeats=1)
    assert row["hosts"] == hosts and sum(row["tally"]) == 20_000
    assert row["tally_over_draw"] > 0
