"""The word-parallel tally must count exactly what the plain one does."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_table5 import plain_tally, rebuild_host_values

from fopsim import kernels
from fopsim.experiments import table5


def reference_tally(miss):
    hit = ~miss
    saved = hit[:, 0].astype(np.int64) + hit[:, 1:].all(axis=1)
    n0, n1, n2 = np.bincount(saved, minlength=3)
    return int(n0), int(n1), int(n2)


def miss_of(seed, rows, cols, q):
    """Flags of hosts that each miss with probability 1 - q."""
    return np.random.default_rng(seed).random((rows, cols)) >= q


@pytest.fixture
def miss():
    return miss_of(2, 5_000, 20, 0.5)


def test_numpy_tally_counts_correctly():
    m = np.array([[0, 0, 0],   # primary hit, all secondaries hit -> 2
                  [1, 0, 0],   # primary miss, secondaries hit    -> 1
                  [0, 1, 0],   # primary hit, one secondary miss  -> 1
                  [1, 1, 1]],  # everything misses                -> 0
                 dtype=bool)
    assert kernels.tally_savings(m) == (1, 2, 1)


def test_no_secondaries_edge_case():
    m = np.array([[False], [True]])
    # the parallel stage is vacuous: its RTT is always saved
    assert kernels.tally_savings(m) == (0, 1, 1)


def test_counts_sum_to_trials(miss):
    n0, n1, n2 = kernels.tally_savings(miss)
    assert n0 + n1 + n2 == len(miss)


def test_all_or_no_misses_are_exact(miss):
    assert kernels.tally_savings(np.zeros_like(miss)) == (0, 0, len(miss))
    assert kernels.tally_savings(np.ones_like(miss)) == (len(miss), 0, 0)


def test_backend_is_numpy():
    assert kernels.backend_name() == "numpy"


@st.composite
def _blocks(draw):
    """A bool block of 0-30 trials over 1-40 hosts, with a miss rate of
    its own, so blocks where no host or every host misses, and lone
    misses, are common."""
    cols = draw(st.integers(1, 40))
    rows = draw(st.integers(0, 30))
    rate = draw(st.sampled_from([0.0, 0.03, 0.5, 0.97, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).random((rows, cols)) < rate


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_blocks())
def test_tally_matches_reference(block):
    assert kernels.tally_savings(block) == reference_tally(block)


@pytest.mark.parametrize("cols", [*range(1, 25), 40])
def test_tally_matches_reference_on_uniforms(cols):
    # every leftover of 0 to 3 bytes past whole words, in contiguous
    # blocks and in column slices and transposes of them
    for q in (0.0, 0.5, 0.95, 0.999, 1.0):
        m = miss_of(cols, 2_000, cols, q)
        wide = np.zeros((len(m), cols + 3), dtype=bool)
        wide[:, 1:cols + 1] = m
        for block in (m, wide[:, 1:cols + 1], np.ascontiguousarray(m.T).T):
            assert kernels.tally_savings(block) == reference_tally(m)


def planted_block(hosts, rows=600):
    """The primary misses half the time, each secondary 3%, so most rows
    have every secondary hit and many a lone primary miss."""
    rng = np.random.default_rng(hosts)
    miss = rng.random((rows, hosts)) < 0.03
    miss[:, 0] = rng.random(rows) < 0.5
    return miss


@pytest.mark.parametrize("hosts", [19, 20, 21])
def test_tally_matches_reference_on_strided_blocks(hosts):
    block = planted_block(hosts)
    wide = np.zeros((len(block), hosts + 5), dtype=bool)
    wide[:, 2:hosts + 2] = block
    column_slice = wide[:, 2:hosts + 2]
    transposed = np.ascontiguousarray(block.T).T
    for strided in (column_slice, transposed):
        assert not strided.flags.c_contiguous
        assert kernels.tally_savings(strided) == reference_tally(block)
    n0, n1, n2 = reference_tally(block)
    assert min(n0, n1, n2) > 0  # the block exercises every count


@pytest.mark.parametrize("low_bits", [0x800000, 0])
@pytest.mark.parametrize("hosts", [19, 20, 21])
def test_tally_of_miss_blocks_is_the_plain_tally_of_values(monkeypatch, hosts,
                                                          low_bits):
    # a threshold whose top byte is the stream's most common lane, so
    # many hosts tie; small blocks put ties on both sides of a boundary
    trials = 300
    lanes = np.random.default_rng(hosts).bit_generator.random_raw(
        -(-trials * hosts // 8)).view(np.uint8)
    threshold = int(np.bincount(lanes).argmax()) << 24 | low_bits
    values, _ = rebuild_host_values(np.random.default_rng(hosts), threshold,
                                    hosts, trials)
    monkeypatch.setattr(table5, "_DRAW_BLOCK_LANES", 2000)
    counts = np.zeros(3, dtype=np.int64)
    for miss in table5.miss_blocks(np.random.default_rng(hosts), threshold,
                                   hosts, trials):
        counts += kernels.tally_savings(miss)
    assert tuple(counts.tolist()) == plain_tally(values, threshold)


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
