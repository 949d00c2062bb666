"""Savings-distribution oracles: analytic cells, sampling, both engines."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fopsim import kernels
from fopsim.experiments import (
    REFERENCE_FAILURE_PROBS,
    RevisitFailureModel,
    table5,
    table5_analytic,
    table5_montecarlo,
)
from fopsim.rngtools import SeedTree, random_lanes
from fopsim.transport import TcpVariant


def rebuild_host_values(rng, threshold, cols, trials):
    """Each host's 32-bit value, rebuilt in plain Python from ``rng``.

    Host k's lane is byte k % 8 of raw output k // 8. A tie, a lane equal
    to ``threshold >> 24``, whose low bits can change its outcome takes
    the low 24 bits of the next raw output after the
    ceil(trials * cols / 8) lane outputs, in host order. No other host's
    low bits change its outcome, so they are left 0. Returns the values,
    a list per trial, and the number of tie outputs read; ``rng`` ends
    past them.
    """
    bits = rng.bit_generator
    words = bits.random_raw(-(-trials * cols // 8)).tolist()
    lane_threshold, low_threshold = divmod(threshold, 1 << 24)
    values, reads = [], 0
    for k in range(trials * cols):
        lane = words[k // 8] >> 8 * (k % 8) & 0xFF
        low = 0
        if lane == lane_threshold and low_threshold:
            low = int(bits.random_raw()) & 0xFFFFFF
            reads += 1
        values.append(lane << 24 | low)
    return [values[i:i + cols] for i in range(0, len(values), cols)], reads


def plain_tally(values, threshold):
    """Trials saving 0, 1 and 2 RTTs, a host missing iff its value is at
    least ``threshold``."""
    counts = [0, 0, 0]
    for primary, *secondaries in values:
        counts[(primary < threshold)
               + all(v < threshold for v in secondaries)] += 1
    return tuple(counts)


def cell_stream(seed, revisit=1):
    return SeedTree(seed).stream("table5", "tfo", revisit)


def planted_threshold(seed, cols, trials, low_bits=0x800000):
    """A threshold whose top byte is the cell's most common lane, so the
    cell has several ties, and the miss probability that gives it.
    ``low_bits=None`` takes the first tie's own low bits, so that its
    value equals the threshold."""
    rng = cell_stream(seed)
    lanes = random_lanes(rng, trials * cols)
    lane = int(np.bincount(lanes, minlength=256).argmax())
    if low_bits is None:
        low_bits = int(rng.bit_generator.random_raw()) & 0xFFFFFF
    threshold = lane << 24 | low_bits
    p = 1.0 - threshold / 2**32
    assert table5.hit_threshold(p) == threshold
    return threshold, p


def enumerate_distribution(p, n_secondary):
    """Independent oracle: exact enumeration over the number of secondary
    hits (binomial weights), instead of the closed-form expressions."""
    q = 1.0 - p
    dist = [0.0, 0.0, 0.0]
    for primary_hit in (True, False):
        w_primary = q if primary_hit else p
        for j in range(n_secondary + 1):
            w = (w_primary * math.comb(n_secondary, j)
                 * q ** j * p ** (n_secondary - j))
            saved = int(primary_hit) + int(j == n_secondary)
            dist[saved] += w
    return tuple(dist)


class TestBinomialTail:
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 0.78456, 1.0])
    @pytest.mark.parametrize("n", [0, 1, 5, 30])
    def test_is_the_sum_of_the_tail_terms(self, p, n):
        pmf = [math.comb(n, j) * p**j * (1 - p) ** (n - j)
               for j in range(n + 1)]
        for k in range(n + 1):
            want = sum(pmf[k:]) if k >= n * p else sum(pmf[:k + 1])
            assert table5.binomial_tail(k, n, p) == pytest.approx(
                min(1.0, want), rel=1e-12, abs=1e-300)

    def test_a_large_count_three_sigma_out_is_near_phi_of_minus_three(self):
        n, p = 100_000, 0.4
        sigma = math.sqrt(n * p * (1 - p))
        for k in (round(n * p + 3 * sigma), round(n * p - 3 * sigma)):
            assert table5.binomial_tail(k, n, p) == pytest.approx(0.00135,
                                                                  rel=0.1)


class TestAnalyticOracle:
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.247, 0.393, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("n", [0, 1, 5, 19])
    def test_matches_exhaustive_enumeration(self, p, n):
        model = RevisitFailureModel((p,))
        got = table5_analytic(model, 1, n, 60, TcpVariant.TFO).as_tuple()
        want = enumerate_distribution(p, n)
        assert got == pytest.approx(want, abs=1e-12)

    def test_first_revisit_reference_cells(self):
        d = table5_analytic(RevisitFailureModel.reference(), 1, 19, 60,
                            TcpVariant.TFO)
        assert d.p_save0 == pytest.approx(0.393, abs=0.0015)
        assert d.p_save1 == pytest.approx(0.607, abs=0.0015)
        assert d.p_save2 == pytest.approx(0.000, abs=0.0015)
        assert d.mean_saving_ms == pytest.approx(36.4, abs=0.2)

    def test_second_revisit_reference_cells(self):
        d = table5_analytic(RevisitFailureModel.reference(), 2, 19, 60,
                            TcpVariant.TFO)
        assert d.as_tuple() == pytest.approx((0.246, 0.751, 0.003), abs=0.0015)
        assert d.mean_saving_ms == pytest.approx(45.5, abs=0.2)

    def test_third_revisit_derived_from_all_hit_rate(self):
        # the third-revisit miss probability is pinned by q^20 = 0.134
        q = 0.134 ** (1.0 / 20.0)
        assert REFERENCE_FAILURE_PROBS[2] == pytest.approx(1.0 - q, abs=1e-12)
        d = table5_analytic(RevisitFailureModel.reference(), 3, 19, 60,
                            TcpVariant.TFO)
        assert d.p_save2 == pytest.approx(0.134, abs=1e-9)
        assert d.as_tuple() == pytest.approx((0.081, 0.785, 0.134), abs=0.0015)
        assert d.mean_saving_ms == pytest.approx(63.1, abs=0.2)

    def test_hostname_bound_variant_always_saves_two(self):
        model = RevisitFailureModel.reference()
        for revisit in (1, 2, 3):
            d = table5_analytic(model, revisit, 19, 60, TcpVariant.FOP)
            assert d.as_tuple() == (0.0, 0.0, 1.0)
            assert d.mean_saving_ms == 120.0

    def test_distribution_sums_to_one(self):
        for p in np.linspace(0, 1, 11):
            d = table5_analytic(RevisitFailureModel((float(p),)), 1, 19, 60,
                                TcpVariant.TFO)
            assert abs(sum(d.as_tuple()) - 1.0) <= 1e-12

    def test_distribution_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            table5.SavingsDistribution(0.5, 0.25, 0.25 + 1e-9, 0.0)

    def test_fop_dominates_tfo_strictly_except_at_zero(self):
        for p in np.linspace(0, 1, 11):
            model = RevisitFailureModel((float(p),))
            tfo = table5_analytic(model, 1, 19, 60, TcpVariant.TFO)
            fop = table5_analytic(model, 1, 19, 60, TcpVariant.FOP)
            if p == 0:
                assert fop.mean_saving_ms == tfo.mean_saving_ms
            else:
                assert fop.mean_saving_ms > tfo.mean_saving_ms

    def test_standard_variant_rejected(self):
        with pytest.raises(ValueError):
            table5_analytic(RevisitFailureModel((0.1,)), 1, 19, 60,
                            TcpVariant.STANDARD)


class TestFastEngine:
    def test_save_one_probability_within_binomial_ci(self):
        model = RevisitFailureModel.reference()
        mc = table5_montecarlo(model, 1, 19, 60, trials=100_000, seed=3,
                               variant=TcpVariant.TFO, engine="fast")
        assert abs(mc.p_save1 - 0.607) < 0.005

    def test_zero_miss_probability_always_saves_two(self):
        mc = table5_montecarlo(RevisitFailureModel((0.0,)), 1, 19, 60,
                               trials=2_000, seed=3,
                               variant=TcpVariant.TFO, engine="fast")
        assert mc.as_tuple() == (0.0, 0.0, 1.0)

    def test_fop_saves_two_under_any_probability(self):
        mc = table5_montecarlo(RevisitFailureModel((0.9,)), 1, 19, 60,
                               trials=2_000, seed=3, variant=TcpVariant.FOP,
                               engine="fast")
        assert mc.as_tuple() == (0.0, 0.0, 1.0)
        assert mc.mean_saving_ms == 120.0

    def test_agreement_grid_within_three_sigma(self):
        # analytic/simulation agreement across the probability grid
        trials = 100_000
        for p in [round(0.1 * k, 1) for k in range(11)]:
            model = RevisitFailureModel((p,))
            for n in (0, 1, 19):
                analytic = table5_analytic(model, 1, n, 60, TcpVariant.TFO)
                mc = table5_montecarlo(model, 1, n, 60, trials=trials,
                                       seed=17, variant=TcpVariant.TFO,
                                       engine="fast")
                for emp, exact in zip(mc.as_tuple(), analytic.as_tuple()):
                    sigma = math.sqrt(exact * (1 - exact) / trials)
                    if sigma == 0:
                        assert emp == exact, (p, n)
                    else:
                        assert abs(emp - exact) <= 3 * sigma, (p, n)

    def test_deterministic_for_fixed_seed(self):
        model = RevisitFailureModel.reference()
        a = table5_montecarlo(model, 1, 19, 60, trials=10_000, seed=9,
                              variant=TcpVariant.TFO, engine="fast")
        b = table5_montecarlo(model, 1, 19, 60, trials=10_000, seed=9,
                              variant=TcpVariant.TFO, engine="fast")
        assert a == b

    @pytest.mark.parametrize("n_secondary", [0, 2, 19])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_block_boundaries_do_not_change_counts(self, monkeypatch,
                                                   n_secondary, offset):
        # trials just below, at and above one draw block give the flags
        # of one block of the whole cell, and leave the stream where it
        # does; an offset of +-1 leaves part of the last lane output
        # unread
        model = RevisitFailureModel.reference()
        cols = n_secondary + 1
        trials = table5.draw_block_rows(cols) + offset
        threshold = table5.hit_threshold(model.prob_for(2))

        def cell():
            rng = cell_stream(9, 2)
            flags = np.concatenate(list(
                table5.miss_blocks(rng, threshold, cols, trials)))
            return flags, rng.bit_generator.state

        blocked, blocked_state = cell()
        monkeypatch.setattr(table5, "_DRAW_BLOCK_LANES", trials * cols)
        whole, whole_state = cell()
        assert blocked.shape == (trials, cols)
        assert np.array_equal(blocked, whole)
        assert blocked_state == whole_state
        counts = kernels.tally_savings(whole)
        dist = table5_montecarlo(model, 2, n_secondary, 60, trials=trials,
                                 seed=9, variant=TcpVariant.TFO, engine="fast")
        assert dist.as_tuple() == tuple(n / trials for n in counts)

    @pytest.mark.parametrize("cols", [1, 3, 4, 19, 20, 21, 2**18 + 1])
    def test_draw_blocks_take_whole_raw_outputs(self, cols):
        rows = table5.draw_block_rows(cols)
        step = 8 // math.gcd(cols, 8)  # fewest trials of whole outputs
        assert rows >= step and rows * cols % 8 == 0
        assert rows == step or rows * cols <= 2**18 < (rows + step) * cols

    @pytest.mark.parametrize("low_bits", [0x800000, None])
    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("n_secondary", [1, 4])
    def test_flags_are_exactly_the_rebuilt_values(self, seed, n_secondary,
                                                  low_bits):
        # a threshold with low bits, planted so that many lanes tie; with
        # the first tie's own low bits, that tie's value is the threshold
        cols, trials = n_secondary + 1, 800
        threshold, p = planted_threshold(seed, cols, trials, low_bits)
        values, reads = rebuild_host_values(cell_stream(seed), threshold,
                                            cols, trials)
        assert reads >= 10
        assert (low_bits is None) == any(threshold in row for row in values)
        flags = np.concatenate(list(table5.miss_blocks(
            cell_stream(seed), threshold, cols, trials)))
        assert flags.tolist() == [[v >= threshold for v in row]
                                  for row in values]
        dist = table5_montecarlo(RevisitFailureModel((p,)), 1, n_secondary,
                                 60, trials=trials, seed=seed,
                                 variant=TcpVariant.TFO, engine="fast")
        want = plain_tally(values, threshold)
        assert dist.as_tuple() == tuple(n / trials for n in want)

    def test_ties_in_a_partial_last_word(self, monkeypatch):
        # 19 hosts in blocks of 8 trials (152 lanes, 19 whole words): a
        # 45-trial cell ends with a 5-trial block of 95 lanes, whose last
        # word holds lanes 88-94 and one pad byte. The planted ties put
        # one at lane 88, and one at lane 95 of the block before, which
        # leaves that pad byte set in the reused tie buffer.
        monkeypatch.setattr(table5, "_DRAW_BLOCK_LANES", 160)
        seed, cols, trials = 54, 19, 45
        assert table5.draw_block_rows(cols) == 8
        threshold, _ = planted_threshold(seed, cols, trials)
        tie = random_lanes(cell_stream(seed), trials * cols) == threshold >> 24
        block = 8 * cols
        assert tie[4 * block + 95] and tie[5 * block + 88]
        rebuilt = cell_stream(seed)
        values, reads = rebuild_host_values(rebuilt, threshold, cols,
                                            trials)
        assert reads == 10
        rng = cell_stream(seed)
        blocks = list(table5.miss_blocks(rng, threshold, cols, trials))
        assert [len(b) for b in blocks] == [8] * 5 + [5]
        assert np.concatenate(blocks).tolist() == [
            [v >= threshold for v in row] for row in values]
        assert rng.bit_generator.state == rebuilt.bit_generator.state

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=300)
    @given(n=st.integers(0, 200),
           density=st.sampled_from([0.0, 1 / 256, 0.5, 1.0]),
           seed=st.integers(0, 2**32 - 1), pair=st.booleans(),
           at=st.integers(0, 199), pad_words=st.integers(0, 2))
    def test_word_search_is_flatnonzero(self, n, density, seed, pair, at,
                                        pad_words):
        # blocks of any length, whole words or not, in a buffer of whole
        # words with False pad bytes, as miss_blocks holds its tie flags
        block = np.random.default_rng(seed).random(n) < density
        if pair and n:
            # two ties in one word, at its first and last byte
            first = at % n // 8 * 8
            block[[first, min(first + 7, n - 1)]] = True
        flags = np.zeros((-(-n // 8) + pad_words) * 8, dtype=bool)
        flags[:n] = block
        got = table5._flag_positions(flags, n)
        assert got.tolist() == np.flatnonzero(block).tolist()

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            table5_montecarlo(RevisitFailureModel((0.1,)), 1, 19, 60,
                              trials=0, seed=0, variant=TcpVariant.TFO,
                              engine="fast")


class TestBothEngines:
    # the packet engine runs each trial through the stack: keep them few
    TRIALS = {"fast": 100_000, "packet": 12}

    @pytest.mark.parametrize("engine", ["fast", "packet"])
    def test_zero_miss_probability_never_misses(self, engine):
        mc = table5_montecarlo(RevisitFailureModel((0.0,)), 1, 3, 60,
                               trials=self.TRIALS[engine], seed=3,
                               variant=TcpVariant.TFO, engine=engine)
        assert mc.as_tuple() == (0.0, 0.0, 1.0)

    @pytest.mark.parametrize("engine", ["fast", "packet"])
    def test_certain_miss_always_misses(self, engine):
        mc = table5_montecarlo(RevisitFailureModel((1.0,)), 1, 3, 60,
                               trials=self.TRIALS[engine], seed=3,
                               variant=TcpVariant.TFO, engine=engine)
        assert mc.as_tuple() == (1.0, 0.0, 0.0)

    @pytest.mark.parametrize("p", [0.0, 1e-12, 0.247, 0.5, 0.9, 1.0 - 1e-12,
                                   1.0])
    def test_hit_threshold_is_within_one_draw_of_q(self, p):
        threshold = table5.hit_threshold(p)
        assert 0 <= threshold <= 2**32
        assert 0 <= threshold / 2**32 - (1.0 - p) < 2**-32
        if p in (0.0, 1.0):
            # every draw hits, or none does
            assert threshold == 2**32 * (1 - p)

    @pytest.mark.parametrize("engine", ["fast", "packet"])
    @pytest.mark.parametrize("variant, n_secondary, match", [
        (TcpVariant.STANDARD, 19, "abbreviated variants"),
        (TcpVariant.TFO, -1, "n_secondary"),
        (TcpVariant.FOP, -2, "n_secondary"),
    ])
    def test_rejects_the_cell_the_analytic_rejects(self, monkeypatch, engine,
                                                   variant, n_secondary, match):
        model = RevisitFailureModel((0.1,))
        with pytest.raises(ValueError, match=match):
            table5_analytic(model, 1, n_secondary, 60, variant)
        derived = []
        monkeypatch.setattr(SeedTree, "stream",
                            lambda tree, *path: derived.append(path))
        with pytest.raises(ValueError, match=match):
            table5_montecarlo(model, 1, n_secondary, 60, trials=10, seed=1,
                              variant=variant, engine=engine)
        assert derived == []

    @pytest.mark.parametrize("variant", [TcpVariant.TFO, TcpVariant.FOP])
    def test_revisit_zero_rejected_before_any_stream(self, monkeypatch,
                                                     variant):
        model = RevisitFailureModel((0.1,))
        with pytest.raises(ValueError, match="revisit index starts at 1"):
            table5_analytic(model, 0, 19, 60, variant)
        derived = []
        monkeypatch.setattr(SeedTree, "stream",
                            lambda tree, *path: derived.append(path))
        for engine in ("fast", "packet"):
            with pytest.raises(ValueError, match="revisit index starts at 1"):
                table5_montecarlo(model, 0, 19, 60, trials=10, seed=1,
                                  variant=variant, engine=engine)
        assert derived == []


class TestPacketEngine:
    def test_matches_analytic_within_three_sigma(self):
        # full packet-level stack, smaller website and sample
        trials = 600
        model = RevisitFailureModel((0.393,))
        analytic = table5_analytic(model, 1, 3, 60, TcpVariant.TFO)
        mc = table5_montecarlo(model, 1, 3, 60, trials=trials, seed=21,
                               engine="packet", variant=TcpVariant.TFO)
        for emp, exact in zip(mc.as_tuple(), analytic.as_tuple()):
            sigma = math.sqrt(exact * (1 - exact) / trials)
            assert abs(emp - exact) <= 3 * sigma

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=15)
    @given(seed=st.integers(0, 2**63 - 1), revisit=st.integers(1, 3),
           variant=st.sampled_from([TcpVariant.TFO, TcpVariant.FOP]),
           n_secondary=st.integers(1, 4), trials=st.integers(20, 40))
    def test_counts_equal_the_fast_engine(self, seed, revisit, variant,
                                          n_secondary, trials):
        # both engines read one draw per host and trial, so they agree
        # on every trial's hits and misses, not only in distribution
        model = RevisitFailureModel.reference()
        fast, packet = (
            table5_montecarlo(model, revisit, n_secondary, 60, trials=trials,
                              seed=seed, variant=variant, engine=engine)
            for engine in ("fast", "packet"))
        assert packet == fast
        if variant is TcpVariant.FOP:
            assert packet.as_tuple() == (0.0, 0.0, 1.0)

    def test_counts_do_not_depend_on_the_block_size(self, monkeypatch):
        # 20-host blocks of 4 trials (80 lanes, 10 outputs): a 23-trial
        # cell spans six blocks, the last of 3, in both engines, and its
        # planted ties fall in more than one block
        threshold, p = planted_threshold(5, 20, 23)
        model = RevisitFailureModel((p,))
        lanes = random_lanes(cell_stream(5), 23 * 20)
        tie_blocks = set(np.flatnonzero(lanes == threshold >> 24) // 80)
        assert len(tie_blocks) >= 2

        def cell(engine):
            return table5_montecarlo(model, 1, 19, 60, trials=23, seed=5,
                                     engine=engine, variant=TcpVariant.TFO)

        default = cell("fast")
        monkeypatch.setattr(table5, "_DRAW_BLOCK_LANES", 100)
        assert table5.draw_block_rows(20) == 4
        assert cell("packet") == cell("fast") == default

    def test_holds_one_draw_block_whatever_the_trial_count(self,
                                                           monkeypatch):
        # stopped after 3 trials: what a 1,000,000-trial cell allocates
        # before and between its first trials, which drawing every trial
        # up front would put at about 60 MiB (lanes, tie search, flags)
        class Stop(Exception):
            pass

        calls = []

        def fetch_pair(seed, miss_probs, up, down, variant):
            calls.append(miss_probs)
            if len(calls) == 3:
                raise Stop
            return 180, 120

        monkeypatch.setattr(table5, "run_fetch_pair", fetch_pair)
        tracemalloc.start()
        try:
            with pytest.raises(Stop):
                table5_montecarlo(RevisitFailureModel.reference(), 1, 19, 60,
                                  trials=1_000_000, seed=5, engine="packet",
                                  variant=TcpVariant.TFO)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert [len(row) for row in calls] == [20, 20, 20]

    @pytest.mark.parametrize("seed", [6, 7])
    def test_counts_are_exactly_the_rebuilt_values(self, seed):
        # both engines on a cell with planted ties, against the values
        # rebuilt lane by lane
        threshold, p = planted_threshold(seed, 4, 40)
        values, reads = rebuild_host_values(cell_stream(seed), threshold, 4,
                                            40)
        assert reads >= 2
        want = tuple(n / 40 for n in plain_tally(values, threshold))
        for engine in ("fast", "packet"):
            dist = table5_montecarlo(RevisitFailureModel((p,)), 1, 3, 60,
                                     trials=40, seed=seed, engine=engine,
                                     variant=TcpVariant.TFO)
            assert dist.as_tuple() == want, engine

    @pytest.mark.parametrize("engine", ["fast", "packet"])
    @pytest.mark.parametrize("case", ["planted", "low bits 0", "p=0", "p=1"])
    def test_cell_advances_its_stream_by_its_lanes_and_ties(
            self, monkeypatch, engine, case):
        # a hand count: ceil(trials * hosts / 8) lane outputs plus one per
        # tie whose low bits can matter; 27 x 3 lanes leave part of the
        # last lane output unread
        trials, cols = 27, 3
        threshold, p = planted_threshold(8, cols, trials)
        ties = int(np.count_nonzero(random_lanes(cell_stream(8), trials * cols)
                                    == threshold >> 24))
        assert ties >= 2
        if case == "low bits 0":
            threshold, p = planted_threshold(8, cols, trials, low_bits=0)
        elif case != "planted":
            threshold, p = {"p=0": (2**32, 0.0), "p=1": (0, 1.0)}[case]
        expected = cell_stream(8)
        # 81 lanes take 11 outputs, and each tie one more when the
        # threshold has low bits
        expected.bit_generator.advance(11 + (ties if case == "planted" else 0))

        streams = []
        derive = SeedTree.stream

        def stream(tree, *names):
            rng = derive(tree, *names)
            if names[0] == "table5":
                streams.append(rng)
            return rng

        monkeypatch.setattr(SeedTree, "stream", stream)
        table5_montecarlo(RevisitFailureModel((p,)), 1, cols - 1, 60,
                          trials=trials, seed=8, engine=engine,
                          variant=TcpVariant.TFO)
        (rng,) = streams
        assert rng.bit_generator.state == expected.bit_generator.state

    def test_reference_website_counts_equal_the_fast_engine(self):
        model = RevisitFailureModel.reference()
        fast, packet = (
            table5_montecarlo(model, 1, 19, 60, trials=20, seed=5,
                              engine=engine, variant=TcpVariant.TFO)
            for engine in ("fast", "packet"))
        assert packet == fast

    def test_fop_full_stack_always_saves_two(self):
        mc = table5_montecarlo(RevisitFailureModel((0.8,)), 1, 3, 60,
                               trials=40, seed=21, engine="packet",
                               variant=TcpVariant.FOP)
        assert mc.as_tuple() == (0.0, 0.0, 1.0)

    def test_reference_website_shape_smoke(self):
        # 19 parallel secondaries through the packet engine
        mc = table5_montecarlo(RevisitFailureModel.reference(), 1, 19, 60,
                               trials=30, seed=21, engine="packet",
                               variant=TcpVariant.TFO)
        assert mc.p_save0 + mc.p_save1 + mc.p_save2 == 1.0

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            table5_montecarlo(RevisitFailureModel((0.1,)), 1, 1, 60,
                              trials=1, engine="quantum",
                              seed=0, variant=TcpVariant.TFO)

    @pytest.mark.parametrize("duration", [4 * 60 + 1, 5 * 60, 60])
    def test_revisit_duration_off_the_rtt_grid_raises(self, monkeypatch,
                                                     duration):
        # a revisit saves 0, 1 or 2 whole RTTs of the 4 a standard one
        # takes; any other duration is a fault in the stack
        monkeypatch.setattr(table5, "run_fetch_pair",
                            lambda *args: (6 * 30, duration))
        with pytest.raises(RuntimeError, match="unexpected revisit duration"):
            table5_montecarlo(RevisitFailureModel((0.1,)), 1, 1, 60,
                              trials=1, engine="packet",
                              seed=0, variant=TcpVariant.TFO)

    def test_packet_engine_needs_a_secondary_stage(self):
        with pytest.raises(ValueError):
            table5_montecarlo(RevisitFailureModel((0.1,)), 1, 0, 60,
                              trials=1, engine="packet",
                              seed=0, variant=TcpVariant.TFO)
