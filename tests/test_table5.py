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
from fopsim.rngtools import SeedTree, random_uint32
from fopsim.transport import TcpVariant


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
    def test_block_boundaries_do_not_change_counts(self, n_secondary, offset):
        # trials just below, at and above one draw block give the counts
        # of one whole draw of trials x cols 32-bit draws; at 3 hosts the
        # block rounds down to an even number of draws, and an offset of
        # +-1 makes trials x cols odd
        model = RevisitFailureModel.reference()
        cols = n_secondary + 1
        trials = table5.draw_block_rows(cols) + offset
        whole = random_uint32(SeedTree(9).stream("table5", "tfo", 2),
                              trials * cols).reshape(trials, cols)
        threshold = math.ceil((1.0 - model.prob_for(2)) * 2**32)
        counts = kernels.tally_savings(whole, threshold)
        dist = table5_montecarlo(model, 2, n_secondary, 60, trials=trials,
                                 seed=9, variant=TcpVariant.TFO, engine="fast")
        assert dist.as_tuple() == tuple(n / trials for n in counts)

    @pytest.mark.parametrize("cols", [1, 3, 19, 20, 21, 2**18 + 1])
    def test_draw_blocks_take_whole_raw_outputs(self, cols):
        rows = table5.draw_block_rows(cols)
        assert rows >= 2 and rows * cols % 2 == 0
        assert rows * cols <= 2**18 or rows == 2

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
        # 20-host blocks of 5 trials: a 23-trial cell spans five blocks,
        # the last of 3, in both engines
        model = RevisitFailureModel.reference()

        def cell(engine):
            return table5_montecarlo(model, 1, 19, 60, trials=23, seed=5,
                                     engine=engine, variant=TcpVariant.TFO)

        default = cell("fast")
        monkeypatch.setattr(table5, "_DRAW_BLOCK_DRAWS", 100)
        assert table5.draw_block_rows(20) == 5
        assert cell("packet") == cell("fast") == default

    def test_holds_one_draw_block_whatever_the_trial_count(self,
                                                           monkeypatch):
        # stopped after 3 trials: what a 100,000-trial cell allocates
        # before and between its first trials, which drawing every trial
        # up front would put at about 100 MiB
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
                                  trials=100_000, seed=5, engine="packet",
                                  variant=TcpVariant.TFO)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert [len(row) for row in calls] == [20, 20, 20]

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

    def test_packet_engine_needs_a_secondary_stage(self):
        with pytest.raises(ValueError):
            table5_montecarlo(RevisitFailureModel((0.1,)), 1, 0, 60,
                              trials=1, engine="packet",
                              seed=0, variant=TcpVariant.TFO)
