"""Scenario verdicts and the gateway-rotation tracking analysis."""

import numpy as np
import pytest

from fopsim.adversary import tracking_period
from fopsim.experiments import (
    EXPECTED_VERDICTS,
    PRIVACY_SCENARIOS,
    random_schedule,
    run_nat_prolonged_tracking,
    run_privacy_matrix,
    run_random_scenario,
)
from fopsim.transport import TcpVariant

ALL_CELLS = [(name, variant) for name in sorted(PRIVACY_SCENARIOS)
             for variant in (TcpVariant.TFO, TcpVariant.FOP)]


class TestMatrix:
    @pytest.mark.parametrize("name,variant", ALL_CELLS,
                             ids=[f"{n}-{v.value}" for n, v in ALL_CELLS])
    def test_cell_matches_expected_pattern(self, name, variant):
        cell = run_privacy_matrix(variant, name, seed=5)
        assert cell.verdict == EXPECTED_VERDICTS[variant.value][name]

    def test_verdicts_deterministic_under_fixed_seed(self):
        a = run_privacy_matrix(TcpVariant.TFO, "third_party", seed=8)
        b = run_privacy_matrix(TcpVariant.TFO, "third_party", seed=8)
        assert a.to_dict() == b.to_dict()

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_privacy_matrix(TcpVariant.TFO, "quantum_tunnel", seed=0)

    def test_third_party_evidence_names_both_first_parties(self):
        cell = run_privacy_matrix(TcpVariant.TFO, "third_party", seed=5)
        linked_labels = set()
        for _, indices in cell.graph.groups:
            linked_labels |= {cell.truth_labels[i] for i in indices}
        for i, j, _ in cell.graph.explicit_edges:
            linked_labels |= {cell.truth_labels[i], cell.truth_labels[j]}
        assert linked_labels == {"first-party-a", "first-party-b"}

    def test_nat_rotation_judged_by_passive_observer(self):
        cell = run_privacy_matrix(TcpVariant.FOP, "nat_rotation", seed=5)
        assert cell.adversary == "passive"
        assert all(len(c) == 1 for c in cell.graph.components())


class TestNatProlongedTracking:
    def test_tfo_cookie_tracking_outlives_ip_tracking(self):
        result = run_nat_prolonged_tracking(TcpVariant.TFO, seed=5)
        assert result.cookie_period_ms > result.ip_period_ms
        assert result.chain_edge_after_rejection

    def test_fop_period_within_lifetime(self):
        result = run_nat_prolonged_tracking(TcpVariant.FOP, seed=5)
        assert result.cookie_period_ms <= result.lifetime
        assert all(len(c) == 1 for c in result.passive_graph.components())

    def test_tfo_passive_observer_links_across_rotation(self):
        result = run_nat_prolonged_tracking(TcpVariant.TFO, seed=5)
        assert tracking_period(result.passive_graph) \
            == result.cookie_period_ms


class TestRandomizedSchedules:
    def test_small_batch_properties(self):
        rng = np.random.default_rng(99)
        checked_revisit = False
        for i in range(40):
            spec = random_schedule(rng)
            fop = run_random_scenario(spec, TcpVariant.FOP, seed=5000 + i)
            assert fop.all_singletons
            assert all(n == 1 for n in fop.cookie_counts.values())
            tfo = run_random_scenario(spec, TcpVariant.TFO, seed=5000 + i)
            if spec.has_revisit:
                checked_revisit = True
                assert tfo.has_multi_component
        assert checked_revisit

    def test_schedule_shape(self):
        rng = np.random.default_rng(1)
        spec = random_schedule(rng)
        assert 2 <= spec.n_clients <= 5
        assert 1 <= spec.n_hosts <= 3
        times = [at for at, _, _ in spec.visits]
        assert times == sorted(times) and len(set(times)) == len(times)

    def test_revisit_detection(self):
        from fopsim.experiments.randomized import RandomScheduleSpec
        spec = RandomScheduleSpec(2, False, 1, ((1000, 0, 0), (2000, 1, 0)))
        assert not spec.has_revisit
        spec = RandomScheduleSpec(2, False, 1, ((1000, 0, 0), (2000, 0, 0)))
        assert spec.has_revisit
