import pytest

from fopsim.experiments import RevisitFailureModel, derive_failure_model


def test_single_address_hosts_never_miss():
    sequences = {f"h{i}": ["a"] * 10 for i in range(50)}
    model = derive_failure_model(sequences)
    assert all(p == 0.0 for p in model.p_by_revisit)


def test_fresh_address_counting():
    sequences = {
        "h1": ["a", "b", "a"],   # revisit 1 fresh, revisit 2 seen
        "h2": ["a", "a", "c"],   # revisit 1 seen, revisit 2 fresh
        "h3": ["a", "a", "a"],   # never fresh
        "h4": ["a", "d", "e"],   # fresh twice
    }
    model = derive_failure_model(sequences)
    assert model.p_by_revisit == (0.5, 0.5)


def test_reference_model_values():
    model = RevisitFailureModel.reference()
    assert model.prob_for(1) == 0.393
    assert model.prob_for(2) == 0.247
    assert model.prob_for(3) == pytest.approx(1 - 0.134 ** 0.05, abs=1e-12)
    # past the configured list the last probability is reused
    assert model.prob_for(10) == model.prob_for(3)


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        derive_failure_model({})
    with pytest.raises(ValueError):
        derive_failure_model({"h": ["a"]})
    with pytest.raises(ValueError):
        RevisitFailureModel(())
    with pytest.raises(ValueError):
        RevisitFailureModel((1.5,))


def test_revisit_index_starts_at_one():
    with pytest.raises(ValueError):
        RevisitFailureModel((0.1,)).prob_for(0)

