from dataclasses import replace
from importlib import resources

import pytest

from fopsim.config import load_config


@pytest.fixture
def bundled_configs():
    """Every bundled scenario config, each under tfo and under fop."""
    configs = resources.files("fopsim").joinpath("configs")
    paths = sorted(configs.glob("*.json")) + sorted(configs.glob("privacy/*.json"))
    return [replace(load_config(path), variant=variant)
            for path in paths for variant in ("tfo", "fop")]
