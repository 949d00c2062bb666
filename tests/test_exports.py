"""Every name a fopsim module lists in ``__all__`` must exist, or
``from module import *`` fails on the stale entry."""

import importlib
import pkgutil

import pytest

import fopsim

MODULES = sorted(
    ["fopsim"] + [info.name for info in
                  pkgutil.walk_packages(fopsim.__path__, "fopsim.")])


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []
