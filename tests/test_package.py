"""The public names of the package and of its modules resolve."""

import importlib

import pytest

MODULES_WITH_ALL = ["chaosnet"] + [
    f"chaosnet.{name}" for name in ("analysis", "footprint", "mnist", "network", "rpso")
]


@pytest.mark.parametrize("module_name", MODULES_WITH_ALL)
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names {missing}"
