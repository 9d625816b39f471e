"""Every name a module lists in ``__all__`` exists on that module."""

import importlib
import pkgutil

import pytest

import fjlab

MODULES = [fjlab] + [
    importlib.import_module(f"fjlab.{info.name}")
    for info in pkgutil.iter_modules(fjlab.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", ())
    assert [name for name in exported if not hasattr(module, name)] == []
    assert len(set(exported)) == len(exported)


def test_draw_pools_is_exported_by_the_package_and_scenarios():
    from fjlab import scenarios

    assert "draw_pools" in fjlab.__all__ and "draw_pools" in scenarios.__all__
    assert fjlab.draw_pools is scenarios.draw_pools


def test_simulate_config_lives_in_scenarios_and_config_keeps_it():
    from fjlab import config, scenarios

    assert "SimulateConfig" in scenarios.__all__ and "SimulateConfig" in config.__all__
    assert config.SimulateConfig is scenarios.SimulateConfig
