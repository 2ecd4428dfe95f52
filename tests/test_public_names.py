from __future__ import annotations

import importlib

import pytest

MODULES = ["cellrisk"] + [f"cellrisk.{m}" for m in (
    "bpa", "cellspace", "cli", "configuration", "mapper", "oracle", "vehicle")]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
