from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cellrisk

MODULES = ["cellrisk"] + [f"cellrisk.{m}" for m in (
    "bpa", "cellspace", "cli", "configuration", "mapper", "oracle", "run", "vehicle")]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_exports_the_readme_names():
    # Every other name is imported from its own module.
    assert set(cellrisk.__all__) == {"DynamicsModel", "backtrack", "build_map", "rank_paths"}


def test_package_import_leaves_the_oracle_and_exact_arithmetic_unimported():
    # Only validate uses them; a bare import, as every command makes, loads none of them.
    # Nor does it load the command line's own dependencies.
    src = str(Path(cellrisk.__file__).parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, cellrisk\n"
            "print([m for m in ('cellrisk.oracle', 'fractions', 'decimal', 'yaml', 'click')\n"
            "       if m in sys.modules])")
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_run_import_leaves_the_command_line_unimported():
    # The config reader and the simulator registry work without click.
    src = str(Path(cellrisk.__file__).parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, cellrisk.run\n"
            "print([m for m in ('click', 'cellrisk.cli') if m in sys.modules])")
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
