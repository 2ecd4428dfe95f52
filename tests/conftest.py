from __future__ import annotations

import time
from pathlib import Path

import pytest

from cellrisk.cli import _make_simulator, load_config
from cellrisk.mapper import build_map

# Single seed pinned for every case-study artifact in the suite so results,
# including the acceptance runs, are exactly reproducible.
SUITE_SEED = 20240811

# The case study is defined once, by the shipped configs.
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="session")
def baseline_config():
    return load_config(str(CONFIGS / "agv_baseline.yaml"))


@pytest.fixture(scope="session")
def modified_config():
    return load_config(str(CONFIGS / "agv_modified.yaml"))


@pytest.fixture(scope="session")
def baseline_model(baseline_config):
    return _make_simulator(baseline_config)


@pytest.fixture(scope="session")
def modified_model(modified_config):
    return _make_simulator(modified_config)


def _timed_build(cfg, model, samples):
    t0 = time.perf_counter()
    tmap = build_map(
        model, cfg.spec, cfg.config_model, dt=cfg.dt, samples=samples, seed=SUITE_SEED,
    )
    return tmap, time.perf_counter() - t0


@pytest.fixture(scope="session")
def baseline_build(baseline_config, baseline_model):
    tmap, seconds = _timed_build(baseline_config, baseline_model, 200)
    return {"map": tmap, "seconds": seconds}


@pytest.fixture(scope="session")
def baseline_map(baseline_build):
    return baseline_build["map"]


@pytest.fixture(scope="session")
def modified_map(modified_config, modified_model):
    tmap, _ = _timed_build(modified_config, modified_model, 200)
    return tmap
