"""The benchmark's tracer wraps program names by name; they must all exist.

bench/tracer.py patches entry points of cli, mapper, oracle, bpa and
configuration, and counts tree levels through ScenarioTree.nodes(). A rename
there would only show in the benchmark's own tests, so it is checked here.
"""

from __future__ import annotations

from pathlib import Path

from _synthetic import random_absorbing_map
from cellrisk import bpa, cli, configuration, mapper, oracle
from cellrisk.bpa import backtrack

BENCH = Path(__file__).resolve().parents[1] / "bench"

PATCHED = [
    (cli, "_make_simulator"), (cli, "build_map"), (cli, "save_map"), (cli, "load_map"),
    (cli, "backtrack"), (cli, "rank_paths"), (cli, "write_tree"), (cli, "tree_to_dot"),
    (mapper, "estimate_g"), (mapper, "sample_cell_array"), (mapper, "forward_step"),
    (oracle, "empirical_transition"), (bpa, "predecessors"),
    (configuration.ConfigTransitionModel, "matrix_for"),
] + [(getattr(cli, command), "callback")
     for command in ("build_map_cmd", "run_bpa_cmd", "validate_cmd", "forward_check_cmd")]


def test_tracer_installs_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    before = [getattr(owner, attr) for owner, attr in PATCHED]
    with tracer.Tracer().installed():
        inside = [getattr(owner, attr) for owner, attr in PATCHED]
    assert all(a is not b for a, b in zip(before, inside))
    assert all(a is getattr(owner, attr) for a, (owner, attr) in zip(before, PATCHED))


def test_tracer_level_counts_equal_the_level_arrays(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    tmap, event = random_absorbing_map(12, n_event=2, seed=5)
    tree = backtrack(tmap, event, depth=3, truncation=0.0)
    assert tree.max_depth_reached >= 2
    assert dict(tracer._levels(tree)) == {
        f"level_{d}": len(level.cell) for d, level in enumerate(tree.levels, 1)
    }
