from __future__ import annotations

import hashlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _synthetic import (
    chain_map,
    leaky_chain_map,
    line_spec,
    random_absorbing_map,
    tree_to_dict,
)
from cellrisk import bpa
from cellrisk.bpa import (
    TopEvent,
    TopEventError,
    backtrack,
    encode_ranked_paths,
    event_cells,
    forward_check,
    rank_paths,
    tree_to_dot,
    tree_to_text,
    write_tree,
)
from cellrisk.cellspace import CellCoord, SpaceSpec, cell_boxes, coord_to_id, id_to_coord
from cellrisk.mapper import BudgetError, TransitionMap, json_array

PI = math.pi


def at(tree, depth: int, cell: int) -> int:
    """Index in its level of the one node of a cell at a depth."""
    (i,) = np.flatnonzero(tree.levels[depth - 1].cell == cell)
    return int(i)


def children(tree, depth: int, i: int) -> list[int]:
    """Indices in level depth + 1 of the children of node i of level depth (0, the root)."""
    if depth == len(tree.levels):
        return []
    return np.flatnonzero(tree.levels[depth].parent == i).tolist()


def scan_event_cells(event: TopEvent, spec: SpaceSpec) -> set[int]:
    """Exhaustive oracle: test every cell box against the open event box."""
    out = set()
    for cid in range(spec.total_cells):
        coord = id_to_coord(cid, spec)
        if coord.n not in event.configs:
            continue
        lo, hi = cell_boxes(coord.j, spec)
        if all(
            lo[l] < event.upper[l] and hi[l] > event.lower[l] for l in range(spec.L)
        ):
            out.add(cid)
    return out


def test_event_cells_case_study(baseline_config):
    spec, event = baseline_config.spec, baseline_config.event
    got = event_cells(event, spec)
    assert got == scan_event_cells(event, spec)
    # Structure: x-position cells 126..150, every speed cell, every config.
    coords = {id_to_coord(c, spec) for c in got}
    assert {c.j[3] for c in coords} == set(range(126, 151))
    assert {c.j[0] for c in coords} == {1, 2, 3, 4, 5}
    assert {c.n for c in coords} == {(1,), (2,), (3,)}
    assert len(got) == 5 * 25 * 3


@st.composite
def specs_and_events(draw):
    """A spec with L <= 3, 1-7 partitions a dimension and M <= 2, and an event whose
    bounds lie on cell edges, anywhere in range or at the top edge."""
    L = draw(st.integers(1, 3))
    partitions = draw(st.lists(st.integers(1, 7), min_size=L, max_size=L))
    states = draw(st.lists(st.integers(1, 3), max_size=2))
    lower = draw(st.lists(st.floats(-10.0, 10.0), min_size=L, max_size=L))
    span = draw(st.lists(st.floats(0.01, 10.0), min_size=L, max_size=L))
    spec = SpaceSpec([f"x{l}" for l in range(L)], [f"c{m}" for m in range(len(states))],
                     lower, [lo + s for lo, s in zip(lower, span)], partitions, states)
    bounds = []
    for lo, hi, P, w in zip(spec.lower, spec.upper, spec.partitions, spec.widths):
        edges = [lo + k * w for k in range(P)] + [hi]
        a, b = sorted(draw(st.one_of(st.sampled_from(edges), st.floats(lo, hi)))
                      for _ in range(2))
        assume(a < b)
        bounds.append((a, b))
    configs = list(itertools.product(*(range(1, n + 1) for n in states)))
    chosen = draw(st.lists(st.sampled_from(configs), min_size=1, unique=True))
    return spec, TopEvent(*zip(*bounds), frozenset(chosen))


@settings(max_examples=200, deadline=None)
@given(specs_and_events())
def test_event_cells_match_the_scan(spec_and_event):
    spec, event = spec_and_event
    assert event_cells(event, spec) == scan_event_cells(event, spec)


def test_event_cells_empty_when_no_cell_reaches_the_event():
    # The last cell's computed top is 0.6999999999999998, below the event.
    spec = SpaceSpec(("x",), ("c0",), (0.0,), (0.7,), (10,), (1,))
    event = TopEvent(lower=(0.6999999999999999,), upper=(0.7,), configs=frozenset({(1,)}))
    assert cell_boxes((10,), spec)[1][0] == 0.6999999999999998
    assert event_cells(event, spec) == set() == scan_event_cells(event, spec)


def test_event_cells_whole_space():
    spec = line_spec(5, states=2)
    event = TopEvent(lower=(0.0,), upper=(5.0,), configs=frozenset({(1,), (2,)}))
    assert event_cells(event, spec) == set(range(10))


def test_event_cells_box_inside_one_cell():
    spec = line_spec(5, states=2)
    event = TopEvent(lower=(2.25,), upper=(2.75,), configs=frozenset({(2,)}))
    got = event_cells(event, spec)
    assert got == {coord_to_id(CellCoord((3,), (2,)), spec)}


def test_event_cells_partial_overlap_included():
    spec = line_spec(5)
    event = TopEvent(lower=(1.5,), upper=(3.5,), configs=frozenset({(1,)}))
    assert event_cells(event, spec) == {1, 2, 3}


def test_top_event_invariants():
    spec = line_spec(5)
    with pytest.raises(TopEventError):
        TopEvent(lower=(2.0,), upper=(2.0,), configs=frozenset({(1,)}))
    with pytest.raises(TopEventError):
        TopEvent(lower=(0.0,), upper=(1.0,), configs=frozenset())
    bad_hi = TopEvent(lower=(0.0,), upper=(9.0,), configs=frozenset({(1,)}))
    with pytest.raises(TopEventError):
        bad_hi.validate_against(spec)
    bad_lo = TopEvent(lower=(-1.0,), upper=(4.0,), configs=frozenset({(1,)}))
    with pytest.raises(TopEventError):
        bad_lo.validate_against(spec)
    bad_cfg = TopEvent(lower=(0.0,), upper=(4.0,), configs=frozenset({(7,)}))
    with pytest.raises(TopEventError):
        bad_cfg.validate_against(spec)


def test_backtrack_deterministic_chain_structure():
    # Right-shift chain 0->1->2->3->4 with 3 and 4 absorbing; event covers
    # cells 3 and 4. Expected tree, frozen by hand:
    #   level 1: cell 2 (enters 3, q=1), cells 3 and 4 (event self-loops).
    #   level 2: cell 1 under cell 2; event nodes not expanded.
    #   level 3: cell 0 under cell 1.
    tmap, event = chain_map(5, absorb_from=3)
    tree = backtrack(tmap, event, depth=3, truncation=0.0)
    level1, level2, level3 = tree.levels
    assert set(level1.cell.tolist()) == {2, 3, 4}
    i2 = at(tree, 1, 2)
    assert level1.q[i2] == 1.0 and 2 not in tree.event_cell_ids
    assert 3 in tree.event_cell_ids and children(tree, 1, at(tree, 1, 3)) == []
    assert 4 in tree.event_cell_ids and children(tree, 1, at(tree, 1, 4)) == []
    assert level2.cell[children(tree, 1, i2)].tolist() == [1]
    (node1,) = children(tree, 1, i2)
    assert level2.cumulative[node1] == 1.0
    assert level3.cell[children(tree, 2, node1)].tolist() == [0]


def test_backtrack_leaky_chain_cumulative_products():
    # Cell i moves forward w.p. 0.6, stays w.p. 0.4; event absorbs at cell 3.
    tmap, event = leaky_chain_map(4, absorb_from=3, p_fwd=0.6)
    tree = backtrack(tmap, event, depth=2, truncation=0.0)
    level1, level2 = tree.levels
    # Only cell 2 enters the event from outside; the event cell self-loops.
    i2 = at(tree, 1, 2)
    assert level1.q[i2] == 0.6
    kids = {level2.cell[j]: j for j in children(tree, 1, i2)}
    assert level2.q[kids[2]] == 0.4 and level2.cumulative[kids[2]] == pytest.approx(0.24)
    assert level2.q[kids[1]] == 0.6 and level2.cumulative[kids[1]] == pytest.approx(0.36)


def test_backtrack_identity_event_cell_retained_not_expanded():
    # A single-cell event on fixed-point dynamics: the event cell enters
    # itself, is reported at level 1, and is never expanded because the
    # search treats the event as absorbing.
    spec = line_spec(4)
    edges = {s: [(s, 1.0)] for s in range(4)}
    tmap = TransitionMap.from_edges(spec, edges)
    event = TopEvent(lower=(2.0,), upper=(3.0,), configs=frozenset({(1,)}))
    tree = backtrack(tmap, event, depth=5, truncation=0.5)
    assert tree.levels[0].cell.tolist() == [2]
    assert tree.levels[0].q[0] == 1.0 and 2 in tree.event_cell_ids and children(tree, 1, 0) == []
    assert tree.n_nodes == 1


def test_backtrack_entry_aggregation_sums_across_event_cells():
    # One source feeding two event cells carries the sum of both edges.
    spec = line_spec(3)
    edges = {0: [(1, 0.5), (2, 0.5)], 1: [(1, 1.0)], 2: [(2, 1.0)]}
    tmap = TransitionMap.from_edges(spec, edges)
    event = TopEvent(lower=(1.0,), upper=(3.0,), configs=frozenset({(1,)}))
    tree = backtrack(tmap, event, depth=1, truncation=0.0)
    i0 = at(tree, 1, 0)
    assert tree.levels[0].q[i0] == 1.0
    assert sorted(tree.entry_edges[i0]) == [(1, 0.5), (2, 0.5)]


def test_backtrack_truncation_prunes_low_probability_branches():
    tmap, event = leaky_chain_map(6, absorb_from=5, p_fwd=0.1)
    loose = backtrack(tmap, event, depth=4, truncation=0.0)
    tight = backtrack(tmap, event, depth=4, truncation=5e-3)

    def paths_set(tree):
        return {p.cell_ids for p in rank_paths(tree)}

    def rows(tree):
        return {(d, c, round(cumulative, 15)) for d, level in enumerate(tree.levels, 1)
                for c, cumulative in zip(level.cell.tolist(), level.cumulative.tolist())}

    assert rows(tight) < rows(loose)
    assert all((level.cumulative >= 5e-3).all() for level in tight.levels)


def test_backtrack_is_deterministic(baseline_map, baseline_config):
    a = backtrack(baseline_map, baseline_config.event, depth=2, truncation=1e-8)
    b = backtrack(baseline_map, baseline_config.event, depth=2, truncation=1e-8)

    def flatten(tree):
        return [(*n, n.cell in tree.event_cell_ids) for n in tree.nodes()]

    assert flatten(a) == flatten(b)


def test_backtrack_children_ordered_by_q():
    tmap, event = random_absorbing_map(12, n_event=2, seed=5)
    tree = backtrack(tmap, event, depth=3, truncation=0.0)
    for depth, level in enumerate(tree.levels[1:], 1):
        for i in range(len(tree.levels[depth - 1].cell)):
            qs = level.q[children(tree, depth, i)].tolist()
            assert qs == sorted(qs, reverse=True)
    # Level 1 is ordered by aggregated entry probability.
    entry = tree.levels[0].q.tolist()
    assert entry == sorted(entry, reverse=True)


def test_backtrack_monotone_cumulative(baseline_map, baseline_config):
    tree = backtrack(baseline_map, baseline_config.event, depth=2, truncation=1e-8)
    for above, level in zip(tree.levels, tree.levels[1:]):
        assert (level.cumulative <= above.cumulative[level.parent] + 1e-15).all()


def test_backtrack_node_budget_guard():
    tmap, event = random_absorbing_map(20, n_event=2, seed=6)
    with pytest.raises(BudgetError):
        backtrack(tmap, event, depth=6, truncation=0.0, node_budget=50)


def test_node_budget_boundary_on_the_baseline(baseline_map, baseline_config):
    # A budget of exactly the tree's node count passes; one less fails.
    args = (baseline_map, baseline_config.event)
    n = backtrack(*args, depth=4, truncation=1e-8).n_nodes
    assert backtrack(*args, depth=4, truncation=1e-8, node_budget=n).n_nodes == n
    with pytest.raises(BudgetError):
        backtrack(*args, depth=4, truncation=1e-8, node_budget=n - 1)


@pytest.mark.parametrize("chunk", [1, 3])
def test_backtrack_expands_the_same_tree_in_small_chunks(monkeypatch, chunk):
    tmap, event = random_absorbing_map(15, n_event=2, seed=11, fan_out=4)
    whole = backtrack(tmap, event, depth=5, truncation=0.0)
    monkeypatch.setattr(bpa, "_EXPAND_CHUNK", chunk)
    chunked = backtrack(tmap, event, depth=5, truncation=0.0)
    assert [tuple(map(np.ndarray.tobytes, level)) for level in chunked.levels] == [
        tuple(map(np.ndarray.tobytes, level)) for level in whole.levels]
    with pytest.raises(BudgetError):
        backtrack(tmap, event, depth=5, truncation=0.0, node_budget=whole.n_nodes - 1)


def test_backward_forward_duality_three_synthetics():
    # With the event absorbing in the map, total backward path probability
    # from a cell equals the k-step forward occupancy of the event set
    # (first-passage classes partition the trajectories).
    systems = [
        chain_map(5, absorb_from=3),
        leaky_chain_map(8, absorb_from=6, p_fwd=0.55),
        random_absorbing_map(15, n_event=3, seed=17),
    ]
    for tmap, event in systems:
        k = 4
        tree = backtrack(tmap, event, depth=k, truncation=0.0)
        for cid in range(tmap.n_cells):
            backward_total = tree.cumulative_for_cell(cid)
            dist = np.zeros(tmap.n_cells + 1)
            dist[cid] = 1.0
            fwd = forward_check(tmap, tree, dist)
            assert abs(backward_total - fwd) <= 1e-9


def test_forward_check_depth_one_point_mass():
    tmap, event = leaky_chain_map(4, absorb_from=3, p_fwd=0.6)
    tree = backtrack(tmap, event, depth=1, truncation=0.0)
    dist = np.zeros(tmap.n_cells + 1)
    dist[2] = 1.0
    assert forward_check(tmap, tree, dist) == tree.levels[0].q[at(tree, 1, 2)]


def test_forward_check_non_ancestor_contributes_zero():
    tmap, event = chain_map(6, absorb_from=5)
    tree = backtrack(tmap, event, depth=2, truncation=0.0)
    dist = np.zeros(tmap.n_cells + 1)
    dist[0] = 1.0  # five steps away; cannot reach within depth 2
    assert forward_check(tmap, tree, dist) == 0.0


def test_forward_check_refuses_an_unnormalised_start():
    tmap, event = chain_map(6, absorb_from=5)
    tree = backtrack(tmap, event, depth=2, truncation=0.0)
    dist = np.zeros(tmap.n_cells + 1)
    dist[0] = 0.5
    with pytest.raises(ValueError, match="distribution sums to 0.5"):
        forward_check(tmap, tree, dist)


def test_rank_paths_orders_by_probability():
    spec = line_spec(4)
    edges = {
        0: [(3, 0.5), (0, 0.5)],
        1: [(3, 0.3), (1, 0.7)],
        2: [(2, 1.0)],
        3: [(3, 1.0)],
    }
    tmap = TransitionMap.from_edges(spec, edges)
    event = TopEvent(lower=(3.0,), upper=(4.0,), configs=frozenset({(1,)}))
    tree = backtrack(tmap, event, depth=1, truncation=0.0)
    paths = rank_paths(tree)
    entry_cells = [p.cell_ids[0] for p in paths if p.cell_ids[0] in (0, 1)]
    assert entry_cells == [0, 1]  # 0.5 before 0.3


def test_rank_paths_render_oldest_first():
    tmap, event = chain_map(5, absorb_from=3)
    tree = backtrack(tmap, event, depth=3, truncation=0.0)
    paths = rank_paths(tree)
    deepest = max(paths, key=lambda p: len(p.cells))
    # Deepest-first rendering: oldest cell, then forward in time, then event.
    assert deepest.cell_ids == (0, 1, 2)
    text = deepest.render(event_label="Collision")
    assert text.startswith("[1 1]") and text.endswith("Collision")


def test_rank_paths_optional_initial_distribution_weighting():
    spec = line_spec(4)
    edges = {
        0: [(3, 0.5), (0, 0.5)],
        1: [(3, 0.3), (1, 0.7)],
        2: [(2, 1.0)],
        3: [(3, 1.0)],
    }
    tmap = TransitionMap.from_edges(spec, edges)
    event = TopEvent(lower=(3.0,), upper=(4.0,), configs=frozenset({(1,)}))
    tree = backtrack(tmap, event, depth=1, truncation=0.0)
    # Occupancy weighting flips the ranking: cell 1 is far more likely to
    # be occupied than cell 0.
    prior = np.array([0.05, 0.9, 0.05, 0.0])
    weighted = rank_paths(tree, initial_distribution=prior)
    by_cell = {p.cell_ids[0]: p.cumulative for p in weighted}
    assert by_cell[0] == pytest.approx(0.5 * 0.05)
    assert by_cell[1] == pytest.approx(0.3 * 0.9)
    first = [p.cell_ids[0] for p in weighted if p.cell_ids[0] in (0, 1)]
    assert first == [1, 0]
    # Default ranking is unweighted.
    bare = rank_paths(tree)
    assert {p.cell_ids[0]: p.cumulative for p in bare}[0] == 0.5


def test_rank_paths_ties_break_by_length_then_ids():
    spec = line_spec(5)
    edges = {
        0: [(4, 1.0)],
        1: [(4, 1.0)],
        2: [(0, 1.0)],
        3: [(3, 1.0)],
        4: [(4, 1.0)],
    }
    tmap = TransitionMap.from_edges(spec, edges)
    event = TopEvent(lower=(4.0,), upper=(5.0,), configs=frozenset({(1,)}))
    tree = backtrack(tmap, event, depth=2, truncation=0.0)
    paths = rank_paths(tree)
    # All cumulative probabilities are 1; the depth-1-only paths sort before
    # the longer one, then lexicographically by cell ids.
    assert [p.cell_ids for p in paths] == [(1,), (4,), (2, 0)]


def test_tree_exports(tmp_path, baseline_map, baseline_config):
    tree = backtrack(baseline_map, baseline_config.event, depth=2, truncation=1e-8)
    doc = tree_to_dict(tree)
    assert doc["format"] == "cellrisk-scenario-tree"
    assert doc["n_nodes"] == tree.n_nodes
    assert doc["search_depth"] == 2 and doc["truncation"] == 1e-8

    dot = "".join(tree_to_dot(tree))
    assert dot.startswith("digraph scenario_tree {")
    assert 'label="TopEvent"' in dot
    # One labelled node and one edge per tree node.
    assert dot.count("\\nP=") == tree.n_nodes
    assert dot.count(" -> ") == tree.n_nodes


# sha256 of the depth-4 tree file and dot graph on the baseline map, recorded
# while write_tree still streamed through json.dump; `cellrisk run-bpa --depth 4`
# on configs/agv_baseline.yaml writes the same bytes.
DEPTH_4_TREE_SHA256 = "a47cffd4c4f2ba7877826bebdbc9b78ccd9de2a8d67e8fb04ddad1c1c3a864e9"
DEPTH_4_DOT_SHA256 = "e0de4ccbb0285529f91bae7d5d13d9ad03843b7a59bfa42417d1dd66fe2d6c16"
# sha256 of the indented text (3,653 lines), recorded from the `export --out-text`
# command that wrote it before `run-bpa --out-text` did; depth 6 gives 44,541 lines.
DEPTH_4_TEXT_SHA256 = "bba9afdd3bc1cd65d5ed5393f042e0342d072ed6727387391e9edabd2a537c0b"


def test_export_bytes_pinned_at_depth_4(tmp_path, baseline_map, baseline_config):
    tree = backtrack(baseline_map, baseline_config.event, depth=4, truncation=1e-8)
    path = tmp_path / "tree.json"
    write_tree(tree, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DEPTH_4_TREE_SHA256
    assert hashlib.sha256("".join(tree_to_dot(tree)).encode()).hexdigest() == DEPTH_4_DOT_SHA256
    text = "".join(tree_to_text(tree)).encode()
    assert hashlib.sha256(text).hexdigest() == DEPTH_4_TEXT_SHA256


# The same at depth 6 (44,541 nodes, 32,907 paths), recorded before the tree,
# graph and report rows were written from shared per-cell fragments, plus the
# sha256 of the report's ranked_paths as compact sorted-key JSON.
DEPTH_6_TREE_SHA256 = "09838431cd7e25ae0552fdb124a754282fa6f875e06cc8c37f26c1783403bd9f"
DEPTH_6_DOT_SHA256 = "05f6e3a198553dd66ebca6383705f3b0de86a794b7f096caff3bbffad4e1fd5f"
DEPTH_6_RANKED_PATHS_SHA256 = "3146d18904ce2b212164d281840cceda6e87c64afeb012282428d04780712b4a"
DEPTH_6_TEXT_SHA256 = "97913dc8e4b24d04819fd8f4eb5be486e0a77a2ee9d1ee39f42b0be9ebe15735"


def test_export_bytes_pinned_at_depth_6(tmp_path, baseline_map, baseline_config):
    tree = backtrack(baseline_map, baseline_config.event, depth=6, truncation=1e-8)
    path = tmp_path / "tree.json"
    write_tree(tree, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DEPTH_6_TREE_SHA256
    assert hashlib.sha256("".join(tree_to_dot(tree)).encode()).hexdigest() == DEPTH_6_DOT_SHA256
    rows = "".join(json_array(encode_ranked_paths(tree.ranking())))
    assert hashlib.sha256(rows.encode()).hexdigest() == DEPTH_6_RANKED_PATHS_SHA256
    text = "".join(tree_to_text(tree)).encode()
    assert hashlib.sha256(text).hexdigest() == DEPTH_6_TEXT_SHA256


def _write_graph(tree, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(tree_to_dot(tree))


def _write_text(tree, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(tree_to_text(tree))


@pytest.mark.parametrize("write", [write_tree, _write_graph, _write_text])
def test_writer_memory_follows_the_window_not_the_tree(tmp_path, baseline_map, baseline_config,
                                                       write):
    # A writer holds one window of texts at a time, not a text per node of
    # the tree: on a fresh depth-6 tree, nothing cached, its peak stays below
    # the size of the file it writes.
    tree = backtrack(baseline_map, baseline_config.event, depth=6, truncation=1e-8)
    path = tmp_path / "out"
    tracemalloc.start()
    try:
        write(tree, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size, (peak, path.stat().st_size)


def test_nodes_of_one_cell_share_one_coordinate(baseline_map, baseline_config):
    tree = backtrack(baseline_map, baseline_config.event, depth=4, truncation=1e-8)
    cells = set(np.concatenate([level.cell for level in tree.levels]).tolist())
    assert set(tree.coords) == cells
    for c, coord in tree.coords.items():
        assert coord == id_to_coord(c, baseline_map.spec)
    assert len(tree.coords) < tree.n_nodes


def test_backtrack_rejects_bad_parameters(baseline_map, baseline_config):
    with pytest.raises(ValueError):
        backtrack(baseline_map, baseline_config.event, depth=0, truncation=0.1)
    with pytest.raises(ValueError):
        backtrack(baseline_map, baseline_config.event, depth=2, truncation=1.0)


def _imports_numpy_ma(code: str) -> bool:
    """Whether numpy.ma is imported once code has run, in a fresh interpreter, on a
    small random map's depth-3 tree."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(tests), str(tests.parent / "src"),
                                         os.environ.get("PYTHONPATH")]))
    code = ("import os, sys; import numpy as np; from _synthetic import random_absorbing_map; "
            "from cellrisk.bpa import *; "
            "tmap, event = random_absorbing_map(12, n_event=2, seed=5); "
            "tree = backtrack(tmap, event, depth=3, truncation=0.0); "
            f"{code}; print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True, timeout=60)
    return {"True": True, "False": False}[out.stdout.strip()]


def test_backtrack_leaves_numpy_ma_unimported():
    # A plain np.unique imports numpy.ma, about 18 ms of every run-bpa's start-up.
    assert not _imports_numpy_ma("pass")


def test_writers_leave_numpy_ma_unimported():
    assert not _imports_numpy_ma(
        "write_tree(tree, os.devnull); ''.join(tree_to_dot(tree)); ''.join(tree_to_text(tree)); "
        "list(encode_ranked_paths(tree.ranking())); "
        "list(encode_ranked_paths(tree.ranking(np.linspace(0.0, 1.0, 12))))")
