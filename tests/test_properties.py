"""Property tests of the simulator, the transition map and the search on random small systems."""

from __future__ import annotations

import itertools
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _synthetic import ShiftModel, random_absorbing_map
from cellrisk.bpa import (
    backtrack,
    forward_check,
    tree_from_dict,
    tree_to_dict,
    tree_to_dot,
    write_tree,
)
from cellrisk.cellspace import EXTERIOR, EXTERIOR_ID, CellCoord, SpaceSpec, coord_to_id, id_to_coord
from cellrisk.configuration import ComponentMatrix, ConfigTransitionModel, h
from cellrisk.mapper import build_map, estimate_g, load_map, predecessors, save_map
from cellrisk.vehicle import make_case_study

PROPERTY = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def systems(draw):
    """(spec, config model, shift model, samples, seed) with M in {1, 2, 3}."""
    partitions = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    states = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    spec = SpaceSpec(
        names_x=tuple(f"x{l}" for l in range(len(partitions))),
        names_n=tuple(f"c{m}" for m in range(len(states))),
        lower=(0.0,) * len(partitions),
        upper=tuple(float(p) for p in partitions),
        partitions=partitions,
        states=states,
    )
    matrices = []
    for m, size in enumerate(states):
        rows = []
        for i in range(size):
            # Zeros and tiny entries exercise the q > 0 filter and the fold.
            w = np.array(draw(st.lists(st.sampled_from([0.0, 1e-7, 0.1, 0.3, 0.7]),
                                       min_size=size, max_size=size)))
            w[i] += 1.0
            rows.append(w / w.sum())
        matrices.append(ComponentMatrix(m, np.array(rows)))
    velocity = draw(st.lists(st.floats(-1.5, 1.5), min_size=len(partitions),
                             max_size=len(partitions)))
    samples = draw(st.integers(1, 30))
    seed = draw(st.integers(0, 2**32 - 1))
    return spec, ConfigTransitionModel(tuple(matrices)), ShiftModel(velocity), samples, seed


@PROPERTY
@given(systems())
def test_build_rows_are_h_times_g_bit_for_bit(system):
    spec, cfg, model, samples, seed = system
    rows = build_map(model, spec, cfg, dt=1.0, samples=samples, seed=seed).rows()
    all_configs = list(itertools.product(*(range(1, k + 1) for k in spec.states)))
    for s in range(spec.total_cells):
        coord = id_to_coord(s, spec)
        expected = {}
        for target, g in estimate_g(coord, model, spec, 1.0, samples, seed):
            if target is EXTERIOR:
                expected[EXTERIOR_ID] = float(g)
                continue
            for n_next in all_configs:
                q = h(cfg, coord.n, n_next) * float(g)
                if q > 0.0:
                    expected[coord_to_id(CellCoord(target, n_next), spec)] = q
        assert dict(rows[s]) == expected
        assert [t for t, _ in rows[s]] == sorted(expected)


@PROPERTY
@given(systems())
def test_build_rows_are_stochastic(system):
    spec, cfg, model, samples, seed = system
    tmap = build_map(model, spec, cfg, dt=1.0, samples=samples, seed=seed)
    assert np.all(np.abs(tmap.row_sums() - 1.0) <= 1e-9)
    assert np.all(tmap.matrix.data > 0.0)
    assert tmap.exterior_mass(0) == dict(tmap.rows()[0]).get(EXTERIOR_ID, 0.0)


@PROPERTY
@given(systems())
def test_save_load_save_is_byte_identical(system):
    spec, cfg, model, samples, seed = system
    tmap = build_map(model, spec, cfg, dt=1.0, samples=samples, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.json", Path(tmp) / "b.json"
        save_map(tmap, str(first))
        loaded = load_map(str(first))
        save_map(loaded, str(second))
        assert first.read_bytes() == second.read_bytes()
    assert loaded.rows() == tmap.rows()


@PROPERTY
@given(systems())
def test_predecessors_are_the_ordered_transpose(system):
    spec, cfg, model, samples, seed = system
    tmap = build_map(model, spec, cfg, dt=1.0, samples=samples, seed=seed)
    rows = tmap.rows()
    for t in range(tmap.n_cells):
        inbound = [(s, q) for s, row in rows.items() for tt, q in row if tt == t]
        assert predecessors(tmap, t) == sorted(inbound, key=lambda e: (-e[1], e[0]))


@settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(systems())
def test_build_is_worker_count_invariant(system):
    spec, cfg, model, samples, seed = system
    serial = build_map(model, spec, cfg, dt=1.0, samples=samples, seed=seed, workers=1)
    parallel = build_map(model, spec, cfg, dt=1.0, samples=samples, seed=seed, workers=2)
    assert serial.rows() == parallel.rows()


@PROPERTY
@given(st.integers(4, 12), st.integers(1, 3), st.integers(0, 2**16), st.integers(1, 4))
def test_tree_dict_round_trip(n_cells, n_event, seed, depth):
    tmap, event = random_absorbing_map(n_cells, n_event, seed)
    tree = backtrack(tmap, event, depth=depth, truncation=0.0)
    loaded = tree_from_dict(tree_to_dict(tree))
    assert tree_to_dict(loaded) == tree_to_dict(tree)
    assert tree_to_dot(loaded) == tree_to_dot(tree)


# Wider than the case-study grid (v in [0, 20], x in [0, 600]) on every axis.
VEHICLE_RANGES = ((-5.0, 30.0), (-10.0, 10.0), (-2.0, 2.0), (-100.0, 800.0), (-10.0, 10.0), (-2.0, 2.0))


@PROPERTY
@given(
    st.sampled_from(["baseline", "modified"]),
    st.sampled_from([1, 2, 3]),
    st.lists(st.tuples(*(st.floats(lo, hi) for lo, hi in VEHICLE_RANGES)), min_size=1, max_size=40),
)
def test_vehicle_step_many_is_row_independent(variant, brake, rows):
    # The oracle and the map build both step rows in batches of their own
    # choosing, so a row's next state must not depend on its batch.
    case = make_case_study(variant)
    xs = np.array(rows)
    batch = case.model.step_many(xs, (brake,), case.dt)
    for i in range(len(xs)):
        alone = case.model.step_many(xs[i : i + 1], (brake,), case.dt)[0]
        assert alone.tobytes() == batch[i].tobytes()


def _nodes_by_path(tree) -> dict[tuple[int, ...], tuple[float, float]]:
    """(q, cumulative) of every node, keyed by its cell ids from the event down."""
    out = {}

    def walk(node, key):
        for child in node.children:
            out[key + (child.cell_id,)] = (child.q, child.cumulative)
            walk(child, key + (child.cell_id,))

    walk(tree.root, ())
    return out


TRUNCATIONS = st.sampled_from([0.0, 1e-3, 0.01, 0.03, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5])


@PROPERTY
@given(st.integers(4, 12), st.integers(1, 3), st.integers(0, 2**16), st.integers(2, 4),
       TRUNCATIONS, TRUNCATIONS)
def test_tree_shrinks_to_a_subset_as_truncation_rises(n_cells, n_event, seed, depth, a, b):
    tmap, event = random_absorbing_map(n_cells, n_event, seed)
    loose = _nodes_by_path(backtrack(tmap, event, depth=depth, truncation=min(a, b)))
    tight = _nodes_by_path(backtrack(tmap, event, depth=depth, truncation=max(a, b)))
    assert tight.items() <= loose.items()


@PROPERTY
@given(st.integers(4, 12), st.integers(1, 3), st.integers(0, 2**16), st.integers(1, 4))
def test_backward_sums_equal_forward_push(n_cells, n_event, seed, depth):
    tmap, event = random_absorbing_map(n_cells, n_event, seed)
    tree = backtrack(tmap, event, depth=depth, truncation=0.0)
    for cid in range(n_cells):
        dist = np.zeros(n_cells + 1)
        dist[cid] = 1.0
        assert abs(tree.cumulative_for_cell(cid) - forward_check(tmap, tree, dist)) <= 1e-9


@PROPERTY
@given(st.integers(4, 12), st.integers(1, 3), st.integers(0, 2**16), st.integers(1, 4),
       TRUNCATIONS)
def test_write_tree_bytes_equal_pure_python_encoder(n_cells, n_event, seed, depth, truncation):
    # write_tree encodes through CPython's C encoder; iterencode without
    # _one_shot is the pure-Python one, which json.dump to a file uses.
    tmap, event = random_absorbing_map(n_cells, n_event, seed)
    tree = backtrack(tmap, event, depth=depth, truncation=truncation)
    encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
    expected = "".join(encoder.iterencode(tree_to_dict(tree))) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tree.json"
        write_tree(tree, str(path))
        assert path.read_bytes() == expected.encode("utf-8")
