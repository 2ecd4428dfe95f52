"""Property tests of the simulator, the transition map and the search on random small systems."""

from __future__ import annotations

import itertools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from _synthetic import random_absorbing_map, tree_to_dict
from cellrisk.bpa import (
    RankedPath,
    backtrack,
    encode_ranked_paths,
    forward_check,
    rank_paths,
    write_tree,
)
from cellrisk.cellspace import EXTERIOR_ID, CellCoord, SpaceSpec, coord_to_id, id_to_coord
from cellrisk.cli import LinearDriftModel
from cellrisk.configuration import ComponentMatrix, ConfigTransitionModel, h
from cellrisk.mapper import (
    BudgetError,
    TransitionMap,
    build_map,
    estimate_g,
    forward_step,
    load_map,
    predecessors,
    save_map,
)

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
    return spec, ConfigTransitionModel(tuple(matrices)), LinearDriftModel(velocity), samples, seed


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
            if target == EXTERIOR_ID:
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


TRUNCATIONS = st.sampled_from([0.0, 1e-3, 0.01, 0.03, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5])


# Wider than the case-study grid (v in [0, 20], x in [0, 600]) on every axis.
VEHICLE_RANGES = ((-5.0, 30.0), (-10.0, 10.0), (-2.0, 2.0), (-100.0, 800.0), (-10.0, 10.0), (-2.0, 2.0))


@PROPERTY
@given(
    st.sampled_from(["baseline", "modified"]),
    st.sampled_from([1, 2, 3]),
    st.lists(st.tuples(*(st.floats(lo, hi) for lo, hi in VEHICLE_RANGES)), min_size=1, max_size=40),
)
def test_vehicle_step_many_is_row_independent(
    baseline_config, baseline_model, modified_config, modified_model, variant, brake, rows
):
    # The oracle and the map build both step rows in batches of their own
    # choosing, so a row's next state must not depend on its batch.
    cfg, model = {"baseline": (baseline_config, baseline_model),
                  "modified": (modified_config, modified_model)}[variant]
    xs = np.array(rows)
    batch = model.step_many(xs, (brake,), cfg.dt)
    for i in range(len(xs)):
        alone = model.step_many(xs[i : i + 1], (brake,), cfg.dt)[0]
        assert alone.tobytes() == batch[i].tobytes()


def _nodes_by_path(tree) -> dict[tuple[int, ...], tuple[float, float]]:
    """(q, cumulative) of every node, keyed by its cell ids from the event down."""
    out = {}

    def walk(node, key):
        for child in node["children"]:
            out[key + (child["cell_id"],)] = (child["q"], child["cumulative"])
            walk(child, key + (child["cell_id"],))

    walk(tree_to_dict(tree)["root"], ())
    return out


@PROPERTY
@given(st.integers(4, 12), st.integers(1, 3), st.integers(0, 2**16), st.integers(2, 4),
       TRUNCATIONS, TRUNCATIONS)
def test_tree_shrinks_to_a_subset_as_truncation_rises(n_cells, n_event, seed, depth, a, b):
    tmap, event = random_absorbing_map(n_cells, n_event, seed)
    loose = _nodes_by_path(backtrack(tmap, event, depth=depth, truncation=min(a, b)))
    tight = _nodes_by_path(backtrack(tmap, event, depth=depth, truncation=max(a, b)))
    assert tight.items() <= loose.items()


@PROPERTY
@given(st.integers(4, 12), st.integers(1, 3), st.integers(0, 2**16), st.integers(1, 5),
       TRUNCATIONS)
def test_node_budget_boundary(n_cells, n_event, seed, depth, truncation):
    # A budget of exactly the tree's node count passes; one less fails.
    tmap, event = random_absorbing_map(n_cells, n_event, seed)
    n = backtrack(tmap, event, depth=depth, truncation=truncation).n_nodes
    assume(n >= 1)
    assert backtrack(tmap, event, depth=depth, truncation=truncation, node_budget=n).n_nodes == n
    with pytest.raises(BudgetError):
        backtrack(tmap, event, depth=depth, truncation=truncation, node_budget=n - 1)


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


def _descend_rank_paths(tree, initial_distribution=None):
    """rank_paths as a recursive descent over the tree document that rebuilds every
    path from its chain."""
    paths, L = [], len(tree.event.lower)

    def descend(node, chain):
        chain.append(node)
        if not node["children"]:
            ordered = list(reversed(chain))
            weight = 1.0
            if initial_distribution is not None:
                weight = float(initial_distribution[ordered[0]["cell_id"]])
            paths.append(RankedPath(
                cells=tuple(CellCoord(n["coord"][:L], n["coord"][L:]) for n in ordered),
                cell_ids=tuple(n["cell_id"] for n in ordered),
                steps=tuple(n["q"] for n in ordered),
                cumulative=chain[-1]["cumulative"] * weight,
            ))
        else:
            for child in node["children"]:
                descend(child, chain)
        chain.pop()

    for child in tree_to_dict(tree)["root"]["children"]:
        descend(child, [])
    paths.sort(key=lambda p: (-p.cumulative, len(p.cells), p.cell_ids))
    return paths


def _path_bits(paths):
    return [(p.cells, p.cell_ids, [q.hex() for q in p.steps], p.cumulative.hex())
            for p in paths]


@PROPERTY
@given(st.integers(4, 12), st.integers(1, 3), st.integers(0, 2**16), st.integers(1, 5),
       TRUNCATIONS, st.booleans())
def test_rank_paths_equals_recursive_descent(n_cells, n_event, seed, depth, truncation, weighted):
    tmap, event = random_absorbing_map(n_cells, n_event, seed)
    tree = backtrack(tmap, event, depth=depth, truncation=truncation)
    prior = np.random.default_rng(seed).random(n_cells) if weighted else None
    assert (_path_bits(rank_paths(tree, initial_distribution=prior))
            == _path_bits(_descend_rank_paths(tree, initial_distribution=prior)))


@PROPERTY
@given(st.integers(4, 12), st.integers(1, 3), st.integers(0, 2**16), st.integers(1, 5),
       TRUNCATIONS, st.booleans())
def test_ranked_path_rows_equal_json_dumps(n_cells, n_event, seed, depth, truncation, weighted):
    # The report rows as run-bpa built them as dicts and encoded with json.dumps.
    tmap, event = random_absorbing_map(n_cells, n_event, seed)
    tree = backtrack(tmap, event, depth=depth, truncation=truncation)
    prior = np.random.default_rng(seed).random(n_cells) if weighted else None
    paths = rank_paths(tree, initial_distribution=prior)
    vectors = {c: coord.as_vector() for c, coord in tree.coords.items()}
    rows = [
        {
            "cells": [vectors[c] for c in p.cell_ids],
            "steps": p.steps,
            "cumulative": p.cumulative,
            "rendered": " -> ".join([f"{c.label} (q={q:g})" for c, q in zip(p.cells, p.steps)]
                                    + ["TopEvent"]),
        }
        for p in paths
    ]
    text = "".join(encode_ranked_paths(tree.ranking(prior)))
    expected = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    # Split between rows, so that a failure shows the first row that differs
    # rather than a diff of the whole text.
    assert text.split("},{") == expected.split("},{")


# scipy is the independent oracle for the map's plain CSR arrays.
def _scipy_matrix(tmap):
    C = tmap.n_cells
    m = tmap.matrix
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=(C + 1, C + 1))


@st.composite
def shuffled_random_maps(draw):
    """random_absorbing_map with some edges sent to the exterior, rebuilt from its
    rows in a drawn order, each row reversed; plus a seeded rng."""
    n_cells, n_event = draw(st.integers(4, 40)), draw(st.integers(1, 3))
    tmap, _ = random_absorbing_map(n_cells, n_event, draw(st.integers(0, 2**16)),
                                   fan_out=draw(st.integers(2, 6)))
    leaky = draw(st.sets(st.integers(0, n_cells - 1)))
    rows = {s: [(EXTERIOR_ID if s in leaky and k == 0 else t, q) for k, (t, q) in enumerate(row)]
            for s, row in tmap.rows().items()}
    order = draw(st.permutations(range(n_cells)))
    shuffled = TransitionMap.from_edges(tmap.spec, {s: rows[s][::-1] for s in order})
    return shuffled, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@PROPERTY
@given(shuffled_random_maps(), st.integers(1, 6))
def test_forward_step_equals_scipy_product_bit_for_bit(system, steps):
    tmap, rng = system
    matrix = _scipy_matrix(tmap)
    for dist in (np.eye(tmap.n_cells + 1)[rng.integers(tmap.n_cells)],
                 rng.random(tmap.n_cells + 1)):
        dist = dist / dist.sum()
        for _ in range(steps):
            pushed = forward_step(tmap, dist)
            assert np.array_equal(pushed, np.asarray(dist @ matrix).ravel())
            dist = pushed


@PROPERTY
@given(shuffled_random_maps())
def test_predecessor_index_is_scipy_transpose_in_search_order(system):
    tmap, _ = system
    C = tmap.n_cells
    transpose = _scipy_matrix(tmap)[:C, :C].T.tocsr()
    index = tmap.predecessor_index
    assert np.array_equal(index.indptr, transpose.indptr)
    for t in range(C):
        lo, hi = transpose.indptr[t], transpose.indptr[t + 1]
        expected = sorted(zip(transpose.indices[lo:hi].tolist(), transpose.data[lo:hi].tolist()),
                          key=lambda e: (-e[1], e[0]))
        assert predecessors(tmap, t) == expected
        assert list(zip(index.indices[lo:hi].tolist(), index.data[lo:hi].tolist())) == expected


@PROPERTY
@given(shuffled_random_maps())
def test_total_exterior_mass_keeps_its_bits(system):
    tmap, _ = system
    column = _scipy_matrix(tmap)[:-1, -1].toarray()
    assert tmap.total_exterior_mass() == float(np.cumsum(column)[-1])
