"""Property tests of the simulator, the transition map and the search on random small systems."""

from __future__ import annotations

import copy
import dataclasses
import functools
import itertools
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import yaml
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from _synthetic import (
    line_spec,
    random_absorbing_map,
    reference_control,
    reference_step_many,
    tree_to_dict,
)
from conftest import CONFIGS
from cellrisk.bpa import (
    RankedPath,
    backtrack,
    encode_ranked_paths,
    forward_check,
    rank_paths,
    tree_to_dot,
    tree_to_text,
    write_tree,
)
from cellrisk import mapper
from cellrisk.cellspace import (
    EXTERIOR_ID,
    CellCoord,
    SpaceSpec,
    bin_points,
    coord_to_id,
    id_to_coord,
    sample_cell_array,
)
from cellrisk.cli import SIMULATORS, ConfigError, LinearDriftModel, load_config
from cellrisk.configuration import (
    ROW_SUM_TOL,
    ComponentMatrix,
    ConfigModelError,
    ConfigTransitionModel,
    h,
)
from cellrisk.mapper import (
    BudgetError,
    DynamicsModel,
    MapFormatError,
    TransitionMap,
    build_map,
    compact,
    estimate_g,
    forward_step,
    json_array,
    load_map,
    predecessors,
    save_map,
    write_json,
)
from cellrisk.vehicle import _command

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
    rows = tmap.rows()
    assert all(abs(sum(q for _, q in row) - 1.0) <= 1e-9 for row in rows.values())
    assert np.all(tmap.matrix.data > 0.0)
    # The CSR row of source 0 holds the same exterior entry as rows().
    row0 = slice(*tmap.matrix.indptr[:2])
    exterior = tmap.matrix.data[row0][tmap.matrix.indices[row0] == tmap.n_cells]
    assert exterior.tolist() == [q for t, q in rows[0] if t == EXTERIOR_ID]


@st.composite
def square_matrices(draw):
    """A 1x1 to 4x4 matrix of entries in [-0.5, 1.5], some rows scaled to sum to one."""
    size = draw(st.integers(1, 4))
    rows = []
    for _ in range(size):
        row = np.array(draw(st.lists(st.floats(-0.5, 1.5), min_size=size, max_size=size)))
        if draw(st.booleans()) and row.sum() > 0:
            row = row / row.sum()
        rows.append(row)
    return np.array(rows)


@settings(max_examples=200, deadline=None)  # a matrix is made in microseconds
@given(square_matrices(), st.integers(0, 3))
def test_component_matrix_is_made_exactly_when_stochastic(arr, m):
    bad_entries = [f"component {m} row {i + 1} col {k + 1}: entry {float(v)} outside [0, 1]"
                   for (i, k), v in np.ndenumerate(arr) if not 0.0 <= v <= 1.0]
    bad_rows = [f"component {m} row {i + 1}: sums to" for i, row in enumerate(arr)
                if abs(np.sum(row) - 1.0) > ROW_SUM_TOL]
    if not bad_entries and not bad_rows:
        assert np.array_equal(ComponentMatrix(m, arr).entries, arr)
        return
    with pytest.raises(ConfigModelError) as err:
        ComponentMatrix(m, arr)
    problems = err.value.problems
    assert len(problems) == len(bad_entries) + len(bad_rows)
    assert [p for p in problems if "outside [0, 1]" in p] == bad_entries
    sums = [p for p in problems if " sums to " in p]
    assert len(sums) == len(bad_rows) and all(map(str.startswith, sums, bad_rows))


@PROPERTY
@given(st.integers(4, 12), st.integers(0, 2**16), st.data())
def test_map_row_off_one_is_refused_naming_its_source(n_cells, seed, data):
    tmap, _ = random_absorbing_map(n_cells, 1, seed)
    rows = tmap.rows()
    source = data.draw(st.integers(0, n_cells - 1))
    scale = data.draw(st.sampled_from([0.5, 0.9, 1.0 - 1e-6]))
    rows[source] = [(t, q * scale) for t, q in rows[source]]
    with pytest.raises(MapFormatError) as err:
        TransitionMap.from_edges(tmap.spec, rows)
    assert str(err.value).startswith(f"source {source}: row sums to ")
    assert ";" not in str(err.value)


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
    with tempfile.TemporaryDirectory() as tmp:
        first, other = Path(tmp) / "serial.json", Path(tmp) / "parallel.json"
        save_map(serial, str(first))
        for workers in (2, 3):
            parallel = build_map(model, spec, cfg, dt=1.0, samples=samples, seed=seed,
                                 workers=workers)
            assert serial.rows() == parallel.rows()
            save_map(parallel, str(other))
            assert first.read_bytes() == other.read_bytes()


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


@st.composite
def vehicle_batches(draw, params, reach=None):
    """(N, 6) states with x-positions at the controller's thresholds for params.

    Each row sits near the sensor-range edge, the light or the strong
    clearance at its speed, past the target, or anywhere on the wide grid;
    speeds include standstill. reach "far" puts every row beyond sensor
    range, where the controller computes only the cruise command, and
    "near" every row within it, where it computes no cruise command; by
    default a batch is far, near or mixed.
    """
    reach = reach or draw(st.sampled_from(["mixed", "far", "near"]))
    sensor_edge = params.target_x - params.sensor_range
    n_rows = draw(st.integers(1, 30))
    rows = []
    for _ in range(n_rows):
        row = list(draw(st.tuples(*(st.floats(lo, hi) for lo, hi in VEHICLE_RANGES))))
        v = draw(st.sampled_from([0.0, row[0], params.speed_limit]))
        if reach == "near":
            v = max(v, 0.0)  # a reversing row could back out of sensor range
        fixed = params.fixed_light_clearance
        light = params.t_gap_des * v if fixed is None else fixed
        strong = light / 2.0
        if reach == "far":
            x = draw(st.floats(VEHICLE_RANGES[3][0], sensor_edge - 25.0))
        else:
            clearance = draw(st.sampled_from([params.sensor_range, light, strong, None]))
            if clearance is None:
                x = draw(st.one_of(st.floats(*VEHICLE_RANGES[3]),
                                   st.floats(params.target_x, VEHICLE_RANGES[3][1])))
            else:
                x = params.target_x - clearance + draw(
                    st.sampled_from([0.0, 1e-12, -1e-12, 1e-3, -1e-3, 0.2, -0.2]))
            if reach == "near":
                x = max(x, sensor_edge)
        row[0], row[3] = v, x
        rows.append(row)
    return np.array(rows)


SCENARIOS = st.sampled_from(["agv-baseline", "agv-modified"])


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    # A plain bool: pytest's diff of two byte strings would slow every shrink step.
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@PROPERTY
@given(SCENARIOS, st.sampled_from([1, 2, 3]), st.sampled_from([2.0 / 3.0, 0.1, 1.5]), st.data())
def test_vehicle_step_many_equals_gathered_commands_reference(name, brake, dt, data):
    model = SIMULATORS[name]({})
    xs = data.draw(vehicle_batches(model.params))
    expected = reference_step_many(model.params, xs, (brake,), dt)
    assert _same_bits(model.step_many(xs, (brake,), dt), expected)
    # Every row within sensor range, so no substep computes the cruise
    # command, under full brake delivery and both partial ones.
    near = data.draw(vehicle_batches(model.params, reach="near"))
    for state in (1, 2, 3):
        expected = reference_step_many(model.params, near, (state,), dt)
        assert _same_bits(model.step_many(near, (state,), dt), expected)


@PROPERTY
@given(SCENARIOS, st.sampled_from([1, 2, 3]), st.data())
def test_vehicle_step_many_equals_any_split(name, brake, data):
    # Rows are independent bit for bit (DynamicsModel), though the
    # controller's cruise-only case looks at the whole batch.
    model = SIMULATORS[name]({})
    xs = np.concatenate([data.draw(vehicle_batches(model.params)) for _ in range(2)])
    cuts = sorted(data.draw(st.lists(st.integers(1, len(xs) - 1), max_size=4)))
    whole = model.step_many(xs, (brake,), 2.0 / 3.0)
    pieces = [model.step_many(part, (brake,), 2.0 / 3.0) for part in np.split(xs, cuts)]
    assert _same_bits(np.concatenate(pieces), whole)


@st.composite
def controller_rows(draw, params):
    """(N, 2) rows (v, x) on the case-study grid, v in [0, 20] and x in [0, 600],
    some of them on the sensor-range, light or strong clearance.

    The sensor range and fixed clearances are hit exactly. For a
    speed-scaled clearance the x-position is drawn first and the speed whose
    threshold comes closest to its clearance is taken: exact for most
    clearances, a few ulps off where no float speed gives it.
    """
    rows = []
    for _ in range(draw(st.integers(1, 20))):
        v = draw(st.floats(0.0, 20.0))
        kind = draw(st.sampled_from(["grid", "sensor", "light", "strong"]))
        halve = 2.0 if kind == "strong" else 1.0
        if kind == "grid":
            x = draw(st.floats(0.0, 600.0))
        elif kind == "sensor":
            x = params.target_x - params.sensor_range
        elif params.fixed_light_clearance is not None:
            x = params.target_x - params.fixed_light_clearance / halve
        else:
            x = draw(st.floats(params.target_x - 20.0 * params.t_gap_des / halve, params.target_x))
            c = params.target_x - x
            u = c * halve / params.t_gap_des
            u = np.clip(u + np.arange(-8, 9) * np.spacing(u), 0.0, 20.0)
            v = float(u[np.argmin(np.abs(params.t_gap_des * u / halve - c))])
        rows.append((v, x))
    return np.array(rows)


@PROPERTY
@pytest.mark.parametrize("name", ["agv-baseline", "agv-modified"])
@given(st.data())
def test_command_is_the_reference_command_of_the_row_mode(name, data):
    params = SIMULATORS[name]({}).params
    v, x = data.draw(controller_rows(params)).T
    mode, commands = reference_control(v, x, params)
    assert _same_bits(_command(v, x, params), commands[mode, np.arange(len(v))])


@st.composite
def binning_cases(draw):
    """(spec, (N, L) points) with some, all or none of the dimensions in one
    interval; points inside, outside, on the bounds and on the interval edges."""
    L = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["some", "all", "none"]))
    partitions = [1 if kind == "all" else draw(st.integers(2, 5)) for _ in range(L)]
    if kind == "some":
        ones = draw(st.lists(st.integers(0, L - 1), min_size=1, max_size=L, unique=True))
        partitions = [1 if l in ones else k for l, k in enumerate(partitions)]
    lower = draw(st.lists(st.floats(-100.0, 100.0), min_size=L, max_size=L))
    upper = [lo + draw(st.floats(0.1, 50.0)) for lo in lower]
    spec = SpaceSpec(tuple(f"x{l}" for l in range(L)), ("n",), lower, upper, partitions, (1,))
    coords = [
        st.one_of(st.floats(lo - (hi - lo), hi + (hi - lo)),
                  st.sampled_from([lo + i * w for i in range(k)] + [hi]))
        for lo, hi, w, k in zip(spec.lower, spec.upper, spec.widths, spec.partitions)
    ]
    rows = draw(st.lists(st.tuples(*coords), min_size=1, max_size=20))
    return spec, np.array(rows, dtype=float)


def _reference_bins(xs: np.ndarray, spec: SpaceSpec) -> list[int]:
    """Flat index of every row, one dimension at a time: floor((x - lo) / w),
    the top interval closed; a row outside any bound goes to the exterior."""
    out = []
    for row in xs.tolist():
        flat, stride = 0, 1
        for x, lo, hi, w, k in zip(row, spec.lower, spec.upper, spec.widths, spec.partitions):
            if not lo <= x <= hi:
                flat = spec.total_continuous_cells
                break
            flat += min(math.floor((x - lo) / w), k - 1) * stride
            stride *= k
        out.append(flat)
    return out


@PROPERTY
@given(binning_cases())
def test_bin_points_equals_per_dimension_reference(case):
    spec, xs = case
    got = bin_points(xs, spec)
    assert got.dtype == np.int64 and got.tolist() == _reference_bins(xs, spec)


class _Recording(DynamicsModel):
    """Delegates to a model and keeps every batch it is asked to step."""

    def __init__(self, inner):
        self.inner, self.batches = inner, []

    def step_many(self, xs, n, dt):
        self.batches.append(xs.copy())
        return self.inner.step_many(xs, n, dt)


@PROPERTY
@given(systems(), st.integers(1, 40), st.data())
def test_flow_counts_equal_per_source_draws(system, block_rows, data):
    # Sources split across blocks keep drawing from their own streams.
    spec, _, model, samples, seed = system
    lower = data.draw(st.lists(st.floats(-50.0, 50.0), min_size=spec.L, max_size=spec.L))
    sizes = data.draw(st.lists(st.floats(0.1, 30.0), min_size=spec.L, max_size=spec.L))
    spec = dataclasses.replace(spec, lower=lower, upper=[a + b for a, b in zip(lower, sizes)])
    n_j = spec.total_continuous_cells
    base = n_j * data.draw(st.integers(0, spec.total_configs - 1))
    start = data.draw(st.integers(0, n_j - 1))
    ids = range(base + start, base + data.draw(st.integers(start + 1, n_j)))
    recording = _Recording(model)
    with mock.patch.object(mapper, "BLOCK_ROWS", block_rows):
        got = mapper._flow_counts(recording, spec, 1.0, samples, seed, ids)
    points, expected = [], []
    for s in ids:
        coord = id_to_coord(s, spec)
        xs = sample_cell_array(coord, spec, samples,
                               np.random.SeedSequence(entropy=seed, spawn_key=(s,)))
        points.append(xs)
        targets, counts = np.unique(bin_points(model.step_many(xs, coord.n, 1.0), spec),
                                    return_counts=True)
        expected += [(s, t, c) for t, c in zip(targets.tolist(), counts.tolist())]
    assert _same_bits(np.concatenate(recording.batches), np.concatenate(points))
    assert list(zip(*(a.tolist() for a in got))) == expected


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


def _reference_backtrack(tmap, tree):
    """backtrack's levels as (cell, q, cumulative, parent) columns, and its entry_edges,
    node by node from mapper.predecessors."""
    entry, detail = {}, {}
    for target in tree.event_cell_ids:  # the search's own set, so its sums' order
        for source, q in predecessors(tmap, target):
            entry[source] = entry.get(source, 0.0) + q
            detail.setdefault(source, []).append((target, q))
    kept = sorted(((s, min(q, 1.0)) for s, q in entry.items()), key=lambda sq: (-sq[1], sq[0]))
    kept = [(s, q) for s, q in kept if q >= tree.truncation and q > 0.0]
    levels = [[(s, q, q, 0) for s, q in kept]] if kept else []
    while levels and len(levels) < tree.depth:
        level = [(source, q, cumulative * q, k)
                 for k, (cell, _, cumulative, _) in enumerate(levels[-1])
                 if cell not in tree.event_cell_ids
                 for source, q in predecessors(tmap, cell)]
        level = [node for node in level if node[2] >= tree.truncation and node[2] > 0.0]
        if not level:
            break
        levels.append(level)
    return [list(zip(*level)) for level in levels], [sorted(detail[s]) for s, _ in kept]


# The cap and the event cells' summing order change a bit in few draws.
@settings(max_examples=300, deadline=None)  # a search here takes about two milliseconds
@given(st.integers(4, 12), st.integers(1, 3), st.integers(0, 2**16), st.integers(1, 5),
       TRUNCATIONS)
def test_backtrack_equals_per_node_reference(n_cells, n_event, seed, depth, truncation):
    tmap, event = random_absorbing_map(n_cells, n_event, seed)
    tree = backtrack(tmap, event, depth=depth, truncation=truncation)
    levels, entry_edges = _reference_backtrack(tmap, tree)
    assert len(tree.levels) == len(levels)
    for level, (cell, q, cumulative, parent) in zip(tree.levels, levels):
        assert level.cell.tolist() == list(cell) and level.parent.tolist() == list(parent)
        assert _same_bits(level.q, np.array(q))
        assert _same_bits(level.cumulative, np.array(cumulative))
    assert tree.entry_edges == entry_edges


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
    tmap, event = random_absorbing_map(n_cells, n_event, seed)
    tree = backtrack(tmap, event, depth=depth, truncation=truncation)
    prior = np.random.default_rng(seed).random(n_cells) if weighted else None
    assert list(encode_ranked_paths(tree.ranking(prior))) == _json_dumps_rows(tree, prior)


def _json_dumps_rows(tree, prior):
    """The report rows as run-bpa built them as dicts and encoded with json.dumps."""
    vectors = {c: coord.as_vector() for c, coord in tree.coords.items()}
    rows = [
        {
            "cells": [vectors[c] for c in p.cell_ids],
            "steps": p.steps,
            "cumulative": p.cumulative,
            "rendered": " -> ".join([f"{c.label} (q={q:g})" for c, q in zip(p.cells, p.steps)]
                                    + ["TopEvent"]),
        }
        for p in rank_paths(tree, initial_distribution=prior)
    ]
    return [json.dumps(row, sort_keys=True, separators=(",", ":")) for row in rows]


@PROPERTY
@given(st.integers(4, 12), st.integers(1, 3), st.integers(0, 2**16), st.integers(1, 5),
       TRUNCATIONS, st.booleans(), st.integers(1, 7))
def test_writers_equal_the_references_in_slices_of_any_size(n_cells, n_event, seed, depth,
                                                            truncation, weighted, row_slice):
    # Slices of 1 to 7 rows or texts cut sibling groups and levels apart.
    tmap, event = random_absorbing_map(n_cells, n_event, seed)
    tree = backtrack(tmap, event, depth=depth, truncation=truncation)
    prior = np.random.default_rng(seed).random(n_cells) if weighted else None
    encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
    dot, text = _descend_dot_and_text(tree)
    with mock.patch.object(mapper, "ROW_SLICE", row_slice), \
            tempfile.TemporaryDirectory() as tmp:
        assert list(encode_ranked_paths(tree.ranking(prior))) == _json_dumps_rows(tree, prior)
        path = Path(tmp) / "tree.json"
        write_tree(tree, str(path))
        assert path.read_bytes() == (
            "".join(encoder.iterencode(tree_to_dict(tree))) + "\n").encode("utf-8")
        assert "".join(tree_to_dot(tree)) == dot
        assert "".join(tree_to_text(tree)) == text


def _descend_dot_and_text(tree):
    """The dot graph and the indented text as a recursive descent over the tree
    document; a node is named n and its preorder number."""
    L, names = len(tree.event.lower), itertools.count()
    dot = ['digraph scenario_tree {\n\trankdir=RL;\n\tnode [shape=box, fontname="Helvetica"];\n'
           '\t"root" [label="TopEvent", shape=doubleoctagon];\n']
    lines = []

    def descend(node, parent):
        name, label = f"n{next(names)}", CellCoord(node["coord"][:L], node["coord"][L:]).label
        style = ", style=dashed" if node["event_cell"] else ""
        dot.append(f'\t"{name}" [label="{label}\\nP={node["q"]:g}"{style}];\n'
                   f'\t"{name}" -> "{parent}";\n')
        lines.append(f'{"  " * (node["depth"] - 1)}{label} q={node["q"]:g} '
                     f'cumulative={node["cumulative"]:g} depth={node["depth"]}')
        for child in node["children"]:
            descend(child, name)

    for child in tree_to_dict(tree)["root"]["children"]:
        descend(child, "root")
    return "".join(dot) + "}\n", "\n".join(lines) + "\n"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8,
)


@PROPERTY
@given(st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=5), st.data())
def test_write_json_equals_compact_of_the_dict(doc, data):
    # Some values go in as iterators: an array's row texts through
    # json_array, any other value's text cut into pieces.
    fields = []
    for key, value in sorted(doc.items()):
        how = data.draw(st.sampled_from(["value", "rows", "pieces"]))
        text = compact(value)
        if how == "rows" and isinstance(value, list):
            value = json_array(compact(row) for row in value)
        elif how == "pieces":
            cuts = sorted(data.draw(st.lists(st.integers(0, len(text)), max_size=3)))
            value = iter([text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)])])
        fields.append((key, value))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        write_json(str(path), fields)
        assert path.read_text(encoding="utf-8") == compact(doc) + "\n"


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


# A value a YAML or JSON key may hold: scalars of every kind (integers past 64 bits and
# past every float, non-finite floats, long text among them), lists, edge-like triples
# and mappings.
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12)
           | st.sampled_from([2**63, -2**63 - 1, 10**400, -10**4298, "9" * 5000, "x" * 5000]))
ANY_VALUE = st.recursive(
    SCALARS | st.lists(st.lists(SCALARS, min_size=3, max_size=3), max_size=30),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=12,
)
FILE_PROPERTY = settings(max_examples=150, deadline=None)
MESSAGE_CAP = 4096  # bytes of one error's message


@st.composite
def edits(draw, doc: dict):
    """doc with one key (at the top or one level down) replaced by any value, deleted,
    or joined by an unknown key."""
    paths = [(key,) for key in doc] + [(key, sub) for key, value in doc.items()
                                        if isinstance(value, dict) for sub in value]
    *parents, key = draw(st.sampled_from(paths))
    edited = copy.deepcopy(doc)
    owner = functools.reduce(dict.__getitem__, parents, edited)
    action = draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "delete":
        del owner[key]
    else:
        owner[key if action == "replace" else f"unknown_{key}"] = draw(ANY_VALUE)
    return edited


def _saved_map_doc() -> dict:
    identity = ConfigTransitionModel((ComponentMatrix(0, np.eye(1)),))
    tmap = build_map(LinearDriftModel([0.5]), line_spec(4), identity, dt=1.0, samples=4)
    with tempfile.TemporaryDirectory() as tmp:
        save_map(tmap, str(Path(tmp) / "map.json"))
        return json.loads((Path(tmp) / "map.json").read_text())


@FILE_PROPERTY
@given(edits(_saved_map_doc()))
def test_an_edited_map_loads_or_is_refused_in_a_bounded_message(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "map.json"
        path.write_text(json.dumps(doc))
        try:
            load_map(str(path))
        except MapFormatError as exc:
            assert len(str(exc).encode()) < MESSAGE_CAP


@FILE_PROPERTY
@given(edits(yaml.safe_load((CONFIGS / "agv_baseline.yaml").read_text())))
def test_an_edited_config_loads_or_is_refused_in_a_bounded_message(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.yaml"
        path.write_text(yaml.safe_dump(doc))
        try:
            load_config(str(path))
        except ConfigError as exc:
            assert len(str(exc).encode()) < MESSAGE_CAP
