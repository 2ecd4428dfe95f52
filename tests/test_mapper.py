from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
import math
import os
import re
from fractions import Fraction

import numpy as np
import pytest

from _synthetic import line_spec, ring_shift_map
from conftest import SUITE_SEED
from cellrisk.cellspace import EXTERIOR_ID, id_to_coord
from cellrisk.configuration import (
    ROW_SUM_TOL,
    ComponentMatrix,
    ConfigTransitionModel,
    component_matrix_from_rows,
)
from cellrisk import mapper
from cellrisk.mapper import (
    BudgetError,
    BuildError,
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
from cellrisk.run import LinearDriftModel

BRAKE_ROWS = [["~1", 2e-7, 2e-7], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


def identity_config(states: int = 1) -> ConfigTransitionModel:
    return ConfigTransitionModel(matrices=(ComponentMatrix(0, np.eye(states)),))


def brake_config() -> ConfigTransitionModel:
    return ConfigTransitionModel(matrices=(component_matrix_from_rows(BRAKE_ROWS),))


def test_estimate_g_identity_is_self_loop():
    spec = line_spec(6)
    model = LinearDriftModel(0.0)
    for cid in range(6):
        coord = id_to_coord(cid, spec)
        row = estimate_g(coord, model, spec, dt=1.0, samples=100, seed=1)
        assert row == [(coord.j, Fraction(1))]


def test_estimate_g_full_width_shift():
    spec = line_spec(5)
    model = LinearDriftModel(1.0)  # one cell width per unit time
    for cid in range(4):
        coord = id_to_coord(cid, spec)
        row = estimate_g(coord, model, spec, dt=1.0, samples=200, seed=2)
        assert row == [((coord.j[0] + 1,), Fraction(1))]
    top = id_to_coord(4, spec)
    row = estimate_g(top, model, spec, dt=1.0, samples=200, seed=2)
    assert row == [(EXTERIOR_ID, Fraction(1))]


def test_estimate_g_half_width_shift_splits():
    # Analytic overlap oracle: a half-width shift leaves exactly half the
    # box in place, so both targets carry probability 0.5.
    spec = line_spec(8)
    model = LinearDriftModel(0.5)
    samples = 10_000
    coord = id_to_coord(3, spec)
    row = dict(estimate_g(coord, model, spec, dt=1.0, samples=samples, seed=3))
    three_sigma = 3.0 * math.sqrt(0.25 / samples)
    assert abs(float(row[(4,)]) - 0.5) <= three_sigma
    assert abs(float(row[(5,)]) - 0.5) <= three_sigma
    assert sum(row.values()) == 1


def test_estimate_g_fractions_sum_to_one_exactly():
    spec = line_spec(8)
    row = estimate_g(id_to_coord(2, spec), LinearDriftModel(0.37), spec, 1.0, 777, seed=4)
    assert sum(g for _, g in row) == Fraction(1)


def test_estimate_g_rejects_nonfinite_simulator():
    class Broken(DynamicsModel):
        def step_many(self, xs, n, dt):
            out = np.array(xs, dtype=float)
            out[0] = np.nan
            return out

    spec = line_spec(3)
    with pytest.raises(BuildError):
        estimate_g(id_to_coord(0, spec), Broken(), spec, 1.0, 10, seed=0)


def test_simulator_of_the_wrong_shape_is_a_build_error():
    class Truncating(DynamicsModel):
        def step_many(self, xs, n, dt):
            return np.array(xs, dtype=float)[:-1]

    spec = line_spec(3)
    with pytest.raises(BuildError, match=r"simulator returned shape \(9, 1\) for cell .*"
                                         r"expected \(10, 1\)"):
        estimate_g(id_to_coord(0, spec), Truncating(), spec, 1.0, 10, seed=0)


def test_blocks_of_any_size_give_the_same_rows_and_map(monkeypatch):
    # 30 samples a cell in blocks of 7 rows: blocks end inside cells and
    # span two of them, and one cell's stream continues across blocks.
    spec, model = line_spec(8, states=3), LinearDriftModel(0.37)
    cells = [id_to_coord(s, spec) for s in range(spec.total_cells)]
    rows = [estimate_g(c, model, spec, 1.0, 30, seed=4) for c in cells]
    tmap = build_map(model, spec, brake_config(), dt=1.0, samples=30, seed=4)
    monkeypatch.setattr("cellrisk.mapper.BLOCK_ROWS", 7)
    assert rows == [estimate_g(c, model, spec, 1.0, 30, seed=4) for c in cells]
    blocked = build_map(model, spec, brake_config(), dt=1.0, samples=30, seed=4)
    assert all(np.array_equal(a, b) for a, b in zip(tmap.matrix, blocked.matrix))


def test_build_map_identity_is_identity():
    spec = line_spec(4)
    tmap = build_map(LinearDriftModel(0.0), spec, identity_config(), dt=1.0, samples=50, seed=5)
    for s in range(4):
        assert tmap.rows()[s] == [(s, 1.0)]


def test_build_map_composes_h_and_g_exactly():
    # Full-width shift makes g = 1 on the single continuous edge, so the
    # joint edges carry the configuration entries verbatim.
    spec = line_spec(5, states=3)
    tmap = build_map(LinearDriftModel(1.0), spec, brake_config(), dt=1.0, samples=100, seed=6)
    src = 0  # cell (1,), Normal
    row = dict(tmap.rows()[src])
    n_j = spec.total_continuous_cells
    assert row[1] == 1.0 - 4e-7            # (2,), Normal
    assert row[1 + n_j] == 2e-7            # (2,), Minor fault
    assert row[1 + 2 * n_j] == 2e-7        # (2,), Major fault


def test_build_map_factorization_splits():
    # With a half-width shift the minor-fault edge is the measured g times
    # the configured jump probability, recovered by dividing h back out.
    spec = line_spec(5, states=3)
    tmap = build_map(LinearDriftModel(0.5), spec, brake_config(), dt=1.0, samples=200, seed=7)
    g_row = dict(estimate_g(id_to_coord(0, spec), LinearDriftModel(0.5), spec, 1.0, 200, seed=7))
    n_j = spec.total_continuous_cells
    row = dict(tmap.rows()[0])
    for target_j, g in g_row.items():
        jid = target_j[0] - 1
        assert row[jid + n_j] / 2e-7 == pytest.approx(float(g), abs=1e-12)
        assert row[jid + 2 * n_j] / 2e-7 == pytest.approx(float(g), abs=1e-12)


def test_build_map_rows_stochastic_and_positive(baseline_map):
    assert len(baseline_map.rows()) == 2250
    for s, edges in baseline_map.rows().items():
        total = sum(q for _, q in edges)
        assert abs(total - 1.0) <= 1e-9
        assert all(q > 0.0 for _, q in edges)


def test_h_g_factorization_invariant(baseline_map, baseline_config):
    # For every stored edge, q divided by the configuration entry must be
    # independent of the target configuration.
    H = baseline_config.config_model.matrices[0].entries
    n_j = baseline_map.spec.total_continuous_cells
    checked = 0
    for s, edges in baseline_map.rows().items():
        n_prev = id_to_coord(s, baseline_map.spec).n[0]
        ratios: dict[int, set[float]] = {}
        for t, q in edges:
            if t == EXTERIOR_ID:
                continue
            jid, n_next = t % n_j, t // n_j + 1
            h_val = H[n_prev - 1, n_next - 1]
            ratios.setdefault(jid, set()).add(q / h_val)
        for jid, vals in ratios.items():
            if len(vals) > 1:
                assert max(vals) - min(vals) <= 1e-12
                checked += 1
    assert checked > 0


def test_forward_step_identity_point_mass():
    spec = line_spec(4)
    tmap = build_map(LinearDriftModel(0.0), spec, identity_config(), dt=1.0, samples=20, seed=8)
    dist = np.zeros(5)
    dist[2] = 1.0
    out = forward_step(tmap, dist)
    assert np.array_equal(out, dist)


def test_forward_step_chapman_kolmogorov():
    # Two single steps equal one step of the self-composed map.
    spec = line_spec(10)
    rng = np.random.default_rng(9)
    edges = {}
    for s in range(10):
        w = rng.random(10)
        w /= w.sum()
        edges[s] = [(t, float(w[t])) for t in range(10)]
    tmap = TransitionMap.from_edges(spec, edges)
    Q = np.zeros((11, 11))
    Q[tmap.matrix.row_ids(), tmap.matrix.indices] = tmap.matrix.data
    dist = np.zeros(11)
    dist[4] = 1.0
    two_steps = forward_step(tmap, forward_step(tmap, dist))
    composed = dist @ (Q @ Q)
    assert np.max(np.abs(two_steps - composed)) <= 1e-9
    assert abs(two_steps.sum() - 1.0) <= 1e-9


def test_forward_step_uniform_through_doubly_stochastic():
    tmap = ring_shift_map(6)
    dist = np.full(7, 1.0 / 6.0)
    dist[6] = 0.0
    out = forward_step(tmap, dist)
    assert np.allclose(out[:6], 1.0 / 6.0, atol=1e-12)


def test_forward_step_rejects_a_vector_without_the_exterior():
    with pytest.raises(ValueError, match="must have length"):
        forward_step(ring_shift_map(3), np.full(3, 1.0 / 3.0))


def test_forward_step_rejects_unnormalized():
    tmap = ring_shift_map(3)
    with pytest.raises(ValueError):
        forward_step(tmap, np.array([0.5, 0.1, 0.1, 0.0]))


def _row_sum_boundary(toward: float) -> tuple[float, float]:
    """The double farthest from one on the side of toward that is within ROW_SUM_TOL
    of one, and the next double out."""
    s = 1.0 + math.copysign(ROW_SUM_TOL, toward - 1.0)
    while abs(s - 1.0) > ROW_SUM_TOL:
        s = np.nextafter(s, 1.0)
    while abs(np.nextafter(s, toward) - 1.0) <= ROW_SUM_TOL:
        s = np.nextafter(s, toward)
    return float(s), float(np.nextafter(s, toward))


@pytest.mark.parametrize("toward", [0.0, 2.0], ids=["below-one", "above-one"])
def test_row_sum_tolerance_boundary(toward):
    # A map row and a pushed distribution summing to the last double within
    # ROW_SUM_TOL of one pass; the next double out is refused. No double is
    # exactly ROW_SUM_TOL from one, so > and >= draw the same line there.
    kept, refused = _row_sum_boundary(toward)
    assert abs(kept - 1.0) < ROW_SUM_TOL < abs(refused - 1.0)

    def rows(total):   # 0.5 + (total - 0.5) is total, exactly
        return {0: [(0, 0.5), (1, total - 0.5)], 1: [(1, 1.0)]}

    TransitionMap.from_edges(line_spec(2), rows(kept))
    with pytest.raises(MapFormatError, match=re.escape(f"source 0: row sums to {refused!r}")):
        TransitionMap.from_edges(line_spec(2), rows(refused))
    ring = ring_shift_map(2)
    assert forward_step(ring, np.array([0.5, kept - 0.5, 0.0])).sum() == kept
    with pytest.raises(ValueError, match=re.escape(f"distribution sums to {refused!r}")):
        forward_step(ring, np.array([0.5, refused - 0.5, 0.0]))


def test_predecessors_identity_and_shift():
    spec = line_spec(4)
    ident = build_map(LinearDriftModel(0.0), spec, identity_config(), dt=1.0, samples=20, seed=10)
    assert predecessors(ident, 2) == [(2, 1.0)]

    shift = build_map(LinearDriftModel(1.0), spec, identity_config(), dt=1.0, samples=20, seed=10)
    assert predecessors(shift, 2) == [(1, 1.0)]
    assert predecessors(shift, 0) == []


def test_predecessors_transpose_exhaustive():
    spec = line_spec(7)
    rng = np.random.default_rng(11)
    edges = {}
    for s in range(7):
        w = rng.random(3)
        w /= w.sum()
        targets = rng.choice(7, size=3, replace=False)
        row = {}
        for t, p in zip(targets, w):
            row[int(t)] = row.get(int(t), 0.0) + float(p)
        edges[s] = sorted(row.items())
    tmap = TransitionMap.from_edges(spec, edges)
    for t in range(7):
        preds = predecessors(tmap, t)
        # Every backward edge appears forward with identical q, and no
        # forward edge into t is missing.
        assert sorted(preds) == sorted(
            (s, q) for s, row in tmap.rows().items() for tt, q in row if tt == t
        )
        qs = [q for _, q in preds]
        assert qs == sorted(qs, reverse=True)


def test_predecessors_order_breaks_ties_by_source_id():
    spec = line_spec(3)
    edges = {0: [(2, 1.0)], 1: [(2, 1.0)], 2: [(2, 1.0)]}
    tmap = TransitionMap.from_edges(spec, edges)
    assert predecessors(tmap, 2) == [(0, 1.0), (1, 1.0), (2, 1.0)]


def test_build_reproducible_bit_identical(tmp_path):
    spec = line_spec(6, states=2)
    cfg = ConfigTransitionModel(
        matrices=(ComponentMatrix(0, [[0.9, 0.1], [0.0, 1.0]]),)
    )
    a = build_map(LinearDriftModel(0.6), spec, cfg, dt=1.0, samples=64, seed=12)
    b = build_map(LinearDriftModel(0.6), spec, cfg, dt=1.0, samples=64, seed=12)
    assert a.rows() == b.rows()
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_map(a, str(pa))
    save_map(b, str(pb))
    assert pa.read_bytes() == pb.read_bytes()


def test_build_worker_count_invariant(tmp_path):
    # Two configurations; 7 continuous cells is a multiple of neither worker count.
    cfg = ConfigTransitionModel(
        matrices=(ComponentMatrix(0, [[0.9, 0.1], [0.0, 1.0]]),)
    )
    first, other = tmp_path / "serial.json", tmp_path / "parallel.json"
    for n_cells in (6, 7):
        spec = line_spec(n_cells, states=2)
        serial = build_map(LinearDriftModel(0.6), spec, cfg, dt=1.0, samples=32, seed=13)
        save_map(serial, str(first))
        for workers in (2, 3):
            parallel = build_map(LinearDriftModel(0.6), spec, cfg, dt=1.0, samples=32, seed=13,
                                 workers=workers)
            assert serial.rows() == parallel.rows()
            save_map(parallel, str(other))
            assert first.read_bytes() == other.read_bytes()


class _InlinePool:
    """A ProcessPoolExecutor stand-in that records max_workers and runs each task as submitted."""

    made: list[_InlinePool] = []

    def __init__(self, max_workers):
        self.max_workers, self.tasks = max_workers, 0
        _InlinePool.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.tasks += 1
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize(
    "cpus, workers, processes, pieces",
    # Pieces follow workers: 7 sources a configuration, in pieces of 3, 3 and 1 for 3
    # workers and of one source for more workers than sources.
    [(2, 3, 2, 6), (64, 3, 3, 6), (None, 3, 1, 6), (2, 10_000, 2, 14)],
)
def test_build_starts_at_most_one_process_per_cpu(monkeypatch, cpus, workers, processes,
                                                  pieces):
    # No real process is started: the stand-in runs every piece inline.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "made", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    cfg = ConfigTransitionModel(matrices=(ComponentMatrix(0, [[0.9, 0.1], [0.0, 1.0]]),))
    spec = line_spec(7, states=2)
    serial = build_map(LinearDriftModel(0.6), spec, cfg, dt=1.0, samples=32, seed=13)
    parallel = build_map(LinearDriftModel(0.6), spec, cfg, dt=1.0, samples=32, seed=13,
                         workers=workers)
    assert [(p.max_workers, p.tasks) for p in _InlinePool.made] == [(processes, pieces)]
    assert serial.rows() == parallel.rows()


def test_persistence_round_trip(tmp_path, baseline_map):
    path = tmp_path / "map.json"
    save_map(baseline_map, str(path))
    loaded = load_map(str(path))
    assert loaded.spec == baseline_map.spec
    assert loaded.dt == baseline_map.dt
    assert loaded.samples_per_cell == baseline_map.samples_per_cell
    assert loaded.rows() == baseline_map.rows()
    assert [predecessors(loaded, t) for t in range(loaded.n_cells)] == [
        predecessors(baseline_map, t) for t in range(baseline_map.n_cells)
    ]
    assert loaded.seed == baseline_map.seed
    assert loaded.simulator == baseline_map.simulator
    # Re-saving the loaded map is byte-identical: the format round-trips.
    path2 = tmp_path / "map2.json"
    save_map(loaded, str(path2))
    assert path.read_bytes() == path2.read_bytes()


# sha256 of the map files of the shipped configs at the suite seed and 200
# samples per cell, as `build-map` writes them (recorded before the blocked
# sampler, the batch controller and the sliced writer).
MAP_SHA256 = {
    "baseline_map": "75d2d32bbc26fd33669dc6a6a0ed4959632904b9bc4ad937e15f338d4d358990",
    "modified_map": "e420977e227c3d7b88bc949041db97d2e85154b3235fcc042885befe92ac024d",
    # Recorded with `build-map` before the in-place stepping and split-dimension binning.
    "fine_grid_map": "d03b784e5c01fa59ee3d249aa62a0f9f5d5e9b6d374c936792638c173a1f43e9",
    "block_spanning_map": "e23d1084ec433399a37f72c67f7d35232041525f1e3c2e4f046415ee36202333",
}


def _regridded_map(cfg, model, partitions, samples):
    spec = dataclasses.replace(cfg.spec, partitions=partitions)
    return build_map(model, spec, cfg.config_model, dt=cfg.dt, samples=samples, seed=SUITE_SEED)


@pytest.fixture(scope="module")
def fine_grid_map(modified_config, modified_model):
    # agv_modified at numberOfCells [10, 1, 1, 150, 1, 1, 3], 100 samples per cell.
    return _regridded_map(modified_config, modified_model, (10, 1, 1, 150, 1, 1), 100)


@pytest.fixture(scope="module")
def block_spanning_map(baseline_config, baseline_model):
    # agv_baseline at numberOfCells [2, 1, 1, 6, 1, 1, 3], 7001 samples per cell:
    # every source spans two or three blocks of BLOCK_ROWS rows.
    return _regridded_map(baseline_config, baseline_model, (2, 1, 1, 6, 1, 1), 7001)


@pytest.mark.parametrize("fixture", sorted(MAP_SHA256))
def test_map_bytes_pinned(tmp_path, request, fixture):
    path = tmp_path / "map.json"
    save_map(request.getfixturevalue(fixture), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MAP_SHA256[fixture]


def test_sample_budget_guard():
    spec = line_spec(10)
    with pytest.raises(BudgetError):
        build_map(
            LinearDriftModel(0.0), spec, identity_config(), dt=1.0,
            samples=100, seed=0, sample_budget=500,
        )
    # 10 cells x 100 samples: a budget of exactly 1,000 is enough, one less is not.
    with pytest.raises(BudgetError):
        build_map(LinearDriftModel(0.0), spec, identity_config(), dt=1.0, samples=100, seed=0,
                  sample_budget=999)
    tmap = build_map(LinearDriftModel(0.0), spec, identity_config(), dt=1.0, samples=100,
                     seed=0, sample_budget=1000)
    assert tmap.n_cells == 10


def test_quadrature_convergence_synthetic():
    # Estimates at 100 and 400 samples share the seed stream, so the first
    # hundred draws coincide and differences stay well inside binomial noise.
    spec = line_spec(8)
    model = LinearDriftModel(0.4)
    for cid in range(7):
        coord = id_to_coord(cid, spec)
        g100 = dict(estimate_g(coord, model, spec, 1.0, 100, seed=14))
        g400 = dict(estimate_g(coord, model, spec, 1.0, 400, seed=14))
        for target, g in g400.items():
            if float(g) >= 0.1:
                assert abs(float(g100.get(target, 0)) - float(g)) <= 0.15


def test_exterior_mass_accounting():
    spec = line_spec(4)
    tmap = build_map(LinearDriftModel(1.0), spec, identity_config(), dt=1.0, samples=30, seed=15)
    rows = tmap.rows()
    assert dict(rows[3]).get(EXTERIOR_ID, 0.0) == 1.0
    assert dict(rows[0]).get(EXTERIOR_ID, 0.0) == 0.0
    # The exterior never appears in the backward index.
    assert len(tmap.predecessor_index.indptr) == tmap.n_cells + 1


def _write_map(tmp_path, edges, name="map.json"):
    """A saved 4-cell identity map with its edge list replaced."""
    spec = line_spec(4)
    path = tmp_path / name
    save_map(TransitionMap.from_edges(spec, {s: [(s, 1.0)] for s in range(4)}), str(path))
    doc = json.loads(path.read_text())
    doc["edges"] = edges
    path.write_text(json.dumps(doc))
    return path


MALFORMED_EDGES = {
    "id-out-of-range": ([[0, 0, 1.0], [1, 1, 1.0], [2, 2, 1.0], [3, 3, 1.0], [7, 3, 1.0]],
                        "source id outside"),
    "q-outside-unit-interval": ([[0, 0, 1.5], [1, 1, 1.0], [2, 2, 1.0], [3, 3, 1.0]],
                                "q outside (0, 1]"),
    "row-sum-off": ([[0, 0, 1.0], [1, 1, 1.0], [2, 2, 1.0], [3, 3, 0.49], [3, 2, 0.49]],
                    "source 3: row sums to"),
    "duplicate-edge": ([[0, 0, 0.5], [0, 0, 0.5], [1, 1, 1.0], [2, 2, 1.0], [3, 3, 1.0]],
                       "duplicate"),
    "non-integer-id": ([[0, 0, 1.0], [1, 1, 1.0], [2, 2, 1.0], [3, 2.5, 1.0]],
                       "edges must be [source, target, q] triples: need integer ids"),
    # Ids and q are checked as read, and the triple named as written.
    "boolean-field": ([[0, 0, 1.0], [1, 1, 1.0], [2, 2, 1.0], [3, 3, True]],
                      "edge [3, 3, True]: boolean field"),
    "huge-id": ([[0, 0, 1.0], [1, 1, 1.0], [2, 2, 1.0], [3, 3, 1.0], [1e30, 3, 1.0]],
                "edge [1e+30, 3, 1.0]: source id outside 0..3"),
    "infinite-id": ([[0, 0, 1.0], [1, 1, 1.0], [2, 2, 1.0], [3, math.inf, 1.0]],
                    "edge [3, inf, 1.0]: target id outside 0..3 or -1"),
    # The bounds themselves: an id of exactly n_cells, and a q of exactly 0.
    "source-id-n-cells": ([[0, 0, 1.0], [1, 1, 1.0], [2, 2, 1.0], [3, 3, 1.0], [4, 0, 1.0]],
                          "edge [4, 0, 1.0]: source id outside 0..3"),
    "target-id-n-cells": ([[0, 0, 1.0], [1, 1, 1.0], [2, 2, 1.0], [3, 4, 1.0]],
                          "edge [3, 4, 1.0]: target id outside 0..3 or -1"),
    "q-zero": ([[0, 0, 1.0], [1, 1, 1.0], [2, 2, 1.0], [3, 3, 1.0], [3, 2, 0.0]],
               "edge [3, 2, 0.0]: q outside (0, 1]"),
    # Every bad triple is named, check by check, in one error.
    "every-bad-triple-named": ([[1, 1, 1.5], [2, 2, 1.5], [3, 9, 1.0], [5, 0, 1.0]],
                               "edge [5, 0, 1.0]: source id outside 0..3; "
                               "edge [3, 9, 1.0]: target id outside 0..3 or -1; "
                               "edge [1, 1, 1.5]: q outside (0, 1]; "
                               "edge [2, 2, 1.5]: q outside (0, 1]"),
    # np.asarray would parse them; each field that is not a number is named.
    "string-id": ([[0, 0, 0.99], [0, "-1", "0.01"], [1, 1, 1.0], [2, 2, 1.0], [3, 3, 1.0]],
                  "edge [0, '-1', '0.01']: string field '-1'; "
                  "edge [0, '-1', '0.01']: string field '0.01'"),
    "string-q": ([[0, -1, 0.480000208], [0, 0, "  0.519999792 "], [1, 1, 1.0], [2, 2, 1.0],
                  [3, 3, 1.0]],
                 "edge [0, 0, '  0.519999792 ']: string field '  0.519999792 '"),
}
# Only a file can hold an edge that is not a list; each is named whole, not scanned as fields.
NON_LIST_EDGES = {
    "string-edge": ([[0, 0, 1.0], [1, 1, 1.0], [2, 2, 1.0], [3, 3, 1.0], "ab"],
                    "edge 'ab': not a [source, target, q] list"),
    "object-edge": ([[0, 0, 1.0], [1, 1, 1.0], [2, 2, 1.0], [3, 3, 1.0], {"x": 1}],
                    "edge {'x': 1}: not a [source, target, q] list"),
    "number-edge": ([[0, 0, 1.0], [1, 1, 1.0], [2, 2, 1.0], [3, 3, 1.0], 5],
                    "edge 5: not a [source, target, q] list"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_EDGES | NON_LIST_EDGES))
def test_load_map_rejects_malformed_edges(tmp_path, case):
    edges, message = (MALFORMED_EDGES | NON_LIST_EDGES)[case]
    with pytest.raises(MapFormatError, match=re.escape(message)):
        load_map(str(_write_map(tmp_path, edges)))


@pytest.mark.parametrize("case", sorted(MALFORMED_EDGES))
def test_from_edges_rejects_malformed_edges(case):
    edges, message = MALFORMED_EDGES[case]
    rows: dict[int, list[tuple[int, float]]] = {}
    for s, t, q in edges:
        rows.setdefault(s, []).append((t, q))
    with pytest.raises(MapFormatError, match=re.escape(message)):
        TransitionMap.from_edges(line_spec(4), rows)


def test_load_map_rejects_non_map_json(tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({"format": "cellrisk-scenario-tree", "version": 1}))
    with pytest.raises(MapFormatError, match="not a transition map file"):
        load_map(str(path))
    path.write_text("{not json")
    with pytest.raises(MapFormatError, match="not a JSON file"):
        load_map(str(path))


def test_load_map_names_every_off_row(tmp_path):
    edges = [[0, 0, 0.5], [1, 1, 1.0], [2, 2, 1.0], [3, 3, 0.25], [3, 2, 0.5]]
    with pytest.raises(MapFormatError) as err:
        load_map(str(_write_map(tmp_path, edges)))
    assert str(err.value).endswith("source 0: row sums to 0.5; source 3: row sums to 0.75")


MALFORMED_HEADERS = {
    "seed-not-an-integer": (lambda doc: doc.update(seed=1.5), "seed must be an integer, got 1.5"),
    "seed-boolean": (lambda doc: doc.update(seed=True), "seed must be an integer, got True"),
    "seed-negative": (lambda doc: doc.update(seed=-1), "seed must be >= 0, got -1"),
    "samples-negative": (lambda doc: doc.update(samples_per_cell=-5),
                         "samples_per_cell must be >= 1, got -5"),
    "partitions-not-integers": (lambda doc: doc["spec"].update(partitions=[4.7]),
                                "spec.partitions entry 1 must be an integer, got 4.7"),
    "states-not-integers": (lambda doc: doc["spec"].update(states=[1.0]),
                            "spec.states entry 1 must be an integer, got 1.0"),
    "dt-not-a-number": (lambda doc: doc.update(dt="1"), "dt must be a number"),
    "simulator-not-a-string": (lambda doc: doc.update(simulator=3),
                               "simulator must be a string"),
    "simulator-params-not-an-object": (lambda doc: doc.update(simulator_params=[1.0]),
                                       "simulator_params must be a mapping, got [1.0]"),
    "spec-missing": (lambda doc: doc.pop("spec"), "missing field 'spec'"),
    # SpaceSpec would read these as the float 0.0 or 1.0 and the name tuple ("x",).
    "lower-strings": (lambda doc: doc["spec"].update(lower=["0"]),
                      "spec.lower entry 1 must be a number, got '0'"),
    "upper-boolean": (lambda doc: doc["spec"].update(upper=[True]),
                      "spec.upper entry 1 must be a number, got True"),
    "names-x-string": (lambda doc: doc["spec"].update(names_x="x"),
                       "spec.names_x must be a list, got 'x'"),
    # The header is read as the config is: dt's range is the config's, and every key is known.
    "dt-negative": (lambda doc: doc.update(dt=-1), "dt must be > 0.0, got -1"),
    "dt-zero": (lambda doc: doc.update(dt=0), "dt must be > 0.0, got 0"),
    "dt-infinite": (lambda doc: doc.update(dt=math.inf), "dt must be finite, got inf"),
    "unknown-key": (lambda doc: doc.update(extra=1), "unknown field 'extra'"),
    "edges-not-a-list": (lambda doc: doc.update(edges=5), "edges must be a list, got 5"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
def test_load_map_rejects_malformed_header(tmp_path, case):
    defect, message = MALFORMED_HEADERS[case]
    path = _write_map(tmp_path, [[0, 0, 1.0], [1, 1, 1.0], [2, 2, 1.0], [3, 3, 1.0]])
    doc = json.loads(path.read_text())
    defect(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(MapFormatError, match=re.escape(message)):
        load_map(str(path))


@pytest.mark.parametrize("spec_defect, message", [
    (lambda doc: doc.update(spec=5), "spec must be a mapping, got 5"),
    (lambda doc: doc.pop("spec"), "missing field 'spec'"),
], ids=["spec-not-an-object", "spec-missing"])
def test_load_map_names_every_bad_header_field(tmp_path, spec_defect, message):
    # The fields under a bad spec are not checked; the edges are checked
    # only once the header is clean.
    path = _write_map(tmp_path, [[0, 0, 1.0], [1, 1, 1.0], [2, 2, 1.0], [3, 3, 1.0]])
    doc = json.loads(path.read_text())
    spec_defect(doc)
    doc.update(seed=-1, simulator=3)
    doc["edges"].append([99, 0, 0.5])
    path.write_text(json.dumps(doc))
    with pytest.raises(MapFormatError) as err:
        load_map(str(path))
    assert str(err.value) == (f"{path}: {message}; seed must be >= 0, got -1; "
                              "simulator must be a string, got 3")


@pytest.mark.parametrize("defect", ["every-q-bad", "no-edges", "every-name-bad"])
def test_a_long_problem_list_names_the_first_twenty(tmp_path, baseline_map, defect):
    path = tmp_path / "map.json"
    save_map(baseline_map, str(path))
    doc = json.loads(path.read_text())
    if defect == "every-q-bad":
        doc["edges"], n_problems = [[s, t, 1.5] for s, t, _ in doc["edges"]], len(doc["edges"])
    elif defect == "no-edges":  # every row sums to 0
        doc["edges"], n_problems = [], baseline_map.n_cells
    else:
        doc["spec"]["names_x"], n_problems = list(range(100)), 100
    path.write_text(json.dumps(doc))
    with pytest.raises(MapFormatError) as err:
        load_map(str(path))
    problems = str(err.value).split("; ")
    assert len(problems) == 21
    assert problems[-1] == f"and {n_problems - 20} more problems"


@pytest.mark.parametrize("n_rows", [0, 1, 3, 4])
def test_json_array_joins_rows_in_slices(monkeypatch, n_rows):
    monkeypatch.setattr(mapper, "ROW_SLICE", 3)
    rows = [[k, k / 3, {"k": str(k)}] for k in range(n_rows)]
    pieces = list(json_array(compact(row) for row in rows))
    assert "".join(pieces) == compact(rows)
    assert len(pieces) == 2 + math.ceil(n_rows / 3)  # "[", the slices, "]"


def test_json_array_of_no_rows_is_empty():
    assert "".join(json_array([])) == "[]"


def test_write_json_pulls_the_next_field_once_the_last_is_written(tmp_path):
    events = []

    def rows():
        for k in range(3):
            events.append(f"row {k}")
            yield str(k)

    def fields():
        yield "a", json_array(rows())
        events.append("pulled b")
        yield "b", {"y": 1, "x": [2.5]}

    path = tmp_path / "doc.json"
    write_json(str(path), fields())
    assert events == ["row 0", "row 1", "row 2", "pulled b"]
    assert path.read_text() == '{"a":[0,1,2],"b":{"x":[2.5],"y":1}}\n'


@pytest.mark.parametrize("fields", [[("b", 1), ("a", 2)], [("a", 1), ("a", 2)]],
                         ids=["descending", "repeated"])
def test_write_json_rejects_keys_out_of_order(tmp_path, fields):
    with pytest.raises(ValueError, match="keys must ascend"):
        write_json(str(tmp_path / "doc.json"), fields)


def test_simulator_params_saved_only_when_given(tmp_path):
    spec = line_spec(4)
    path = tmp_path / "map.json"
    save_map(TransitionMap.from_edges(spec, {s: [(s, 1.0)] for s in range(4)}), str(path))
    assert "simulator_params" not in json.loads(path.read_text())
    assert load_map(str(path)).simulator_params == {}
    # build_map records the model's simulator_params beside its name.
    model = LinearDriftModel([0.5])
    tmap = build_map(model, spec, identity_config(), dt=1.0, samples=4)
    assert tmap.simulator_params == model.simulator_params
    assert tmap.simulator_params is not model.simulator_params
    save_map(tmap, str(path))
    doc = json.loads(path.read_text())
    assert (doc["simulator"], doc["simulator_params"]) == ("linear-drift", {"velocity": [0.5]})
    assert load_map(str(path)).simulator_params == {"velocity": [0.5]}
