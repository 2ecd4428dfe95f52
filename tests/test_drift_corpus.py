"""Known answers for linear drift: exact maps of any order and the continuous first passage.

exact_drift_map gives the rows a sampled map of LinearDriftModel estimates,
with no sampling noise, exact_drift_row the rows of a map with memory (the
next cell after a history of m cells), and drift_first_passage the event
probability those rows should reproduce; the gap between the two is the
order-m map's own discretization error.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _synthetic import drift_first_passage, exact_drift_map, exact_drift_row, line_spec
from conftest import SUITE_SEED
from cellrisk.cellspace import EXTERIOR_ID, SpaceSpec
from cellrisk.configuration import ComponentMatrix, ConfigTransitionModel
from cellrisk.mapper import ROW_SUM_TOL, TransitionMap, _off_rows, build_map, forward_step
from cellrisk.run import LinearDriftModel

# Two dimensions of half-unit cells, so a unit velocity shifts by two cells.
PLANE = SpaceSpec(("x", "y"), ("c",), (0.0, 0.0), (3.0, 2.0), (6, 4), (2,))


def _kept(spec: SpaceSpec) -> ConfigTransitionModel:
    """Every configuration kept, as exact_drift_map keeps it."""
    return ConfigTransitionModel(tuple(ComponentMatrix(m, np.eye(k))
                                       for m, k in enumerate(spec.states)))


@pytest.mark.parametrize("spec, velocity, dt", [
    (line_spec(10), [0.37], 1.0),
    (line_spec(10), [-0.73], 2.0),
    (line_spec(8, width=0.5, states=3), [1.1], 0.5),
    (PLANE, [0.3, -0.45], 1.0),
    (PLANE, [-1.26, 0.8], 2.0 / 3.0),
])
def test_exact_drift_maps_pass_the_row_checks(spec, velocity, dt):
    tmap = exact_drift_map(spec, velocity, dt)   # from_edges refuses a row off one
    assert _off_rows(tmap.matrix) is None
    rows = tmap.rows()
    assert sorted(rows) == list(range(spec.total_cells))
    n_j = spec.total_continuous_cells
    for source, row in rows.items():
        assert all(0.0 < q <= 1.0 for _, q in row)
        # At most two cells per dimension, and only in the source's configuration.
        assert len(row) <= 2 ** spec.L
        assert all(t == EXTERIOR_ID or t // n_j == source // n_j for t, _ in row)


def test_exact_drift_row_is_the_overlap_fractions():
    rows = exact_drift_map(line_spec(4), [0.25], 1.0).rows()
    assert rows[0] == [(0, 0.75), (1, 0.25)]
    assert rows[3] == [(EXTERIOR_ID, 0.25), (3, 0.75)]
    # Backwards by 1.5 cells of width 0.5: digits i - 2 and i - 1, half each.
    rows = exact_drift_map(line_spec(4, width=0.5), [-0.75], 1.0).rows()
    assert rows[0] == [(EXTERIOR_ID, 1.0)]
    assert rows[1] == [(EXTERIOR_ID, 0.5), (0, 0.5)]
    assert rows[3] == [(1, 0.5), (2, 0.5)]


@pytest.mark.parametrize("spec, velocity", [
    # Criterion 7's whole-cell drifts, configurations kept.
    (line_spec(10, states=2), [1.0]),
    (line_spec(12), [2.0]),
    (line_spec(8, states=2), [1.0]),
    # Whole cells backwards and off the grid on both sides, in two dimensions.
    (line_spec(6), [-3.0]),
    (PLANE, [1.0, -0.5]),
])
def test_exact_drift_map_equals_the_built_map_at_whole_cell_shifts(spec, velocity):
    built = build_map(LinearDriftModel(velocity), spec, _kept(spec), dt=1.0, samples=200,
                      seed=SUITE_SEED)
    assert built.rows() == exact_drift_map(spec, velocity, 1.0).rows()


def _map_first_passage(tmap: TransitionMap, event: list[int], start: int, steps: int):
    """P(an event cell by step k), k = 1..steps, from one start cell, the event cells absorbing."""
    rows = tmap.rows() | {e: [(e, 1.0)] for e in event}
    absorbing = TransitionMap.from_edges(tmap.spec, rows)
    dist = np.zeros(tmap.n_cells + 1)
    dist[start] = 1.0
    out = []
    for _ in range(steps):
        dist = forward_step(absorbing, dist)
        out.append(float(dist[event].sum()))
    return np.array(out)


@pytest.mark.parametrize("velocity, error", [(0.37, 0.444), (0.73, 0.413)])
def test_first_order_first_passage_error(velocity, error):
    # Unit cells, the start uniform in cell 0 and the event 40 cells away. The
    # map's passage time is a sum of Bernoulli steps (the first-order upwind
    # scheme), whose spread grows as the square root of k; the drift's is one
    # cell's crossing time.
    steps = 200
    exact = drift_first_passage(velocity, 1.0, (40.0, 41.0), (0.0, 1.0), steps)
    assert exact[0] == 0.0 and exact[-1] == 1.0
    assert np.all(np.diff(exact) >= 0.0)
    cell_map = _map_first_passage(exact_drift_map(line_spec(41), [velocity], 1.0), [40], 0,
                                  steps)
    assert np.max(np.abs(cell_map - exact)) == pytest.approx(error, abs=5e-4)


def _histories(spec: SpaceSpec, velocity, dt: float, order: int):
    """Every history of 1 to order cells a drifting point can follow, from each start
    cell, with its row: each history's row gives the next cells its extensions take."""
    todo = [(cell,) for cell in range(spec.total_cells)]
    while todo:
        history = todo.pop()
        row = exact_drift_row(spec, velocity, dt, history)
        yield history, row
        if len(history) < order:
            todo += [history + (t,) for t, _ in row if t != EXTERIOR_ID]


@pytest.mark.parametrize("spec, velocity, dt", [
    (line_spec(10), [0.37], 1.0),
    (line_spec(8, width=0.5, states=3), [1.1], 0.5),
    (PLANE, [0.3, -0.45], 1.0),
    (PLANE, [-1.26, 0.8], 2.0 / 3.0),
])
def test_order_m_rows_are_rows(spec, velocity, dt):
    n_j = spec.total_continuous_cells
    for history, row in _histories(spec, velocity, dt, order=3):
        assert abs(sum(q for _, q in row) - 1.0) < ROW_SUM_TOL
        assert all(0.0 < q <= 1.0 for _, q in row)
        assert all(t == EXTERIOR_ID or t // n_j == history[0] // n_j for t, _ in row)
    # A one-cell history's row is the first-order map's.
    rows = exact_drift_map(spec, velocity, dt).rows()
    assert all(exact_drift_row(spec, velocity, dt, (s,)) == rows[s] for s in rows)


@pytest.mark.parametrize("spec, velocity", [(line_spec(12), [2.0]), (PLANE, [1.0, -0.5])])
def test_order_m_rows_at_whole_cell_shifts_forget_the_history(spec, velocity):
    # A whole-cell shift keeps each point's offset in its cell, so the history tells nothing.
    rows = exact_drift_map(spec, velocity, 1.0).rows()
    for history, row in _histories(spec, velocity, 1.0, order=3):
        assert row == rows[history[-1]]


def _order_m_first_passage(velocity: float, order: int, event: int, steps: int) -> np.ndarray:
    """P(cell event by step k), k = 1..steps, for the exact order-m chain on unit cells
    0..event from uniform in cell 0: the first m - 1 steps on the shorter exact
    histories, then on the last m cells."""
    spec, rows = line_spec(event + 1), {}
    mass, reached, out = {(0,): 1.0}, 0.0, []
    for _ in range(steps):
        after: dict[tuple[int, ...], float] = {}
        for history, p in mass.items():
            if history not in rows:
                rows[history] = exact_drift_row(spec, [velocity], 1.0, history)
            for target, q in rows[history]:
                if target == event:
                    reached += p * q
                elif target != EXTERIOR_ID:
                    key = (history + (target,))[-order:]
                    after[key] = after.get(key, 0.0) + p * q
        mass = after
        out.append(reached)
    return np.array(out)


@pytest.mark.parametrize("velocity, errors", [(0.37, (0.444, 0.408, 0.309)),
                                              (0.73, (0.413, 0.391, 0.302))])
def test_order_m_first_passage_error(velocity, errors):
    # As above: unit cells, the event 40 cells away, k <= 200. Memory narrows the
    # passage time's spread, one order at a time.
    exact = drift_first_passage(velocity, 1.0, (40.0, 41.0), (0.0, 1.0), 200)
    got = [float(np.max(np.abs(_order_m_first_passage(velocity, m, 40, 200) - exact)))
           for m in (1, 2, 3)]
    assert got == pytest.approx(errors, abs=1e-3)
    # The order-1 chain is the first-order map's.
    cell_map = _map_first_passage(exact_drift_map(line_spec(41), [velocity], 1.0), [40], 0, 200)
    assert np.allclose(_order_m_first_passage(velocity, 1, 40, 200), cell_map, rtol=0.0,
                       atol=1e-12)


@pytest.mark.parametrize("order", [2, 3])
def test_order_m_first_passage_is_exact_at_half_a_cell_per_step(order):
    # Past its first step a point's cell pair fixes which half of its cell it is in.
    exact = drift_first_passage(0.5, 1.0, (40.0, 41.0), (0.0, 1.0), 200)
    assert np.max(np.abs(_order_m_first_passage(0.5, order, 40, 200) - exact)) < 1e-12


def test_drift_first_passage_is_the_crossing_time():
    # x_0 uniform on [0, 1) reaches (40, 41) at the first k with x_0 + v*k > 40.
    v = 0.37
    k = np.arange(1, 201)
    assert np.allclose(drift_first_passage(v, 1.0, (40.0, 41.0), (0.0, 1.0), 200),
                       np.clip(v * k - 39.0, 0.0, 1.0), rtol=0.0, atol=1e-12)
    # A drift that steps over a narrow event never enters it.
    assert not drift_first_passage(3.0, 1.0, (10.0, 11.0), (0.5, 1.0), 20).any()


# The mean total variation of a sampled row from the exact one, over the
# rows, is held under this multiple of the mean multinomial bound
# 1/2 * sum(sqrt(p * (1 - p) / n)) over the exact row's entries. The
# expected ratio is about 0.8; over 6,000 random draws of this test's
# velocities and seeds it reached 1.30.
TV_FACTOR = 2.0


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=2), st.integers(0, 2**16))
def test_built_rows_approach_the_exact_rows(velocity, seed):
    spec = PLANE
    exact = exact_drift_map(spec, velocity, 1.0).rows()
    for samples in (100, 1000):
        built = build_map(LinearDriftModel(velocity), spec, _kept(spec), dt=1.0,
                          samples=samples, seed=seed).rows()
        tv, bound = [], []
        for source, row in exact.items():
            p, p_hat = dict(row), dict(built[source])
            tv.append(0.5 * sum(abs(p.get(t, 0.0) - p_hat.get(t, 0.0)) for t in p.keys() | p_hat))
            bound.append(0.5 * sum(np.sqrt(q * (1.0 - q)) for q in p.values()) / np.sqrt(samples))
        assert np.mean(tv) <= TV_FACTOR * np.mean(bound)
