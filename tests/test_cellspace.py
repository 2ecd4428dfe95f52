from __future__ import annotations

import math

import numpy as np
import pytest

from cellrisk.cellspace import (
    EXTERIOR_ID,
    CellCoord,
    SpaceSpec,
    SpaceSpecError,
    SpecMismatchError,
    bin_points,
    bounds_of,
    coord_to_id,
    id_to_coord,
    sample_cell_array,
)

PI = math.pi


def cells_of(xs, n, spec: SpaceSpec) -> list:
    """The cell of every row of xs under configuration n, or EXTERIOR_ID: bin_points, then
    id_to_coord of the continuous index."""
    return [EXTERIOR_ID if j == spec.total_continuous_cells else CellCoord(id_to_coord(j, spec).j, n)
            for j in bin_points(np.atleast_2d(xs), spec).tolist()]


def agv_spec() -> SpaceSpec:
    return SpaceSpec(
        names_x=("Fwd Vel.", "Side Vel.", "Yaw Rate", "x-Pos", "y-Pos", "Yaw"),
        names_n=("Brake State",),
        lower=(0.0, -5.0, -0.5, 0.0, -6.0, -PI / 3),
        upper=(20.0, 5.0, 0.5, 600.0, 6.0, PI / 3),
        partitions=(5, 1, 1, 150, 1, 1),
        states=(3,),
    )


def tiny_spec() -> SpaceSpec:
    return SpaceSpec(
        names_x=("a", "b"),
        names_n=("c",),
        lower=(0.0, -1.0),
        upper=(3.0, 1.0),
        partitions=(3, 2),
        states=(2,),
    )


def scan_interval(lo: float, hi: float, parts: int, x: float) -> int:
    """Brute-force interval membership: check every partition box."""
    w = (hi - lo) / parts
    for j in range(1, parts + 1):
        a = lo + (j - 1) * w
        b = a + w
        if (a <= x < b) or (j == parts and x == hi):
            return j
    raise AssertionError(f"{x} not in any interval of [{lo}, {hi}] / {parts}")


def test_cell_of_agv_example():
    spec = agv_spec()
    x = [12.0, 0.0, 0.0, 488.0, 0.0, 0.0]
    (got,) = cells_of(np.array(x), (1,), spec)
    # Independent oracle: scan every interval in each dimension.
    expected = tuple(
        scan_interval(spec.lower[l], spec.upper[l], spec.partitions[l], x[l])
        for l in range(spec.L)
    )
    assert expected == (4, 1, 1, 123, 1, 1)
    assert got == CellCoord(expected, (1,))


def test_cell_of_lower_corner():
    spec = tiny_spec()
    assert cells_of(np.array(spec.lower), (1,), spec) == [CellCoord((1, 1), (1,))]


def test_cell_of_upper_bound_maps_to_top_cell():
    spec = tiny_spec()
    assert cells_of(np.array(spec.upper), (2,), spec) == [CellCoord((3, 2), (2,))]


def test_cell_of_out_of_bounds_is_exterior():
    spec = agv_spec()
    (got,) = cells_of(np.array([25.0, 0.0, 0.0, 100.0, 0.0, 0.0]), (1,), spec)
    assert got == EXTERIOR_ID


def test_bounds_of_examples():
    spec = agv_spec()
    lo, hi = bounds_of(CellCoord((4, 1, 1, 1, 1, 1), (1,)), spec)
    assert lo[0] == 12.0 and hi[0] == 16.0

    lo, hi = bounds_of(CellCoord((1, 1, 1, 126, 1, 1), (1,)), spec)
    assert lo[3] == 500.0 and hi[3] == 504.0
    # Cross-check: the box lower corner falls back into the same cell.
    (inside,) = cells_of(np.array([0.0, -5.0, -0.5, 500.0, -6.0, -PI / 3]), (1,), spec)
    assert inside.j[3] == 126

    spec2 = tiny_spec()
    lo, hi = bounds_of(CellCoord((1, 1), (1,)), spec2)
    assert np.allclose(lo, spec2.lower)
    assert np.allclose(hi, np.array(spec2.lower) + np.array(spec2.widths))


def test_sample_cell_containment_and_config():
    spec = agv_spec()
    cell = CellCoord((4, 1, 1, 123, 1, 1), (2,))
    xs = sample_cell_array(cell, spec, 1000, seed=5)
    assert xs.shape == (1000, spec.L)
    assert cells_of(xs, cell.n, spec) == [cell] * 1000


def test_sample_cell_deterministic():
    spec = tiny_spec()
    cell = CellCoord((2, 1), (1,))
    a = sample_cell_array(cell, spec, 50, seed=7)
    b = sample_cell_array(cell, spec, 50, seed=7)
    assert np.array_equal(a, b)


def test_sample_cell_means_match_uniform_moments():
    spec = agv_spec()
    cell = CellCoord((4, 1, 1, 123, 1, 1), (1,))
    lo, hi = bounds_of(cell, spec)
    count = 10_000
    xs = sample_cell_array(cell, spec, count, seed=11)
    mid = (lo + hi) / 2
    se = (hi - lo) / math.sqrt(12.0) / math.sqrt(count)
    assert np.all(np.abs(xs.mean(axis=0) - mid) <= 3 * se)


def test_ids_origin_and_total():
    spec = agv_spec()
    origin = CellCoord((1, 1, 1, 1, 1, 1), (1,))
    assert coord_to_id(origin, spec) == 0
    assert spec.total_cells == 5 * 1 * 1 * 150 * 1 * 1 * 3 == 2250


def test_ids_exhaustive_round_trip():
    spec = tiny_spec()  # 3 x 2 x 2 = 12 cells
    assert spec.total_cells == 12
    seen = set()
    for cid in range(spec.total_cells):
        coord = id_to_coord(cid, spec)
        assert coord_to_id(coord, spec) == cid
        seen.add(coord.as_vector())
    assert len(seen) == 12


def test_ids_range_error():
    spec = tiny_spec()
    with pytest.raises(SpecMismatchError):
        id_to_coord(spec.total_cells, spec)
    with pytest.raises(SpecMismatchError):
        id_to_coord(-1, spec)


def test_partition_cover_unique_membership():
    spec = tiny_spec()
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = np.array(spec.lower) + rng.random(2) * (
            np.array(spec.upper) - np.array(spec.lower)
        )
        # Count membership by scanning all boxes.
        hits = []
        for cid in range(spec.total_continuous_cells):
            coord = id_to_coord(cid, spec)  # configs share geometry; n = (1,)
            if coord.n != (1,):
                continue
            lo, hi = bounds_of(coord, spec)
            inside = all(
                (lo[l] <= x[l] < hi[l])
                or (coord.j[l] == spec.partitions[l] and x[l] == hi[l])
                for l in range(spec.L)
            )
            if inside:
                hits.append(coord.j)
        assert len(hits) == 1
        assert cells_of(x, (1,), spec)[0].j == hits[0]


def test_volume_conservation():
    spec = tiny_spec()
    total = 0.0
    for cid in range(spec.total_cells):
        coord = id_to_coord(cid, spec)
        if coord.n != (1,):
            continue
        lo, hi = bounds_of(coord, spec)
        total += float(np.prod(hi - lo))
    box = math.prod(u - l for u, l in zip(spec.upper, spec.lower))
    assert abs(total - box) / box <= 1e-9


def test_midpoint_round_trip_exhaustive():
    spec = tiny_spec()
    for cid in range(spec.total_cells):
        coord = id_to_coord(cid, spec)
        lo, hi = bounds_of(coord, spec)
        assert cells_of((lo + hi) / 2, coord.n, spec) == [coord]


def test_spec_invariant_rejections():
    with pytest.raises(SpaceSpecError):
        SpaceSpec(("a",), ("c",), (1.0,), (0.0,), (2,), (1,))  # lower >= upper
    with pytest.raises(SpaceSpecError):
        SpaceSpec(("a",), ("c",), (0.0,), (1.0,), (0,), (1,))  # partitions < 1
    with pytest.raises(SpaceSpecError):
        SpaceSpec(("a",), ("c",), (0.0,), (1.0,), (2,), (0,))  # states < 1
    with pytest.raises(SpaceSpecError):
        SpaceSpec(("a",), ("c",), (0.0,), (1.0,), (10**9,), (10,))
