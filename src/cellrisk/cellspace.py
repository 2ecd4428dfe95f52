"""Discretized hybrid state space: cells, coordinates, flat ids, sampling.

The complete space is the cross product of a uniformly partitioned box in
R^L (one interval per continuous dimension) and the finite configuration
space of M components. A cell is one box element paired with one
configuration vector. Indices are 1-based in coordinates, 0-based in the
flat id encoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "EXTERIOR_ID",
    "CellCoord",
    "SpaceSpecError",
    "SpaceSpec",
    "SpecMismatchError",
    "bin_points",
    "bounds_of",
    "cell_boxes",
    "coord_to_id",
    "id_to_coord",
    "sample_cell_array",
]

CELL_CAP = 10_000_000


class SpaceSpecError(ValueError):
    """Raised when a space specification violates its invariants."""


class SpecMismatchError(ValueError):
    """Raised when a point, coordinate or id does not belong to the spec."""


# Names the exterior sink, states outside the bounds, in flow rows, edge lists and files.
EXTERIOR_ID = -1


@dataclass(frozen=True)
class SpaceSpec:
    """Geometry of the discretization.

    upper/lower bound the continuous box, partitions gives the interval
    count per continuous dimension, states the state count per component.
    """

    names_x: tuple[str, ...]
    names_n: tuple[str, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    partitions: tuple[int, ...]
    states: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "names_x", tuple(self.names_x))
        object.__setattr__(self, "names_n", tuple(self.names_n))
        object.__setattr__(self, "lower", tuple(float(v) for v in self.lower))
        object.__setattr__(self, "upper", tuple(float(v) for v in self.upper))
        object.__setattr__(self, "partitions", tuple(int(v) for v in self.partitions))
        object.__setattr__(self, "states", tuple(int(v) for v in self.states))
        L = len(self.lower)
        if not (len(self.upper) == len(self.partitions) == len(self.names_x) == L):
            raise SpaceSpecError("continuous field lengths disagree")
        if len(self.names_n) != len(self.states):
            raise SpaceSpecError("component field lengths disagree")
        for l in range(L):
            if not (math.isfinite(self.lower[l]) and math.isfinite(self.upper[l])):
                raise SpaceSpecError(f"non-finite bound in dimension {l}")
            if not self.lower[l] < self.upper[l]:
                raise SpaceSpecError(
                    f"dimension {l}: lower bound {self.lower[l]} must be < upper {self.upper[l]}"
                )
            if self.partitions[l] < 1:
                raise SpaceSpecError(f"dimension {l}: partition count must be >= 1")
        for m, n_m in enumerate(self.states):
            if n_m < 1:
                raise SpaceSpecError(f"component {m}: state count must be >= 1")
        if self.total_cells > CELL_CAP:
            raise SpaceSpecError(f"total cell count {self.total_cells} exceeds cap {CELL_CAP}")

    @property
    def L(self) -> int:
        return len(self.lower)

    @property
    def M(self) -> int:
        return len(self.states)

    @property
    def widths(self) -> tuple[float, ...]:
        return tuple(
            (self.upper[l] - self.lower[l]) / self.partitions[l] for l in range(self.L)
        )

    @property
    def total_continuous_cells(self) -> int:
        return math.prod(self.partitions)

    @property
    def total_configs(self) -> int:
        return math.prod(self.states)

    @property
    def total_cells(self) -> int:
        return self.total_continuous_cells * self.total_configs

    def radices(self) -> tuple[int, ...]:
        """Mixed-radix digits, dimension 1 fastest-varying, components last."""
        return self.partitions + self.states

    def validate_config(self, n: tuple[int, ...]) -> None:
        if len(n) != self.M:
            raise SpecMismatchError(f"configuration length {len(n)} != M={self.M}")
        for m, n_m in enumerate(n):
            if not 1 <= n_m <= self.states[m]:
                raise SpecMismatchError(
                    f"component {m}: state {n_m} outside 1..{self.states[m]}"
                )


@dataclass(frozen=True)
class CellCoord:
    """1-based cell coordinate: continuous part j, configuration part n."""

    j: tuple[int, ...]
    n: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "j", tuple(int(v) for v in self.j))
        object.__setattr__(self, "n", tuple(int(v) for v in self.n))

    def validate(self, spec: SpaceSpec) -> None:
        if len(self.j) != spec.L:
            raise SpecMismatchError(f"coordinate has {len(self.j)} dims, spec has {spec.L}")
        for l, j_l in enumerate(self.j):
            if not 1 <= j_l <= spec.partitions[l]:
                raise SpecMismatchError(
                    f"dimension {l}: index {j_l} outside 1..{spec.partitions[l]}"
                )
        spec.validate_config(self.n)

    def as_vector(self) -> tuple[int, ...]:
        return self.j + self.n

    @cached_property
    def label(self) -> str:
        """'[j.. n..]', the cell as rendered paths, graphs and text exports show it.

        Built on first use and kept, so coordinates shared between the nodes
        of one cell build it once.
        """
        return f"[{' '.join(map(str, self.as_vector()))}]"


def bin_points(xs: np.ndarray, spec: SpaceSpec) -> np.ndarray:
    """Flat continuous index of every row of an (N, L) array of states.

    Dimension 1 is fastest-varying; a row outside the box gets
    total_continuous_cells, the exterior. Boxes are half-open below and open
    above except the top interval of each dimension, which is closed so the
    upper bound itself is representable. Only the dimensions split into more
    than one interval are floored: a one-interval dimension adds 0 to every
    index.
    """
    xs = np.asarray(xs)
    inside = np.ones(len(xs), dtype=bool)
    for l, (lo, hi) in enumerate(zip(spec.lower, spec.upper)):
        inside &= (xs[:, l] >= lo) & (xs[:, l] <= hi)
    split = [l for l, k in enumerate(spec.partitions) if k > 1]
    lower, widths = np.array(spec.lower)[split], np.array(spec.widths)[split]
    idx = np.floor((xs[:, split] - lower) / widths).astype(np.int64)
    # Clipping closes the top interval (rows outside are replaced below).
    dims = np.array(spec.partitions)[split]
    flat = np.ravel_multi_index(idx.T, dims, mode="clip", order="F") if split else 0
    return np.where(inside, flat, spec.total_continuous_cells)


def cell_boxes(j, spec: SpaceSpec) -> tuple[np.ndarray, np.ndarray]:
    """Boxes of cells as (lower, upper) arrays from their 1-based continuous
    digits j, elementwise: one vector for one cell, one row per cell of a (K, L) array."""
    w = np.array(spec.widths)
    lo = np.array(spec.lower) + (np.asarray(j) - 1) * w
    return lo, lo + w


def bounds_of(cell: CellCoord, spec: SpaceSpec) -> tuple[np.ndarray, np.ndarray]:
    """Box of a cell as (lower, upper) vectors; volume is prod(upper - lower)."""
    cell.validate(spec)
    return cell_boxes(cell.j, spec)


def sample_cell_array(
    cell: CellCoord, spec: SpaceSpec, count: int,
    seed: int | np.random.SeedSequence | np.random.Generator,
) -> np.ndarray:
    """Uniform points from the cell box as a (count, L) array; a Generator is drawn from as is."""
    if count < 1:
        raise ValueError("count must be >= 1")
    lo, hi = bounds_of(cell, spec)
    rng = np.random.default_rng(seed)
    return lo + rng.random((count, spec.L)) * (hi - lo)


def coord_to_id(coord: CellCoord, spec: SpaceSpec) -> int:
    """Flatten a coordinate to 0-based id over spec.radices(), dimension 1 fastest-varying."""
    coord.validate(spec)
    return int(np.ravel_multi_index([v - 1 for v in coord.as_vector()], spec.radices(), order="F"))


def id_to_coord(cid: int, spec: SpaceSpec) -> CellCoord:
    """Inverse of coord_to_id."""
    if not 0 <= cid < spec.total_cells:
        raise SpecMismatchError(f"id {cid} outside 0..{spec.total_cells - 1}")
    digits = [int(d) + 1 for d in np.unravel_index(cid, spec.radices(), order="F")]
    return CellCoord(tuple(digits[: spec.L]), tuple(digits[spec.L :]))
