"""Single-step transition map construction over a pluggable simulator.

For every source cell the continuous flow is estimated by equal-weight
quadrature: points are sampled uniformly from the cell box, stepped through
the simulator under the source configuration, and binned by target cell.
The joint edge probability is the product of that flow term and the
configuration jump probability. The map is one sparse row-stochastic
matrix, held as plain CSR arrays, whose last row and column are the
absorbing exterior sink; its transpose, ordered for backtracking, answers
predecessor queries.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .cellspace import (
    EXTERIOR_ID,
    CellCoord,
    SpaceSpec,
    bin_points,
    coord_to_id,
    id_to_coord,
    sample_cell_array,
)
from .configuration import ROW_SUM_TOL, ConfigTransitionModel, validate as validate_config

__all__ = [
    "CSR",
    "BuildError",
    "BudgetError",
    "DynamicsModel",
    "MapFormatError",
    "TransitionMap",
    "build_map",
    "estimate_g",
    "forward_step",
    "load_map",
    "predecessors",
    "save_map",
]

DEFAULT_SAMPLES_PER_CELL = 200
DEFAULT_SAMPLE_BUDGET = 100_000_000
BLOCK_ROWS = 5_000  # simulator rows per step_many call; bounds build memory

MAP_FORMAT = "cellrisk-transition-map"
MAP_FORMAT_VERSION = 1


class BuildError(RuntimeError):
    """Raised when the simulator produces unusable states during a build."""


class BudgetError(RuntimeError):
    """Raised when a build or search would exceed its configured budget."""


class MapFormatError(ValueError):
    """Raised when a persisted map file cannot be parsed or fails checks."""


class DynamicsModel:
    """One-step deterministic dynamics under a fixed configuration.

    A simulator implements step_many, which advances an (N, L) batch of
    states. It must be a pure function of its arguments and treat rows
    independently, bit for bit: the map build and the oracle step rows in
    batches of whatever size suits them. Any stochastic disturbance belongs
    in the sampled initial points, not in here.
    """

    name = "unnamed"

    def step_many(self, xs: np.ndarray, n: tuple[int, ...], dt: float) -> np.ndarray:
        raise NotImplementedError

    def step(self, x: np.ndarray, n: tuple[int, ...], dt: float) -> np.ndarray:
        """One state stepped as a one-row batch."""
        return self.step_many(np.asarray(x, dtype=float)[None, :], n, dt)[0]


class CSR(NamedTuple):
    """Compressed sparse rows: row r holds indices/data[indptr[r]:indptr[r + 1]].

    Within a row the column indices ascend.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def row_ids(self) -> np.ndarray:
        """The row of every stored entry, in storage order."""
        return np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))


@dataclass(eq=False)
class TransitionMap:
    """Sparse single-step map held as one (C+1) x (C+1) CSR matrix.

    Row s holds the q > 0 edges out of source cell s; the last row and
    column are the exterior sink, whose row is its absorbing self-loop. The
    predecessor index is derived once from the matrix: its transpose over
    the C cells, each row ordered by descending q then ascending source id.
    The fields before the matrix record its build and are its file's header (_MAP_FIELDS).
    """

    spec: SpaceSpec
    dt: float
    samples_per_cell: int
    seed: int
    simulator: str
    simulator_params: dict
    matrix: CSR
    predecessor_index: CSR = field(init=False, repr=False)

    def __post_init__(self) -> None:
        C = self.n_cells
        src, col, q = self.matrix.row_ids(), self.matrix.indices, self.matrix.data
        inner = (src < C) & (col < C)
        src, col, q = src[inner], col[inner], q[inner]
        order = np.lexsort((src, -q, col))
        self.predecessor_index = CSR(_indptr(col, C), src[order], q[order])

    @property
    def n_cells(self) -> int:
        return self.spec.total_cells

    @property
    def n_edges(self) -> int:
        return len(self.matrix.data) - 1  # the exterior's self-loop is implicit

    def exterior_mass(self, source: int) -> float:
        # The exterior is the highest column, so it ends its row when present.
        end = self.matrix.indptr[source + 1] - 1
        hit = end >= self.matrix.indptr[source] and self.matrix.indices[end] == self.n_cells
        return float(self.matrix.data[end]) if hit else 0.0

    def total_exterior_mass(self) -> float:
        # cumsum adds one term at a time in source order, as a plain loop would.
        C = self.n_cells
        cells = slice(0, self.matrix.indptr[C])
        exterior = self.matrix.data[cells][self.matrix.indices[cells] == C]
        return float(np.cumsum(np.append(0.0, exterior))[-1])

    def row_sums(self) -> np.ndarray:
        """Outgoing mass of every source cell."""
        return _row_sums(self.matrix)

    def rows(self) -> dict[int, list[tuple[int, float]]]:
        """Every source's edges as (target id or EXTERIOR_ID, q), by target id."""
        out: dict[int, list[tuple[int, float]]] = {s: [] for s in range(self.n_cells)}
        for s, t, q in _edge_list(self.matrix):
            out[s].append((t, q))
        return out

    @classmethod
    def from_edges(
        cls,
        spec: SpaceSpec,
        edges: dict[int, list[tuple[int, float]]],
        dt: float = 1.0,
        samples_per_cell: int = 1,
        simulator: str = "analytic",
        seed: int = 0,
    ) -> TransitionMap:
        """Build a map from explicit edge lists, checked as load_map checks a file."""
        triples = [(s, t, q) for s, row in edges.items() for t, q in row]
        matrix = _edge_matrix(spec.total_cells, triples)
        return cls(spec, dt, samples_per_cell, seed, simulator, {}, matrix)


def _indptr(rows: np.ndarray, n_rows: int) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_rows))))


def _matrix(C: int, src: np.ndarray, col: np.ndarray, q: np.ndarray) -> CSR:
    """Canonical CSR from unique edges (column C is the exterior), plus its self-loop.

    Entries are sorted by source, then column: forward_step's sums rely on it.
    """
    src, col, q = np.append(src, C), np.append(col, C), np.append(q, 1.0)
    order = np.lexsort((col, src))
    return CSR(_indptr(src, C + 1), col[order], q[order])


def _row_sums(matrix: CSR) -> np.ndarray:
    """Outgoing mass of every source cell (every row but the exterior's)."""
    n_rows = len(matrix.indptr) - 1
    return np.bincount(matrix.row_ids(), weights=matrix.data, minlength=n_rows)[:-1]


def _first(mask: np.ndarray) -> int | None:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _off_row(matrix: CSR) -> str | None:
    """The first source whose outgoing mass is off one by more than ROW_SUM_TOL."""
    sums = _row_sums(matrix)
    k = _first(np.abs(sums - 1.0) > ROW_SUM_TOL)
    return None if k is None else f"source {k}: row sums to {float(sums[k])!r}"


def _edge_matrix(C: int, edges, check_rows: bool = True) -> CSR:
    """Checked matrix from [source, target, q] triples; EXTERIOR_ID marks the exterior.

    Raises MapFormatError for a malformed triple, an id out of range, q
    outside (0, 1], a duplicate (source, target) pair and, with check_rows,
    a source whose outgoing mass differs from one by more than ROW_SUM_TOL.
    """
    try:
        arr = np.asarray(edges, dtype=float) if len(edges) else np.zeros((0, 3))
        if arr.ndim != 2 or arr.shape[1] != 3 or np.any(arr[:, :2] != np.floor(arr[:, :2])):
            raise ValueError("need integer ids")
    except (TypeError, ValueError) as exc:
        raise MapFormatError(f"edges must be [source, target, q] triples: {exc}") from exc
    src, tgt, q = arr[:, 0].astype(np.int64), arr[:, 1].astype(np.int64), arr[:, 2]
    col = np.where(tgt == EXTERIOR_ID, C, tgt)
    dup = np.ones(len(src), dtype=bool)  # every repeat of a (source, target) pair
    dup[np.unique(src * (C + 1) + col, return_index=True)[1]] = False
    for bad, problem in (
        ((src < 0) | (src >= C), f"source id outside 0..{C - 1}"),
        ((tgt < EXTERIOR_ID) | (tgt >= C), f"target id outside 0..{C - 1} or {EXTERIOR_ID}"),
        (~((q > 0.0) & (q <= 1.0)), "q outside (0, 1]"),
        (dup, "duplicate (source, target) pair"),
    ):
        if (k := _first(bad)) is not None:
            raise MapFormatError(f"edge [{src[k]}, {tgt[k]}, {float(q[k])!r}]: {problem}")
    matrix = _matrix(C, src, col, q)
    if check_rows and (problem := _off_row(matrix)):
        raise MapFormatError(problem)
    return matrix


def _edge_list(matrix: CSR) -> list[tuple[int, int, float]]:
    """(source, target, q) triples by source, then target id with the exterior first."""
    C = len(matrix.indptr) - 2
    cells = slice(0, matrix.indptr[C])
    src, col = matrix.row_ids()[cells], matrix.indices[cells]
    tgt = np.where(col == C, EXTERIOR_ID, col)
    order = np.lexsort((tgt, src))
    return list(zip(src[order].tolist(), tgt[order].tolist(), matrix.data[cells][order].tolist()))


def _flow_counts(
    model: DynamicsModel, spec: SpaceSpec, dt: float, samples: int, seed: int, ids: range
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample, step and bin consecutive source cells sharing one configuration.

    Each source draws from its own stream, spawned from the build seed by its
    id. Returns (source id, flat target j, count) arrays sorted by source then
    target, where target total_continuous_cells stands for the exterior.
    """
    coords = [id_to_coord(s, spec) for s in ids]
    xs = np.concatenate([
        sample_cell_array(c, spec, samples, np.random.SeedSequence(entropy=seed, spawn_key=(s,)))
        for s, c in zip(ids, coords)
    ])
    ys = np.empty_like(xs)
    for i in range(0, len(xs), BLOCK_ROWS):  # every block under one configuration
        block = xs[i : i + BLOCK_ROWS]
        out = np.asarray(model.step_many(block, coords[0].n, dt), dtype=float)
        if out.shape != block.shape:
            raise BuildError(
                f"simulator returned shape {out.shape} for cell {coords[i // samples]}, "
                f"expected {block.shape}"
            )
        ys[i : i + BLOCK_ROWS] = out
    if (k := _first(~np.isfinite(ys).all(axis=1))) is not None:
        raise BuildError(
            f"simulator returned non-finite state from cell {coords[k // samples]} "
            f"(sample {k % samples}: {xs[k].tolist()} -> {ys[k].tolist()})"
        )

    n_j = spec.total_continuous_cells
    target = bin_points(ys, spec)
    keys, counts = np.unique(
        np.repeat(np.arange(len(ids)), samples) * (n_j + 1) + target, return_counts=True
    )
    return ids.start + keys // (n_j + 1), keys % (n_j + 1), counts


def estimate_g(
    source_cell: CellCoord,
    model: DynamicsModel,
    spec: SpaceSpec,
    dt: float,
    samples: int,
    seed: int,
) -> list[tuple[tuple[int, ...] | int, Fraction]]:
    """Equal-weight quadrature estimate of the continuous flow from one cell.

    Returns (target j-coordinate or EXTERIOR_ID, count/samples) pairs sorted by
    flattened target index with the exterior entry last; the fractions sum
    to exactly one.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    source_id = coord_to_id(source_cell, spec)
    _, targets, counts = _flow_counts(
        model, spec, dt, samples, seed, range(source_id, source_id + 1)
    )
    n_j = spec.total_continuous_cells  # flat target ids below n_j are j-digits
    return [
        (EXTERIOR_ID if t == n_j else id_to_coord(t, spec).j, Fraction(c, samples))
        for t, c in zip(targets.tolist(), counts.tolist())
    ]


def _jump_row(config_model: ConfigTransitionModel, n_prev: tuple[int, ...]) -> np.ndarray:
    """Jump probability n_prev -> n for every n, in flat configuration order.

    Entries are multiplied in component order, as h() folds them, bit for bit.
    """
    acc = np.ones(())
    for m in range(config_model.M):
        acc = np.multiply.outer(config_model.matrix_for(m)[n_prev[m] - 1], acc)
    return acc.ravel()  # component 1 fastest-varying


def _sweep(
    model: DynamicsModel,
    spec: SpaceSpec,
    config_model: ConfigTransitionModel,
    dt: float, samples: int, seed: int, start: int, stop: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge arrays (source, column, q) of sources start..stop-1 (worker unit).

    Column total_cells is the exterior sink, which absorbs whole trajectories
    whatever the configuration jump.
    """
    n_j, C = spec.total_continuous_cells, spec.total_cells
    per_block = max(1, BLOCK_ROWS // samples)
    parts = []
    s = start
    while s < stop:
        end = min(stop, s + per_block, (s // n_j + 1) * n_j)  # one configuration
        src, target, counts = _flow_counts(model, spec, dt, samples, seed, range(s, end))
        g, ext = counts / samples, target == n_j
        jump = _jump_row(config_model, id_to_coord(s, spec).n)
        q = np.multiply.outer(g[~ext], jump)
        col = target[~ext, None] + n_j * np.arange(jump.size)
        keep = q > 0.0
        parts.append((np.broadcast_to(src[~ext, None], q.shape)[keep], col[keep], q[keep]))
        parts.append((src[ext], np.full(int(ext.sum()), C), g[ext]))
        s = end
    return tuple(np.concatenate(a) for a in zip(*parts))


def build_map(
    model: DynamicsModel,
    spec: SpaceSpec,
    config_model: ConfigTransitionModel,
    dt: float,
    samples: int = DEFAULT_SAMPLES_PER_CELL,
    seed: int = 0,
    workers: int = 1,
    sample_budget: int = DEFAULT_SAMPLE_BUDGET,
) -> TransitionMap:
    """Sweep every source cell and assemble the joint transition map.

    Per-source random streams are derived from the build seed and source id,
    and stepping is row-wise, so results are identical for any worker count.
    """
    if dt <= 0 or samples < 1:
        raise ValueError("dt must be positive and samples >= 1")
    issues = validate_config(config_model)
    if issues:
        raise BuildError("configuration model invalid: " + "; ".join(issues))
    if config_model.sizes != spec.states:
        raise BuildError(
            f"configuration sizes {config_model.sizes} do not match spec states {spec.states}"
        )
    C = spec.total_cells
    if C * samples > sample_budget:
        raise BudgetError(
            f"{C} cells x {samples} samples = {C * samples} simulations "
            f"exceeds budget {sample_budget}"
        )

    args = (model, spec, config_model, dt, samples, seed)
    if workers <= 1:
        parts = [_sweep(*args, 0, C)]
    else:
        # Imported here: multiprocessing costs every command start-up otherwise.
        from concurrent.futures import ProcessPoolExecutor

        chunk = math.ceil(C / workers)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_sweep, *args, lo, min(lo + chunk, C))
                       for lo in range(0, C, chunk)]
            parts = [f.result() for f in futures]
    matrix = _matrix(C, *(np.concatenate(a) for a in zip(*parts)))
    if problem := _off_row(matrix):
        raise BuildError(problem)
    return TransitionMap(spec, dt, samples, seed, model.name, {}, matrix)


def forward_step(tmap: TransitionMap, distribution: np.ndarray) -> np.ndarray:
    """Push a distribution one step forward; exterior (last entry) absorbs.

    Accepts a vector over cells, or cells plus exterior; always returns the
    cells-plus-exterior form.
    """
    C = tmap.n_cells
    dist = np.asarray(distribution, dtype=float)
    if dist.shape == (C,):
        dist = np.concatenate([dist, [0.0]])
    elif dist.shape != (C + 1,):
        raise ValueError(f"distribution must have length {C} or {C + 1}")
    total = float(dist.sum())
    if abs(total - 1.0) > ROW_SUM_TOL:
        raise ValueError(f"distribution sums to {total!r}, expected 1")
    # Edges are stored by source, so each target adds up its sources in
    # ascending order, as a CSR vector-matrix product does.
    m = tmap.matrix
    return np.bincount(m.indices, weights=dist[m.row_ids()] * m.data, minlength=C + 1)


def predecessors(tmap: TransitionMap, target: int) -> list[tuple[int, float]]:
    """Sources with stored edges into a target cell, descending q.

    Ties break by ascending source id; an empty list means no inbound flow.
    """
    index = tmap.predecessor_index
    if not 0 <= target < tmap.n_cells:
        raise ValueError(f"target id {target} outside 0..{tmap.n_cells - 1}")
    lo, hi = index.indptr[target], index.indptr[target + 1]
    return list(zip(index.indices[lo:hi].tolist(), index.data[lo:hi].tolist()))


def _is(value, kind) -> bool:
    """isinstance, except that a JSON boolean is no number."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _of(kind, low=None, high=None):
    """Test of a value of kind (see _is) in [low, high); a bound of None is no bound."""
    return lambda v: _is(v, kind) and (low is None or v >= low) and (high is None or v < high)


def _list_of(test):
    return lambda v: isinstance(v, list) and all(map(test, v))


def _check_fields(doc: dict, fields, where: str = "") -> None:
    """Raise ValueError for the first of fields (dotted key, test, what it must
    be) that doc lacks or whose value fails its test, naming the field."""
    for key, test, noun in fields:
        value = doc
        for part in key.split("."):
            if part not in value:
                raise ValueError(f"{where}missing field {key!r}")
            value = value[part]
        if not test(value):
            raise ValueError(f"{where}{key} must be {noun}, got {value!r}")


# The map file's header, which save_map writes and load_map checks, key by key.
_MAP_FIELDS = (
    ("spec", _of(dict), "an object"),
    ("spec.names_x", _list_of(_of(str)), "a list of strings"),
    ("spec.names_n", _list_of(_of(str)), "a list of strings"),
    ("spec.lower", _list_of(_of((int, float))), "a list of numbers"),
    ("spec.upper", _list_of(_of((int, float))), "a list of numbers"),
    ("spec.partitions", _list_of(_of(int)), "a list of integers"),
    ("spec.states", _list_of(_of(int)), "a list of integers"),
    ("dt", _of((int, float)), "a number"),
    ("samples_per_cell", _of(int, 1), "an integer >= 1"),
    ("seed", _of(int, 0), "an integer >= 0"),
    ("simulator", _of(str), "a string"),
    ("simulator_params", _of(dict), "an object"),
)
_SPEC_FIELDS = tuple(key[5:] for key, _, _ in _MAP_FIELDS if key.startswith("spec."))
_BUILD_FIELDS = tuple(key for key, _, _ in _MAP_FIELDS if not key.startswith("spec"))


def save_map(tmap: TransitionMap, path: str) -> None:
    """Persist a map as versioned JSON.

    Layout: format/version header, spec echo, build parameters, then the
    edge list as [source id, target id, q] triples by source then target,
    with -1 (sorting first) marking the exterior sink, whose self-loop is
    implicit. Floats are written with shortest round-trip repr, so a load
    followed by a save is byte-identical. Wall-clock metadata is excluded
    to keep rebuilds with equal seeds byte-identical.
    """
    doc = {
        "format": MAP_FORMAT,
        "version": MAP_FORMAT_VERSION,
        "spec": {f: list(getattr(tmap.spec, f)) for f in _SPEC_FIELDS},
        **{key: getattr(tmap, key) for key in _BUILD_FIELDS},
        "edges": _edge_list(tmap.matrix),
    }
    if not tmap.simulator_params:
        del doc["simulator_params"]
    # Streamed on purpose: one json.dumps string of the baseline map would be
    # faster but raises build-map's peak RSS from 59.3 to 62.4 MB.
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_map(path: str, check: bool = True) -> TransitionMap:
    """Load a map persisted by save_map, checking it where it enters.

    Raises MapFormatError for a file that is not a map, a header field of
    the wrong type or range (see _MAP_FIELDS), an id out of range, q
    outside (0, 1], a duplicate edge and, with check, a row that does not
    sum to one. A file without simulator_params was built with none.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise MapFormatError(f"{path}: not a JSON file ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != MAP_FORMAT:
        raise MapFormatError(f"{path}: not a transition map file")
    if doc.get("version") != MAP_FORMAT_VERSION:
        raise MapFormatError(f"{path}: unsupported version {doc.get('version')}")
    doc = {"simulator_params": {}, **doc}
    try:
        _check_fields(doc, _MAP_FIELDS)
        spec = SpaceSpec(**{f: tuple(doc["spec"][f]) for f in _SPEC_FIELDS})
        matrix = _edge_matrix(spec.total_cells, doc["edges"], check)
        build = {key: doc[key] for key in _BUILD_FIELDS} | {"dt": float(doc["dt"])}
        return TransitionMap(spec, matrix=matrix, **build)
    except KeyError as exc:
        raise MapFormatError(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise MapFormatError(f"{path}: {exc}") from exc
