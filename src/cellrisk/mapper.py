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

import itertools
import json
import math
import os
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .cellspace import (
    EXTERIOR_ID,
    CellCoord,
    SpaceSpec,
    bin_points,
    cell_boxes,
    coord_to_id,
    id_to_coord,
    sample_cell_array,  # unused here; bench/tracer.py wraps mapper.sample_cell_array by name
)
from .configuration import ROW_SUM_TOL, ConfigTransitionModel, _Field, _read_fields, capped, echo

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "CSR",
    "BuildError",
    "BudgetError",
    "DynamicsModel",
    "MapFormatError",
    "TransitionMap",
    "build_map",
    "compact",
    "estimate_g",
    "forward_step",
    "joined",
    "json_array",
    "load_map",
    "predecessors",
    "save_map",
    "write_json",
]

DEFAULT_SAMPLES_PER_CELL = 200
DEFAULT_SAMPLE_BUDGET = 100_000_000
BLOCK_ROWS = 5_000  # simulator rows per step_many call; bounds build memory
ROW_SLICE = 4_096  # texts joined into one by joined, such as json_array's rows

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
    A matrix with rows off one is refused with MapFormatError naming them (_off_rows).
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
        if problem := _off_rows(self.matrix):
            raise MapFormatError(problem)
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

    def total_exterior_mass(self) -> float:
        # cumsum adds one term at a time in source order, as a plain loop would.
        C = self.n_cells
        cells = slice(0, self.matrix.indptr[C])
        exterior = self.matrix.data[cells][self.matrix.indices[cells] == C]
        return float(np.cumsum(np.append(0.0, exterior))[-1])

    def rows(self) -> dict[int, list[tuple[int, float]]]:
        """Every source's edges as (target id or EXTERIOR_ID, q), by target id."""
        out: dict[int, list[tuple[int, float]]] = {s: [] for s in range(self.n_cells)}
        for s, t, q in zip(*(a.tolist() for a in _edge_arrays(self.matrix))):
            out[s].append((t, q))
        return out

    @classmethod
    def from_edges(
        cls, spec: SpaceSpec, edges: dict[int, list[tuple[int, float]]]
    ) -> TransitionMap:
        """A map of explicit edge lists, checked as load_map checks a file.

        Its build record is fixed: dt 1, one sample per cell, seed 0, simulator "analytic".
        """
        triples = [[s, t, q] for s, row in edges.items() for t, q in row]
        return cls(spec, 1.0, 1, 0, "analytic", {}, _edge_matrix(spec.total_cells, triples))


def _indptr(rows: np.ndarray, n_rows: int) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_rows))))


def _matrix(C: int, src: np.ndarray, col: np.ndarray, q: np.ndarray) -> CSR:
    """Canonical CSR from unique edges (column C is the exterior), plus its self-loop.

    Entries are sorted by source, then column: forward_step's sums rely on it.
    """
    src, col, q = np.append(src, C), np.append(col, C), np.append(q, 1.0)
    order = np.lexsort((col, src))
    return CSR(_indptr(src, C + 1), col[order], q[order])


def _off_rows(matrix: CSR) -> str | None:
    """Every source whose outgoing mass is off one by more than ROW_SUM_TOL, each named."""
    n_rows = len(matrix.indptr) - 1
    sums = np.bincount(matrix.row_ids(), weights=matrix.data, minlength=n_rows)[:-1]
    off = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)
    return "; ".join(capped([f"source {k}: row sums to {float(sums[k])!r}" for k in off])) or None


# JSON's names for the field types a map edge may not hold.
_KINDS = {bool: "boolean", str: "string", type(None): "null"}


def _type_problems(edge) -> list[str]:
    """The problem of an edge that is not a list, or of each of its fields not a number."""
    if type(edge) is not list:
        return [f"edge {echo(edge)}: not a [source, target, q] list"]
    return [f"edge {echo(edge)}: {_KINDS.get(type(v), type(v).__name__)} field {echo(v)}"
            for v in edge if type(v) not in (int, float)]


def _edge_matrix(C: int, edges) -> CSR:
    """Checked matrix from [source, target, q] triples; EXTERIOR_ID marks the exterior.

    Raises MapFormatError naming, as written, every edge that is not a list and every
    field not an int or a float (np.asarray parses strings and booleans), or else
    naming a malformed triple; then one naming every triple with an id out of range
    (checked before the integer cast), q outside (0, 1] or a duplicate (source,
    target) pair, check by check. The first PROBLEM_CAP problems are named.
    """
    typed = []  # a problem for every edge that is not a list and every field not a number
    try:
        # Types are scanned in place: a copy of the edges would raise the peak.
        if (set(map(type, edges)) - {list}
                or set(map(type, itertools.chain.from_iterable(edges))) - {int, float}):
            typed = [problem for e in edges for problem in _type_problems(e)]
        arr = np.asarray(edges, dtype=float) if len(edges) else np.zeros((0, 3))
        if arr.ndim != 2 or arr.shape[1] != 3 or np.any(arr[:, :2] != np.floor(arr[:, :2])):
            raise ValueError("need integer ids")
    except (TypeError, ValueError, OverflowError) as exc:
        # numpy's message would echo a string field whole; such a field is named instead.
        raise MapFormatError("; ".join(capped(typed))
                             or f"edges must be [source, target, q] triples: {exc}") from exc
    s, t, q = arr.T
    src_ok, tgt_ok = (s >= 0) & (s < C), (t >= EXTERIOR_ID) & (t < C)
    ok = src_ok & tgt_ok  # only these ids are cast; a triple with a bad id keys no pair
    src = np.where(ok, s, 0).astype(np.int64)
    col = np.where(ok & (t != EXTERIOR_ID), t, C).astype(np.int64)
    dup = np.ones(len(src), dtype=bool)  # every repeat of a (source, target) pair
    key = np.where(ok, src * (C + 1) + col, -1 - np.arange(len(src)))
    dup[np.unique(key, return_index=True)[1]] = False
    named = "; ".join(capped(typed + [
        f"edge {echo(edges[k])}: {problem}"
        for bad, problem in (
            (~src_ok, f"source id outside 0..{C - 1}"),
            (~tgt_ok, f"target id outside 0..{C - 1} or {EXTERIOR_ID}"),
            (~((q > 0.0) & (q <= 1.0)), "q outside (0, 1]"),
            (dup, "duplicate (source, target) pair"),
        )
        for k in np.flatnonzero(bad)
    ]))
    if named:
        raise MapFormatError(named)
    return _matrix(C, src, col, q)


def _edge_arrays(matrix: CSR) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(source, target, q) arrays by source, then target id with the exterior first."""
    C = len(matrix.indptr) - 2
    cells = slice(0, matrix.indptr[C])
    src, col = matrix.row_ids()[cells], matrix.indices[cells]
    tgt = np.where(col == C, EXTERIOR_ID, col)
    order = np.lexsort((tgt, src))
    return src[order], tgt[order], matrix.data[cells][order]


def _flow_counts(
    model: DynamicsModel, spec: SpaceSpec, dt: float, samples: int, seed: int, ids: range
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample, step and bin consecutive source cells sharing one configuration.

    Each source draws its unit points from its own stream, spawned from the
    build seed by its id, and scales them into its box as sample_cell_array
    does, bit for bit. Rows, source after source, are drawn, stepped and
    binned in blocks of at most BLOCK_ROWS, so memory is bounded whatever the
    sample count. Returns (source id, flat target j, count) arrays sorted by
    source then target, where target total_continuous_cells stands for the
    exterior.
    """
    digits = np.unravel_index(np.arange(ids.start, ids.stop), spec.radices(), order="F")
    box_lo, box_hi = cell_boxes(np.stack(digits[: spec.L], axis=1) + 1, spec)
    box_width = box_hi - box_lo
    n = tuple(int(d[0]) + 1 for d in digits[spec.L :])
    # Made as their sources come up, so only a block's streams are held at once.
    streams = (np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(s,)))
               for s in ids)
    n_j, total = spec.total_continuous_cells, len(ids) * samples
    u = np.empty((min(total, BLOCK_ROWS), spec.L))
    parts = []
    for lo in range(0, total, BLOCK_ROWS):  # every block under one configuration
        hi = min(total, lo + BLOCK_ROWS)
        sources = range(lo // samples, (hi - 1) // samples + 1)
        sizes = [min(hi, (c + 1) * samples) - max(lo, c * samples) for c in sources]
        ends = list(itertools.accumulate(sizes))
        for c, start, end in zip(sources, [0] + ends, ends):
            if c * samples >= lo:  # the source starts in this block
                rng = next(streams)
            rng.random(out=u[start:end])
        cells = np.repeat(np.arange(sources.start, sources.stop), sizes)
        xs = box_lo[cells] + u[: hi - lo] * box_width[cells]
        ys = np.asarray(model.step_many(xs, n, dt), dtype=float)
        if ys.shape != xs.shape:
            raise BuildError(
                f"simulator returned shape {ys.shape} for cell "
                f"{id_to_coord(ids[lo // samples], spec)}, expected {xs.shape}"
            )
        if not np.isfinite(ys).all():
            k = int(np.flatnonzero(~np.isfinite(ys).all(axis=1))[0])
            raise BuildError(
                f"simulator returned non-finite state from cell "
                f"{id_to_coord(ids[(lo + k) // samples], spec)} "
                f"(sample {(lo + k) % samples}: {xs[k].tolist()} -> {ys[k].tolist()})"
            )
        parts.append(np.unique(cells * (n_j + 1) + bin_points(ys, spec), return_counts=True))
        del ys  # freed before the next block is stepped
    keys, where = np.unique(np.concatenate([k for k, _ in parts]), return_inverse=True)
    counts = np.bincount(where, weights=np.concatenate([c for _, c in parts]))
    return ids.start + keys // (n_j + 1), keys % (n_j + 1), counts.astype(np.int64)


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
    from fractions import Fraction  # imported here: only validate and tests ask for flow rows

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


def _config_edges(
    model: DynamicsModel,
    spec: SpaceSpec,
    config_model: ConfigTransitionModel,
    dt: float, samples: int, seed: int, ids: range,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Edge arrays (source, column, q) of consecutive sources under one configuration; column
    total_cells is the exterior sink, which absorbs whole trajectories whatever the jump."""
    n_j = spec.total_continuous_cells
    src, target, counts = _flow_counts(model, spec, dt, samples, seed, ids)
    g, ext = counts / samples, target == n_j
    jump = _jump_row(config_model, id_to_coord(ids.start, spec).n)
    q = np.multiply.outer(g[~ext], jump)
    col = target[~ext, None] + n_j * np.arange(jump.size)
    keep = q > 0.0
    return [(np.broadcast_to(src[~ext, None], q.shape)[keep], col[keep], q[keep]),
            (src[ext], np.full(int(ext.sum()), spec.total_cells), g[ext])]


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

    # Work units: each configuration's run of sources, cut into one piece per worker.
    n_j = spec.total_continuous_cells
    piece = n_j if workers <= 1 else math.ceil(n_j / workers)
    runs = (range(start, start + n_j) for start in range(0, C, n_j))
    units = [run[i : i + piece] for run in runs for i in range(0, n_j, piece)]
    args = (model, spec, config_model, dt, samples, seed)
    if workers <= 1:
        parts = [_config_edges(*args, ids) for ids in units]
    else:
        # Imported here: multiprocessing costs every command start-up otherwise.
        from concurrent.futures import ProcessPoolExecutor

        # Pieces follow workers, so the map is the same however many processes run them.
        with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
            futures = [pool.submit(_config_edges, *args, ids) for ids in units]
            parts = [f.result() for f in futures]
    matrix = _matrix(C, *(np.concatenate(a) for a in zip(*itertools.chain(*parts))))
    return TransitionMap(spec, dt, samples, seed, model.name, {}, matrix)


def forward_step(tmap: TransitionMap, distribution: np.ndarray) -> np.ndarray:
    """Push a distribution over the cells plus the exterior (last entry, absorbing) one step."""
    C = tmap.n_cells
    dist = np.asarray(distribution, dtype=float)
    if dist.shape != (C + 1,):
        raise ValueError(f"distribution must have length {C + 1}, got shape {dist.shape}")
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


_NAMES, _NUMBERS, _COUNTS = (_Field("a list", entry=_Field(kind))
                             for kind in ("a string", "a number", "an integer"))
# The map file's header, which save_map writes and load_map reads: the spec, SpaceSpec's
# fields, and the build record, TransitionMap's fields of the same names.
_SPEC_FIELDS = {"names_x": _NAMES, "names_n": _NAMES, "lower": _NUMBERS, "upper": _NUMBERS,
                "partitions": _COUNTS, "states": _COUNTS}
_BUILD_FIELDS = {
    "dt": _Field("a number", low=0.0, open_low=True),
    "samples_per_cell": _Field("an integer", low=1),
    "seed": _Field("an integer", low=0),
    "simulator": _Field("a string"),
    "simulator_params": _Field("a mapping", None),  # left out, or null: built with none
}
_MAP_FIELDS = {"format": _Field("a string"), "version": _Field("an integer"),
               "spec": _Field("a mapping", table=_SPEC_FIELDS), **_BUILD_FIELDS,
               "edges": _Field("a list")}


# json.dumps(value, sort_keys=True, separators=(",", ":")), the layout of every output file.
compact = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def joined(texts, sep: str = ""):
    """The texts joined by sep, one text per slice of ROW_SLICE texts."""
    texts, head = iter(texts), ""
    while part := list(itertools.islice(texts, ROW_SLICE)):
        yield head + sep.join(part)
        head = sep


def json_array(rows):
    """The JSON array of row texts: "[", the rows joined by "," in slices of
    ROW_SLICE rows, then "]"."""
    return itertools.chain(["["], joined(rows, ","), ["]"])


def write_json(path: str, fields) -> None:
    """Write compact(dict(fields)) + "\n" to path, byte for byte.

    fields are (key, value) pairs in ascending key order. A value that is an
    iterator is written as the text it yields, such as json_array's; the
    next pair is pulled only after that text is written.
    """
    with open(path, "w", encoding="utf-8") as fh:
        keys = []
        for key, value in fields:
            if keys and not keys[-1] < key:
                raise ValueError(f"field {key!r} after {keys[-1]!r}: keys must ascend")
            fh.write(("," if keys else "{") + compact(key) + ":")
            fh.writelines(value if isinstance(value, Iterator) else [compact(value)])
            keys.append(key)
        fh.write("}\n" if keys else "{}\n")


def save_map(tmap: TransitionMap, path: str) -> None:
    """Persist a map as versioned JSON.

    Layout: format/version header, spec echo, build parameters, then the
    edge list as [source id, target id, q] triples by source then target,
    with -1 (sorting first) marking the exterior sink, whose self-loop is
    implicit. Floats are written with shortest round-trip repr, so a load
    followed by a save is byte-identical. Wall-clock metadata is excluded
    to keep rebuilds with equal seeds byte-identical.
    """
    src, tgt, q = map(memoryview, _edge_arrays(tmap.matrix))  # Python numbers, held in no list
    doc = {
        "format": MAP_FORMAT,
        "version": MAP_FORMAT_VERSION,
        "spec": {f: list(getattr(tmap.spec, f)) for f in _SPEC_FIELDS},
        **{key: getattr(tmap, key) for key in _BUILD_FIELDS},
        "edges": json_array(f"[{s},{t},{w!r}]" for s, t, w in zip(src, tgt, q)),
    }
    if not tmap.simulator_params:
        del doc["simulator_params"]
    write_json(path, sorted(doc.items()))


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict; MapFormatError names every key given twice."""
    if len(doc := dict(pairs)) < len(pairs):
        counts = Counter(key for key, _ in pairs)  # in the order the keys first appear
        raise MapFormatError("; ".join(capped([f"repeated key {echo(k)}"
                                               for k, n in counts.items() if n > 1])))
    return doc


def load_map(path: str) -> TransitionMap:
    """Load a map persisted by save_map, checking it where it enters.

    Raises MapFormatError for a file that is not a map, naming every header
    key that is unknown, missing, or of the wrong kind or range (read as the
    config is, by _read_fields over _MAP_FIELDS); for a clean header, one
    naming the edges with an id out of range, q outside (0, 1] or a
    duplicate pair, or every row that does not sum to one.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except MapFormatError as exc:
        raise MapFormatError(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise MapFormatError(f"{path}: not a JSON file ({exc})") from exc
    except RecursionError as exc:
        raise MapFormatError(f"{path}: nested too deeply to read") from exc
    if not isinstance(doc, dict) or doc.get("format") != MAP_FORMAT:
        raise MapFormatError(f"{path}: not a transition map file")
    if doc.get("version") != MAP_FORMAT_VERSION:
        raise MapFormatError(f"{path}: unsupported version {echo(doc.get('version'))}")
    problems: list[str] = []
    header = _read_fields(doc, _MAP_FIELDS, "", problems)
    if problems:
        raise MapFormatError(f"{path}: " + "; ".join(capped(problems)))
    build = {key: header[key] for key in _BUILD_FIELDS}
    build["simulator_params"] = build["simulator_params"] or {}
    try:
        spec = SpaceSpec(**header["spec"])
        matrix = _edge_matrix(spec.total_cells, header["edges"])
        return TransitionMap(spec, matrix=matrix, **build)
    except ValueError as exc:
        raise MapFormatError(f"{path}: {exc}") from exc
