"""Output checks that share no code with the program.

The map is read with plain json and numpy and checked for id ranges,
q in (0, 1] and unit row sums; the forward push and the event-cell set are
recomputed here from the map file and the run config.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

ROW_SUM_TOL = 1e-9
MAP_FORMAT = "cellrisk-transition-map"


class MapCheckError(ValueError):
    """A map file that breaks a stated invariant; the message names each problem."""


@dataclass
class MapArrays:
    n_cells: int
    src: np.ndarray      # int64 source ids
    tgt: np.ndarray      # int64 target ids, exterior as n_cells
    q: np.ndarray        # float64 edge probabilities

    @property
    def n_edges(self) -> int:
        return int(self.q.size)

    def exterior_mass(self) -> tuple[float, float]:
        """(total, worst single source) probability into the exterior."""
        ext = self.tgt == self.n_cells
        per_source = np.bincount(self.src[ext], weights=self.q[ext], minlength=self.n_cells)
        return math.fsum(self.q[ext].tolist()), float(per_source.max(initial=0.0))


def check_map_doc(doc: dict) -> MapArrays:
    """Check a parsed map document; raise MapCheckError listing every problem."""
    problems = []
    if doc.get("format") != MAP_FORMAT:
        raise MapCheckError(f"format is {doc.get('format')!r}, not {MAP_FORMAT!r}")
    n_cells = math.prod(doc["spec"]["partitions"]) * math.prod(doc["spec"]["states"])
    edges = doc["edges"]
    if not edges:
        raise MapCheckError("map has no edges")
    src = np.array([e[0] for e in edges], dtype=np.int64)
    tgt = np.array([e[1] for e in edges], dtype=np.int64)
    q = np.array([e[2] for e in edges], dtype=float)
    bad_src = (src < 0) | (src >= n_cells)
    bad_tgt = ((tgt < 0) & (tgt != -1)) | (tgt >= n_cells)
    if bad_src.any():
        problems.append(f"{int(bad_src.sum())} source ids outside 0..{n_cells - 1}, "
                        f"first {int(src[bad_src][0])}")
    if bad_tgt.any():
        problems.append(f"{int(bad_tgt.sum())} target ids outside -1..{n_cells - 1}, "
                        f"first {int(tgt[bad_tgt][0])}")
    bad_q = ~((q > 0.0) & (q <= 1.0))
    if bad_q.any():
        problems.append(f"{int(bad_q.sum())} q values outside (0, 1], first {float(q[bad_q][0])!r}")
    if problems:
        raise MapCheckError("; ".join(problems))
    tgt = np.where(tgt == -1, n_cells, tgt)
    if np.unique(src * (n_cells + 1) + tgt).size != src.size:
        problems.append("duplicate (source, target) edges")
    sums = np.bincount(src, weights=q, minlength=n_cells)
    off = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)
    if off.size:
        problems.append(f"{off.size} rows do not sum to 1 within {ROW_SUM_TOL}, "
                        f"first source {int(off[0])} sums to {float(sums[off[0]])!r}")
    if problems:
        raise MapCheckError("; ".join(problems))
    return MapArrays(n_cells=n_cells, src=src, tgt=tgt, q=q)


def read_map(path) -> MapArrays:
    with open(path, encoding="utf-8") as fh:
        return check_map_doc(json.load(fh))


def _number(value) -> float:
    """Config numbers: plain, or 'pi', 'pi/k', 'a/b' with an optional sign."""
    if isinstance(value, (int, float)):
        return float(value)
    text = str(value).replace(" ", "")
    sign = -1.0 if text.startswith("-") else 1.0
    text = text.lstrip("-")
    num, _, den = text.partition("/")
    num_v = math.pi if num == "pi" else float(num)
    return sign * num_v / (float(den) if den else 1.0)


def event_cell_ids(cfg: dict) -> np.ndarray:
    """Cells whose box overlaps the open event box, in admissible configurations.

    Handles the single-component form the shipped configs use: L bounds plus a
    trailing configuration range.
    """
    L = int(cfg["numProcessVariables"])
    parts = [int(p) for p in cfg["numberOfCells"][:L]]
    lower = [_number(v) for v in cfg["variableLowerBounds"]]
    upper = [_number(v) for v in cfg["variableUpperBounds"]]
    ev_lo = [_number(v) for v in cfg["eventLowerBounds"]]
    ev_hi = [_number(v) for v in cfg["eventUpperBounds"]]
    per_dim = []
    for l in range(L):
        w = (upper[l] - lower[l]) / parts[l]
        per_dim.append([j for j in range(parts[l])
                        if lower[l] + j * w < ev_hi[l] and lower[l] + (j + 1) * w > ev_lo[l]])
    n_j = math.prod(parts)
    strides = np.cumprod([1] + parts[:-1])
    configs = range(int(ev_lo[L]) - 1, int(ev_hi[L]))
    ids = [int(np.dot(j, strides)) + n_j * c for j in product(*per_dim) for c in configs]
    return np.array(sorted(ids), dtype=np.int64)


def event_probability_by_cell(m: MapArrays, events: np.ndarray, steps: int) -> np.ndarray:
    """P(in the event set after `steps` steps | start cell), for every cell."""
    v = np.zeros(m.n_cells + 1)
    v[events] = 1.0
    for _ in range(steps):
        v = np.append(np.bincount(m.src, weights=m.q * v[m.tgt], minlength=m.n_cells), 0.0)
    return v[:-1]


def forward_push(m: MapArrays, start: int, steps: int) -> np.ndarray:
    """Distribution over cells plus exterior after pushing a point mass forward."""
    dist = np.zeros(m.n_cells + 1)
    dist[start] = 1.0
    for _ in range(steps):
        moved = np.bincount(m.tgt, weights=m.q * dist[m.src], minlength=m.n_cells + 1)
        moved[m.n_cells] += dist[m.n_cells]
        dist = moved
    return dist


def pick_start_cell(m: MapArrays, events: np.ndarray, steps: int, seed: int) -> int:
    """A seeded choice among the cells whose event probability is inside (0, 1).

    A start cell with probability 0 would let a wrong push pass unnoticed.
    """
    p = event_probability_by_cell(m, events, steps)
    candidates = np.flatnonzero((p > 0.0) & (p < 1.0 - 1e-9))
    if candidates.size == 0:
        raise MapCheckError(f"no cell reaches the event with probability in (0, 1) "
                            f"in {steps} steps")
    return int(np.random.default_rng(seed).choice(candidates))


def nodes_per_level(tree_doc: dict) -> dict[int, int]:
    counts: dict[int, int] = {}
    stack = list(tree_doc["root"]["children"])
    while stack:
        node = stack.pop()
        counts[node["depth"]] = counts.get(node["depth"], 0) + 1
        stack.extend(node["children"])
    return counts


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()
