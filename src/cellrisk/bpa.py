"""Backtracking search for risk-significant event sequences.

Starting from a Top Event (a box in the continuous space plus a set of
admissible configurations), the search finds every cell with single-step
flow into the event set, then recursively enumerates predecessors backwards
in time, pruning branches whose cumulative path probability falls below a
truncation threshold. The result is a tree rooted at the event whose paths
are ranked by probability.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from . import mapper
from .cellspace import CellCoord, SpaceSpec
from .mapper import CSR, BudgetError, TransitionMap, compact, joined, predecessors, write_json

__all__ = [
    "Level",
    "LevelTexts",
    "Node",
    "PathRanking",
    "RankedPath",
    "ScenarioTree",
    "TopEvent",
    "TopEventError",
    "backtrack",
    "encode_ranked_paths",
    "event_cells",
    "event_probability",
    "forward_check",
    "rank_paths",
    "tree_to_dot",
    "tree_to_text",
    "write_tree",
]

DEFAULT_NODE_BUDGET = 1_000_000

TREE_FORMAT = "cellrisk-scenario-tree"
TREE_FORMAT_VERSION = 1


class TopEventError(ValueError):
    """Raised when event bounds or configurations are inconsistent."""


@dataclass(frozen=True)
class TopEvent:
    """Event box (open interval per dimension) plus admissible configurations."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    configs: frozenset[tuple[int, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", tuple(float(v) for v in self.lower))
        object.__setattr__(self, "upper", tuple(float(v) for v in self.upper))
        object.__setattr__(
            self, "configs", frozenset(tuple(int(v) for v in c) for c in self.configs)
        )
        if len(self.lower) != len(self.upper):
            raise TopEventError("event bound lengths disagree")
        if not self.configs:
            raise TopEventError("event needs at least one admissible configuration")
        for l, (lo, hi) in enumerate(zip(self.lower, self.upper)):
            if not lo < hi:
                raise TopEventError(f"dimension {l}: event lower {lo} must be < upper {hi}")

    def validate_against(self, spec: SpaceSpec) -> None:
        if len(self.lower) != spec.L:
            raise TopEventError(f"event has {len(self.lower)} dims, spec has {spec.L}")
        for l in range(spec.L):
            if not (self.upper[l] <= spec.upper[l] and self.upper[l] > spec.lower[l]):
                raise TopEventError(
                    f"dimension {l}: event upper {self.upper[l]} outside "
                    f"({spec.lower[l]}, {spec.upper[l]}]"
                )
            if not (self.lower[l] >= spec.lower[l] and self.lower[l] < spec.upper[l]):
                raise TopEventError(
                    f"dimension {l}: event lower {self.lower[l]} outside "
                    f"[{spec.lower[l]}, {spec.upper[l]})"
                )
        for cfg in self.configs:
            try:
                spec.validate_config(cfg)
            except Exception as exc:
                raise TopEventError(f"event configuration {cfg}: {exc}") from exc


def event_cells(event: TopEvent, spec: SpaceSpec) -> set[int]:
    """Cells whose box overlaps the open event box with positive volume.

    Intersection semantics: partially overlapping cells count, if their configuration
    is admissible; none means the event is unreachable. Ids go in by the digits'
    product, configurations innermost: backtrack's sums follow the set's order.
    """
    event.validate_against(spec)
    digits = []
    for l, w in enumerate(spec.widths):
        c_lo = spec.lower[l] + np.arange(spec.partitions[l]) * w
        digits.append(np.flatnonzero((c_lo < event.upper[l]) & (c_lo + w > event.lower[l])))
    j = np.ravel_multi_index(np.ix_(*digits), spec.partitions, order="F")
    n = np.array(list(event.configs), dtype=np.int64) - 1
    offsets = np.ravel_multi_index(tuple(n.T), spec.states, order="F")
    return set((j.reshape(-1, 1) + offsets * spec.total_continuous_cells).ravel().tolist())


class Level(NamedTuple):
    """The nodes of one tree level as arrays, in the search's breadth-first order.

    parent is each node's index in the level above (0, the root, on level
    1). The children of one parent sit together, the groups in their
    parents' order; backtrack puts each group in predecessor-index order.
    """

    cell: np.ndarray        # int64
    q: np.ndarray           # float64: single-step probability into the parent
    cumulative: np.ndarray  # float64: product of q from the node up to the event
    parent: np.ndarray      # int64


class LevelTexts(NamedTuple):
    """One level's numbers as the writers print them, as object arrays aligned with its nodes."""

    cumulative: np.ndarray  # repr, as json writes a float
    q: np.ndarray           # repr
    g: np.ndarray           # format(q, "g"), as the labels and rendered paths show it


class Node(NamedTuple):
    """One node's row of its level's arrays, with its depth (1 on level 1)."""

    depth: int
    cell: int
    q: float
    cumulative: float
    parent: int


def _child_starts(levels: list[Level], k: int) -> np.ndarray:
    """Where the children of each node of levels[k] start in levels[k + 1], then the end."""
    n = len(levels[k].cell)
    if k + 1 == len(levels):
        return np.zeros(n + 1, dtype=np.int64)
    return np.searchsorted(levels[k + 1].parent, np.arange(n + 1))


@dataclass(eq=False)
class ScenarioTree:
    """A search tree held as one Level per depth reached, level 1 first; no level is empty.

    coords holds the coordinate of every cell in the tree, shared by all of
    its nodes, and entry_edges the per-event-cell breakdown of each level-1
    node's aggregated entry edge. A node is an event cell when its cell is
    in event_cell_ids.
    """

    levels: list[Level]
    entry_edges: list[list[tuple[int, float]]]
    coords: dict[int, CellCoord]
    event: TopEvent
    event_cell_ids: frozenset[int]
    depth: int
    truncation: float
    map_simulator: str
    map_seed: int

    @property
    def n_nodes(self) -> int:
        return sum(len(level.cell) for level in self.levels)

    @property
    def max_depth_reached(self) -> int:
        return len(self.levels)

    def cumulative_for_cell(self, cell_id: int) -> float:
        """Sum of cumulative probabilities over all nodes holding a cell."""
        return sum(float(level.cumulative[level.cell == cell_id].sum()) for level in self.levels)

    def nodes(self):
        """One Node per node, level by level, each level in its order."""
        for depth, level in enumerate(self.levels, 1):
            for row in zip(level.cell.tolist(), level.q.tolist(), level.cumulative.tolist(),
                           level.parent.tolist()):
                yield Node(depth, *row)

    @functools.cached_property
    def texts(self) -> list[LevelTexts]:
        """Each level's LevelTexts, made once for all writers; each distinct q is formatted once."""
        q = np.sort(np.concatenate([_NO_FLOATS, *(level.q for level in self.levels)]))
        # Each value that differs from the one before it; not np.unique, which imports numpy.ma.
        q = q[np.diff(q, prepend=np.nan) != 0]
        by_repr = np.array([repr(v) for v in q.tolist()], dtype=object)
        by_g = np.array([format(v, "g") for v in q.tolist()], dtype=object)
        at = [np.searchsorted(q, level.q) for level in self.levels]
        return [LevelTexts(np.array(list(map(repr, level.cumulative.tolist())), dtype=object),
                           by_repr[i], by_g[i]) for level, i in zip(self.levels, at)]

    def ranking(self, initial_distribution: np.ndarray | None = None) -> PathRanking:
        """All root-to-leaf paths in rank_paths' order, as arrays.

        One lexsort over the leaves: by score, highest first, then by
        length, then by cell ids from the leaf up.
        """
        length, index, cumulative = [_NO_INTS], [_NO_INTS], [_NO_FLOATS]
        for k, level in enumerate(self.levels):
            starts = _child_starts(self.levels, k)
            leaves = np.flatnonzero(starts[1:] == starts[:-1])
            length.append(np.full(len(leaves), k + 1))
            index.append(leaves)
            cumulative.append(level.cumulative[leaves])
        length, index, cumulative = map(np.concatenate, (length, index, cumulative))
        cells = _along_paths(self.levels, length, index, "cell")
        if initial_distribution is not None and len(cells):
            cumulative = cumulative * np.asarray(initial_distribution, dtype=float)[cells[:, 0]]
        order = np.lexsort((*cells.T[::-1], length, -cumulative))
        return PathRanking(self, length[order], index[order], cumulative[order])


_NO_INTS, _NO_FLOATS = np.empty(0, dtype=np.int64), np.empty(0)


def _along_paths(levels: list[Level], length: np.ndarray, index: np.ndarray,
                 name: str) -> np.ndarray:
    """One row per path (leaf level, leaf index): the named field of its nodes
    from the leaf up, zero past the path's end."""
    width = int(length.max()) if len(length) else 0
    kind = getattr(levels[0], name).dtype if levels else np.int64
    out = np.zeros((len(length), width), dtype=kind)
    for d in range(1, width + 1):
        rows = np.flatnonzero(length == d)
        i = index[rows]
        for column, level in enumerate(reversed(levels[:d])):
            out[rows, column] = getattr(level, name)[i]
            i = level.parent[i]
    return out


# Candidate children held at once while a level is expanded.
_EXPAND_CHUNK = 1 << 18


def backtrack(
    tmap: TransitionMap,
    event: TopEvent,
    depth: int,
    truncation: float,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ScenarioTree:
    """Enumerate predecessor paths of the Top Event, pruned by probability.

    Level 1 holds every cell with positive flow into the event set, with the
    per-cell entry probabilities summed across event cells (capped at one).
    Deeper levels expand predecessors while the running path product stays at
    or above the truncation value. Nodes sitting inside the event set are
    kept but never expanded; an earlier event occurrence dominates anything
    behind it. Raises BudgetError once more than node_budget nodes are kept.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not 0.0 <= truncation < 1.0:
        raise ValueError("truncation must be in [0, 1)")
    ev_cells = frozenset(event_cells(event, tmap.spec))

    entry: dict[int, float] = {}
    detail: dict[int, list[tuple[int, float]]] = {}
    for target in ev_cells:  # set order, so the float sums' last bits follow CPython's set layout
        for source, q in predecessors(tmap, target):
            entry[source] = entry.get(source, 0.0) + q
            detail.setdefault(source, []).append((target, q))
    for source in entry:
        if entry[source] > 1.0:
            entry[source] = 1.0
    kept = [(source, q) for source, q in sorted(entry.items(), key=lambda kv: (-kv[1], kv[0]))
            if not (q < truncation or q <= 0.0)]
    if len(kept) > node_budget:
        raise BudgetError(f"scenario tree exceeded node budget {node_budget}")

    levels: list[Level] = []
    if kept:
        cell, q = map(np.array, zip(*kept))
        levels.append(Level(cell, q, q, np.zeros(len(kept), dtype=np.int64)))
    is_event = np.zeros(tmap.n_cells, dtype=bool)
    is_event[list(ev_cells)] = True
    while levels and len(levels) < depth:
        room = node_budget - sum(len(level.cell) for level in levels)
        level = _expand(levels[-1], tmap.predecessor_index, is_event, truncation, room)
        if level is None:
            raise BudgetError(f"scenario tree exceeded node budget {node_budget}")
        if not len(level.cell):
            break
        levels.append(level)

    # A mask, not np.unique, which imports numpy.ma on its first plain call.
    in_tree = np.zeros(tmap.n_cells, dtype=bool)
    for level in levels:
        in_tree[level.cell] = True
    cells = np.flatnonzero(in_tree)
    digits = np.stack(np.unravel_index(cells, tmap.spec.radices(), order="F"), axis=1) + 1
    L = tmap.spec.L
    return ScenarioTree(
        levels=levels,
        entry_edges=[sorted(detail[source]) for source, _ in kept],
        coords={c: CellCoord(d[:L], d[L:]) for c, d in zip(cells.tolist(), digits.tolist())},
        event=event,
        event_cell_ids=ev_cells,
        depth=depth,
        truncation=truncation,
        map_simulator=tmap.simulator,
        map_seed=tmap.seed,
    )


def _expand(parents: Level, index: CSR, is_event: np.ndarray, truncation: float,
            room: int) -> Level | None:
    """The next level: every kept predecessor of each parent outside the event set.

    Parents are expanded in chunks of about _EXPAND_CHUNK candidate
    children. Gives None once more than room children are kept.
    """
    open_ = np.flatnonzero(~is_event[parents.cell])
    start = index.indptr[parents.cell[open_]]
    counts = index.indptr[parents.cell[open_] + 1] - start
    ends = np.cumsum(counts)   # candidates of the parents up to each one
    pieces, kept, lo = [], 0, 0
    while lo < len(open_):
        base = int(ends[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(ends, base + _EXPAND_CHUNK, side="right")), lo + 1)
        n = counts[lo:hi]
        parent = np.repeat(open_[lo:hi], n)
        # Each candidate's position in the predecessor index: its parent's
        # start plus its place among the parent's candidates.
        first = ends[lo:hi] - n - base   # each parent's first candidate in the chunk
        at = np.arange(int(ends[hi - 1]) - base) + np.repeat(start[lo:hi] - first, n)
        q = index.data[at]
        cumulative = parents.cumulative[parent] * q
        keep = ~((cumulative < truncation) | (cumulative <= 0.0))
        kept += int(np.count_nonzero(keep))
        if kept > room:
            return None
        pieces.append(Level(index.indices[at[keep]], q[keep], cumulative[keep], parent[keep]))
        lo = hi
    if not pieces:
        return Level(_NO_INTS, _NO_FLOATS, _NO_FLOATS, _NO_INTS)
    return Level(*map(np.concatenate, zip(*pieces)))


@dataclass(frozen=True, slots=True)
class RankedPath:
    """Root-to-leaf path rendered oldest-first (deepest cell toward the event)."""

    cells: tuple[CellCoord, ...]
    cell_ids: tuple[int, ...]
    steps: tuple[float, ...]   # per-edge q, aligned with cells
    cumulative: float

    def render(self, event_label: str = "TopEvent") -> str:
        return " -> ".join([*(_step_text(c.label, format(q, "g"))
                              for c, q in zip(self.cells, self.steps)), event_label])


def _step_text(label: str, q: str) -> str:
    """One step of a rendered path, from a label and a %g text; report rows share it."""
    return f"{label} (q={q})"


@dataclass(frozen=True, eq=False)
class PathRanking:
    """A tree's root-to-leaf paths, most probable first, as arrays.

    Path k ends at node index[k] of level length[k] (1-based, so also the
    path's length) and scores cumulative[k]: its leaf's cumulative, times
    the leaf cell's occupancy when ranked under an initial distribution.
    """

    tree: ScenarioTree
    length: np.ndarray
    index: np.ndarray
    cumulative: np.ndarray

    def __len__(self) -> int:
        return len(self.length)

    def paths(self, stop: int | None = None) -> list[RankedPath]:
        """The first stop paths, all by default, as RankedPaths."""
        args = (self.tree.levels, self.length[:stop], self.index[:stop])
        coord = self.tree.coords.__getitem__
        return [RankedPath(tuple(map(coord, ids[:n])), tuple(ids[:n]), tuple(steps[:n]), cumulative)
                for ids, steps, n, cumulative in zip(
                    _along_paths(*args, "cell").tolist(), _along_paths(*args, "q").tolist(),
                    args[1].tolist(), self.cumulative[:stop].tolist())]


def rank_paths(
    tree: ScenarioTree,
    initial_distribution: np.ndarray | None = None,
) -> list[RankedPath]:
    """All root-to-leaf paths, most probable first.

    By default a path's probability is the bare product of its single-step
    values, conditional on its deepest cell being occupied. Passing an
    initial distribution over cells additionally weights each path by the
    occupancy of its deepest cell. Ties break by shorter path, then
    lexicographic cell ids. Each path is reported deepest node first so it
    reads forward in time.
    """
    return tree.ranking(initial_distribution).paths()


def event_probability(
    tmap: TransitionMap, distribution: np.ndarray, event_ids, steps: int
) -> float:
    """Mass on the event cells after pushing a distribution steps forward."""
    dist = np.asarray(distribution, dtype=float)
    for _ in range(steps):
        # Looked up at call time, so a wrapper put on mapper.forward_step
        # (the benchmark's tracer) sees every push.
        dist = mapper.forward_step(tmap, dist)
        # The push's row error goes on the exterior, which feeds only itself, so no drift builds up.
        dist[-1] += 1.0 - dist.sum()
    return float(dist[sorted(event_ids)].sum())


def forward_check(
    tmap: TransitionMap, tree: ScenarioTree, distribution: np.ndarray
) -> float:
    """Probability of landing in the event set after the tree's search depth.

    Pairs with the backward tree as a consistency oracle.
    """
    return event_probability(tmap, distribution, tree.event_cell_ids, tree.depth)


def _preorder(levels: list[Level]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each level's preorder numbers (0 for the first level-1 node) and subtree sizes."""
    starts = [_child_starts(levels, k) for k in range(len(levels))]
    sizes: list[np.ndarray] = [_NO_INTS] * len(levels)
    for k in reversed(range(len(levels))):
        sizes[k] = np.ones(len(levels[k].cell), dtype=np.int64)
        if k + 1 < len(levels):
            below = np.concatenate(([0], np.cumsum(sizes[k + 1])))
            sizes[k] += below[starts[k][1:]] - below[starts[k][:-1]]
    pre: list[np.ndarray] = []
    for k, level in enumerate(levels):
        before = np.cumsum(sizes[k]) - sizes[k]   # sizes of the earlier nodes of the level
        if k == 0:
            pre.append(before)
        else:
            # A node follows its parent and its earlier siblings' subtrees.
            first = starts[k - 1][level.parent]
            pre.append(pre[k - 1][level.parent] + 1 + before - before[first])
    return pre, sizes


def _node_text(cell_id, vector, is_event: bool) -> tuple[str, str, str]:
    """A tree-file node's text up to its children, from them to its cumulative,
    and from its depth to its q, the same for every node of one cell."""
    return (f'{{"cell_id":{compact(cell_id)},"children":[',
            f'],"coord":{compact(vector)},"cumulative":',
            f',"event_cell":{compact(is_event)},"q":')


def write_tree(tree: ScenarioTree, path: str) -> None:
    """Write the tree file: one JSON object, keys sorted, compact separators.

    Its fields are format, version, search_depth, truncation, map_simulator,
    map_seed, event (lower, upper and configs), n_nodes and root: a node
    with coord and cell_id null, q and cumulative 1.0, depth 0 and
    event_cell false. Every node has coord (its cell's vector), cell_id, q,
    cumulative, depth, event_cell and children, each level in its order; a
    level-1 node also has entry_edges, [event cell id, q] pairs. Nodes of
    one cell share the text of their cell id, coordinate and event flag;
    the cumulative and q come from tree.texts, so per node only its depth
    and these pieces are joined, plus the level-1 entry_edges. Each node
    gives the text before its children and the text after them; these are
    put in the order a preorder walk enters and leaves the nodes, and go to
    write_json as the root's text, joined in slices by joined.
    """
    shared = {c: _node_text(c, list(coord.as_vector()), c in tree.event_cell_ids)
              for c, coord in tree.coords.items()}
    after_sibling = {c: "," + text[0] for c, text in shared.items()}
    pre, sizes = _preorder(tree.levels)
    walk = np.empty(2 * tree.n_nodes, dtype=object)
    for k, (level, numbers) in enumerate(zip(tree.levels, tree.texts)):
        first = np.ones(len(level.cell), dtype=bool)
        first[1:] = level.parent[1:] != level.parent[:-1]
        cell = level.cell.tolist()
        depth = [f',"depth":{k + 1}'] * len(cell)
        if k == 0:
            depth = [f'{d},"entry_edges":{compact(edges)}'
                     for d, edges in zip(depth, tree.entry_edges)]
        # In a preorder walk the entry of a level-(k+1) node is the 2*pre-k-th
        # event, its exit the 2*(pre+size)-(k+1)-th.
        walk[2 * pre[k] - k] = [shared[c][0] if f else after_sibling[c]
                                for c, f in zip(cell, first.tolist())]
        walk[2 * (pre[k] + sizes[k]) - (k + 1)] = [
            f"{shared[c][1]}{cumulative}{d}{shared[c][2]}{q}}}"
            for c, cumulative, d, q in zip(cell, numbers.cumulative.tolist(), depth,
                                           numbers.q.tolist())]
    root = _node_text(None, None, False)
    write_json(path, sorted({
        "format": TREE_FORMAT,
        "version": TREE_FORMAT_VERSION,
        "search_depth": tree.depth,
        "truncation": tree.truncation,
        "map_simulator": tree.map_simulator,
        "map_seed": tree.map_seed,
        "event": {"lower": list(tree.event.lower), "upper": list(tree.event.upper),
                  "configs": sorted(list(c) for c in tree.event.configs)},
        "n_nodes": tree.n_nodes,
        "root": itertools.chain([root[0]], joined(walk),
                                [f'{root[1]}1.0,"depth":0{root[2]}1.0}}']),
    }.items()))


def encode_ranked_paths(ranking: PathRanking):
    """The JSON text of every row of a run report's ranked_paths, most probable first.

    Each equals compact({"cells": its vectors, "steps", "cumulative",
    "rendered": path.render()}) of its ranked path. Every node with children
    gets its path's cells, steps and rendered text from it up to the event
    once: its own piece followed by its parent's (JSON string escaping
    composes under concatenation). A row is its leaf's pieces followed by
    its parent's. The rows are made ROW_SLICE ranks at a time; within a
    slice level by level in node order, so that siblings, which copy the
    same parent pieces, are made together, each put at its rank.
    """
    tree = ranking.tree
    levels, texts = tree.levels, tree.texts
    vector = {c: compact(list(coord.as_vector())) for c, coord in tree.coords.items()}
    label = {c: encode_basestring_ascii(coord.label)[1:-1] for c, coord in tree.coords.items()}
    # The (cells, steps, rendered) text of every node with children, by
    # level; the root's first.
    pieces = [([""], [""], [" -> TopEvent"])]
    for k, (level, numbers) in enumerate(zip(levels[:-1], texts)):
        starts = _child_starts(levels, k)
        inner = np.flatnonzero(starts[1:] > starts[:-1])
        above = pieces[-1]
        cells, steps, rendered = ([None] * len(level.cell) for _ in range(3))
        for i, c, q, g, p in zip(inner.tolist(), level.cell[inner].tolist(),
                                 numbers.q[inner].tolist(), numbers.g[inner].tolist(),
                                 level.parent[inner].tolist()):
            cells[i] = f",{vector[c]}{above[0][p]}"
            steps[i] = f",{q}{above[1][p]}"
            rendered[i] = f" -> {_step_text(label[c], g)}{above[2][p]}"
        pieces.append((cells, steps, rendered))

    for lo in range(0, len(ranking), mapper.ROW_SLICE):
        length, index, score = (a[lo:lo + mapper.ROW_SLICE]
                                for a in (ranking.length, ranking.index, ranking.cumulative))
        order = np.lexsort((index, length))   # by level, then node index
        ends = np.cumsum(np.bincount(length))
        ranked = np.empty(len(order), dtype=object)
        for d in range(1, len(ends)):
            at = order[ends[d - 1]:ends[d]]   # the slice's paths of length d
            i = index[at]
            level, numbers, (cells, steps, rendered) = levels[d - 1], texts[d - 1], pieces[d - 1]
            cumulative = numbers.cumulative[i]
            weighted = score[at] != level.cumulative[i]   # ranked under an initial distribution
            cumulative[weighted] = [repr(v) for v in score[at][weighted].tolist()]
            ranked[at] = [f'{{"cells":[{vector[c]}{cells[p]}],"cumulative":{cu},'
                          f'"rendered":"{_step_text(label[c], g)}{rendered[p]}",'
                          f'"steps":[{q}{steps[p]}]}}'
                          for c, p, cu, q, g in zip(level.cell[i].tolist(),
                                                    level.parent[i].tolist(), cumulative.tolist(),
                                                    numbers.q[i].tolist(), numbers.g[i].tolist())]
        yield from ranked.tolist()


def tree_to_dot(tree: ScenarioTree):
    """Graphviz dot rendering; node labels give the cell vector and its q.

    Nodes are named n and their preorder number; the text, made in the call, comes in slices.
    """
    label = {c: f'label="{coord.label}\\nP=' for c, coord in tree.coords.items()}
    style = {c: '", style=dashed' if c in tree.event_cell_ids else '"' for c in tree.coords}
    pre, _ = _preorder(tree.levels)
    lines, above = np.empty(tree.n_nodes, dtype=object), ["root"]
    for level, numbers, at in zip(tree.levels, tree.texts, pre):
        names = [f"n{p}" for p in at.tolist()]
        lines[at] = [f'\t"{name}" [{label[c]}{g}{style[c]}];\n\t"{name}" -> "{above[p]}";\n'
                     for c, g, name, p in zip(level.cell.tolist(), numbers.g.tolist(), names,
                                              level.parent.tolist())]
        above = names
    return itertools.chain(["digraph scenario_tree {\n\trankdir=RL;\n"
                            '\tnode [shape=box, fontname="Helvetica"];\n'
                            '\t"root" [label="TopEvent", shape=doubleoctagon];\n'],
                           joined(lines), ["}\n"])


def tree_to_text(tree: ScenarioTree):
    """Each node's line in preorder, indented by depth: cell, q, cumulative, depth, in slices."""
    label = {c: coord.label for c, coord in tree.coords.items()}
    pre, _ = _preorder(tree.levels)
    lines = np.empty(tree.n_nodes, dtype=object)
    for d, (level, numbers, at) in enumerate(zip(tree.levels, tree.texts, pre), 1):
        indent = "  " * (d - 1)
        lines[at] = [f"{indent}{label[c]} q={g} cumulative={cumulative:g} depth={d}"
                     for c, g, cumulative in zip(level.cell.tolist(), numbers.g.tolist(),
                                                 level.cumulative.tolist())]
    return itertools.chain(joined(lines, "\n"), ["\n"])
