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
from .mapper import CSR, BudgetError, TransitionMap, compact, predecessors, write_json

__all__ = [
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


class Node(NamedTuple):
    """One node's row of the tree's arrays, with its depth (1 on level 1)."""

    depth: int
    cell: int
    q: float
    cumulative: float
    parent: int   # the parent's node index, -1 on level 1


@dataclass(eq=False)
class ScenarioTree:
    """A search tree held as node arrays, in the search's breadth-first order.

    Node i has cell[i], q[i] (its single-step probability into its parent),
    cumulative[i] (the product of q from the node up to the event) and
    parent[i] (its parent's node index, -1 on level 1). Level d holds nodes
    starts[d - 1] to starts[d]; no level is empty. The children of one
    parent sit together, in predecessor-index order, the groups in their
    parents' order, so parent never decreases.

    coords holds the coordinate of every cell in the tree, shared by all of
    its nodes, and entry_edges the per-event-cell breakdown of each level-1
    node's aggregated entry edge. A node is an event cell when its cell is
    in event_cell_ids.
    """

    cell: np.ndarray        # int64
    q: np.ndarray           # float64
    cumulative: np.ndarray  # float64
    parent: np.ndarray      # int64
    starts: np.ndarray      # int64: 0, then the end of each level
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
        return len(self.cell)

    @property
    def max_depth_reached(self) -> int:
        return len(self.starts) - 1

    def depth_of(self, nodes: np.ndarray) -> np.ndarray:
        """The depth of each of the nodes, 1 on level 1."""
        return np.searchsorted(self.starts, nodes, side="right")

    def cumulative_for_cell(self, cell_id: int) -> float:
        """Sum of cumulative probabilities over all nodes holding a cell."""
        return float(self.cumulative[self.cell == cell_id].sum())

    def nodes(self):
        """One Node per node, in node order, one level's rows made at a time."""
        columns = (self.cell, self.q, self.cumulative, self.parent)
        for depth, (lo, hi) in enumerate(itertools.pairwise(self.starts.tolist()), 1):
            yield from (Node(depth, *row) for row in zip(*(c[lo:hi].tolist() for c in columns)))

    @functools.cached_property
    def _preorder(self) -> tuple[np.ndarray, np.ndarray]:
        """Each node's preorder number (from 0) and the number just past its
        subtree, then the root's, -1 and n_nodes, where parent -1 finds them."""
        parent, starts = self.parent, self.starts.tolist()
        size = np.ones(self.n_nodes + 1, dtype=np.int64)
        size[-1] += self.n_nodes   # a subtree holds its children's; the root's, every node
        for up, lo, hi in reversed(list(zip(starts, starts[1:], starts[2:]))):   # parents on up:lo
            size[up:lo] += np.bincount(parent[lo:hi] - up, size[lo:hi], lo - up).astype(np.int64)
        pre = np.full(self.n_nodes + 1, -1)
        for lo, hi in itertools.pairwise(starts):
            # A node follows its parent and its earlier siblings' subtrees; siblings sit together.
            before = np.cumsum(size[lo:hi]) - size[lo:hi]
            siblings = parent[lo:hi]
            pre[lo:hi] = pre[siblings] + 1 + before - before[np.searchsorted(siblings, siblings)]
        return pre, pre + size

    @functools.cached_property
    def _q_texts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each node's q as an index into two _texts arrays, the repr (as json
        writes a float) and the %g text of each distinct q, each made once."""
        q = np.sort(self.q)
        # Each value that differs from the one before it; not np.unique, which imports numpy.ma.
        q = q[np.diff(q, prepend=np.nan) != 0]
        return (np.searchsorted(q, self.q),
                _texts(repr(v) for v in q.tolist()), _texts(format(v, "g") for v in q.tolist()))

    def ranking(self, initial_distribution: np.ndarray | None = None) -> PathRanking:
        """All root-to-leaf paths in rank_paths' order, as arrays.

        One lexsort over the leaves: by score, highest first, then by
        depth, then by the leaf's rank in its level. A level's nodes are
        ranked by (cell, their parent's rank), so among paths of one length
        the ranks order them by cell ids from the leaf up.
        """
        rank = np.zeros(self.n_nodes + 1, dtype=np.int64)   # the root's last, where -1 finds it
        for lo, hi in itertools.pairwise(self.starts.tolist()):
            rank[lo + np.lexsort((rank[self.parent[lo:hi]], self.cell[lo:hi]))] = np.arange(hi - lo)
        leaf = np.ones(self.n_nodes, dtype=bool)
        leaf[self.parent[self.parent >= 0]] = False
        leaf = np.flatnonzero(leaf)
        score = self.cumulative[leaf]
        if initial_distribution is not None:
            score = score * np.asarray(initial_distribution, dtype=float)[self.cell[leaf]]
        order = np.lexsort((rank[leaf], self.depth_of(leaf), -score))
        return PathRanking(self, leaf[order], score[order])


_NO_NODES = (np.empty(0, dtype=np.int64), np.empty(0), np.empty(0), np.empty(0, dtype=np.int64))


def _along_paths(tree: ScenarioTree, leaf: np.ndarray, *values: np.ndarray) -> list[np.ndarray]:
    """For each node array in values, one row per leaf: the values of the
    nodes of its path from the leaf up, -1 past the path's end."""
    width = int(tree.depth_of(leaf).max()) if len(leaf) else 0
    out = [np.full((len(leaf), width), -1, dtype=v.dtype) for v in values]
    rows, node = np.arange(len(leaf)), leaf
    for column in range(width):
        for o, v in zip(out, values):
            o[rows, column] = v[node]
        node = tree.parent[node]
        below_root = node >= 0
        rows, node = rows[below_root], node[below_root]
    return out


def _texts(strings) -> np.ndarray:
    """The strings as an object array, then "": the text of _along_paths' -1 past a path's end."""
    return np.array([*strings, ""], dtype=object)


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

    levels = []   # each level's (cell, q, cumulative, parent) arrays
    if kept:
        cell, q = map(np.array, zip(*kept))
        levels.append((cell, q, q, np.full(len(kept), -1, dtype=np.int64)))
    starts = [0, *(len(level[0]) for level in levels)]
    is_event = np.zeros(tmap.n_cells, dtype=bool)
    is_event[list(ev_cells)] = True
    while levels and len(levels) < depth:
        level = _expand(levels[-1], starts[-2], tmap.predecessor_index, is_event, truncation,
                        node_budget - starts[-1])
        if level is None:
            raise BudgetError(f"scenario tree exceeded node budget {node_budget}")
        if not len(level[0]):
            break
        levels.append(level)
        starts.append(starts[-1] + len(level[0]))
    cell, q, cumulative, parent = map(np.concatenate, zip(_NO_NODES, *levels))

    # A mask, not np.unique, which imports numpy.ma on its first plain call.
    in_tree = np.zeros(tmap.n_cells, dtype=bool)
    in_tree[cell] = True
    cells = np.flatnonzero(in_tree)
    digits = np.stack(np.unravel_index(cells, tmap.spec.radices(), order="F"), axis=1) + 1
    L = tmap.spec.L
    return ScenarioTree(
        cell=cell,
        q=q,
        cumulative=cumulative,
        parent=parent,
        starts=np.array(starts, dtype=np.int64),
        entry_edges=[sorted(detail[source]) for source, _ in kept],
        coords={c: CellCoord(d[:L], d[L:]) for c, d in zip(cells.tolist(), digits.tolist())},
        event=event,
        event_cell_ids=ev_cells,
        depth=depth,
        truncation=truncation,
        map_simulator=tmap.simulator,
        map_seed=tmap.seed,
    )


def _expand(parents: tuple, first: int, index: CSR, is_event: np.ndarray, truncation: float,
            room: int) -> tuple | None:
    """The level below a level's (cell, q, cumulative, parent) arrays, its first
    node first, as the same arrays: every kept predecessor of each node
    outside the event set.

    Parents are expanded in chunks of about _EXPAND_CHUNK candidate
    children. Gives None once more than room children are kept.
    """
    cell, _, cumulative, _ = parents
    open_ = np.flatnonzero(~is_event[cell])
    start = index.indptr[cell[open_]]
    counts = index.indptr[cell[open_] + 1] - start
    ends = np.cumsum(counts)   # candidates of the parents up to each one
    pieces, kept, lo = [], 0, 0
    while lo < len(open_):
        base = int(ends[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(ends, base + _EXPAND_CHUNK, side="right")), lo + 1)
        n = counts[lo:hi]
        parent = np.repeat(open_[lo:hi], n)
        # Each candidate's position in the predecessor index: its parent's
        # start plus its place among the parent's candidates.
        first_candidate = ends[lo:hi] - n - base   # each parent's first candidate in the chunk
        at = np.arange(int(ends[hi - 1]) - base) + np.repeat(start[lo:hi] - first_candidate, n)
        q = index.data[at]
        product = cumulative[parent] * q
        keep = ~((product < truncation) | (product <= 0.0))
        kept += int(np.count_nonzero(keep))
        if kept > room:
            return None
        pieces.append((index.indices[at[keep]], q[keep], product[keep], parent[keep] + first))
        lo = hi
    return tuple(map(np.concatenate, zip(_NO_NODES, *pieces)))


@dataclass(frozen=True, slots=True)
class RankedPath:
    """Root-to-leaf path rendered oldest-first (deepest cell toward the event)."""

    cells: tuple[CellCoord, ...]
    cell_ids: tuple[int, ...]
    steps: tuple[float, ...]   # per-edge q, aligned with cells
    cumulative: float

    def render(self, event_label: str = "TopEvent") -> str:
        return " -> ".join([*(f"{c.label} (q={q:g})" for c, q in zip(self.cells, self.steps)),
                            event_label])


@dataclass(frozen=True, eq=False)
class PathRanking:
    """A tree's root-to-leaf paths, most probable first, as arrays.

    Path k ends at node leaf[k], so its length is the leaf's depth, and
    scores cumulative[k]: its leaf's cumulative, times the leaf cell's
    occupancy when ranked under an initial distribution.
    """

    tree: ScenarioTree
    leaf: np.ndarray
    cumulative: np.ndarray

    def __len__(self) -> int:
        return len(self.leaf)

    def paths(self, stop: int | None = None) -> list[RankedPath]:
        """The first stop paths, all by default, as RankedPaths."""
        tree, leaf = self.tree, self.leaf[:stop]
        cells, steps = (a.tolist() for a in _along_paths(tree, leaf, tree.cell, tree.q))
        coord = tree.coords.__getitem__
        return [RankedPath(tuple(map(coord, ids[:n])), tuple(ids[:n]), tuple(q[:n]), cumulative)
                for ids, q, n, cumulative in zip(cells, steps, tree.depth_of(leaf).tolist(),
                                                 self.cumulative[:stop].tolist())]


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


def _preorder_nodes(tree: ScenarioTree) -> np.ndarray:
    """The node at each preorder number: a stable sort merges one increasing run per level."""
    return np.argsort(tree._preorder[0][:-1], kind="stable")


def _walk(items: np.ndarray, texts):
    """A walk's texts, joined into one text per window of ROW_SLICE items;
    texts(a) gives the texts of the items a."""
    for lo in range(0, len(items), mapper.ROW_SLICE):
        yield "".join(texts(items[lo:lo + mapper.ROW_SLICE]))


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
    one cell share the text of their cell id, coordinate and event flag,
    and nodes of one q its repr, so per node only its cumulative and depth
    are formatted, plus the level-1 entry_edges. Each node gives the text
    before its children and the text after them, at the events where a
    preorder walk enters and leaves it; _walk makes them one window at a
    time, and write_json writes them as the root's text.
    """
    shared = {c: _node_text(c, list(coord.as_vector()), c in tree.event_cell_ids)
              for c, coord in tree.coords.items()}
    enter, mid, tail = ({c: text[j] for c, text in shared.items()} for j in range(3))
    after_sibling = {c: "," + text for c, text in enter.items()}
    (pre, end), (q_at, q_repr, _) = tree._preorder, tree._q_texts
    # The text from a node's cumulative to its event flag: node i's on level 1, else its depth's.
    n, n_1 = tree.n_nodes, len(tree.entry_edges)
    after_cumulative = np.array(
        [*(f',"depth":1,"entry_edges":{compact(edges)}' for edges in tree.entry_edges),
         *(f',"depth":{d}' for d in range(tree.max_depth_reached + 1))], dtype=object)

    def texts(items: np.ndarray) -> list[str]:
        window = np.empty(len(items), dtype=object)
        entered = items < n
        node = items[entered]
        first = (node == 0) | (tree.parent[node] != tree.parent[node - 1])   # of its siblings
        window[entered] = [enter[c] if f else after_sibling[c]
                           for c, f in zip(tree.cell[node].tolist(), first.tolist())]
        node = items[~entered] - n
        after = after_cumulative[np.where(node < n_1, node, n_1 + tree.depth_of(node))]
        window[~entered] = [f"{mid[c]}{cumulative!r}{d}{tail[c]}{q}}}"
                            for c, cumulative, d, q in zip(
                                tree.cell[node].tolist(), tree.cumulative[node].tolist(),
                                after.tolist(), q_repr[q_at[node]].tolist())]
        return window.tolist()

    # The walk enters a level-(k+1) node at its 2*pre-k-th event and leaves it
    # at its 2*end-(k+1)-th; item i + n is node i left.
    events = np.empty(2 * n, dtype=np.int64)
    for k, (lo, hi) in enumerate(itertools.pairwise(tree.starts.tolist())):
        events[2 * pre[lo:hi] - k] = np.arange(lo, hi)
        events[2 * end[lo:hi] - k - 1] = np.arange(lo + n, hi + n)
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
        "root": itertools.chain([root[0]], _walk(events, texts),
                                [f'{root[1]}1.0,"depth":0{root[2]}1.0}}']),
    }.items()))


def encode_ranked_paths(ranking: PathRanking):
    """The JSON text of every row of a run report's ranked_paths, most probable first.

    Each equals compact({"cells": its vectors, "steps", "cumulative",
    "rendered": path.render()}) of its ranked path. Per ROW_SLICE ranks,
    _along_paths gathers the paths' cells and q, and each piece of the rows
    is one gather from _texts made once per cell or per q.
    """
    tree = ranking.tree
    q_at, q_repr, q_g = tree._q_texts
    cells = np.array(sorted(tree.coords), dtype=np.int64)
    cell_at = np.searchsorted(cells, tree.cell)
    vector = [compact(list(tree.coords[c].as_vector())) for c in cells.tolist()]
    label = [encode_basestring_ascii(tree.coords[c].label)[1:-1] for c in cells.tolist()]
    # Each field's texts in a path's first column, which opens the field, and
    # in a later one, which follows a separator.
    cell_texts = _texts(f'{{"cells":[{t}' for t in vector), _texts(f",{t}" for t in vector)
    step_texts = (_texts(f',"rendered":"{t} (q=' for t in label),
                  _texts(f") -> {t} (q=" for t in label))   # closing the step before
    q_texts = (_texts(f') -> TopEvent","steps":[{t}' for t in q_repr[:-1].tolist()),
               _texts(f",{t}" for t in q_repr[:-1].tolist()))

    def columns(texts, at: np.ndarray) -> list[list[str]]:
        """A field's texts at the places at, one list per path column."""
        return [texts[0][at[0]].tolist(), *texts[1][at[1:]].tolist()]

    for lo in range(0, len(ranking), mapper.ROW_SLICE):
        leaf, score = (a[lo:lo + mapper.ROW_SLICE] for a in (ranking.leaf, ranking.cumulative))
        cell, q = (a.T for a in _along_paths(tree, leaf, cell_at, q_at))
        # The rows' pieces, one list per piece: the cells, the cumulative, the
        # rendered steps (each cell's text, then its q's), the steps, the end.
        steps = zip(columns(step_texts, cell), q_g[q].tolist())
        pieces = [*columns(cell_texts, cell),
                  [f'],"cumulative":{cumulative!r}' for cumulative in score.tolist()],
                  *itertools.chain.from_iterable(steps), *columns(q_texts, q),
                  itertools.repeat("]}")]
        yield from map("".join, zip(*pieces))


def tree_to_dot(tree: ScenarioTree):
    """Graphviz dot rendering; node labels give the cell vector and its q.

    Nodes are named n and their preorder number; _walk makes the text as it is read.
    """
    label = {c: f'label="{coord.label}\\nP=' for c, coord in tree.coords.items()}
    style = {c: '", style=dashed' if c in tree.event_cell_ids else '"' for c in tree.coords}
    (pre, _), (q_at, _, q_g) = tree._preorder, tree._q_texts

    def texts(node: np.ndarray) -> list[str]:
        above = [f"n{a}" if a >= 0 else "root" for a in pre[tree.parent[node]].tolist()]
        return [f'\t"n{p}" [{label[c]}{g}{style[c]}];\n\t"n{p}" -> "{a}";\n'
                for c, g, p, a in zip(tree.cell[node].tolist(), q_g[q_at[node]].tolist(),
                                      pre[node].tolist(), above)]

    return itertools.chain(["digraph scenario_tree {\n\trankdir=RL;\n"
                            '\tnode [shape=box, fontname="Helvetica"];\n'
                            '\t"root" [label="TopEvent", shape=doubleoctagon];\n'],
                           _walk(_preorder_nodes(tree), texts), ["}\n"])


def tree_to_text(tree: ScenarioTree):
    """Each node's line in preorder, indented by depth (cell, q, cumulative, depth), as read;
    an empty tree's text is one empty line."""
    label = {c: f"{coord.label} q=" for c, coord in tree.coords.items()}
    depths = range(tree.max_depth_reached + 1)
    indent, tail = ["  " * (d - 1) for d in depths], [f" depth={d}\n" for d in depths]
    q_at, _, q_g = tree._q_texts

    def texts(node: np.ndarray) -> list[str]:
        return [f"{indent[d]}{label[c]}{g} cumulative={cumulative:g}{tail[d]}"
                for c, g, cumulative, d in zip(tree.cell[node].tolist(), q_g[q_at[node]].tolist(),
                                               tree.cumulative[node].tolist(),
                                               tree.depth_of(node).tolist())]

    return itertools.chain(_walk(_preorder_nodes(tree), texts), [] if tree.n_nodes else ["\n"])
