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
import json
from dataclasses import dataclass, field

import numpy as np

from . import mapper
from .cellspace import CellCoord, SpaceSpec, coord_to_id, id_to_coord
from .mapper import BudgetError, TransitionMap, predecessors

__all__ = [
    "RankedPath",
    "ScenarioTree",
    "TopEvent",
    "TopEventError",
    "TreeNode",
    "backtrack",
    "event_cells",
    "event_probability",
    "forward_check",
    "rank_paths",
    "tree_from_dict",
    "tree_to_dict",
    "tree_to_dot",
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

    Intersection semantics: partially overlapping cells count. Only cells
    whose configuration is admissible are included. An empty result means
    the event is unreachable by construction.
    """
    event.validate_against(spec)
    widths = spec.widths
    per_dim: list[list[int]] = []
    for l in range(spec.L):
        lo_l, w = spec.lower[l], widths[l]
        admissible = []
        for j in range(1, spec.partitions[l] + 1):
            c_lo = lo_l + (j - 1) * w
            c_hi = c_lo + w
            if c_lo < event.upper[l] and c_hi > event.lower[l]:
                admissible.append(j)
        if not admissible:
            return set()
        per_dim.append(admissible)
    cells: set[int] = set()
    for j in itertools.product(*per_dim):
        for n in event.configs:
            cells.add(coord_to_id(CellCoord(j, n), spec))
    return cells


@dataclass(slots=True)
class TreeNode:
    """One search-tree node; the root is synthetic and carries no cell."""

    coord: CellCoord | None
    cell_id: int | None
    q: float                 # single-step probability into the parent
    cumulative: float
    depth: int
    is_event_cell: bool = False
    children: list[TreeNode] = field(default_factory=list)
    # Level-1 detail: per-event-cell breakdown of the aggregated entry edge.
    entry_edges: list[tuple[int, float]] | None = None

    def walk(self):
        """This node and its descendants, depth-first in child order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


@dataclass
class ScenarioTree:
    root: TreeNode
    spec: SpaceSpec | None   # None for a tree read back from its file
    event: TopEvent
    event_cell_ids: frozenset[int]
    depth: int
    truncation: float
    map_simulator: str
    map_seed: int

    def nodes(self):
        """All non-root nodes, depth-first in deterministic child order."""
        for node in self.root.walk():
            if node.coord is not None:
                yield node

    @property
    def n_nodes(self) -> int:
        return sum(1 for _ in self.nodes())

    def cumulative_for_cell(self, cell_id: int) -> float:
        """Sum of cumulative probabilities over all nodes holding a cell."""
        return sum(n.cumulative for n in self.nodes() if n.cell_id == cell_id)


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
    behind it.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not 0.0 <= truncation < 1.0:
        raise ValueError("truncation must be in [0, 1)")
    ev_cells = frozenset(event_cells(event, tmap.spec))
    # One coordinate per cell, shared by all of its nodes.
    coord_of = functools.cache(lambda cid: id_to_coord(cid, tmap.spec))

    root = TreeNode(coord=None, cell_id=None, q=1.0, cumulative=1.0, depth=0)
    count = 0

    entry: dict[int, float] = {}
    detail: dict[int, list[tuple[int, float]]] = {}
    for target in ev_cells:
        for source, q in predecessors(tmap, target):
            entry[source] = entry.get(source, 0.0) + q
            detail.setdefault(source, []).append((target, q))
    for source in entry:
        if entry[source] > 1.0:
            entry[source] = 1.0

    level: list[TreeNode] = []
    for source, q in sorted(entry.items(), key=lambda kv: (-kv[1], kv[0])):
        if q < truncation or q <= 0.0:
            continue
        node = TreeNode(
            coord=coord_of(source),
            cell_id=source,
            q=q,
            cumulative=q,
            depth=1,
            is_event_cell=source in ev_cells,
            entry_edges=sorted(detail[source]),
        )
        root.children.append(node)
        level.append(node)
        count += 1
        if count > node_budget:
            raise BudgetError(f"scenario tree exceeded node budget {node_budget}")

    for d in range(2, depth + 1):
        next_level: list[TreeNode] = []
        for parent in level:
            if parent.is_event_cell:
                continue  # the event is absorbing for the search
            for source, q in predecessors(tmap, parent.cell_id):
                cumulative = parent.cumulative * q
                if cumulative < truncation or cumulative <= 0.0:
                    continue
                node = TreeNode(
                    coord=coord_of(source),
                    cell_id=source,
                    q=q,
                    cumulative=cumulative,
                    depth=d,
                    is_event_cell=source in ev_cells,
                )
                parent.children.append(node)
                next_level.append(node)
                count += 1
                if count > node_budget:
                    raise BudgetError(
                        f"scenario tree exceeded node budget {node_budget}"
                    )
        level = next_level

    return ScenarioTree(
        root=root,
        spec=tmap.spec,
        event=event,
        event_cell_ids=ev_cells,
        depth=depth,
        truncation=truncation,
        map_simulator=tmap.metadata.simulator,
        map_seed=tmap.metadata.seed,
    )


@dataclass(frozen=True, slots=True)
class RankedPath:
    """Root-to-leaf path rendered oldest-first (deepest cell toward the event)."""

    cells: tuple[CellCoord, ...]
    cell_ids: tuple[int, ...]
    steps: tuple[float, ...]   # per-edge q, aligned with cells
    cumulative: float

    def render(self, event_label: str = "TopEvent") -> str:
        parts = [f"{c.label} (q={q:g})" for c, q in zip(self.cells, self.steps)]
        return " -> ".join(parts + [event_label])


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
    paths: list[RankedPath] = []

    def descend(node: TreeNode, chain: list[TreeNode]) -> None:
        chain.append(node)
        if not node.children:
            ordered = list(reversed(chain))
            weight = 1.0
            if initial_distribution is not None:
                weight = float(initial_distribution[ordered[0].cell_id])
            paths.append(
                RankedPath(
                    cells=tuple(n.coord for n in ordered),
                    cell_ids=tuple(n.cell_id for n in ordered),
                    steps=tuple(n.q for n in ordered),
                    cumulative=chain[-1].cumulative * weight,
                )
            )
        else:
            for child in node.children:
                descend(child, chain)
        chain.pop()

    for child in tree.root.children:
        descend(child, [])
    paths.sort(key=lambda p: (-p.cumulative, len(p.cells), p.cell_ids))
    return paths


def event_probability(
    tmap: TransitionMap, distribution: np.ndarray, event_ids, steps: int
) -> float:
    """Mass on the event cells after pushing a distribution steps forward."""
    dist = np.asarray(distribution, dtype=float)
    for _ in range(steps):
        # Looked up at call time, so a wrapper put on mapper.forward_step
        # (the benchmark's tracer) sees every push.
        dist = mapper.forward_step(tmap, dist)
    return float(dist[sorted(event_ids)].sum())


def forward_check(
    tmap: TransitionMap, tree: ScenarioTree, distribution: np.ndarray
) -> float:
    """Probability of landing in the event set after the tree's search depth.

    Pairs with the backward tree as a consistency oracle.
    """
    return event_probability(tmap, distribution, tree.event_cell_ids, tree.depth)


def tree_to_dict(tree: ScenarioTree) -> dict:
    """Structured document form of a tree (stable field order, versioned)."""

    def node_dict(node: TreeNode) -> dict:
        d: dict = {
            "coord": list(node.coord.as_vector()) if node.coord else None,
            "cell_id": node.cell_id,
            "q": node.q,
            "cumulative": node.cumulative,
            "depth": node.depth,
            "event_cell": node.is_event_cell,
            "children": [node_dict(c) for c in node.children],
        }
        if node.entry_edges is not None:
            d["entry_edges"] = [[t, q] for t, q in node.entry_edges]
        return d

    return {
        "format": TREE_FORMAT,
        "version": TREE_FORMAT_VERSION,
        "search_depth": tree.depth,
        "truncation": tree.truncation,
        "map_simulator": tree.map_simulator,
        "map_seed": tree.map_seed,
        "event": {
            "lower": list(tree.event.lower),
            "upper": list(tree.event.upper),
            "configs": sorted(list(c) for c in tree.event.configs),
        },
        "n_nodes": tree.n_nodes,
        "root": node_dict(tree.root),
    }


_NODE_FIELDS = (
    ("coord", list, "a list"),
    ("cell_id", int, "an integer"),
    ("q", (int, float), "a number"),
    ("cumulative", (int, float), "a number"),
    ("depth", int, "an integer"),
    ("event_cell", bool, "a boolean"),
    ("children", list, "a list"),
)
CUMULATIVE_RTOL = 1e-12


def _is(value, kind) -> bool:
    """isinstance, except that a JSON boolean is no number."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def tree_from_dict(doc: dict) -> ScenarioTree:
    """Inverse of tree_to_dict, checking every node where it enters.

    The file carries no space spec, so spec is None and event_cell_ids
    holds only the event cells that appear in the tree. Raises ValueError
    for a document that is not a scenario tree and for a node with a field
    of the wrong type, a depth other than its parent's plus one, q outside
    (0, 1], a cumulative other than its parent's times q (relative
    tolerance CUMULATIVE_RTOL) or a coordinate whose length is not L + M;
    the message names the node by its child positions from the root.
    KeyError or TypeError for a malformed header.
    """
    if not isinstance(doc, dict) or doc.get("format") != TREE_FORMAT:
        raise ValueError("not a scenario tree file")
    if doc.get("version") != TREE_FORMAT_VERSION:
        raise ValueError(f"unsupported tree version {doc.get('version')}")
    event = TopEvent(
        lower=doc["event"]["lower"],
        upper=doc["event"]["upper"],
        configs=frozenset(tuple(c) for c in doc["event"]["configs"]),
    )
    L = len(event.lower)
    widths = {len(c) for c in event.configs}
    if len(widths) != 1:
        raise ValueError("event configurations differ in length")
    width = L + widths.pop()
    # One coordinate per cell, shared by all of its nodes.
    coord_of = functools.cache(lambda vector: CellCoord(vector[:L], vector[L:]))

    def node(d: dict, parent: TreeNode, name: str) -> TreeNode:
        if not isinstance(d, dict):
            raise ValueError(f"node {name}: not an object")
        for key, kind, noun in _NODE_FIELDS:
            if key not in d:
                raise ValueError(f"node {name}: missing field {key!r}")
            if not _is(d[key], kind):
                raise ValueError(f"node {name}: {key} must be {noun}, got {d[key]!r}")
        where = f"node {name} (cell {d['cell_id']})"
        coord, q, cumulative = d["coord"], d["q"], d["cumulative"]
        if len(coord) != width or not all(_is(v, int) for v in coord):
            raise ValueError(f"{where}: coord must be {width} integers, got {coord!r}")
        if d["depth"] != parent.depth + 1:
            raise ValueError(f"{where}: depth {d['depth']}, expected {parent.depth + 1}")
        if not 0.0 < q <= 1.0:
            raise ValueError(f"{where}: q {q!r} outside (0, 1]")
        expected = parent.cumulative * q
        if not abs(cumulative - expected) <= CUMULATIVE_RTOL * expected:
            raise ValueError(
                f"{where}: cumulative {cumulative!r} is not parent cumulative x q = {expected!r}"
            )
        out = TreeNode(
            coord=coord_of(tuple(coord)),
            cell_id=d["cell_id"],
            q=q,
            cumulative=cumulative,
            depth=d["depth"],
            is_event_cell=d["event_cell"],
        )
        out.children = [node(c, out, f"{name}/{i}") for i, c in enumerate(d["children"])]
        if "entry_edges" in d:
            edges = d["entry_edges"]
            if not _is(edges, list) or not all(
                _is(e, list) and len(e) == 2 and _is(e[0], int) and _is(e[1], (int, float))
                for e in edges
            ):
                raise ValueError(f"{where}: entry_edges must be [cell id, q] pairs")
            out.entry_edges = [(t, q) for t, q in edges]
        return out

    root = TreeNode(coord=None, cell_id=None, q=1.0, cumulative=1.0, depth=0)
    root.children = [node(c, root, str(i)) for i, c in enumerate(doc["root"]["children"])]
    return ScenarioTree(
        root=root,
        spec=None,
        event=event,
        event_cell_ids=frozenset(n.cell_id for n in root.walk() if n.is_event_cell),
        depth=doc["search_depth"],
        truncation=doc["truncation"],
        map_simulator=doc["map_simulator"],
        map_seed=doc["map_seed"],
    )


def write_tree(tree: ScenarioTree, path: str) -> None:
    """Compact sorted-key JSON of tree_to_dict, encoded in one call.

    json.dumps without indent runs CPython's C encoder; json.dump to a file
    never does. Both give the same bytes.
    """
    text = json.dumps(tree_to_dict(tree), sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def tree_to_dot(tree: ScenarioTree, event_label: str = "TopEvent") -> str:
    """Graphviz dot rendering; node labels give the cell vector and its q."""
    lines = [
        "digraph scenario_tree {",
        "\trankdir=RL;",
        '\tnode [shape=box, fontname="Helvetica"];',
        f'\t"root" [label="{event_label}", shape=doubleoctagon];',
    ]
    counter = itertools.count()

    def emit(node: TreeNode, parent_name: str) -> None:
        name = f"n{next(counter)}"
        attrs = f'label="{node.coord.label}\\nP={node.q:g}"'
        if node.is_event_cell:
            attrs += ", style=dashed"
        lines.append(f'\t"{name}" [{attrs}];')
        lines.append(f'\t"{name}" -> "{parent_name}";')
        for child in node.children:
            emit(child, name)

    for child in tree.root.children:
        emit(child, "root")
    lines.append("}")
    return "\n".join(lines) + "\n"
