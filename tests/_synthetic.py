"""Hand-built systems used as oracles: tiny specs and analytic maps."""

from __future__ import annotations

import numpy as np

from cellrisk.bpa import TopEvent
from cellrisk.cellspace import SpaceSpec
from cellrisk.mapper import TransitionMap


def line_spec(n_cells: int, width: float = 1.0, states: int = 1) -> SpaceSpec:
    """1-D spec: n_cells unit-ish intervals starting at zero."""
    return SpaceSpec(
        names_x=("x",),
        names_n=tuple(f"c{m}" for m in range(1)),
        lower=(0.0,),
        upper=(n_cells * width,),
        partitions=(n_cells,),
        states=(states,),
    )


def chain_map(n_cells: int, absorb_from: int) -> tuple[TransitionMap, TopEvent]:
    """Deterministic right-shift chain; cells >= absorb_from self-loop.

    The event covers the absorbing block, so backward path sums and forward
    occupancy coincide.
    """
    spec = line_spec(n_cells)
    edges = {}
    for s in range(n_cells):
        if s >= absorb_from:
            edges[s] = [(s, 1.0)]
        else:
            edges[s] = [(s + 1, 1.0)]
    tmap = TransitionMap.from_edges(spec, edges)
    event = TopEvent(
        lower=(float(absorb_from),), upper=(float(n_cells),), configs=frozenset({(1,)})
    )
    return tmap, event


def leaky_chain_map(n_cells: int, absorb_from: int, p_fwd: float = 0.6) -> tuple[TransitionMap, TopEvent]:
    """Chain that moves forward with probability p_fwd, else stays put."""
    spec = line_spec(n_cells)
    edges = {}
    for s in range(n_cells):
        if s >= absorb_from:
            edges[s] = [(s, 1.0)]
        else:
            edges[s] = [(s, 1.0 - p_fwd), (s + 1, p_fwd)]
    tmap = TransitionMap.from_edges(spec, edges)
    event = TopEvent(
        lower=(float(absorb_from),), upper=(float(n_cells),), configs=frozenset({(1,)})
    )
    return tmap, event


def random_absorbing_map(
    n_cells: int, n_event: int, seed: int, fan_out: int = 3
) -> tuple[TransitionMap, TopEvent]:
    """Seeded random stochastic map whose top n_event cells absorb."""
    spec = line_spec(n_cells)
    rng = np.random.default_rng(seed)
    edges = {}
    for s in range(n_cells):
        if s >= n_cells - n_event:
            edges[s] = [(s, 1.0)]
            continue
        targets = rng.choice(n_cells, size=min(fan_out, n_cells), replace=False)
        weights = rng.random(len(targets))
        weights /= weights.sum()
        row = {}
        for t, w in zip(targets, weights):
            row[int(t)] = row.get(int(t), 0.0) + float(w)
        edges[s] = sorted(row.items())
    tmap = TransitionMap.from_edges(spec, edges)
    event = TopEvent(
        lower=(float(n_cells - n_event),),
        upper=(float(n_cells),),
        configs=frozenset({(1,)}),
    )
    return tmap, event


def ring_shift_map(n_cells: int) -> TransitionMap:
    """Doubly stochastic rotation: each cell moves wholly to the next, mod n."""
    spec = line_spec(n_cells)
    edges = {s: [((s + 1) % n_cells, 1.0)] for s in range(n_cells)}
    return TransitionMap.from_edges(spec, edges)


def tree_to_dict(tree) -> dict:
    """The tree file's document, node by node: the reference for write_tree's bytes.

    Built from the deepest level up, each node's children gathered by their
    parent index; the tree file is this document as compact sorted-key JSON.
    """
    below: list[dict] = []
    for k in reversed(range(len(tree.levels))):
        level = tree.levels[k]
        children: list[list[dict]] = [[] for _ in range(len(level.cell))]
        if k + 1 < len(tree.levels):
            for node, p in zip(below, tree.levels[k + 1].parent.tolist()):
                children[p].append(node)
        below = [
            {
                "coord": list(tree.coords[c].as_vector()),
                "cell_id": c,
                "q": q,
                "cumulative": cumulative,
                "depth": k + 1,
                "event_cell": c in tree.event_cell_ids,
                "children": kids,
            }
            for c, q, cumulative, kids in zip(
                level.cell.tolist(), level.q.tolist(), level.cumulative.tolist(), children)
        ]
    for node, edges in zip(below, tree.entry_edges):
        node["entry_edges"] = [[t, q] for t, q in edges]
    return {
        "format": "cellrisk-scenario-tree",
        "version": 1,
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
        "root": {"coord": None, "cell_id": None, "q": 1.0, "cumulative": 1.0, "depth": 0,
                 "event_cell": False, "children": below},
    }
