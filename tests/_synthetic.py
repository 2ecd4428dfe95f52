"""Hand-built systems used as oracles: tiny specs, analytic maps, reference encoders and kernels."""

from __future__ import annotations

import numpy as np

from cellrisk.bpa import TopEvent
from cellrisk.cellspace import SpaceSpec
from cellrisk.mapper import TransitionMap
from cellrisk.vehicle import BrakeState


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


def reference_control(v, x, p):
    """Mode index and the commands of all modes (0 lane tracking, 1 following,
    2 light brake, 3 strong brake): the reference for vehicle._command, which
    gives the command of the row's mode alone."""
    c = p.target_x - x
    light = p.t_gap_des * v if p.fixed_light_clearance is None else p.fixed_light_clearance
    strong = light / 2.0
    mode = np.where(c > p.sensor_range, 0, np.where(c < strong, 3, np.where(c < light, 2, 1)))
    comf = p.comfort_accel
    margin = np.maximum(0.0, c - p.standstill_clearance)
    v_des = np.minimum(p.speed_limit, np.sqrt(2.0 * comf * margin))
    commands = np.empty((4,) + np.shape(c))
    commands[0] = np.clip(p.k_speed * (p.speed_limit - v), -comf, comf)
    commands[1] = np.clip(p.k_gap * (v_des - v), -comf, comf)
    commands[2] = p.light_accel
    commands[3] = p.strong_accel
    return mode, commands


def reference_step_many(p, xs: np.ndarray, n: tuple[int, ...], dt: float) -> np.ndarray:
    """One vehicle step of an (N, 6) batch, every mode's command built and the
    row's gathered on each substep: the reference for GroundVehicleModel.step_many."""
    delivery = BrakeState(n[0]).delivery
    h = dt / p.substeps
    omega = p.lateral_omega
    cols = np.asarray(xs, dtype=float).T.copy()
    v, vs, yr, x, y, yaw = cols
    rows = np.arange(len(xs))
    for _ in range(p.substeps):
        mode, commands = reference_control(v, x, p)
        a_cmd = commands[mode, rows]
        a_app = np.where(a_cmd < 0.0, a_cmd * delivery, a_cmd)
        v_new = np.maximum(0.0, v + h * a_app)
        x += h * 0.5 * (v + v_new)
        v[:] = v_new
        vs += h * (-(omega**2) * y - 2.0 * omega * vs)
        y += h * vs
        yr += h * (-(omega**2) * yaw - 2.0 * omega * yr)
        yaw += h * yr
    return np.ascontiguousarray(cols.T)
