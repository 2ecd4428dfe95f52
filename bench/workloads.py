"""Workload generator: run configs derived from the shipped YAMLs and a seed.

The program only ever receives the YAML files written here; the seed sets
the map build seed and picks the forward-check start cell. Each workload
is described once, in WORKLOADS, with its config deltas against the shipped
file, the commands one pass runs, why it was chosen, and the layer it
stresses and the one it bypasses. A workload whose pass has no build-map
builds its map in set-up; one with a "depth" searches to it with --depth.
"""

from __future__ import annotations

from pathlib import Path

import yaml

DEFAULT_SEED = 20240811

WORKLOADS = {
    "baseline": {
        "base": "configs/agv_baseline.yaml",
        "deltas": {},
        "smoke_deltas": {"numberOfCells": [5, 1, 1, 30, 1, 1, 3], "samples_per_cell": 20},
        "commands": ["build-map", "run-bpa", "validate", "forward-check"],
        "why": "the reference scenario as users run it: 2250 cells x 200 samples, depth 2",
        "stresses": "vehicle.step_many (75% of build-map) and the scalar oracle in validate",
        "bypasses": "deep backward search (583 nodes)",
    },
    # Not in BENCHMARK.json's workload list: with three workloads the run budget
    # leaves two passes per run, too few for a steady median on a 2-core host
    # whose speed drifts; run it with --workload fine-grid or all.
    "fine-grid": {
        "base": "configs/agv_modified.yaml",
        "deltas": {
            "numberOfCells": [10, 1, 1, 150, 1, 1, 3],
            "samples_per_cell": 100,
        },
        "smoke_deltas": {"numberOfCells": [4, 1, 1, 40, 1, 1, 3], "samples_per_cell": 10},
        "commands": ["build-map", "run-bpa", "validate", "forward-check"],
        "why": "same 450k stepped rows as baseline over 2x the cells, so per-cell and "
               "per-edge costs (binning, jump expansion, transpose, save/load) move apart",
        "stresses": "mapper per-cell/per-edge work and map save/load",
        "bypasses": "per-row simulator cost (rows equal baseline's)",
    },
    "deep-search": {
        "base": "configs/agv_baseline.yaml",
        "deltas": {},
        "smoke_deltas": {"numberOfCells": [5, 1, 1, 30, 1, 1, 3], "samples_per_cell": 20},
        "depth": 6,
        "smoke_depth": 4,
        # The search size moves +-5% with the map seed (39k-43k nodes over seeds
        # 1-8), which would read as run-to-run spread; the shipped map keeps it at
        # 44.5k nodes. --seed still picks the forward-check start cell.
        "shipped_map_seed": True,
        "commands": ["run-bpa", "forward-check"],   # run-bpa --depth 6, forward-check --steps 6
        "why": "backward search, path ranking and tree/report export at depth 6 on a map "
               "built once in set-up; catches a map change that slows predecessors()",
        "stresses": "bpa.backtrack, rank_paths, write_tree and report assembly",
        "bypasses": "map building (done once in set-up)",
    },
}


def make_config(root: Path, workload: str, seed: int, smoke: bool = False) -> dict:
    """The workload's run config: the shipped YAML plus its deltas and seed."""
    spec = WORKLOADS[workload]
    with open(root / spec["base"], encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    cfg.update(spec["deltas"])
    if smoke:
        cfg.update(spec["smoke_deltas"])
    if not spec.get("shipped_map_seed"):
        cfg["seed"] = int(seed)
    cfg["workers"] = 1
    return cfg


def search_depth(workload: str, cfg: dict, smoke: bool = False) -> int:
    """Depth one pass searches to (and the forward-check horizon)."""
    spec = WORKLOADS[workload]
    if smoke and "smoke_depth" in spec:
        return spec["smoke_depth"]
    return spec.get("depth", int(cfg["search_depth"]))


def write_config(cfg: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=False)
