"""Command-line orchestration: config parsing, map builds, searches, reports.

The configuration file is YAML keyed by the discretization's natural field
names (numProcessVariables, variableUpperBounds, ...) so a tabular system
description transcribes directly; artifact-level settings (simulator, dt,
seed, ...) use snake_case keys. See the project README for the schema and
the documented exit codes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import NoReturn

import click
import numpy as np
import yaml

from . import bpa as bpa_mod
from . import configuration as config_mod
from . import mapper as mapper_mod
from . import oracle as oracle_mod
from .bpa import (
    TopEvent,
    backtrack,
    event_cells,
    rank_paths,
    tree_from_dict,
    tree_to_dot,
    write_tree,
)
from .cellspace import SpaceSpec, id_to_coord
from .configuration import ConfigTransitionModel, component_matrix_from_rows
from .mapper import (
    BudgetError,
    DynamicsModel,
    MapFormatError,
    TransitionMap,
    build_map,
    load_map,
    save_map,
)
from .vehicle import GroundVehicleModel, ScenarioParams, make_case_study

__all__ = [
    "EXIT_OK",
    "EXIT_NO_PATHS",
    "EXIT_CONFIG_ERROR",
    "EXIT_VALIDATION_FAILURE",
    "EXIT_BUDGET_ERROR",
    "ConfigError",
    "RunConfig",
    "SIMULATORS",
    "load_config",
    "main",
]

EXIT_OK = 0
EXIT_NO_PATHS = 2
EXIT_CONFIG_ERROR = 3
EXIT_VALIDATION_FAILURE = 4
EXIT_BUDGET_ERROR = 5

REPORT_FORMAT = "cellrisk-run-report"
REPORT_FORMAT_VERSION = 1


class ConfigError(ValueError):
    """Raised with the full list of configuration problems."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


def _parse_number(value: object, where: str, problems: list[str]) -> float:
    """Accept plain numbers (not booleans) plus pi expressions like 'pi/3', '-pi/3'."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str):
        text = value.strip().replace(" ", "")
        sign = 1.0
        if text.startswith("-"):
            sign = -1.0
            text = text[1:]
        if text.startswith("0-"):  # tolerated "0-pi/3" spelling
            sign = -1.0
            text = text[2:]
        try:
            if text == "pi":
                return sign * math.pi
            if text.startswith("pi/"):
                return sign * math.pi / float(text[3:])
            if "/" in text:
                num, den = text.split("/", 1)
                return sign * float(num) / float(den)
            return sign * float(text)
        except (ValueError, ZeroDivisionError):
            pass
    problems.append(f"{where}: cannot interpret {value!r} as a number")
    return math.nan


_REQUIRED = object()
_INT = ((int,), "an integer")
_STR = ((str,), "a string")
_LIST = ((list,), "a list")
_MAPPING = ((dict, type(None)), "a mapping")
_NUMBER = ((int, float), "a number")
_NUMBER_OR_NULL = ((int, float, type(None)), "a number or null")


def _check_type(value: object, kind: tuple[tuple[type, ...], str], where: str,
                problems: list[str]):
    """value if it is an instance of kind's types (bools are not integers)."""
    types, name = kind
    if isinstance(value, types) and not (isinstance(value, bool) and bool not in types):
        return value
    problems.append(f"{where} must be {name}, got {value!r}")
    return None


@dataclass
class RunConfig:
    """Normalized run configuration; all cross-field checks already applied."""

    spec: SpaceSpec
    config_model: ConfigTransitionModel
    event: TopEvent
    simulator: str
    simulator_params: dict
    dt: float
    samples_per_cell: int
    search_depth: int
    truncation: float
    seed: int
    node_budget: int
    workers: int
    sample_budget: int
    warnings: list[str] = field(default_factory=list)

    def normalized_dict(self) -> dict:
        return {
            "numProcessVariables": self.spec.L,
            "processVariablesNames": list(self.spec.names_x),
            "numSystemComponents": self.spec.M,
            "systemComponentNames": list(self.spec.names_n),
            "systemComponentStates": list(self.spec.states),
            "variableUpperBounds": list(self.spec.upper),
            "variableLowerBounds": list(self.spec.lower),
            "numberOfCells": list(self.spec.partitions),
            "sysConfTransProb": [
                [[float(v) for v in row] for row in m.entries]
                for m in self.config_model.matrices
            ],
            "eventUpperBounds": list(self.event.upper),
            "eventLowerBounds": list(self.event.lower),
            "eventConfigs": sorted(list(c) for c in self.event.configs),
            "simulator": self.simulator,
            "simulator_params": self.simulator_params,
            "dt": self.dt,
            "samples_per_cell": self.samples_per_cell,
            "search_depth": self.search_depth,
            "truncation": self.truncation,
            "seed": self.seed,
            "node_budget": self.node_budget,
            "workers": self.workers,
            "sample_budget": self.sample_budget,
        }


def _agv_factory(variant: str):
    def build(params: dict) -> DynamicsModel:
        case = make_case_study(variant)
        scenario = dataclasses.replace(case.params, **params) if params else case.params
        return GroundVehicleModel(scenario, name=f"agv-{variant}")

    return build


class LinearDriftModel(DynamicsModel):
    """Constant-velocity drift per dimension; handy demo and test simulator."""

    name = "linear-drift"

    def __init__(self, velocity):
        self.velocity = np.asarray(velocity, dtype=float)

    def step_many(self, xs, n, dt):
        return np.asarray(xs, dtype=float) + self.velocity * dt


class IdentityModel(DynamicsModel):
    """Fixed-point dynamics; every state maps to itself."""

    name = "identity"

    def step_many(self, xs, n, dt):
        return np.array(xs, dtype=float)


SIMULATORS = {
    "agv-baseline": _agv_factory("baseline"),
    "agv-modified": _agv_factory("modified"),
    "linear-drift": lambda params: LinearDriftModel(params["velocity"]),
    "identity": lambda params: IdentityModel(),
}

# The simulator_params each simulator takes, with the kind of each value; the
# vehicle takes every ScenarioParams field, typed by its default.
_AGV_PARAMS = {
    f.name: _INT if isinstance(f.default, int) else
    _NUMBER_OR_NULL if f.default is None else _NUMBER
    for f in dataclasses.fields(ScenarioParams)
}
_SIMULATOR_PARAMS = {
    "agv-baseline": _AGV_PARAMS,
    "agv-modified": _AGV_PARAMS,
    "linear-drift": {"velocity": _LIST},
    "identity": {},
}


def _simulator_param_problems(simulator: str, params: dict, L: int) -> list[str]:
    """Every problem of a simulator_params mapping for a registered simulator."""
    problems: list[str] = []
    kinds = _SIMULATOR_PARAMS[simulator]
    for key, value in params.items():
        where = f"simulator_params.{key}"
        if key not in kinds:
            problems.append(f"{where} is not a parameter of {simulator}; "
                            f"known: {sorted(kinds)}")
            continue
        if _check_type(value, kinds[key], where, problems) is None:
            continue
        if key == "velocity":
            if len(value) != L:
                problems.append(f"{where} has {len(value)} entries, expected {L}")
            for v in value:
                if _check_type(v, _NUMBER, where, problems) is not None and not math.isfinite(v):
                    problems.append(f"{where} entries must be finite, got {v}")
        elif key == "substeps" and value < 1:
            problems.append(f"{where} must be >= 1, got {value}")
        elif isinstance(value, float) and not math.isfinite(value):
            problems.append(f"{where} must be finite, got {value}")
    if simulator == "linear-drift" and "velocity" not in params:
        problems.append("simulator_params.velocity is required by linear-drift")
    return problems


def load_config(path: str) -> RunConfig:
    """Parse and fully validate a run configuration file.

    Every detected problem is collected and reported together rather than
    stopping at the first.
    """
    with open(path, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError([f"{path}: top level must be a mapping"])

    problems: list[str] = []
    warnings: list[str] = []

    def field_of(key: str, kind: tuple[tuple[type, ...], str], default=_REQUIRED):
        """raw[key] (or default) if it has the expected type, else a problem."""
        if key not in raw:
            if default is _REQUIRED:
                problems.append(f"missing required field {key!r}")
                return None
            return default
        return _check_type(raw[key], kind, key, problems)

    L = field_of("numProcessVariables", _INT)
    M = field_of("numSystemComponents", _INT)
    names_x = field_of("processVariablesNames", _LIST)
    names_n = field_of("systemComponentNames", _LIST)
    states = field_of("systemComponentStates", _LIST)
    uppers = field_of("variableUpperBounds", _LIST)
    lowers = field_of("variableLowerBounds", _LIST)
    cells = field_of("numberOfCells", _LIST)
    trans = field_of("sysConfTransProb", _LIST)
    ev_upper = field_of("eventUpperBounds", _LIST)
    ev_lower = field_of("eventLowerBounds", _LIST)
    ev_configs = field_of("eventConfigs", _LIST, None)
    simulator = field_of("simulator", _STR)
    for key, items in (("systemComponentStates", states), ("numberOfCells", cells)):
        for k, v in enumerate(items or []):
            _check_type(v, _INT, f"{key} entry {k + 1}", problems)
    for k, c in enumerate(ev_configs or []):
        if _check_type(c, _LIST, f"eventConfigs entry {k + 1}", problems) is not None:
            for v in c:
                _check_type(v, _INT, f"eventConfigs entry {k + 1}", problems)

    dt = _parse_number(raw.get("dt", 1.0), "dt", problems)
    samples = field_of("samples_per_cell", _INT, mapper_mod.DEFAULT_SAMPLES_PER_CELL)
    depth = field_of("search_depth", _INT, 1)
    truncation = _parse_number(raw.get("truncation", 0.0), "truncation", problems)
    seed = field_of("seed", _INT, 0)
    node_budget = field_of("node_budget", _INT, bpa_mod.DEFAULT_NODE_BUDGET)
    workers = field_of("workers", _INT, 1)
    sample_budget = field_of("sample_budget", _INT, mapper_mod.DEFAULT_SAMPLE_BUDGET)
    sim_params = field_of("simulator_params", _MAPPING, None) or {}

    if problems:
        raise ConfigError(problems)

    if len(names_x) != L:
        problems.append(f"processVariablesNames has {len(names_x)} entries, expected {L}")
    if len(names_n) != M:
        problems.append(f"systemComponentNames has {len(names_n)} entries, expected {M}")
    if len(states) != M:
        problems.append(f"systemComponentStates has {len(states)} entries, expected {M}")
    for key, vec in (("variableUpperBounds", uppers), ("variableLowerBounds", lowers)):
        if len(vec) != L:
            problems.append(f"{key} has {len(vec)} entries, expected {L}")

    # numberOfCells may carry a trailing configuration-count shorthand.
    partitions = list(cells)
    if len(partitions) == L + 1:
        trailing = int(partitions[-1])
        partitions = partitions[:-1]
        expected = math.prod(int(s) for s in states) if len(states) == M else None
        if expected is not None and trailing != expected:
            warnings.append(
                f"numberOfCells trailing entry {trailing} does not match the "
                f"configuration count {expected} implied by systemComponentStates"
            )
    elif len(partitions) != L:
        problems.append(
            f"numberOfCells has {len(partitions)} entries, expected {L} or {L + 1}"
        )

    upper_v = [_parse_number(v, "variableUpperBounds", problems) for v in uppers[:L]]
    lower_v = [_parse_number(v, "variableLowerBounds", problems) for v in lowers[:L]]

    if simulator not in SIMULATORS:
        problems.append(
            f"unknown simulator {simulator!r}; registered: {sorted(SIMULATORS)}"
        )
    else:
        problems += _simulator_param_problems(simulator, sim_params, L)
    if dt != dt or dt <= 0:
        problems.append(f"dt must be positive, got {dt}")
    if samples < 1:
        problems.append("samples_per_cell must be >= 1")
    for key, value in (("node_budget", node_budget), ("sample_budget", sample_budget),
                       ("workers", workers)):
        if value < 1:
            problems.append(f"{key} must be >= 1, got {value}")
    if seed < 0:
        problems.append(f"seed must be >= 0, got {seed}")
    if depth < 1:
        problems.append("search_depth must be >= 1")
    if not 0.0 <= truncation < 1.0:
        problems.append("truncation must be in [0, 1)")

    if problems:
        raise ConfigError(problems)

    try:
        spec = SpaceSpec(
            names_x=tuple(str(s) for s in names_x),
            names_n=tuple(str(s) for s in names_n),
            lower=tuple(lower_v),
            upper=tuple(upper_v),
            partitions=tuple(int(p) for p in partitions),
            states=tuple(int(s) for s in states),
        )
    except ValueError as exc:
        raise ConfigError([f"space specification: {exc}"]) from exc

    # Transition matrices: for one component a bare matrix is accepted.
    matrices_raw = trans
    head = matrices_raw[0] if matrices_raw else None
    if M == 1 and isinstance(head, list) and head and not isinstance(head[0], (list, tuple)):
        matrices_raw = [matrices_raw]
    if len(matrices_raw) != M:
        raise ConfigError(
            [f"sysConfTransProb has {len(matrices_raw)} matrices, expected {M}"]
        )
    comps = []
    for m, rows in enumerate(matrices_raw):
        try:
            comp = component_matrix_from_rows(rows, component_index=m)
        except (TypeError, ValueError) as exc:
            raise ConfigError([f"sysConfTransProb component {m}: {exc}"]) from exc
        if comp.size != spec.states[m]:
            raise ConfigError(
                [
                    f"sysConfTransProb component {m} is {comp.size}x{comp.size}, "
                    f"expected {spec.states[m]}x{spec.states[m]}"
                ]
            )
        comps.append(comp)
    model = ConfigTransitionModel(matrices=tuple(comps))
    issues = config_mod.validate(model)
    if issues:
        raise ConfigError([f"sysConfTransProb: {msg}" for msg in issues])

    # Event bounds: L entries, or L+1 with a trailing configuration range.
    ev_u = list(ev_upper)
    ev_l = list(ev_lower)
    configs: frozenset[tuple[int, ...]] | None = None
    if ev_configs is not None:
        configs = frozenset(tuple(c) for c in ev_configs)
    if len(ev_u) == L + 1 and len(ev_l) == L + 1:
        if configs is None:
            if M != 1:
                raise ConfigError(
                    ["trailing event-bound configuration shorthand needs M == 1; "
                     "use eventConfigs instead"]
                )
            lo_idx = _check_type(ev_l[-1], _INT, "eventLowerBounds configuration entry", problems)
            hi_idx = _check_type(ev_u[-1], _INT, "eventUpperBounds configuration entry", problems)
            if problems:
                raise ConfigError(problems)
            configs = frozenset((i,) for i in range(lo_idx, hi_idx + 1))
        ev_u, ev_l = ev_u[:-1], ev_l[:-1]
    if len(ev_u) != L or len(ev_l) != L:
        raise ConfigError(
            [f"event bounds must have {L} or {L + 1} entries, got "
             f"{len(ev_u)}/{len(ev_l)}"]
        )
    if configs is None:
        configs = frozenset(
            tuple(c) for c in np.ndindex(*spec.states)
        )
        configs = frozenset(tuple(v + 1 for v in c) for c in configs)
    ev_u_v = [_parse_number(v, "eventUpperBounds", problems) for v in ev_u]
    ev_l_v = [_parse_number(v, "eventLowerBounds", problems) for v in ev_l]
    if problems:
        raise ConfigError(problems)
    try:
        event = TopEvent(lower=tuple(ev_l_v), upper=tuple(ev_u_v), configs=configs)
        event.validate_against(spec)
    except ValueError as exc:
        raise ConfigError([f"event definition: {exc}"]) from exc

    return RunConfig(
        spec=spec,
        config_model=model,
        event=event,
        simulator=str(simulator),
        simulator_params=dict(sim_params),
        dt=float(dt),
        samples_per_cell=samples,
        search_depth=depth,
        truncation=truncation,
        seed=seed,
        node_budget=node_budget,
        workers=workers,
        sample_budget=sample_budget,
        warnings=warnings,
    )


def _make_simulator(cfg: RunConfig) -> DynamicsModel:
    return SIMULATORS[cfg.simulator](cfg.simulator_params)


def _below(*minimums: tuple[str, int | None, int]) -> list[str]:
    """A problem for every (flag, value, minimum) given with a value below its minimum."""
    return [f"{flag} must be >= {low}, got {value}"
            for flag, value, low in minimums if value is not None and value < low]


def _unwritable(*outputs: tuple[str, str | None]) -> list[str]:
    """A problem for every (flag, path) given that cannot be written as a file."""
    problems = []
    for flag, path in outputs:
        if path is None:
            continue
        full = os.path.abspath(path)
        if os.path.isdir(full):
            problems.append(f"{flag} {path!r} is a directory")
        elif not os.path.isdir(os.path.dirname(full)):
            problems.append(f"{flag} {path!r}: directory does not exist")
    return problems


def _fail(kind: str, problems: list[str], code: int = EXIT_CONFIG_ERROR) -> NoReturn:
    """Name every problem on stderr and exit with a documented code."""
    for p in problems:
        click.echo(f"{kind} error: {p}", err=True)
    sys.exit(code)


def _load_inputs(config_path: str, map_path: str) -> tuple[RunConfig, TransitionMap]:
    """Config and map of a search command; exit 3 if either is malformed."""
    try:
        cfg = load_config(config_path)
        tmap = load_map(map_path)
        _check_spec_match(cfg, tmap)
    except ConfigError as exc:
        _fail("config", exc.problems)
    except MapFormatError as exc:
        _fail("map", [str(exc)])
    return cfg, tmap


def _echo_warnings(cfg: RunConfig) -> None:
    for w in cfg.warnings:
        click.echo(f"warning: {w}", err=True)


def _check_spec_match(cfg: RunConfig, tmap: TransitionMap) -> None:
    if tmap.spec != cfg.spec:
        raise ConfigError(
            ["map spec does not match config spec; rebuild the map for this config"]
        )


@click.group()
def main() -> None:
    """Cell-to-cell risk mapping and backtracking scenario search."""


@main.command("build-map")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--samples", type=int, default=None, help="Override samples per cell.")
@click.option("--workers", type=int, default=None, help="Override worker count.")
def build_map_cmd(config_path, out_path, seed, samples, workers) -> None:
    """Build the transition map for a configuration and persist it."""
    if flags := (_below(("--seed", seed, 0), ("--samples", samples, 1), ("--workers", workers, 1))
                 + _unwritable(("--out", out_path))):
        _fail("option", flags)
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        _fail("config", exc.problems)
    _echo_warnings(cfg)
    model = _make_simulator(cfg)
    t0 = time.perf_counter()
    try:
        tmap = build_map(
            model,
            cfg.spec,
            cfg.config_model,
            dt=cfg.dt,
            samples=samples if samples is not None else cfg.samples_per_cell,
            seed=seed if seed is not None else cfg.seed,
            workers=workers if workers is not None else cfg.workers,
            sample_budget=cfg.sample_budget,
        )
    except BudgetError as exc:
        click.echo(f"budget error: {exc}", err=True)
        sys.exit(EXIT_BUDGET_ERROR)
    elapsed = time.perf_counter() - t0
    save_map(tmap, out_path)
    click.echo(
        f"built map: {tmap.n_cells} sources, {tmap.n_edges} edges, "
        f"exterior mass {tmap.total_exterior_mass():.6g}, {elapsed:.1f}s -> {out_path}"
    )


@main.command("run-bpa")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--map", "map_path", required=True, type=click.Path(exists=True))
@click.option("--out-tree", type=click.Path(), default=None)
@click.option("--out-graph", type=click.Path(), default=None)
@click.option("--out-report", type=click.Path(), default=None)
@click.option("--epsilon", type=float, default=None, help="Override truncation.")
@click.option("--depth", type=int, default=None, help="Override search depth.")
@click.option("--budget", type=int, default=None, help="Override node budget.")
def run_bpa_cmd(
    config_path, map_path, out_tree, out_graph, out_report, epsilon, depth, budget
) -> None:
    """Backtrack from the Top Event and export tree, graph and report."""
    flags = _below(("--depth", depth, 1), ("--budget", budget, 1))
    if epsilon is not None and not 0.0 <= epsilon < 1.0:
        flags.insert(0, f"--epsilon must be in [0, 1), got {epsilon}")
    flags += _unwritable(("--out-tree", out_tree), ("--out-graph", out_graph),
                         ("--out-report", out_report))
    if flags:
        _fail("option", flags)
    cfg, tmap = _load_inputs(config_path, map_path)
    _echo_warnings(cfg)
    t0 = time.perf_counter()
    try:
        tree = backtrack(
            tmap,
            cfg.event,
            depth=depth if depth is not None else cfg.search_depth,
            truncation=epsilon if epsilon is not None else cfg.truncation,
            node_budget=budget if budget is not None else cfg.node_budget,
        )
    except BudgetError as exc:
        click.echo(f"budget error: {exc}", err=True)
        sys.exit(EXIT_BUDGET_ERROR)
    t1 = time.perf_counter()
    paths = rank_paths(tree)
    t2 = time.perf_counter()
    nodes = list(tree.nodes())

    if out_tree:
        write_tree(tree, out_tree)
    if out_graph:
        with open(out_graph, "w", encoding="utf-8") as fh:
            fh.write(tree_to_dot(tree))
    if out_report:
        # The report's fields in sorted-key order: these, then the rows,
        # written in slices as they are encoded, then the timings and the rest.
        head = {
            "config": cfg.normalized_dict(),
            "format": REPORT_FORMAT,
            "map": {
                "path": map_path,
                "sources": tmap.n_cells,
                "edges": tmap.n_edges,
                "exterior_mass": tmap.total_exterior_mass(),
                "simulator": tmap.metadata.simulator,
                "seed": tmap.metadata.seed,
            },
        }
        compact = {"sort_keys": True, "separators": (",", ":")}
        with open(out_report, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(head, **compact)[:-1] + ',"ranked_paths":')
            fh.writelines(bpa_mod.encode_ranked_paths(paths))
            tail = {
                # export_seconds covers the tree and graph writes and the
                # report's rows, not the report's other fields
                "timings": {"search_seconds": t1 - t0, "rank_seconds": t2 - t1,
                            "export_seconds": time.perf_counter() - t2},
                "tree": {
                    "nodes": len(nodes),
                    "paths": len(paths),
                    "max_depth_reached": max((n.depth for n in nodes), default=0),
                    "event_cells": len(tree.event_cell_ids),
                },
                "version": REPORT_FORMAT_VERSION,
            }
            fh.write("," + json.dumps(tail, **compact)[1:] + "\n")

    click.echo(f"tree: {len(nodes)} nodes, {len(paths)} ranked paths")
    for p in paths[:10]:
        click.echo(f"  P={p.cumulative:.6g}  {p.render()}")
    if not nodes:
        click.echo("no risk-significant paths lead to the Top Event")
        sys.exit(EXIT_NO_PATHS)
    sys.exit(EXIT_OK)


def _duality_selfcheck() -> list[str]:
    """Built-in backward/forward consistency check on a synthetic system."""
    failures = []
    spec = SpaceSpec(
        names_x=("x",), names_n=("c",),
        lower=(0.0,), upper=(10.0,), partitions=(10,), states=(1,),
    )
    rng = np.random.default_rng(7)
    edges = {}
    for s in range(10):
        if s >= 8:
            edges[s] = [(s, 1.0)]  # absorbing event block
            continue
        targets = sorted(rng.choice(10, size=3, replace=False))
        weights = rng.random(3)
        weights /= weights.sum()
        edges[s] = [(int(t), float(w)) for t, w in zip(targets, weights)]
    tmap = TransitionMap.from_edges(spec, edges)
    event = TopEvent(lower=(8.0,), upper=(10.0,), configs=frozenset({(1,)}))
    tree = backtrack(tmap, event, depth=3, truncation=0.0)
    for cid in range(10):
        total = tree.cumulative_for_cell(cid)
        dist = np.zeros(11)
        dist[cid] = 1.0
        fwd = bpa_mod.forward_check(tmap, tree, dist)
        if abs(total - fwd) > 1e-9:
            failures.append(
                f"duality: cell {cid} backward sum {total!r} != forward {fwd!r}"
            )
    return failures


@main.command("validate")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--map", "map_path", required=True, type=click.Path(exists=True))
@click.option("--oracle-trials", type=int, default=2000, show_default=True)
def validate_cmd(config_path, map_path, oracle_trials) -> None:
    """Run invariant suites and oracle cross-checks; nonzero exit on failure."""
    if flags := _below(("--oracle-trials", oracle_trials, 1)):
        _fail("option", flags)
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        _fail("config", exc.problems)
    failures: list[str] = []

    issues = config_mod.validate(cfg.config_model)
    failures += [f"config-model: {m}" for m in issues]

    try:
        tmap = load_map(map_path, check=False)  # rows are checked below, each named
    except MapFormatError as exc:
        _fail("map", [str(exc)], EXIT_VALIDATION_FAILURE)
    if tmap.spec != cfg.spec:
        failures.append("spec-echo: map spec differs from config spec")

    sums = tmap.row_sums()
    for s in np.flatnonzero(np.abs(sums - 1.0) > mapper_mod.ROW_SUM_TOL):
        failures.append(f"stochasticity: source {s} outgoing mass {float(sums[s])!r}")
    # Transpose integrity: the predecessor index holds exactly the cell-to-cell
    # entries of the matrix, transposed. Both sides are put in (target, source)
    # order and compared entry by entry.
    C = tmap.n_cells
    source, target = tmap.matrix.row_ids(), tmap.matrix.indices
    inner = (source < C) & (target < C)
    edges = [a[inner] for a in (target, source, tmap.matrix.data)]
    index = tmap.predecessor_index
    stored = [index.row_ids(), index.indices, index.data]
    edges = [a[np.lexsort(edges[1::-1])] for a in edges]
    stored = [a[np.lexsort(stored[1::-1])] for a in stored]
    if not all(map(np.array_equal, edges, stored)):
        failures.append("transpose: predecessor index is not the map's transpose")

    failures += _duality_selfcheck()

    if not failures and cfg.simulator in SIMULATORS:
        model = _make_simulator(cfg)
        cell = id_to_coord(0, cfg.spec)
        row = mapper_mod.estimate_g(cell, model, cfg.spec, cfg.dt, oracle_trials, cfg.seed + 1)
        emp = oracle_mod.empirical_transition(
            model, cell, cfg.spec, cfg.dt, oracle_trials, cfg.seed + 2
        )
        row_d = {(t if isinstance(t, tuple) else "exterior"): float(g) for t, g in row}
        emp_d = {(t if isinstance(t, tuple) else "exterior"): float(g) for t, g in emp}
        keys = set(row_d) | set(emp_d)
        tv = 0.5 * sum(abs(row_d.get(k, 0.0) - emp_d.get(k, 0.0)) for k in keys)
        # 0.05 is calibrated for the default 2000 trials; scale with the
        # sampling standard error for other counts.
        tol = 0.05 * math.sqrt(2000.0 / oracle_trials)
        if tv > tol:
            failures.append(
                f"oracle-row: total-variation {tv:.4f} > {tol:.4f} "
                f"at {oracle_trials} trials"
            )

    if failures:
        for f in failures:
            click.echo(f"FAIL {f}", err=True)
        sys.exit(EXIT_VALIDATION_FAILURE)
    click.echo("all checks passed")
    sys.exit(EXIT_OK)


@main.command("forward-check")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--map", "map_path", required=True, type=click.Path(exists=True))
@click.option("--cell", "cell_id", required=True, type=int,
              help="Flat cell id carrying the initial point mass.")
@click.option("--steps", type=int, default=None, help="Horizon; defaults to search_depth.")
def forward_check_cmd(config_path, map_path, cell_id, steps) -> None:
    """Push a point mass forward and report the event-set probability."""
    if flags := _below(("--steps", steps, 0)):
        _fail("option", flags)
    cfg, tmap = _load_inputs(config_path, map_path)
    if not 0 <= cell_id < tmap.n_cells:
        _fail("option", [f"--cell must be in [0, {tmap.n_cells}), got {cell_id}"])
    k = steps if steps is not None else cfg.search_depth
    dist = np.zeros(tmap.n_cells + 1)
    dist[cell_id] = 1.0
    prob = bpa_mod.event_probability(tmap, dist, event_cells(cfg.event, cfg.spec), k)
    click.echo(f"P(event after {k} steps | start cell {cell_id}) = {prob:.12g}")


@main.command("export")
@click.option("--tree", "tree_path", required=True, type=click.Path(exists=True))
@click.option("--out-graph", type=click.Path(), default=None)
@click.option("--out-text", type=click.Path(), default=None)
def export_cmd(tree_path, out_graph, out_text) -> None:
    """Re-export a stored scenario tree as a graph or readable text."""
    if flags := _unwritable(("--out-graph", out_graph), ("--out-text", out_text)):
        _fail("option", flags)
    try:
        with open(tree_path, encoding="utf-8") as fh:
            tree = tree_from_dict(json.load(fh))
    except KeyError as exc:
        _fail("tree", [f"{tree_path}: missing field {exc}"])
    except RecursionError:
        _fail("tree", [f"{tree_path}: nodes nested too deeply to read"])
    except (TypeError, ValueError) as exc:
        _fail("tree", [f"{tree_path}: {exc}"])
    lines_out = [
        "  " * (n.depth - 1)
        + f"{n.coord.label} q={n.q:g} cumulative={n.cumulative:g} depth={n.depth}"
        for n in tree.nodes()
    ]
    if out_graph:
        with open(out_graph, "w", encoding="utf-8") as fh:
            fh.write(tree_to_dot(tree))
    if out_text:
        with open(out_text, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines_out) + "\n")
    if not out_graph and not out_text:
        click.echo("\n".join(lines_out))


if __name__ == "__main__":
    main()
