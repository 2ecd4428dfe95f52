"""Command-line orchestration: config parsing, map builds, searches, reports.

The configuration file is YAML keyed by the discretization's natural field
names (numProcessVariables, variableUpperBounds, ...) so a tabular system
description transcribes directly; artifact-level settings (simulator, dt,
seed, ...) use snake_case keys. See the project README for the schema and
the documented exit codes.
"""

from __future__ import annotations

import math
import os
import sys
import time
from collections.abc import Hashable
from dataclasses import dataclass
from typing import NoReturn

import click
import numpy as np
import yaml

from . import bpa as bpa_mod
from . import mapper as mapper_mod
from .bpa import (
    TopEvent,
    backtrack,
    event_cells,
    rank_paths,  # unused here; bench/tracer.py wraps cli.rank_paths by name
    tree_to_dot,
    tree_to_text,
    write_tree,
)
from .cellspace import SpaceSpec, id_to_coord
from .configuration import ConfigModelError, ConfigTransitionModel, component_matrix_from_rows
from .configuration import _Field, _range_problem, _read_fields, capped, echo  # the field reader
from .mapper import (
    BudgetError,
    BuildError,
    DynamicsModel,
    MapFormatError,
    TransitionMap,
    build_map,
    json_array,
    load_map,
    save_map,
    write_json,
)
from .vehicle import GroundVehicleModel, ScenarioParams

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
    """Raised with the configuration problems, the first PROBLEM_CAP of them named."""

    def __init__(self, problems: list[str]):
        self.problems = capped(problems)
        super().__init__("; ".join(self.problems))


_NUMBER, _INTEGER = _Field("a number or its text"), _Field("an integer")

# The system description: built into SpaceSpec, the component matrices and TopEvent.
_SYSTEM = {
    "numProcessVariables": _Field("an integer", low=1),
    "processVariablesNames": _Field("a list"),
    "numSystemComponents": _Field("an integer", low=1),
    "systemComponentNames": _Field("a list"),
    "systemComponentStates": _Field("a list", entry=_INTEGER),
    "systemComponentStateNames": _Field("a list", None),  # documentation only
    "variableUpperBounds": _Field("a list", entry=_NUMBER),
    "variableLowerBounds": _Field("a list", entry=_NUMBER),
    "numberOfCells": _Field("a list", entry=_INTEGER),
    "sysConfTransProb": _Field("a list"),
    "eventUpperBounds": _Field("a list", entry=_NUMBER),
    "eventLowerBounds": _Field("a list", entry=_NUMBER),
    "eventConfigs": _Field("a list", None, entry=_Field("a list", entry=_INTEGER)),
}
# The run settings: RunConfig fields of the same names.
_SETTINGS = {
    "simulator": _Field("a string"),
    "simulator_params": _Field("a mapping", None),
    "dt": _Field("a number or its text", 1.0, low=0.0, open_low=True),
    "samples_per_cell": _Field("an integer", mapper_mod.DEFAULT_SAMPLES_PER_CELL, low=1),
    "search_depth": _Field("an integer", 1, low=1),
    "truncation": _Field("a number or its text", 0.0, low=0.0, high=1.0),
    "seed": _Field("an integer", 0, low=0),
    "node_budget": _Field("an integer", bpa_mod.DEFAULT_NODE_BUDGET, low=1),
    "workers": _Field("an integer", 1, low=1),
    "sample_budget": _Field("an integer", mapper_mod.DEFAULT_SAMPLE_BUDGET, low=1),
}


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
            **{key: getattr(self, key) for key in _SETTINGS},
        }


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


# The vehicle's two contingencies: speed-scaled brake thresholds, and fixed
# 30 m / 15 m thresholds (30 m is a 2 s gap at the 15 m/s speed limit).
SIMULATORS = {
    "agv-baseline": lambda params: GroundVehicleModel(ScenarioParams(), "agv-baseline"),
    "agv-modified": lambda params: GroundVehicleModel(
        ScenarioParams(fixed_light_clearance=30.0), "agv-modified"),
    "linear-drift": lambda params: LinearDriftModel(params["velocity"]),
    "identity": lambda params: IdentityModel(),
}

# The simulator_params a simulator takes; the others take none.
_SIMULATOR_PARAMS = {"linear-drift": {"velocity": _Field("a list", entry=_NUMBER)}}


class _UniqueKeyLoader(yaml.SafeLoader):
    """yaml.SafeLoader that refuses a key given twice in one mapping, at the second."""

    def construct_mapping(self, node, deep=False):
        keys = set()  # a merge key "<<" is left to the base class, which merges it
        for key_node in (k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"):
            key = self.construct_object(key_node, deep=deep)
            if not isinstance(key, Hashable):
                break  # the base class refuses it: "found unhashable key"
            if key in keys:
                raise yaml.constructor.ConstructorError(
                    None, None, f"repeated key {echo(key)}", key_node.start_mark)
            keys.add(key)
        return super().construct_mapping(node, deep)


def load_config(path: str) -> RunConfig:
    """Parse and fully validate a run configuration file.

    Two stages, the field table and then the structure, each name every
    problem they find before ConfigError is raised.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            raw = yaml.load(fh, Loader=_UniqueKeyLoader)
        except UnicodeDecodeError as exc:
            raise ConfigError([f"{path}: not valid YAML: not UTF-8: {exc}"]) from exc
        except (yaml.YAMLError, ValueError) as exc:  # ValueError: an integer too long to read
            mark = getattr(exc, "problem_mark", None)
            where = f"line {mark.line + 1}, column {mark.column + 1}: " if mark else ""
            problem = getattr(exc, "problem", None) or exc
            raise ConfigError([f"{path}: not valid YAML: {where}{problem}"]) from exc
        except RecursionError as exc:
            raise ConfigError([f"{path}: nested too deeply to read"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError([f"{path}: top level must be a mapping"])

    problems: list[str] = []
    values = _read_fields(raw, _SYSTEM | _SETTINGS, "", problems)
    simulator = values.get("simulator")
    if simulator is not None and simulator not in SIMULATORS:
        problems.append(f"unknown simulator {echo(simulator)}; registered: {sorted(SIMULATORS)}")
    elif simulator is not None and "simulator_params" in values:
        values["simulator_params"] = _read_fields(
            values["simulator_params"] or {}, _SIMULATOR_PARAMS.get(simulator, {}),
            "simulator_params.", problems)
    if problems:
        raise ConfigError(problems)

    # Stage two, the structure; a check that needs an earlier result is
    # skipped when that result failed.
    L, M = values["numProcessVariables"], values["numSystemComponents"]
    states, partitions = values["systemComponentStates"], values["numberOfCells"]
    lengths = [f"{key} has {len(values[key])} entries, expected {n}"
               for key, n in (("processVariablesNames", L), ("systemComponentNames", M),
                              ("systemComponentStates", M), ("variableUpperBounds", L),
                              ("variableLowerBounds", L))
               if len(values[key]) != n]
    # numberOfCells may carry a trailing configuration count, which must match.
    if len(partitions) == L + 1:
        if len(states) == M and partitions[-1] != math.prod(states):
            problems.append(
                f"numberOfCells trailing entry {partitions[-1]} does not match the "
                f"configuration count {math.prod(states)} implied by systemComponentStates"
            )
        partitions = partitions[:-1]
    elif len(partitions) != L:
        lengths.append(f"numberOfCells has {len(partitions)} entries, expected {L} or {L + 1}")
    problems += lengths
    velocity = values["simulator_params"].get("velocity")
    if velocity is not None and len(velocity) != L:
        problems.append(f"simulator_params.velocity has {len(velocity)} entries, expected {L}")
    spec = None
    if not lengths:
        try:
            spec = SpaceSpec(map(str, values["processVariablesNames"]),
                             map(str, values["systemComponentNames"]),
                             values["variableLowerBounds"], values["variableUpperBounds"],
                             partitions, states)
        except ValueError as exc:
            problems.append(f"space specification: {exc}")

    matrices = values["sysConfTransProb"]  # one list of row lists per component
    if len(matrices) != M:
        problems.append(f"sysConfTransProb has {len(matrices)} matrices, expected {M}")
    comps = []
    for m, rows in enumerate(matrices):
        try:
            comp = component_matrix_from_rows(rows, component_index=m)
        except ConfigModelError as exc:  # each message names the component
            problems += [f"sysConfTransProb: {msg}" for msg in exc.problems]
            continue
        comps.append(comp)
        if spec is not None and len(matrices) == M and comp.size != spec.states[m]:
            problems.append(f"sysConfTransProb component {m} is {comp.size}x{comp.size}, "
                            f"expected {spec.states[m]}x{spec.states[m]}")

    # Event bounds: L entries, or L+1 with a trailing configuration range.
    ev_u, ev_l = values["eventUpperBounds"], values["eventLowerBounds"]
    configs = values["eventConfigs"]
    configs = None if configs is None else frozenset(map(tuple, configs))
    bounds = []  # the problems of the bounds
    if len(ev_u) == len(ev_l) == L + 1:
        (ev_l, first), (ev_u, last) = (ev_l[:-1], ev_l[-1]), (ev_u[:-1], ev_u[-1])
        if configs is not None:
            bounds.append(f"eventConfigs and the eventLowerBounds/eventUpperBounds trailing "
                          f"configuration range {first:g}..{last:g} both given; give one")
        elif M != 1:
            bounds.append("trailing event-bound configuration shorthand needs M == 1; "
                          "use eventConfigs instead")
        else:
            bounds += [f"{key} configuration entry must be an integer, got {end}"
                       for key, end in (("eventLowerBounds", first), ("eventUpperBounds", last))
                       if not end.is_integer()]
            # Checked before the set is built; without a spec its state count is a problem.
            if spec is not None and not (1 <= first and last <= spec.states[0]):
                bounds.append(f"trailing event configuration range {first:g}..{last:g} is "
                              f"outside the component's states 1..{spec.states[0]}")
            if spec is not None and not bounds:
                configs = frozenset((i,) for i in range(int(first), int(last) + 1))
    elif len(ev_u) != L or len(ev_l) != L:
        bounds.append(f"event bounds must have {L} or {L + 1} entries, got "
                      f"{len(ev_u)}/{len(ev_l)}")
    problems += bounds
    if spec is not None and not bounds:
        if configs is None:
            configs = frozenset(tuple(v + 1 for v in c) for c in np.ndindex(*spec.states))
        try:
            event = TopEvent(lower=tuple(ev_l), upper=tuple(ev_u), configs=configs)
            event.validate_against(spec)
        except ValueError as exc:
            problems.append(f"event definition: {exc}")

    if problems:
        raise ConfigError(problems)
    return RunConfig(spec=spec, config_model=ConfigTransitionModel(tuple(comps)), event=event,
                     **{key: values[key] for key in _SETTINGS})


def _make_simulator(cfg: RunConfig) -> DynamicsModel:
    return SIMULATORS[cfg.simulator](cfg.simulator_params)


def _unwritable(inputs: dict[str, str], outputs: dict[str, str | None]) -> list[str]:
    """A problem for every output path that is a directory, lies in none, or is the same
    file as an input or an earlier output (both flags named)."""
    problems, taken = [], {os.path.realpath(path): flag for flag, path in inputs.items()}
    for flag, path in outputs.items():
        if path is None:
            continue
        full = os.path.abspath(path)
        if os.path.isdir(full):
            problems.append(f"{flag} {path!r} is a directory")
        elif not os.path.isdir(os.path.dirname(full)):
            problems.append(f"{flag} {path!r}: directory does not exist")
        elif (real := os.path.realpath(full)) in taken:
            problems.append(f"{flag} {path!r} is the same file as {taken[real]}")
        else:
            taken[real] = flag
    return problems


def _fail(kind: str, problems: list[str], code: int = EXIT_CONFIG_ERROR) -> NoReturn:
    """Name every problem on stderr and exit with a documented code."""
    for p in problems:
        click.echo(f"{kind} error: {p}", err=True)
    sys.exit(code)


def _map_mismatches(cfg: RunConfig, tmap: TransitionMap) -> list[str]:
    """How a map differs from what its config builds: its spec and its whole build record."""
    problems = ["map spec does not match config spec"] if tmap.spec != cfg.spec else []
    for key in mapper_mod._BUILD_FIELDS:
        if (theirs := getattr(tmap, key)) != (ours := getattr(cfg, key)):
            problems.append(f"map {key} {echo(theirs)} does not match config {key} {echo(ours)}")
    return problems


def _load_inputs(config_path: str, map_path: str) -> tuple[RunConfig, TransitionMap]:
    """Config and map of a search command; a map built for another config is a config error."""
    cfg, tmap = load_config(config_path), load_map(map_path)
    if mismatches := _map_mismatches(cfg, tmap):
        raise ConfigError([f"{m}; rebuild the map for this config" for m in mismatches])
    return cfg, tmap


_EXITS = {
    ConfigError: ("config", EXIT_CONFIG_ERROR),
    MapFormatError: ("map", EXIT_CONFIG_ERROR),
    BuildError: ("build", EXIT_CONFIG_ERROR),
    BudgetError: ("budget", EXIT_BUDGET_ERROR),
}


class _Commands(click.Group):
    """The commands; one that raises an error in _EXITS exits with its (kind, exit code).

    A usage error (no or an unknown command, bad or missing option) exits
    EXIT_CONFIG_ERROR with click's message, not click's 2, which is EXIT_NO_PATHS.
    """

    def parse_args(self, ctx: click.Context, args: list[str]) -> list[str]:
        try:
            return super().parse_args(ctx, args)
        except click.UsageError as exc:  # the group's own arguments, or none at all
            exc.exit_code = EXIT_CONFIG_ERROR
            raise

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = EXIT_CONFIG_ERROR
            raise
        except tuple(_EXITS) as exc:
            kind, code = next(v for t, v in _EXITS.items() if isinstance(exc, t))
            _fail(kind, getattr(exc, "problems", [str(exc)]), code)


@click.group(cls=_Commands)
def main() -> None:
    """Cell-to-cell risk mapping and backtracking scenario search."""


# An input option's file must exist and not be a directory: click names either problem.
_INPUT_FILE = click.Path(exists=True, dir_okay=False)


@main.command("build-map")
@click.option("--config", "config_path", required=True, type=_INPUT_FILE)
@click.option("--out", "out_path", required=True, type=click.Path())
def build_map_cmd(config_path, out_path) -> None:
    """Build the transition map for a configuration and persist it."""
    if problems := _unwritable({"--config": config_path}, {"--out": out_path}):
        _fail("option", problems)
    cfg = load_config(config_path)
    model = _make_simulator(cfg)
    t0 = time.perf_counter()
    tmap = build_map(model, cfg.spec, cfg.config_model, dt=cfg.dt,
                     samples=cfg.samples_per_cell, seed=cfg.seed, workers=cfg.workers,
                     sample_budget=cfg.sample_budget)
    elapsed = time.perf_counter() - t0
    # build_map sees only the simulator; the map also records the params it was made with.
    tmap.simulator_params = cfg.simulator_params
    save_map(tmap, out_path)
    click.echo(
        f"built map: {tmap.n_cells} sources, {tmap.n_edges} edges, "
        f"exterior mass {tmap.total_exterior_mass():.6g}, {elapsed:.1f}s -> {out_path}"
    )


@main.command("run-bpa")
@click.option("--config", "config_path", required=True, type=_INPUT_FILE)
@click.option("--map", "map_path", required=True, type=_INPUT_FILE)
@click.option("--out-tree", type=click.Path(), default=None)
@click.option("--out-graph", type=click.Path(), default=None)
@click.option("--out-report", type=click.Path(), default=None)
@click.option("--out-text", type=click.Path(), default=None)
@click.option("--depth", type=int, default=None, help="Search depth; defaults to search_depth.")
def run_bpa_cmd(config_path, map_path, out_tree, out_graph, out_report, out_text, depth) -> None:
    """Backtrack from the Top Event and write tree, graph, report and indented text."""
    problems = _unwritable(
        {"--config": config_path, "--map": map_path},
        {"--out-tree": out_tree, "--out-graph": out_graph, "--out-report": out_report,
         "--out-text": out_text})
    if problem := _range_problem(depth, _SETTINGS["search_depth"], "--depth"):  # None: no --depth
        problems.insert(0, problem)
    if problems:
        _fail("option", problems)
    cfg, tmap = _load_inputs(config_path, map_path)
    if depth is not None:
        cfg.search_depth = depth  # the report echoes the depth searched
    t0 = time.perf_counter()
    tree = backtrack(tmap, cfg.event, depth=cfg.search_depth,
                     truncation=cfg.truncation, node_budget=cfg.node_budget)
    t1 = time.perf_counter()
    ranking = tree.ranking()
    t2 = time.perf_counter()

    if out_tree:
        write_tree(tree, out_tree)
    if out_graph:
        with open(out_graph, "w", encoding="utf-8") as fh:
            fh.writelines(tree_to_dot(tree))
    if out_text:
        with open(out_text, "w", encoding="utf-8") as fh:
            fh.writelines(tree_to_text(tree))
    if out_report:
        def report():
            """The report's fields in key order; the timings are taken once the rows are written."""
            yield "config", cfg.normalized_dict()
            yield "format", REPORT_FORMAT
            yield "map", {"path": map_path, "sources": tmap.n_cells, "edges": tmap.n_edges,
                          "exterior_mass": tmap.total_exterior_mass(),
                          "simulator": tmap.simulator, "seed": tmap.seed}
            yield "ranked_paths", json_array(bpa_mod.encode_ranked_paths(ranking))
            # export_seconds covers the tree, graph and text writes and the
            # report's rows, not the report's other fields
            yield "timings", {"search_seconds": t1 - t0, "rank_seconds": t2 - t1,
                              "export_seconds": time.perf_counter() - t2}
            yield "tree", {"nodes": tree.n_nodes, "paths": len(ranking),
                           "max_depth_reached": tree.max_depth_reached,
                           "event_cells": len(tree.event_cell_ids)}
            yield "version", REPORT_FORMAT_VERSION

        write_json(out_report, report())

    click.echo(f"tree: {tree.n_nodes} nodes, {len(ranking)} ranked paths")
    for p in ranking.paths(10):
        click.echo(f"  P={p.cumulative:.6g}  {p.render()}")
    if not tree.n_nodes:
        click.echo("no risk-significant paths lead to the Top Event")
        sys.exit(EXIT_NO_PATHS)
    sys.exit(EXIT_OK)


@main.command("validate")
@click.option("--config", "config_path", required=True, type=_INPUT_FILE)
@click.option("--map", "map_path", required=True, type=_INPUT_FILE)
@click.option("--oracle-trials", type=int, default=2000, show_default=True)
def validate_cmd(config_path, map_path, oracle_trials) -> None:
    """Run invariant suites and oracle cross-checks; nonzero exit on failure."""
    if problem := _range_problem(oracle_trials, _Field("an integer", low=1), "--oracle-trials"):
        _fail("option", [problem])
    cfg = load_config(config_path)
    if oracle_trials > cfg.sample_budget:  # before any trial is drawn
        raise BudgetError(f"--oracle-trials {oracle_trials} exceeds sample_budget "
                          f"{cfg.sample_budget}")
    try:
        tmap = load_map(map_path)
    except MapFormatError as exc:
        _fail("map", [str(exc)], EXIT_VALIDATION_FAILURE)
    failures = [f"spec-echo: {m}" for m in _map_mismatches(cfg, tmap)]
    if not failures:
        # Imported here: only validate uses the oracle, and it slows every command's start-up.
        from . import oracle as oracle_mod

        model = _make_simulator(cfg)
        cell = id_to_coord(0, cfg.spec)
        row = mapper_mod.estimate_g(cell, model, cfg.spec, cfg.dt, oracle_trials, cfg.seed + 1)
        emp = oracle_mod.empirical_transition(
            model, cell, cfg.spec, cfg.dt, oracle_trials, cfg.seed + 2
        )
        row_d, emp_d = dict(row), dict(emp)
        tv = 0.5 * sum(abs(row_d.get(k, 0) - emp_d.get(k, 0)) for k in row_d | emp_d)
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
@click.option("--config", "config_path", required=True, type=_INPUT_FILE)
@click.option("--map", "map_path", required=True, type=_INPUT_FILE)
@click.option("--cell", "cell_id", required=True, type=int,
              help="Flat cell id carrying the initial point mass.")
@click.option("--steps", type=int, default=None, help="Horizon; defaults to search_depth.")
def forward_check_cmd(config_path, map_path, cell_id, steps) -> None:
    """Push a point mass forward and report the event-set probability."""
    if problem := _range_problem(steps, _Field("an integer", low=0), "--steps"):  # None: no --steps
        _fail("option", [problem])
    cfg, tmap = _load_inputs(config_path, map_path)
    if not 0 <= cell_id < tmap.n_cells:
        _fail("option", [f"--cell must be in [0, {tmap.n_cells}), got {cell_id}"])
    k = steps if steps is not None else cfg.search_depth
    if k * (tmap.n_edges + 1) > cfg.sample_budget:  # before the first push
        raise BudgetError(f"{k} steps x {tmap.n_edges + 1} map entries = "
                          f"{k * (tmap.n_edges + 1)} exceeds sample_budget {cfg.sample_budget}")
    dist = np.zeros(tmap.n_cells + 1)
    dist[cell_id] = 1.0
    prob = bpa_mod.event_probability(tmap, dist, event_cells(cfg.event, cfg.spec), k)
    click.echo(f"P(event after {k} steps | start cell {cell_id}) = {prob:.12g}")


if __name__ == "__main__":
    main()
