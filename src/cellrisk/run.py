"""The run's inputs: the config reader, the simulator registry and the map-pairing rule.

The configuration file is YAML keyed by the discretization's natural field
names (numProcessVariables, variableUpperBounds, ...) so a tabular system
description transcribes directly; artifact-level settings (simulator, dt,
seed, ...) use snake_case keys. See the project README for the schema.
A registered simulator is named by its SIMULATORS key; a vehicle model's key
fixes its parameters (vehicle.CONTINGENCIES). Nothing here imports click;
in the package, only the commands in cellrisk.cli import this module.
"""

from __future__ import annotations

import math
from collections.abc import Hashable
from dataclasses import dataclass

import numpy as np
import yaml

from . import bpa as bpa_mod
from . import mapper as mapper_mod
from .bpa import TopEvent
from .cellspace import SpaceSpec
from .configuration import ConfigModelError, ConfigTransitionModel, component_matrix_from_rows
from .configuration import _Field, _read_fields, capped, echo  # the field reader
from .mapper import DynamicsModel, TransitionMap
from .vehicle import CONTINGENCIES, GroundVehicleModel

__all__ = ["ConfigError", "LinearDriftModel", "RunConfig", "SIMULATORS", "load_config"]


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
    """Constant-velocity drift per dimension; at zero velocity, the identity."""

    name = "linear-drift"

    def __init__(self, velocity):
        self.velocity = np.asarray(velocity, dtype=float)
        self.simulator_params = {"velocity": self.velocity.tolist()}

    def step_many(self, xs, n, dt):
        return np.asarray(xs, dtype=float) + self.velocity * dt


SIMULATORS = {name: lambda params, name=name: GroundVehicleModel(name) for name in CONTINGENCIES}
SIMULATORS["linear-drift"] = lambda params: LinearDriftModel(params["velocity"])

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


def _map_mismatches(cfg: RunConfig, tmap: TransitionMap) -> list[str]:
    """How a map differs from what its config builds: its spec and its whole build record."""
    problems = ["map spec does not match config spec"] if tmap.spec != cfg.spec else []
    for key in mapper_mod._BUILD_FIELDS:
        if (theirs := getattr(tmap, key)) != (ours := getattr(cfg, key)):
            problems.append(f"map {key} {echo(theirs)} does not match config {key} {echo(ours)}")
    return problems
