"""Cell-to-cell Markov risk mapping with backtracking scenario search.

Discretizes a hybrid state space (continuous dynamics plus component
configurations) into cells, learns a sparse single-step transition map from
a pluggable simulator, and backtracks from a user-defined Top Event to
enumerate and rank the event sequences that reach it.
"""

import importlib

# Each exported name's module, imported when the name is first used (PEP 562),
# so a command loads only the modules it runs.
_SOURCES = {name: module for module, names in (
    ("bpa", "ScenarioTree TopEvent backtrack event_cells forward_check rank_paths"),
    ("cellspace", "EXTERIOR_ID CellCoord SpaceSpec bounds_of coord_to_id id_to_coord"),
    ("configuration", "ComponentMatrix ConfigTransitionModel h rate_matrix_to_step_matrix"),
    ("mapper", "DynamicsModel TransitionMap build_map estimate_g forward_step load_map"),
    ("mapper", "predecessors save_map"),
    ("oracle", "MonteCarloConfig empirical_transition simulate_event_probability"),
    ("vehicle", "BrakeState GroundVehicleModel ScenarioParams"),
) for name in names.split()}

__version__ = "0.1.0"

__all__ = [
    "EXTERIOR_ID",
    "BrakeState",
    "CellCoord",
    "ComponentMatrix",
    "ConfigTransitionModel",
    "DynamicsModel",
    "GroundVehicleModel",
    "MonteCarloConfig",
    "ScenarioParams",
    "ScenarioTree",
    "SpaceSpec",
    "TopEvent",
    "TransitionMap",
    "backtrack",
    "bounds_of",
    "build_map",
    "coord_to_id",
    "empirical_transition",
    "estimate_g",
    "event_cells",
    "forward_check",
    "forward_step",
    "h",
    "id_to_coord",
    "load_map",
    "predecessors",
    "rank_paths",
    "rate_matrix_to_step_matrix",
    "save_map",
    "simulate_event_probability",
]


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value
