"""Cell-to-cell Markov risk mapping with backtracking scenario search.

Discretizes a hybrid state space (continuous dynamics plus component
configurations) into cells, learns a sparse single-step transition map from
a pluggable simulator, and backtracks from a user-defined Top Event to
enumerate and rank the event sequences that reach it.
"""

from .bpa import ScenarioTree, TopEvent, backtrack, event_cells, forward_check, rank_paths
from .cellspace import (
    EXTERIOR_ID,
    CellCoord,
    SpaceSpec,
    bounds_of,
    coord_to_id,
    id_to_coord,
)
from .configuration import (
    ComponentMatrix,
    ConfigTransitionModel,
    h,
    rate_matrix_to_step_matrix,
)
from .mapper import (
    DynamicsModel,
    TransitionMap,
    build_map,
    estimate_g,
    forward_step,
    load_map,
    predecessors,
    save_map,
)
from .oracle import MonteCarloConfig, empirical_transition, simulate_event_probability
from .vehicle import BrakeState, GroundVehicleModel, ScenarioParams

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
