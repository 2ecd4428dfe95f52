"""Cell-to-cell Markov risk mapping with backtracking scenario search.

Discretizes a hybrid state space (continuous dynamics plus component
configurations) into cells, learns a sparse single-step transition map from
a pluggable simulator, and backtracks from a user-defined Top Event to
enumerate and rank the event sequences that reach it.

The package exports the names the README documents; every other name is
imported from its own module (cellrisk.mapper.load_map, ...).
"""

from .bpa import backtrack, rank_paths
from .mapper import DynamicsModel, build_map

__version__ = "0.1.0"

__all__ = ["DynamicsModel", "backtrack", "build_map", "rank_paths"]
