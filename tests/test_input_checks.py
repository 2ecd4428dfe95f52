"""Every argument check at the boundary of the library raises its error with its message."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from _synthetic import line_spec
from cellrisk.bpa import TopEvent, TopEventError
from cellrisk.cellspace import (
    CellCoord,
    SpaceSpec,
    SpaceSpecError,
    SpecMismatchError,
    sample_cell_array,
)
from cellrisk.configuration import (
    ComponentMatrix,
    ConfigModelError,
    ConfigTransitionModel,
)
from cellrisk.mapper import (
    BuildError,
    DynamicsModel,
    TransitionMap,
    build_map,
    estimate_g,
    predecessors,
)
from cellrisk.oracle import (
    CellUniform,
    MonteCarloConfig,
    PointInitial,
    empirical_transition,
    simulate_event_probability,
)
from cellrisk.run import LinearDriftModel
from cellrisk.vehicle import GroundVehicleModel, ScenarioParams

SPEC = line_spec(4)
PLANE = SpaceSpec(("x", "y"), ("c",), (0.0, 0.0), (1.0, 1.0), (2, 2), (1,))
EVENT = TopEvent((3.0,), (4.0,), frozenset({(1,)}))
IDENTITY = ConfigTransitionModel((ComponentMatrix(0, np.eye(1)),))
CELL = CellCoord((1,), (1,))
STILL = LinearDriftModel(0.0)  # zero drift: the identity


def _spec(**fields):
    """SPEC with some fields replaced."""
    base = dict(names_x=("x",), names_n=("c",), lower=(0.0,), upper=(4.0,), partitions=(4,),
                states=(1,))
    return SpaceSpec(**(base | fields))


def _step(xs, dt):
    return GroundVehicleModel(ScenarioParams(), "agv-baseline").step_many(xs, (1,), dt)


CHECKS = {
    # bpa
    "event-bound-lengths": (lambda: TopEvent((0.0,), (1.0, 2.0), {(1,)}),
                            TopEventError, "event bound lengths disagree"),
    "event-dimensions": (lambda: EVENT.validate_against(PLANE),
                         TopEventError, "event has 1 dims, spec has 2"),
    # cellspace
    "spec-continuous-lengths": (lambda: _spec(names_x=("x", "y")),
                                SpaceSpecError, "continuous field lengths disagree"),
    "spec-component-lengths": (lambda: _spec(names_n=("c", "d")),
                               SpaceSpecError, "component field lengths disagree"),
    "spec-infinite-bound": (lambda: _spec(upper=(math.inf,)),
                            SpaceSpecError, "non-finite bound in dimension 0"),
    "spec-nan-bound": (lambda: _spec(lower=(math.nan,)),
                       SpaceSpecError, "non-finite bound in dimension 0"),
    "config-length": (lambda: SPEC.validate_config((1, 1)),
                      SpecMismatchError, "configuration length 2 != M=1"),
    "coord-dimensions": (lambda: CellCoord((1, 1), (1,)).validate(SPEC),
                         SpecMismatchError, "coordinate has 2 dims, spec has 1"),
    "coord-index": (lambda: CellCoord((5,), (1,)).validate(SPEC),
                    SpecMismatchError, "dimension 0: index 5 outside 1..4"),
    "sample-count": (lambda: sample_cell_array(CELL, SPEC, 0, 0),
                     ValueError, "count must be >= 1"),
    "sample-cell": (lambda: sample_cell_array(CellCoord((5,), (1,)), SPEC, 1, 0),
                    SpecMismatchError, "dimension 0: index 5 outside 1..4"),
    # configuration
    "matrix-not-square": (lambda: ComponentMatrix(2, [[1.0, 0.0]]),
                          ConfigModelError, "component 2: matrix must be square, got (1, 2)"),
    "model-empty": (lambda: ConfigTransitionModel(()),
                    ConfigModelError, "model needs at least one component matrix"),
    # mapper
    "base-step-many": (lambda: DynamicsModel().step_many(np.zeros((1, 1)), (1,), 1.0),
                       NotImplementedError, None),
    "estimate-samples": (lambda: estimate_g(CELL, STILL, SPEC, 1.0, 0, 0),
                         ValueError, "samples must be >= 1"),
    "build-dt": (lambda: build_map(STILL, SPEC, IDENTITY, dt=0.0),
                 ValueError, "dt must be positive and samples >= 1"),
    "build-samples": (lambda: build_map(STILL, SPEC, IDENTITY, dt=1.0, samples=0),
                      ValueError, "dt must be positive and samples >= 1"),
    # A configuration whose rows are off one is refused before a build can start.
    "build-config-invalid": (lambda: build_map(
                                 STILL, SPEC,
                                 ConfigTransitionModel((ComponentMatrix(0, [[0.5]]),)), dt=1.0),
                             ConfigModelError, "component 0 row 1: sums to 0.5, off by -5.000e-01"),
    "build-config-sizes": (lambda: build_map(
                               STILL, SPEC,
                               ConfigTransitionModel((ComponentMatrix(0, np.eye(2)),)), dt=1.0),
                           BuildError, "configuration sizes (2,) do not match spec states (1,)"),
    "predecessors-target": (lambda: predecessors(
                                TransitionMap.from_edges(SPEC, {s: [(s, 1.0)] for s in range(4)}),
                                4),
                            ValueError, "target id 4 outside 0..3"),
    # oracle
    "monte-carlo-trials": (lambda: MonteCarloConfig(0, 1, PointInitial((0.5,), (1,))),
                           ValueError, "trials must be >= 1"),
    "monte-carlo-horizon": (lambda: MonteCarloConfig(1, 0, PointInitial((0.5,), (1,))),
                            ValueError, "horizon must be >= 1"),
    "cell-uniform-without-spec": (lambda: simulate_event_probability(
                                      STILL, IDENTITY, EVENT,
                                      MonteCarloConfig(1, 1, CellUniform(CELL)), 1.0),
                                  ValueError, "cell-uniform initial distribution needs a spec"),
    "empirical-trials": (lambda: empirical_transition(STILL, CELL, SPEC, 1.0, 0),
                         ValueError, "trials must be >= 1"),
    # vehicle
    "step-dt-zero": (lambda: _step(np.zeros((1, 6)), 0.0), ValueError, "dt must be positive"),
    "step-dt-negative": (lambda: _step(np.zeros((1, 6)), -1.0), ValueError, "dt must be positive"),
    "step-batch-shape": (lambda: _step(np.zeros((2, 5)), 1.0),
                         ValueError, "state batch must be (N, 6), got (2, 5)"),
    "step-batch-vector": (lambda: _step(np.zeros(6), 1.0),
                          ValueError, "state batch must be (N, 6), got (6,)"),
}


@pytest.mark.parametrize("case", sorted(CHECKS))
def test_input_check_raises_its_error(case):
    call, error, fragment = CHECKS[case]
    with pytest.raises(error, match=fragment and re.escape(fragment)):
        call()
