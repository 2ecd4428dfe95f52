from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from _synthetic import line_spec
from cellrisk.bpa import TopEvent, backtrack, forward_check
from cellrisk.cellspace import EXTERIOR_ID, CellCoord, SpaceSpec, id_to_coord
from cellrisk.configuration import ComponentMatrix, ConfigTransitionModel
from cellrisk.mapper import build_map, estimate_g
from cellrisk.oracle import (
    BoxUniform,
    CellUniform,
    MonteCarloConfig,
    PointInitial,
    empirical_transition,
    simulate_event_probability,
)
from cellrisk.run import LinearDriftModel


def identity_config(states: int = 1) -> ConfigTransitionModel:
    return ConfigTransitionModel(matrices=(ComponentMatrix(0, np.eye(states)),))


def test_whole_space_event_certain():
    spec = line_spec(5)
    event = TopEvent(lower=(0.0,), upper=(5.0,), configs=frozenset({(1,)}))
    mc = MonteCarloConfig(
        trials=200, horizon=1, initial=BoxUniform((1.0,), (2.0,), (1,)), seed=1
    )
    p, se = simulate_event_probability(LinearDriftModel(0.0), identity_config(), event, mc, dt=1.0)
    assert p == 1.0 and se == 0.0


def test_unreachable_event_is_zero():
    spec = line_spec(5)
    event = TopEvent(lower=(4.0,), upper=(5.0,), configs=frozenset({(1,)}))
    mc = MonteCarloConfig(
        trials=200, horizon=3, initial=PointInitial((0.5,), (1,)), seed=2
    )
    p, se = simulate_event_probability(LinearDriftModel(0.0), identity_config(), event, mc, dt=1.0)
    assert p == 0.0 and se == 0.0


def test_shift_event_probability_agreement_with_cell_map():
    # Whole-cell shift keeps the within-cell distribution exactly uniform,
    # so the discretized map carries no binning bias; the stochastic
    # configuration channel makes the probability nontrivial. The Monte
    # Carlo estimate must then agree within sampling noise alone.
    spec = line_spec(10, states=2)
    model = LinearDriftModel(1.0)
    cfg = ConfigTransitionModel(
        matrices=(ComponentMatrix(0, [[0.7, 0.3], [0.0, 1.0]]),)
    )
    tmap = build_map(model, spec, cfg, dt=1.0, samples=500, seed=3)
    event = TopEvent(lower=(6.0,), upper=(10.0,), configs=frozenset({(2,)}))

    start = CellCoord((4,), (1,))  # box [3, 4), healthy configuration
    trials = 100_000
    mc = MonteCarloConfig(trials=trials, horizon=3, initial=CellUniform(start), seed=4)
    p_mc, se_mc = simulate_event_probability(model, cfg, event, mc, dt=1.0, spec=spec)

    tree = backtrack(tmap, event, depth=3, truncation=0.0)
    dist = np.zeros(tmap.n_cells + 1)
    dist[3] = 1.0
    p_map = forward_check(tmap, tree, dist)

    # Exact law: the position enters the event region only at step three,
    # so the probability is that of having left configuration 1 by then.
    exact = 1.0 - 0.7**3
    assert p_map == pytest.approx(exact, abs=1e-9)
    assert abs(p_mc - exact) <= 3 * se_mc


def test_event_requires_admissible_configuration():
    # Dynamics enter the box but the configuration never matches.
    spec = line_spec(4, states=2)
    event = TopEvent(lower=(3.0,), upper=(4.0,), configs=frozenset({(2,)}))
    cfg = identity_config(states=2)
    mc = MonteCarloConfig(
        trials=100, horizon=3, initial=PointInitial((2.5,), (1,)), seed=5
    )
    p, _ = simulate_event_probability(LinearDriftModel(1.0), cfg, event, mc, dt=1.0)
    assert p == 0.0


def test_configuration_jumps_follow_matrix():
    # Always-jump matrix: state 1 -> 2 with certainty, then the event matches.
    spec = line_spec(4, states=2)
    jump = ConfigTransitionModel(matrices=(ComponentMatrix(0, [[0.0, 1.0], [0.0, 1.0]]),))
    event = TopEvent(lower=(0.0,), upper=(4.0,), configs=frozenset({(2,)}))
    mc = MonteCarloConfig(
        trials=100, horizon=1, initial=PointInitial((0.5,), (1,)), seed=6
    )
    p, _ = simulate_event_probability(LinearDriftModel(0.0), jump, event, mc, dt=1.0)
    assert p == 1.0


def test_empirical_transition_identity_single_edge():
    spec = line_spec(5)
    row = empirical_transition(LinearDriftModel(0.0), CellCoord((2,), (1,)), spec, 1.0, 500,
                               seed=7)
    assert row == [((2,), Fraction(1))]


def test_empirical_transition_frequencies_sum_exactly():
    spec = line_spec(6)
    row = empirical_transition(LinearDriftModel(0.43), CellCoord((2,), (1,)), spec, 1.0, 977, seed=8)
    assert sum(f for _, f in row) == Fraction(1)


def test_empirical_transition_deterministic():
    spec = line_spec(6)
    a = empirical_transition(LinearDriftModel(0.43), CellCoord((2,), (1,)), spec, 1.0, 200, seed=9)
    b = empirical_transition(LinearDriftModel(0.43), CellCoord((2,), (1,)), spec, 1.0, 200, seed=9)
    assert a == b


def test_empirical_transition_blocks_of_any_size_give_the_same_row(monkeypatch):
    spec = SpaceSpec(("x", "y"), ("c",), (0.0, 0.0), (4.0, 4.0), (4, 4), (1,))
    model = LinearDriftModel([0.43, -0.61])
    cell = CellCoord((2, 3), (1,))
    row = empirical_transition(model, cell, spec, 1.0, 200, seed=9)
    assert len(row) == 4  # four target cells
    monkeypatch.setattr("cellrisk.oracle.BLOCK_TRIALS", 7)
    assert empirical_transition(model, cell, spec, 1.0, 200, seed=9) == row


def test_empirical_transition_agrees_with_quadrature_case_study(baseline_config, baseline_model):
    # Independent re-estimate of one engine row; total variation within
    # two-sample binomial concentration at 10^4 trials each.
    cfg, model = baseline_config, baseline_model
    cell = CellCoord((4, 1, 1, 120, 1, 1), (1,))  # braking region, normal brakes
    trials = 10_000
    engine = estimate_g(cell, model, cfg.spec, cfg.dt, trials, seed=10)
    independent = empirical_transition(model, cell, cfg.spec, cfg.dt, trials, seed=11)
    e = {t: float(g) for t, g in engine}
    o = {t: float(g) for t, g in independent}
    keys = set(e) | set(o)
    tv = 0.5 * sum(abs(e.get(k, 0.0) - o.get(k, 0.0)) for k in keys)
    assert tv <= 0.03


def test_monte_carlo_deterministic_given_seed(baseline_config, baseline_model):
    cfg, model = baseline_config, baseline_model
    jumps = identity_config(states=3)
    mc = MonteCarloConfig(
        trials=300,
        horizon=1,
        initial=CellUniform(CellCoord((4, 1, 1, 124, 1, 1), (1,))),
        seed=12,
    )
    a = simulate_event_probability(model, jumps, cfg.event, mc, cfg.dt, spec=cfg.spec)
    b = simulate_event_probability(model, jumps, cfg.event, mc, cfg.dt, spec=cfg.spec)
    assert a == b


# Outputs of the scalar oracle, which stepped one trial at a time through
# model.step, recorded before the oracle stepped its trials as arrays. Exact
# equality shows that every random stream is drawn in the same order and
# every hit lands on the same trial.
FAULTY_BRAKES = ConfigTransitionModel(
    matrices=(ComponentMatrix(0, [[0.5, 0.3, 0.2], [0.0, 0.6, 0.4], [0.0, 0.0, 1.0]]),)
)


def test_empirical_transition_pinned(baseline_config, baseline_model):
    cfg, model = baseline_config, baseline_model
    cell = id_to_coord(1870, cfg.spec)
    assert cell == CellCoord((1, 1, 1, 75, 1, 1), (3,))
    row = empirical_transition(model, cell, cfg.spec, cfg.dt, 2000, seed=11)
    assert row == [
        ((1, 1, 1, 75, 1, 1), Fraction(451, 1000)),
        ((1, 1, 1, 76, 1, 1), Fraction(87, 400)),
        ((2, 1, 1, 75, 1, 1), Fraction(197, 2000)),
        ((2, 1, 1, 76, 1, 1), Fraction(217, 1000)),
        (EXTERIOR_ID, Fraction(2, 125)),
    ]


# A rising hit fraction over the horizon means trials hit at different steps.
@pytest.mark.parametrize(
    "horizon, expected",
    [(1, (0.0075, 0.00431385848168435)),
     (2, (0.2125, 0.020453835214941964)),
     (3, (0.29, 0.022688102609076853))],
)
def test_monte_carlo_pinned_cell_uniform(baseline_config, baseline_model, horizon, expected):
    cfg, model = baseline_config, baseline_model
    initial = CellUniform(CellCoord((4, 1, 1, 123, 1, 1), (1,)))
    mc = MonteCarloConfig(trials=400, horizon=horizon, initial=initial, seed=21)
    p = simulate_event_probability(
        model, FAULTY_BRAKES, cfg.event, mc, cfg.dt, spec=cfg.spec
    )
    assert p == expected


@pytest.mark.parametrize(
    "horizon, expected",
    [(1, (0.0, 0.0)), (2, (0.48333333333333334, 0.028851471494663966)), (3, (1.0, 0.0))],
)
def test_monte_carlo_pinned_point(baseline_config, baseline_model, horizon, expected):
    cfg, model = baseline_config, baseline_model
    initial = PointInitial((15.0, 0.0, 0.0, 484.0, 0.0, 0.0), (1,))
    mc = MonteCarloConfig(trials=300, horizon=horizon, initial=initial, seed=22)
    p = simulate_event_probability(model, FAULTY_BRAKES, cfg.event, mc, cfg.dt)
    assert p == expected


@pytest.mark.parametrize(
    "horizon, expected",
    [(1, (0.11266666666666666, 0.005772720008479218)),
     (2, (0.37066666666666664, 0.0088180286702658)),
     (3, (0.5983333333333334, 0.008950429329657053)),
     (4, (0.6696666666666666, 0.008587068227325363))],
)
def test_monte_carlo_pinned_box_two_components(horizon, expected):
    cfg = ConfigTransitionModel(matrices=(
        ComponentMatrix(0, [[0.8, 0.2], [0.1, 0.9]]),
        ComponentMatrix(1, [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.0, 0.0, 1.0]]),
    ))
    event = TopEvent(
        lower=(6.0, 0.0), upper=(10.0, 4.0), configs=frozenset({(2, 1), (2, 2), (1, 3)})
    )
    initial = BoxUniform((3.0, 1.0), (6.0, 3.0), (1, 1))
    mc = MonteCarloConfig(trials=3000, horizon=horizon, initial=initial, seed=23)
    p = simulate_event_probability(LinearDriftModel((1.25, 0.1)), cfg, event, mc, dt=1.0)
    assert p == expected
