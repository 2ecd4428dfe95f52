from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
import yaml

from _synthetic import reference_control
from conftest import CONFIGS
from cellrisk.run import SIMULATORS, ConfigError, load_config
from cellrisk.vehicle import (
    CONTINGENCIES,
    BrakeState,
    GroundVehicleModel,
    ScenarioParams,
    VehicleState,
    _command,
)

BASE, FIXED = CONTINGENCIES["agv-baseline"], CONTINGENCIES["agv-modified"]

# reference_control()'s mode indices.
LANE_TRACKING, VEHICLE_FOLLOWING, LIGHT_BRAKE, STRONG_BRAKE = range(4)


@pytest.mark.parametrize(
    "v, x, params, mode",
    [
        (15.0, 0.0, BASE, LANE_TRACKING),  # far from the target
        (15.0, 481.0, BASE, LIGHT_BRAKE),  # c = 19 against a desired clearance of 1.3 * 15 = 19.5
        (15.0, 492.0, BASE, STRONG_BRAKE),  # c = 8 < 9.75
        (15.0, 430.0, BASE, VEHICLE_FOLLOWING),  # c = 70, between sensor range and gap
        (15.0, 471.0, FIXED, LIGHT_BRAKE),
        (15.0, 486.0, FIXED, STRONG_BRAKE),
        (15.0, 440.0, FIXED, VEHICLE_FOLLOWING),
    ],
    ids=["far", "light", "strong", "following", "fixed-light", "fixed-strong", "fixed-following"],
)
def test_mode_and_its_command(v, x, params, mode):
    reference_mode, commands = reference_control(v, x, params)
    assert reference_mode == mode
    assert _command(v, x, params) == commands[mode]


def test_commanded_accel_brake_levels():
    strong = _command(15.0, 492.0, BASE)  # c = 8 < 19.5 / 2
    light = _command(15.0, 481.0, BASE)  # c = 19 < 19.5
    assert strong == -0.8 * 9.81
    assert light == -0.3 * 9.81
    assert strong == pytest.approx(-7.848)
    assert light == pytest.approx(-2.943)


def test_commanded_accel_cruise_at_limit_is_zero():
    assert reference_control(BASE.speed_limit, 0.0, BASE)[0] == LANE_TRACKING
    assert _command(BASE.speed_limit, 0.0, BASE) == 0.0


def test_commanded_accel_comfort_bounded():
    for v in (0.0, 30.0):
        assert reference_control(v, 0.0, BASE)[0] == LANE_TRACKING
    assert _command(0.0, 0.0, BASE) <= BASE.comfort_accel
    assert _command(30.0, 0.0, BASE) >= -BASE.comfort_accel


def closed_form_brake(v0: float, x0: float, accel: float, dt: float, substeps: int):
    """Trapezoidal constant-deceleration oracle with a velocity floor."""
    h = dt / substeps
    v, x = v0, x0
    for _ in range(substeps):
        v_new = max(0.0, v + h * accel)
        x += h * 0.5 * (v + v_new)
        v = v_new
    return v, x


def test_step_strong_zone_normal_brake_matches_kinematics():
    model = GroundVehicleModel("agv-baseline")
    # Deep in the strong-brake zone the mode holds for the whole step.
    start = VehicleState(v_fwd=15.0, x_pos=492.0)
    out = model.step(start.as_array(), (int(BrakeState.NORMAL),), 2.0 / 3.0)
    v_exp, x_exp = closed_form_brake(15.0, 492.0, -7.848, 2.0 / 3.0, BASE.substeps)
    assert out[0] == pytest.approx(v_exp, abs=1e-9)
    assert out[3] == pytest.approx(x_exp, abs=1e-9)
    assert v_exp == pytest.approx(15.0 - 7.848 * 2.0 / 3.0, abs=1e-9)  # ~9.768


def test_step_major_fault_delivers_quarter():
    model = GroundVehicleModel("agv-baseline")
    start = VehicleState(v_fwd=15.0, x_pos=492.0)
    out = model.step(start.as_array(), (int(BrakeState.MAJOR_FAULT),), 2.0 / 3.0)
    v_exp, x_exp = closed_form_brake(15.0, 492.0, -7.848 * 0.25, 2.0 / 3.0, BASE.substeps)
    assert out[0] == pytest.approx(v_exp, abs=1e-9)
    assert out[3] == pytest.approx(x_exp, abs=1e-9)
    assert v_exp == pytest.approx(15.0 - 1.962 * 2.0 / 3.0, abs=1e-9)  # ~13.692


def test_step_at_rest_stays_at_rest_under_braking():
    # Fixed thresholds keep a stopped vehicle inside the strong-brake zone,
    # so the braking command is active and the floor pins it in place.
    model = GroundVehicleModel("agv-modified")
    start = VehicleState(v_fwd=0.0, x_pos=495.0)
    out = model.step(start.as_array(), (int(BrakeState.NORMAL),), 2.0 / 3.0)
    assert out[0] == 0.0
    assert out[3] == 495.0


def test_step_at_rest_holds_inside_standstill_clearance():
    # With speed-scaled thresholds a stopped vehicle inside the standstill
    # clearance has a zero speed target and stays put.
    model = GroundVehicleModel("agv-baseline")
    start = VehicleState(v_fwd=0.0, x_pos=499.0)
    out = model.step(start.as_array(), (int(BrakeState.NORMAL),), 2.0 / 3.0)
    assert out[0] == 0.0
    assert out[3] == 499.0


def test_traction_not_degraded_by_faults():
    # Far from the target the controller accelerates toward the limit; a
    # faulted brake must not touch positive commands.
    model = GroundVehicleModel("agv-baseline")
    start = VehicleState(v_fwd=5.0, x_pos=0.0)
    normal = model.step(start.as_array(), (1,), 2.0 / 3.0)
    major = model.step(start.as_array(), (3,), 2.0 / 3.0)
    assert normal[0] == major[0]
    assert normal[0] > 5.0


def test_step_is_pure_and_does_not_mutate_input():
    model = GroundVehicleModel("agv-baseline")
    arr = VehicleState(v_fwd=12.0, x_pos=470.0, v_side=1.0, yaw=0.2).as_array()
    before = arr.copy()
    out1 = model.step(arr, (2,), 2.0 / 3.0)
    out2 = model.step(arr, (2,), 2.0 / 3.0)
    assert np.array_equal(arr, before)
    assert np.array_equal(out1, out2)


def test_kinematic_consistency_single_substep():
    model = GroundVehicleModel("agv-baseline")
    model.params = dataclasses.replace(model.params, substeps=1)
    h = 0.05
    start = VehicleState(v_fwd=14.0, x_pos=492.0)  # strong zone throughout
    out = model.step(start.as_array(), (1,), h)
    a = -7.848
    assert abs((out[0] - 14.0) - a * h) <= 1e-9
    assert abs(out[3] - (492.0 + h * (14.0 + out[0]) / 2.0)) <= 1e-9


def test_lateral_regulator_decays_toward_zero():
    model = GroundVehicleModel("agv-baseline")
    arr = VehicleState(
        v_fwd=15.0, v_side=3.0, yaw_rate=0.3, x_pos=100.0, y_pos=4.0, yaw=0.8
    ).as_array()
    for _ in range(30):
        arr = model.step(arr, (1,), 2.0 / 3.0)
    assert abs(arr[1]) < 0.05 and abs(arr[4]) < 0.2
    assert abs(arr[2]) < 0.05 and abs(arr[5]) < 0.2


def stopping_distance(model, dt, brake: BrakeState) -> float:
    return model.simulate_to_rest(VehicleState(v_fwd=15.0), brake, dt).x_pos


def test_brake_monotonicity(baseline_config, baseline_model):
    args = (baseline_model, baseline_config.dt)
    d_normal = stopping_distance(*args, BrakeState.NORMAL)
    d_minor = stopping_distance(*args, BrakeState.MINOR_FAULT)
    d_major = stopping_distance(*args, BrakeState.MAJOR_FAULT)
    assert d_normal < d_minor < d_major


def test_nominal_safety_baseline(baseline_config, baseline_model):
    end = baseline_model.simulate_to_rest(
        VehicleState(v_fwd=15.0), BrakeState.NORMAL, baseline_config.dt)
    assert end.v_fwd == pytest.approx(0.0, abs=1e-6)
    assert end.x_pos < 500.0


def test_faults_cross_target_baseline(baseline_config, baseline_model):
    for brake in (BrakeState.MINOR_FAULT, BrakeState.MAJOR_FAULT):
        end = baseline_model.simulate_to_rest(VehicleState(v_fwd=15.0), brake, baseline_config.dt)
        assert end.x_pos >= 500.0


@pytest.mark.parametrize("key, params", [
    ("agv-baseline", ScenarioParams(t_gap_des=1.3)),
    ("agv-modified", ScenarioParams(fixed_light_clearance=30.0)),
])
def test_each_vehicle_key_builds_its_contingency(key, params):
    # The name a map records pins the simulator's params: the registry's
    # model and a model named by the same key both carry the key's contingency.
    assert sorted(CONTINGENCIES) == ["agv-baseline", "agv-modified"]
    for model in (SIMULATORS[key]({}), GroundVehicleModel(key)):
        assert (model.name, model.params) == (key, params)
    with pytest.raises(TypeError):
        GroundVehicleModel(params, key)  # params come from the key alone


def test_brake_state_delivery_fractions():
    assert BrakeState.NORMAL.delivery == 1.0
    assert BrakeState.MINOR_FAULT.delivery == 0.5
    assert BrakeState.MAJOR_FAULT.delivery == 0.25


def test_case_study_baseline_fields(baseline_config, baseline_model):
    cfg = baseline_config
    assert cfg.spec.total_cells == 2250
    assert cfg.spec.partitions == (5, 1, 1, 150, 1, 1)
    assert cfg.spec.states == (3,)
    assert cfg.spec.upper == (20.0, 5.0, 0.5, 600.0, 6.0, math.pi / 3)
    assert cfg.spec.lower == (0.0, -5.0, -0.5, 0.0, -6.0, -math.pi / 3)
    assert cfg.dt == pytest.approx(2.0 / 3.0)
    assert cfg.search_depth == 2
    assert cfg.truncation == 1e-8
    assert baseline_model.params.t_gap_des == 1.3
    # Two steps cover roughly the time gap at which the contingency starts.
    assert cfg.search_depth * cfg.dt == pytest.approx(4.0 / 3.0)
    H = cfg.config_model.matrices[0].entries
    assert H[0, 1] == 2e-7 and H[0, 2] == 2e-7 and H[0, 0] == 1.0 - 4e-7
    assert H[1, 0] == 0.0 and H[2, 0] == 0.0
    assert cfg.event.lower[3] == 500.0 and cfg.event.upper[3] == 600.0
    assert cfg.event.configs == frozenset({(1,), (2,), (3,)})


def test_case_study_modified_fields(baseline_config, modified_config, modified_model):
    cfg, params = modified_config, modified_model.params
    # The revised contingency's fixed 30 m is a 2 s gap at the speed limit.
    assert params.fixed_light_clearance == 2.0 * params.speed_limit == 30.0
    assert cfg.search_depth == 3
    # Three steps amount to the revised two-second time gap.
    assert cfg.search_depth * cfg.dt == pytest.approx(2.0)
    assert cfg.spec == baseline_config.spec


def test_case_study_rejects_unknown_variant(tmp_path):
    doc = yaml.safe_load((CONFIGS / "agv_baseline.yaml").read_text())
    doc["simulator"] = "agv-aggressive"
    path = tmp_path / "aggressive.yaml"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert any("agv-aggressive" in p for p in err.value.problems)
