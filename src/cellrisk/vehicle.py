"""Case-study simulator: a ground vehicle approaching a stationary target.

Planar model with longitudinal emphasis. A mode controller picks the
longitudinal action from the clearance to a stationary target vehicle
(cruise, follow, light brake, strong brake); brake-health states degrade
every braking command by a fixed delivery fraction. The four lateral
states are held near zero by a critically damped regulator, standing in
for the lane-keeping loop in this straight single-lane scenario.

State vector layout (order is fixed and shared with the discretization):
0 forward velocity [m/s], 1 sideward velocity [m/s], 2 yaw rate [rad/s],
3 x-position [m], 4 y-position [m], 5 yaw [rad].
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .mapper import DynamicsModel

__all__ = [
    "BrakeState",
    "GroundVehicleModel",
    "ScenarioParams",
    "VehicleState",
]

IDX_V_FWD, IDX_V_SIDE, IDX_YAW_RATE, IDX_X, IDX_Y, IDX_YAW = range(6)


class BrakeState(enum.IntEnum):
    """Brake-system health; the value is the 1-based component state index."""

    NORMAL = 1
    MINOR_FAULT = 2
    MAJOR_FAULT = 3

    @property
    def delivery(self) -> float:
        """Fraction of a braking command the actuator actually delivers."""
        return {1: 1.0, 2: 0.5, 3: 0.25}[int(self)]


@dataclass(eq=False)
class VehicleState:
    v_fwd: float
    v_side: float = 0.0
    yaw_rate: float = 0.0
    x_pos: float = 0.0
    y_pos: float = 0.0
    yaw: float = 0.0

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.v_fwd, self.v_side, self.yaw_rate, self.x_pos, self.y_pos, self.yaw]
        )

    @classmethod
    def from_array(cls, x: np.ndarray) -> VehicleState:
        return cls(*(float(v) for v in x))


@dataclass(frozen=True)
class ScenarioParams:
    """Scenario geometry, contingency thresholds and controller tuning.

    The light-brake threshold is t_gap_des * v, or fixed_light_clearance where
    the revised contingency fixes it; the strong one is always half the light
    one. Gains are tuning values, not scenario facts.
    """

    speed_limit: float = 15.0
    target_x: float = 500.0
    sensor_range: float = 100.0
    t_gap_des: float = 1.3
    light_brake_g: float = -0.3
    strong_brake_g: float = -0.8
    gravity: float = 9.81
    fixed_light_clearance: float | None = None
    comfort_g: float = 0.2
    k_speed: float = 0.5          # cruise speed-tracking gain [1/s]
    k_gap: float = 1.2            # approach-profile tracking gain [1/s]
    standstill_clearance: float = 2.0  # where the approach profile stops [m]
    lateral_omega: float = 1.0    # lateral regulator natural frequency [1/s]
    substeps: int = 16

    @property
    def comfort_accel(self) -> float:
        return self.comfort_g * self.gravity

    @property
    def light_accel(self) -> float:
        return self.light_brake_g * self.gravity

    @property
    def strong_accel(self) -> float:
        return self.strong_brake_g * self.gravity


def _command(v, x, p: ScenarioParams):
    """Commanded acceleration, elementwise in forward velocity v and x-position x.

    The controller's mode follows from the clearance to the target in
    priority order, with no hidden memory: beyond sensor range (lane
    tracking), then inside the strong threshold (strong brake), then inside
    the light one (light brake), else vehicle following. Cruise tracks the
    speed limit and following a comfort-braking profile that stops
    standstill_clearance short, both clipped to the comfort acceleration (as
    np.clip would, bit for bit, without its call overhead). The cruise
    command is computed only when some clearance is beyond sensor range, and
    only it when all are.
    """
    c = p.target_x - x
    comf = p.comfort_accel
    far = np.greater(c, p.sensor_range)  # a numpy bool for scalars too, so any() is a method
    some_far = far.any()
    if some_far:
        cruise = np.minimum(np.maximum(p.k_speed * (p.speed_limit - v), -comf), comf)
        if far.all():
            return cruise
    light = p.t_gap_des * v if p.fixed_light_clearance is None else p.fixed_light_clearance
    strong = light / 2.0
    margin = np.maximum(0.0, c - p.standstill_clearance)
    v_des = np.minimum(p.speed_limit, np.sqrt(2.0 * comf * margin))
    follow = np.minimum(np.maximum(p.k_gap * (v_des - v), -comf), comf)
    accel = np.where(c < strong, p.strong_accel, np.where(c < light, p.light_accel, follow))
    return np.where(far, cruise, accel) if some_far else accel


class GroundVehicleModel(DynamicsModel):
    """Vectorized one-step integrator for the scenario vehicle, named by its registry key."""

    def __init__(self, params: ScenarioParams, name: str):
        self.params = params
        self.name = name

    def step_many(self, xs: np.ndarray, n: tuple[int, ...], dt: float) -> np.ndarray:
        """Advance a batch of states one time step under a fixed brake state.

        The interval is sub-stepped with the mode re-evaluated each sub-step
        so trajectories can cross contingency thresholds mid-step. Braking
        commands (negative) are scaled by the brake delivery fraction;
        traction is unaffected. Forward velocity floors at zero and position
        advances by trapezoidal integration.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        p = self.params
        delivery = BrakeState(n[0]).delivery
        batch = np.asarray(xs, dtype=float)
        if batch.ndim != 2 or batch.shape[1] != 6:
            raise ValueError(f"state batch must be (N, 6), got {batch.shape}")
        h = dt / p.substeps
        omega = p.lateral_omega

        cols = batch.T.copy()  # one contiguous row per state variable, in IDX_* order
        v, x = cols[IDX_V_FWD], cols[IDX_X]
        # Views into cols: (v_side, yaw_rate) and the (y, yaw) they drive, row by row.
        rates, poses = cols[IDX_V_SIDE : IDX_YAW_RATE + 1], cols[IDX_Y : IDX_YAW + 1]
        pull, damp = np.empty_like(rates), np.empty_like(rates)

        for _ in range(p.substeps):
            a = _command(v, x, p)
            if delivery != 1.0:
                np.multiply(a, delivery, out=a, where=a < 0.0)
            # In place, the same IEEE operations in the same order as
            # v_new = max(0, v + h*a); x += (h*0.5) * (v + v_new).
            v_new = np.maximum(0.0, np.add(v, np.multiply(h, a, out=a), out=a), out=a)
            x += np.multiply(h * 0.5, np.add(v, v_new, out=v), out=v)
            v[:] = v_new

            # Critically damped pairs (y, v_side) and (yaw, yaw_rate), semi-implicit Euler
            # (stable at omega * h << 1) in place: rates += h * (-(omega**2)*poses - ...).
            np.multiply(-(omega**2), poses, out=pull)
            pull -= np.multiply(2.0 * omega, rates, out=damp)
            rates += np.multiply(h, pull, out=pull)
            poses += np.multiply(h, rates, out=pull)

        return np.ascontiguousarray(cols.T)

    def simulate_to_rest(self, state: VehicleState, brake: BrakeState, dt: float) -> VehicleState:
        """Step until the vehicle stops (1e-6 m/s) or is 100 m past the target, at most
        10,000 steps; returns the end state."""
        x = state.as_array()
        for _ in range(10_000):
            x = self.step(x, (int(brake),), dt)
            if x[IDX_V_FWD] <= 1e-6 or x[IDX_X] > self.params.target_x + 100.0:
                break
        return VehicleState.from_array(x)

