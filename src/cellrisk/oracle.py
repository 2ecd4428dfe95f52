"""Independent forward Monte Carlo validation of map and search outputs.

Simulates the full hybrid system (continuous dynamics plus stochastic
configuration jumps) with no discretization. Sampling, random streams and
binning are implemented here from scratch, on purpose: agreement with the
cell-based engine is only evidence if the two share nothing but the
simulator's step_many.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bpa import TopEvent
from .cellspace import EXTERIOR_ID, CellCoord, SpaceSpec
from .configuration import ConfigTransitionModel
from .mapper import DynamicsModel

__all__ = [
    "BoxUniform",
    "CellUniform",
    "MonteCarloConfig",
    "PointInitial",
    "empirical_transition",
    "simulate_event_probability",
]

BLOCK_TRIALS = 5_000  # trials drawn, stepped and binned at once by empirical_transition


@dataclass(frozen=True)
class PointInitial:
    x: tuple[float, ...]
    n: tuple[int, ...]


@dataclass(frozen=True)
class BoxUniform:
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    n: tuple[int, ...]


@dataclass(frozen=True)
class CellUniform:
    """Uniform over one cell's box; bounds are derived locally, not imported."""

    coord: CellCoord


InitialDistribution = PointInitial | BoxUniform | CellUniform


@dataclass(frozen=True)
class MonteCarloConfig:
    trials: int
    horizon: int
    initial: InitialDistribution
    seed: int = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


def _cell_box(coord: CellCoord, spec: SpaceSpec) -> tuple[list[float], list[float]]:
    lo, hi = [], []
    for l in range(spec.L):
        w = (spec.upper[l] - spec.lower[l]) / spec.partitions[l]
        a = spec.lower[l] + (coord.j[l] - 1) * w
        lo.append(a)
        hi.append(a + w)
    return lo, hi


def _initial_box(
    initial: InitialDistribution, spec: SpaceSpec | None
) -> tuple[list[float], list[float], tuple[int, ...]]:
    """(lower, upper, configuration) of the initial law; a point is a zero-width box."""
    if isinstance(initial, PointInitial):
        return list(initial.x), list(initial.x), initial.n
    if isinstance(initial, BoxUniform):
        return list(initial.lower), list(initial.upper), initial.n
    if spec is None:
        raise ValueError("cell-uniform initial distribution needs a spec")
    return (*_cell_box(initial.coord, spec), initial.coord.n)


def _uniform_box(lo: Sequence[float], hi: Sequence[float], u: np.ndarray) -> np.ndarray:
    """Rows of uniforms u mapped into the box, dimension by dimension."""
    lo_a, hi_a = np.array(lo, dtype=float), np.array(hi, dtype=float)
    return lo_a + u * (hi_a - lo_a)


def _jump_configs(
    config_model: ConfigTransitionModel, ns: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Next configuration of every row by inverse CDF, one uniform per component.

    Each component takes the first state whose running row sum exceeds its
    uniform, or its last state on rounding dust.
    """
    out = np.empty_like(ns)
    for m in range(config_model.M):
        cdf = np.cumsum(config_model.matrices[m].entries, axis=1)[ns[:, m] - 1]
        below = u[:, m, None] < cdf
        out[:, m] = np.where(below.any(axis=1), below.argmax(axis=1) + 1, cdf.shape[1])
    return out


def simulate_event_probability(
    model: DynamicsModel,
    config_model: ConfigTransitionModel,
    event: TopEvent,
    mc: MonteCarloConfig,
    dt: float,
    spec: SpaceSpec | None = None,
) -> tuple[float, float]:
    """Estimate the probability of entering the event within the horizon.

    Per trial: draw an initial hybrid state, then alternate a dynamics step
    under the current configuration with a configuration jump drawn from the
    per-step matrices, flagging success the first time the state sits in the
    event box with an admissible configuration. Returns the hit fraction and
    its binomial standard error; deterministic for a given seed.

    Every trial draws from its own stream, seeded by the seed and the trial
    index: first one uniform per initial dimension (none for a point), then
    one per component at each step. All trials are stepped together, one
    step_many call per configuration among the trials that have not hit yet.
    """
    lo, hi, n0 = _initial_box(mc.initial, spec)
    k0 = 0 if isinstance(mc.initial, PointInitial) else len(lo)
    M = config_model.M
    draws = np.empty((mc.trials, k0 + M * mc.horizon))
    for trial, row in enumerate(draws):
        rng = random.Random(f"{mc.seed}:{trial}")
        # A hit trial leaves the rest of its row unused, as if it stopped drawing.
        row[:] = [rng.random() for _ in range(row.size)]
    if k0:
        x = _uniform_box(lo, hi, draws[:, :k0])
    else:
        x = np.tile(np.array(lo, dtype=float), (mc.trials, 1))
    ns = np.tile(np.array(n0, dtype=np.int64), (mc.trials, 1))
    ev_lo, ev_hi = np.array(event.lower), np.array(event.upper)
    hits = 0
    for step in range(mc.horizon):
        configs, group = np.unique(ns, axis=0, return_inverse=True)
        for g, n in enumerate(configs.tolist()):
            rows = group == g
            x[rows] = model.step_many(x[rows], tuple(n), dt)
        ns = _jump_configs(config_model, ns, draws[:, k0 + M * step : k0 + M * (step + 1)])
        admissible = np.array([tuple(n) in event.configs for n in ns.tolist()], dtype=bool)
        hit = admissible & np.all((x > ev_lo) & (x < ev_hi), axis=1)
        hits += int(hit.sum())
        x, ns, draws = x[~hit], ns[~hit], draws[~hit]
    p = hits / mc.trials
    se = math.sqrt(p * (1.0 - p) / mc.trials)
    return p, se


def empirical_transition(
    model: DynamicsModel,
    source_cell: CellCoord,
    spec: SpaceSpec,
    dt: float,
    trials: int,
    seed: int = 0,
) -> list[tuple[tuple[int, ...] | int, Fraction]]:
    """Re-estimate one flow row with an independent sampling and binning path.

    Mirrors the quadrature definition (uniform points from the source box,
    one step under the source configuration, relative frequencies by target
    cell) without touching the engine's sampling or binning code. Trials
    run in blocks of BLOCK_TRIALS, all drawn from one stream, so memory is
    bounded whatever the trial count. The returned frequencies sum to
    exactly one.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    lo, hi = _cell_box(source_cell, spec)
    lower, upper = np.array(spec.lower), np.array(spec.upper)
    parts = np.array(spec.partitions)
    w = (upper - lower) / parts
    counts: Counter = Counter()  # trials by target j-coordinate
    n_out = 0
    for done in range(0, trials, BLOCK_TRIALS):
        k = min(BLOCK_TRIALS, trials - done)
        u = np.array([rng.random() for _ in range(k * spec.L)]).reshape(k, spec.L)
        ys = np.asarray(model.step_many(_uniform_box(lo, hi, u), source_cell.n, dt), dtype=float)
        inside = np.all((ys >= lower) & (ys <= upper), axis=1)
        # Closed top interval: a point on an upper bound falls in the last cell.
        js = np.minimum(np.floor((ys[inside] - lower) / w).astype(np.int64), parts - 1) + 1
        targets, c = np.unique(js, axis=0, return_counts=True)
        counts.update(dict(zip(map(tuple, targets.tolist()), c.tolist())))
        n_out += k - int(inside.sum())
    row: list[tuple[tuple[int, ...] | int, Fraction]] = [
        (t, Fraction(c, trials)) for t, c in sorted(counts.items())
    ]
    if n_out:
        row.append((EXTERIOR_ID, Fraction(n_out, trials)))
    return row
