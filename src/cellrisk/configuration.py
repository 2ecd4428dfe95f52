"""Per-component state-transition probabilities over one time step.

Components transition independently, so the joint configuration
transition probability is a product of per-component matrix entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ComponentMatrix",
    "ConfigModelError",
    "ConfigTransitionModel",
    "DERIVE_ENTRY",
    "StepSizeError",
    "component_matrix_from_rows",
    "rate_matrix_to_step_matrix",
    "validate",
]

ROW_SUM_TOL = 1e-9  # for component matrix rows and transition map rows alike

# The matrix entry that means "fill this entry so the row sums to one" (the
# usual way near-one diagonals are written down).
DERIVE_ENTRY = "~1"


class ConfigModelError(ValueError):
    """Raised for malformed component matrices or bad state indices."""


class StepSizeError(ValueError):
    """Raised when a time step is too large for the given transition rates."""


@dataclass(frozen=True)
class ComponentMatrix:
    """One component's state-transition matrix over a single time step.

    Rows index the initial state, columns the final state (1-based at the
    API surface, 0-based in the array).
    """

    component_index: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ConfigModelError(
                f"component {self.component_index}: matrix must be square, got {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class ConfigTransitionModel:
    """Joint configuration transition model, one matrix per component."""

    matrices: tuple[ComponentMatrix, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrices", tuple(self.matrices))
        if not self.matrices:
            raise ConfigModelError("model needs at least one component matrix")

    @property
    def M(self) -> int:
        return len(self.matrices)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(m.size for m in self.matrices)

    def matrix_for(self, m: int) -> np.ndarray:
        return self.matrices[m].entries


def h(model: ConfigTransitionModel, n_prev: Sequence[int], n_next: Sequence[int]) -> float:
    """Joint probability of the configuration jump n_prev -> n_next.

    Product of per-component row entries, folded in component order.
    """
    if len(n_prev) != model.M or len(n_next) != model.M:
        raise ConfigModelError(
            f"configuration length mismatch: expected {model.M} components"
        )
    p = 1.0
    for m in range(model.M):
        mat = model.matrix_for(m)
        size = mat.shape[0]
        a, b = n_prev[m], n_next[m]
        if not (1 <= a <= size and 1 <= b <= size):
            raise ConfigModelError(
                f"component {m}: state pair ({a}, {b}) outside 1..{size}"
            )
        p *= float(mat[a - 1, b - 1])
    return p


def rate_matrix_to_step_matrix(
    rates: Sequence[Sequence[float]] | np.ndarray,
    dt: float,
    component_index: int = 0,
) -> ComponentMatrix:
    """Convert per-hour transition rates into a per-step probability matrix.

    Off-diagonal entries become rate * dt/3600; diagonals absorb the rest of
    the row. dt is in seconds.
    """
    arr = np.array(rates, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ConfigModelError(f"rate matrix must be square, got {arr.shape}")
    off = arr * (dt / 3600.0)
    np.fill_diagonal(off, 0.0)
    if np.any(off < 0):
        raise ConfigModelError("off-diagonal rates must be >= 0")
    if np.any(off >= 1.0):
        raise StepSizeError(f"dt={dt}s makes an off-diagonal probability >= 1")
    diag = 1.0 - off.sum(axis=1)
    if np.any(diag <= 0.0):
        raise StepSizeError(f"dt={dt}s drives a diagonal probability <= 0")
    step = off.copy()
    np.fill_diagonal(step, diag)
    return ComponentMatrix(component_index, step)


def component_matrix_from_rows(rows: list, component_index: int = 0) -> ComponentMatrix:
    """Build a component matrix from row lists as written in a config file.

    At most one entry per row may be a derive sentinel ("~1"); it is filled
    with one minus the rest of the row. Every other entry is kept as written,
    a rounded diagonal too, for validate() to report. A matrix or row that is
    not a list, or an entry neither a number nor a sentinel, raises
    ConfigModelError naming it.
    """
    where = f"component {component_index}"
    if not isinstance(rows, list):
        raise ConfigModelError(f"{where}: matrix must be a list of rows, got {rows!r}")
    size = len(rows)
    out = np.zeros((size, size), dtype=float)
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ConfigModelError(f"{where}: row {i + 1} must be a list, got {row!r}")
        if len(row) != size:
            raise ConfigModelError(
                f"{where}: row {i + 1} has {len(row)} entries, expected {size}"
            )
        derive_at: int | None = None
        for k, entry in enumerate(row):
            if isinstance(entry, str) and entry.strip() == DERIVE_ENTRY:
                if derive_at is not None:
                    raise ConfigModelError(f"{where}: row {i + 1} has multiple derive entries")
                derive_at = k
            elif isinstance(entry, (int, float)) and not isinstance(entry, bool):
                out[i, k] = entry
            else:
                raise ConfigModelError(
                    f"{where}: row {i + 1} entry {k + 1} is not a number, got {entry!r}"
                )
        if derive_at is not None:
            rest = out[i].sum()
            if rest > 1.0:
                raise ConfigModelError(f"{where}: row {i + 1} off-entries sum to {rest} > 1")
            out[i, derive_at] = 1.0 - rest
    return ComponentMatrix(component_index, out)


def validate(model: ConfigTransitionModel) -> list[str]:
    """Check range and row-stochasticity invariants.

    Returns one message per violation naming matrix, row and defect size;
    empty list means the model is sound.
    """
    violations: list[str] = []
    for m, comp in enumerate(model.matrices):
        arr = comp.entries
        for i in range(comp.size):
            for k in range(comp.size):
                v = arr[i, k]
                if not 0.0 <= v <= 1.0:
                    violations.append(
                        f"component {m} row {i + 1} col {k + 1}: entry {v} outside [0, 1]"
                    )
            row_sum = float(arr[i].sum())
            if abs(row_sum - 1.0) > ROW_SUM_TOL:
                violations.append(
                    f"component {m} row {i + 1}: sums to {row_sum!r}, "
                    f"off by {row_sum - 1.0:+.3e}"
                )
    return violations
