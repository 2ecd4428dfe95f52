"""Per-component state-transition probabilities over one time step, and the field reader.

Components transition independently, so the joint configuration transition probability is
a product of per-component matrix entries. _read_fields reads the config and the map header.
"""

from __future__ import annotations

import math
import reprlib
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "ComponentMatrix",
    "ConfigModelError",
    "ConfigTransitionModel",
    "DERIVE_ENTRY",
    "component_matrix_from_rows",
]

ROW_SUM_TOL = 1e-9  # for component matrix rows and transition map rows alike

# The matrix entry that means "fill this entry so the row sums to one" (the
# usual way near-one diagonals are written down).
DERIVE_ENTRY = "~1"

PROBLEM_CAP = 20  # problems named in one error; the rest are counted
ECHO_CAP = 60  # characters of a value echoed in a problem

# The one repr of every value a problem echoes: a value read from a file may be any size.
_repr = reprlib.Repr()
_repr.maxlevel, _repr.maxstring = 2, ECHO_CAP


def echo(value: object) -> str:
    """value as a problem shows it: its bounded repr, cut to ECHO_CAP characters."""
    text = _repr.repr(value)
    return text if len(text) <= ECHO_CAP else text[:ECHO_CAP - 3] + "..."


def capped(problems: list[str]) -> list[str]:
    """The first PROBLEM_CAP problems, then one counting the rest."""
    rest = len(problems) - PROBLEM_CAP
    return problems[:PROBLEM_CAP] + ([f"and {rest} more problems"] if rest > 0 else [])


class ConfigModelError(ValueError):
    """Raised for malformed component matrices or bad state indices, one message per problem."""

    def __init__(self, *problems: str):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


@dataclass(frozen=True)
class ComponentMatrix:
    """One component's state-transition matrix over a single time step.

    Rows index the initial state, columns the final state (1-based at the
    API surface, 0-based in the array). Every entry outside [0, 1] and every
    row off one by more than ROW_SUM_TOL is named, row by row, and refused.
    """

    component_index: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=float)
        m = self.component_index
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ConfigModelError(f"component {m}: matrix must be square, got {arr.shape}")
        problems = []
        for i, (row, total) in enumerate(zip(arr.tolist(), arr.sum(axis=1).tolist()), 1):
            problems += [f"component {m} row {i} col {k}: entry {v} outside [0, 1]"
                         for k, v in enumerate(row, 1) if not 0.0 <= v <= 1.0]
            if abs(total - 1.0) > ROW_SUM_TOL:
                problems.append(f"component {m} row {i}: sums to {total!r}, "
                                f"off by {total - 1.0:+.3e}")
        if problems:
            raise ConfigModelError(*problems)
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


def component_matrix_from_rows(rows: list, component_index: int = 0) -> ComponentMatrix:
    """Build a component matrix from row lists as written in a config file.

    At most one entry per row may be a derive sentinel ("~1"); it is filled
    with one minus the rest of the row. Every other entry is kept as written,
    a rounded diagonal too, for ComponentMatrix to name (a derived entry below
    0 too). A matrix or row that is not a list, or an entry neither a number
    nor a sentinel, or an integer past every float, raises ConfigModelError naming it.
    """
    where = f"component {component_index}"
    if not isinstance(rows, list):
        raise ConfigModelError(f"{where}: matrix must be a list of rows, got {echo(rows)}")
    size = len(rows)
    out = np.zeros((size, size), dtype=float)
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ConfigModelError(f"{where}: row {i + 1} must be a list, got {echo(row)}")
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
                if isinstance(entry, int) and abs(entry) > sys.float_info.max:
                    raise ConfigModelError(f"{where}: row {i + 1} entry {k + 1} must be "
                                           f"finite, got {echo(entry)}")
                out[i, k] = entry
            else:
                raise ConfigModelError(
                    f"{where}: row {i + 1} entry {k + 1} is not a number, got {echo(entry)}"
                )
        if derive_at is not None:
            out[i, derive_at] = 1.0 - out[i].sum()
    return ComponentMatrix(component_index, out)


_REQUIRED = object()  # default of a field that must be given
_BAD = object()  # a value whose problem has been named

# The types each kind accepts, never a boolean; a null mapping stands for an empty one.
# A config's numbers are "a number or its text", which _parse_number reads.
_TYPES = {"a number": (int, float), "an integer": (int,), "a string": (str,),
          "a list": (list,), "a mapping": (dict, type(None))}


class _Field(NamedTuple):
    """One key of a config or map file: its kind, default and range.

    A number must be finite and in [low, high), or (low, high) with
    open_low; a bound of None is no bound. An integer must fit in 64 bits.
    entry is the field every entry of a list is read as, and table the
    fields of a mapping, read in order.
    """

    kind: str
    default: object = _REQUIRED
    low: float | None = None
    high: float | None = None
    open_low: bool = False
    entry: _Field | None = None
    table: dict[str, _Field] | None = None


def _parse_number(value: object, where: str, problems: list[str]) -> float | None:
    """A plain number (not a boolean), or text [-](pi|<float>)[/<float>] like 'pi/3', '-2/3'.

    Spaces are ignored. The numerator's one sign is the leading '-' and no
    '+' is read anywhere; a denominator may carry its own '-'. A plain number
    is returned as given; anything else is a problem, named, and gives None.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        text = value.strip().replace(" ", "")
        sign = -1.0 if text.startswith("-") else 1.0
        num, slash, den = text.removeprefix("-").partition("/")
        if "+" not in text and not num.startswith("-"):
            try:
                return (sign * (math.pi if num == "pi" else float(num))
                        / (float(den) if slash else 1.0))
            except (ValueError, ZeroDivisionError):
                pass
    problems.append(f"{where}: cannot interpret {echo(value)} as a number")
    return None


def _range_problem(value: object, f: _Field, where: str) -> str | None:
    """The problem of a number past 64 bits (an integer's), not finite, or outside f's range."""
    if not isinstance(value, (int, float)):
        return None
    if f.kind == "an integer" and not -2**63 <= value < 2**63:
        return f"{where} must fit in 64 bits, got {echo(value)}"
    if not abs(value) <= sys.float_info.max:
        return f"{where} must be finite, got {echo(value)}"
    below = f.low is not None and (value <= f.low if f.open_low else value < f.low)
    if not below and (f.high is None or value < f.high):
        return None
    if f.high is None:
        return f"{where} must be {'>' if f.open_low else '>='} {f.low}, got {value}"
    return f"{where} must be in {'(' if f.open_low else '['}{f.low}, {f.high}), got {value}"


def _read_value(value: object, f: _Field, where: str, problems: list[str]) -> object:
    """value read as f's kind (a number as a float) and checked, or _BAD with its problem named."""
    if f.kind == "a number or its text":
        if (value := _parse_number(value, where, problems)) is None:
            return _BAD
    elif isinstance(value, bool) or not isinstance(value, _TYPES[f.kind]):
        problems.append(f"{where} must be {f.kind}, got {echo(value)}")
        return _BAD
    if f.entry is not None:
        entries = [_read_value(v, f.entry, f"{where} entry {k + 1}", problems)
                   for k, v in enumerate(value)]
        return _BAD if any(e is _BAD for e in entries) else entries
    if f.table is not None:
        return _read_fields(value or {}, f.table, where + ".", problems)
    if problem := _range_problem(value, f, where):
        problems.append(problem)
        return _BAD
    return float(value) if isinstance(value, int) and f.kind != "an integer" else value


def _read_fields(raw: dict, table: dict[str, _Field], prefix: str, problems: list[str]) -> dict:
    """raw read by table in one pass, defaults filled in.

    Names every unknown key, missing required field and value of the wrong
    kind, non-finite or out of range; such values are left out.
    """
    problems += [f"unknown field {echo(f'{prefix}{key}')}" for key in raw if key not in table]
    values = {}
    for key, f in table.items():
        if key in raw:
            if (value := _read_value(raw[key], f, prefix + key, problems)) is not _BAD:
                values[key] = value
        elif f.default is _REQUIRED:
            problems.append(f"missing field {prefix + key!r}")
        else:
            values[key] = f.default
    return values
