from __future__ import annotations

import pytest

from cellrisk.configuration import (
    ComponentMatrix,
    ConfigModelError,
    ConfigTransitionModel,
    component_matrix_from_rows,
    h,
)

BRAKE_ROWS = [["~1", 2e-7, 2e-7], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


def brake_model() -> ConfigTransitionModel:
    return ConfigTransitionModel(matrices=(component_matrix_from_rows(BRAKE_ROWS),))


def test_brake_entries():
    model = brake_model()
    assert h(model, (1,), (2,)) == 2e-7
    assert h(model, (1,), (3,)) == 2e-7
    assert h(model, (1,), (1,)) == 1.0 - 4e-7
    # Failures are permanent: no way back to normal.
    assert h(model, (2,), (1,)) == 0.0
    assert h(model, (3,), (1,)) == 0.0
    assert h(model, (2,), (2,)) == 1.0


def test_brake_model_validates_clean():
    # Made at all means checked: every entry in [0, 1], every row summing to one.
    assert brake_model().sizes == (3,)


def test_two_component_product():
    a = ComponentMatrix(0, [[0.9, 0.1], [0.0, 1.0]])
    b = ComponentMatrix(1, [[0.9, 0.1], [0.2, 0.8]])
    model = ConfigTransitionModel(matrices=(a, b))
    assert h(model, (1, 1), (2, 1)) == pytest.approx(0.1 * 0.9, rel=1e-12)


def test_joint_matrix_equals_explicit_product_exhaustive():
    # Oracle: build the joint matrix over all configuration pairs by
    # explicit looping and compare entrywise with h().
    a = ComponentMatrix(0, [[0.7, 0.2, 0.1], [0.0, 0.6, 0.4], [0.0, 0.0, 1.0]])
    b = ComponentMatrix(1, [[0.5, 0.5], [0.25, 0.75]])
    model = ConfigTransitionModel(matrices=(a, b))
    for i in range(3):
        for j in range(2):
            for k in range(3):
                for l in range(2):
                    expected = a.entries[i, k] * b.entries[j, l]
                    got = h(model, (i + 1, j + 1), (k + 1, l + 1))
                    assert got == pytest.approx(expected, abs=1e-15)


def test_h_rows_are_stochastic():
    a = ComponentMatrix(0, [[0.7, 0.2, 0.1], [0.0, 0.6, 0.4], [0.0, 0.0, 1.0]])
    b = ComponentMatrix(1, [[0.5, 0.5], [0.25, 0.75]])
    model = ConfigTransitionModel(matrices=(a, b))
    for i in range(3):
        for j in range(2):
            total = sum(
                h(model, (i + 1, j + 1), (k + 1, l + 1))
                for k in range(3)
                for l in range(2)
            )
            assert abs(total - 1.0) <= 1e-9


def test_validate_reports_row_excess():
    with pytest.raises(ConfigModelError) as err:
        ComponentMatrix(0, [[0.5, 0.6], [0.0, 1.0]])
    issues = err.value.problems
    assert len(issues) == 1
    assert "row 1" in issues[0] and "+1.000e-01" in issues[0]


def test_validate_reports_negative_entry():
    with pytest.raises(ConfigModelError) as err:
        ComponentMatrix(0, [[1.2, -0.2], [0.0, 1.0]])
    assert err.value.problems == [
        "component 0 row 1 col 1: entry 1.2 outside [0, 1]",
        "component 0 row 1 col 2: entry -0.2 outside [0, 1]",
    ]


def test_loader_keeps_rounded_diagonal():
    # The diagonal is kept as written, not repaired, so the row is refused.
    with pytest.raises(ConfigModelError) as err:
        component_matrix_from_rows([[1.0, 2e-7, 2e-7], [0, 1, 0], [0, 0, 1]])
    issues = err.value.problems
    assert len(issues) == 1 and issues[0].startswith("component 0 row 1: sums to 1.0000003")


def test_loader_keeps_genuinely_bad_rows():
    with pytest.raises(ConfigModelError, match="component 0 row 1: sums to 1.1"):
        component_matrix_from_rows([[0.5, 0.6], [0.0, 1.0]])


def test_loader_rejects_double_sentinel():
    with pytest.raises(ConfigModelError):
        component_matrix_from_rows([["~1", "~1"], [0.0, 1.0]])


def test_h_index_errors():
    model = brake_model()
    with pytest.raises(ConfigModelError):
        h(model, (4,), (1,))
    with pytest.raises(ConfigModelError):
        h(model, (1, 1), (1, 1))
