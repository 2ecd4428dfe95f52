from __future__ import annotations

import numpy as np
import pytest

from cellrisk.configuration import (
    ComponentMatrix,
    ConfigModelError,
    ConfigTransitionModel,
    StepSizeError,
    component_matrix_from_rows,
    h,
    rate_matrix_to_step_matrix,
    validate,
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
    assert validate(brake_model()) == []


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


def test_rate_conversion_hour_identity():
    rates = [[0.0, 2e-7], [0.0, 0.0]]
    step = rate_matrix_to_step_matrix(rates, dt=3600.0)
    assert step.entries[0, 1] == pytest.approx(2e-7, rel=1e-12)
    assert step.entries[0, 0] == pytest.approx(1.0 - 2e-7, rel=1e-12)


def test_rate_conversion_subsecond():
    rates = [[0.0, 2e-7], [0.0, 0.0]]
    step = rate_matrix_to_step_matrix(rates, dt=2.0 / 3.0)
    assert step.entries[0, 1] == pytest.approx(2e-7 * (2.0 / 3.0) / 3600.0, rel=1e-12)
    assert step.entries[0, 1] == pytest.approx(3.7037037e-11, rel=1e-6)


def test_rate_conversion_zero_rates_identity():
    step = rate_matrix_to_step_matrix(np.zeros((3, 3)), dt=10.0)
    assert np.array_equal(step.entries, np.eye(3))


def test_rate_conversion_rejects_large_dt():
    rates = [[0.0, 3600.0], [0.0, 0.0]]
    with pytest.raises(StepSizeError):
        rate_matrix_to_step_matrix(rates, dt=7200.0)


def test_validate_reports_row_excess():
    model = ConfigTransitionModel(matrices=(ComponentMatrix(0, [[0.5, 0.6], [0.0, 1.0]]),))
    issues = validate(model)
    assert len(issues) == 1
    assert "row 1" in issues[0] and "+1.000e-01" in issues[0]


def test_validate_reports_negative_entry():
    model = ConfigTransitionModel(
        matrices=(ComponentMatrix(0, [[1.2, -0.2], [0.0, 1.0]]),)
    )
    issues = validate(model)
    assert any("outside [0, 1]" in msg for msg in issues)


def test_loader_keeps_rounded_diagonal():
    comp = component_matrix_from_rows([[1.0, 2e-7, 2e-7], [0, 1, 0], [0, 0, 1]])
    assert comp.entries[0, 0] == 1.0
    issues = validate(ConfigTransitionModel(matrices=(comp,)))
    assert len(issues) == 1 and issues[0].startswith("component 0 row 1: sums to 1.0000003")


def test_loader_keeps_genuinely_bad_rows():
    comp = component_matrix_from_rows([[0.5, 0.6], [0.0, 1.0]])
    assert comp.entries[0, 0] == 0.5
    assert validate(ConfigTransitionModel(matrices=(comp,))) != []


def test_loader_rejects_double_sentinel():
    with pytest.raises(ConfigModelError):
        component_matrix_from_rows([["~1", "~1"], [0.0, 1.0]])


def test_h_index_errors():
    model = brake_model()
    with pytest.raises(ConfigModelError):
        h(model, (4,), (1,))
    with pytest.raises(ConfigModelError):
        h(model, (1, 1), (1, 1))
