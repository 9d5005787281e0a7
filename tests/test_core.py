import math

import numpy as np
import pytest

from covbell.core import (HiddenPoint, MeasurementSetting, Outcome, dot,
                          setting_grid, tsirelson_settings)

S2 = 1.0 / math.sqrt(2.0)


def test_dot_identical_vectors():
    a = MeasurementSetting(1, 0, 0)
    assert dot(a, a) == 1.0


def test_dot_orthogonal_vectors():
    assert dot(MeasurementSetting(1, 0, 0), MeasurementSetting(0, 0, 1)) == 0.0


def test_dot_45_degrees():
    a = MeasurementSetting(1, 0, 0)
    b = MeasurementSetting(S2, 0, S2)
    assert dot(a, b) == pytest.approx(0.7071067811865476, abs=1e-12)


def test_dot_symmetric_and_clamped():
    g = setting_grid(20)
    for a in g:
        for b in g:
            assert dot(a, b) == dot(b, a)
            assert abs(dot(a, b)) <= 1.0


def test_tsirelson_settings_values():
    a, ap, b, bp = tsirelson_settings()
    assert (b.x, b.y, b.z) == pytest.approx((-S2, 0.0, -S2), abs=1e-12)
    assert dot(a, ap) == 0.0
    for s in (a, ap, b, bp):
        assert np.linalg.norm(s.as_array()) == pytest.approx(1.0, abs=1e-9)


def test_tsirelson_chsh_closed_form():
    a, ap, b, bp = tsirelson_settings()
    e = lambda u, v: -dot(u, v)
    s = e(a, b) + e(a, bp) + e(ap, b) - e(ap, bp)
    assert s == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)


def test_tsirelson_settings_reproducible():
    assert tsirelson_settings() == tsirelson_settings()


def test_setting_grid_single():
    (s,) = setting_grid(1)
    assert np.linalg.norm(s.as_array()) == pytest.approx(1.0, abs=1e-9)


def test_setting_grid_unit_norm():
    for s in setting_grid(100):
        assert np.linalg.norm(s.as_array()) == pytest.approx(1.0, abs=1e-9)


def test_setting_grid_deterministic():
    assert setting_grid(100) == setting_grid(100)


def test_setting_grid_empty_rejected():
    with pytest.raises(ValueError, match="empty grid"):
        setting_grid(0)


def test_setting_normalizes_near_unit():
    s = MeasurementSetting(1.0 + 5e-7, 0.0, 0.0)
    assert s.x == pytest.approx(1.0, abs=1e-12)


def test_setting_rejects_far_from_unit():
    with pytest.raises(ValueError):
        MeasurementSetting(1.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        MeasurementSetting(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        MeasurementSetting(math.nan, 0.0, 0.0)


@pytest.mark.parametrize("v", [[1.0, 0.0], [1.0, 0.0, 0.0, 0.0], [[1.0, 0.0, 0.0]], 1.0])
def test_setting_from_array_needs_three_components(v):
    with pytest.raises(ValueError, match="exactly 3 components"):
        MeasurementSetting.from_array(v)


def test_outcome_only_plus_minus_one():
    assert Outcome(1) is Outcome.PLUS
    assert Outcome(-1) is Outcome.MINUS
    with pytest.raises(ValueError):
        Outcome(0)
    with pytest.raises(ValueError):
        Outcome(2)


def test_hidden_point_range_checked():
    HiddenPoint((0.0, 1.0, 0.5))
    with pytest.raises(ValueError, match="1.5 outside"):
        HiddenPoint((0.5, 1.5))
    with pytest.raises(ValueError, match="-0.1 outside"):
        HiddenPoint((-0.1,))
    with pytest.raises(ValueError, match="nan outside"):
        HiddenPoint((0.5, float("nan")))
