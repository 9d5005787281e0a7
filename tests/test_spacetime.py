import math

import numpy as np
import pytest
from hypothesis import example, given, settings

from covbell.core import TimeOrdering
from covbell.spacetime import (Boost, Event, SimultaneousEventsError,
                               boost_event, is_spacelike, time_order)
from property_inputs import EVENT, VELOCITY


def test_spacelike_simultaneous_separated():
    assert is_spacelike(Event(0, 0), Event(0, 1))


def test_timelike_not_spacelike():
    assert not is_spacelike(Event(0, 0), Event(2, 1))


def test_lightlike_not_spacelike():
    assert not is_spacelike(Event(0, 0), Event(1, 1))


@pytest.mark.parametrize("t,x", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
def test_non_finite_event_rejected(t, x):
    with pytest.raises(ValueError, match="finite"):
        Event(t, x)


def test_boost_standard_values():
    e = boost_event(Event(0, 1), Boost(0.6))  # gamma = 1.25
    assert e.t == pytest.approx(-0.75, abs=1e-12)
    assert e.x == pytest.approx(1.25, abs=1e-12)


def test_boost_fixes_origin():
    for v in (-0.9, -0.3, 0.0, 0.5, 0.99):
        e = boost_event(Event(0, 0), Boost(v))
        assert (e.t, e.x) == (0.0, 0.0)


def test_identity_boost():
    e = boost_event(Event(1, 0), Boost(0.0))
    assert (e.t, e.x) == (1.0, 0.0)


def test_superluminal_boost_rejected():
    for v in (1.0, -1.0, 1.5, float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="superluminal"):
            Boost(v)


def test_nan_boost_named_as_nan():
    with pytest.raises(ValueError, match="NaN"):
        Boost(float("nan"))


def test_time_order_flips_with_velocity_sign():
    ea, eb = Event(0, -1), Event(0, 1)
    assert time_order(ea, eb, Boost(-0.5)) is TimeOrdering.AB
    assert time_order(ea, eb, Boost(0.5)) is TimeOrdering.BA


def test_time_order_simultaneous_errors():
    with pytest.raises(SimultaneousEventsError, match="simultaneous"):
        time_order(Event(0, -1), Event(0, 1), Boost(0.0))


def _boosted_time(e: Event, b: Boost) -> float:
    """boost_event(e, b).t; where a boosted coordinate overflows and Event rejects
    it, boost_event's expression in Python floats."""
    try:
        return boost_event(e, b).t
    except ValueError:
        return b.gamma * (e.t - b.v * e.x)


@settings(max_examples=300, deadline=None)
@given(EVENT, EVENT, VELOCITY)
@example((0.0, 1e308), (0.0, 1.5e308), 0.999999)  # both times overflow to -inf: not equal
@example((0.0, 1.7e308), (0.0, 1.0), 0.5)  # x' overflows, t' does not
@example((0.0, -0.0), (-0.0, 0.0), -0.0)
def test_time_order_is_the_order_of_the_boosted_times(event_a, event_b, v):
    ea, eb, b = Event(*event_a), Event(*event_b), Boost(v)
    ta, tb = _boosted_time(ea, b), _boosted_time(eb, b)
    if not (math.isfinite(ta) and math.isfinite(tb)):  # not simultaneous: unorderable
        with pytest.raises(ValueError, match="overflows") as err:
            time_order(ea, eb, b)
        assert not isinstance(err.value, SimultaneousEventsError)
    elif ta == tb:
        with pytest.raises(SimultaneousEventsError):
            time_order(ea, eb, b)
    else:
        assert time_order(ea, eb, b) is (TimeOrdering.AB if ta < tb else TimeOrdering.BA)


def test_spacelike_pairs_orderable_both_ways():
    rng = np.random.default_rng(11)
    found = 0
    for _ in range(50):
        ea = Event(rng.uniform(-1, 1), rng.uniform(-3, 3))
        eb = Event(rng.uniform(-1, 1), rng.uniform(-3, 3))
        if not is_spacelike(ea, eb):
            continue
        found += 1
        # ordering flips across v* = dt/dx
        vstar = (eb.t - ea.t) / (eb.x - ea.x)
        lo, hi = Boost((vstar - 1) / 2), Boost((vstar + 1) / 2)
        orders = {time_order(ea, eb, lo), time_order(ea, eb, hi)}
        assert orders == {TimeOrdering.AB, TimeOrdering.BA}
    assert found > 10


def test_timelike_pairs_frame_invariant():
    rng = np.random.default_rng(12)
    for _ in range(30):
        ea = Event(0.0, 0.0)
        eb = Event(rng.uniform(1.0, 3.0), rng.uniform(-0.9, 0.9))
        assert not is_spacelike(ea, eb)
        orders = {time_order(ea, eb, Boost(v)) for v in np.linspace(-0.95, 0.95, 9)}
        assert orders == {TimeOrdering.AB}


def test_boost_preserves_interval():
    rng = np.random.default_rng(13)
    for _ in range(200):
        ea = Event(rng.uniform(-2, 2), rng.uniform(-2, 2))
        eb = Event(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = Boost(rng.uniform(-0.99, 0.99))
        ea2, eb2 = boost_event(ea, b), boost_event(eb, b)
        i1 = (eb.t - ea.t) ** 2 - (eb.x - ea.x) ** 2
        i2 = (eb2.t - ea2.t) ** 2 - (eb2.x - ea2.x) ** 2
        assert i2 == pytest.approx(i1, abs=1e-9)
