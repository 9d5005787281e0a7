"""Hypothesis inputs shared by the property tests: settings and hidden points
for the models and the covariance check, events and boosts for frame-order."""

import math

import numpy as np
from hypothesis import strategies as st

from covbell.core import MeasurementSetting, setting_grid, tsirelson_settings
from covbell.stats import SeedSpec, _lattice_block, _sample_block

# Few settings, so pairs repeat them. Odd lattices have midpoints at exactly 1/2:
# with u = 1/2 they lie on the measurement plane of tsirelson's a' = +z, and they
# sit on gisin's thresholds r <= 1/2 and, for orthogonal pairs, (1 -+ a.b)/2 = 1/2.
SETTINGS = [*setting_grid(3), *tsirelson_settings(), MeasurementSetting(0, 0, -1)]
_UNIT = st.tuples(*[st.floats(-1, 1)] * 3).filter(lambda v: math.hypot(*v) > 0.1).map(
    lambda v: MeasurementSetting(*(x / math.hypot(*v) for x in v)))
SETTING = st.one_of(st.sampled_from(SETTINGS), _UNIT)


def draw_hidden_points(data, d, max_rows):
    """A Philox block, or a block of an odd-grid lattice that starts anywhere,
    laid out row-major as a caller's array or column-major as the engine's."""
    order = data.draw(st.sampled_from("CF"), label="order")
    if data.draw(st.booleans(), label="lattice"):
        grid = data.draw(st.integers(1, 200).map(lambda k: 2 * k + 1), label="odd grid")
        start = data.draw(st.integers(0, grid ** d - 1), label="start")
        rows = data.draw(st.integers(1, min(grid ** d - start, max_rows)), label="rows")
        return np.asarray(_lattice_block(d, grid, start, rows), order=order)
    spec = SeedSpec(data.draw(st.integers(0, 2 ** 64 - 1), label="seed"))
    rows = data.draw(st.integers(1, max_rows), label="rows")
    return np.asarray(_sample_block(d, spec, 0, rows), order=order)


# A finite event coordinate: signed zeros, subnormals and magnitudes whose boosts overflow.
COORDINATE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e308, -1e308,
                                        1.7976931348623157e308]),
                       st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True))
EVENT = st.tuples(COORDINATE, COORDINATE)
# A boost velocity in (-1, 1): 0 and -0 are the default events' simultaneous frame.
VELOCITY = st.one_of(st.sampled_from([0.0, -0.0, 0.999, -0.999, 0.999999, -0.999999]),
                     st.floats(-1, 1, exclude_min=True, exclude_max=True, allow_subnormal=True))
