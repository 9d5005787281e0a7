"""Relativistic time ordering of two measurement events in 1+1 dimensions (c = 1).

For spacelike-separated events the time ordering is frame-dependent: it flips
as the boost velocity crosses v* = dt/dx.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import TimeOrdering


class SimultaneousEventsError(ValueError):
    """Raised when two events are exactly simultaneous in the boosted frame."""


@dataclass(frozen=True)
class Event:
    """A spacetime event: time t and position x, natural units."""

    t: float
    x: float

    def __post_init__(self):
        if not (math.isfinite(self.t) and math.isfinite(self.x)):
            raise ValueError("event coordinates must be finite")


@dataclass(frozen=True)
class Boost:
    """A velocity boost along x, |v| < 1 strictly."""

    v: float

    def __post_init__(self):
        if math.isnan(self.v):
            raise ValueError("boost velocity is NaN")
        if abs(self.v) >= 1.0:
            raise ValueError("superluminal boost")

    @property
    def gamma(self) -> float:
        return 1.0 / math.sqrt(1.0 - self.v * self.v)


def is_spacelike(ea: Event, eb: Event) -> bool:
    """True iff |dx| > |dt|; lightlike separation counts as not spacelike."""
    return abs(eb.x - ea.x) > abs(eb.t - ea.t)


def boost_event(e: Event, b: Boost) -> Event:
    """Standard Lorentz transform: t' = g(t - v x), x' = g(x - v t)."""
    g = b.gamma
    return Event(g * (e.t - b.v * e.x), g * (e.x - b.v * e.t))


def time_order(ea: Event, eb: Event, b: Boost) -> TimeOrdering:
    """Time ordering of the two events as seen from the boosted frame.

    Exact simultaneity is an error, not a tie-break: the model machinery
    needs a definite ordering per frame. The boosted times are boost_event's,
    without building events; one that overflows cannot be ordered, an error.
    """
    g, v = b.gamma, b.v
    ta, tb = g * (ea.t - v * ea.x), g * (eb.t - v * eb.x)
    if not (math.isfinite(ta) and math.isfinite(tb)):
        raise ValueError("a boosted time overflows; ordering undefined")
    if ta == tb:
        raise SimultaneousEventsError("simultaneous in this frame; ordering undefined")
    return TimeOrdering.AB if ta < tb else TimeOrdering.BA
