"""Foundational types: measurement settings, outcomes, time orderings, hidden points.

Settings are Bloch directions (unit 3-vectors), outcomes are strictly +/-1,
and hidden variables live in the unit hypercube [0,1]^d with uniform measure.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

# Construction-time tolerances: vectors within NORMALIZE_TOL of unit norm are
# renormalized, anything further off is rejected.
UNIT_NORM_TOL = 1e-9
NORMALIZE_TOL = 1e-6

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


class Outcome(enum.IntEnum):
    """A dichotomic measurement outcome; only +1 and -1 are representable."""

    PLUS = 1
    MINUS = -1


class TimeOrdering(enum.Enum):
    """Which party measures first in a given reference frame."""

    AB = "AB"  # Alice first
    BA = "BA"  # Bob first


class QuantumState(enum.Enum):
    """Shared bipartite state; only the two-qubit singlet in this version."""

    SINGLET = "singlet"


@dataclass(frozen=True)
class MeasurementSetting:
    """A spin measurement direction, kept unit-norm on construction."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        norm = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        if not abs(norm - 1.0) <= NORMALIZE_TOL:  # also rejects NaN
            raise ValueError(
                f"measurement setting must be unit-norm within {NORMALIZE_TOL}; got norm {norm!r}"
            )
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            object.__setattr__(self, "x", self.x / norm)
            object.__setattr__(self, "y", self.y / norm)
            object.__setattr__(self, "z", self.z / norm)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    @classmethod
    def from_array(cls, v) -> "MeasurementSetting":
        v = np.asarray(v, dtype=float)
        if v.shape != (3,):
            raise ValueError("setting vector must have exactly 3 components")
        return cls(float(v[0]), float(v[1]), float(v[2]))


def _unit_interval(x: np.ndarray, what: str) -> np.ndarray:
    """x, if every entry lies in [0, 1]; else ValueError naming an entry that
    does not. A NaN makes min and max NaN, which fails both comparisons."""
    if x.size:
        lo, hi = x.min(), x.max()
        if not (lo >= 0.0 and hi <= 1.0):
            raise ValueError(f"{what} {float(hi if lo >= 0.0 else lo)!r} outside [0,1]")
    return x


@dataclass(frozen=True)
class HiddenPoint:
    """A hidden-variable sample: a point of [0,1]^d."""

    coords: tuple

    def __post_init__(self):
        coords = tuple(float(c) for c in self.coords)
        _unit_interval(np.array(coords), "hidden point coordinate")
        object.__setattr__(self, "coords", coords)

    def as_array(self) -> np.ndarray:
        return np.array(self.coords)


def dot(a: MeasurementSetting, b: MeasurementSetting) -> float:
    """Inner product of two settings, clamped to [-1, 1] against rounding."""
    d = a.x * b.x + a.y * b.y + a.z * b.z
    return max(-1.0, min(1.0, d))


def tsirelson_settings():
    """The standard CHSH-maximizing setting quadruple (a, a', b, b').

    With E(a,b) = -a.b these reach S = 2*sqrt(2).
    """
    a = MeasurementSetting(1.0, 0.0, 0.0)
    ap = MeasurementSetting(0.0, 0.0, 1.0)
    s = 1.0 / math.sqrt(2.0)
    b = MeasurementSetting(-s, 0.0, -s)  # -(a + a')/sqrt(2)
    bp = MeasurementSetting(-s, 0.0, s)  # (a' - a)/sqrt(2)
    return a, ap, b, bp


def setting_grid(n: int):
    """Deterministic low-discrepancy covering of the sphere (golden-angle spiral).

    The same n always yields the identical sequence of unit vectors.
    """
    if n < 1:
        raise ValueError("empty grid")
    settings = []
    for i in range(n):
        z = 1.0 - 2.0 * (i + 0.5) / n
        r = math.sqrt(max(0.0, 1.0 - z * z))
        phi = i * _GOLDEN_ANGLE
        settings.append(MeasurementSetting(r * math.cos(phi), r * math.sin(phi), z))
    return settings
