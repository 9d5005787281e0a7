"""Frame-covariance checking, reduction to Bell-local form, and the finite no-go scan.

A model is covariant when each party's outcome is the same function of
(state, settings, lambda) in both time orderings:

    F_AB(a, lam) = S_BA(a, b, lam)   (Alice)
    F_BA(b, lam) = S_AB(a, b, lam)   (Bob)

for every probe. Covariance forces the second-party functions to ignore the
other setting, so a covariant model reduces to a Bell-local one. The check
takes first-frame outcomes once per setting (they depend on the first party's
setting alone) and second-frame outcomes once per pair. The finite scan
verifies the consequence exhaustively at two settings per side: a bit-matrix
scan of all 4096 deterministic strategies, exact integer CHSH, local bound 2
vs unconstrained 4.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .core import HiddenPoint, Outcome, TimeOrdering
from .models import OrderedModel
from .stats import exact_joint


class Side(enum.Enum):
    ALICE = "alice"
    BOB = "bob"


@dataclass(frozen=True)
class Witness:
    """One pointwise covariance failure: first-frame vs second-frame outcome."""

    lam: HiddenPoint
    a: object
    b: object
    side: Side
    first_value: Outcome
    second_value: Outcome

    def to_dict(self) -> dict:
        return {
            "lambda": list(self.lam.coords),
            "a": [self.a.x, self.a.y, self.a.z],
            "b": [self.b.x, self.b.y, self.b.z],
            "side": self.side.value,
            "first_value": int(self.first_value),
            "second_value": int(self.second_value),
        }


@dataclass(frozen=True)
class CovarianceReport:
    """Probe counts, violation fraction, and capped witness list."""

    checked: int
    violations: int
    witnesses: tuple
    violation_fraction: float

    def to_dict(self) -> dict:
        return {
            "checked": self.checked,
            "violations": self.violations,
            "violation_fraction": self.violation_fraction,
            "witnesses": [w.to_dict() for w in self.witnesses],
        }


class NotCovariantError(ValueError):
    """Raised when reduction is attempted on a non-covariant model."""

    def __init__(self, witness: Witness, report: CovarianceReport):
        self.witness = witness
        self.report = report
        super().__init__(
            "model is not covariant on probe set: "
            f"{witness.side.value} side, lambda={witness.lam.coords}, "
            f"first={int(witness.first_value)}, second={int(witness.second_value)}"
        )


def _as_lam_array(lams, dim: int) -> np.ndarray:
    if not isinstance(lams, np.ndarray):
        lams = [lam.as_array() if isinstance(lam, HiddenPoint) else lam for lam in lams]
    arr = np.asarray(lams, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"lambda dimension: expected (n, {dim}), got {arr.shape}")
    # HiddenPoint's rule; a NaN makes min/max NaN, which fails both comparisons
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
        bad = arr[~((arr >= 0.0) & (arr <= 1.0))][0]
        raise ValueError(f"hidden point coordinate {float(bad)!r} outside [0,1]")
    return arr


def check_covariance(m: OrderedModel, state, setting_pairs, lams,
                     witness_cap: int = 32) -> CovarianceReport:
    """Count pointwise covariance failures over all (lambda, a, b) probes.

    A probe violates if either party's outcome in the frame where it measures
    first differs from its outcome in the frame where it measures second;
    witnesses record each failing side, lowest probe index first, up to the
    cap. A first-frame outcome depends on the first party's setting alone, so
    first-frame outcomes are taken once per setting and only the two
    second-frame outcomes once per pair.
    """
    arr = _as_lam_array(lams, m.lambda_dim)
    bound = m.bind(arr)
    pairs = list(setting_pairs)
    alphas_ab = {a: bound.first_values(TimeOrdering.AB, state, a, arr)
                 for a in dict.fromkeys(a for a, _ in pairs)}
    betas_ba = {b: bound.first_values(TimeOrdering.BA, state, b, arr)
                for b in dict.fromkeys(b for _, b in pairs)}
    violations = 0
    witnesses = []
    for a, b in pairs:
        alpha_ab, beta_ba = alphas_ab[a], betas_ba[b]
        beta_ab = bound.second_values(TimeOrdering.AB, state, a, b, arr)
        alpha_ba = bound.second_values(TimeOrdering.BA, state, a, b, arr)
        alice_bad = alpha_ab != alpha_ba
        bob_bad = beta_ba != beta_ab
        bad = alice_bad | bob_bad
        violations += int(np.count_nonzero(bad))
        if len(witnesses) < witness_cap:
            for i in np.nonzero(bad)[0]:
                lam = HiddenPoint(tuple(arr[i]))
                if alice_bad[i] and len(witnesses) < witness_cap:
                    witnesses.append(Witness(lam, a, b, Side.ALICE,
                                             Outcome(int(alpha_ab[i])), Outcome(int(alpha_ba[i]))))
                if bob_bad[i] and len(witnesses) < witness_cap:
                    witnesses.append(Witness(lam, a, b, Side.BOB,
                                             Outcome(int(beta_ba[i])), Outcome(int(beta_ab[i]))))
                if len(witnesses) >= witness_cap:
                    break
    checked = arr.shape[0] * len(pairs)
    fraction = violations / checked if checked else 0.0
    return CovarianceReport(checked=checked, violations=violations,
                            witnesses=tuple(witnesses), violation_fraction=fraction)


class LocalModelView(OrderedModel):
    """Bell-local view of a covariant model: each party answers from its own
    setting and lambda alone (Alice via the AB-first function, Bob via BA-first),
    identically in both orderings, so the view is covariant itself."""

    name = "local-view"

    def __init__(self, m: OrderedModel, state):
        self._m = m
        self._state = state
        self.lambda_dim = m.lambda_dim

    def responds_alice_values(self, a, lams) -> np.ndarray:
        return self._m.first_values(TimeOrdering.AB, self._state, a, lams)

    def responds_bob_values(self, b, lams) -> np.ndarray:
        return self._m.first_values(TimeOrdering.BA, self._state, b, lams)

    def first_values(self, ordering, state, setting_first, lams):
        if ordering is TimeOrdering.AB:
            return self.responds_alice_values(setting_first, lams)
        return self.responds_bob_values(setting_first, lams)

    def second_values(self, ordering, state, a, b, lams):
        if ordering is TimeOrdering.AB:
            return self.responds_bob_values(b, lams)
        return self.responds_alice_values(a, lams)


def reduce_to_local(m: OrderedModel, state, setting_pairs, lams,
                    witness_cap: int = 32) -> LocalModelView:
    """Reduce a covariant model to its Bell-local view, or fail with a witness.

    On success the view's joint statistics equal the original model's on the
    probe set by construction. The check keeps at least one witness, whatever
    the cap, for the error to name.
    """
    report = check_covariance(m, state, setting_pairs, lams, witness_cap=max(1, witness_cap))
    if report.violations:
        raise NotCovariantError(report.witnesses[0], report)
    return LocalModelView(m, state)


# ---------------------------------------------------------------------------
# Finite scenario: two settings per side, one deterministic lambda atom.

@dataclass(frozen=True)
class FiniteStrategy:
    """Deterministic strategy over indexed settings x, y in {0,1}.

    f_ab[x] / s_ab[2x+y] answer the AB frame, f_ba[y] / s_ba[2x+y] the BA
    frame; all entries are +/-1.
    """

    f_ab: tuple
    s_ab: tuple
    f_ba: tuple
    s_ba: tuple

    def __post_init__(self):
        for name in ("f_ab", "s_ab", "f_ba", "s_ba"):
            vals = getattr(self, name)
            if any(v not in (-1, 1) for v in vals):
                raise ValueError(f"{name} entries must be +/-1")

    @classmethod
    def from_index(cls, index: int) -> "FiniteStrategy":
        if not (0 <= index < 4096):
            raise ValueError("strategy index must be in [0, 4096)")
        bits = [(index >> i) & 1 for i in range(12)]
        vals = [1 - 2 * bit for bit in bits]  # bit 0 -> +1, bit 1 -> -1
        return cls(f_ab=tuple(vals[0:2]), s_ab=tuple(vals[2:6]),
                   f_ba=tuple(vals[6:8]), s_ba=tuple(vals[8:12]))

    @property
    def index(self) -> int:
        vals = list(self.f_ab) + list(self.s_ab) + list(self.f_ba) + list(self.s_ba)
        return sum(((1 - v) // 2) << i for i, v in enumerate(vals))

    def correlation_table(self, ordering: TimeOrdering):
        """E(x,y) per setting pair, exact integers in {-1, +1}."""
        table = [[0, 0], [0, 0]]
        for x in (0, 1):
            for y in (0, 1):
                if ordering is TimeOrdering.AB:
                    table[x][y] = self.f_ab[x] * self.s_ab[2 * x + y]
                else:
                    table[x][y] = self.s_ba[2 * x + y] * self.f_ba[y]
        return table

    def chsh(self, ordering: TimeOrdering) -> int:
        t = self.correlation_table(ordering)
        return t[0][0] + t[0][1] + t[1][0] - t[1][1]

    @property
    def covariant(self) -> bool:
        return all(self.s_ba[2 * x + y] == self.f_ab[x] and
                   self.s_ab[2 * x + y] == self.f_ba[y]
                   for x in (0, 1) for y in (0, 1))


def forced_covariant_extension(f_ab, f_ba) -> FiniteStrategy:
    """The unique covariant strategy extending single-setting responses."""
    s_ab = tuple(f_ba[y] for x in (0, 1) for y in (0, 1))
    s_ba = tuple(f_ab[x] for x in (0, 1) for y in (0, 1))
    return FiniteStrategy(f_ab=tuple(f_ab), s_ab=s_ab, f_ba=tuple(f_ba), s_ba=s_ba)


@dataclass(frozen=True)
class StrategyRow:
    index: int
    covariant: bool
    s_ab: int
    s_ba: int


CONVEXITY_NOTE = (
    "mixtures over lambda atoms are convex combinations of deterministic "
    "strategies, so no mixture exceeds the deterministic maxima reported here"
)


@dataclass(frozen=True)
class EnumerationSummary:
    total: int
    covariant: int
    max_abs_s: int
    max_abs_s_covariant: int
    rows: tuple = field(repr=False)
    convexity_note: str = CONVEXITY_NOTE

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "covariant": self.covariant,
            "max_abs_s": self.max_abs_s,
            "max_abs_s_covariant": self.max_abs_s_covariant,
            "convexity_note": self.convexity_note,
        }


def enumerate_finite() -> EnumerationSummary:
    """Exhaustive scan of all 4096 two-setting deterministic strategies.

    CHSH is evaluated in the AB frame (frames disagree for non-covariant
    strategies); the per-strategy rows also carry the BA-frame value.

    A bit-matrix scan: row i holds the 12 bits of ``FiniteStrategy.from_index(i)``
    (bit 1 is outcome -1), so a correlator is 1 - 2 * (XOR of two bit columns),
    covariance is equality of columns and CHSH a signed sum of correlators.
    """
    bits = (np.arange(4096)[:, None] >> np.arange(12)) & 1
    f_ab, s_ab, f_ba, s_ba = bits[:, 0:2], bits[:, 2:6], bits[:, 6:8], bits[:, 8:12]
    x, y = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])  # column 2x+y of s_ab, s_ba
    terms = np.array([1, 1, 1, -1])  # E(0,0) + E(0,1) + E(1,0) - E(1,1)
    chsh_ab = (1 - 2 * (f_ab[:, x] ^ s_ab)) @ terms
    chsh_ba = (1 - 2 * (s_ba ^ f_ba[:, y])) @ terms
    covariant = ((s_ba == f_ab[:, x]) & (s_ab == f_ba[:, y])).all(axis=1)
    rows = tuple(map(StrategyRow, range(4096), covariant.tolist(), chsh_ab.tolist(),
                     chsh_ba.tolist()))
    return EnumerationSummary(total=4096, covariant=int(np.count_nonzero(covariant)),
                              max_abs_s=int(np.abs(chsh_ab).max()),
                              max_abs_s_covariant=int(np.abs(chsh_ab[covariant]).max(initial=0)),
                              rows=rows)


def frame_consistency(m: OrderedModel, state, a, b, grid: int,
                      workers: int = 1) -> float:
    """Max cell-wise |P_AB - P_BA| between the two orderings' exact tables.

    Quantifies statistical frame independence, which can hold even when
    pointwise covariance fails.
    """
    t_ab = exact_joint(m, TimeOrdering.AB, state, a, b, grid, workers=workers)
    t_ba = exact_joint(m, TimeOrdering.BA, state, a, b, grid, workers=workers)
    return float(np.max(np.abs(t_ab.probs - t_ba.probs)))
