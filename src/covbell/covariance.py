"""Frame-covariance checking, reduction to Bell-local form, and the finite no-go scan.

A model is covariant when each party's outcome is the same function of
(state, settings, lambda) in both time orderings:

    F_AB(a, lam) = S_BA(a, b, lam)   (Alice)
    F_BA(b, lam) = S_AB(a, b, lam)   (Bob)

for every probe. Covariance forces the second-party functions to ignore the
other setting, so a covariant model reduces to a Bell-local one. The check
counts failures through the model's ``count_violations`` (a histogram of
threshold ranks for threshold models, scoring for every other model) and scores
outcomes only for witnesses, on a growing prefix of the probes. The finite scan
verifies the consequence exhaustively at two settings per side: a bit-matrix
scan of all 4096 deterministic strategies, exact integer CHSH, local bound 2 vs
unconstrained 4.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .core import HiddenPoint, Outcome, TimeOrdering, _unit_interval
from .models import OrderedModel, _lambdas, count_local_pairs
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
    """Raised when reduction is attempted on a non-covariant model; it keeps the
    check's report, and its message names the report's first witness."""

    def __init__(self, report: CovarianceReport):
        self.report = report
        witness = report.witnesses[0]
        super().__init__(
            "model is not covariant on probe set: "
            f"{witness.side.value} side, lambda={witness.lam.coords}, "
            f"first={int(witness.first_value)}, second={int(witness.second_value)}"
        )


def _as_lam_array(m: OrderedModel, lams) -> np.ndarray:
    """The hidden points (an array, rows or HiddenPoints) as the model's (n, d)
    float array, checked by HiddenPoint's rule: every coordinate in [0, 1]."""
    if not isinstance(lams, np.ndarray):
        lams = [lam.as_array() if isinstance(lam, HiddenPoint) else lam for lam in lams]
    return _unit_interval(_lambdas(m, lams), "hidden point coordinate")


def _witnesses(arr, a, b, outcomes, rows) -> list:
    """The witnesses of pair (a, b) at the failing rows of arr, from its outcomes
    (alpha_AB, alpha_BA, beta_BA, beta_AB) on arr or a prefix holding the rows."""
    alpha_ab, alpha_ba, beta_ba, beta_ab = outcomes
    found = []
    for i in rows:  # 1 or 2 witnesses each
        lam = HiddenPoint(tuple(arr[i]))
        if alpha_ab[i] != alpha_ba[i]:
            found.append(Witness(lam, a, b, Side.ALICE,
                                 Outcome(int(alpha_ab[i])), Outcome(int(alpha_ba[i]))))
        if beta_ba[i] != beta_ab[i]:
            found.append(Witness(lam, a, b, Side.BOB,
                                 Outcome(int(beta_ba[i])), Outcome(int(beta_ab[i]))))
    return found


def check_covariance(m: OrderedModel, state, setting_pairs, lams,
                     witness_cap: int = 32) -> CovarianceReport:
    """Count pointwise covariance failures over all (lambda, a, b) probes.

    A probe violates if either party's outcome in the frame where it measures
    first differs from its outcome in the frame where it measures second;
    witnesses record each failing side, lowest probe index first, up to the
    cap. The model's ``count_violations`` counts the failures, and a pair is
    scored only to find witnesses, on the shortest prefix of the probes, grown
    16-fold from 1024 rows, that holds those still needed.
    """
    arr = _as_lam_array(m, lams)
    bound = m.bind(arr)
    pairs = list(setting_pairs)
    counts = bound.count_violations(state, pairs, arr)
    witnesses = []
    for (a, b), count in zip(pairs, counts):
        need, end = min(witness_cap - len(witnesses), count), 1024
        while need > 0:
            prefix = arr[:end]
            outcomes = (bound.first_values(TimeOrdering.AB, state, a, prefix),
                        bound.second_values(TimeOrdering.BA, state, a, b, prefix),
                        bound.first_values(TimeOrdering.BA, state, b, prefix),
                        bound.second_values(TimeOrdering.AB, state, a, b, prefix))
            rows = np.flatnonzero((outcomes[0] != outcomes[1]) | (outcomes[2] != outcomes[3]))
            if rows.size >= need or end >= arr.shape[0]:
                witnesses += _witnesses(arr, a, b, outcomes, rows[:need])
                break
            end *= 16
    checked = arr.shape[0] * len(pairs)
    violations = int(counts.sum())
    fraction = violations / checked if checked else 0.0
    return CovarianceReport(checked=checked, violations=violations,
                            witnesses=tuple(witnesses[:witness_cap]), violation_fraction=fraction)


class LocalModelView(OrderedModel):
    """Bell-local view of a covariant model: each party answers from its own
    setting and lambda alone (Alice via the AB-first function, Bob via BA-first)
    at the state each call passes, identically in both orderings, so it is
    covariant and counts like local-sphere."""

    name = "local-view"

    def __init__(self, m: OrderedModel):
        self._m = m
        self.lambda_dim = m.lambda_dim

    def first_values(self, ordering, state, setting_first, lams):
        return self._m.first_values(ordering, state, setting_first, lams)

    def second_values(self, ordering, state, a, b, lams):
        if ordering is TimeOrdering.AB:
            return self._m.first_values(TimeOrdering.BA, state, b, lams)
        return self._m.first_values(TimeOrdering.AB, state, a, lams)

    def bind(self, lams):
        return LocalModelView(self._m.bind(lams))

    def count_pairs(self, ordering, state, pairs, lams):
        return count_local_pairs(self, state, pairs, lams)


def reduce_to_local(m: OrderedModel, state, setting_pairs, lams) -> LocalModelView:
    """Reduce a covariant model to its Bell-local view, or fail with a witness.

    On success the view's joint statistics equal the original model's on the
    probe set by construction. On failure the error keeps the check's report,
    capped at its first witness. The view wraps the model bound to the
    probe array, so it keeps that array's derived data while it lives.
    """
    arr = _as_lam_array(m, lams)
    bound = m.bind(arr)
    report = check_covariance(bound, state, setting_pairs, arr, witness_cap=1)
    if report.violations:
        raise NotCovariantError(report)
    return LocalModelView(bound)


# ---------------------------------------------------------------------------
# Finite scenario: two settings per side, one deterministic lambda atom.

CONVEXITY_NOTE = (
    "mixtures over lambda atoms are convex combinations of deterministic "
    "strategies, so no mixture exceeds the deterministic maxima reported here"
)


@dataclass(frozen=True)
class EnumerationSummary:
    """The scan's totals, and its per-strategy columns as arrays indexed by strategy."""

    total: int
    covariant: int
    max_abs_s: int
    max_abs_s_covariant: int
    covariant_mask: np.ndarray = field(repr=False, compare=False)
    s_ab: np.ndarray = field(repr=False, compare=False)
    s_ba: np.ndarray = field(repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "covariant": self.covariant,
            "max_abs_s": self.max_abs_s,
            "max_abs_s_covariant": self.max_abs_s_covariant,
            "convexity_note": CONVEXITY_NOTE,
        }


def enumerate_finite() -> EnumerationSummary:
    """Exhaustive scan of all 4096 two-setting deterministic strategies.

    CHSH is evaluated in the AB frame (frames disagree for non-covariant
    strategies); the per-strategy columns also carry the BA-frame value.

    A bit-matrix scan: row i holds the 12 bits of strategy i, where bits 0-1
    are f_ab[x], bits 2-5 s_ab[2x+y], bits 6-7 f_ba[y] and bits 8-11 s_ba[2x+y]
    for settings x, y in {0, 1}, and a set bit is outcome -1. So a correlator
    is 1 - 2 * (XOR of two bit columns), covariance (s_ba[2x+y] = f_ab[x] and
    s_ab[2x+y] = f_ba[y]) is equality of columns and CHSH a signed sum of
    correlators.
    """
    bits = (np.arange(4096)[:, None] >> np.arange(12)) & 1
    f_ab, s_ab, f_ba, s_ba = bits[:, 0:2], bits[:, 2:6], bits[:, 6:8], bits[:, 8:12]
    x, y = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])  # column 2x+y of s_ab, s_ba
    terms = np.array([1, 1, 1, -1])  # E(0,0) + E(0,1) + E(1,0) - E(1,1)
    chsh_ab = (1 - 2 * (f_ab[:, x] ^ s_ab)) @ terms
    chsh_ba = (1 - 2 * (s_ba ^ f_ba[:, y])) @ terms
    covariant = ((s_ba == f_ab[:, x]) & (s_ab == f_ba[:, y])).all(axis=1)
    return EnumerationSummary(total=4096, covariant=int(np.count_nonzero(covariant)),
                              max_abs_s=int(np.abs(chsh_ab).max()),
                              max_abs_s_covariant=int(np.abs(chsh_ab[covariant]).max(initial=0)),
                              covariant_mask=covariant, s_ab=chsh_ab, s_ba=chsh_ba)


def frame_consistency(m: OrderedModel, state, a, b, grid: int,
                      workers: int = 1) -> float:
    """Max cell-wise |P_AB - P_BA| between the two orderings' exact tables.

    Quantifies statistical frame independence, which can hold even when
    pointwise covariance fails.
    """
    t_ab = exact_joint(m, TimeOrdering.AB, state, a, b, grid, workers=workers)
    t_ba = exact_joint(m, TimeOrdering.BA, state, a, b, grid, workers=workers)
    return float(np.max(np.abs(t_ab.probs - t_ba.probs)))
