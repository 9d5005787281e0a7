"""Ordered response models: four functions (F_AB, S_AB, F_BA, S_BA) of (state, settings, lambda).

"First" takes only the first party's setting; "second" may depend on both,
which is what makes a model nonlocal. Built-ins:

  - GisinSingletModel: explicit nonlocal threshold model on the unit square
    reproducing singlet statistics in both orderings (BA by role swap).
  - LocalSphereModel: a Bell-local reference model on the sphere.
  - determinize(): wraps a stochastic response rule into a deterministic
    model by appending two uniform coordinates and thresholding.

All evaluation is pure, and models hold no state between calls. Evaluation
methods take an (n, d) array of hidden points and return (n,) int8 arrays of
+/-1. A loop that scores many setting pairs on one array evaluates on
``model.bind(lams)``, which may reuse what it derives from that array.

``count_pairs(ordering, state, pairs, lams)`` scores every setting pair of
one array and returns (k, 2, 2) int64 outcome counts; the stats engine makes
one such call per block, inside at most ``workers`` pool tasks. The default
counts each pair's ``eval_pairs`` outcomes. The built-ins override it to
share work across pairs, with counts equal to the default's: gisin-singlet
takes the first outcome once (it ignores the setting) and then counts
thresholds on the other coordinate; local-sphere takes each party's outcomes
once per distinct setting and counts "++" cells, the rest following from the
marginals; determinize() takes the first outcome once per distinct first
setting, where second_values takes it again for every pair.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import QuantumState, TimeOrdering, dot


class OrderedModel(abc.ABC):
    """Deterministic response model with per-ordering first/second functions.

    In ordering AB, ``setting_first`` is Alice's a and ``first_values`` returns
    alpha; in ordering BA it is Bob's b and ``first_values`` returns beta.
    ``second_values`` always receives (a, b) in (Alice, Bob) role order and
    returns the other party's outcomes. ``eval_pairs`` maps both back to
    (alpha, beta) for either ordering.
    """

    lambda_dim: int = 0
    name: str = "ordered-model"

    @abc.abstractmethod
    def first_values(self, ordering, state, setting_first, lams) -> np.ndarray:
        """Vectorized first-party outcomes (+/-1 ints) over rows of lams."""

    @abc.abstractmethod
    def second_values(self, ordering, state, a, b, lams) -> np.ndarray:
        """Vectorized second-party outcomes (+/-1 ints) over rows of lams."""

    def bind(self, lams) -> "OrderedModel":
        """A model with this one's outcomes on every array; on ``lams`` itself (the
        same object, unchanged while bound) it may reuse what it derived once."""
        return self

    def count_pairs(self, ordering, state, pairs, lams) -> np.ndarray:
        """(k, 2, 2) int64 counts of the (alpha, beta) outcomes, +1 before -1, of
        each of the k setting pairs (a, b) over the rows of lams."""
        lams = _lambdas(self, lams)
        bound = self.bind(lams)
        counts = np.empty((len(pairs), 2, 2), dtype=np.int64)
        for i, (a, b) in enumerate(pairs):
            counts[i] = _table(*eval_pairs(bound, ordering, state, a, b, lams))
        return counts


def _lambdas(m: OrderedModel, lams) -> np.ndarray:
    lams = np.asarray(lams, dtype=float)
    if lams.ndim != 2 or lams.shape[1] != m.lambda_dim:
        raise ValueError(
            f"lambda dimension: model expects (n, {m.lambda_dim}), got {lams.shape}"
        )
    return lams


def _table(alphas, betas) -> np.ndarray:
    """2x2 counts of paired +/-1 outcomes, indexed (alpha, beta) with +1 first."""
    alpha_plus, beta_plus = alphas >= 0, betas >= 0
    return _cells(np.count_nonzero(alpha_plus & beta_plus), np.count_nonzero(alpha_plus),
                  np.count_nonzero(beta_plus), alphas.size)


def _cells(plus_plus, alpha_plus, beta_plus, n) -> list:
    """The 2x2 table of n points from its (+, +) cell and its two +1 marginals."""
    return [[plus_plus, alpha_plus - plus_plus],
            [beta_plus - plus_plus, n - alpha_plus - beta_plus + plus_plus]]


def eval_pairs(m: OrderedModel, ordering, state, a, b, lams):
    """Vectorized (alpha, beta) outcome arrays for each hidden point row.

    The range of lams is left unchecked on purpose: this is the hot path, fed
    the engine's own blocks (check_covariance checks the points it is given).
    """
    lams = _lambdas(m, lams)
    if ordering is TimeOrdering.AB:
        alphas = m.first_values(ordering, state, a, lams)
        betas = m.second_values(ordering, state, a, b, lams)
    else:
        betas = m.first_values(ordering, state, b, lams)
        alphas = m.second_values(ordering, state, a, b, lams)
    return alphas, betas


def _require_singlet(state):
    if state is not QuantumState.SINGLET:
        raise ValueError("only the singlet state is supported")


def _pm(cond) -> np.ndarray:
    """int8 +1 where cond holds, -1 elsewhere: each bool's byte read as 0/1, no branch."""
    signs = np.asarray(cond, dtype=bool).view(np.int8) * np.int8(2)
    signs -= 1  # in place: a second temporary raised tomography's peak RSS by 1 MB
    return signs


class GisinSingletModel(OrderedModel):
    """Nonlocal threshold model on the unit square reproducing singlet statistics.

    lambda = (r_A, r_B) uniform on [0,1]^2. In the AB ordering:
        F_AB = +1  iff  r_A <= 1/2
        S_AB = +1  iff  (r_A <= 1/2 and r_B <= (1 - a.b)/2)
                     or (r_A >  1/2 and r_B <= (1 + a.b)/2)
    The BA ordering is the role-swap mirror (A <-> B, r_A <-> r_B), which
    yields identical statistics in both frames but is not pointwise covariant.
    """

    lambda_dim = 2
    name = "gisin-singlet"

    def first_values(self, ordering, state, setting_first, lams):
        _require_singlet(state)
        r_first = lams[:, 0] if ordering is TimeOrdering.AB else lams[:, 1]
        return _pm(r_first <= 0.5)

    @staticmethod
    def _levels(a, b):
        """The second outcome's thresholds after a first outcome of +1 and of -1."""
        c = dot(a, b)
        return (1.0 - c) / 2.0, (1.0 + c) / 2.0

    def second_values(self, ordering, state, a, b, lams):
        _require_singlet(state)
        if ordering is TimeOrdering.AB:
            r_first, r_second = lams[:, 0], lams[:, 1]
        else:
            r_first, r_second = lams[:, 1], lams[:, 0]
        lo, hi = self._levels(a, b)
        first_plus = r_first <= 0.5
        return _pm((first_plus & (r_second <= lo)) | (~first_plus & (r_second <= hi)))

    def count_pairs(self, ordering, state, pairs, lams):
        lams = _lambdas(self, lams)
        counts = np.empty((len(pairs), 2, 2), dtype=np.int64)
        if not pairs:
            return counts
        # the first outcome ignores the setting: one mask splits the other coordinate
        a, b = pairs[0]
        first_plus = self.first_values(ordering, state, a if ordering is TimeOrdering.AB else b,
                                       lams) > 0
        r_second = lams[:, 1] if ordering is TimeOrdering.AB else lams[:, 0]
        r_plus, r_minus = r_second[first_plus], r_second[~first_plus]
        for i, (a, b) in enumerate(pairs):
            lo, hi = self._levels(a, b)
            plus_plus = np.count_nonzero(r_plus <= lo)
            minus_plus = np.count_nonzero(r_minus <= hi)
            table = np.array([[plus_plus, r_plus.size - plus_plus],
                              [minus_plus, r_minus.size - minus_plus]])
            counts[i] = table if ordering is TimeOrdering.AB else table.T
        return counts


class LocalSphereModel(OrderedModel):
    """Bell-local reference model: shared random direction on the sphere.

    lambda = (u, v) maps to a uniform unit vector via cos(theta) = 2u - 1,
    phi = 2*pi*v. Alice outputs sign(a.lam_hat), Bob outputs -sign(b.lam_hat),
    in every ordering; the second party ignores the first party's setting.
    sign(0) counts as +1.
    """

    lambda_dim = 2
    name = "local-sphere"
    _bound = None  # (lams, directions) of a model made by bind

    def bind(self, lams):
        bound = LocalSphereModel()
        bound._bound = (lams, self._directions(lams))
        return bound

    def _directions(self, lams):
        """Unit vectors of the rows of lams; those of the bound array are reused."""
        if self._bound is not None and self._bound[0] is lams:
            return self._bound[1]
        cos_t = 2.0 * lams[:, 0] - 1.0
        sin_t = np.sqrt(np.maximum(0.0, 1.0 - cos_t * cos_t))
        phi = 2.0 * np.pi * lams[:, 1]
        return np.column_stack([sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t])

    def _alice(self, a, lams):
        return _pm(self._directions(lams) @ a.as_array() >= 0.0)

    def _bob(self, b, lams):
        return -self._alice(b, lams)

    def first_values(self, ordering, state, setting_first, lams):
        _require_singlet(state)
        if ordering is TimeOrdering.AB:
            return self._alice(setting_first, lams)
        return self._bob(setting_first, lams)

    def second_values(self, ordering, state, a, b, lams):
        _require_singlet(state)
        if ordering is TimeOrdering.AB:
            return self._bob(b, lams)
        return self._alice(a, lams)

    def count_pairs(self, ordering, state, pairs, lams):
        # local: each party's outcomes depend on its own setting only, in any ordering
        lams = _lambdas(self, lams)
        bound = self.bind(lams)
        alice = {a: bound.first_values(TimeOrdering.AB, state, a, lams) > 0
                 for a in dict.fromkeys(a for a, _ in pairs)}
        bob = {b: bound.first_values(TimeOrdering.BA, state, b, lams) > 0
               for b in dict.fromkeys(b for _, b in pairs)}
        alice_plus = {a: np.count_nonzero(plus) for a, plus in alice.items()}
        bob_plus = {b: np.count_nonzero(plus) for b, plus in bob.items()}
        counts = np.empty((len(pairs), 2, 2), dtype=np.int64)
        for i, (a, b) in enumerate(pairs):
            counts[i] = _cells(np.count_nonzero(alice[a] & bob[b]), alice_plus[a], bob_plus[b],
                               len(lams))
        return counts


@dataclass(frozen=True)
class StochasticResponse:
    """Stochastic response rule: probabilities that each outcome is +1.

    Callables are vectorized over hidden points:
      p_first(ordering, state, setting_first, lams) -> (n,) in [0,1]
      p_second(ordering, state, a, b, first_vals, lams) -> (n,) in [0,1]
    where first_vals is the (n,) array of +/-1 first outcomes.
    """

    lambda_dim: int
    p_first: Callable
    p_second: Callable
    name: str = "stochastic"


def _check_probs(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    # a NaN makes min/max NaN, which fails both comparisons
    if p.size and not (p.min() >= 0.0 and p.max() <= 1.0):
        raise ValueError("response probability NaN or outside [0,1]")
    return p


class DeterminizedModel(OrderedModel):
    """Deterministic wrapper around a stochastic rule via threshold sampling.

    Appends two uniform coordinates (u1, u2) to lambda, wired per party:
    Alice thresholds u1, Bob thresholds u2, in both orderings. In ordering AB
    the first outcome is therefore +1 iff u1 <= p_first and the second is +1
    iff u2 <= p_second given the first; in BA the coordinates swap roles.
    Party-symmetric wiring keeps setting-independent rules pointwise covariant.
    """

    def __init__(self, sr: StochasticResponse):
        self._sr = sr
        self.lambda_dim = sr.lambda_dim + 2
        self.name = f"determinized-{sr.name}"

    def _split(self, lams):
        d = self._sr.lambda_dim
        return lams[:, :d], lams[:, d], lams[:, d + 1]

    def first_values(self, ordering, state, setting_first, lams):
        base, u_alice, u_bob = self._split(lams)
        u = u_alice if ordering is TimeOrdering.AB else u_bob
        p = _check_probs(self._sr.p_first(ordering, state, setting_first, base))
        return _pm(u <= p)

    def second_values(self, ordering, state, a, b, lams):
        first_setting = a if ordering is TimeOrdering.AB else b
        first_vals = self.first_values(ordering, state, first_setting, lams)
        return self._second(ordering, state, a, b, first_vals, lams)

    def _second(self, ordering, state, a, b, first_vals, lams):
        base, u_alice, u_bob = self._split(lams)
        u_second = u_bob if ordering is TimeOrdering.AB else u_alice
        p2 = _check_probs(self._sr.p_second(ordering, state, a, b, first_vals, base))
        return _pm(u_second <= p2)

    def count_pairs(self, ordering, state, pairs, lams):
        lams = _lambdas(self, lams)
        counts = np.empty((len(pairs), 2, 2), dtype=np.int64)
        firsts = {}
        for i, (a, b) in enumerate(pairs):
            first_setting = a if ordering is TimeOrdering.AB else b
            if first_setting not in firsts:
                firsts[first_setting] = self.first_values(ordering, state, first_setting, lams)
            first = firsts[first_setting]
            second = self._second(ordering, state, a, b, first, lams)
            counts[i] = (_table(first, second) if ordering is TimeOrdering.AB
                         else _table(second, first))
        return counts


def determinize(sr: StochasticResponse) -> OrderedModel:
    """Deterministic model equivalent in distribution to the stochastic rule."""
    return DeterminizedModel(sr)


def stochastic_singlet() -> StochasticResponse:
    """Order-symmetric stochastic singlet rule: P(first=+1) = 1/2,
    P(second=+1 | first) = (1 - first * a.b) / 2."""

    def p_first(ordering, state, setting_first, lams):
        _require_singlet(state)
        return np.full(lams.shape[0], 0.5)

    def p_second(ordering, state, a, b, first_vals, lams):
        _require_singlet(state)
        return (1.0 - first_vals * dot(a, b)) / 2.0

    return StochasticResponse(lambda_dim=0, p_first=p_first, p_second=p_second, name="singlet")


def make_gisin_singlet() -> OrderedModel:
    return GisinSingletModel()


def make_local_sphere() -> OrderedModel:
    return LocalSphereModel()


MODEL_REGISTRY = {
    "gisin-singlet": make_gisin_singlet,
    "local-sphere": make_local_sphere,
    "determinized-singlet": lambda: determinize(stochastic_singlet()),
}


def make_model(name: str) -> OrderedModel:
    try:
        factory = MODEL_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {', '.join(sorted(MODEL_REGISTRY))}"
        ) from None
    return factory()
