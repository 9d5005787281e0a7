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
``model.bind(lams)``, which keeps what it derives from that array.

``count_pairs(ordering, state, pairs, lams)`` returns the (k, 2, 2) int64
outcome counts of k setting pairs on one array; the engine calls it once per
block. The default counts each pair's ``eval_pairs`` outcomes; the built-ins
count the same with less work. Threshold models (gisin-singlet, determinized
rules without base coordinates) count through ``count_threshold_pairs``, which
counts each pair on its first-outcome mask in place; local-sphere counts as a
Bell-local model (``count_local_pairs``), and determinized rules with base
coordinates take the default.

``lattice_counts(ordering, state, pairs, grid)`` is an optional hook: the
(k, 2, 2) counts that ``count_pairs`` would sum over the whole grid^d midpoint
lattice, or None (the default), which leaves them to the block engine. On that
lattice a threshold model's table is a product of 1-D counts, so gisin-singlet
and base-free determinized rules count it through ``lattice_threshold_counts``
in O(pairs), gisin-singlet in O(grid + pairs) for its one ``first_values`` call
on the midpoints. On a u-line of that lattice local-sphere's +1 cells of a
setting are one cyclic run, whose ends it re-scores in float, so it counts in
O(grid * (settings + pairs)) rather than O(grid^2 * settings); every other
model keeps the engine.

``count_violations(state, pairs, lams)``, the covariance check's count, is each
pair's count of rows whose outcomes differ between the AB and BA frames; the
default scores every row. Threshold models count through ``threshold_violations``,
one histogram of each row's ranks among the parties' thresholds, on whose cells
every pair's outcomes are fixed; past its cell bound, and for determinized rules
with base coordinates, they take the default.
"""

from __future__ import annotations

import abc
import copy
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import QuantumState, TimeOrdering, _unit_interval, dot

# local-sphere's lattice_counts. Every float path computes a cell's projection within
# 1e-14 of its exact value (unit vectors, unit settings), so one computed beyond
# _ARC_MARGIN from 0 has the same sign in all. Each end of an arc is re-scored on the
# _ARC_HALF cells either side of its nearest cell, for _ARC_LINES u-lines at a time.
_ARC_MARGIN = 1e-12
_ARC_HALF = 1
_ARC_LINES = 1 << 12


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
    _bound = None  # (lams, {key: what _kept derived from lams}) of a model made by bind

    @abc.abstractmethod
    def first_values(self, ordering, state, setting_first, lams) -> np.ndarray:
        """Vectorized first-party outcomes (+/-1 ints) over rows of lams."""

    @abc.abstractmethod
    def second_values(self, ordering, state, a, b, lams) -> np.ndarray:
        """Vectorized second-party outcomes (+/-1 ints) over rows of lams."""

    def bind(self, lams) -> "OrderedModel":
        """A model with this one's outcomes on every array; on ``lams`` itself (the
        same object, unchanged while bound) it reuses what ``_kept`` derived once.
        A model bound to lams is its own binding to it, and keeps what it holds."""
        if self._bound is not None and self._bound[0] is lams:
            return self
        bound = copy.copy(self)
        bound._bound = (lams, {})
        return bound

    def _kept(self, lams, key, make):
        """make(), kept under key while lams is the bound array (read-only if an
        array, as every later call shares it); made anew on any other array."""
        if self._bound is None or self._bound[0] is not lams:
            return make()
        kept = self._bound[1]
        if key not in kept:
            kept[key] = make()
            if isinstance(kept[key], np.ndarray):
                kept[key].flags.writeable = False
        return kept[key]

    def count_pairs(self, ordering, state, pairs, lams) -> np.ndarray:
        """(k, 2, 2) int64 counts of the (alpha, beta) outcomes, +1 before -1, of
        each of the k setting pairs (a, b) over the rows of lams."""
        lams = _lambdas(self, lams)
        bound = self.bind(lams)
        counts = np.empty((len(pairs), 2, 2), dtype=np.int64)
        for i, (a, b) in enumerate(pairs):
            counts[i] = _table(*eval_pairs(bound, ordering, state, a, b, lams))
        return counts

    def lattice_counts(self, ordering, state, pairs, grid):
        """The (k, 2, 2) int64 counts that ``count_pairs`` sums over the whole grid^d
        midpoint lattice, found without scoring its cells; None leaves them to the
        block engine."""
        return None

    def count_violations(self, state, pairs, lams) -> np.ndarray:
        """The (k,) int64 count of rows of lams on which either party's outcome of
        each of the k setting pairs differs between the AB and BA frames. The
        default scores every row, each first-frame outcome once per distinct setting."""
        lams = _lambdas(self, lams)
        bound = self.bind(lams)
        alphas_ab = first_outcomes(bound, TimeOrdering.AB, state, (a for a, _ in pairs), lams)
        betas_ba = first_outcomes(bound, TimeOrdering.BA, state, (b for _, b in pairs), lams)
        return np.array([np.count_nonzero(
            (alphas_ab[a] != bound.second_values(TimeOrdering.BA, state, a, b, lams))
            | (betas_ba[b] != bound.second_values(TimeOrdering.AB, state, a, b, lams)))
            for a, b in pairs], dtype=np.int64)


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


def first_outcomes(m: OrderedModel, ordering, state, settings, lams) -> dict:
    """First-party outcomes keyed by each distinct setting: a first function sees
    only its own party's setting, so one array serves every pair that has it."""
    return {s: m.first_values(ordering, state, s, lams) for s in dict.fromkeys(settings)}


def count_local_pairs(m: OrderedModel, state, pairs, lams) -> np.ndarray:
    """``count_pairs`` of a Bell-local model, in either ordering: Alice answers
    as first party of AB and Bob as first party of BA, each once per distinct
    setting; a pair counts only its "++" cell, the rest follow from marginals."""
    lams = _lambdas(m, lams)
    bound = m.bind(lams)
    alice = {a: alphas > 0 for a, alphas in
             first_outcomes(bound, TimeOrdering.AB, state, (a for a, _ in pairs), lams).items()}
    bob = {b: betas > 0 for b, betas in
           first_outcomes(bound, TimeOrdering.BA, state, (b for _, b in pairs), lams).items()}
    alice_plus = {a: np.count_nonzero(plus) for a, plus in alice.items()}
    bob_plus = {b: np.count_nonzero(plus) for b, plus in bob.items()}
    counts = np.empty((len(pairs), 2, 2), dtype=np.int64)
    for i, (a, b) in enumerate(pairs):
        counts[i] = _cells(np.count_nonzero(alice[a] & bob[b]), alice_plus[a], bob_plus[b],
                           len(lams))
    return counts


def count_threshold_pairs(ordering, first_plus, u_second, levels) -> np.ndarray:
    """``count_pairs`` of a threshold model: pair i's first outcome is +1 on the bool
    mask first_plus[i], its second where u_second <= levels[i][0] (first +1) or
    <= levels[i][1] (first -1). Each pair counts on its mask in place."""
    counts = np.empty((len(first_plus), 2, 2), dtype=np.int64)
    for i, (mask, (lo, hi)) in enumerate(zip(first_plus, levels)):
        plus_plus, below_hi = np.count_nonzero(mask & (u_second <= lo)), u_second <= hi
        minus_plus = np.count_nonzero(below_hi) - np.count_nonzero(mask & below_hi)
        counts[i] = _cells(plus_plus, np.count_nonzero(mask), plus_plus + minus_plus, mask.size)
    return counts if ordering is TimeOrdering.AB else counts.swapaxes(1, 2)


def threshold_violations(u_alice, u_bob, ab, ba):
    """``count_violations`` of a threshold model, from ab and ba, the (firsts, levels)
    of AB and BA: pair i's first party is +1 where its coordinate is <= firsts[i],
    the second as in ``count_threshold_pairs``. A coordinate's rank among its
    party's distinct thresholds (Alice's AB first and BA second ones, Bob's the
    mirror) decides u <= t[j] as j >= rank, so one histogram of the (rank_A, rank_B)
    cells counts every pair. None where the cells outnumber 2n probes."""
    (first_ab, levels_ab), (first_ba, levels_ba) = ab, ba
    # sorted sets, not np.unique, whose first call imports numpy.ma (~15 ms in a fresh process)
    alice = np.array(sorted({*np.ravel(first_ab), *np.ravel(levels_ba)}), dtype=float)
    bob = np.array(sorted({*np.ravel(first_ba), *np.ravel(levels_ab)}), dtype=float)
    shape = (alice.size + 1, bob.size + 1)
    if shape[0] * shape[1] > 2 * u_alice.size:
        return None
    codes = np.zeros(u_alice.size, dtype=np.min_scalar_type(shape[0] * shape[1] - 1))
    above = np.empty(u_alice.size, dtype=bool)
    for t in alice:
        codes += np.greater(u_alice, t, out=above)
    codes *= shape[1]  # Alice's rank is the cell's row
    for t in bob:
        codes += np.greater(u_bob, t, out=above)
    hist = np.bincount(codes, minlength=shape[0] * shape[1]).reshape(shape)
    rank_a, rank_b = np.arange(shape[0])[:, None], np.arange(shape[1])
    first_a, first_b = np.searchsorted(alice, first_ab), np.searchsorted(bob, first_ba)
    levels_a, levels_b = np.searchsorted(alice, levels_ba), np.searchsorted(bob, levels_ab)
    counts = np.empty(len(first_a), dtype=np.int64)
    for i, ((lo_a, hi_a), (lo_b, hi_b)) in enumerate(zip(levels_a, levels_b)):
        alpha_ab, beta_ba = rank_a <= first_a[i], rank_b <= first_b[i]
        alpha_ba = rank_a <= np.where(beta_ba, lo_a, hi_a)
        beta_ab = rank_b <= np.where(alpha_ab, lo_b, hi_b)
        counts[i] = hist[(alpha_ab != alpha_ba) | (beta_ba != beta_ab)].sum()
    return counts


# Most pair-points (lattice points x setting pairs) of one exact_tables call that
# the block engine scores cell by cell (local-sphere's cells at 2.3e8 a second with
# two workers on a 2-CPU x86 host, 7 minutes at the cap). local-sphere's
# lattice_counts no longer scores every cell (grid 3e5, one pair, about 0.5 s), but
# keeps this cap: lifting it would turn a documented exit 2 into a run, and would
# leave no command that reaches the cap. Threshold models' hooks are uncapped.
_ENGINE_CAP = 10 ** 11


def check_engine_cap(d, grid, pairs):
    """Reject an exact job that would score more than _ENGINE_CAP pair-points cell by cell."""
    if grid ** d * len(pairs) > _ENGINE_CAP:
        raise ValueError(f"{grid}^{d} lattice points x {len(pairs)} setting pairs exceed the "
                         f"exact engine's cap of {_ENGINE_CAP:,}; use Monte Carlo")


def lattice_midpoints(grid) -> np.ndarray:
    """The grid midpoints (k + 1/2)/grid of one lattice axis, the floats that the
    engine's lattice blocks hold, in one grid-long buffer (divided in place)."""
    mids = np.arange(0.5, grid)
    mids /= grid
    return mids


def lattice_at_or_below(grid, t) -> np.ndarray:
    """N(t) = searchsorted(lattice_midpoints(grid), t, "right") for each t, without the
    midpoints: the least k with fl((k + 1/2)/grid) > t, from the closed form
    ceil(t * grid - 1/2) moved while a float midpoint next to it disagrees."""
    t = np.asarray(t, dtype=float)
    k = np.clip(np.ceil(t * grid - 0.5), 0, grid)
    while True:
        up = (k < grid) & ((k + 0.5) / grid <= t)
        down = (k > 0) & ((k - 0.5) / grid > t)
        if not (up.any() or down.any()):
            return k.astype(np.int64)
        k += up
        k -= down


def lattice_threshold_counts(ordering, first_plus, levels, grid) -> np.ndarray:
    """``count_threshold_pairs`` summed over the whole grid x grid midpoint lattice
    of [0,1]^2, from 1-D counts: pair i's first outcome is +1 on first_plus[i]
    midpoints of its coordinate, and N(t) = ``lattice_at_or_below(grid, t)``
    midpoints of the other are <= t, so every cell is a product of two."""
    below = lattice_at_or_below(grid, np.asarray(levels, dtype=float).reshape(-1, 2))
    counts = np.empty((len(below), 2, 2), dtype=np.int64)
    for i, (plus, (lo, hi)) in enumerate(zip(first_plus, below)):
        counts[i] = _cells(plus * lo, plus * grid, plus * lo + (grid - plus) * hi, grid * grid)
    return counts if ordering is TimeOrdering.AB else counts.swapaxes(1, 2)


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

    def _first_plus(self, ordering, lams):
        """Where the first outcome is +1, kept per ordering for the bound array."""
        r_first = lams[:, 0] if ordering is TimeOrdering.AB else lams[:, 1]
        return self._kept(lams, ordering, lambda: r_first <= 0.5)

    def first_values(self, ordering, state, setting_first, lams):
        _require_singlet(state)
        # the setting is ignored: one sign array per ordering serves every setting
        return self._kept(lams, (ordering, "signs"), lambda: _pm(self._first_plus(ordering, lams)))

    @staticmethod
    def _levels(a, b):
        """The second outcome's thresholds after a first outcome of +1 and of -1."""
        c = dot(a, b)
        return (1.0 - c) / 2.0, (1.0 + c) / 2.0

    def second_values(self, ordering, state, a, b, lams):
        _require_singlet(state)
        r_second = lams[:, 1] if ordering is TimeOrdering.AB else lams[:, 0]
        lo, hi = self._levels(a, b)
        first_plus = self._first_plus(ordering, lams)
        first_minus = self._kept(lams, (ordering, "minus"), lambda: ~first_plus)
        return _pm((first_plus & (r_second <= lo)) | (first_minus & (r_second <= hi)))

    def count_pairs(self, ordering, state, pairs, lams):
        lams = _lambdas(self, lams)
        ab = ordering is TimeOrdering.AB
        # the first outcome ignores the setting: one mask serves every pair
        first_plus = [self.first_values(ordering, state, a if ab else b, lams) > 0
                      for a, b in pairs[:1]]
        return count_threshold_pairs(ordering, first_plus * len(pairs), lams[:, 1 if ab else 0],
                                     [self._levels(a, b) for a, b in pairs])

    def lattice_counts(self, ordering, state, pairs, grid):
        ab, mids = ordering is TimeOrdering.AB, lattice_midpoints(grid)
        # one first_values call on the midpoints, read as either coordinate, counts the
        # first +1 outcomes of every pair; the levels' counts need no midpoints
        lams = np.broadcast_to(mids[:, None], (grid, 2))
        first_plus = [np.count_nonzero(self.first_values(ordering, state, a if ab else b, lams) > 0)
                      for a, b in pairs[:1]]
        return lattice_threshold_counts(ordering, first_plus * len(pairs),
                                        [self._levels(a, b) for a, b in pairs], grid)

    def count_violations(self, state, pairs, lams):
        _require_singlet(state)
        lams = _lambdas(self, lams)
        # the BA rule is the AB one with the roles swapped, and a.b = b.a
        rule = ([0.5] * len(pairs), [self._levels(a, b) for a, b in pairs])
        counts = threshold_violations(lams[:, 0], lams[:, 1], rule, rule)
        return super().count_violations(state, pairs, lams) if counts is None else counts


class LocalSphereModel(OrderedModel):
    """Bell-local reference model: shared random direction on the sphere.

    lambda = (u, v) maps to a uniform unit vector via cos(theta) = 2u - 1,
    phi = 2*pi*v. Alice outputs sign(a.lam_hat), Bob outputs -sign(b.lam_hat),
    in every ordering; the second party ignores the first party's setting.
    sign(0) counts as +1.

    ``lattice_counts`` takes the trig of each axis midpoint once. On a u-line a
    setting's +1 cells form one cyclic run of v-indices, whose ends it finds
    analytically and re-scores in float, on unit vectors that are products of
    that trig, the floats ``_directions`` writes. Bob's +1 cells are the rest of
    Alice's, and a pair's "++" cells are the overlap of two runs per line, so the
    cost is O(grid x (settings + pairs)), not O(grid^2).
    """

    lambda_dim = 2
    name = "local-sphere"

    def _directions(self, lams):
        """Unit vectors of the rows of lams, kept for the bound array."""
        def directions():
            cos_t = 2.0 * lams[:, 0] - 1.0
            sin_t = np.sqrt(np.maximum(0.0, 1.0 - cos_t * cos_t))
            phi = 2.0 * np.pi * lams[:, 1]
            return np.column_stack([sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t])
        return self._kept(lams, "directions", directions)

    def _alice(self, a, lams):
        """Alice's outcomes of setting a, kept per setting for the bound array: Bob's
        of b are those of a = b negated, so every call of either party shares them."""
        return self._kept(lams, a, lambda: _pm(self._directions(lams) @ a.as_array() >= 0.0))

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
        return count_local_pairs(self, state, pairs, lams)

    def lattice_counts(self, ordering, state, pairs, grid):
        check_engine_cap(self.lambda_dim, grid, pairs)
        mids = lattice_midpoints(grid)
        cos_t = 2.0 * mids - 1.0
        sin_t = np.sqrt(np.maximum(0.0, 1.0 - cos_t * cos_t))
        phi = 2.0 * np.pi * mids
        cos_p, sin_p = np.cos(phi), np.sin(phi)
        runs = {}  # Alice's +1 cells of each distinct setting, _ARC_LINES u-lines at a time
        for s in dict.fromkeys(s for pair in pairs for s in pair):
            blocks = [_line_runs(state, s, (sin_t[top:top + _ARC_LINES],
                                            cos_t[top:top + _ARC_LINES], cos_p, sin_p))
                      for top in range(0, grid, _ARC_LINES)]
            runs[s] = tuple(np.concatenate(parts) for parts in zip(*blocks))
        plus = {s: length.sum() + np.count_nonzero(masks)
                for s, (_, length, _, masks) in runs.items()}
        n = grid * grid  # Bob's +1 cells are the rest of Alice's
        counts = []
        for a, b in pairs:
            both = _runs_overlap(runs[a], runs[b], grid)  # cells where a and b both project >= 0
            counts.append(_cells(plus[a] - both, plus[a], n - plus[b], n))
        return np.array(counts, dtype=np.int64).reshape(-1, 2, 2)


def _scored_plus(state, s, rows, cols, trig) -> np.ndarray:
    """Alice's +1 outcomes of setting s on the lattice cells (rows, cols), index arrays
    that broadcast together, from one ``first_values`` call on their unit vectors:
    the products of the 1-D midpoint trig that ``_directions`` writes."""
    sin_t, cos_t, cos_p, sin_p = trig
    dirs = np.empty(np.broadcast_shapes(rows.shape, cols.shape) + (3,))
    np.multiply(sin_t[rows], cos_p[cols], out=dirs[..., 0])
    np.multiply(sin_t[rows], sin_p[cols], out=dirs[..., 1])
    dirs[..., 2] = cos_t[rows]
    flat, bound = dirs.reshape(-1, 3), LocalSphereModel()
    bound._bound = (flat, {"directions": flat})  # first_values projects these unit vectors
    return (bound.first_values(TimeOrdering.AB, state, s, flat) > 0).reshape(dirs.shape[:-1])


def _line_runs(state, s, trig):
    """Alice's +1 cells of setting s on the u-lines of trig = (sin_t, cos_t, cos_p,
    sin_p), as (start, length, whole, masks): on u-line i they are the length[i]
    cells from v-index start[i] on, cyclically, except where the bool whole[i]
    holds: that line has length 0, its cells are scored one by one, and its +1
    cells are the next row of the bool ``masks``.

    On u-line i the projection is amp[i] cos(phi - phi0) + off[i], so its +1 cells
    are one arc of the circle at most. A line whose |off| passes amp by _ARC_MARGIN
    has one sign throughout. Else the 2 _ARC_HALF + 1 cells around each analytic
    end of the arc are re-scored. Where the outer of those cells project below
    -_ARC_MARGIN and the inner above it, every cell between the two windows has the
    sign of its side, as the projection has one maximum and one minimum. If both
    windows then read -1 up to +1 once, the run ends where they change. Lines
    without that proof are scored whole."""
    sin_t, cos_t, cos_p, sin_p = trig
    grid, k = cos_p.size, _ARC_HALF
    amp, off = sin_t * np.hypot(s.x, s.y), cos_t * s.z
    start, length = np.zeros(sin_t.size, dtype=np.int64), np.where(off - amp > _ARC_MARGIN, grid, 0)
    whole = (off - amp <= _ARC_MARGIN) & (off + amp >= -_ARC_MARGIN)  # not one sign throughout
    rows = np.flatnonzero(whole & (amp > _ARC_MARGIN))
    half = np.arccos(np.clip(-off[rows] / amp[rows], -1.0, 1.0))
    phi0, per_radian = np.arctan2(s.y, s.x), grid / (2.0 * np.pi)
    lo = np.rint((phi0 - half) * per_radian - 0.5).astype(np.int64)  # the arc's first cell
    hi = np.rint((phi0 + half) * per_radian - 0.5).astype(np.int64)  # and its last
    edges = np.stack([lo - k, hi + k, lo + k, hi - k], axis=1) % grid  # two outside, two inside
    proj = sin_t[rows, None] * (s.x * cos_p[edges] + s.y * sin_p[edges]) + cos_t[rows, None] * s.z
    sure = ((hi - lo > 2 * k) & (lo + grid - hi > 2 * k)  # the windows do not meet
            & (proj[:, :2] < -_ARC_MARGIN).all(1) & (proj[:, 2:] > _ARC_MARGIN).all(1))
    rows, lo, hi, inward = rows[sure], lo[sure], hi[sure], np.arange(-k, k + 1)
    # (line, end, cell): both windows read from outside the arc to inside it
    cols = np.stack([lo[:, None] + inward, hi[:, None] - inward], axis=1) % grid
    ends = _scored_plus(state, s, rows[:, None, None], cols, trig)
    clean = (~ends[..., 0] & ends[..., -1] & (ends[..., :-1] <= ends[..., 1:]).all(-1)).all(1)
    minus = np.count_nonzero(~ends[clean], axis=-1)
    rows, first, last = rows[clean], lo[clean] - k + minus[:, 0], hi[clean] + k - minus[:, 1]
    start[rows], length[rows], whole[rows] = first % grid, last + 1 - first, False
    return start, length, whole, _scored_plus(state, s, np.flatnonzero(whole)[:, None],
                                              np.arange(grid), trig)


def _runs_overlap(runs_a, runs_b, grid) -> int:
    """Lattice cells in both +1 sets of ``_line_runs``: the overlap of two cyclic
    runs per line, and on lines that either scores whole, the overlap of their rows."""
    (start_a, length_a, whole_a, _), (start_b, length_b, whole_b, _) = runs_a, runs_b
    both = sum(np.maximum(0, np.minimum(start_a + length_a, start_b + shift + length_b)
                          - np.maximum(start_a, start_b + shift)).sum()
               for shift in (-grid, 0, grid))
    lines = np.flatnonzero(whole_a | whole_b)
    return int(both) + np.count_nonzero(_line_masks(runs_a, lines, grid)
                                        & _line_masks(runs_b, lines, grid))


def _line_masks(runs, lines, grid) -> np.ndarray:
    """The +1 cells of ``_line_runs`` on each of the sorted lines, as bool rows."""
    start, length, whole, masks = runs
    rows = (np.arange(grid) - start[lines, None]) % grid < length[lines, None]
    rows[whole[lines]] = masks
    return rows


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
    return _unit_interval(np.asarray(p, dtype=float), "response probability")


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
        base, u_alice, u_bob = self._split(lams)
        u_second = u_bob if ordering is TimeOrdering.AB else u_alice
        p2 = _check_probs(self._sr.p_second(ordering, state, a, b, first_vals, base))
        return _pm(u_second <= p2)

    def _thresholds(self, ordering, state, pairs):
        """Per pair, p_first of its first setting and p_second after a first +1 and
        -1, of a rule that sees no hidden coordinate: one p_first per setting."""
        ab, sr = ordering is TimeOrdering.AB, self._sr
        p_first = {s: _check_probs(sr.p_first(ordering, state, s, np.empty((1, 0)))).item()
                   for s in dict.fromkeys(a if ab else b for a, b in pairs)}
        firsts = np.array([1, -1], dtype=np.int8)
        return ([p_first[a if ab else b] for a, b in pairs],
                [_check_probs(sr.p_second(ordering, state, a, b, firsts, np.empty((2, 0))))
                 for a, b in pairs])

    def count_pairs(self, ordering, state, pairs, lams):
        if self._sr.lambda_dim:  # a rule that reads base coordinates takes the default count
            return super().count_pairs(ordering, state, pairs, lams)
        # an elementwise rule that sees no hidden coordinate is a threshold model
        ab = ordering is TimeOrdering.AB
        _, u_alice, u_bob = self._split(_lambdas(self, lams))
        p_first, levels = self._thresholds(ordering, state, pairs)
        masks = {p: (u_alice if ab else u_bob) <= p for p in set(p_first)}
        return count_threshold_pairs(ordering, [masks[p] for p in p_first],
                                     u_bob if ab else u_alice, levels)

    def lattice_counts(self, ordering, state, pairs, grid):
        if self._sr.lambda_dim:
            return None
        p_first, levels = self._thresholds(ordering, state, pairs)
        return lattice_threshold_counts(ordering, lattice_at_or_below(grid, p_first), levels, grid)

    def count_violations(self, state, pairs, lams):
        lams = _lambdas(self, lams)
        _, u_alice, u_bob = self._split(lams)
        counts = None if self._sr.lambda_dim else threshold_violations(
            u_alice, u_bob, self._thresholds(TimeOrdering.AB, state, pairs),
            self._thresholds(TimeOrdering.BA, state, pairs))
        return super().count_violations(state, pairs, lams) if counts is None else counts


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


MODEL_REGISTRY = {
    "gisin-singlet": GisinSingletModel,
    "local-sphere": LocalSphereModel,
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
