"""Ordered response models: four functions (F_AB, S_AB, F_BA, S_BA) of (state, settings, lambda).

"First" takes only the first party's setting; "second" may depend on both,
which is what makes a model nonlocal. Built-ins:

  - GisinSingletModel: explicit nonlocal threshold model on the unit square
    reproducing singlet statistics in both orderings (BA by role swap).
  - LocalSphereModel: a Bell-local reference model on the sphere.
  - determinize(): wraps a stochastic response rule into a deterministic
    model by appending two uniform coordinates and thresholding; a rule
    without base coordinates gives a DeterminizedThresholdModel.

All evaluation is pure, and models hold no state between calls. Evaluation
methods take an (n, d) array of hidden points and return (n,) int8 arrays of
+/-1. A loop that scores many setting pairs on one array evaluates on
``model.bind(lams)``, which keeps what local-sphere derives from that array.

Threshold models (gisin-singlet, DeterminizedThresholdModel) keep nothing and
declare one rule, ``_rule(ordering, state, pairs) -> (firsts, levels)``: pair
i's first party is +1 where its coordinate (Alice's lams[:, 0], Bob's
lams[:, 1]) is <= firsts[i], the second where its own is <= levels[i, 0] after
a first +1 and <= levels[i, 1] after a -1. Every count below reads it.

Counts take the setting pair as their leading axis. ``count_pairs(ordering,
state, pairs, lams)`` returns the (k, 2, 2) int64 outcome counts of k setting
pairs on one array; the engine calls it once per block. The default counts
each pair's ``eval_pairs`` outcomes; the built-ins count the same with less
work. Threshold models count through ``count_threshold_pairs``, on each pair's
first-outcome mask in place; local-sphere counts as a Bell-local model
(``count_local_pairs``), and determinized rules with base coordinates take the
default.

``lattice_counts(ordering, state, pairs, grid)`` is an optional hook: the
(k, 2, 2) counts that ``count_pairs`` would sum over the whole grid^d midpoint
lattice, or None (the default), which leaves them to the block engine. Threshold
models take all k tables from ``lattice_threshold_counts``, products of 1-D counts
with no per-pair loop; local-sphere overlaps its per-line runs of +1 cells for all
pairs at once (see its class), and every other model keeps the engine.

``count_violations(state, pairs, lams)`` counts each pair's rows whose outcomes differ
between the AB and BA frames, and ``count_chsh(ordering, state, pairs, lams)`` the four
CHSH pairs' 16 table cells and the 5-bin histogram of the per-point s. Both defaults
score every row; threshold models count both (``rule_violations``, ``rule_chsh``) from
``rank_cells``, one histogram of each row's ranks among their thresholds.
"""

from __future__ import annotations

import abc
import copy
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .core import QuantumState, TimeOrdering, _unit_interval, dot

# local-sphere's lattice_counts. Every float path computes a cell's projection within
# 1e-14 of its exact value (unit vectors, unit settings), so one computed beyond
# _ARC_MARGIN from 0 has the same sign in all. Each end of an arc is decided on the
# _ARC_HALF cells either side of its nearest cell, for _ARC_LINES u-lines at a time.
_ARC_MARGIN = 1e-12
_ARC_HALF = 1
_ARC_LINES = 1 << 12
_CELL_CHUNK = 1 << 20  # most pair x cell, or pair x line, entries evaluated at once


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
        cells = []
        for a, b in pairs:
            alpha, beta = (x >= 0 for x in eval_pairs(bound, ordering, state, a, b, lams))
            cells.append([np.count_nonzero(x) for x in (alpha & beta, alpha, beta)])
        return _cells(cells, len(lams))

    def count_chsh(self, ordering, state, pairs, lams) -> np.ndarray:
        """The four CHSH pairs' 16 table cells on lams, then the counts of its rows whose
        s = a0 b0 + a1 b1 + a2 b2 - a3 b3 is -4, -2, 0, 2 and 4: s is 2 per term of +1, less 4."""
        bound = self.bind(lams)
        plus = sum((np.equal(*eval_pairs(bound, ordering, state, a, b, lams)) ^ (i == 3)
                    for i, (a, b) in enumerate(pairs)), np.zeros(len(lams), dtype=np.uint8))
        return np.concatenate([bound.count_pairs(ordering, state, pairs, lams).ravel(),
                               [np.count_nonzero(plus == k) for k in range(5)]])

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


def _cells(rows, n) -> np.ndarray:
    """The (k, 2, 2) int64 tables of n points each from k rows of a pair's (+, +)
    cell and its two +1 marginals, alpha's and beta's."""
    pp, ap, bp = np.asarray(rows, dtype=np.int64).reshape(-1, 3).T
    return np.stack([pp, ap - pp, bp - pp, n - ap - bp + pp], axis=-1).reshape(-1, 2, 2)


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
    return _cells([(np.count_nonzero(alice[a] & bob[b]), alice_plus[a], bob_plus[b])
                   for a, b in pairs], len(lams))


def count_threshold_pairs(ordering, first_plus, u_second, levels) -> np.ndarray:
    """``count_pairs`` of a threshold model: pair i's first outcome is +1 on the bool
    mask first_plus[i], its second as its ``_rule`` levels[i] say, on its mask in place."""
    cells = []
    for mask, (lo, hi) in zip(first_plus, levels):
        plus_plus, below_hi = np.count_nonzero(mask & (u_second <= lo)), u_second <= hi
        minus_plus = np.count_nonzero(below_hi) - np.count_nonzero(mask & below_hi)
        cells.append((plus_plus, np.count_nonzero(mask), plus_plus + minus_plus))
    counts = _cells(cells, u_second.size)
    return counts if ordering is TimeOrdering.AB else counts.swapaxes(1, 2)


def rank_cells(n, above_1, keys_1, above_2, keys_2) -> np.ndarray:
    """The (len(keys_1) + 1, len(keys_2) + 1) int64 histogram of n points' (rank_1, rank_2)
    cells: rank_i counts the keys k whose above_i(k, out) marks the point in out, one shared
    (n,) bool buffer."""
    shape, out = (len(keys_1) + 1, len(keys_2) + 1), np.empty(n, dtype=bool)
    codes = np.zeros(n, dtype=np.min_scalar_type(shape[0] * shape[1] - 1))
    for k in keys_1:
        codes += above_1(k, out)
    codes *= shape[1]  # rank_1 is the cell's row
    for k in keys_2:
        codes += above_2(k, out)
    # in parts of 2^14 codes, as bincount copies its input to 8-byte intp
    return sum(np.bincount(part, minlength=shape[0] * shape[1])
               for part in np.split(codes, range(1 << 14, n, 1 << 14))).reshape(shape)


def threshold_violations(u_alice, u_bob, ab, ba):
    """``count_violations`` of a threshold model, from ab and ba, the ``_rule``
    (firsts, levels) of AB and BA. A coordinate's rank among its party's distinct
    thresholds (Alice's AB first and BA second ones, Bob's the mirror) decides
    u <= t[j] as j >= rank, so one histogram of the (rank_A, rank_B) cells counts
    every pair. None where the cells outnumber 2n probes."""
    (first_ab, levels_ab), (first_ba, levels_ba) = ab, ba
    # sorted sets, not np.unique, whose first call imports numpy.ma (~15 ms in a fresh process)
    alice = np.array(sorted({*np.ravel(first_ab), *np.ravel(levels_ba)}), dtype=float)
    bob = np.array(sorted({*np.ravel(first_ba), *np.ravel(levels_ab)}), dtype=float)
    if (alice.size + 1) * (bob.size + 1) > 2 * u_alice.size:
        return None
    hist = rank_cells(u_alice.size, partial(np.greater, u_alice), alice,
                      partial(np.greater, u_bob), bob)
    return failing_cell_counts(hist, alice, bob, ab, ba)


def rule_violations(m, state, pairs, lams) -> np.ndarray:
    """``count_violations`` of a threshold model: ``threshold_violations`` of its AB and
    BA ``_rule``, and past that count's cell bound the scoring default."""
    lams = _lambdas(m, lams)
    counts = threshold_violations(lams[:, 0], lams[:, 1], m._rule(TimeOrdering.AB, state, pairs),
                                  m._rule(TimeOrdering.BA, state, pairs))
    return OrderedModel.count_violations(m, state, pairs, lams) if counts is None else counts


def rule_chsh(m, ordering, state, pairs, lams) -> np.ndarray:
    """``count_chsh`` of a threshold model from ``rank_cells`` of each row's ranks among its
    ``_rule``'s distinct first thresholds (a first -1 of the model's own ``first_values``)
    and distinct levels, which fix every pair's outcomes as in ``failing_cell_counts``."""
    lams, ab = _lambdas(m, lams), ordering is TimeOrdering.AB
    firsts, levels = m._rule(ordering, state, pairs)
    setting = dict(zip(firsts.tolist(), (a if ab else b for a, b in pairs)))  # per threshold
    tops, lows = np.array(sorted(setting)), np.array(sorted(set(levels.ravel().tolist())))
    hist = rank_cells(len(lams), lambda t, out: np.less(
        m.first_values(ordering, state, setting[t], lams), 0, out=out), tops,
        partial(np.greater, lams[:, 1 if ab else 0]), lows).ravel()
    # each pair's outcomes, +1 as True, on the (pair, rank_first, rank_second) cells
    first = np.arange(len(tops) + 1)[:, None] <= np.searchsorted(tops, firsts)[:, None, None]
    lo, hi = np.searchsorted(lows, levels).T[..., None, None]
    second = np.arange(len(lows) + 1) <= np.where(first, lo, hi)
    alpha, beta = (first, second) if ab else (second, first)
    table = (2 * ~alpha + ~beta).reshape(len(pairs), 1, -1) == np.arange(4)[:, None]
    plus = ((alpha == beta) ^ (np.arange(len(pairs)) == 3)[:, None, None]).sum(0)
    return np.concatenate([(table @ hist).ravel(), (plus.ravel() == np.arange(5)[:, None]) @ hist])


def failing_cell_counts(hist, alice, bob, ab, ba) -> np.ndarray:
    """Each pair's sum of hist, the counts of the (rank_A, rank_B) cells of the
    sorted thresholds alice and bob, over the cells where the rule of
    ``threshold_violations`` gives either party different outcomes in AB and BA."""
    (first_ab, levels_ab), (first_ba, levels_ba) = ab, ba
    rank_a, rank_b = np.arange(hist.shape[0])[:, None], np.arange(hist.shape[1])
    # each pair's threshold ranks: first outcomes, then second ones after a first +1 and -1
    ranks = [np.searchsorted(alice, first_ab), np.searchsorted(bob, first_ba),
             *np.searchsorted(alice, levels_ba).T, *np.searchsorted(bob, levels_ab).T]
    counts = np.empty(len(ranks[0]), dtype=np.int64)
    step = max(1, _CELL_CHUNK // hist.size)  # pairs evaluated at once
    for i in range(0, counts.size, step):
        # these pairs' ranks as (pair, 1, 1) blocks, broadcast over (pair, rank_A, rank_B)
        first_a, first_b, lo_a, hi_a, lo_b, hi_b = (r[i:i + step, None, None] for r in ranks)
        alpha_ab, beta_ba = rank_a <= first_a, rank_b <= first_b
        alpha_ba = rank_a <= np.where(beta_ba, lo_a, hi_a)
        beta_ab = rank_b <= np.where(alpha_ab, lo_b, hi_b)
        fails = ((alpha_ab != alpha_ba) | (beta_ba != beta_ab)).reshape(len(first_a), -1)
        counts[i:i + step] = fails @ hist.ravel()
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
    lo, hi = lattice_at_or_below(grid, np.asarray(levels, dtype=float).reshape(-1, 2)).T
    plus = np.asarray(first_plus, dtype=np.int64)
    counts = _cells(np.transpose([plus * lo, plus * grid, plus * lo + (grid - plus) * hi]),
                    grid * grid)
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

    def _rule(self, ordering, state, pairs):
        """Per pair, the first party's threshold 1/2 and the second's after a first +1
        and -1, (1 -+ a.b)/2: one rule in both orderings, as a.b = b.a."""
        _require_singlet(state)
        levels = np.array([(1.0 - c, 1.0 + c) for c in (dot(a, b) for a, b in pairs)])
        return np.full(len(pairs), 0.5), levels.reshape(-1, 2) / 2.0

    def first_values(self, ordering, state, setting_first, lams):
        _require_singlet(state)
        return _pm(lams[:, 0 if ordering is TimeOrdering.AB else 1] <= 0.5)  # ignores the setting

    def second_values(self, ordering, state, a, b, lams):
        ab = ordering is TimeOrdering.AB
        (first,), ((lo, hi),) = self._rule(ordering, state, [(a, b)])
        r_second, plus = lams[:, 1 if ab else 0], lams[:, 0 if ab else 1] <= first
        # branch-free: np.where over a random mask costs about 6x as much, for the same bits
        return _pm((plus & (r_second <= lo)) | (~plus & (r_second <= hi)))

    def count_pairs(self, ordering, state, pairs, lams):
        lams, ab = _lambdas(self, lams), ordering is TimeOrdering.AB
        # the first outcome ignores the setting: one mask serves every pair
        first_plus = [self.first_values(ordering, state, a if ab else b, lams) > 0
                      for a, b in pairs[:1]]
        return count_threshold_pairs(ordering, first_plus * len(pairs), lams[:, 1 if ab else 0],
                                     self._rule(ordering, state, pairs)[1])

    def lattice_counts(self, ordering, state, pairs, grid):
        ab, mids = ordering is TimeOrdering.AB, lattice_midpoints(grid)
        # one first_values call on the midpoints, read as either coordinate, counts the
        # first +1 outcomes of every pair; the levels' counts need no midpoints
        lams = np.broadcast_to(mids[:, None], (grid, 2))
        first_plus = [np.count_nonzero(self.first_values(ordering, state, a if ab else b, lams) > 0)
                      for a, b in pairs[:1]]
        return lattice_threshold_counts(ordering, first_plus * len(pairs),
                                        self._rule(ordering, state, pairs)[1], grid)

    count_violations, count_chsh = rule_violations, rule_chsh


class LocalSphereModel(OrderedModel):
    """Bell-local reference model: shared random direction on the sphere.

    lambda = (u, v) maps to a uniform unit vector via cos(theta) = 2u - 1,
    phi = 2*pi*v. Alice outputs sign(a.lam_hat), Bob outputs -sign(b.lam_hat),
    in every ordering; the second party ignores the first party's setting.
    sign(0) counts as +1.

    ``lattice_counts`` takes the trig of each axis midpoint once. On a u-line a
    setting's +1 cells form one cyclic run of v-indices, whose ends it finds
    analytically, scoring in float only the cells by an end that project within
    _ARC_MARGIN of 0. Bob's +1 cells are the rest of Alice's, and a pair's "++"
    cells are the overlap of two runs per line, taken for all pairs in one array
    pass, so the cost is O(grid x (settings + pairs)), not O(grid^2).
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
        if not pairs:
            return _cells([], grid * grid)
        mids = lattice_midpoints(grid)
        cos_t = 2.0 * mids - 1.0
        sin_t = np.sqrt(np.maximum(0.0, 1.0 - cos_t * cos_t))
        cos_p, sin_p = np.cos(2.0 * np.pi * mids), np.sin(2.0 * np.pi * mids)
        index = {s: i for i, s in enumerate(dict.fromkeys(s for pair in pairs for s in pair))}
        # Alice's +1 cells: (setting, line) runs and whole flags, and the whole lines' cells
        runs = tuple(np.concatenate(part).reshape(-1, grid) for part in zip(*(
            _line_runs(state, s, (sin_t[top:top + _ARC_LINES], cos_t[top:top + _ARC_LINES],
                                  cos_p, sin_p))
            for s in index for top in range(0, grid, _ARC_LINES))))
        plus = runs[1].sum(1)
        np.add.at(plus, np.nonzero(runs[2])[0], np.count_nonzero(runs[3], axis=1))
        ia, ib = np.array([(index[a], index[b]) for a, b in pairs]).T
        n, step = grid * grid, max(1, _CELL_CHUNK // grid)  # Bob's +1 cells: the rest of Alice's
        both = np.concatenate([_runs_overlap(runs, ia[i:i + step], ib[i:i + step], grid)
                               for i in range(0, len(pairs), step)])  # a and b both +1
        return _cells(np.stack([plus[ia] - both, plus[ia], n - plus[ib]], axis=1), n)


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
    end of the arc have the sign of their analytic projection, or are scored in float
    where it is within _ARC_MARGIN of 0. Where the outer of those cells project below
    -_ARC_MARGIN and the inner above it, every cell between the two windows has the
    sign of its side, as the projection has one maximum and one minimum. If both
    windows then read -1 up to +1 once, the run ends where they change. Lines
    without that proof are scored whole."""
    sin_t, cos_t, cos_p, sin_p = trig
    grid, k = cos_p.size, _ARC_HALF
    amp, off = sin_t * np.hypot(s.x, s.y), cos_t * s.z
    start = np.zeros(sin_t.size, dtype=np.int32)  # v-indices: the engine cap keeps grid < 2^19
    length = np.where(off - amp > _ARC_MARGIN, np.int32(grid), np.int32(0))
    whole = (off - amp <= _ARC_MARGIN) & (off + amp >= -_ARC_MARGIN)  # not one sign throughout
    rows = np.flatnonzero(whole & (amp > _ARC_MARGIN))
    half = np.arccos(np.clip(-off[rows] / amp[rows], -1.0, 1.0))
    phi0, per_radian = np.arctan2(s.y, s.x), grid / (2.0 * np.pi)
    # each arc's (end, line) first and last cell, then its (cell, end, line) windows, read
    # from outside the arc to inside it, as v-indices that may pass a full turn
    lo, hi = ends = np.rint((phi0 + half * [[-1.0], [1.0]]) * per_radian - 0.5).astype(np.int64)
    cols = ends + np.multiply.outer(np.arange(-k, k + 1), (1, -1))[..., None]
    proj = np.take(s.x * cos_p + s.y * sin_p, cols, mode="wrap") * sin_t[rows] + off[rows]
    near, plus = np.abs(proj) <= _ARC_MARGIN, proj > 0
    if near.any():
        plus[near] = _scored_plus(state, s, rows[np.nonzero(near)[2]], cols[near] % grid, trig)
    sure = ((hi - lo > 2 * k) & (lo + grid - hi > 2 * k)  # the windows do not meet
            & ~(near[0] | near[-1] | plus[0] | ~plus[-1]).any(0)
            & (plus[:-1] <= plus[1:]).all((0, 1)))
    minus = (~plus).sum(0)  # each window's -1 cells
    rows, first, last = rows[sure], (lo - k + minus[0])[sure], (hi + k - minus[1])[sure]
    start[rows], length[rows], whole[rows] = first % grid, last + 1 - first, False
    return start, length, whole, _scored_plus(state, s, np.flatnonzero(whole)[:, None],
                                              np.arange(grid), trig)


def _runs_overlap(runs, a, b, grid) -> np.ndarray:
    """Each pair's cells in both +1 sets of ``_line_runs``, (setting, line) rows, of
    settings a[i] and b[i]. b's run starts d in [0, grid) cells past a's, so only it and
    its shift one turn back can meet a's, which ends within one turn; on lines that
    either scores whole, their rows overlap, at most _CELL_CHUNK cells at once."""
    start, length, whole, masks = runs
    length_a, length_b, d = length[a], length[b], start[b] - start[a]
    d += (d < 0) * np.int32(grid)
    both = np.maximum(np.minimum(length_a - d, length_b), 0).sum(1)
    d += length_b - grid
    both += np.maximum(np.minimum(length_a, d, out=d), 0, out=d).sum(1)
    pair, line, step = *np.nonzero(whole[a] | whole[b]), max(1, _CELL_CHUNK // grid)
    order = np.cumsum(whole).reshape(whole.shape) - 1  # row r of masks: the r-th whole line
    for i in range(0, pair.size, step):
        p, lines, cells = pair[i:i + step], line[i:i + step], True
        for s in (a[p], b[p]):  # each party's +1 cells on these lines, as bool rows
            rows = (np.arange(grid) - start[s, lines, None]) % grid < length[s, lines, None]
            rows[whole[s, lines]] = masks[order[s, lines][whole[s, lines]]]
            cells = cells & rows
        np.add.at(both, p, np.count_nonzero(cells, axis=1))
    return both


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


class DeterminizedThresholdModel(DeterminizedModel):
    """A determinized rule without base coordinates (``lambda_dim == 0``): a threshold
    model of (u1, u2). Such a rule must be elementwise, as ``StochasticResponse`` asks."""

    def _rule(self, ordering, state, pairs):
        """Per pair, p_first of its first setting and p_second after a first +1 and
        -1, on a 1-row and a 2-row base of no coordinates: one p_first per setting."""
        ab, sr = ordering is TimeOrdering.AB, self._sr
        p_first = {s: _check_probs(sr.p_first(ordering, state, s, np.empty((1, 0)))).item()
                   for s in dict.fromkeys(a if ab else b for a, b in pairs)}
        firsts = np.array([1, -1], dtype=np.int8)
        return (np.array([p_first[a if ab else b] for a, b in pairs]),
                np.array([_check_probs(sr.p_second(ordering, state, a, b, firsts, np.empty((2, 0))))
                          for a, b in pairs]).reshape(-1, 2))

    def count_pairs(self, ordering, state, pairs, lams):
        lams, ab = _lambdas(self, lams), ordering is TimeOrdering.AB
        p_first, levels = self._rule(ordering, state, pairs)
        masks = {p: lams[:, 0 if ab else 1] <= p for p in set(p_first)}
        return count_threshold_pairs(ordering, [masks[p] for p in p_first],
                                     lams[:, 1 if ab else 0], levels)

    def lattice_counts(self, ordering, state, pairs, grid):
        p_first, levels = self._rule(ordering, state, pairs)
        return lattice_threshold_counts(ordering, lattice_at_or_below(grid, p_first), levels, grid)

    count_violations, count_chsh = rule_violations, rule_chsh


def determinize(sr: StochasticResponse) -> OrderedModel:
    """Deterministic model equivalent in distribution to the stochastic rule."""
    return (DeterminizedModel if sr.lambda_dim else DeterminizedThresholdModel)(sr)


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
