import concurrent.futures
import math
import sys
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from covbell import models, stats
from covbell.core import (MeasurementSetting, Outcome, QuantumState,
                          TimeOrdering, dot, setting_grid, tsirelson_settings)
from covbell.models import (MODEL_REGISTRY, GisinSingletModel, LocalSphereModel,
                            StochasticResponse, determinize, eval_pairs, make_model,
                            stochastic_singlet)
from covbell.stats import (_BLOCK, _CHUNK, CSV_COLUMNS, JointStats, SeedSpec, _counts_to_stats,
                           _fmt, _lattice_block, _sample_block, chsh, chsh_pairs, correlator,
                           estimate_joint, exact_joint, exact_tables, joint_columns,
                           joint_record, records_to_csv, records_to_json, sample_chsh,
                           sample_lambda, sample_tables)
from oracles import (EngineSphere, any_pair_violators, fmt_cell, per_cell_csv, per_pair_chsh,
                     per_pair_correlator, per_pair_record, per_pair_rows, per_pair_stats,
                     per_point_chsh, singlet_joint_oracle, singlet_oracle_table)
from property_inputs import SETTING

AB, BA = TimeOrdering.AB, TimeOrdering.BA
SINGLET = QuantumState.SINGLET
A_X = MeasurementSetting(1, 0, 0)
B_09 = MeasurementSetting(0.9, math.sqrt(1 - 0.81), 0)
B_PERP = MeasurementSetting(0, 1, 0)


def test_singlet_oracle_examples():
    assert singlet_joint_oracle(Outcome.PLUS, Outcome.PLUS, A_X, A_X) == 0.0
    assert singlet_joint_oracle(Outcome.PLUS, Outcome.MINUS, A_X, A_X) == 0.5
    assert singlet_joint_oracle(Outcome.PLUS, Outcome.PLUS, A_X, B_PERP) == 0.25


def test_sample_lambda_range_and_shape():
    lams = sample_lambda(2, 3, SeedSpec(1))
    assert lams.shape == (3, 2)
    assert np.all((lams >= 0.0) & (lams <= 1.0))


def test_sample_lambda_deterministic():
    a = sample_lambda(2, 1000, SeedSpec(123))
    b = sample_lambda(2, 1000, SeedSpec(123))
    assert np.array_equal(a, b)
    # another seed draws another sample
    assert not np.array_equal(a, sample_lambda(2, 1000, SeedSpec(124)))


def test_sample_lambda_mean():
    lams = sample_lambda(2, 100_000, SeedSpec(2))
    assert np.allclose(lams.mean(axis=0), 0.5, atol=0.005)


@pytest.mark.parametrize("draw", [
    lambda: sample_lambda(-1, 10, SeedSpec(1)),
    lambda: sample_lambda(2, 0, SeedSpec(1)),
    lambda: estimate_joint(GisinSingletModel(), AB, SINGLET, A_X, B_09, 0, SeedSpec(1)),
], ids=["sample_lambda d < 0", "sample_lambda n < 1", "estimate_joint n < 1"])
def test_impossible_sample_sizes_rejected(draw):
    with pytest.raises(ValueError, match="nonnegative|at least one sample"):
        draw()


def test_estimate_joint_orthogonal_settings_uniform_cells():
    m = GisinSingletModel()
    table = estimate_joint(m, AB, SINGLET, A_X, B_PERP, 1_000_000, SeedSpec(3))
    assert np.allclose(table.probs, 0.25, atol=0.002)
    assert table.counts.sum() == table.n
    assert table.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_estimate_joint_frames_agree_statistically():
    m = GisinSingletModel()
    t_ab = estimate_joint(m, AB, SINGLET, A_X, B_PERP, 1_000_000, SeedSpec(3))
    t_ba = estimate_joint(m, BA, SINGLET, A_X, B_PERP, 1_000_000, SeedSpec(4))
    assert np.allclose(t_ab.probs, t_ba.probs, atol=0.002)


def test_estimate_joint_sphere_equal_settings_anticorrelated():
    m = LocalSphereModel()
    table = estimate_joint(m, AB, SINGLET, A_X, A_X, 100_000, SeedSpec(5))
    p_equal = table.probs[0, 0] + table.probs[1, 1]
    assert p_equal <= 0.001


def test_exact_joint_gisin_cell_value():
    m = GisinSingletModel()
    table = exact_joint(m, AB, SINGLET, A_X, B_09, grid=2000)
    assert table.probs[0, 0] == pytest.approx(0.025, abs=5e-4)  # (+1, +1)
    assert table.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_exact_joint_role_swap_symmetry():
    # gisin's BA frame is its AB frame with the parties and the two coordinates
    # swapped, and the lattice is symmetric under that swap, so every BA count
    # is the AB count with alpha and beta swapped
    m = GisinSingletModel()
    pairs = [(a, b) for a in setting_grid(4) for b in setting_grid(4)]
    for grid in (7, 1001):
        ab, ba = (exact_tables(m, ordering, SINGLET, pairs, grid).counts for ordering in (AB, BA))
        assert np.array_equal(ba, ab.transpose(0, 2, 1))


def test_exact_joint_matches_oracle_within_grid_error():
    m = GisinSingletModel()
    grid = 400
    g = setting_grid(4)
    for a in g:
        for b in g:
            table = exact_joint(m, AB, SINGLET, a, b, grid=grid)
            oracle = singlet_oracle_table(a, b)
            assert np.max(np.abs(table.probs - oracle.probs)) <= 1.0 / grid


def test_exact_joint_high_dimension_is_bounded_by_the_engine_cap():
    sr = StochasticResponse(
        lambda_dim=2,
        p_first=lambda o, s, sf, lams: lams[:, 0],
        p_second=lambda o, s, a, b, f, lams: np.where(f > 0, lams[:, 1], 1.0 - lams[:, 1]),
    )
    m = determinize(sr)  # lambda_dim = 4; it reads base coordinates, so the engine scores it
    table = exact_joint(m, AB, SINGLET, A_X, B_09, grid=10)
    alphas, betas = eval_pairs(m, AB, SINGLET, A_X, B_09, _lattice_block(4, 10, 0, 10 ** 4))
    expected = [[np.count_nonzero((alphas == x) & (betas == y)) for y in (1, -1)]
                for x in (1, -1)]
    assert table.n == 10 ** 4 and np.array_equal(table.counts, expected)
    with pytest.raises(ValueError, match="exact engine's cap.*use Monte Carlo"):
        exact_joint(m, AB, SINGLET, A_X, B_09, grid=600)


def test_exact_joint_small_grid_rejected():
    with pytest.raises(ValueError, match="grid"):
        exact_joint(GisinSingletModel(), AB, SINGLET, A_X, B_09, grid=1)


def test_exact_joint_rejects_a_lattice_beyond_int64_indices():
    # grids past int64 itself: without the check the first block fails at once
    for grid in (10 ** 22, 2 ** 63):
        with pytest.raises(ValueError, match="64-bit"):
            exact_joint(GisinSingletModel(), AB, SINGLET, A_X, B_09, grid=grid)


def test_correlator_oracle_tables():
    assert correlator(singlet_oracle_table(A_X, A_X)).value == pytest.approx(-1.0)
    assert correlator(singlet_oracle_table(A_X, B_PERP)).value == pytest.approx(0.0)


def test_correlator_matches_negative_dot_on_grid():
    g = setting_grid(5)
    for a in g:
        for b in g:
            est = correlator(singlet_oracle_table(a, b))
            assert est.value == pytest.approx(-dot(a, b), abs=1e-12)
            assert est.n == 0


def test_correlator_gisin_mc():
    m = GisinSingletModel()
    table = estimate_joint(m, AB, SINGLET, A_X, B_09, 1_000_000, SeedSpec(6))
    assert correlator(table).value == pytest.approx(-0.9, abs=0.005)


def test_correlator_rejects_empty():
    empty = JointStats(counts=np.zeros((2, 2), dtype=np.int64), n=0,
                       probs=np.zeros((2, 2)), stderr=np.zeros((2, 2)), exact=False)
    with pytest.raises(ValueError):
        correlator(empty)


@pytest.mark.parametrize("sign", [1, -1])
def test_correlator_clamps_rounding_past_the_bound(sign):
    # past 2**53 samples the cells round so that their signed sum reads 1 + 2**-52
    n, k = 9959434288467221, 6227583321205817
    counts = [[k, 0], [0, n - k]] if sign == 1 else [[0, k], [n - k, 0]]
    table = _counts_to_stats(np.array(counts, dtype=np.int64), n)
    p = table.probs
    assert sign * float(p[0, 0] + p[1, 1] - p[0, 1] - p[1, 0]) == 1.0 + 2.0 ** -52
    est = correlator(table)
    assert (est.value, est.stderr) == (float(sign), 0.0)


def _clamping_sizes(exact: bool, count=16) -> list:
    """(n, k, grid) with n > 2**53 points (grid^2 for an exact table, grid None for
    Monte Carlo) whose table [[k, 0], [0, n - k]] has cells that round to E = 1 + 2**-52."""
    rng, found = np.random.default_rng(5), []
    while len(found) < count:
        grid = int(rng.integers(2 ** 27, 2 ** 31)) if exact else None
        n = grid ** 2 if exact else int(rng.integers(2 ** 53, 2 ** 62))
        k = int(rng.integers(1, n))
        if float(k) / float(n) + float(n - k) / float(n) > 1.0:
            found.append((n, k, grid))
    return found


_CLAMPING = {exact: _clamping_sizes(exact) for exact in (False, True)}


@st.composite
def _pair_counts(draw, n, clamping_k):
    """One pair's (2, 2) counts of n points: three cut points of [0, n], or, given
    clamping_k, a diagonal or anti-diagonal table of k = clamping_k or any k."""
    if clamping_k:
        k = draw(st.one_of(st.just(clamping_k), st.integers(1, n - 1)), label="k")
        diagonal = draw(st.booleans(), label="diagonal")
        return [[k, 0], [0, n - k]] if diagonal else [[0, k], [n - k, 0]]
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=3, max_size=3), label="cuts"))
    return [[cuts[0], cuts[1] - cuts[0]], [cuts[2] - cuts[1], n - cuts[2]]]


def _assert_batch_equals_per_pair(ordering, pairs, counts, n, grid, seed):
    """The batched table, correlators, CHSH value, records and documents of the
    k pairs' counts equal the per-pair reference's, bit for bit and byte for byte."""
    table, n_or_grid = _counts_to_stats(counts, n, grid), grid or n
    tables = [per_pair_stats(c, n, grid) for c in counts]
    for i, one in enumerate(tables):  # the k = 1 cases
        assert np.array_equal(table[i].probs, one.probs)
        assert np.array_equal(table[i].stderr, one.stderr)
        est = correlator(table[i])
        assert (est.value, est.stderr, est.n) == per_pair_correlator(one)
        assert joint_record(ordering, *pairs[i], table[i], n_or_grid, seed) == (
            per_pair_record(ordering, *pairs[i], one, n_or_grid, seed))
    est = correlator(table)
    assert list(zip(est.value, est.stderr)) == [per_pair_correlator(t)[:2] for t in tables]
    if len(pairs) == 4:
        res = chsh(table)
        assert (res.value, res.stderr) == per_pair_chsh(tables)
    columns = joint_columns(ordering, pairs, table, n_or_grid, seed)
    # Python cells, so the CSV writer takes one %.17g or %d conversion per column
    assert {type(cell) for col in columns.values() for cell in col} <= {str, int, float}
    rows = per_pair_rows(ordering, pairs, counts, n, grid, n_or_grid, seed)
    config = {"seed": seed}
    assert records_to_csv(columns, config) == records_to_csv(
        {col: [row[col] for row in rows] for col in CSV_COLUMNS}, config)
    assert records_to_json({"records": [dict(zip(columns, r)) for r in zip(*columns.values())]},
                           config) == records_to_json({"records": rows}, config)


@settings(max_examples=150, deadline=None)
@given(exact=st.booleans(), near_one=st.booleans(), ordering=st.sampled_from([AB, BA]),
       pairs=st.lists(st.tuples(SETTING, SETTING), min_size=1, max_size=12),
       seed=st.integers(0, 2 ** 64 - 1), data=st.data())
def test_batched_records_equal_the_per_pair_oracle(exact, near_one, ordering, pairs, seed, data):
    # exact: n = grid^d lattice points; Monte Carlo: n samples; neither a power of 2
    clamping_k, not_power_of_2 = None, (lambda m: m + (m & (m - 1) == 0))
    if near_one:
        n, clamping_k, grid = data.draw(st.sampled_from(_CLAMPING[exact]), label="clamping size")
    elif exact:
        grid = data.draw(st.integers(3, 3000).map(not_power_of_2), label="grid")
        n = grid ** data.draw(st.integers(1, 3), label="d")
    else:
        grid, n = None, data.draw(st.integers(3, 10 ** 7).map(not_power_of_2), label="n")
    counts = np.array([data.draw(_pair_counts(n, clamping_k), label="counts") for _ in pairs],
                      dtype=np.int64)
    p = counts / float(n)
    raw = ((p[:, 0, 0] + p[:, 1, 1]) - p[:, 0, 1]) - p[:, 1, 0]
    event(f"E clamped: {bool(np.any((1.0 < abs(raw)) & (abs(raw) < 1.0 + 1e-12)))}")
    _assert_batch_equals_per_pair(ordering, pairs, counts, n, grid, seed)


@pytest.mark.parametrize("exact", [False, True])
def test_batched_records_clamp_both_signs_as_the_per_pair_oracle(exact):
    n, k = 9959434288467221, 6227583321205817  # E = +-(1 + 2**-52) before the clamp
    counts = np.array([[[k, 0], [0, n - k]], [[0, k], [n - k, 0]], [[1, 2], [3, n - 6]],
                       [[n, 0], [0, 0]]], dtype=np.int64)
    assert correlator(_counts_to_stats(counts, n)).value[:2] == [1.0, -1.0]
    # the lattice of an exact table has grid^d points; this grid is a placeholder
    _assert_batch_equals_per_pair(BA, chsh_pairs(tsirelson_settings()), counts, n,
                                  99_799_000 if exact else None, 3)


@pytest.mark.parametrize("grid", [None, 10])
def test_records_of_no_pairs_keep_every_column(grid):
    # no pairs still make all 15 columns, so the CSV header is CSV_COLUMNS
    columns = joint_columns(AB, [], _counts_to_stats(np.zeros((0, 2, 2), dtype=np.int64), 100, grid),
                            grid or 100, 3)
    assert {col: list(cells) for col, cells in columns.items()} == {col: [] for col in CSV_COLUMNS}
    assert records_to_csv(columns, {"seed": 3}).splitlines()[1:] == [",".join(CSV_COLUMNS)]
    _assert_batch_equals_per_pair(AB, [], np.zeros((0, 2, 2), dtype=np.int64), 100, grid, 3)


def test_mc_converges_to_exact_within_four_sigma():
    m = GisinSingletModel()
    mc = estimate_joint(m, AB, SINGLET, A_X, B_09, 1_000_000, SeedSpec(7))
    ex = exact_joint(m, AB, SINGLET, A_X, B_09, grid=2000)
    sigma = np.maximum(mc.stderr, 1e-12)
    assert np.all(np.abs(mc.probs - ex.probs) <= 4.0 * sigma + 1.0 / 2000)


def test_chsh_exact_tsirelson():
    tables = exact_tables(GisinSingletModel(), AB, SINGLET, chsh_pairs(tsirelson_settings()), 2000)
    res = chsh(tables)
    assert res.value == pytest.approx(2.0 * math.sqrt(2.0), abs=2e-3)


def test_chsh_sphere_respects_bell_bound():
    tables = sample_tables(LocalSphereModel(), AB, SINGLET, chsh_pairs(tsirelson_settings()),
                           1_000_000, SeedSpec(8))
    assert abs(chsh(tables).value) <= 2.0 + 0.01


def test_chsh_degenerate_quadruple_identity():
    a, ap, b, _ = tsirelson_settings()
    res = chsh(exact_tables(GisinSingletModel(), AB, SINGLET, chsh_pairs((a, ap, b, b)), 500))
    e_ab = correlator(exact_joint(GisinSingletModel(), AB, SINGLET, a, b, grid=500))
    assert res.value == 2.0 * e_ab.value


@pytest.mark.parametrize("grid", [7, 500])
def test_chsh_sums_the_exact_terms_discretization_bounds(grid):
    # each term's correlator bound is its four cells' 1/grid
    tables = exact_tables(GisinSingletModel(), BA, SINGLET, chsh_pairs(tsirelson_settings()),
                          grid)
    res = chsh(tables)
    assert res.stderr == pytest.approx(16.0 / grid, rel=1e-12)
    assert [t.stderr for t in res.terms] == [pytest.approx(4.0 / grid, rel=1e-12)] * 4


def test_chsh_sums_the_monte_carlo_terms_errors():
    # the four terms share one sample, so their errors are not independent: chsh sums
    # them, a bound, as it sums exact tables' discretization bounds
    n = 10_000
    tables = sample_tables(GisinSingletModel(), AB, SINGLET, chsh_pairs(tsirelson_settings()),
                           n, SeedSpec(5))
    res = chsh(tables)
    term_errs = [math.sqrt(1.0 - e ** 2) / math.sqrt(n) for e in correlator(tables).value]
    assert [t.stderr for t in res.terms] == pytest.approx(term_errs, rel=1e-12)
    assert res.stderr == sum(t.stderr for t in res.terms)


@pytest.mark.parametrize("model", sorted(MODEL_REGISTRY))
@pytest.mark.parametrize("ordering", [AB, BA])
def test_shared_sample_tables_are_count_pairs_on_sample_lambda(model, ordering):
    # every pair's table is its one-pair count over the seed's whole sample, which
    # the engine draws once, in blocks, for all pairs
    m, n = make_model(model), 2 * _BLOCK + 5
    pairs = [*chsh_pairs(tsirelson_settings()), *zip(setting_grid(3), setting_grid(2) * 2)]
    lams = sample_lambda(m.lambda_dim, n, SeedSpec(11))
    tables = sample_tables(m, ordering, SINGLET, pairs, n, SeedSpec(11), workers=2)
    for pair, counts in zip(pairs, tables.counts):
        assert np.array_equal(counts, m.count_pairs(ordering, SINGLET, [pair])(lams)[0])


_SETTINGS = [*setting_grid(3), *tsirelson_settings()]
_QUADS = [tsirelson_settings(), tuple(setting_grid(4)), tuple(setting_grid(5)[1:])]


@pytest.mark.parametrize("model", sorted(MODEL_REGISTRY))
@pytest.mark.parametrize("ordering", [AB, BA])
@pytest.mark.parametrize("quad", range(len(_QUADS)))
def test_sample_chsh_error_is_the_per_point_spread(model, ordering, quad):
    m, settings, n = make_model(model), _QUADS[quad], _BLOCK + 3
    res = sample_chsh(m, ordering, SINGLET, settings, n, SeedSpec(12), workers=2)
    # the terms are chsh's of the shared-sample tables, bit for bit, and S is the sum of
    # the per-point values over n, which their float sum equals up to rounding
    tables = sample_tables(m, ordering, SINGLET, chsh_pairs(settings), n, SeedSpec(12))
    assert res.terms == chsh(tables).terms
    s = per_point_chsh(m, ordering, SINGLET, settings, sample_lambda(m.lambda_dim, n, SeedSpec(12)))
    assert res.value == int(s.sum()) / n
    assert res.value == pytest.approx(chsh(tables).value, rel=0, abs=1e-12)
    assert res.stderr == pytest.approx(np.std(s) / math.sqrt(n), rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("ordering", [AB, BA])
@pytest.mark.parametrize("n, seed", [(300_001, 0), (1_000_000, 8), (4_000, 3)])
def test_local_sphere_chsh_is_2_without_sampling_error(ordering, n, seed):
    # every point of the Bell-local model scores s = 2 on the tsirelson settings
    res = sample_chsh(LocalSphereModel(), ordering, SINGLET, tsirelson_settings(), n,
                      SeedSpec(seed), workers=2)
    assert (res.value, res.stderr) == (2.0, 0.0)


@settings(max_examples=25, deadline=None)
@given(model=st.sampled_from(sorted(MODEL_REGISTRY)), ordering=st.sampled_from([AB, BA]),
       quad=st.tuples(*[st.sampled_from(_SETTINGS)] * 4), n=st.integers(1, 30_000),
       seed=st.integers(0, 2 ** 64 - 1))
def test_no_go_inequality_holds_in_integers_on_the_shared_sample(model, ordering, quad, n, seed):
    # a point that no pair's frames tell apart answers as a local strategy, |s| <= 2;
    # any other has |s| <= 4, so |N S| <= 2 N + 2 W, W the any-pair covariance violators
    m, pairs = make_model(model), chsh_pairs(quad)
    counts = stats._sample_counts(partial(m.count_chsh, ordering, SINGLET, pairs),
                                  m, pairs, n, SeedSpec(seed), 1).tolist()
    n_s = sum(k * s for k, s in zip(counts[16:], (-4, -2, 0, 2, 4)))
    lams = sample_lambda(m.lambda_dim, n, SeedSpec(seed))
    assert sum(counts[16:]) == n
    assert n_s == int(per_point_chsh(m, ordering, SINGLET, quad, lams).sum())
    # N S from the integer tables: each term's agreements less disagreements
    tables = np.array(counts[:16]).reshape(4, 2, 2)
    agree = tables[:, 0, 0] + tables[:, 1, 1] - tables[:, 0, 1] - tables[:, 1, 0]
    assert n_s == agree[0] + agree[1] + agree[2] - agree[3]
    violators = any_pair_violators(m, SINGLET, pairs, lams)
    event(f"violators: {bool(violators)}")
    assert abs(n_s) <= 2 * n + 2 * violators


_THRESHOLD_MODELS = ["determinized-singlet", "gisin-singlet"]
# coincident settings, and a = b, whose levels are 0 and 1
_COINCIDENT = st.sampled_from(_SETTINGS).flatmap(lambda s: st.one_of(
    st.just((s,) * 4), st.tuples(st.just(s), st.sampled_from(_SETTINGS), st.just(s),
                                 st.sampled_from(_SETTINGS))))


@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from(_THRESHOLD_MODELS), ordering=st.sampled_from([AB, BA]),
       quad=st.one_of(st.tuples(*[st.sampled_from(_SETTINGS)] * 4), _COINCIDENT),
       n=st.sampled_from([1, 7, _BLOCK - 1, _BLOCK + 1]), seed=st.integers(0, 2 ** 64 - 1),
       layout=st.sampled_from("FC"))
def test_rank_cell_chsh_is_the_scoring_default(model, ordering, quad, n, seed, layout):
    # a threshold model's count_chsh, from rank cells, is the rows' scores bit for bit
    m, pairs = make_model(model), chsh_pairs(quad)
    lams = np.asarray(sample_lambda(2, n, SeedSpec(seed)), order=layout)
    counts = m.count_chsh(ordering, SINGLET, pairs)(lams)
    assert counts.dtype == np.int64 and counts.shape == (21,)
    assert np.array_equal(counts, models.OrderedModel.count_chsh(m, ordering, SINGLET, pairs)(lams))


@pytest.mark.parametrize("model", _THRESHOLD_MODELS)
@pytest.mark.parametrize("workers", [1, 2])
def test_threshold_rule_is_taken_once_per_job(model, workers, monkeypatch):
    # both count hooks take the rule when the job starts, not per block: n spans 4 blocks
    m, rules, grid, n = make_model(model), [], setting_grid(3), 3 * _BLOCK + 5
    rule = type(m)._rule

    def counted_rule(self, ordering, *args):
        rules.append(ordering)
        return rule(self, ordering, *args)

    monkeypatch.setattr(type(m), "_rule", counted_rule)
    for ordering in (AB, BA):
        rules.clear()
        sample_tables(m, ordering, SINGLET, [(a, b) for a in grid for b in grid], n, SeedSpec(2),
                      workers)
        assert rules == [ordering]
        rules.clear()
        sample_chsh(m, ordering, SINGLET, tsirelson_settings(), n, SeedSpec(2), workers)
        assert rules == [ordering]


@pytest.mark.parametrize("model", _THRESHOLD_MODELS)
@pytest.mark.parametrize("quad", range(len(_QUADS)))
def test_threshold_chsh_block_count_makes_no_bincount(model, quad, monkeypatch):
    # CHSH's rank tables, at most 2 x 8 keys, are counted from nested masks
    def refuse(*args, **kwargs):
        raise AssertionError("np.bincount was called")

    m, pairs = make_model(model), chsh_pairs(_QUADS[quad])
    lams = sample_lambda(2, _BLOCK + 3, SeedSpec(6))
    monkeypatch.setattr(np, "bincount", refuse)
    for ordering in (AB, BA):
        counts = m.count_chsh(ordering, SINGLET, pairs)(lams)
        assert np.array_equal(counts, models.OrderedModel.count_chsh(m, ordering, SINGLET,
                                                                     pairs)(lams))


@pytest.mark.parametrize("model", _THRESHOLD_MODELS)
@pytest.mark.parametrize("ordering", [AB, BA])
def test_threshold_chsh_scores_no_pair(model, ordering, monkeypatch):
    # the rank path reads the first party's thresholds through first_values, once per block
    # (one distinct threshold), and calls no eval_pairs or second_values
    m, firsts = make_model(model), []
    first_values = type(m).first_values

    def refuse(*args):
        raise AssertionError("a row was scored")

    def counted_first_values(self, *args):
        firsts.append(len(args[-1]))
        return first_values(self, *args)

    monkeypatch.setattr(models, "eval_pairs", refuse)
    monkeypatch.setattr(type(m), "second_values", refuse)
    monkeypatch.setattr(type(m), "first_values", counted_first_values)
    res = sample_chsh(m, ordering, SINGLET, tsirelson_settings(), 2 * _BLOCK + 1, SeedSpec(4),
                      workers=2)
    assert sorted(firsts) == [1, _BLOCK, _BLOCK]
    assert 2.7 < res.value < 2.95


def test_estimate_joint_reproducible_across_workers():
    m = GisinSingletModel()
    kwargs = dict(n=600_000, seed=SeedSpec(9))
    t1 = estimate_joint(m, AB, SINGLET, A_X, B_09, workers=1, **kwargs)
    t4 = estimate_joint(m, AB, SINGLET, A_X, B_09, workers=4, **kwargs)
    assert np.array_equal(t1.counts, t4.counts)
    t1b = estimate_joint(m, AB, SINGLET, A_X, B_09, workers=1, **kwargs)
    assert np.array_equal(t1.counts, t1b.counts)


def test_exact_joint_reproducible_across_workers():
    m = GisinSingletModel()
    t1 = exact_joint(m, AB, SINGLET, A_X, B_09, grid=3000, workers=1)
    t4 = exact_joint(m, AB, SINGLET, A_X, B_09, grid=3000, workers=4)
    assert np.array_equal(t1.counts, t4.counts)


def _meshgrid_lattice(d, grid):
    """The midpoint lattice of [0,1]^d built in one piece, as a reference."""
    if d == 0:
        return np.zeros((1, 0))
    mids = (np.arange(grid) + 0.5) / grid
    mesh = np.meshgrid(*[mids] * d, indexing="ij")
    return np.stack([ax.ravel() for ax in mesh], axis=-1)


@pytest.mark.parametrize("d,grid", [(0, 5), (1, 7), (2, 1001), (3, 70)])
def test_lattice_blocks_split_by_point_count(d, grid):
    n = grid ** d
    lattice = _meshgrid_lattice(d, grid)
    # split by the engine's blocks, then with a first block of half a row, so
    # every later block starts mid-row
    for first in (_BLOCK, min(n, grid // 2 + 1)):
        bounds = [0, *range(first, n, _BLOCK), n]
        blocks = [_lattice_block(d, grid, start, stop - start)
                  for start, stop in zip(bounds, bounds[1:])]
        assert all(not blk.flags.writeable and blk.flags.f_contiguous for blk in blocks)
        assert np.array_equal(np.concatenate(blocks), lattice)
    for start, rows in ((grid // 2, 1), (grid // 2, grid), (n - grid - 1, grid + 1)):
        if 0 <= start and rows <= n - start:
            assert np.array_equal(_lattice_block(d, grid, start, rows),
                                  lattice[start:start + rows])


def test_lattice_block_deep_in_a_huge_lattice():
    grid = 2_000_000  # grid^3 = 8e18 < 2^63; a run of the first axis is 4e12 rows
    start = grid ** 3 - grid - 3
    rows = np.arange(start, start + 5)
    digits = np.stack([rows // grid ** 2, rows // grid % grid, rows % grid], axis=-1)
    assert np.array_equal(_lattice_block(3, grid, start, 5), (digits + 0.5) / grid)


THREE_PAIRS = [(A_X, B_09), (A_X, B_PERP), (B_09, A_X)]


def _blocks(n):
    """The engine's (start, rows) blocks of n points."""
    return [(start, min(_BLOCK, n - start)) for start in range(0, n, _BLOCK)]


def test_multi_pair_exact_call_makes_each_lattice_block_once(monkeypatch):
    made = []

    def record(d, grid, start, rows):
        made.append((start, rows))
        return _lattice_block(d, grid, start, rows)

    monkeypatch.setattr(stats, "_lattice_block", record)
    exact_tables(EngineSphere(), AB, SINGLET, THREE_PAIRS, 600, workers=2)
    assert sorted(made) == _blocks(600 ** 2)


def test_engine_runs_at_most_one_pool_task_per_worker(monkeypatch):
    submitted, made = [], []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            submitted.append(args)
            return super().submit(fn, *args, **kwargs)

    def record(d, grid, start, rows):
        made.append((start, rows))
        return _lattice_block(d, grid, start, rows)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(stats, "_lattice_block", record)
    monkeypatch.setattr(stats, "_BLOCK", 64)  # a 20 x 20 lattice is 7 blocks
    m = EngineSphere()  # a model without a lattice_counts hook: exact tables use the engine
    serial = exact_tables(m, AB, SINGLET, THREE_PAIRS, 20, workers=1)
    assert submitted == []
    # tasks are capped by workers, then blocks, then CPUs
    for cpus, workers, tasks in ((16, 2, 2), (16, 3, 3), (16, 10, 7), (3, 10, 3)):
        monkeypatch.setattr(stats.os, "cpu_count", lambda: cpus)
        submitted.clear()
        made.clear()
        tables = exact_tables(m, AB, SINGLET, THREE_PAIRS, 20, workers)
        assert len(submitted) == tasks
        assert sorted(made) == [(start, min(64, 400 - start)) for start in range(0, 400, 64)]
        assert np.array_equal(tables.counts, serial.counts)
    submitted.clear()
    mc = [estimate_joint(m, BA, SINGLET, A_X, B_09, 1000, SeedSpec(4), workers) for workers in (1, 3)]
    assert len(submitted) == 3 and np.array_equal(mc[0].counts, mc[1].counts)


def test_sphere_directions_once_per_lattice_block(direction_computations):
    # more workers than cores, switching threads often: each pool task binds its own block
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        tables = exact_tables(EngineSphere(), AB, SINGLET, THREE_PAIRS, 1200, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert len(direction_computations) == len(_blocks(1200 ** 2))  # once per block, for all three pairs
    serial = exact_tables(EngineSphere(), AB, SINGLET, THREE_PAIRS, 1200, workers=1)
    assert np.array_equal(tables.counts, serial.counts)


def test_sphere_directions_once_per_sample_block(direction_computations):
    estimate_joint(LocalSphereModel(), BA, SINGLET, A_X, B_09, 2 * _BLOCK + 5, SeedSpec(6),
                   workers=2)
    assert sorted(direction_computations) == [5, _BLOCK, _BLOCK]


@settings(max_examples=20, deadline=None)
@given(d=st.integers(0, 5), n=st.integers(1, 3 * _BLOCK + 7), seed=st.integers(0, 2 ** 64 - 1))
def test_sample_blocks_join_to_sample_lambda(d, n, seed):
    spec = SeedSpec(seed)
    pieces = [_sample_block(d, spec, start, min(_BLOCK, n - start))
              for start in range(0, n, _BLOCK)]
    one_shot = _sample_block(d, spec, 0, n)
    assert all(blk.flags.f_contiguous for blk in (*pieces, one_shot))
    assert np.array_equal(np.concatenate(pieces), one_shot)
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    assert np.array_equal(one_shot, np.random.Generator(bitgen).random((n, d)))
    assert np.array_equal(sample_lambda(d, n, spec), one_shot)


@pytest.mark.parametrize("d", range(1, 6))
@pytest.mark.parametrize("seed", [0, 31, 2 ** 63, 2 ** 64 - 1])
def test_sample_block_is_philox_raw_words(d, seed):
    """Every Monte Carlo byte rests on Generator.random over Philox, keyed on (seed,
    0), being its raw words' top 53 bits times 2^-53. numpy keeps bit-generator streams
    stable, but may change Generator methods, so this names the cause if bytes move."""
    for start in (0, 4, 8 * _CHUNK):
        for rows in (1, _CHUNK + 1, 2 * _CHUNK + 3):
            bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
            bitgen.advance(start * d // 4)  # 4 words per counter step
            raw = bitgen.random_raw(rows * d)
            expected = ((raw >> 11) * 2.0 ** -53).reshape(rows, d)
            assert np.array_equal(_sample_block(d, SeedSpec(seed), start, rows), expected)


def test_sample_block_fill_holds_about_one_block():
    """The column-major block is filled from small row-major draws; converting
    one whole row-major draw would hold two blocks at once."""
    tracemalloc.start()
    try:
        blk = _sample_block(2, SeedSpec(3), 0, _BLOCK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * blk.nbytes


def test_seed_spec_takes_64_bit_seeds():
    # the seed is the Philox key's first word; its second is 0
    assert _sample_block(1, SeedSpec(2 ** 64 - 1), 0, 4).shape == (4, 1)
    for seed in (2 ** 64, -1):
        with pytest.raises(ValueError, match="64 unsigned bits"):
            SeedSpec(seed)


def test_sample_block_must_start_on_a_counter_step():
    with pytest.raises(ValueError, match="counter step"):
        _sample_block(3, SeedSpec(1), 5, 10)



@settings(max_examples=15, deadline=None)
@given(model=st.sampled_from(sorted(MODEL_REGISTRY)), ordering=st.sampled_from([AB, BA]),
       pairs=st.lists(st.tuples(st.sampled_from(_SETTINGS), st.sampled_from(_SETTINGS)),
                      min_size=2, max_size=5),
       grid=st.integers(2, 700), workers=st.integers(1, 3))
def test_multi_pair_exact_tables_each_sum_to_the_lattice(model, ordering, pairs, grid, workers):
    m = make_model(model)
    tables = exact_tables(m, ordering, SINGLET, pairs, grid, workers)
    assert tables.counts.shape == (len(pairs), 2, 2)
    assert tables.counts.sum(axis=(1, 2)).tolist() == [grid ** m.lambda_dim] * len(pairs)
    for (a, b), counts in zip(pairs, tables.counts):
        assert np.array_equal(counts, exact_joint(m, ordering, SINGLET, a, b, grid).counts)


@pytest.mark.parametrize("run", [
    lambda m: estimate_joint(m, AB, SINGLET, A_X, B_09, 4_000_000, SeedSpec(3), workers=2),
    # the engine itself: gisin-singlet's exact tables no longer reach it, and local-sphere's
    # direction arrays would take 40 MiB
    lambda m: stats._count_blocks(m.count_pairs(AB, SINGLET, [(A_X, B_09)]), 2000 ** 2,
                                  lambda start, rows: _lattice_block(2, 2000, start, rows), 2),
], ids=["estimate_joint", "exact_joint"])
def test_table_memory_is_bounded_by_blocks_not_points(run):
    """4e6 two-dimensional points take 61 MiB; two live blocks take a few."""
    m = GisinSingletModel()
    tracemalloc.start()
    try:
        run(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    assert peak < 8 * 2 ** 20  # two live blocks of 2^17 rows; blocks of 2^18 peak at 9-12 MiB


def test_exact_tables_of_a_hook_model_make_no_lattice_block(monkeypatch):
    made = []

    def record(d, grid, start, rows):
        made.append((start, rows))
        return _lattice_block(d, grid, start, rows)

    monkeypatch.setattr(stats, "_lattice_block", record)
    for name in ("gisin-singlet", "determinized-singlet", "local-sphere"):
        exact_tables(make_model(name), BA, SINGLET, THREE_PAIRS, 600, workers=2)
    assert made == []
    exact_tables(EngineSphere(), BA, SINGLET, THREE_PAIRS, 600, workers=2)
    assert sorted(made) == _blocks(600 ** 2)
    assert EngineSphere().lattice_counts(AB, SINGLET, THREE_PAIRS, 600) is None


def test_engine_cost_cap_rejects_before_any_block(monkeypatch):
    """Only sizes are checked: the engine is replaced, so nothing is allocated."""
    engine_jobs, pairs = [], [(A_X, B_09)] * 10

    def engine(count, n, make_block, workers):
        engine_jobs.append(n * len(pairs))  # pairs: those the test is passing now
        return np.zeros((len(pairs), 2, 2), dtype=np.int64)

    def no_block(*args):
        raise AssertionError("a lattice block was made")

    monkeypatch.setattr(stats, "_count_blocks", engine)
    monkeypatch.setattr(stats, "_lattice_block", no_block)
    sphere, side = EngineSphere(), math.isqrt(models._ENGINE_CAP // 10)
    assert side ** 2 * 10 == models._ENGINE_CAP
    exact_tables(sphere, AB, SINGLET, pairs, side)
    assert engine_jobs == [models._ENGINE_CAP]
    deep = determinize(StochasticResponse(1, stochastic_singlet().p_first,
                                          stochastic_singlet().p_second))  # lambda_dim 3
    for m, pairs, grid in ((sphere, [(A_X, B_09)] * 11, side), (sphere, [(A_X, B_09)], 10 ** 6),
                           (deep, [(A_X, B_09)], 5000)):
        with pytest.raises(ValueError, match="cap"):
            exact_tables(m, AB, SINGLET, pairs, grid)
    assert engine_jobs == [models._ENGINE_CAP]


def test_local_sphere_hook_is_capped_before_any_allocation(monkeypatch):
    """local-sphere's hook scores every cell, so the engine's cap binds it too."""
    def no_midpoints(grid):
        raise AssertionError("the hook allocated its midpoints")

    monkeypatch.setattr(models, "lattice_midpoints", no_midpoints)  # the hook's first buffer
    sphere, side = LocalSphereModel(), math.isqrt(models._ENGINE_CAP // 10)
    with pytest.raises(AssertionError, match="midpoints"):  # exactly the cap passes
        exact_tables(sphere, AB, SINGLET, [(A_X, B_09)] * 10, side)
    for pairs, grid in (([(A_X, B_09)] * 11, side), ([(A_X, B_09)], 10 ** 6)):
        with pytest.raises(ValueError, match="cap"):
            exact_tables(sphere, AB, SINGLET, pairs, grid)


def test_hook_models_are_not_capped():
    pairs = chsh_pairs(tsirelson_settings()) * 7  # 28 pairs of a 10^12-point lattice
    for name in ("gisin-singlet", "determinized-singlet"):
        tables = exact_tables(make_model(name), AB, SINGLET, pairs, 10 ** 6)
        assert tables.counts.sum(axis=(1, 2)).tolist() == [10 ** 12] * len(pairs)


def test_determinized_tables_allocate_no_grid_long_array():
    """N(t) comes from a closed form, not from a search of the midpoints: 3e9 of them
    would take 24 GB."""
    grid, pairs = 3 * 10 ** 9, [(a, b) for a in setting_grid(3) for b in setting_grid(3)]
    tracemalloc.start()
    try:
        tables = exact_tables(determinize(stochastic_singlet()), AB, SINGLET, pairs, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert tables.counts.sum(axis=(1, 2)).tolist() == [grid * grid] * len(pairs)
    assert (tables.counts[:, 0].sum(axis=1) == grid * grid // 2).all()  # p_first = 1/2


def _n_at_or_below(grid, t) -> int:
    """N(t): lattice midpoints (k + 1/2)/grid on one axis that are <= t."""
    return int(((np.arange(grid) + 0.5) / grid <= t).sum())


@pytest.mark.parametrize("grid", [2, 3, 517, 1001])
@pytest.mark.parametrize("make", [GisinSingletModel, lambda: determinize(stochastic_singlet())],
                         ids=["gisin-singlet", "determinized-singlet"])
def test_exact_joint_threshold_models_match_integer_oracle(make, grid):
    """The first outcome is +1 iff its own coordinate is <= 1/2 and the second
    is +1 iff the other coordinate is <= (1 - first * a.b)/2, so every lattice
    count is a product of N(t) values."""
    m = make()
    a, _, b, _ = tsirelson_settings()
    for sa, sb in ((A_X, A_X), (A_X, B_PERP), (A_X, B_09), (a, b)):
        c = dot(sa, sb)
        half, lo, hi = (_n_at_or_below(grid, t) for t in (0.5, (1.0 - c) / 2.0, (1.0 + c) / 2.0))
        first_second = np.array([[half * lo, half * (grid - lo)],
                                 [(grid - half) * hi, (grid - half) * (grid - hi)]])
        for ordering, expected in ((AB, first_second), (BA, first_second.T)):
            for workers in (1, 2, 3):
                table = exact_joint(m, ordering, SINGLET, sa, sb, grid, workers=workers)
                assert table.counts.dtype.kind == "i"
                assert np.array_equal(table.counts, expected)


@pytest.mark.parametrize("grid", [2, 3, 7, 20])
def test_exact_tables_of_a_rule_that_reads_its_base_coordinate(grid):
    """A rule with base coordinate t, p_first = t and p_second = (1 - first * a.b)/2
    has no lattice hook, so the block engine scores its grid^3 lattice. The first
    outcome is +1 on the P = g(g+1)/2 of the g^2 (t, u) cells with u <= t and -1 on
    the other M = g(g-1)/2; the second is +1 iff its own coordinate is <= the level."""
    m = determinize(StochasticResponse(
        1, lambda o, s, sf, lams: lams[:, 0],
        lambda o, s, a, b, f, lams: (1.0 - f * dot(a, b)) / 2.0, "base-threshold"))
    a, _, b, _ = tsirelson_settings()
    pairs = [(A_X, A_X), (A_X, B_PERP), (A_X, B_09), (a, b)]
    assert m.lattice_counts(AB, SINGLET, pairs, grid) is None
    plus, minus = grid * (grid + 1) // 2, grid * (grid - 1) // 2
    expected = []
    for sa, sb in pairs:
        c = dot(sa, sb)
        lo, hi = _n_at_or_below(grid, (1.0 - c) / 2.0), _n_at_or_below(grid, (1.0 + c) / 2.0)
        expected.append([[plus * lo, plus * (grid - lo)], [minus * hi, minus * (grid - hi)]])
    expected = np.array(expected)
    for ordering, want in ((AB, expected), (BA, expected.swapaxes(1, 2))):
        for workers in (1, 2):
            tables = exact_tables(m, ordering, SINGLET, pairs, grid, workers)
            assert np.array_equal(tables.counts, want)


@pytest.mark.parametrize("ordering", [AB, BA])
def test_exact_joint_sphere_matches_one_meshgrid_lattice(ordering):
    m = LocalSphereModel()
    a, z, b, _ = tsirelson_settings()
    minus_z = MeasurementSetting(0, 0, -1)
    pairs = [(a, b), (A_X, B_09), (A_X, A_X), (z, z), (z, minus_z), (minus_z, A_X), (a, z)]
    for grid in (7, 1001):
        lams = _meshgrid_lattice(2, grid)
        # on an odd grid the midpoints with u = 1/2 have cos(theta) = 0 exactly: they
        # lie on the measurement plane of +z and -z, where sign(0) counts as +1
        assert np.any(lams[:, 0] == 0.5)
        expected = []
        for sa, sb in pairs:
            alphas, betas = eval_pairs(m, ordering, SINGLET, sa, sb, lams)
            expected.append([[np.sum((alphas == x) & (betas == y)) for y in (1, -1)]
                             for x in (1, -1)])
        for workers in (1, 2, 3):
            tables = exact_tables(m, ordering, SINGLET, pairs, grid, workers)
            assert np.array_equal(tables.counts, expected)
        for (sa, sb), counts in zip(pairs[:3], expected):
            assert np.array_equal(exact_joint(m, ordering, SINGLET, sa, sb, grid).counts, counts)


def test_records_csv_layout():
    m = GisinSingletModel()
    table = estimate_joint(m, AB, SINGLET, A_X, B_09, 10_000, SeedSpec(10))
    rec = joint_record(AB, A_X, B_09, table, 10_000, 10)
    text = records_to_csv({col: [cell] for col, cell in zip(CSV_COLUMNS, rec)}, {"seed": 10})
    lines = text.splitlines()
    assert lines[0].startswith("# config = ")
    assert lines[1] == ("ordering,ax,ay,az,bx,by,bz,ppp,ppm,pmp,pmm,"
                        "E,stderr,n_or_grid,seed")
    assert lines[2].startswith("AB,1,0,0,")


def test_records_csv_columns_and_notes():
    cols = {"id": [3, 4], "flag": [True, False], "x": [0.1, -2.5e-7]}
    text = records_to_csv(cols, {"b": 1, "a": 2}, notes=["spacelike = True"])
    assert text == ('# config = {"a": 2, "b": 1}\n# spacelike = True\nid,flag,x\n'
                    "3,1,0.10000000000000001\n4,0,-2.4999999999999999e-07\n")


def test_numpy_scalars_format_as_their_python_counterparts():
    for value, python in [(np.True_, True), (np.False_, False), (np.float32(0.1), 0.1),
                          (np.float16(-0.0), -0.0), (np.float64(np.nan), math.nan),
                          (np.int8(-7), -7), (np.uint64(2 ** 64 - 1), 2 ** 64 - 1)]:
        assert _fmt(value) == fmt_cell(value)
        assert _fmt(value) == _fmt(type(python)(value))
    assert _fmt(np.True_) == "1" and _fmt(np.float32(0.1)) == "0.10000000149011612"


# The cells of one column, by kind. The writer picks one printf conversion per
# column: %d for ints and bools, %.17g for Python floats, and %s for anything
# else, through _fmt and csv's quoting. A kind "x+y" is a column of x with one
# cell of y, which must move the column off x's conversion. Text holds printf
# directives and csv's specials, as cells and as column names.
_CSV_CELLS = {
    "int": st.integers(-2 ** 70, 2 ** 70),
    "bool": st.booleans(),
    "float": st.one_of(st.floats(), st.sampled_from([-0.0, math.nan, math.inf, -math.inf,
                                                     5e-324, 2.2250738585072014e-308 / 3])),
    "numpy": st.one_of(st.booleans().map(np.bool_),
                       st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
                       st.floats(width=32).map(np.float32), st.floats().map(np.float64)),
    "str": st.one_of(st.text(st.sampled_from('ab,"\' 1.-e\n\r%d')),
                     st.sampled_from(["%d", "%s", "%.17g", "%%", "%(k)s", "100%"])),
}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_column_wise_csv_matches_the_per_cell_oracle(data):
    n = data.draw(st.integers(0, 6), label="rows")
    mixes = ["int+bool", "int+str", "bool+float", "float+int", "float+numpy", "str+float"]
    kinds = data.draw(st.lists(st.sampled_from([*_CSV_CELLS, *mixes, "mixed"]),
                               min_size=1, max_size=5), label="column kinds")
    cols = []
    for kind in kinds:
        base, *extra = kind.split("+")
        kind_cells = _CSV_CELLS.values() if kind == "mixed" else [_CSV_CELLS[base]]
        col = data.draw(st.lists(st.one_of(*kind_cells), min_size=n, max_size=n), label=kind)
        if extra and n:
            col[data.draw(st.integers(0, n - 1), label="odd row")] = data.draw(
                _CSV_CELLS[extra[0]], label="odd cell")
        cols.append(col)
    columns = data.draw(st.lists(st.text(st.sampled_from('c%d,"s '), max_size=4), unique=True,
                                 min_size=len(cols), max_size=len(cols)), label="names")
    records = [dict(zip(columns, row)) for row in zip(*cols)]
    notes = data.draw(st.lists(st.text(st.sampled_from("ab =,"), max_size=5), max_size=2))
    assert (records_to_csv(dict(zip(columns, cols)), {"k": 1}, notes)
            == per_cell_csv(records, {"k": 1}, columns, notes))
