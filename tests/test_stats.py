import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covbell import stats
from covbell.core import (MeasurementSetting, Outcome, QuantumState,
                          TimeOrdering, dot, setting_grid, tsirelson_settings)
from covbell.models import (MODEL_REGISTRY, StochasticResponse, determinize, eval_pairs,
                            make_gisin_singlet, make_local_sphere, make_model,
                            stochastic_singlet)
from covbell.stats import (_BLOCK, JointStats, SeedSpec, _lattice_block, _sample_block, chsh,
                           chsh_pairs, correlator, estimate_joint, exact_joint, exact_tables,
                           joint_record, records_to_csv, sample_lambda, sample_tables)
from oracles import singlet_joint_oracle, singlet_oracle_table

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
    a = sample_lambda(2, 1000, SeedSpec(123, 4))
    b = sample_lambda(2, 1000, SeedSpec(123, 4))
    assert np.array_equal(a, b)
    c = sample_lambda(2, 1000, SeedSpec(123, 5))
    assert not np.array_equal(a, c)


def test_sample_lambda_mean():
    lams = sample_lambda(2, 100_000, SeedSpec(2))
    assert np.allclose(lams.mean(axis=0), 0.5, atol=0.005)


def test_estimate_joint_orthogonal_settings_uniform_cells():
    m = make_gisin_singlet()
    table = estimate_joint(m, AB, SINGLET, A_X, B_PERP, 1_000_000, SeedSpec(3))
    assert np.allclose(table.probs, 0.25, atol=0.002)
    assert table.counts.sum() == table.n
    assert table.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_estimate_joint_frames_agree_statistically():
    m = make_gisin_singlet()
    t_ab = estimate_joint(m, AB, SINGLET, A_X, B_PERP, 1_000_000, SeedSpec(3))
    t_ba = estimate_joint(m, BA, SINGLET, A_X, B_PERP, 1_000_000, SeedSpec(4))
    assert np.allclose(t_ab.probs, t_ba.probs, atol=0.002)


def test_estimate_joint_sphere_equal_settings_anticorrelated():
    m = make_local_sphere()
    table = estimate_joint(m, AB, SINGLET, A_X, A_X, 100_000, SeedSpec(5))
    p_equal = table.probs[0, 0] + table.probs[1, 1]
    assert p_equal <= 0.001


def test_exact_joint_gisin_cell_value():
    m = make_gisin_singlet()
    table = exact_joint(m, AB, SINGLET, A_X, B_09, grid=2000)
    assert table.prob(Outcome.PLUS, Outcome.PLUS) == pytest.approx(0.025, abs=5e-4)
    assert table.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_exact_joint_role_swap_symmetry():
    # gisin's BA frame is its AB frame with the parties and the two coordinates
    # swapped, and the lattice is symmetric under that swap, so every BA count
    # is the AB count with alpha and beta swapped
    m = make_gisin_singlet()
    pairs = [(a, b) for a in setting_grid(4) for b in setting_grid(4)]
    for grid in (7, 1001):
        ab, ba = (np.array([t.counts for t in exact_tables(m, ordering, SINGLET, pairs, grid)])
                  for ordering in (AB, BA))
        assert np.array_equal(ba, ab.transpose(0, 2, 1))


def test_exact_joint_matches_oracle_within_grid_error():
    m = make_gisin_singlet()
    grid = 400
    g = setting_grid(4)
    for a in g:
        for b in g:
            table = exact_joint(m, AB, SINGLET, a, b, grid=grid)
            oracle = singlet_oracle_table(a, b)
            assert np.max(np.abs(table.probs - oracle.probs)) <= 1.0 / grid


def test_exact_joint_high_dimension_rejected():
    sr = StochasticResponse(
        lambda_dim=2,
        p_first=lambda o, s, sf, lams: np.full(lams.shape[0], 0.5),
        p_second=lambda o, s, a, b, f, lams: np.full(lams.shape[0], 0.5),
    )
    m = determinize(sr)  # lambda_dim = 4
    with pytest.raises(ValueError, match="Monte Carlo"):
        exact_joint(m, AB, SINGLET, A_X, B_09, grid=10)


def test_exact_joint_small_grid_rejected():
    with pytest.raises(ValueError, match="grid"):
        exact_joint(make_gisin_singlet(), AB, SINGLET, A_X, B_09, grid=1)


def test_exact_joint_rejects_a_lattice_beyond_int64_indices():
    # grids past int64 itself: without the check the first block fails at once
    for grid in (10 ** 22, 2 ** 63):
        with pytest.raises(ValueError, match="64-bit"):
            exact_joint(make_gisin_singlet(), AB, SINGLET, A_X, B_09, grid=grid)


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
    m = make_gisin_singlet()
    table = estimate_joint(m, AB, SINGLET, A_X, B_09, 1_000_000, SeedSpec(6))
    assert correlator(table).value == pytest.approx(-0.9, abs=0.005)


def test_correlator_rejects_empty():
    empty = JointStats(counts=np.zeros((2, 2), dtype=np.int64), n=0,
                       probs=np.zeros((2, 2)), stderr=np.zeros((2, 2)), exact=False)
    with pytest.raises(ValueError):
        correlator(empty)


def test_mc_converges_to_exact_within_four_sigma():
    m = make_gisin_singlet()
    mc = estimate_joint(m, AB, SINGLET, A_X, B_09, 1_000_000, SeedSpec(7))
    ex = exact_joint(m, AB, SINGLET, A_X, B_09, grid=2000)
    sigma = np.maximum(mc.stderr, 1e-12)
    assert np.all(np.abs(mc.probs - ex.probs) <= 4.0 * sigma + 1.0 / 2000)


def test_chsh_exact_tsirelson():
    tables = exact_tables(make_gisin_singlet(), AB, SINGLET, chsh_pairs(tsirelson_settings()), 2000)
    res = chsh(tables)
    assert res.value == pytest.approx(2.0 * math.sqrt(2.0), abs=2e-3)


def test_chsh_sphere_respects_bell_bound():
    tables = sample_tables(make_local_sphere(), AB, SINGLET, chsh_pairs(tsirelson_settings()),
                           1_000_000, SeedSpec(8))
    assert abs(chsh(tables).value) <= 2.0 + 0.01


def test_chsh_degenerate_quadruple_identity():
    a, ap, b, _ = tsirelson_settings()
    res = chsh(exact_tables(make_gisin_singlet(), AB, SINGLET, chsh_pairs((a, ap, b, b)), 500))
    e_ab = correlator(exact_joint(make_gisin_singlet(), AB, SINGLET, a, b, grid=500))
    assert res.value == 2.0 * e_ab.value


@pytest.mark.parametrize("grid", [7, 500])
def test_chsh_sums_the_exact_terms_discretization_bounds(grid):
    # each term's correlator bound is its four cells' 1/grid
    tables = exact_tables(make_gisin_singlet(), BA, SINGLET, chsh_pairs(tsirelson_settings()),
                          grid)
    res = chsh(tables)
    assert res.stderr == pytest.approx(16.0 / grid, rel=1e-12)
    assert [t.stderr for t in res.terms] == [pytest.approx(4.0 / grid, rel=1e-12)] * 4


def test_chsh_adds_independent_monte_carlo_errors_in_quadrature():
    n = 10_000
    tables = sample_tables(make_gisin_singlet(), AB, SINGLET, chsh_pairs(tsirelson_settings()),
                           n, SeedSpec(5, 3))
    res = chsh(tables)
    term_errs = [math.sqrt(1.0 - correlator(t).value ** 2) / math.sqrt(n) for t in tables]
    assert [t.stderr for t in res.terms] == pytest.approx(term_errs, rel=1e-12)
    assert res.stderr == pytest.approx(math.sqrt(sum(e * e for e in term_errs)), rel=1e-12)
    assert res.stderr < sum(term_errs)
    # pair i draws from stream seed.stream + i
    for i, (a, b) in enumerate(chsh_pairs(tsirelson_settings())):
        alone = estimate_joint(make_gisin_singlet(), AB, SINGLET, a, b, n, SeedSpec(5, 3 + i))
        assert np.array_equal(tables[i].counts, alone.counts)


def test_estimate_joint_reproducible_across_workers():
    m = make_gisin_singlet()
    kwargs = dict(n=600_000, seed=SeedSpec(9))
    t1 = estimate_joint(m, AB, SINGLET, A_X, B_09, workers=1, **kwargs)
    t4 = estimate_joint(m, AB, SINGLET, A_X, B_09, workers=4, **kwargs)
    assert np.array_equal(t1.counts, t4.counts)
    t1b = estimate_joint(m, AB, SINGLET, A_X, B_09, workers=1, **kwargs)
    assert np.array_equal(t1.counts, t1b.counts)


def test_exact_joint_reproducible_across_workers():
    m = make_gisin_singlet()
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


def test_multi_pair_exact_call_makes_each_lattice_block_once(monkeypatch):
    made = []

    def record(d, grid, start, rows):
        made.append((start, rows))
        return _lattice_block(d, grid, start, rows)

    monkeypatch.setattr(stats, "_lattice_block", record)
    exact_tables(make_gisin_singlet(), AB, SINGLET, THREE_PAIRS, 600, workers=2)
    assert sorted(made) == [(0, _BLOCK), (_BLOCK, 600 ** 2 - _BLOCK)]


def test_engine_runs_at_most_one_pool_task_per_worker(monkeypatch):
    submitted, made = [], []

    class RecordingPool(stats.ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            submitted.append(args)
            return super().submit(fn, *args, **kwargs)

    def record(d, grid, start, rows):
        made.append((start, rows))
        return _lattice_block(d, grid, start, rows)

    monkeypatch.setattr(stats, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(stats, "_lattice_block", record)
    monkeypatch.setattr(stats, "_BLOCK", 64)  # a 20 x 20 lattice is 7 blocks
    m = make_gisin_singlet()
    serial = exact_tables(m, AB, SINGLET, THREE_PAIRS, 20, workers=1)
    assert submitted == []
    for workers, tasks in ((2, 2), (3, 3), (10, 7)):
        submitted.clear()
        made.clear()
        tables = exact_tables(m, AB, SINGLET, THREE_PAIRS, 20, workers)
        assert len(submitted) == tasks
        assert sorted(made) == [(start, min(64, 400 - start)) for start in range(0, 400, 64)]
        assert all(np.array_equal(t.counts, s.counts) for t, s in zip(tables, serial))
    submitted.clear()
    mc = [estimate_joint(m, BA, SINGLET, A_X, B_09, 1000, SeedSpec(4), workers) for workers in (1, 3)]
    assert len(submitted) == 3 and np.array_equal(mc[0].counts, mc[1].counts)


def test_sphere_directions_once_per_lattice_block(direction_computations):
    # more workers than cores, switching threads often: each pool task binds its own block
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        tables = exact_tables(make_local_sphere(), AB, SINGLET, THREE_PAIRS, 1200, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert len(direction_computations) == 6  # once per block, for all three pairs
    serial = exact_tables(make_local_sphere(), AB, SINGLET, THREE_PAIRS, 1200, workers=1)
    assert all(np.array_equal(t.counts, s.counts) for t, s in zip(tables, serial))


def test_sphere_directions_once_per_sample_block(direction_computations):
    estimate_joint(make_local_sphere(), BA, SINGLET, A_X, B_09, 2 * _BLOCK + 5, SeedSpec(6),
                   workers=2)
    assert sorted(direction_computations) == [5, _BLOCK, _BLOCK]


@settings(max_examples=20, deadline=None)
@given(d=st.integers(0, 5), n=st.integers(1, 3 * _BLOCK + 7),
       seed=st.integers(0, 2 ** 64 - 1), stream=st.integers(0, 2 ** 64 - 1))
def test_sample_blocks_join_to_sample_lambda(d, n, seed, stream):
    spec = SeedSpec(seed, stream)
    pieces = [_sample_block(d, spec, start, min(_BLOCK, n - start))
              for start in range(0, n, _BLOCK)]
    one_shot = sample_lambda(d, n, spec)
    assert all(blk.flags.f_contiguous for blk in (*pieces, one_shot))
    assert np.array_equal(np.concatenate(pieces), one_shot)
    bitgen = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    assert np.array_equal(one_shot, np.random.Generator(bitgen).random((n, d)))


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


def test_seed_spec_takes_64_bit_seeds_and_streams():
    SeedSpec(2 ** 64 - 1, 2 ** 64 - 1)
    for seed, stream in [(2 ** 64, 0), (-1, 0), (0, 2 ** 64), (0, -1)]:
        with pytest.raises(ValueError, match="64 unsigned bits"):
            SeedSpec(seed, stream)


def test_sample_block_must_start_on_a_counter_step():
    with pytest.raises(ValueError, match="counter step"):
        _sample_block(3, SeedSpec(1), 5, 10)


_SETTINGS = [*setting_grid(3), *tsirelson_settings()]


@settings(max_examples=15, deadline=None)
@given(model=st.sampled_from(sorted(MODEL_REGISTRY)), ordering=st.sampled_from([AB, BA]),
       pairs=st.lists(st.tuples(st.sampled_from(_SETTINGS), st.sampled_from(_SETTINGS)),
                      min_size=2, max_size=5),
       grid=st.integers(2, 700), workers=st.integers(1, 3))
def test_multi_pair_exact_tables_each_sum_to_the_lattice(model, ordering, pairs, grid, workers):
    m = make_model(model)
    tables = exact_tables(m, ordering, SINGLET, pairs, grid, workers)
    assert [table.counts.sum() for table in tables] == [grid ** m.lambda_dim] * len(pairs)
    for (a, b), table in zip(pairs, tables):
        assert np.array_equal(table.counts, exact_joint(m, ordering, SINGLET, a, b, grid).counts)


@pytest.mark.parametrize("run", [
    lambda m: estimate_joint(m, AB, SINGLET, A_X, B_09, 4_000_000, SeedSpec(3), workers=2),
    lambda m: exact_joint(m, AB, SINGLET, A_X, B_09, grid=2000, workers=2),
], ids=["estimate_joint", "exact_joint"])
def test_table_memory_is_bounded_by_blocks_not_points(run):
    """4e6 two-dimensional points take 61 MiB; two live blocks take a few."""
    m = make_gisin_singlet()
    tracemalloc.start()
    try:
        run(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def _n_at_or_below(grid, t) -> int:
    """N(t): lattice midpoints (k + 1/2)/grid on one axis that are <= t."""
    return int(((np.arange(grid) + 0.5) / grid <= t).sum())


@pytest.mark.parametrize("grid", [2, 3, 517, 1001])
@pytest.mark.parametrize("make", [make_gisin_singlet, lambda: determinize(stochastic_singlet())],
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


@pytest.mark.parametrize("ordering", [AB, BA])
def test_exact_joint_sphere_matches_one_meshgrid_lattice(ordering):
    m = make_local_sphere()
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
            assert np.array_equal([t.counts for t in tables], expected)
        for (sa, sb), counts in zip(pairs[:3], expected):
            assert np.array_equal(exact_joint(m, ordering, SINGLET, sa, sb, grid).counts, counts)


def test_records_csv_layout():
    m = make_gisin_singlet()
    table = estimate_joint(m, AB, SINGLET, A_X, B_09, 10_000, SeedSpec(10))
    rec = joint_record(AB, A_X, B_09, table, 10_000, 10)
    text = records_to_csv([rec], {"seed": 10})
    lines = text.splitlines()
    assert lines[0].startswith("# config = ")
    assert lines[1] == ("ordering,ax,ay,az,bx,by,bz,ppp,ppm,pmp,pmm,"
                        "E,stderr,n_or_grid,seed")
    assert lines[2].startswith("AB,1,0,0,")


def test_records_csv_columns_and_notes():
    recs = [{"id": 3, "flag": True, "x": 0.1}, {"id": 4, "flag": False, "x": -2.5e-7}]
    text = records_to_csv(recs, {"b": 1, "a": 2}, columns=("id", "flag", "x"),
                          notes=["spacelike = True"])
    assert text == ('# config = {"a": 2, "b": 1}\n# spacelike = True\nid,flag,x\n'
                    "3,1,0.10000000000000001\n4,0,-2.4999999999999999e-07\n")
