import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covbell import models
from covbell.core import (MeasurementSetting, Outcome, QuantumState,
                          TimeOrdering, dot, setting_grid, tsirelson_settings)
from covbell.covariance import reduce_to_local
from covbell.models import (MODEL_REGISTRY, GisinSingletModel, LocalSphereModel, OrderedModel,
                            StochasticResponse, _pm, determinize, eval_pairs, make_model,
                            stochastic_singlet)
from covbell.stats import (SeedSpec, _count_blocks, _lattice_block, correlator, estimate_joint,
                           exact_joint, sample_lambda)
from property_inputs import SETTING, draw_hidden_points

AB, BA = TimeOrdering.AB, TimeOrdering.BA
SINGLET = QuantumState.SINGLET

A_X = MeasurementSetting(1, 0, 0)
B_09 = MeasurementSetting(0.9, math.sqrt(1 - 0.81), 0)  # a.b = 0.9


def test_gisin_eval_ab_examples():
    m = GisinSingletModel()
    lams = np.array([[0.3, 0.6], [0.7, 0.9]])
    alphas, betas = eval_pairs(m, AB, SINGLET, A_X, B_09, lams)
    assert alphas.dtype == betas.dtype == np.int8
    assert list(zip(alphas, betas)) == [(Outcome.PLUS, Outcome.MINUS),
                                        (Outcome.MINUS, Outcome.PLUS)]


def test_gisin_perfect_anticorrelation_equal_settings():
    m = GisinSingletModel()
    rng = np.random.default_rng(5)
    for ordering in (AB, BA):
        alphas, betas = eval_pairs(m, ordering, SINGLET, A_X, A_X, rng.random((200, 2)))
        assert np.all(alphas * betas == -1)


def test_gisin_first_ab_threshold():
    m = GisinSingletModel()
    vals = m.first_values(AB, SINGLET, A_X, np.array([[0.3, 0.6], [0.6, 0.6]]))
    assert vals.tolist() == [Outcome.PLUS, Outcome.MINUS]


def test_gisin_second_outcome_is_plus_on_its_thresholds():
    # a.b = 1/2: after a first +1 the level is 1/4, after a first -1 it is 3/4;
    # a first coordinate of exactly 1/2 counts as a first +1
    b = MeasurementSetting(0.5, math.sqrt(0.75), 0)
    assert dot(A_X, b) == 0.5
    m = GisinSingletModel()
    points = [(0.3, 0.25), (0.5, 0.25), (0.7, 0.75), (0.3, 0.2500001), (0.5, 0.75),
              (0.7, 0.7500001)]
    expected = [1, 1, 1, -1, -1, -1]
    for ordering, lams in ((AB, np.array(points)), (BA, np.array(points)[:, ::-1])):
        assert m.second_values(ordering, SINGLET, A_X, b, lams).tolist() == expected


def test_gisin_ba_role_swap_witness_pair():
    # this lambda is a covariance-violation witness: S_BA != F_AB
    m = GisinSingletModel()
    lam = np.array([[0.3, 0.4]])
    assert m.second_values(BA, SINGLET, A_X, B_09, lam).tolist() == [Outcome.MINUS]
    assert m.first_values(BA, SINGLET, B_09, lam).tolist() == [Outcome.PLUS]
    assert m.first_values(AB, SINGLET, A_X, lam).tolist() == [Outcome.PLUS]


def test_gisin_marginals_are_half():
    m = GisinSingletModel()
    for ordering in (AB, BA):
        table = exact_joint(m, ordering, SINGLET, A_X, B_09, grid=1000)
        p_alpha_plus = table.probs[0, 0] + table.probs[0, 1]
        p_beta_plus = table.probs[0, 0] + table.probs[1, 0]
        assert p_alpha_plus == pytest.approx(0.5, abs=1e-12)
        assert p_beta_plus == pytest.approx(0.5, abs=1e-12)


def test_purity_identical_inputs_identical_outputs():
    rng = np.random.default_rng(6)
    for name in ("gisin-singlet", "local-sphere", "determinized-singlet"):
        m = make_model(name)
        for ordering in (AB, BA):
            lams = rng.random((100, m.lambda_dim))
            p1 = eval_pairs(m, ordering, SINGLET, A_X, B_09, lams)
            p2 = eval_pairs(m, ordering, SINGLET, A_X, B_09, lams.copy())
            assert np.array_equal(p1, p2)


@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_registry_builds_a_fresh_model_under_its_own_name(name):
    # the CLI embeds the key and trace metrics read the model's name, so they must agree
    first, second = make_model(name), make_model(name)
    assert first.name == second.name == name
    assert first is not second


def test_lambda_dimension_mismatch_rejected():
    for name in sorted(MODEL_REGISTRY):
        m = make_model(name)
        with pytest.raises(ValueError, match="lambda dimension"):
            eval_pairs(m, AB, SINGLET, A_X, B_09, np.array([[0.5]]))
        with pytest.raises(ValueError, match="lambda dimension"):
            m.count_pairs(AB, SINGLET, [(A_X, B_09)], np.array([[0.5]]))


def _reduced_sphere_view():
    """A reduced view of local-sphere, bound to an array other than the one it counts."""
    return reduce_to_local(LocalSphereModel(), SINGLET, [(A_X, B_09)],
                           sample_lambda(2, 50, SeedSpec(9)))


def _setting_dependent_rule():
    """A rule without base coordinates whose first threshold depends on the setting:
    settings with the same |z| share it, as +z and -z or tsirelson's b and b' do."""
    return StochasticResponse(
        lambda_dim=0,
        p_first=lambda o, s, sf, lams: np.full(lams.shape[0], (1.0 + abs(sf.z)) / 3.0),
        p_second=lambda o, s, a, b, f, lams: (2.0 - f * a.z - b.x) / 4.0,
        name="setting-dependent")


_TEST_MODELS = {"reduced local-sphere view": _reduced_sphere_view,
                "setting-dependent base-free rule": lambda: determinize(_setting_dependent_rule())}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from([*sorted(MODEL_REGISTRY), *_TEST_MODELS]),
       ordering=st.sampled_from([AB, BA]),
       pairs=st.lists(st.tuples(SETTING, SETTING), max_size=6), data=st.data())
def test_count_pairs_overrides_match_the_default(name, ordering, pairs, data):
    m = _TEST_MODELS[name]() if name in _TEST_MODELS else make_model(name)
    assert type(m).count_pairs is not OrderedModel.count_pairs
    lams = draw_hidden_points(data, m.lambda_dim, 6000)
    counts = m.count_pairs(ordering, SINGLET, pairs, lams)
    assert counts.dtype == np.int64 and counts.shape == (len(pairs), 2, 2)
    assert np.array_equal(counts, OrderedModel.count_pairs(m, ordering, SINGLET, pairs, lams))


_MIDPOINT_LEVELS = (math.nextafter(0.375, 0.0), 0.375, math.nextafter(0.375, 1.0))


def _midpoint_level_settings():
    """(x, b) with x.b = 0.25, so the level (1 - x.b)/2 after a first +1 is 0.375,
    a midpoint of a grid-4 axis, and the settings whose level is one float either side."""
    return [(A_X, MeasurementSetting(c, math.sqrt(1.0 - c * c), 0.0))
            for c in (1.0 - 2.0 * t for t in _MIDPOINT_LEVELS)]


@pytest.mark.parametrize("grid", [2, 3, 4, 7, 101])
@pytest.mark.parametrize("ordering", [AB, BA])
@pytest.mark.parametrize("name", ["gisin-singlet", "determinized-singlet",
                                  "setting-dependent base-free rule"])
def test_lattice_counts_equal_the_engine_counts(name, ordering, grid):
    level_pairs = _midpoint_level_settings()
    assert tuple((1.0 - dot(a, b)) / 2.0 for a, b in level_pairs) == _MIDPOINT_LEVELS
    setts = [*setting_grid(3), *tsirelson_settings()]
    pairs = [*level_pairs, *((a, b) for a in setts for b in setts)]
    m = _TEST_MODELS[name]() if name in _TEST_MODELS else make_model(name)
    engine = _count_blocks(m, ordering, SINGLET, pairs, grid ** 2,
                           lambda start, rows: _lattice_block(2, grid, start, rows), 1)
    counts = m.lattice_counts(ordering, SINGLET, pairs, grid)
    assert counts.dtype == np.int64 and np.array_equal(counts, engine)


_Z, _MINUS_Z = MeasurementSetting(0, 0, 1), MeasurementSetting(0, 0, -1)
# exact +-x and +-z; xy-plane settings, on whose measurement plane the u = 1/2 line of an
# odd grid lies; a setting 1e-9 off +z, whose arcs on that line are decided by 1e-9 terms;
# b with -b, so a = -b occurs; tsirelson's b and b'; the grid:3 and grid:7 spirals
_SPHERE_SETTINGS = [A_X, MeasurementSetting(-1, 0, 0), _Z, _MINUS_Z, B_09,
                    MeasurementSetting(-B_09.x, -B_09.y, 0), MeasurementSetting(0, 1, 0),
                    MeasurementSetting(1e-9, 0, 1), *tsirelson_settings()[2:], *setting_grid(3),
                    *setting_grid(7)]
_SPHERE_PAIRS = [(a, b) for a in _SPHERE_SETTINGS for b in _SPHERE_SETTINGS]


def _sphere_engine_counts(ordering, grid, pairs=_SPHERE_PAIRS):
    return _count_blocks(LocalSphereModel(), ordering, SINGLET, pairs, grid ** 2,
                         lambda start, rows: _lattice_block(2, grid, start, rows), 1)


@pytest.mark.parametrize("grid", [2, 3, 4, 7, 101, 1001])
@pytest.mark.parametrize("ordering", [AB, BA])
def test_local_sphere_lattice_counts_equal_the_engine_counts(ordering, grid):
    # on an odd grid the midpoints with u = 1/2 have cos(theta) = 0 exactly: they lie on
    # the measurement plane of +z and -z, where sign(0) counts as +1
    assert (grid % 2 == 1) == np.any(models.lattice_midpoints(grid) == 0.5)
    counts = LocalSphereModel().lattice_counts(ordering, SINGLET, _SPHERE_PAIRS, grid)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, _sphere_engine_counts(ordering, grid))


@settings(max_examples=40, deadline=None)
@given(ordering=st.sampled_from([AB, BA]), grid=st.integers(2, 1200),
       setts=st.lists(SETTING, min_size=1, max_size=3))
def test_local_sphere_lattice_counts_equal_the_engine_on_random_settings(ordering, grid, setts):
    pairs = [(a, b) for a in setts for b in setts]
    counts = LocalSphereModel().lattice_counts(ordering, SINGLET, pairs, grid)
    assert np.array_equal(counts, _sphere_engine_counts(ordering, grid, pairs))


@pytest.mark.parametrize("patch, grid", [(("_ARC_MARGIN", math.inf), 41), (("_ARC_LINES", 1), 41),
                                         (("_ARC_MARGIN", 1e-3), 1001)],
                         ids=["every line scored whole", "one u-line a block",
                              "window cells inside the margin"])
def test_local_sphere_lattice_counts_do_not_depend_on_how_cells_are_scored(monkeypatch, patch,
                                                                           grid):
    calls, window = [], 2 * (2 * models._ARC_HALF + 1)
    first_values = LocalSphereModel.first_values
    engine = {o: _sphere_engine_counts(o, grid) for o in (AB, BA)}

    def recording(self, ordering, state, setting, lams):
        calls.append((setting, len(lams)))
        return first_values(self, ordering, state, setting, lams)

    monkeypatch.setattr(models, *patch)
    monkeypatch.setattr(LocalSphereModel, "first_values", recording)
    for ordering in (AB, BA):
        calls.clear()
        counts = LocalSphereModel().lattice_counts(ordering, SINGLET, _SPHERE_PAIRS, grid)
        assert np.array_equal(counts, engine[ordering])
        # each distinct setting is scored through first_values, which a tracer wraps
        assert {s for s, _ in calls} == set(_SPHERE_SETTINGS)
        if patch[1] == math.inf:  # no arc is proven: no window, then every cell
            assert calls == [(s, grid * grid) for s in dict.fromkeys(_SPHERE_SETTINGS)]
        elif patch[0] == "_ARC_LINES":  # per line, its window cells inside the margin if
            # any (here the v = 1/2 cells of the y setting), then the line if scored whole
            near = [n for _, n in calls if n not in (0, grid)]
            assert len(calls) - len(near) == grid * len(set(_SPHERE_SETTINGS))
            assert near and all(n <= window for n in near)
        else:  # per setting, its window cells inside the margin, then the lines scored whole
            last = {s: n for s, n in calls}
            near = [n for s, n in calls if n != last[s]]
            assert len(near) > 1 and all(n <= window * grid for n in near)
            # at grid 1001 a 1e-3 margin is at least a sixth of the projection's step from
            # cell to cell, so hundreds of lines have an outer or inner window cell inside it
            assert sum(last.values()) > 100 * grid


@pytest.mark.parametrize("chunk", [1, 2 ** 40], ids=["one pair-line", "every pair-line"])
def test_local_sphere_pair_overlap_does_not_depend_on_the_chunk(monkeypatch, chunk):
    monkeypatch.setattr(models, "_CELL_CHUNK", chunk)
    for grid in (3, 41):  # an odd grid: the u = 1/2 line of +-z is scored whole
        for ordering in (AB, BA):
            counts = LocalSphereModel().lattice_counts(ordering, SINGLET, _SPHERE_PAIRS, grid)
            assert np.array_equal(counts, _sphere_engine_counts(ordering, grid))


def test_local_sphere_lattice_counts_of_no_pairs():
    counts = LocalSphereModel().lattice_counts(AB, SINGLET, [], 5)
    assert counts.dtype == np.int64 and counts.shape == (0, 2, 2)


def test_local_sphere_pair_overlap_holds_a_bounded_working_set():
    # grid:40's 1,600 pairs at grid 2001 are 3.2e6 pair-lines: the overlap takes at most
    # _CELL_CHUNK of them at once, so the peak is a few of its int32 and bool blocks
    g, grid = setting_grid(40), 2001
    pairs = [(a, b) for a in g for b in g]
    tracemalloc.start()
    try:
        counts = LocalSphereModel().lattice_counts(AB, SINGLET, pairs, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * models._CELL_CHUNK
    # each row of 40 pairs is one chunk
    rows = [LocalSphereModel().lattice_counts(AB, SINGLET, pairs[i:i + 40], grid)
            for i in range(0, len(pairs), 40)]
    assert np.array_equal(counts, np.concatenate(rows))


def test_local_sphere_lattice_counts_require_the_singlet():
    with pytest.raises(ValueError, match="singlet"):
        LocalSphereModel().lattice_counts(AB, "not a state", [(A_X, B_09)], 4)


def test_lattice_at_or_below_equals_a_search_of_the_midpoints():
    for grid in range(2, 601):
        mids = models.lattice_midpoints(grid)
        t = np.concatenate([mids, np.nextafter(mids, 0.0), np.nextafter(mids, 1.0), [0, 0.5, 1]])
        assert np.array_equal(models.lattice_at_or_below(grid, t),
                              np.searchsorted(mids, t, side="right")), grid


@pytest.mark.parametrize("name", ["gisin-singlet", "determinized-singlet"])
@pytest.mark.parametrize("ordering", [AB, BA])
@pytest.mark.parametrize("pairs", [[(A_X, B_09)],  # one pair on its own mask
                                   [(A_X, B_09), (B_09, A_X), (A_X, A_X),  # pairs on one mask
                                    tsirelson_settings()[2:]]])
def test_threshold_counts_match_the_default_on_the_thresholds(name, ordering, pairs):
    # every coordinate takes 1/2, each pair's two levels (0 and 1 for a.b = 1), and
    # the next float above each, so a point sits on every threshold of every pair;
    # the default counts second_values, which puts a point on its threshold at +1
    levels = [v for a, b in pairs for v in ((1.0 - dot(a, b)) / 2.0, (1.0 + dot(a, b)) / 2.0)]
    values = np.array([0.25, 0.5, 0.75, *levels])
    values = np.concatenate([values, np.nextafter(values, 2.0)])
    lams = np.array([(x, y) for x in values for y in values])
    m = make_model(name)
    assert np.array_equal(m.count_pairs(ordering, SINGLET, pairs, lams),
                          OrderedModel.count_pairs(m, ordering, SINGLET, pairs, lams))


def test_gisin_count_pairs_takes_its_first_outcome_once_per_call(monkeypatch):
    # a wrapper of the class's first_values, as a tracer installs, sees every block
    calls = []
    first_values = GisinSingletModel.first_values

    def counting(self, *args):
        calls.append(args)
        return first_values(self, *args)

    monkeypatch.setattr(GisinSingletModel, "first_values", counting)
    lams = sample_lambda(2, 500, SeedSpec(5))
    pairs = [(A_X, B_09), (B_09, A_X), (A_X, A_X)]
    for ordering in (AB, BA):
        for k in (1, 3):
            calls.clear()
            GisinSingletModel().count_pairs(ordering, SINGLET, pairs[:k], lams)
            assert len(calls) == 1


def test_sphere_positive_projection():
    m = LocalSphereModel()
    # (u, v) = (1, 0) maps to the +z direction
    lam = np.array([[1.0, 0.0]])
    z = MeasurementSetting(0, 0, 1)
    assert m.first_values(AB, SINGLET, z, lam).tolist() == [Outcome.PLUS]


def test_sphere_anticorrelated_at_equal_settings():
    m = LocalSphereModel()
    lams = sample_lambda(2, 2000, SeedSpec(21))
    for ordering in (AB, BA):
        alphas = (m.first_values(ordering, SINGLET, A_X, lams)
                  if ordering is AB else
                  m.second_values(ordering, SINGLET, A_X, A_X, lams))
        betas = (m.second_values(ordering, SINGLET, A_X, A_X, lams)
                 if ordering is AB else
                 m.first_values(ordering, SINGLET, A_X, lams))
        assert np.all(alphas * betas == -1)


def test_sphere_second_ignores_other_setting():
    m = LocalSphereModel()
    lams = sample_lambda(2, 50, SeedSpec(22))
    b = B_09
    vals = [m.second_values(AB, SINGLET, a, b, lams) for a in setting_grid(20)]
    for v in vals[1:]:
        assert np.array_equal(v, vals[0])
    vals = [m.second_values(BA, SINGLET, A_X, b, lams) for b in setting_grid(20)]
    for v in vals[1:]:
        assert np.array_equal(v, vals[0])


def _sphere_quadrature_correlator(a, b, grid=800):
    """Independent oracle: midpoint quadrature of the sphere-model product
    over the (u, v) unit square, with the sign rules re-derived inline."""
    mids = (np.arange(grid) + 0.5) / grid
    u, v = np.meshgrid(mids, mids, indexing="ij")
    cos_t = 2.0 * u - 1.0
    sin_t = np.sqrt(1.0 - cos_t ** 2)
    phi = 2.0 * np.pi * v
    lam = np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t], axis=-1)
    alice = np.where(lam @ a.as_array() >= 0, 1, -1)
    bob = -np.where(lam @ b.as_array() >= 0, 1, -1)
    return float(np.mean(alice * bob))


@pytest.mark.parametrize("b", [B_09, MeasurementSetting(0, 0, 1),
                               MeasurementSetting(-0.5, math.sqrt(0.75), 0)])
def test_sphere_correlator_matches_classical_value(b):
    theta = math.acos(dot(A_X, b))
    analytic = -1.0 + 2.0 * theta / math.pi
    assert _sphere_quadrature_correlator(A_X, b) == pytest.approx(analytic, abs=5e-3)
    m = LocalSphereModel()
    table = estimate_joint(m, AB, SINGLET, A_X, b, 1_000_000, SeedSpec(23))
    assert correlator(table).value == pytest.approx(analytic, abs=5e-3)


def _constant_response(p1, p2, dim=0):
    return StochasticResponse(
        lambda_dim=dim,
        p_first=lambda o, s, sf, lams: np.full(lams.shape[0], p1),
        p_second=lambda o, s, a, b, f, lams: np.full(lams.shape[0], p2),
        name="constant",
    )


def _assert_bound_gives_unbound_outcomes(m, bound, lams, moved):
    """Both orderings' outcomes of the bound model, on its own array, a shifted copy
    and slices, twice over so kept results are read back, equal the unbound model's."""
    for arr in (lams, moved, lams[::3], lams[:10], lams, moved):
        for ordering in (AB, BA):
            assert np.array_equal(eval_pairs(bound, ordering, SINGLET, A_X, B_09, arr),
                                  eval_pairs(m, ordering, SINGLET, A_X, B_09, arr))
    assert vars(m) == {}  # the unbound model keeps nothing


def test_sphere_bound_model_gives_the_unbound_outcomes(direction_computations):
    m = LocalSphereModel()
    lams = sample_lambda(2, 1000, SeedSpec(1))
    bound = m.bind(lams)
    moved = lams.copy()
    moved[:, 1] = (moved[:, 1] + 0.5) % 1.0  # phi + pi flips every x component
    _assert_bound_gives_unbound_outcomes(m, bound, lams, moved)
    assert np.array_equal(bound.first_values(AB, SINGLET, A_X, moved),
                          -m.first_values(AB, SINGLET, A_X, lams))
    del direction_computations[:]
    assert bound.bind(lams) is bound  # a bound model is its own binding to its array
    bound.bind(lams).second_values(AB, SINGLET, A_X, B_09, lams)
    assert direction_computations == []  # binding again to its array reuses them
    gisin = GisinSingletModel()
    moved = lams.copy()
    moved[:, 0] = (moved[:, 0] + 0.5) % 1.0  # flips the first AB outcome of almost every row
    _assert_bound_gives_unbound_outcomes(gisin, gisin.bind(lams), lams, moved)


def test_kept_outcomes_are_read_only():
    lams = sample_lambda(2, 100, SeedSpec(2))
    bound = LocalSphereModel().bind(lams)
    alphas = bound.first_values(AB, SINGLET, A_X, lams)
    with pytest.raises(ValueError):
        alphas[0] = -alphas[0]  # a caller cannot change what later calls read
    assert np.array_equal(bound.second_values(BA, SINGLET, A_X, B_09, lams), alphas)


def test_determinize_threshold_examples():
    m = determinize(_constant_response(0.25, 0.5))
    assert m.lambda_dim == 2
    vals = m.first_values(AB, SINGLET, A_X, np.array([[0.2, 0.0], [0.3, 0.0]]))
    assert vals.tolist() == [Outcome.PLUS, Outcome.MINUS]


def test_determinize_first_mean_matches_probability():
    for p in (0.1, 0.5, 0.8):
        m = determinize(_constant_response(p, 0.5))
        lams = sample_lambda(2, 200_000, SeedSpec(31))
        vals = m.first_values(AB, SINGLET, A_X, lams)
        assert np.mean(vals) == pytest.approx(2 * p - 1, abs=5e-3)


def test_determinized_singlet_matches_gisin_joint():
    det = determinize(stochastic_singlet())
    gisin = GisinSingletModel()
    for ordering in (AB, BA):
        t_det = estimate_joint(det, ordering, SINGLET, A_X, B_09, 1_000_000, SeedSpec(33))
        t_gis = exact_joint(gisin, ordering, SINGLET, A_X, B_09, grid=1000)
        assert np.allclose(t_det.probs, t_gis.probs, atol=5e-3)


def test_determinized_singlet_is_pointwise_gisin_singlet():
    # both threshold u_A at 1/2 and u_B at (1 -+ a.b)/2 in the same float arithmetic,
    # so their outcomes agree on every point, threshold midpoints and corners included
    lams = np.concatenate([sample_lambda(2, 30_000, SeedSpec(12)),
                           _lattice_block(2, 201, 0, 201 ** 2),
                           [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.5, 0.5]]])
    det, gisin = make_model("determinized-singlet"), GisinSingletModel()
    probe_settings = [*setting_grid(6), *tsirelson_settings()]
    for ordering in (AB, BA):
        for a in probe_settings:
            for b in probe_settings:
                assert np.array_equal(eval_pairs(det, ordering, SINGLET, a, b, lams),
                                      eval_pairs(gisin, ordering, SINGLET, a, b, lams))


def test_determinized_count_pairs_takes_each_first_outcome_once():
    singlet = stochastic_singlet()
    first_settings = []

    def p_first(ordering, state, setting_first, lams):
        first_settings.append(setting_first)
        return singlet.p_first(ordering, state, setting_first, lams)

    m = determinize(StochasticResponse(0, p_first, singlet.p_second, "counting"))
    lams = sample_lambda(2, 500, SeedSpec(8))
    pairs = [(A_X, A_X), (A_X, B_09), (B_09, A_X), (B_09, B_09), (A_X, B_09)]
    for ordering in (AB, BA):
        first_settings.clear()
        m.count_pairs(ordering, SINGLET, pairs, lams)
        assert sorted(first_settings, key=repr) == sorted([A_X, B_09], key=repr)


def test_probability_out_of_range_rejected():
    m = determinize(_constant_response(1.5, 0.5))
    with pytest.raises(ValueError, match="probability"):
        m.first_values(AB, SINGLET, A_X, np.array([[0.2, 0.0]]))


@pytest.mark.parametrize("rule", ["p_first", "p_second"])
def test_nan_response_probability_rejected(rule):
    # a NaN probability must not pass as outcome -1
    m = determinize(_constant_response(math.nan, 0.5) if rule == "p_first"
                    else _constant_response(0.5, math.nan))
    lams = np.array([[0.2, 0.3], [0.7, 0.9], [0.4, 0.1]])
    for ordering in (AB, BA):
        with pytest.raises(ValueError, match="probability"):
            eval_pairs(m, ordering, SINGLET, A_X, B_09, lams)
        with pytest.raises(ValueError, match="probability"):
            m.count_pairs(ordering, SINGLET, [(A_X, B_09)], lams)


def test_sign_kernel_gives_int8_for_strided_bools():
    cond = np.array([[True, False, False], [False, True, True]])
    for strided in (cond[:, ::2], cond.T, cond[1, ::-1]):
        signs = _pm(strided)
        assert signs.dtype == np.int8
        assert signs.tolist() == np.where(strided, 1, -1).tolist()


def test_unknown_model_name():
    with pytest.raises(KeyError, match="unknown model"):
        make_model("nope")


def test_models_require_singlet_state():
    m = GisinSingletModel()
    with pytest.raises(ValueError, match="singlet"):
        m.first_values(AB, "not-a-state", A_X, np.array([[0.1, 0.1]]))
