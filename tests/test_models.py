import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covbell.core import (MeasurementSetting, Outcome, QuantumState,
                          TimeOrdering, dot, setting_grid)
from covbell.models import (MODEL_REGISTRY, GisinSingletModel, LocalSphereModel, OrderedModel,
                            StochasticResponse, _pm, determinize, eval_pairs,
                            make_gisin_singlet, make_local_sphere, make_model,
                            stochastic_singlet)
from covbell.stats import SeedSpec, correlator, estimate_joint, exact_joint, sample_lambda
from property_inputs import SETTING, draw_hidden_points

AB, BA = TimeOrdering.AB, TimeOrdering.BA
SINGLET = QuantumState.SINGLET

A_X = MeasurementSetting(1, 0, 0)
B_09 = MeasurementSetting(0.9, math.sqrt(1 - 0.81), 0)  # a.b = 0.9


def test_gisin_eval_ab_examples():
    m = make_gisin_singlet()
    lams = np.array([[0.3, 0.6], [0.7, 0.9]])
    alphas, betas = eval_pairs(m, AB, SINGLET, A_X, B_09, lams)
    assert alphas.dtype == betas.dtype == np.int8
    assert list(zip(alphas, betas)) == [(Outcome.PLUS, Outcome.MINUS),
                                        (Outcome.MINUS, Outcome.PLUS)]


def test_gisin_perfect_anticorrelation_equal_settings():
    m = make_gisin_singlet()
    rng = np.random.default_rng(5)
    for ordering in (AB, BA):
        alphas, betas = eval_pairs(m, ordering, SINGLET, A_X, A_X, rng.random((200, 2)))
        assert np.all(alphas * betas == -1)


def test_gisin_first_ab_threshold():
    m = make_gisin_singlet()
    vals = m.first_values(AB, SINGLET, A_X, np.array([[0.3, 0.6], [0.6, 0.6]]))
    assert vals.tolist() == [Outcome.PLUS, Outcome.MINUS]


def test_gisin_second_outcome_is_plus_on_its_thresholds():
    # a.b = 1/2: after a first +1 the level is 1/4, after a first -1 it is 3/4;
    # a first coordinate of exactly 1/2 counts as a first +1
    b = MeasurementSetting(0.5, math.sqrt(0.75), 0)
    assert dot(A_X, b) == 0.5
    m = make_gisin_singlet()
    points = [(0.3, 0.25), (0.5, 0.25), (0.7, 0.75), (0.3, 0.2500001), (0.5, 0.75),
              (0.7, 0.7500001)]
    expected = [1, 1, 1, -1, -1, -1]
    for ordering, lams in ((AB, np.array(points)), (BA, np.array(points)[:, ::-1])):
        assert m.second_values(ordering, SINGLET, A_X, b, lams).tolist() == expected


def test_gisin_ba_role_swap_witness_pair():
    # this lambda is a covariance-violation witness: S_BA != F_AB
    m = make_gisin_singlet()
    lam = np.array([[0.3, 0.4]])
    assert m.second_values(BA, SINGLET, A_X, B_09, lam).tolist() == [Outcome.MINUS]
    assert m.first_values(BA, SINGLET, B_09, lam).tolist() == [Outcome.PLUS]
    assert m.first_values(AB, SINGLET, A_X, lam).tolist() == [Outcome.PLUS]


def test_gisin_marginals_are_half():
    m = make_gisin_singlet()
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


def test_lambda_dimension_mismatch_rejected():
    for name in sorted(MODEL_REGISTRY):
        m = make_model(name)
        with pytest.raises(ValueError, match="lambda dimension"):
            eval_pairs(m, AB, SINGLET, A_X, B_09, np.array([[0.5]]))
        with pytest.raises(ValueError, match="lambda dimension"):
            m.count_pairs(AB, SINGLET, [(A_X, B_09)], np.array([[0.5]]))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(MODEL_REGISTRY)), ordering=st.sampled_from([AB, BA]),
       pairs=st.lists(st.tuples(SETTING, SETTING), max_size=6), data=st.data())
def test_count_pairs_overrides_match_the_default(name, ordering, pairs, data):
    m = make_model(name)
    assert type(m).count_pairs is not OrderedModel.count_pairs
    lams = draw_hidden_points(data, m.lambda_dim, 6000)
    counts = m.count_pairs(ordering, SINGLET, pairs, lams)
    assert counts.dtype == np.int64 and counts.shape == (len(pairs), 2, 2)
    assert np.array_equal(counts, OrderedModel.count_pairs(m, ordering, SINGLET, pairs, lams))


def test_sphere_positive_projection():
    m = make_local_sphere()
    # (u, v) = (1, 0) maps to the +z direction
    lam = np.array([[1.0, 0.0]])
    z = MeasurementSetting(0, 0, 1)
    assert m.first_values(AB, SINGLET, z, lam).tolist() == [Outcome.PLUS]


def test_sphere_anticorrelated_at_equal_settings():
    m = make_local_sphere()
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
    m = make_local_sphere()
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
    m = make_local_sphere()
    table = estimate_joint(m, AB, SINGLET, A_X, b, 1_000_000, SeedSpec(23))
    assert correlator(table).value == pytest.approx(analytic, abs=5e-3)


def _constant_response(p1, p2, dim=0):
    return StochasticResponse(
        lambda_dim=dim,
        p_first=lambda o, s, sf, lams: np.full(lams.shape[0], p1),
        p_second=lambda o, s, a, b, f, lams: np.full(lams.shape[0], p2),
        name="constant",
    )


def test_sphere_bound_model_gives_the_unbound_outcomes(direction_computations):
    m = make_local_sphere()
    lams = sample_lambda(2, 1000, SeedSpec(1))
    bound = m.bind(lams)
    moved = lams.copy()
    moved[:, 1] = (moved[:, 1] + 0.5) % 1.0  # phi + pi flips every x component
    for arr in (lams, moved, lams[::3], lams[:10]):
        for ordering in (AB, BA):
            assert np.array_equal(eval_pairs(bound, ordering, SINGLET, A_X, B_09, arr),
                                  eval_pairs(m, ordering, SINGLET, A_X, B_09, arr))
    assert np.array_equal(bound.first_values(AB, SINGLET, A_X, moved),
                          -m.first_values(AB, SINGLET, A_X, lams))
    assert vars(m) == {}  # the unbound model keeps nothing
    del direction_computations[:]
    bound.bind(lams).second_values(AB, SINGLET, A_X, B_09, lams)
    assert direction_computations == []  # binding again to its array reuses them
    gisin = make_gisin_singlet()
    assert gisin.bind(lams) is gisin


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
    gisin = make_gisin_singlet()
    for ordering in (AB, BA):
        t_det = estimate_joint(det, ordering, SINGLET, A_X, B_09, 1_000_000, SeedSpec(33))
        t_gis = exact_joint(gisin, ordering, SINGLET, A_X, B_09, grid=1000)
        assert np.allclose(t_det.probs, t_gis.probs, atol=5e-3)


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
    m = make_gisin_singlet()
    with pytest.raises(ValueError, match="singlet"):
        m.first_values(AB, "not-a-state", A_X, np.array([[0.1, 0.1]]))
