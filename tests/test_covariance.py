import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covbell.core import (HiddenPoint, MeasurementSetting, Outcome,
                          QuantumState, TimeOrdering, dot, setting_grid)
from covbell.covariance import (LocalModelView, NotCovariantError, Side, Witness,
                                check_covariance, enumerate_finite, frame_consistency,
                                reduce_to_local)
from covbell.models import (MODEL_REGISTRY, GisinSingletModel, LocalSphereModel, OrderedModel,
                            StochasticResponse, determinize, eval_pairs, make_model)
from covbell.stats import _BLOCK, SeedSpec, exact_tables, sample_lambda
from oracles import FiniteStrategy, forced_covariant_extension
from property_inputs import SETTING, draw_hidden_points

AB, BA = TimeOrdering.AB, TimeOrdering.BA
SINGLET = QuantumState.SINGLET
A_X = MeasurementSetting(1, 0, 0)
B_09 = MeasurementSetting(0.9, math.sqrt(1 - 0.81), 0)
B_PERP = MeasurementSetting(0, 1, 0)


def _grid_pairs(n):
    g = setting_grid(n)
    return [(a, b) for a in g for b in g]


def test_covariance_witness_example():
    report = check_covariance(GisinSingletModel(), SINGLET, [(A_X, B_09)],
                              [HiddenPoint((0.3, 0.4))])
    assert report.checked == 1
    assert report.violations == 1
    w = report.witnesses[0]
    assert w.side is Side.ALICE
    assert w.first_value is Outcome.PLUS
    assert w.second_value is Outcome.MINUS


@pytest.mark.parametrize("bad", [math.nan, 1.5, -0.2])
@pytest.mark.parametrize("check", [check_covariance, reduce_to_local])
def test_bad_lambda_rows_rejected(check, bad):
    # the bad row is not a witness (local-sphere is covariant), so it must be
    # rejected up front rather than counted
    lams = np.array([[0.5, 0.5], [bad, 0.3]])
    with pytest.raises(ValueError, match="outside"):
        check(LocalSphereModel(), SINGLET, [(A_X, B_09)], lams)
    with pytest.raises(ValueError, match="outside"):
        check(LocalSphereModel(), SINGLET, [(A_X, B_09)], [[0.3, bad]])


@pytest.mark.parametrize("check", [check_covariance, reduce_to_local])
def test_wrongly_shaped_lambda_rows_rejected(check):
    for lams in (np.array([[0.5, 0.5, 0.5]]), [[0.5]], np.array([0.5, 0.5])):
        with pytest.raises(ValueError, match="lambda dimension"):
            check(LocalSphereModel(), SINGLET, [(A_X, B_09)], lams)


def _reference_report(m, pairs, lams, cap):
    """(checked, violations, fraction, witnesses) from eval_pairs in AB and BA per pair."""
    violations, witnesses = 0, []
    for a, b in pairs:
        alpha_ab, beta_ab = eval_pairs(m, AB, SINGLET, a, b, lams)
        alpha_ba, beta_ba = eval_pairs(m, BA, SINGLET, a, b, lams)
        alice_bad, bob_bad = alpha_ab != alpha_ba, beta_ba != beta_ab
        violations += int(np.count_nonzero(alice_bad | bob_bad))
        for i in np.nonzero(alice_bad | bob_bad)[0][:cap]:  # each bad row gives a witness
            lam = HiddenPoint(tuple(lams[i]))
            if alice_bad[i]:
                witnesses.append(Witness(lam, a, b, Side.ALICE, Outcome(int(alpha_ab[i])),
                                         Outcome(int(alpha_ba[i]))))
            if bob_bad[i]:
                witnesses.append(Witness(lam, a, b, Side.BOB, Outcome(int(beta_ba[i])),
                                         Outcome(int(beta_ab[i]))))
    checked = len(pairs) * len(lams)
    return checked, violations, violations / checked, tuple(witnesses[:cap])


_MODELS = [*sorted(MODEL_REGISTRY), "local-view of local-sphere"]


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(_MODELS), cap=st.integers(0, 40),
       pairs=st.lists(st.tuples(SETTING, SETTING), min_size=1, max_size=6), data=st.data())
def test_check_covariance_matches_a_per_pair_reference(name, cap, pairs, data):
    m = (LocalModelView(LocalSphereModel()) if name.startswith("local-view")
         else make_model(name))
    lams = draw_hidden_points(data, m.lambda_dim, 3000)
    report = check_covariance(m, SINGLET, pairs, lams, witness_cap=cap)
    assert (report.checked, report.violations, report.violation_fraction,
            report.witnesses) == _reference_report(m, pairs, lams, cap)


def test_local_sphere_is_covariant():
    lams = sample_lambda(2, 500, SeedSpec(41))
    report = check_covariance(LocalSphereModel(), SINGLET, _grid_pairs(4), lams)
    assert report.violations == 0
    assert report.violation_fraction == 0.0


def _gisin_disagreement_fraction(a, b, grid=500):
    """Independent oracle: measure of the covariance-disagreement set on the
    unit square, branch rules re-derived inline from the threshold model."""
    c = dot(a, b)
    mids = (np.arange(grid) + 0.5) / grid
    r_a, r_b = np.meshgrid(mids, mids, indexing="ij")
    f_ab = r_a <= 0.5
    s_ba = np.where(r_b <= 0.5, r_a <= (1 - c) / 2, r_a <= (1 + c) / 2)
    f_ba = r_b <= 0.5
    s_ab = np.where(r_a <= 0.5, r_b <= (1 - c) / 2, r_b <= (1 + c) / 2)
    return float(np.mean((f_ab != s_ba) | (f_ba != s_ab)))


def test_gisin_violation_fraction_matches_quadrature_oracle():
    pairs = _grid_pairs(5)
    lams = sample_lambda(2, 400, SeedSpec(7))
    report = check_covariance(GisinSingletModel(), SINGLET, pairs, lams,
                              witness_cap=8)
    assert report.checked == 10_000
    assert report.violation_fraction > 0.05
    expected = np.mean([_gisin_disagreement_fraction(a, b) for a, b in pairs])
    assert report.violation_fraction == pytest.approx(expected, abs=0.02)


def test_gisin_alice_side_disagreement_measure_closed_form():
    # per side the disagreement measure is |a.b| / 2
    c = dot(A_X, B_09)
    grid = 2000
    mids = (np.arange(grid) + 0.5) / grid
    r_a, r_b = np.meshgrid(mids, mids, indexing="ij")
    f_ab = r_a <= 0.5
    s_ba = np.where(r_b <= 0.5, r_a <= (1 - c) / 2, r_a <= (1 + c) / 2)
    assert np.mean(f_ab != s_ba) == pytest.approx(c / 2, abs=1e-3)


def test_witness_cap_respected():
    lams = sample_lambda(2, 2000, SeedSpec(42))
    report = check_covariance(GisinSingletModel(), SINGLET, [(A_X, B_09)],
                              lams, witness_cap=5)
    assert len(report.witnesses) == 5
    assert report.violations > 5


def test_reduce_local_sphere_succeeds_and_is_sound():
    m = LocalSphereModel()
    pairs = _grid_pairs(3)
    lams = sample_lambda(2, 300, SeedSpec(43))
    view = reduce_to_local(m, SINGLET, pairs, lams)
    for a, b in pairs:
        va = view.first_values(AB, SINGLET, a, lams)
        vb = view.first_values(BA, SINGLET, b, lams)
        for ordering in (AB, BA):
            alphas, betas = eval_pairs(m, ordering, SINGLET, a, b, lams)
            assert np.array_equal(va, alphas)
            assert np.array_equal(vb, betas)


def test_reduce_gisin_fails_with_witness():
    lams = sample_lambda(2, 200, SeedSpec(44))
    with pytest.raises(NotCovariantError) as err:
        reduce_to_local(GisinSingletModel(), SINGLET, _grid_pairs(3), lams)
    assert err.value.report.witnesses[0].side in (Side.ALICE, Side.BOB)
    assert err.value.report.violations > 0


def test_reduce_names_the_checks_first_witness():
    m, pairs = GisinSingletModel(), _grid_pairs(2)
    lams = sample_lambda(2, 100, SeedSpec(46))
    with pytest.raises(NotCovariantError) as err:
        reduce_to_local(m, SINGLET, pairs, lams)
    witness = check_covariance(m, SINGLET, pairs, lams).witnesses[0]
    assert err.value.report.witnesses[0] == witness
    assert (f"{witness.side.value} side, lambda={witness.lam.coords}, "
            f"first={int(witness.first_value)}, second={int(witness.second_value)}") in str(err.value)


def test_reduce_fully_random_determinized_model():
    sr = StochasticResponse(
        lambda_dim=0,
        p_first=lambda o, s, sf, lams: np.full(lams.shape[0], 0.5),
        p_second=lambda o, s, a, b, f, lams: np.full(lams.shape[0], 0.5),
        name="coin",
    )
    m = determinize(sr)
    pairs = _grid_pairs(3)
    lams = sample_lambda(m.lambda_dim, 20_000, SeedSpec(45))
    view = reduce_to_local(m, SINGLET, pairs, lams)
    for a, b in pairs:
        prod = view.first_values(AB, SINGLET, a, lams) * view.first_values(BA, SINGLET, b, lams)
        assert abs(np.mean(prod)) < 0.02


def test_local_view_model_is_covariant():
    view = reduce_to_local(LocalSphereModel(), SINGLET, _grid_pairs(3),
                           sample_lambda(2, 100, SeedSpec(46)))
    assert isinstance(view, OrderedModel)
    lams = sample_lambda(2, 500, SeedSpec(47))
    report = check_covariance(view, SINGLET, _grid_pairs(4), lams)
    assert report.violations == 0


class _StateRecorder(OrderedModel):
    """Covariant: Alice answers by lambda's first coordinate and Bob by its
    second in both orderings; records the state each call receives."""

    lambda_dim = 2

    def __init__(self):
        self.states = []

    def first_values(self, ordering, state, setting_first, lams):
        self.states.append(state)
        column = lams[:, 0] if ordering is AB else lams[:, 1]
        return np.where(column <= 0.5, 1, -1)

    def second_values(self, ordering, state, a, b, lams):
        return self.first_values(BA if ordering is AB else AB, state, None, lams)


def test_local_view_answers_at_the_callers_state():
    m, sentinel = _StateRecorder(), object()
    view = LocalModelView(m)
    lams = sample_lambda(2, 50, SeedSpec(48))
    for ordering in (AB, BA):
        for call in (lambda: view.first_values(ordering, sentinel, A_X, lams),
                     lambda: view.second_values(ordering, sentinel, A_X, B_09, lams),
                     lambda: view.count_pairs(ordering, sentinel, [(A_X, B_09)])(lams)):
            m.states.clear()
            call()
            assert m.states and all(s is sentinel for s in m.states)


def test_enumeration_counts_and_bounds():
    summary = enumerate_finite()
    assert summary.total == 4096
    assert summary.covariant == 16
    assert summary.max_abs_s == 4
    assert summary.max_abs_s_covariant == 2


def test_enumeration_rows_match_the_strategy_oracle():
    summary = enumerate_finite()
    columns = summary.covariant_mask, summary.s_ab, summary.s_ba
    assert [(col.shape, col.dtype.kind) for col in columns] == [((4096,), "b"), ((4096,), "i"),
                                                                ((4096,), "i")]
    for i, row in enumerate(zip(*(col.tolist() for col in columns))):
        strat = FiniteStrategy.from_index(i)
        assert row == (strat.covariant, strat.chsh(AB), strat.chsh(BA))
    assert {type(v) for v in summary.to_dict().values()} == {int, str}


def test_enumeration_covariant_set_equals_forced_extensions():
    summary = enumerate_finite()
    scanned = set(np.flatnonzero(summary.covariant_mask).tolist())
    forced = set()
    for bits in range(16):
        f_ab = tuple(1 - 2 * ((bits >> i) & 1) for i in range(2))
        f_ba = tuple(1 - 2 * ((bits >> (2 + i)) & 1) for i in range(2))
        forced.add(forced_covariant_extension(f_ab, f_ba).index)
    assert scanned == forced


def test_covariant_strategies_frame_invariant_tables():
    summary = enumerate_finite()
    for i in np.flatnonzero(summary.covariant_mask).tolist():
        strat = FiniteStrategy.from_index(i)
        assert strat.correlation_table(AB) == strat.correlation_table(BA)
        assert summary.s_ab[i] == summary.s_ba[i]


@pytest.mark.parametrize("view", [False, True], ids=["local-sphere", "local-view"])
def test_covariant_models_count_identical_exact_frame_tables(view):
    # a covariant model answers alike in both orderings, so the two frames'
    # lattice counts agree integer for integer
    pairs = _grid_pairs(4)
    m = LocalSphereModel()
    if view:
        m = reduce_to_local(m, SINGLET, pairs, sample_lambda(2, 100, SeedSpec(1)))
    for grid in (7, 1001):
        ab, ba = (exact_tables(m, ordering, SINGLET, pairs, grid).counts for ordering in (AB, BA))
        assert np.array_equal(ab, ba)


def test_reduced_sphere_view_computes_directions_once_per_block(direction_computations):
    pairs = _grid_pairs(4)
    view = reduce_to_local(LocalSphereModel(), SINGLET, pairs, sample_lambda(2, 100, SeedSpec(1)))
    del direction_computations[:]
    exact_tables(view, AB, SINGLET, pairs, 1001)
    # each block of the 1001^2 points binds once for all 16 pairs
    blocks = -(-1001 ** 2 // _BLOCK)
    assert len(direction_computations) == blocks and sum(direction_computations) == 1001 ** 2


def test_pr_box_strategy_reaches_four():
    # f_ab = +1, s_ab anticorrelated only at (1,1), covariance ignored
    strat = FiniteStrategy(f_ab=(1, 1), s_ab=(1, 1, 1, -1),
                           f_ba=(1, 1), s_ba=(1, 1, 1, 1))
    assert strat.chsh(AB) == 4
    assert not strat.covariant


def test_strategy_index_roundtrip():
    for index in (0, 1, 17, 2048, 4095):
        assert FiniteStrategy.from_index(index).index == index


class _FrameAsymmetricModel(OrderedModel):
    """AB frame follows the singlet threshold rules, BA answers +1 always."""

    lambda_dim = 2
    name = "frame-asymmetric"

    def __init__(self):
        self._gisin = GisinSingletModel()

    def first_values(self, ordering, state, setting_first, lams):
        if ordering is AB:
            return self._gisin.first_values(ordering, state, setting_first, lams)
        return np.ones(lams.shape[0], dtype=np.int8)

    def second_values(self, ordering, state, a, b, lams):
        if ordering is AB:
            return self._gisin.second_values(ordering, state, a, b, lams)
        return np.ones(lams.shape[0], dtype=np.int8)


def test_frame_consistency_gisin_small():
    assert frame_consistency(GisinSingletModel(), SINGLET, A_X, B_09,
                             grid=2000) <= 2e-3


def test_frame_consistency_sphere_zero():
    assert frame_consistency(LocalSphereModel(), SINGLET, A_X, B_09,
                             grid=500) <= 1e-12


def test_frame_consistency_detects_asymmetric_model():
    assert frame_consistency(_FrameAsymmetricModel(), SINGLET, A_X, B_PERP,
                             grid=500) >= 0.2
