"""``count_violations`` against scoring every probe, the threshold models' rank
histogram and its cell bound, and the covariance check that counts through it."""

import contextlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covbell import cli, models
from covbell.core import MeasurementSetting, QuantumState, TimeOrdering, dot, setting_grid
from covbell.covariance import LocalModelView, check_covariance
from covbell.models import (MODEL_REGISTRY, GisinSingletModel, OrderedModel, StochasticResponse,
                            _pm, determinize, eval_pairs, make_model, threshold_violations)
from covbell.stats import SeedSpec, sample_lambda
from oracles import per_pair_failing_cells
from property_inputs import SETTING, draw_hidden_points
from test_covariance import _reference_report
from test_models import _setting_dependent_rule

AB, BA = TimeOrdering.AB, TimeOrdering.BA
SINGLET = QuantumState.SINGLET
A_X = MeasurementSetting(1, 0, 0)
B_09 = MeasurementSetting(0.9, math.sqrt(1 - 0.81), 0)
THRESHOLD_MODELS = ["gisin-singlet", "determinized-singlet"]
SETTING_DEPENDENT = "setting-dependent base-free rule"
_TEST_MODELS = {"local-view of gisin-singlet": lambda: LocalModelView(GisinSingletModel()),
                SETTING_DEPENDENT: lambda: determinize(_setting_dependent_rule())}


def _scored_violations(m, pairs, lams) -> list:
    """Each pair's count of rows whose outcomes differ between eval_pairs in AB and BA."""
    counts = []
    for a, b in pairs:
        alpha_ab, beta_ab = eval_pairs(m, AB, SINGLET, a, b, lams)
        alpha_ba, beta_ba = eval_pairs(m, BA, SINGLET, a, b, lams)
        counts.append(int(np.count_nonzero((alpha_ab != alpha_ba) | (beta_ab != beta_ba))))
    return counts


def _thresholds(name, pairs) -> set:
    """Either party's distinct thresholds: the setting-dependent rule's (1 + |z|)/3 of
    each first setting and (2 -+ a.z - b.x)/4, else the singlet rule's 1/2 and
    (1 -+ a.b)/2."""
    if name == SETTING_DEPENDENT:  # its AB and BA rules differ
        return ({(1.0 + abs(s.z)) / 3.0 for pair in pairs for s in pair}
                | {(2.0 - f * a.z - b.x) / 4.0 for a, b in pairs for f in (1, -1)})
    return {0.5} | {(1.0 - sign * dot(a, b)) / 2.0 for a, b in pairs for sign in (1, -1)}


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from([*sorted(MODEL_REGISTRY), *_TEST_MODELS]),
       cap=st.integers(0, 40), data=st.data(),
       pairs=st.lists(st.tuples(SETTING, SETTING), min_size=1, max_size=30))
def test_count_violations_matches_scoring(name, cap, pairs, data):
    m = _TEST_MODELS[name]() if name in _TEST_MODELS else make_model(name)
    lams = np.array(draw_hidden_points(data, m.lambda_dim, 3000))  # a writable copy
    thresholds = _thresholds(name, pairs)
    if data.draw(st.booleans(), label="rows on the thresholds"):
        for t in sorted(thresholds):  # each threshold lands on one row of each coordinate
            for col in (0, 1):
                lams[data.draw(st.integers(0, len(lams) - 1), label="row"), col] = t
    # threshold models count from the (rank_A, rank_B) cells up to 2n of them; past
    # that, and for every other model, the rows are scored
    counts = m.count_violations(SINGLET, pairs, lams)
    assert counts.dtype == np.int64
    assert counts.tolist() == _scored_violations(m, pairs, lams)
    report = check_covariance(m, SINGLET, pairs, lams, witness_cap=cap)
    assert (report.checked, report.violations, report.violation_fraction,
            report.witnesses) == _reference_report(m, pairs, lams, cap)


@pytest.mark.parametrize("name", THRESHOLD_MODELS)
def test_count_violations_declines_past_twice_the_probes(name):
    # one pair has 3 thresholds per party, so 4 x 4 = 16 cells: the rank histogram
    # counts 8 rows and declines 7, and both models share its rule (1/2 and (1 -+ a.b)/2)
    m = make_model(name)
    lams = sample_lambda(2, 8, SeedSpec(5))
    rule = GisinSingletModel()._rule(AB, SINGLET, [(A_X, B_09)])
    assert threshold_violations(lams[:, 0], lams[:, 1], rule, rule).tolist() == (
        _scored_violations(m, [(A_X, B_09)], lams))
    assert threshold_violations(lams[:7, 0], lams[:7, 1], rule, rule) is None
    for rows in (lams, lams[:7]):  # either side of the bound, count_violations counts
        assert m.count_violations(SINGLET, [(A_X, B_09)], rows).tolist() == (
            _scored_violations(m, [(A_X, B_09)], rows))
        report = check_covariance(m, SINGLET, [(A_X, B_09)], rows, witness_cap=4)
        assert (report.checked, report.violations, report.violation_fraction,
                report.witnesses) == _reference_report(m, [(A_X, B_09)], rows, 4)


@pytest.mark.parametrize("name", THRESHOLD_MODELS)
def test_empty_pairs_check_nothing(name):
    m = make_model(name)
    lams = sample_lambda(2, 100, SeedSpec(3))
    assert m.count_violations(SINGLET, [], lams).tolist() == []
    report = check_covariance(m, SINGLET, [], lams)
    assert (report.checked, report.violations, report.witnesses) == (0, 0, ())


# thresholds on a coarse dyadic grid, so that pairs and parties share them
_THRESHOLD = st.integers(0, 8).map(lambda j: j / 8)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(0, 40), chunk=st.sampled_from([1, 5, 81, 1 << 20]))
def test_failing_cells_of_all_pairs_equal_the_per_pair_sums(data, k, chunk):
    # both frames' (firsts, levels) drawn apart, as determinized rules may have them;
    # a chunk of 1 or 5 pair-cells takes one pair at a time, 81 one or a few
    firsts = [data.draw(st.lists(_THRESHOLD, min_size=k, max_size=k)) for _ in range(2)]
    levels = [data.draw(st.lists(st.tuples(_THRESHOLD, _THRESHOLD), min_size=k, max_size=k))
              for _ in range(2)]
    ab, ba = (firsts[0], levels[0]), (firsts[1], levels[1])
    alice = np.array(sorted({0.5, *firsts[0], *np.ravel(levels[1])}))
    bob = np.array(sorted({0.5, *firsts[1], *np.ravel(levels[0])}))
    hist = np.array(data.draw(st.lists(st.integers(0, 2 ** 40), min_size=(alice.size + 1)
                                       * (bob.size + 1), max_size=(alice.size + 1)
                                       * (bob.size + 1)))).reshape(alice.size + 1, bob.size + 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(models, "_CELL_CHUNK", chunk)
        counts = models.failing_cell_counts(hist, alice, bob, ab, ba)
    assert counts.dtype == np.int64
    assert counts.tolist() == per_pair_failing_cells(hist, alice, bob, ab, ba)


def test_failing_cells_hold_a_bounded_working_set():
    # 20,000 grid:5-like pairs on 22 x 22 cells: the pair-cells evaluated at once stay
    # below _CELL_CHUNK, so the peak is a few of its bool and int64 blocks, not
    # 20,000 x 484 of them
    m, g = GisinSingletModel(), setting_grid(5)
    pairs = [(a, b) for a in g for b in g] * 800
    rule = m._rule(AB, SINGLET, pairs)
    alice = np.array(sorted({0.5, *np.ravel(rule[1])}))
    hist = np.arange((alice.size + 1) ** 2).reshape(alice.size + 1, alice.size + 1)
    tracemalloc.start()
    try:
        counts = models.failing_cell_counts(hist, alice, alice, rule, rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.tolist() == per_pair_failing_cells(hist, alice, alice, rule, rule)[:25] * 800
    assert peak < 16 * models._CELL_CHUNK  # 8 bytes an entry for the int64 product, and bools


def test_rule_with_base_coordinates_takes_no_hook():
    sr = StochasticResponse(lambda_dim=1,
                            p_first=lambda ordering, state, s, lams: lams[:, 0],
                            p_second=lambda ordering, state, a, b, firsts, lams: 1.0 - lams[:, 0])
    m = determinize(sr)
    lams = sample_lambda(3, 500, SeedSpec(9))
    pairs = [(A_X, B_09), (B_09, A_X)]
    counts = m.count_violations(SINGLET, pairs, lams)  # scored: the rule reads its base
    assert counts.dtype == np.int64
    assert counts.tolist() == _scored_violations(m, pairs, lams)
    report = check_covariance(m, SINGLET, pairs, lams, witness_cap=5)
    assert (report.checked, report.violations, report.violation_fraction,
            report.witnesses) == _reference_report(m, pairs, lams, 5)


class _TailModel(OrderedModel):
    """Frames that agree on every probe lam < cut and disagree from it on: Alice's
    second outcome flips there, and Bob's too where 20000 lam is even. No rank
    histogram counts it, so its check takes the scoring default."""

    lambda_dim = 1
    name = "tail"

    def __init__(self, cut):
        self.cut = cut

    def first_values(self, ordering, state, setting_first, lams):
        return np.ones(len(lams), dtype=np.int8)

    def second_values(self, ordering, state, a, b, lams):
        tail = lams[:, 0] >= self.cut
        if ordering is AB:  # Bob's
            tail &= np.rint(lams[:, 0] * 20000) % 2 == 0
        return _pm(~tail)


@pytest.mark.parametrize("n", [1, 1024, 1025, 16384, 16385, 20000])
@pytest.mark.parametrize("cap", [0, 1, 2])
@pytest.mark.parametrize("tail", ["last row", "rows from 16384"])
def test_witness_prefix_grows_to_the_whole_array(n, cap, tail):
    # the failures lie beyond every prefix shorter than the array, so the prefix
    # loop must reach its end; row i holds lam = i / 20000
    lams = np.arange(n, dtype=float)[:, None] / 20000
    m = _TailModel(lams[-1, 0] if tail == "last row" else 16384 / 20000)
    pairs = [(A_X, B_09), (B_09, A_X)]
    report = check_covariance(m, SINGLET, pairs, lams, witness_cap=cap)
    assert (report.checked, report.violations, report.violation_fraction,
            report.witnesses) == _reference_report(m, pairs, lams, cap)
    assert report.violations == (2 if tail == "last row" else 2 * max(0, n - 16384))


def test_benchmark_sized_check_scores_only_the_witness_prefix(monkeypatch):
    # nogo-scan's check: 25 grid:5 pairs x 200,000 probes of gisin-singlet
    g = setting_grid(5)
    pairs = [(a, b) for a in g for b in g]
    lams = sample_lambda(2, 200_000, SeedSpec(31))
    expected = _reference_report(GisinSingletModel(), pairs, lams, 32)
    rows_seen = []
    second_values = GisinSingletModel.second_values

    def recording(self, ordering, state, a, b, rows):
        rows_seen.append(len(rows))
        return second_values(self, ordering, state, a, b, rows)

    monkeypatch.setattr(GisinSingletModel, "second_values", recording)
    report = check_covariance(GisinSingletModel(), SINGLET, pairs, lams, witness_cap=32)
    assert (report.checked, report.violations, report.violation_fraction,
            report.witnesses) == expected
    assert len(report.witnesses) == 32
    # the witnesses' rows lie in the first prefix of 1024 x 16^j rows that holds them all
    last = max(int(np.flatnonzero((lams == w.lam.coords).all(axis=1))[0])
               for w in report.witnesses)
    prefix = 1024
    while prefix <= last:
        prefix *= 16
    assert rows_seen and max(rows_seen) <= prefix < len(lams)


# a grid, the CHSH settings, or inline pairs as JSON vectors (floats round-trip exactly)
SETTINGS_SPEC = st.one_of(
    st.integers(1, 6).map(lambda n: f"grid:{n}"), st.just("tsirelson"),
    st.lists(st.tuples(SETTING, SETTING), min_size=1, max_size=8).map(
        lambda pairs: json.dumps([[[a.x, a.y, a.z], [b.x, b.y, b.z]] for a, b in pairs])))


@settings(max_examples=30, deadline=None)
@given(spec=SETTINGS_SPEC, per_pair=st.integers(1, 3000), seed=st.integers(0, 2 ** 64 - 1),
       cap=st.integers(0, 40))
def test_threshold_models_write_one_report(spec, per_pair, seed, cap):
    # gisin-singlet and determinized-singlet are one rule of the same two coordinates,
    # so their documents differ only in the model that the config names
    probes = per_pair * len(cli._setting_pairs(spec))
    docs = []
    for name in THRESHOLD_MODELS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["check-covariance", "--model", name, "--settings", spec,
                             "--probes", str(probes), "--seed", str(seed),
                             "--witness-cap", str(cap)])
        assert code == 0
        doc = json.loads(out.getvalue())
        assert doc["config"].pop("model") == name
        docs.append(doc)
    assert docs[0] == docs[1]
