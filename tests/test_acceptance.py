"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Tolerances are fixed here, not calibrated."""

import json
import math
import time

import numpy as np
import pytest

from covbell.cli import main
from covbell.core import (HiddenPoint, MeasurementSetting, Outcome,
                          QuantumState, TimeOrdering, dot, setting_grid,
                          tsirelson_settings)
from covbell.covariance import (NotCovariantError, Side, check_covariance,
                                enumerate_finite, frame_consistency, reduce_to_local)
from covbell.models import (GisinSingletModel, LocalSphereModel, determinize, eval_pairs,
                            stochastic_singlet)
from covbell.spacetime import (Boost, Event, SimultaneousEventsError,
                               boost_event, time_order)
from covbell.stats import (SeedSpec, chsh, chsh_pairs, correlator, estimate_joint, exact_joint,
                           exact_tables, sample_tables)
from oracles import FiniteStrategy, singlet_oracle_table

AB, BA = TimeOrdering.AB, TimeOrdering.BA
SINGLET = QuantumState.SINGLET
TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)


def _report(num, name, ok):
    print(f"acceptance {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_criterion_1_quantum_statistics_reproduction():
    start = time.perf_counter()
    m = GisinSingletModel()
    g = setting_grid(5)
    ok = True
    for a in g:
        for b in g:  # 25 deterministic setting pairs
            table = exact_joint(m, AB, SINGLET, a, b, grid=2000)
            oracle = singlet_oracle_table(a, b)
            ok &= bool(np.max(np.abs(table.probs - oracle.probs)) <= 2e-3)
            ok &= abs(correlator(table).value - (-dot(a, b))) <= 2e-3
    ok &= (time.perf_counter() - start) < 30.0
    _report(1, "quantum statistics reproduction", ok)


def test_criterion_2_tsirelson_value():
    start = time.perf_counter()
    m = GisinSingletModel()
    pairs = chsh_pairs(tsirelson_settings())
    exact = chsh(exact_tables(m, AB, SINGLET, pairs, 2000))
    mc = chsh(sample_tables(m, AB, SINGLET, pairs, 1_000_000, SeedSpec(2024)))
    ok = abs(exact.value - TWO_SQRT_TWO) <= 5e-3
    ok &= abs(mc.value - TWO_SQRT_TWO) <= 1e-2
    ok &= (time.perf_counter() - start) < 30.0
    _report(2, "Tsirelson value 2*sqrt(2)", ok)


def test_criterion_3_covariance_failure():
    start = time.perf_counter()
    m = GisinSingletModel()
    g = setting_grid(5)
    pairs = [(a, b) for a in g for b in g]
    from covbell.stats import sample_lambda
    lams = sample_lambda(2, 400, SeedSpec(7))  # 400 * 25 = 10^4 probes
    report = check_covariance(m, SINGLET, pairs, lams)
    ok = report.checked == 10_000
    ok &= len(report.witnesses) >= 1
    ok &= report.violation_fraction > 0.05
    # hand-evaluable witness: lambda = (0.3, 0.4), a.b = 0.9, Alice side
    a = MeasurementSetting(1, 0, 0)
    b = MeasurementSetting(0.9, math.sqrt(1 - 0.81), 0)
    single = check_covariance(m, SINGLET, [(a, b)], [HiddenPoint((0.3, 0.4))])
    ok &= single.violations == 1
    w = single.witnesses[0]
    ok &= (w.side is Side.ALICE and w.first_value is Outcome.PLUS
           and w.second_value is Outcome.MINUS)
    ok &= (time.perf_counter() - start) < 5.0
    _report(3, "pointwise covariance failure with witness", ok)


def test_criterion_4_statistical_frame_independence():
    m = GisinSingletModel()
    g = setting_grid(10)
    pairs = [(g[i], g[(i + 3) % 10]) for i in range(10)]
    ok = all(frame_consistency(m, SINGLET, a, b, grid=2000) <= 2e-3
             for a, b in pairs)
    # while pointwise covariance fails on the same model
    from covbell.stats import sample_lambda
    report = check_covariance(m, SINGLET, pairs, sample_lambda(2, 400, SeedSpec(7)))
    ok &= report.violation_fraction > 0.05
    _report(4, "statistical frame independence despite non-covariance", ok)


def test_criterion_5_finite_no_go():
    start = time.perf_counter()
    summary = enumerate_finite()
    ok = (summary.total == 4096 and summary.covariant == 16
          and summary.max_abs_s == 4 and summary.max_abs_s_covariant == 2)
    for i in np.flatnonzero(summary.covariant_mask).tolist():
        strat = FiniteStrategy.from_index(i)
        ok &= strat.correlation_table(AB) == strat.correlation_table(BA)
    ok &= summary.s_ab.dtype.kind == "i"  # exact integer arithmetic
    ok &= (time.perf_counter() - start) < 1.0
    _report(5, "no-go at desk scale (4096 strategies, 2 vs 4)", ok)


def test_criterion_6_reduction_soundness(capsys):
    sphere = LocalSphereModel()
    g = setting_grid(4)
    pairs = [(a, b) for a in g for b in g]
    from covbell.stats import sample_lambda
    lams = sample_lambda(2, 500, SeedSpec(8))
    view = reduce_to_local(sphere, SINGLET, pairs, lams)
    ok = True
    for a, b in pairs:
        va = view.first_values(AB, SINGLET, a, lams)
        vb = view.first_values(BA, SINGLET, b, lams)
        for ordering in (AB, BA):
            alphas, betas = eval_pairs(sphere, ordering, SINGLET, a, b, lams)
            ok &= bool(np.array_equal(va, alphas) and np.array_equal(vb, betas))
            ok &= float(np.mean(va * vb)) == float(np.mean(alphas * betas))
    try:
        reduce_to_local(GisinSingletModel(), SINGLET, pairs, lams)
        ok = False
    except NotCovariantError:
        pass
    code = main(["reduce", "--model", "gisin-singlet", "--probes", "10000",
                 "--seed", "7"])
    capsys.readouterr()
    ok &= code == 2
    _report(6, "reduction soundness", ok)


def test_criterion_7_determinization():
    det = determinize(stochastic_singlet())
    gisin = GisinSingletModel()
    a = MeasurementSetting(1, 0, 0)
    ok = True
    for b in (MeasurementSetting(0.9, math.sqrt(1 - 0.81), 0),
              MeasurementSetting(0, 1, 0)):
        t_det = estimate_joint(det, AB, SINGLET, a, b, 1_000_000, SeedSpec(9))
        t_gis = exact_joint(gisin, AB, SINGLET, a, b, grid=2000)
        sigma = np.maximum(t_det.stderr, 1e-12)
        ok &= bool(np.all(np.abs(t_det.probs - t_gis.probs)
                          <= 4.0 * sigma + 1.0 / 2000))
    _report(7, "determinized stochastic rule matches the threshold model", ok)


def test_criterion_8_frame_ordering():
    ea, eb = Event(0, -1), Event(0, 1)
    ok = time_order(ea, eb, Boost(-0.5)) is AB
    ok &= time_order(ea, eb, Boost(0.5)) is BA
    try:
        time_order(ea, eb, Boost(0.0))
        ok = False
    except SimultaneousEventsError:
        pass
    rng = np.random.default_rng(10)
    for _ in range(100):
        e1 = Event(rng.uniform(-2, 2), rng.uniform(-2, 2))
        e2 = Event(rng.uniform(-2, 2), rng.uniform(-2, 2))
        boost = Boost(rng.uniform(-0.99, 0.99))
        b1, b2 = boost_event(e1, boost), boost_event(e2, boost)
        i_lab = (e2.t - e1.t) ** 2 - (e2.x - e1.x) ** 2
        i_boost = (b2.t - b1.t) ** 2 - (b2.x - b1.x) ** 2
        ok &= abs(i_lab - i_boost) <= 1e-9
    _report(8, "frame ordering and interval preservation", ok)


def test_criterion_9_reproducibility(tmp_path, capsys):
    ok = True
    jobs = {
        "tomography": ["tomography", "--settings", "grid:2", "--mode", "mc",
                       "--n", "200000", "--seed", "5"],
        "chsh": ["chsh", "--settings", "tsirelson", "--mode", "mc",
                 "--n", "200000", "--seed", "5"],
        "check": ["check-covariance", "--probes", "5000", "--seed", "5"],
    }
    for name, args in jobs.items():
        outputs = []
        for run, workers in (("r1", "1"), ("r2", "1"), ("w4", "4")):
            path = tmp_path / f"{name}-{run}.out"
            pool = [] if name == "check" else ["--workers", workers]  # no pool to size
            code = main(args + [*pool, "--output", str(path)])
            capsys.readouterr()
            ok &= code == 0
            outputs.append(path.read_bytes())
        ok &= outputs[0] == outputs[1] == outputs[2]
    _report(9, "byte-identical outputs across runs and worker counts", ok)
