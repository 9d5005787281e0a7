"""Tests of the benchmark harness itself, on the smoke-sized workloads.

Run from the repository root: python3 -m pytest -q benchmarks/tests
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import SMOKE_WORKLOADS, WORKLOADS, Workload  # noqa: E402

run.import_covbell(ROOT)
from covbell.cli import main as cli_main  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def smoke_runs():
    """Two identical smoke runs of every workload at both levels."""
    args = ("--workload", "all", "--seed", "5", "--seconds", "0", "--trace", "both", "--smoke")
    return [_bench(*args) for _ in range(2)]


def _summary(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_is_correct_and_reports_every_metric(smoke_runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for proc in smoke_runs:
        assert proc.returncode == 0, proc.stderr
        summary = _summary(proc)
        assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
        expected = {f"{w}/{name}": unit for w in WORKLOADS for name, unit in units.items()}
        assert {k: v["unit"] for k, v in summary["metrics"].items()} == expected
        for line in proc.stdout.splitlines()[1:-1]:
            assert line.startswith("#") or line.split()[-1] in units.values()


def test_counts_repeat_exactly_across_runs(smoke_runs):
    first, second = (_summary(p)["metrics"] for p in smoke_runs)
    counted = [f"{w}/{name}" for w in WORKLOADS for name, _, _, repeats in PER_LAYER if repeats]
    assert counted
    assert {k: first[k]["value"] for k in counted} == {k: second[k]["value"] for k in counted}


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in PER_LAYER]
    assert set(SMOKE_WORKLOADS) == set(WORKLOADS)


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "chsh-mc", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_child_peak_rss_excludes_the_benchmarks_own(tmp_path):
    # A child's ru_maxrss starts at the resident size of its spawner, so a
    # job spawned straight from a large benchmark process reports that size.
    ballast = np.ones(100 * 2**20 // 8)  # 100 MB resident in this process
    workload = SMOKE_WORKLOADS["nogo-scan"]
    bench = run.Bench(ROOT, workload, seed=1, seconds=0, smoke=True)
    bench.workdir = tmp_path
    child = bench.spawn(workload.setup)
    assert child.returncode == 0, child.error
    assert 10 < child.rss_mb < ballast.nbytes / 2**20


def test_tracer_reports_a_missed_binding():
    tracer = Tracer()
    cli = sys.modules["covbell.cli"]
    with tracer:
        assert tracer.unpatched_bindings() == []
        wrapped = cli.exact_joint
        cli.exact_joint = sys.modules["covbell.stats"].exact_joint.__wrapped__
        try:
            assert tracer.unpatched_bindings() == ["covbell.cli.exact_joint"]
        finally:
            cli.exact_joint = wrapped


def test_traced_run_fails_when_an_expected_layer_records_nothing(tmp_path):
    tomo = SMOKE_WORKLOADS["tomo-exact-gisin"]
    workload = Workload("tomo-expecting-covariance", tomo.jobs, tomo.setup,
                        tomo.layers + ("covariance",))
    bench = run.Bench(ROOT, workload, seed=1, seconds=0, smoke=True)
    bench.workdir = tmp_path
    bench.layers()
    assert bench.problems
    assert set(bench.problems) == {"no spans recorded in layers ['covariance']"}
    assert bench.failures() == []


def _cli(*argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli_main(list(argv)) == 0
    return buf.getvalue()


def _edit_json(text, **changes) -> bytes:
    doc = json.loads(text)
    doc.update(changes)
    return json.dumps(doc).encode()


def test_checks_accept_real_outputs_and_reject_wrong_ones(tmp_path):
    tables = _cli("tomography", "--settings", "grid:2", "--mode", "exact", "--grid", "400")
    assert checks.gisin_tables(tables.encode(), None) == []
    lines = tables.splitlines()
    first = lines[2].split(",")
    first[7] = repr(float(first[7]) + 3e-3)  # ppp off by more than 2e-3
    assert checks.gisin_tables("\n".join(lines[:2] + [",".join(first)] + lines[3:]).encode(), None)
    assert checks.sphere_tables(tables.encode(), None)  # singlet tables are not local-sphere's

    exact = _cli("chsh", "--settings", "tsirelson", "--mode", "exact", "--grid", "1000")
    assert checks.chsh_tsirelson(exact.encode(), None) == []
    assert checks.chsh_tsirelson(_edit_json(exact, S=2.0), None)
    mc = _cli("chsh", "--settings", "tsirelson", "--mode", "mc", "--n", "20000", "--seed", "3")
    assert checks.chsh_tsirelson(mc.encode(), None) == []
    stderr = json.loads(mc)["stderr"]
    assert checks.chsh_tsirelson(_edit_json(mc, S=checks.TSIRELSON + 6 * stderr), None)

    cov = _cli("check-covariance", "--settings", "grid:2", "--probes", "400")
    assert checks.gisin_not_covariant(cov.encode(), None) == []
    assert checks.gisin_not_covariant(_edit_json(cov, violation_fraction=0.01), None)

    red = _cli("reduce", "--model", "local-sphere", "--settings", "grid:2", "--probes", "400")
    assert checks.sphere_reduced(red.encode(), None) == []
    assert checks.sphere_reduced(_edit_json(red, reduced=False), None)
    doc = json.loads(red)
    doc["correlators"][1]["E"] += 0.5
    assert checks.sphere_reduced(json.dumps(doc).encode(), None)

    out = tmp_path / "s.csv"
    summary = _cli("enumerate", "--output", str(out))
    assert checks.enumeration(summary.encode(), out.read_bytes()) == []
    assert checks.enumeration(summary.replace("covariant=16", "covariant=17").encode(),
                              out.read_bytes())
    assert checks.enumeration(summary.encode(), out.read_bytes().replace(b"\n1,0,", b"\n1,1,"))

    frames = _cli("frame-order", "--velocities=-0.5,0.25")
    assert checks.frame_order(frames.encode(), None) == []
    assert checks.frame_order(frames.replace(",BA", ",AB").encode(), None)
