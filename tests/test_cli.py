import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covbell import cli, stats
from covbell.cli import main
from covbell.core import (MeasurementSetting, QuantumState, TimeOrdering, setting_grid,
                          tsirelson_settings)
from covbell.covariance import enumerate_finite
from covbell.models import LocalSphereModel, make_model
from covbell.spacetime import Event, is_spacelike
from covbell.stats import (CSV_COLUMNS, SeedSpec, chsh_pairs, correlator, exact_joint,
                           joint_record, sample_lambda)
from oracles import (enumeration_rows, frame_order_rows, per_pair_chsh, per_pair_rows,
                     per_pair_stats, row_dict_document, standalone)
from property_inputs import EVENT, VELOCITY


README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _readme_cli_examples():
    """Each ``covbell`` line of README's CLI block, with the exit code its comment states."""
    block = README.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples, comment = [], ""
    for line in block.splitlines():
        if line.startswith("#"):
            comment = line
        elif line.startswith("covbell "):
            code = int(re.search(r"\(exit (\d)", comment).group(1))
            examples.append(pytest.param(line, code, id=line.split()[1]))
    return examples


def _readme_key_table() -> dict:
    """{(command, mode or None): keys} from README's table of subcommand keys."""
    rows = README.split("| subcommand | mode | keys |\n|---|---|---|\n", 1)[1]
    table = {}
    for row in rows[:rows.index("\n\n")].splitlines():
        commands, mode, keys = (cell.strip() for cell in row.strip("|").split("|"))
        for command in re.findall(r"`([a-z-]+)`", commands):
            table[command, next(iter(re.findall(r"`(\w+)`", mode)), None)] = set(keys.split(", "))
    return table


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chsh_exact_gisin(capsys):
    code, out, _ = run(["chsh", "--model", "gisin-singlet", "--settings",
                        "tsirelson", "--mode", "exact", "--grid", "2000"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["S"] == pytest.approx(2.0 * math.sqrt(2.0), abs=5e-3)
    assert doc["config"]["mode"] == "exact"


def test_chsh_mc_seeded(capsys):
    code, out, _ = run(["chsh", "--settings", "tsirelson", "--mode", "mc",
                        "--n", "200000", "--seed", "11"], capsys)
    assert code == 0
    assert json.loads(out)["S"] == pytest.approx(2.0 * math.sqrt(2.0), abs=0.02)


def test_enumerate_summary_line(capsys):
    code, out, _ = run(["enumerate"], capsys)
    assert code == 0
    assert out.strip() == "total=4096 covariant=16 max_S=4 max_S_covariant=2"


def test_enumerate_strategy_csv(tmp_path, capsys):
    out_path = tmp_path / "strategies.csv"
    code, _, _ = run(["enumerate", "--output", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("# config = ")
    assert lines[1] == "id,covariant,S_AB,S_BA"
    assert len(lines) == 4098


def _assert_same_document(got: str, want: str):
    """got == want, reported by the first line that differs: pytest's own diff of
    two 4000-line documents takes minutes."""
    same = got == want
    assert same, next((f"line {i}: {g!r} != {w!r}" for i, (g, w)
                       in enumerate(zip(got.splitlines(), want.splitlines())) if g != w),
                      f"{len(got)} != {len(want)} characters")


def _frame_order_matches_the_row_dict_oracle(velocities, fmt, event_a=(0, -1), event_b=(0, 1)):
    """frame-order's document, or its exit 2 and message where the oracle raises
    (a bad velocity, or a boosted coordinate that overflows, which Event rejects)."""
    spec = ",".join(map(repr, velocities))
    events = {"event_a": ",".join(map(repr, event_a)), "event_b": ",".join(map(repr, event_b))}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["frame-order", "--event-a=" + events["event_a"],
                     "--event-b=" + events["event_b"], "--velocities=" + spec, "--format", fmt])
    ea, eb = Event(*event_a), Event(*event_b)
    try:
        rows = frame_order_rows(ea, eb, velocities)
    except ValueError as exc:
        assert (code, out.getvalue(), err.getvalue()) == (2, "", f"covbell: {exc}\n")
        return
    assert (code, err.getvalue()) == (0, "")
    spacelike = is_spacelike(ea, eb)
    config = {"command": "frame-order", **events, "format": fmt, "seed": 0, "velocities": spec}
    _assert_same_document(out.getvalue(), row_dict_document(
        fmt, config, {"spacelike": spacelike, "rows": rows}, "rows", [f"spacelike = {spacelike}"]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_frame_order_documents_match_the_row_dict_oracle(data):
    # numpy warns of an overflow as an error (pytest.ini), so every one must be silenced
    event_a = data.draw(st.one_of(st.just((0, -1)), EVENT), label="event a")
    event_b = data.draw(st.one_of(st.just((0, 1)), EVENT), label="event b")
    pool = data.draw(st.lists(VELOCITY, min_size=1, max_size=5), label="distinct velocities")
    # drawn from a small pool, so velocities repeat
    velocities = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12),
                           label="velocities")
    for fmt in ("csv", "json"):
        _frame_order_matches_the_row_dict_oracle(velocities, fmt, event_a, event_b)


# Each is the oracle's exit 2: x' overflows while t' does not; both t' overflow to
# the same -inf; the first bad velocity names the error, an overflow or a NaN.
@pytest.mark.parametrize("event_a,event_b,velocities", [
    ((0.0, 1.7e308), (0.0, 1.0), [0.5]),
    ((0.0, 1e308), (0.0, 1.5e308), [0.999999]),
    ((0.0, 1e308), (0.0, 1.0), [0.999999, math.nan]),
    ((0.0, 1e308), (0.0, 1.0), [math.nan, 0.999999]),
    ((0.0, 1e308), (0.0, 1.0), [0.1, 2.0, 0.999999]),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_frame_order_fails_where_the_oracle_does(event_a, event_b, velocities, fmt):
    with pytest.raises(ValueError):
        frame_order_rows(Event(*event_a), Event(*event_b), velocities)
    _frame_order_matches_the_row_dict_oracle(velocities, fmt, event_a, event_b)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_frame_order_at_benchmark_size_matches_the_row_dict_oracle(fmt):
    # the nogo-scan workload's 1000 velocities, evenly spaced over [-0.999, 0.999]
    _frame_order_matches_the_row_dict_oracle([-0.999 + 1.998 * k / 999 for k in range(1000)], fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_enumerate_documents_match_the_row_dict_oracle(fmt, tmp_path, capsys):
    out_path = tmp_path / "strategies"
    code, _, _ = run(["enumerate", "--format", fmt, "--output", str(out_path)], capsys)
    assert code == 0
    summary = enumerate_finite()
    payload = {**summary.to_dict(), "strategies": enumeration_rows(summary)}
    config = {"command": "enumerate", "format": fmt, "seed": 0}
    _assert_same_document(out_path.read_text(),
                          row_dict_document(fmt, config, payload, "strategies"))


def test_reduce_gisin_exits_with_domain_error(capsys):
    code, out, err = run(["reduce", "--model", "gisin-singlet", "--probes",
                          "10000", "--seed", "7"], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["reduced"] is False
    assert doc["witness"]["side"] in ("alice", "bob")
    assert re.fullmatch(r"covbell: model is not covariant on probe set: .+\n", err)


def test_failed_reduce_honours_output(tmp_path, capsys):
    out_path = tmp_path / "reduce.json"
    code, out, err = run(["reduce", "--model", "gisin-singlet", "--probes", "100",
                          "--output", str(out_path)], capsys)
    assert code == 2
    assert out == ""
    assert "not covariant" in err
    assert json.loads(out_path.read_text())["reduced"] is False


@pytest.mark.parametrize("model", ["gisin-singlet", "determinized-singlet"])
def test_failed_reduce_names_the_first_witness_check_covariance_reports(model, capsys):
    args = ["--model", model, "--settings", "grid:2", "--probes", "400", "--seed", "5"]
    code, out, err = run(["reduce", *args], capsys)
    assert code == 2 and "not covariant" in err
    doc = json.loads(out)
    code, out, _ = run(["check-covariance", *args], capsys)
    assert code == 0
    report = json.loads(out)
    assert set(doc) == {"config", "reduced", "witness", "checked", "violations",
                        "violation_fraction"}
    assert doc["reduced"] is False
    assert doc["witness"] == report["witnesses"][0]
    for key in ("checked", "violations", "violation_fraction"):
        assert doc[key] == report[key]


def test_reduce_local_sphere_succeeds(capsys):
    code, out, _ = run(["reduce", "--model", "local-sphere", "--probes",
                        "2000", "--seed", "7"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["reduced"] is True
    assert len(doc["correlators"]) == 25


def test_check_covariance_report(capsys):
    code, out, _ = run(["check-covariance", "--model", "gisin-singlet",
                        "--probes", "10000", "--seed", "7"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["checked"] == 10000
    assert doc["violation_fraction"] > 0.05
    assert len(doc["witnesses"]) >= 1


def test_frame_order_table(capsys):
    code, out, _ = run(["frame-order", "--event-a=0,-1", "--event-b=0,1",
                        "--velocities=-0.5,0,0.5", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["spacelike"] is True
    orderings = [r["ordering"] for r in doc["rows"]]
    assert orderings == ["AB", "simultaneous", "BA"]


def test_unknown_model_is_usage_error(capsys):
    code, _, err = run(["chsh", "--model", "does-not-exist"], capsys)
    assert code == 1
    assert "unknown model" in err


def test_internal_key_error_is_not_a_usage_error(monkeypatch, capsys):
    def broken(cfg):
        raise KeyError("internal")

    monkeypatch.setitem(cli._COMMANDS, "enumerate", (broken, *cli._COMMANDS["enumerate"][1:]))
    with pytest.raises(KeyError, match="internal"):
        main(["enumerate"])


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(["frobnicate"], capsys)
    assert code == 1


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run([], capsys)
    assert code == 1


def test_tomography_csv_output(tmp_path, capsys):
    out_path = tmp_path / "t.csv"
    code, _, _ = run(["tomography", "--settings", "grid:2", "--mode", "mc",
                      "--n", "20000", "--seed", "3",
                      "--output", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[1].startswith("ordering,ax,ay,az")
    assert len(lines) == 6  # comment + header + 4 pairs


def test_byte_identical_across_runs_and_workers(tmp_path, capsys):
    base = ["tomography", "--settings", "grid:2", "--mode", "mc",
            "--n", "100000", "--seed", "5"]
    outputs = []
    for name, workers in (("a", "1"), ("b", "1"), ("c", "4")):
        path = tmp_path / f"{name}.csv"
        code, _, _ = run(base + ["--workers", workers, "--output", str(path)],
                         capsys)
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("args", [
    ["tomography", "--settings", "grid:1", "--mode", "mc", "--n", "3"],
    ["tomography", "--settings", "grid:1", "--mode", "exact", "--grid", "2", "--format", "json"],
    ["chsh", "--mode", "exact", "--grid", "2"],
    ["check-covariance", "--settings", "grid:2", "--probes", "400"],
    ["reduce", "--model", "local-sphere", "--settings", "grid:1", "--probes", "10"],
    ["reduce", "--settings", "grid:2", "--probes", "400"],
    ["frame-order"],
    ["frame-order", "--format", "json"],
], ids=["tomography-csv", "tomography-json", "chsh", "check-covariance", "reduce-succeeds",
        "reduce-fails", "frame-order-csv", "frame-order-json"])
def test_output_file_holds_the_document_stdout_would(args, tmp_path, capsys):
    code, out, err = run(args, capsys)
    out_path = tmp_path / "doc"
    ran = run(args + ["--output", str(out_path)], capsys)
    assert out_path.read_text() == out
    # with --output, only chsh writes stdout: its value
    doc = json.loads(out) if args[0] == "chsh" else None
    value = f"S = {doc['S']:.17g} +/- {doc['stderr']:.17g}\n" if doc else ""
    assert ran == (code, value, err)


@pytest.mark.parametrize("argv,code", [
    (["frame-order", "--velocities=0.5"], 0),
    (["frame-order", "--frobnicate"], 1),
    (["frame-order", "--velocities=2"], 2),
])
def test_console_script_exits_with_mains_code(argv, code):
    # a fresh process: entry() freezes the collector, which pytest's own must not be
    exit_code, _, err = standalone(argv)
    assert exit_code == code
    assert (err == "") == (code == 0)


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = {"model": "gisin-singlet", "settings": "tsirelson", "mode": "exact",
           "grid": 200}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, _ = run(["chsh", "--config", str(cfg_path), "--grid", "400"],
                       capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["grid"] == 400  # flag wins over file
    assert doc["config"]["mode"] == "exact"  # file wins over default


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"modle": "gisin-singlet"}))
    code, _, err = run(["chsh", "--config", str(cfg_path)], capsys)
    assert code == 1
    assert "unknown config keys" in err


@pytest.mark.parametrize("command,file_cfg", [
    ("tomography", {"n": "100"}),
    ("tomography", {"n": True}),
    ("chsh", {"grid": 2.5}),
    ("tomography", {"mode": "exakt"}),
    ("chsh", {"mode": "exakt"}),
    ("tomography", {"format": "xml"}),
    ("tomography", {"ordering": "CA"}),
    ("chsh", {"model": "does-not-exist"}),
    ("frame-order", {"velocities": 0.5}),
    ("chsh", {"workers": 0}),
    ("check-covariance", {"witness_cap": -1}),
])
def test_config_file_bad_value_is_usage_error(command, file_cfg, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(file_cfg))
    code, out, err = run([command, "--config", str(cfg_path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("covbell: ") and "Traceback" not in err
    assert next(iter(file_cfg)) in err


@pytest.mark.parametrize("text", ["null", "[{}]", "3", '{"n": 5', b'\xff\xfe{"n": 5}',
                                  "[" * 100_000])
def test_config_file_not_an_object_is_usage_error(text, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(text if isinstance(text, bytes) else text.encode())
    code, _, err = run(["chsh", "--config", str(cfg_path)], capsys)
    assert code == 1
    assert "JSON object" in err


@pytest.mark.parametrize("config", ["missing.json", ".", ""])
def test_config_file_that_cannot_be_read_is_domain_error(config, tmp_path, capsys):
    # an empty path is opened like any other, not read as "no config file"
    code, out, err = run(["chsh", "--config", str(tmp_path / config) if config else ""], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("covbell: [Errno ") and "Traceback" not in err


@pytest.mark.parametrize("path", ["missing/doc", "", "."],
                         ids=["missing-directory", "empty", "directory"])
@pytest.mark.parametrize("args", [
    ["tomography", "--settings", "tsirelson", "--n", "100"],
    ["chsh", "--n", "100"],
    ["enumerate"],
    ["reduce", "--probes", "4", "--settings", "tsirelson"],
    ["frame-order"],
])
def test_output_that_cannot_be_opened_is_domain_error(path, args, tmp_path, capsys):
    # an empty path is opened like any other, not read as "write to stdout"; the
    # path is checked before any work, so enumerate prints no summary and a
    # reduce that would fail names no reason
    missing = tmp_path / "missing"
    code, out, err = run(args + ["--output", str(tmp_path / path) if path else ""], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("covbell: [Errno ") and err.count("\n") == 1
    assert not missing.exists()


def test_output_is_checked_before_any_work(monkeypatch, tmp_path, capsys):
    calls = []
    monkeypatch.setattr(cli, "sample_tables", lambda *args: calls.append("sample_tables"))
    monkeypatch.setattr(stats, "_count_blocks", lambda *args: calls.append("_count_blocks"))
    code, out, err = run(["tomography", "--settings", "grid:5", "--n", "1000000",
                          "--output", str(tmp_path / "missing" / "x.csv")], capsys)
    assert (code, out, calls) == (2, "", [])
    assert err.startswith("covbell: [Errno 2] No such file or directory: ")


class _SettingGridCalled(Exception):
    pass


def _refuse_setting_grid(n):
    raise _SettingGridCalled(n)


@pytest.mark.parametrize("command", [
    ["tomography", "--mode", "exact", "--grid", "2"],
    ["tomography", "--n", "1"],
    ["check-covariance", "--probes", "400000000"],
    ["reduce"],
])
def test_grid_settings_past_the_pair_cap_exit_2_before_any_pair_is_built(command, monkeypatch,
                                                                          capsys):
    # the cap is checked on N^2 before setting_grid runs: were it not, the refusing
    # setting_grid would raise through main at once, and no pair would be allocated;
    # an N of more digits than int() converts is decided by its digit count
    monkeypatch.setattr(cli, "setting_grid", _refuse_setting_grid)
    for count in ("20000", "9" * 5000):
        code, out, err = run([*command, "--settings", f"grid:{count}"], capsys)
        assert (code, out) == (2, "")
        assert err == (f"covbell: settings 'grid:{count}': {count}^2 setting pairs exceed the "
                       f"cap of {cli._PAIR_CAP:,}\n")


def test_pair_cap_is_one_million_pairs_inclusive(monkeypatch):
    monkeypatch.setattr(cli, "setting_grid", _refuse_setting_grid)
    assert cli._PAIR_CAP == 10 ** 6
    with pytest.raises(_SettingGridCalled):  # 1000^2 pairs are within the cap
        cli._setting_pairs("grid:1000")
    with pytest.raises(ValueError, match=r"1001\^2 setting pairs exceed the cap of 1,000,000"):
        cli._setting_pairs("grid:1001")
    # leading zeros, ASCII or not, are no digits of N
    for spec in ("grid:" + "0" * 5000 + "1000", "grid:\u0660\u0661\u0660\u0660\u0660"):
        with pytest.raises(_SettingGridCalled, match="1000"):
            cli._setting_pairs(spec)
    with pytest.raises(ValueError, match=r": 1001\^2 setting pairs"):
        cli._setting_pairs("grid:" + "\u0660" * 5000 + "1001")


class _SampleBlockDrawn(Exception):
    pass


def _refuse_sample_block(*args):
    raise _SampleBlockDrawn(args)


@pytest.mark.parametrize("command", ["tomography", "chsh"])
def test_monte_carlo_past_the_sample_cap_exits_2_before_any_block_is_drawn(command, monkeypatch,
                                                                           capsys):
    # n x 4 tsirelson pairs one past the cap: a block drawn would raise through main
    monkeypatch.setattr(stats, "_sample_block", _refuse_sample_block)
    n = stats._SAMPLE_CAP // 4 + 1
    code, out, err = run([command, "--settings", "tsirelson", "--mode", "mc", "--n", str(n)],
                         capsys)
    assert (code, out) == (2, "")
    assert err == (f"covbell: {n} samples x 4 setting pairs exceed the Monte Carlo cap "
                   "of 100,000,000,000\n")


def test_sample_cap_is_10_to_the_11_sample_points_inclusive(monkeypatch):
    monkeypatch.setattr(stats, "_sample_block", _refuse_sample_block)
    assert stats._SAMPLE_CAP == 10 ** 11
    m, pairs = make_model("gisin-singlet"), chsh_pairs(tsirelson_settings())
    with pytest.raises(_SampleBlockDrawn):  # 2.5e10 samples x 4 pairs are within the cap
        stats.sample_tables(m, TimeOrdering.AB, QuantumState.SINGLET, pairs, 25 * 10 ** 9,
                            SeedSpec(0), workers=1)
    with pytest.raises(ValueError, match="exceed the Monte Carlo cap of 100,000,000,000"):
        stats.sample_tables(m, TimeOrdering.AB, QuantumState.SINGLET, pairs, 25 * 10 ** 9 + 1,
                            SeedSpec(0), workers=1)


def _shared_counts(m, ordering, pairs, seed, n):
    """Each pair's own one-pair counts over the seed's n hidden points, which all share."""
    lams = sample_lambda(m.lambda_dim, n, SeedSpec(seed))
    return [m.count_pairs(ordering, QuantumState.SINGLET, [pair])(lams)[0] for pair in pairs]


@pytest.mark.parametrize("model", ["gisin-singlet", "local-sphere"])
@pytest.mark.parametrize("mode", [("exact", "--grid", "301"), ("mc", "--n", "2000")],
                         ids=["exact", "mc"])
def test_many_pair_tomography_equals_the_per_pair_oracle(model, mode, capsys):
    # grid:20 is 400 pairs; each record is built from its pair's own one-pair table
    # (exact_joint, or its count on the seed's shared sample) by the per-pair reference
    m, grid_or_n = make_model(model), int(mode[2])
    g = setting_grid(20)
    pairs = [(a, b) for a in g for b in g]
    if mode[0] == "exact":
        counts = [exact_joint(m, TimeOrdering.BA, QuantumState.SINGLET, a, b, grid_or_n).counts
                  for a, b in pairs]
        n, grid = grid_or_n ** 2, grid_or_n
    else:
        counts = _shared_counts(m, TimeOrdering.BA, pairs, 4, grid_or_n)
        n, grid = grid_or_n, None
    rows = per_pair_rows(TimeOrdering.BA, pairs, counts, n, grid, grid_or_n, 4)
    for fmt in ("csv", "json"):
        docs = []
        for workers in ("1", "2"):
            code, out, _ = run(["tomography", "--model", model, "--settings", "grid:20",
                                "--ordering", "BA", "--mode", *mode, "--seed", "4",
                                "--format", fmt, "--workers", workers], capsys)
            assert code == 0
            docs.append(out)
        assert docs[0] == docs[1]
        config = (json.loads(docs[0].split("\n", 1)[0][len("# config = "):]) if fmt == "csv"
                  else json.loads(docs[0])["config"])
        assert docs[0] == row_dict_document(fmt, config, {"records": rows}, "records")


@pytest.mark.parametrize("args", [
    ["check-covariance", "--probes", "0"],
    ["reduce", "--probes", "-5"],
    ["tomography", "--settings", "grid:x"],
    ["tomography", "--settings", "grid:0"],
    ["check-covariance", "--settings", "grid:-2"],
    ["tomography", "--mode", "exakt"],
    ["chsh", "--settings", "tsirelson", "--workers", "-3"],
    ["check-covariance", "--witness-cap", "-1"],
    ["tomography", "--settings", "[[1,0"],
    ["chsh", "--settings", "[[1,0"],
    ["chsh", "--settings", "[" * 100_000],  # nested past the JSON decoder's recursion limit
    ["tomography", "--settings", "tsirelsen"],
    ["chsh", "--settings", "grid:5"],
    ["tomography", "--settings", "[[1,0,0]]"],
    ["check-covariance", "--settings", "[]"],
    ["chsh", "--settings", "[[1,0,0],[0,0,1]]"],
    ["frame-order", "--event-a", "abc"],
    ["frame-order", "--event-b", "0,1,2"],
    ["frame-order", "--velocities=0.5,x"],
    ["check-covariance", "--probes", "49"],
    ["reduce", "--settings", "tsirelson", "--probes", "10"],
])
def test_bad_flag_value_is_usage_error(args, capsys):
    code, out, err = run(args, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("covbell: ")
    # the last flag of each case holds the bad value, and the error names its key
    bad_flag = [a for a in args if a.startswith("--")][-1].split("=")[0]
    assert bad_flag[2:].replace("-", "_") in err


def test_an_error_naming_a_line_break_is_still_one_line(capsys):
    # argparse names an unrecognized argument as given; main escapes its line breaks
    assert run(["frame-order", "--a\nb=1\r\n"], capsys) == (
        1, "", "covbell: unrecognized arguments: --a\\nb=1\n")


def test_nan_setting_is_domain_error(capsys):
    code, out, err = run(["tomography", "--settings", "[[[NaN,0,0],[1,0,0]]]",
                          "--mode", "exact", "--grid", "10"], capsys)
    assert code == 2
    assert out == ""
    assert "unit-norm" in err


def test_exact_tomography_leaves_no_cache_behind(monkeypatch, capsys):
    models = []

    def make(name):
        models.append(make_model(name))
        return models[-1]

    monkeypatch.setattr(cli, "make_model", make)
    code, _, _ = run(["tomography", "--model", "local-sphere", "--settings", "tsirelson",
                      "--mode", "exact", "--grid", "600", "--workers", "2"], capsys)
    assert code == 0
    assert vars(models[0]) == {}


@pytest.mark.parametrize("command", ["reduce", "check-covariance"])
def test_sphere_directions_once_per_probe_array(command, direction_computations, capsys):
    code, _, _ = run([command, "--model", "local-sphere", "--settings", "grid:5",
                      "--probes", "10000"], capsys)
    assert code == 0
    assert direction_computations == [400]


def test_out_of_range_lattice_is_domain_error(capsys):
    code, out, err = run(["tomography", "--settings", "grid:1", "--mode", "exact",
                          "--grid", str(10 ** 22), "--workers", "1"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("covbell: ")


def test_engine_job_above_the_cost_cap_is_domain_error(capsys):
    # local-sphere's lattice_counts keeps the engine's cap: 25 pairs x 10^12 points pass it
    code, out, err = run(["tomography", "--model", "local-sphere", "--settings", "grid:5",
                          "--mode", "exact", "--grid", str(10 ** 6)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("covbell: ") and "cap" in err and "Traceback" not in err


def test_threshold_model_counts_a_1e14_cell_lattice_in_a_fresh_process():
    """Exact tables of gisin-singlet at grid 1e7 come from 1-D midpoint counts."""
    script = ("import sys, time\n"
              "from covbell.cli import main\n"
              "start = time.perf_counter()\n"
              "code = main(['tomography', '--settings', 'grid:3', '--mode', 'exact',"
              " '--grid', '10000000'])\n"
              "print(code, time.perf_counter() - start, file=sys.stderr)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    code, seconds = done.stderr.split()
    assert (done.returncode, code) == (0, "0")
    assert float(seconds) < 1.0
    rows = done.stdout.splitlines()[2:]
    assert len(rows) == 9 and all(row.endswith(",10000000,0") for row in rows)


def test_local_sphere_counts_a_9e8_cell_lattice_in_a_fresh_process():
    """Exact tables of local-sphere at grid 30000 (9 pairs, 8.1e9 pair-points) come
    from one run of +1 cells per u-line and setting, not from scoring every cell."""
    script = ("import sys, time, tracemalloc\n"
              "from covbell.cli import main\n"
              "from covbell.core import QuantumState, TimeOrdering, setting_grid\n"
              "from covbell.models import LocalSphereModel\n"
              "start = time.perf_counter()\n"
              "code = main(['tomography', '--model', 'local-sphere', '--settings', 'grid:3',"
              " '--mode', 'exact', '--grid', '30000'])\n"
              "seconds = time.perf_counter() - start\n"
              "pairs = [(a, b) for a in setting_grid(3) for b in setting_grid(3)]\n"
              "tracemalloc.start()\n"
              "LocalSphereModel().lattice_counts(TimeOrdering.AB, QuantumState.SINGLET, pairs,"
              " 30000)\n"
              "print(code, seconds, tracemalloc.get_traced_memory()[1], file=sys.stderr)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    code, seconds, peak = done.stderr.split()
    assert (done.returncode, code) == (0, "0")
    assert float(seconds) < 1.0
    assert int(peak) < 8 << 20  # a grid^2 mask alone would take 900 MB
    rows = done.stdout.splitlines()[2:]
    assert len(rows) == 9 and all(row.endswith(",30000,0") for row in rows)


@pytest.mark.parametrize("n, pool", [(1, False), (300_000, True)])
def test_only_a_run_that_starts_a_pool_imports_one(n, pool):
    """One block is counted on the calling thread; 3 blocks on 2 workers take a pool."""
    script = ("import os, sys\n"
              "import covbell.cli\n"
              "os.cpu_count = lambda: 2  # two pool tasks on any host\n"
              f"code = covbell.cli.main(['chsh', '--n', '{n}', '--workers', '2'])\n"
              "print(code, 'concurrent.futures' in sys.modules, file=sys.stderr)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (done.returncode, done.stderr) == (0, f"0 {pool}\n")


# The config keys each subcommand reads. Every subcommand also takes seed, which
# it embeds, and output, which it does not; only tomography and chsh take
# workers, which no document embeds. They also take the estimator keys of their
# mode, and those only.
COMMAND_KEYS = {
    "tomography": {"model", "ordering", "settings", "mode", "workers", "format"},
    "chsh": {"model", "ordering", "settings", "mode", "workers"},
    "check-covariance": {"model", "settings", "probes", "witness_cap"},
    "reduce": {"model", "settings", "probes"},
    "enumerate": {"format"},
    "frame-order": {"event_a", "event_b", "velocities", "format"},
}
MODE_KEYS = {"exact": {"grid"}, "mc": {"n"}}

# Flags that make each run small and its document JSON, by subcommand and mode.
SMALL_JSON_RUN = {
    ("tomography", "exact"): ["--settings", "grid:1", "--mode", "exact", "--grid", "2",
                              "--format", "json"],
    ("tomography", "mc"): ["--settings", "grid:1", "--mode", "mc", "--n", "3", "--format", "json"],
    ("chsh", "exact"): ["--mode", "exact", "--grid", "2"],
    ("chsh", "mc"): ["--mode", "mc", "--n", "3"],
    ("check-covariance", None): ["--settings", "grid:1", "--probes", "1"],
    ("reduce", None): ["--model", "local-sphere", "--settings", "grid:1", "--probes", "1"],
    ("enumerate", None): ["--format", "json"],
    ("frame-order", None): ["--format", "json"],
}


@pytest.mark.parametrize("command", sorted(COMMAND_KEYS))
def test_each_command_takes_and_embeds_only_its_keys(command, tmp_path, capsys):
    every = {"seed", "output"}
    modes = MODE_KEYS if "mode" in COMMAND_KEYS[command] else {None: set()}
    # the parser takes every mode's keys; the resolved mode refuses the others'
    parsed = {"command", "config", *every, *COMMAND_KEYS[command], *set().union(*modes.values())}
    assert vars(cli.build_parser().parse_args([command])).keys() == parsed
    out_path, cfg_path = tmp_path / "out.json", tmp_path / "cfg.json"
    for mode, mode_keys in modes.items():
        keys = COMMAND_KEYS[command] | mode_keys
        pool = ["--workers", "1"] if "workers" in keys else []
        code, _, err = run([command, *SMALL_JSON_RUN[command, mode], "--seed", "3", *pool,
                            "--output", str(out_path)], capsys)
        assert (code, err) == (0, "")
        embedded = json.loads(out_path.read_text())["config"]
        assert embedded.keys() == {"command", "seed", *keys} - {"workers"}
        for key in sorted(set(cli._OPTIONS) - every - keys):
            flag = "--" + key.replace("_", "-")
            code, out, err = run([command, *(["--mode", mode] if mode else []), flag, "1"], capsys)
            refused = f"mode {mode} does not read {key}" if key in parsed else None
            assert (code, out) == (1, "")
            assert (refused or f"unrecognized arguments: {flag}") in err
            in_mode = {"mode": mode} if mode else {}
            cfg_path.write_text(json.dumps({**in_mode, key: cli._OPTIONS[key][0]}))
            code, out, err = run([command, "--config", str(cfg_path)], capsys)
            assert (code, out) == (1, "")
            assert (refused or f"unknown config keys: [{key!r}]") in err


def test_only_the_commands_that_count_on_the_pool_take_workers(monkeypatch, capsys):
    pooled = set()
    count_blocks = stats._count_blocks

    def counting(*args):
        pooled.add(command)  # the command of the run under way
        return count_blocks(*args)

    monkeypatch.setattr(stats, "_count_blocks", counting)
    for command, mode in SMALL_JSON_RUN:
        code, _, err = run([command, *SMALL_JSON_RUN[command, mode]], capsys)
        assert (code, err) == (0, "")
    assert pooled == {command for command in cli._COMMANDS if "workers" in cli._keys(command)}


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
@pytest.mark.parametrize("command,mode", sorted(SMALL_JSON_RUN, key=str))
def test_out_of_range_seed_is_domain_error_in_every_command(command, mode, seed, tmp_path,
                                                             capsys):
    # every output embeds its seed, including those of commands that draw no samples
    out_path = tmp_path / "out.json"
    code, out, err = run([command, *SMALL_JSON_RUN[command, mode], "--seed", str(seed),
                          "--output", str(out_path)], capsys)
    assert (code, out) == (2, "")
    assert err == "covbell: seed must fit in 64 unsigned bits\n"
    assert not out_path.exists()


def _flag_dict(flags) -> dict:
    """The keys of a run's ``--key value`` flags, typed as a config file holds them."""
    return {flag[2:].replace("-", "_"): int(val) if val.isdecimal() else val
            for flag, val in zip(flags[::2], flags[1::2])}


@pytest.mark.parametrize("command,mode", sorted(SMALL_JSON_RUN, key=str))
def test_a_dict_the_flags_and_a_config_file_resolve_alike(command, mode, tmp_path, capsys):
    flags = [*SMALL_JSON_RUN[command, mode], "--seed", "3"]
    given = _flag_dict(flags)
    resolved = cli._resolve_config(command, given)
    assert given == _flag_dict(flags)  # the resolver leaves its input as it was
    want = {key: val for key, val in resolved.items() if key not in ("workers", "output")}
    out_path, cfg_path = tmp_path / "out.json", tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(given))
    for source in (flags, ["--config", str(cfg_path)]):
        code, _, err = run([command, *source, "--output", str(out_path)], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out_path.read_text())["config"] == want


@pytest.mark.parametrize("command,bad,flags", [
    ("chsh", {"workers": 0}, ["--workers", "0"]),
    ("check-covariance", {"witness_cap": -1}, ["--witness-cap", "-1"]),
    ("tomography", {"mode": "exakt"}, ["--mode", "exakt"]),
    ("chsh", {"mode": "exact", "n": 5}, ["--mode", "exact", "--n", "5"]),
    # argparse refuses a flag of the wrong type, and no flag names an unknown key
    ("tomography", {"n": "100"}, None),
    ("chsh", {"modle": "gisin-singlet"}, None),
])
def test_a_bad_value_is_the_same_usage_error_from_every_source(command, bad, flags, tmp_path,
                                                               capsys):
    with pytest.raises(cli.UsageError) as raised:
        cli._resolve_config(command, bad)
    message = f"covbell: {raised.value}\n"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(bad))
    assert run([command, "--config", str(cfg_path)], capsys) == (1, "", message)
    if flags:
        assert run([command, *flags], capsys) == (1, "", message)


@pytest.mark.parametrize("args,file_cfg,message", [
    (["chsh", "--mode", "exact", "--grid", "2", "--n", "0"], None, "mode exact does not read n"),
    (["tomography", "--mode", "exact", "--grid", "50", "--stream", "5"], None,
     "unrecognized arguments: --stream 5"),
    (["tomography", "--grid", "300"], None, "mode mc does not read grid"),
    (["chsh", "--mode", "mc", "--grid", "10"], None, "mode mc does not read grid"),
    (["chsh"], {"mode": "exact", "n": 5}, "mode exact does not read n"),
])
def test_a_key_the_mode_does_not_read_is_usage_error(args, file_cfg, message, tmp_path, capsys):
    if file_cfg:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(file_cfg))
        args = args + ["--config", str(cfg_path)]
    assert run(args, capsys) == (1, "", f"covbell: {message}\n")


def test_help_names_the_mode_that_reads_each_estimator_key(capsys):
    for command in ("tomography", "chsh"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "--grid GRID midpoint lattice points per axis (mode exact only)" in text
        assert "--n N samples per setting pair (mode mc only)" in text


def test_readme_key_table_matches_the_cli():
    want = {(command, mode): set(cli._keys(command, mode)) - {"seed", "output"}
            for command in cli._COMMANDS
            for mode in (cli._MODE_KEYS if "mode" in cli._COMMANDS[command][1] else [None])}
    assert _readme_key_table() == want


@pytest.mark.parametrize("line,code", _readme_cli_examples())
def test_readme_cli_examples_take_only_known_flags(line, code, tmp_path, monkeypatch, capsys):
    # run in a temp dir: each exits with the code its comment states, none with 1
    monkeypatch.chdir(tmp_path)
    assert run(shlex.split(line)[1:], capsys)[0] == code


_README_PYTHON = [part.split("```", 1)[0] for part in README.split("```python\n")[1:]]


# ids by position, so rewording an example keeps its test's name
@pytest.mark.parametrize("block", _README_PYTHON,
                         ids=[f"block{i}" for i in range(1, len(_README_PYTHON) + 1)])
def test_readme_python_examples_run(block):
    exec(compile(block, "README.md", "exec"), {})


def test_reduce_takes_each_partys_outcomes_once_per_setting(monkeypatch, capsys):
    calls = {"first_values": 0, "second_values": 0}

    def counting(name):
        method = getattr(LocalSphereModel, name)

        def count(self, *args):
            calls[name] += 1
            return method(self, *args)
        return count

    for name in calls:
        monkeypatch.setattr(LocalSphereModel, name, counting(name))
    code, _, _ = run(["reduce", "--model", "local-sphere", "--settings", "grid:5",
                      "--probes", "1000"], capsys)
    assert code == 0
    # the covariance check takes 5 + 5 first-frame arrays and 2 second-frame
    # arrays per pair; the correlators take 5 per party again, not 2 per pair
    assert calls == {"first_values": 20, "second_values": 50}


@pytest.mark.parametrize("command", ["reduce", "check-covariance"])
def test_sphere_projects_each_setting_once_per_probe_array(command, monkeypatch, capsys):
    projections = Counter()
    as_array = MeasurementSetting.as_array

    def counting(self):
        projections[self] += 1
        return as_array(self)

    monkeypatch.setattr(MeasurementSetting, "as_array", counting)
    code, _, _ = run([command, "--model", "local-sphere", "--settings", "grid:5",
                      "--probes", "10000"], capsys)
    assert code == 0
    # both parties' outcomes in both frames, and reduce's correlators, read one
    # projection of each distinct setting: Bob's of b are Alice's of b negated
    assert projections == Counter(setting_grid(5))


def test_one_parser_serves_every_job_of_a_process(capsys):
    assert cli.build_parser() is cli.build_parser()
    jobs = [["tomography", "--grid", "300"],  # mode mc does not read grid: usage error
            ["tomography", "--settings", "grid:2", "--mode", "exact", "--grid", "20"],
            ["frame-order", "--velocities=0.25,-0.5"]]
    results = [run(argv, capsys) for argv in jobs]
    assert [code for code, _, _ in results] == [1, 0, 0]
    assert results == [standalone(argv) for argv in jobs]


def test_impossible_probe_count_is_domain_error(monkeypatch, capsys):
    def too_big(d, n, spec):
        raise MemoryError(f"Unable to allocate an array of {n} hidden points")

    monkeypatch.setattr(cli, "sample_lambda", too_big)
    code, out, err = run(["check-covariance", "--settings", "grid:1",
                          "--probes", str(10 ** 10)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("covbell: Unable to allocate")


class _ProbesDrawn(Exception):
    pass


def _refuse_probes(*args):
    raise _ProbesDrawn(args)


@pytest.mark.parametrize("command", ["check-covariance", "reduce"])
def test_probes_past_the_sample_cap_exit_2_before_any_probe_is_drawn(command, monkeypatch,
                                                                      capsys):
    # one past the cap exits 2; the cap itself passes the check and draws its probes
    monkeypatch.setattr(cli, "sample_lambda", _refuse_probes)
    probes = stats._SAMPLE_CAP + 1
    code, out, err = run([command, "--settings", "grid:1", "--probes", str(probes)], capsys)
    assert (code, out) == (2, "")
    assert err == (f"covbell: {probes} probes exceed the Monte Carlo cap "
                   "of 100,000,000,000\n")
    with pytest.raises(_ProbesDrawn):
        main([command, "--settings", "grid:1", "--probes", str(stats._SAMPLE_CAP)])


@pytest.mark.parametrize("sign", ["", "-"])
def test_config_integer_too_large_to_convert_is_named(sign, tmp_path, capsys):
    # Python converts at most 4,300 digits; the message names the number, not the file
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"seed": ' + sign + "9" * 5000 + "}")
    code, out, err = run(["chsh", "--config", str(cfg_path)], capsys)
    assert (code, out) == (1, "")
    assert err == "covbell: config file: an integer of 5,000 digits is too large\n"


def test_error_without_text_is_named(monkeypatch, capsys):
    def out_of_memory(cfg):
        raise MemoryError()

    monkeypatch.setitem(cli._COMMANDS, "enumerate",
                        (out_of_memory, *cli._COMMANDS["enumerate"][1:]))
    assert run(["enumerate"], capsys) == (2, "", "covbell: out of memory\n")

    def bare_os_error(cfg):
        raise OSError()

    monkeypatch.setitem(cli._COMMANDS, "enumerate",
                        (bare_os_error, *cli._COMMANDS["enumerate"][1:]))
    assert run(["enumerate"], capsys) == (2, "", "covbell: OSError\n")


def test_probes_must_divide_among_the_setting_pairs(capsys):
    code, out, err = run(["check-covariance", "--probes", "49"], capsys)
    assert (code, out) == (1, "")
    assert "multiple of the 25 setting pairs" in err


def test_chsh_defaults_to_tsirelson_settings(capsys):
    args = ["chsh", "--mode", "exact", "--grid", "300"]
    default = run(args, capsys)
    assert default == run(args + ["--settings", "tsirelson"], capsys)
    assert default[0] == 0


def test_explicit_setting_vectors(capsys):
    quad = json.dumps([[1, 0, 0], [0, 0, 1],
                       [-0.7071067811865475, 0, -0.7071067811865475],
                       [-0.7071067811865475, 0, 0.7071067811865475]])
    code, out, _ = run(["chsh", "--settings", quad, "--mode", "exact",
                        "--grid", "500"], capsys)
    assert code == 0
    assert json.loads(out)["S"] == pytest.approx(2.0 * math.sqrt(2.0), abs=0.01)


def test_superluminal_velocity_is_domain_error(capsys):
    code, _, err = run(["frame-order", "--event-a=0,-1", "--event-b=0,1",
                        "--velocities=1.5"], capsys)
    assert code == 2
    assert "superluminal" in err


def test_nan_velocity_is_domain_error_named_as_nan(capsys):
    code, out, err = run(["frame-order", "--velocities=nan"], capsys)
    assert (code, out, err) == (2, "", "covbell: boost velocity is NaN\n")


def test_mc_pairs_share_one_sample(capsys):
    # tomography record i and chsh term i both count pair i on the seed's one sample
    common = ["--model", "local-sphere", "--settings", "tsirelson", "--mode", "mc",
              "--n", "3000", "--seed", "8", "--ordering", "BA"]
    model, ordering = make_model("local-sphere"), TimeOrdering.BA
    pairs = chsh_pairs(tsirelson_settings())
    tables = [per_pair_stats(c, 3000) for c in _shared_counts(model, ordering, pairs, 8, 3000)]
    code, out, _ = run(["tomography", *common, "--format", "json"], capsys)
    assert code == 0
    want = [dict(zip(CSV_COLUMNS, joint_record(ordering, a, b, table, 3000, 8)))
            for (a, b), table in zip(pairs, tables)]
    assert json.loads(out)["records"] == want
    code, out, _ = run(["chsh", *common], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["terms"] == [
        {"E": t.value, "stderr": t.stderr, "n": t.n} for t in map(correlator, tables)]
    # every point of the Bell-local model scores s = 2: no sampling error
    assert (doc["S"], doc["stderr"]) == (per_pair_chsh(tables)[0], 0.0) == (2.0, 0.0)


def test_mc_chsh_value_is_the_per_point_sum_over_n(capsys):
    # 7 points that each score s = 2: S is 14 / 7, where the terms' float sum is 2 - 2^-52
    code, out, _ = run(["chsh", "--model", "local-sphere", "--n", "7", "--seed", "3",
                        "--ordering", "BA"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert sum(t["E"] for t in doc["terms"][:3]) - doc["terms"][3]["E"] != 2.0
    assert (doc["S"], doc["stderr"]) == (2.0, 0.0)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("ordering", ["AB", "BA"])
@pytest.mark.parametrize("spec", ["grid:5", "[[[0.6, 0, 0.8], [0, 1, 0]]]"])
def test_threshold_models_write_one_monte_carlo_tomography(spec, ordering, fmt, capsys):
    # one singlet rule of the same two coordinates, on one sample of more than one block:
    # the documents differ only in the model that the config names
    docs = []
    for model in ("gisin-singlet", "determinized-singlet"):
        code, out, _ = run(["tomography", "--model", model, "--settings", spec, "--mode", "mc",
                            "--n", str(stats._BLOCK + 11), "--seed", "6", "--ordering", ordering,
                            "--format", fmt], capsys)
        assert code == 0 and out.count(f'"model": "{model}"') == 1
        docs.append(out.replace(f'"model": "{model}"', '"model": ""'))
    assert docs[0] == docs[1]


@pytest.mark.parametrize("command, model", [("chsh", "gisin-singlet"), ("chsh", "local-sphere"),
                                            ("tomography", "determinized-singlet")])
def test_mc_documents_are_the_same_bytes_for_1_2_and_3_workers(command, model, monkeypatch,
                                                               capsys):
    # 3 blocks and a part: with 4 CPUs, 3 workers run 3 pool tasks
    monkeypatch.setattr(stats.os, "cpu_count", lambda: 4)
    docs = {run([command, "--model", model, "--settings", "tsirelson", "--mode", "mc",
                 "--n", str(3 * stats._BLOCK + 7), "--seed", "5", "--workers", workers],
                capsys) for workers in ("1", "2", "3")}
    assert len(docs) == 1 and next(iter(docs))[0] == 0
