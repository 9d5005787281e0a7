import json
import math
import shlex
from pathlib import Path

import pytest

from covbell import cli
from covbell.cli import main
from covbell.core import QuantumState, TimeOrdering, tsirelson_settings
from covbell.models import LocalSphereModel, make_model
from covbell.stats import SeedSpec, chsh_pairs, correlator, estimate_joint, joint_record


def _readme_cli_examples():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("covbell ")]


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


def test_reduce_gisin_exits_with_domain_error(capsys):
    code, out, err = run(["reduce", "--model", "gisin-singlet", "--probes",
                          "10000", "--seed", "7"], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["reduced"] is False
    assert doc["witness"]["side"] in ("alice", "bob")
    assert "not covariant" in err


def test_failed_reduce_honours_output(tmp_path, capsys):
    out_path = tmp_path / "reduce.json"
    code, out, err = run(["reduce", "--model", "gisin-singlet", "--probes", "100",
                          "--output", str(out_path)], capsys)
    assert code == 2
    assert out == ""
    assert "not covariant" in err
    assert json.loads(out_path.read_text())["reduced"] is False


@pytest.mark.parametrize("model", ["gisin-singlet", "determinized-singlet"])
def test_failed_reduce_names_a_witness_at_witness_cap_zero(model, capsys):
    args = ["reduce", "--model", model, "--settings", "grid:2", "--probes", "400"]
    code, out, err = run(args + ["--witness-cap", "0"], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["reduced"] is False
    _, capped_out, capped_err = run(args + ["--witness-cap", "1"], capsys)
    assert doc["witness"] == json.loads(capped_out)["witness"]
    assert err == capped_err and "not covariant" in err


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

    monkeypatch.setitem(cli._COMMANDS, "enumerate", broken)
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


@pytest.mark.parametrize("text", ["null", "[{}]", "3", '{"n": 5'])
def test_config_file_not_an_object_is_usage_error(text, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    code, _, err = run(["chsh", "--config", str(cfg_path)], capsys)
    assert code == 1
    assert "JSON object" in err


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


@pytest.mark.parametrize("args", [
    ["tomography", "--settings", "grid:2", "--mode", "mc", "--n", "1",
     "--stream", str(2 ** 64 - 1)],  # pair 1 would draw from stream 2^64
    ["tomography", "--settings", "grid:2", "--mode", "mc", "--n", "1", "--stream", str(2 ** 64)],
    ["tomography", "--settings", "grid:1", "--mode", "exact", "--grid", str(10 ** 22),
     "--workers", "1"],
])
def test_out_of_range_stream_or_lattice_is_domain_error(args, capsys):
    code, out, err = run(args, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("covbell: ")


# The config keys each subcommand reads. Every subcommand also takes seed, which
# it embeds, and workers and output, which it does not.
COMMAND_KEYS = {
    "tomography": {"model", "ordering", "settings", "mode", "n", "grid", "stream", "format"},
    "chsh": {"model", "ordering", "settings", "mode", "n", "grid", "stream"},
    "check-covariance": {"model", "settings", "stream", "probes", "witness_cap"},
    "reduce": {"model", "settings", "stream", "probes", "witness_cap"},
    "enumerate": {"format"},
    "frame-order": {"event_a", "event_b", "velocities", "format"},
}

# Flags that make each subcommand's run small and its document JSON.
SMALL_JSON_RUN = {
    "tomography": ["--settings", "grid:1", "--mode", "exact", "--grid", "2", "--format", "json"],
    "chsh": ["--mode", "exact", "--grid", "2"],
    "check-covariance": ["--settings", "grid:1", "--probes", "1"],
    "reduce": ["--model", "local-sphere", "--settings", "grid:1", "--probes", "1"],
    "enumerate": ["--format", "json"],
    "frame-order": ["--format", "json"],
}


@pytest.mark.parametrize("command", sorted(COMMAND_KEYS))
def test_each_command_takes_and_embeds_only_its_keys(command, tmp_path, capsys):
    every = {"seed", "workers", "output"}
    args = cli.build_parser().parse_args([command])
    assert vars(args).keys() == {"command", "config", *every, *COMMAND_KEYS[command]}
    out_path = tmp_path / "out.json"
    code, _, err = run([command, *SMALL_JSON_RUN[command], "--seed", "3", "--workers", "1",
                        "--output", str(out_path)], capsys)
    assert (code, err) == (0, "")
    embedded = json.loads(out_path.read_text())["config"]
    assert embedded.keys() == {"command", "seed", *COMMAND_KEYS[command]}
    cfg_path = tmp_path / "cfg.json"
    for key in sorted(set(cli._OPTIONS) - every - COMMAND_KEYS[command]):
        flag = "--" + key.replace("_", "-")
        code, out, err = run([command, flag, "1"], capsys)
        assert (code, out) == (1, "") and f"unrecognized arguments: {flag}" in err
        cfg_path.write_text(json.dumps({key: cli._OPTIONS[key][0]}))
        code, out, err = run([command, "--config", str(cfg_path)], capsys)
        assert (code, out) == (1, "") and f"unknown config keys: [{key!r}]" in err


@pytest.mark.parametrize("line", _readme_cli_examples(), ids=lambda line: line.split()[1])
def test_readme_cli_examples_take_only_known_flags(line):
    # parsed and resolved, not run
    cli._resolve_config(cli.build_parser().parse_args(shlex.split(line)[1:]))


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


def test_impossible_probe_count_is_domain_error(monkeypatch, capsys):
    def too_big(d, n, spec):
        raise MemoryError(f"Unable to allocate an array of {n} hidden points")

    monkeypatch.setattr(cli, "sample_lambda", too_big)
    code, out, err = run(["check-covariance", "--settings", "grid:1",
                          "--probes", str(10 ** 12)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("covbell: Unable to allocate")


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


def test_mc_pair_i_draws_from_stream_plus_i(capsys):
    # tomography record i and chsh term i both come from SeedSpec(seed, stream + i)
    common = ["--model", "local-sphere", "--settings", "tsirelson", "--mode", "mc",
              "--n", "3000", "--seed", "8", "--stream", "4", "--ordering", "BA"]
    model, ordering = make_model("local-sphere"), TimeOrdering.BA
    tables = [estimate_joint(model, ordering, QuantumState.SINGLET, a, b, 3000,
                             SeedSpec(8, 4 + i))
              for i, (a, b) in enumerate(chsh_pairs(tsirelson_settings()))]
    code, out, _ = run(["tomography", *common, "--format", "json"], capsys)
    assert code == 0
    want = [joint_record(ordering, a, b, table, 3000, 8)
            for (a, b), table in zip(chsh_pairs(tsirelson_settings()), tables)]
    assert json.loads(out)["records"] == want
    code, out, _ = run(["chsh", *common], capsys)
    assert code == 0
    assert json.loads(out)["terms"] == [
        {"E": t.value, "stderr": t.stderr, "n": t.n} for t in map(correlator, tables)]
