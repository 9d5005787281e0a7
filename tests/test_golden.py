"""Golden output bytes: SHA-256 of stdout (and of the --output file, where one
is written) for CLI jobs that use no random numbers, and of the job's payload:
its document (the --output file, where one is written, else stdout) without
the embedded config (the ``# config = `` line, or the JSON ``config`` object).

A change to what a config embeds moves the full hashes but not the payload
hashes, which show that the results are the same. The full hashes were
re-recorded when each subcommand got its own config schema, and those of the
exact tomography and chsh jobs again when each estimator mode got its own
keys; each time, every payload was unchanged. The determinized-singlet job
was recorded before the two threshold models shared a counter (now
``rule_pairs``); its payload equals gisin-singlet's, as they agree pointwise. Monte
Carlo jobs and ``grid:N`` settings are left out on purpose: numpy does not
promise ``Generator.random`` streams across versions, and ``setting_grid``
goes through libm ``cos``/``sin``, so their bytes may move with the platform.
"""

import hashlib
import json

import pytest

from covbell.cli import main
from oracles import standalone

TSIRELSON_EXACT = ["--settings", "tsirelson", "--mode", "exact"]
# the nogo-scan benchmark's 1000 velocities, evenly spaced over [-0.999, 0.999]
BENCH_VELOCITIES = "--velocities=" + ",".join(repr(-0.999 + 1.998 * k / 999) for k in range(1000))

# name: (arguments, stdout hash, --output hash or None, payload hash)
GOLDEN = {
    "tomography-gisin": (
        ["tomography", "--model", "gisin-singlet", *TSIRELSON_EXACT, "--grid", "300"],
        "77a21f9ebb1496ae99e9e11a00db496594f24dd4b0c07db30b2b87acd63f25a5", None,
        "26af41eec7665caae6e130142a84f72e9cd24a03959c199fabcf6bf428271834"),
    "tomography-sphere": (
        ["tomography", "--model", "local-sphere", *TSIRELSON_EXACT, "--grid", "300"],
        "7228bd135dfa60ff4fe4b13bb0c127de3221f2495823ddf2df1066c4df1ad103", None,
        "6bf41876ed9ebfb602dd9d96579839275e311a933126e10064176402b05852f1"),
    "tomography-determinized": (
        ["tomography", "--model", "determinized-singlet", *TSIRELSON_EXACT, "--grid", "300"],
        "2c787256e12e167e96358db4513007657fa5086e35999ae74198b7f442195ba1", None,
        "26af41eec7665caae6e130142a84f72e9cd24a03959c199fabcf6bf428271834"),
    "chsh": (
        ["chsh", *TSIRELSON_EXACT, "--grid", "500"],
        "416a3ef0e909f5d2953881ebdeca9130f8ec56f6dd6f438be4c8baee247a7273", None,
        "5d6526449775fed06b34804e2485fcce6f0bbeb860d939a17b275361a9b79698"),
    "enumerate": (
        ["enumerate", "--output", "F"],
        "0b9d2f64cd40c799182bfa7b8df8fac1a33e2ebdf0536603c10d0acbf31335ac",
        "638c9c2e6dd2621b956f5c8713e8ae1118919acfc378f1b0b5e11067c30c05f4",
        "135615408eb7ccfb531006382b076df23885074682ca8a67125bab48073120bd"),
    "frame-order": (
        ["frame-order", "--velocities=-0.5,0,0.5"],
        "7a44d52863bb497ba277f80fb29e217b9633a56ba7a311478d2b233123315bfa", None,
        "168f097a7476c91c6a2adf063c473c06b9dceb53ab980e10a4b56232736dda39"),
    "tomography-json": (
        ["tomography", *TSIRELSON_EXACT, "--grid", "300", "--format", "json"],
        "14feb51a05f40724fdf30eb1b3f98bb4695fec42269cb69bf69b1b496d486c84", None,
        "255c31d51d101c3cd844a3ab0ac81fe4b2bbf419737518cf8a80e95cfafa2937"),
    "enumerate-json": (
        ["enumerate", "--format", "json", "--output", "F"],
        "0b9d2f64cd40c799182bfa7b8df8fac1a33e2ebdf0536603c10d0acbf31335ac",
        "15e17d6b75c036efa09d06a3402b18a3115930f03e4164cdd3b25d0b18220011",
        "bec676687312216c96ef6fdf938af0f75bcf8c6266b6adc2c872a2433cf33daf"),
    "frame-order-json": (
        ["frame-order", "--velocities=-0.5,0,0.5", "--format", "json"],
        "88dfac220009173b588d85efe8899ebd04b50f1615761556f2aaf6461182caf0", None,
        "8c2f2796330d7ce258e052beccacd9d78edc696146227751a51f09e3c8e899e2"),
    "frame-order-1000": (
        ["frame-order", BENCH_VELOCITIES],
        "7a993d9462dcc332543ddca716c0ba16866c063dbba611961dfa50d6ad35cc60", None,
        "9c62d458bf9a0905f9e7cf32d44f71d344ffbb3215f40d1928d95f29ecf26caf"),
    "frame-order-1000-json": (
        ["frame-order", BENCH_VELOCITIES, "--format", "json"],
        "82e615d8d48b4aa46895fc978f983e454013d03d20f4ba4541aff97b81d174c6", None,
        "297d95ee25e043fb728d94c6a11174cd5450b73e196ad12400542d7a4507f430"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _payload(doc: str) -> str:
    """The document without its embedded config; JSON is re-dumped as the CLI dumps it."""
    if doc.startswith("{"):
        parsed = json.loads(doc)
        del parsed["config"]
        return json.dumps(parsed, sort_keys=True, indent=2) + "\n"
    lines = doc.splitlines(keepends=True)
    assert lines[0].startswith("# config = ")
    return "".join(lines[1:])


def _check(name, code, out, err, out_path):
    """The job's exit, stdout and --output file against its golden hashes."""
    _, stdout_hash, output_hash, payload_hash = GOLDEN[name]
    assert code == 0
    assert err == ""
    doc = out_path.read_text() if output_hash else out
    assert _sha256(_payload(doc).encode()) == payload_hash
    assert _sha256(out.encode()) == stdout_hash
    if output_hash is None:
        assert not out_path.exists()
    else:
        assert _sha256(out_path.read_bytes()) == output_hash


def _argv(name, out_path):
    return [str(out_path) if a == "F" else a for a in GOLDEN[name][0]]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output_bytes(name, tmp_path, capsys):
    out_path = tmp_path / "out"
    code = main(_argv(name, out_path))
    captured = capsys.readouterr()
    _check(name, code, captured.out, captured.err, out_path)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output_bytes_of_a_fresh_process(name, tmp_path):
    # the console script's exit path: nothing it does after main() may print
    out_path = tmp_path / "out"
    _check(name, *standalone(_argv(name, out_path)), out_path)
