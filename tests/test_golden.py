"""Golden output bytes: SHA-256 of stdout (and of the --output file, where one
is written) for CLI jobs that use no random numbers.

The hashes were re-recorded when each subcommand got its own config schema.
That change altered only the embedded config (the ``# config = `` line, or
the JSON ``config`` object): with it removed, every job's stdout and
``--output`` bytes are the same before and after it. Monte Carlo jobs and
``grid:N`` settings are left out on purpose: numpy does not promise
``Generator.random`` streams across versions, and ``setting_grid`` goes
through libm ``cos``/``sin``, so their bytes may move with the platform.
"""

import hashlib

import pytest

from covbell.cli import main

TSIRELSON_EXACT = ["--settings", "tsirelson", "--mode", "exact"]

GOLDEN = {
    "tomography-gisin": (
        ["tomography", "--model", "gisin-singlet", *TSIRELSON_EXACT, "--grid", "300"],
        "d547e33b722781d5b1de2eef0f754f4be24ed06f670bd307e296b7d91214fe99", None),
    "tomography-sphere": (
        ["tomography", "--model", "local-sphere", *TSIRELSON_EXACT, "--grid", "300"],
        "d2afedaf71f5d13e5d1232dfa1d3f218a33c5eae60da2d14ae94bc0adc10f985", None),
    "chsh": (
        ["chsh", *TSIRELSON_EXACT, "--grid", "500"],
        "0162671d07b05b48dc1137775c31e48d122a987531015f50bfce6b96380d8fdf", None),
    "enumerate": (
        ["enumerate", "--output", "F"],
        "0b9d2f64cd40c799182bfa7b8df8fac1a33e2ebdf0536603c10d0acbf31335ac",
        "638c9c2e6dd2621b956f5c8713e8ae1118919acfc378f1b0b5e11067c30c05f4"),
    "frame-order": (
        ["frame-order", "--velocities=-0.5,0,0.5"],
        "7a44d52863bb497ba277f80fb29e217b9633a56ba7a311478d2b233123315bfa", None),
    "tomography-json": (
        ["tomography", *TSIRELSON_EXACT, "--grid", "300", "--format", "json"],
        "c0ead28c4047d550683112a7c172610f6ec97b0aa07790511347cea64af48117", None),
    "enumerate-json": (
        ["enumerate", "--format", "json", "--output", "F"],
        "0b9d2f64cd40c799182bfa7b8df8fac1a33e2ebdf0536603c10d0acbf31335ac",
        "15e17d6b75c036efa09d06a3402b18a3115930f03e4164cdd3b25d0b18220011"),
    "frame-order-json": (
        ["frame-order", "--velocities=-0.5,0,0.5", "--format", "json"],
        "88dfac220009173b588d85efe8899ebd04b50f1615761556f2aaf6461182caf0", None),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output_bytes(name, tmp_path, capsys):
    args, stdout_hash, output_hash = GOLDEN[name]
    out_path = tmp_path / "out"
    code = main([str(out_path) if a == "F" else a for a in args])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert _sha256(captured.out.encode()) == stdout_hash
    if output_hash is None:
        assert not out_path.exists()
    else:
        assert _sha256(out_path.read_bytes()) == output_hash
