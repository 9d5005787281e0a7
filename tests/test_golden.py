"""Golden output bytes: SHA-256 of stdout (and of the --output file, where one
is written) for CLI jobs that use no random numbers.

The first five hashes were recorded from the initial 1,419-line package, the
three ``--format json`` ones from the package before tomography, CHSH,
enumerate and frame-order shared one table loop and one CSV writer. Monte Carlo jobs
and ``grid:N`` settings are left out on purpose: numpy does not promise
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
        "40770cfa2215690632c9122f681ead9a8360119ec1969ae479b25b22001f2da9", None),
    "tomography-sphere": (
        ["tomography", "--model", "local-sphere", *TSIRELSON_EXACT, "--grid", "300"],
        "6873c0666b3db059e3a99ba8e95a689e490e0de25c396ce277e5439ff7841ce4", None),
    "chsh": (
        ["chsh", *TSIRELSON_EXACT, "--grid", "500"],
        "b53849b8a91c21a6b05525049d822928c427184f75d0e0454c57200ee3b34a74", None),
    "enumerate": (
        ["enumerate", "--output", "F"],
        "0b9d2f64cd40c799182bfa7b8df8fac1a33e2ebdf0536603c10d0acbf31335ac",
        "57773e769a67cdc502627aa7e01e72192379b113474dc8398175cc484cd09900"),
    "frame-order": (
        ["frame-order", "--velocities=-0.5,0,0.5"],
        "7c5ea779919f3e661e89b15a8f342673275d358e8615cde22b6a245d57df194c", None),
    "tomography-json": (
        ["tomography", *TSIRELSON_EXACT, "--grid", "300", "--format", "json"],
        "51717dc2d2852f6bdf7d66b615dd7875dfec64390fe2f6913a2b8c73f44f12c6", None),
    "enumerate-json": (
        ["enumerate", "--format", "json", "--output", "F"],
        "0b9d2f64cd40c799182bfa7b8df8fac1a33e2ebdf0536603c10d0acbf31335ac",
        "303a012ff5f5e800832d0b9eb37f96af340a82a7fb4114299e8e878efe6d0801"),
    "frame-order-json": (
        ["frame-order", "--velocities=-0.5,0,0.5", "--format", "json"],
        "2d6690ca968b2d294cf9e82593e40131570f4d3e5cc1c8587c93e3bfb3f45360", None),
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
