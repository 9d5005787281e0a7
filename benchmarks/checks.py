"""Correctness checks of CLI job outputs against closed forms.

Each check takes a job's output (stdout bytes and, if the job wrote one, its
``--output`` file bytes) and returns a list of problems; an empty list means
the output is correct. Tolerances are the acceptance suite's and are fixed.
"""

from __future__ import annotations

import csv
import json
import math

CELL_TOL = 2e-3            # exact quadrature cell vs closed form
EXACT_CHSH_TOL = 5e-3      # exact CHSH vs 2*sqrt(2)
MC_SIGMAS = 5.0            # Monte Carlo estimates vs closed form, in standard errors
MIN_VIOLATION_FRACTION = 0.05
TSIRELSON = 2.0 * math.sqrt(2.0)
ENUMERATION_LINE = "total=4096 covariant=16 max_S=4 max_S_covariant=2"


def _csv(text: str):
    """(config, rows) of a CSV output whose first line embeds the config."""
    lines = text.splitlines()
    config = json.loads(lines[0].split("=", 1)[1])
    body = [line for line in lines[1:] if not line.startswith("#")]
    return config, list(csv.DictReader(body))


def _dot(a, b) -> float:
    return max(-1.0, min(1.0, sum(x * y for x, y in zip(a, b))))


def _row_dot(row) -> float:
    return _dot([float(row[k]) for k in ("ax", "ay", "az")],
                [float(row[k]) for k in ("bx", "by", "bz")])


def _grid_pairs(settings: str) -> int:
    return int(settings.split(":", 1)[1]) ** 2


def ran(stdout: bytes, output) -> list:
    """Minimal-size setup jobs: only that they produced output."""
    return [] if stdout.strip() else ["empty stdout"]


def _tables(stdout: bytes, closed_form) -> list:
    config, rows = _csv(stdout.decode())
    problems = []
    if len(rows) != _grid_pairs(config["settings"]):
        problems.append(f"{len(rows)} records for settings {config['settings']}")
    for i, row in enumerate(rows):
        expected = closed_form(_row_dot(row))
        for cell, want in zip(("ppp", "ppm", "pmp", "pmm"), expected):
            err = abs(float(row[cell]) - want)
            if not err <= CELL_TOL:
                problems.append(f"record {i} cell {cell}: off by {err:.3g}")
    return problems


def gisin_tables(stdout: bytes, output) -> list:
    """Singlet statistics: P(alpha, beta) = (1 - alpha*beta*a.b)/4."""
    return _tables(stdout, lambda c: ((1 - c) / 4, (1 + c) / 4, (1 + c) / 4, (1 - c) / 4))


def _sphere_cells(c: float):
    # Alice sign(a.l), Bob -sign(b.l) on a uniform direction l: the signs of
    # a.l and b.l differ with probability angle(a, b)/pi.
    t = math.acos(c) / math.pi
    return (t / 2, (1 - t) / 2, (1 - t) / 2, t / 2)


def sphere_tables(stdout: bytes, output) -> list:
    """Local-sphere statistics: P(+,+) = P(-,-) = angle/(2 pi)."""
    return _tables(stdout, _sphere_cells)


def chsh_tsirelson(stdout: bytes, output) -> list:
    doc = json.loads(stdout)
    s, stderr = doc["S"], doc["stderr"]
    if doc["config"]["mode"] == "exact":
        tol = EXACT_CHSH_TOL
    else:
        if not stderr > 0:
            return [f"Monte Carlo stderr {stderr!r} is not positive"]
        tol = MC_SIGMAS * stderr
    err = abs(s - TSIRELSON)
    return [] if err <= tol else [f"S = {s!r} is {err:.3g} from 2*sqrt(2), tolerance {tol:.3g}"]


def gisin_not_covariant(stdout: bytes, output) -> list:
    doc = json.loads(stdout)
    config = doc["config"]
    pairs = _grid_pairs(config["settings"])
    problems = []
    expected = pairs * max(1, config["probes"] // pairs)
    if doc["checked"] != expected:
        problems.append(f"checked {doc['checked']} probes, expected {expected}")
    if not doc["violation_fraction"] > MIN_VIOLATION_FRACTION:
        problems.append(f"violation fraction {doc['violation_fraction']!r} too small")
    if doc["violation_fraction"] != doc["violations"] / doc["checked"]:
        problems.append("violation fraction disagrees with the counts")
    if not 1 <= len(doc["witnesses"]) <= config["witness_cap"]:
        problems.append(f"{len(doc['witnesses'])} witnesses")
    return problems


def sphere_reduced(stdout: bytes, output) -> list:
    """Local-sphere reduces; each local-view correlator is within MC_SIGMAS
    standard errors of E = -(1 - 2*angle/pi)."""
    doc = json.loads(stdout)
    if doc.get("reduced") is not True:
        return ["local-sphere did not reduce"]
    config = doc["config"]
    pairs = _grid_pairs(config["settings"])
    n = max(1, config["probes"] // pairs)
    problems = []
    if len(doc["correlators"]) != pairs:
        problems.append(f"{len(doc['correlators'])} correlators for {pairs} pairs")
    for i, rec in enumerate(doc["correlators"]):
        want = -(1.0 - 2.0 * math.acos(_dot(rec["a"], rec["b"])) / math.pi)
        tol = max(1e-12, MC_SIGMAS * math.sqrt(max(0.0, 1.0 - want * want) / n))
        if not abs(rec["E"] - want) <= tol:
            problems.append(f"correlator {i}: E = {rec['E']!r}, expected {want!r}")
    return problems


def enumeration(stdout: bytes, output) -> list:
    problems = []
    if stdout.decode().strip() != ENUMERATION_LINE:
        problems.append(f"summary line {stdout.decode().strip()!r}")
    if output is None:
        return problems + ["no strategies file"]
    _, rows = _csv(output.decode())
    ids = [int(r["id"]) for r in rows]
    covariant = [r for r in rows if r["covariant"] == "1"]
    if ids != list(range(4096)):
        problems.append("strategy ids are not 0..4095")
    if len(covariant) != 16:
        problems.append(f"{len(covariant)} covariant strategies")
    if max(abs(int(r["S_AB"])) for r in rows) != 4:
        problems.append("max |S| is not 4")
    if max(abs(int(r["S_AB"])) for r in covariant) != 2:
        problems.append("max covariant |S| is not 2")
    if any(r["S_AB"] != r["S_BA"] for r in covariant):
        problems.append("a covariant strategy has frame-dependent S")
    return problems


def frame_order(stdout: bytes, output) -> list:
    """Events (0,-1) and (0,1): t_A' = gamma*v = -t_B', so A is first iff v < 0."""
    text = stdout.decode()
    config, rows = _csv(text)
    problems = []
    if text.splitlines()[1] != "# spacelike = True":
        problems.append("events not reported spacelike")
    if len(rows) != len(str(config["velocities"]).split(",")):
        problems.append(f"{len(rows)} rows")
    for row in rows:
        v = float(row["v"])
        ta = v / math.sqrt(1.0 - v * v)
        if not (abs(float(row["tA"]) - ta) <= 1e-12 * max(1.0, abs(ta))
                and abs(float(row["tB"]) + ta) <= 1e-12 * max(1.0, abs(ta))):
            problems.append(f"v={v!r}: times {row['tA']}, {row['tB']}")
        if row["ordering"] != ("AB" if v < 0 else "BA"):
            problems.append(f"v={v!r}: ordering {row['ordering']}")
    return problems
