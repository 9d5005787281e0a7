"""Reference implementations the tests compare covbell against: the singlet's
closed-form joint table, the per-strategy view of the finite no-go scan, a
local-sphere whose exact tables take the block engine, tables, correlators,
CHSH values, records and violation counts built one setting pair at a time,
each hidden point's CHSH value and covariance violation, scored through
eval_pairs, a CSV writer that formats one cell at a time, the tables of
frame-order and enumerate as one dict per row, and a command line run as the
console script runs it, in a fresh process."""

import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from covbell.core import Outcome, TimeOrdering, dot
from covbell.models import LocalSphereModel, OrderedModel, eval_pairs
from covbell.spacetime import Boost, SimultaneousEventsError, boost_event, time_order
from covbell.stats import CSV_COLUMNS, JointStats


def singlet_joint_oracle(alpha: Outcome, beta: Outcome, a, b) -> float:
    """Closed-form singlet joint probability (1 - alpha*beta*a.b)/4."""
    return (1.0 - int(alpha) * int(beta) * dot(a, b)) / 4.0


def singlet_oracle_table(a, b) -> JointStats:
    """The full analytic singlet table as an exact JointStats."""
    probs = np.array(
        [
            [singlet_joint_oracle(Outcome.PLUS, Outcome.PLUS, a, b),
             singlet_joint_oracle(Outcome.PLUS, Outcome.MINUS, a, b)],
            [singlet_joint_oracle(Outcome.MINUS, Outcome.PLUS, a, b),
             singlet_joint_oracle(Outcome.MINUS, Outcome.MINUS, a, b)],
        ]
    )
    return JointStats(counts=np.zeros((2, 2), dtype=np.int64), n=0, probs=probs,
                      stderr=np.zeros((2, 2)), exact=True)


@dataclass(frozen=True)
class FiniteStrategy:
    """Deterministic strategy over indexed settings x, y in {0,1}.

    f_ab[x] / s_ab[2x+y] answer the AB frame, f_ba[y] / s_ba[2x+y] the BA
    frame; all entries are +/-1.
    """

    f_ab: tuple
    s_ab: tuple
    f_ba: tuple
    s_ba: tuple

    def __post_init__(self):
        for name in ("f_ab", "s_ab", "f_ba", "s_ba"):
            vals = getattr(self, name)
            if any(v not in (-1, 1) for v in vals):
                raise ValueError(f"{name} entries must be +/-1")

    @classmethod
    def from_index(cls, index: int) -> "FiniteStrategy":
        if not (0 <= index < 4096):
            raise ValueError("strategy index must be in [0, 4096)")
        bits = [(index >> i) & 1 for i in range(12)]
        vals = [1 - 2 * bit for bit in bits]  # bit 0 -> +1, bit 1 -> -1
        return cls(f_ab=tuple(vals[0:2]), s_ab=tuple(vals[2:6]),
                   f_ba=tuple(vals[6:8]), s_ba=tuple(vals[8:12]))

    @property
    def index(self) -> int:
        vals = list(self.f_ab) + list(self.s_ab) + list(self.f_ba) + list(self.s_ba)
        return sum(((1 - v) // 2) << i for i, v in enumerate(vals))

    def correlation_table(self, ordering: TimeOrdering):
        """E(x,y) per setting pair, exact integers in {-1, +1}."""
        table = [[0, 0], [0, 0]]
        for x in (0, 1):
            for y in (0, 1):
                if ordering is TimeOrdering.AB:
                    table[x][y] = self.f_ab[x] * self.s_ab[2 * x + y]
                else:
                    table[x][y] = self.s_ba[2 * x + y] * self.f_ba[y]
        return table

    def chsh(self, ordering: TimeOrdering) -> int:
        t = self.correlation_table(ordering)
        return t[0][0] + t[0][1] + t[1][0] - t[1][1]

    @property
    def covariant(self) -> bool:
        return all(self.s_ba[2 * x + y] == self.f_ab[x] and
                   self.s_ab[2 * x + y] == self.f_ba[y]
                   for x in (0, 1) for y in (0, 1))


def forced_covariant_extension(f_ab, f_ba) -> FiniteStrategy:
    """The unique covariant strategy extending single-setting responses."""
    s_ab = tuple(f_ba[y] for x in (0, 1) for y in (0, 1))
    s_ba = tuple(f_ab[x] for x in (0, 1) for y in (0, 1))
    return FiniteStrategy(f_ab=tuple(f_ab), s_ab=s_ab, f_ba=tuple(f_ba), s_ba=s_ba)


class EngineSphere(LocalSphereModel):
    """local-sphere without its lattice_counts hook: exact tables score every
    lattice cell in the block engine."""

    lattice_counts = OrderedModel.lattice_counts


def per_pair_stats(counts, n: int, grid=None) -> JointStats:
    """One pair's (2, 2) table of n points from its counts; an exact one (grid
    given) carries the 1/grid cell bound."""
    probs = counts / float(n)
    if grid is None:
        stderr = np.sqrt(probs * (1.0 - probs) / n)
    else:
        stderr = np.full((2, 2), 1.0 / grid)
    return JointStats(counts=counts, n=n, probs=probs, stderr=stderr, exact=grid is not None)


def per_pair_correlator(j: JointStats) -> tuple:
    """(E, stderr, n) of one pair's (2, 2) table, one Python float at a time:
    E = ((p00 + p11) - p01) - p10, set to its sign just past the bound of 1."""
    if j.n == 0 and not j.exact:
        raise ValueError("empty statistics: no samples and not an exact table")
    p = j.probs
    value = float(p[0, 0] + p[1, 1] - p[0, 1] - p[1, 0])
    if 1.0 < abs(value) < 1.0 + 1e-12:
        value = float(np.sign(value))
    if j.exact:
        return value, float(np.sum(j.stderr)), 0
    return value, float(np.sqrt(max(0.0, 1.0 - value * value) / j.n)), j.n


def per_pair_chsh(tables) -> tuple:
    """(S, stderr) of four one-pair tables: (E0 + E1) + (E2 - E3), and the terms'
    errors summed in order, exact bounds and Monte Carlo errors alike."""
    terms = [per_pair_correlator(t) for t in tables]
    value = (terms[0][0] + terms[1][0]) + (terms[2][0] - terms[3][0])
    return value, float(sum(t[1] for t in terms))


def per_point_chsh(m, ordering, state, settings, lams) -> np.ndarray:
    """Each row's CHSH value s = a0 b0 + a1 b1 + a2 b2 - a3 b3 of the quadruple
    (a, a', b, b'), every pair scored through eval_pairs on every row."""
    a, ap, b, bp = settings
    products = [np.multiply(*eval_pairs(m, ordering, state, x, y, lams), dtype=np.int64)
                for x, y in ((a, b), (a, bp), (ap, b), (ap, bp))]
    return products[0] + products[1] + products[2] - products[3]


def any_pair_violators(m, state, pairs, lams) -> int:
    """The rows of lams on which some pair's outcomes differ between the AB and BA
    frames, each pair scored in both through eval_pairs."""
    bad = np.zeros(len(lams), dtype=bool)
    for a, b in pairs:
        for x, y in zip(eval_pairs(m, TimeOrdering.AB, state, a, b, lams),
                        eval_pairs(m, TimeOrdering.BA, state, a, b, lams)):
            bad |= x != y
    return int(np.count_nonzero(bad))


def per_pair_record(ordering, a, b, table: JointStats, n_or_grid: int, seed: int) -> tuple:
    """One tomography record of one pair's table, its cells in CSV_COLUMNS order."""
    value, stderr, _ = per_pair_correlator(table)
    return (ordering.value, a.x, a.y, a.z, b.x, b.y, b.z, *table.probs.ravel().tolist(),
            value, stderr, n_or_grid, seed)


def per_pair_rows(ordering, pairs, counts, n, grid, n_or_grid, seed) -> list:
    """tomography's table as one dict per pair, each built from that pair's counts alone."""
    return [dict(zip(CSV_COLUMNS, per_pair_record(ordering, a, b, per_pair_stats(c, n, grid),
                                                  n_or_grid, seed)))
            for (a, b), c in zip(pairs, counts)]


def per_pair_failing_cells(hist, alice, bob, ab, ba) -> list:
    """Each pair's sum of the (rank_A, rank_B) cell counts hist over the cells where
    the threshold rule (ab and ba, each frame's (firsts, levels)) gives either party
    different outcomes in AB and BA, one pair's cell grid at a time."""
    (first_ab, levels_ab), (first_ba, levels_ba) = ab, ba
    rank_a, rank_b = np.arange(hist.shape[0])[:, None], np.arange(hist.shape[1])
    counts = []
    for i in range(len(first_ab)):
        first_a, first_b = np.searchsorted(alice, first_ab[i]), np.searchsorted(bob, first_ba[i])
        lo_a, hi_a = np.searchsorted(alice, levels_ba[i])
        lo_b, hi_b = np.searchsorted(bob, levels_ab[i])
        alpha_ab, beta_ba = rank_a <= first_a, rank_b <= first_b
        alpha_ba = rank_a <= np.where(beta_ba, lo_a, hi_a)
        beta_ab = rank_b <= np.where(alpha_ab, lo_b, hi_b)
        counts.append(int(hist[(alpha_ab != alpha_ba) | (beta_ba != beta_ab)].sum()))
    return counts


def fmt_cell(x) -> str:
    """A CSV cell as covbell writes it: a bool, Python's or numpy's, as 0/1; a float
    of any width as its double value with 17 significant digits; else its str."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (float, np.floating)):
        return "%.17g" % float(x)
    return str(x)


def per_cell_csv(records, config: dict, columns, notes=()) -> str:
    """records_to_csv's document written row by row, every cell through fmt_cell
    and csv.writer. The writer ends its rows as csv's default dialect does, with
    "\\r\\n", so that every Python version quotes a cell with a line break (some
    quote only the line breaks their terminator holds); each row's "\\r\\n" is
    then written "\\n"."""
    buf = io.StringIO()
    buf.write("# config = " + json.dumps(config, sort_keys=True) + "\n")
    for note in notes:
        buf.write(f"# {note}\n")
    row = io.StringIO()
    writer = csv.writer(row)
    for cells in [columns, *([fmt_cell(rec[col]) for col in columns] for rec in records)]:
        row.seek(0)
        row.truncate()
        writer.writerow(cells)
        buf.write(row.getvalue()[:-2] + "\n")
    return buf.getvalue()


def frame_order_rows(ea, eb, velocities) -> list:
    """frame-order's table, one dict per velocity: both events' boosted times
    and their time order in that frame."""
    rows = []
    for v in velocities:
        boost = Boost(v)
        # boosted first, as frame-order does: a coordinate that overflows fails here
        ta, tb = boost_event(ea, boost).t, boost_event(eb, boost).t
        try:
            ordering = time_order(ea, eb, boost).value
        except SimultaneousEventsError:
            ordering = "simultaneous"
        rows.append({"v": v, "tA": ta, "tB": tb, "ordering": ordering})
    return rows


def enumeration_rows(summary) -> list:
    """enumerate's strategy table, one dict per strategy, from the scan's columns."""
    columns = zip(summary.covariant_mask.tolist(), summary.s_ab.tolist(), summary.s_ba.tolist())
    return [{"id": i, "covariant": covariant, "S_AB": s_ab, "S_BA": s_ba}
            for i, (covariant, s_ab, s_ba) in enumerate(columns)]


def row_dict_document(fmt: str, config: dict, payload: dict, table: str, notes=()) -> str:
    """A command's document from a payload whose table is a list of row dicts:
    in csv, that table with the notes, written by per_cell_csv; in json, the
    payload with the config."""
    if fmt == "csv":
        rows = payload[table]
        return per_cell_csv(rows, config, list(rows[0]), notes)
    return json.dumps({"config": config, **payload}, sort_keys=True, indent=2) + "\n"


def standalone(argv):
    """(exit code, stdout, stderr) of the command in a fresh process, through
    ``python -m covbell.cli``, which exits as the console script does."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-m", "covbell.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    return done.returncode, done.stdout, done.stderr
