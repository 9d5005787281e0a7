"""Reference implementations the tests compare covbell against: the singlet's
closed-form joint table, the per-strategy view of the finite no-go scan, a
local-sphere whose exact tables take the block engine, a CSV writer that
formats one cell at a time, the tables of frame-order and enumerate as one
dict per row, and a command line run as the console script runs it, in a fresh
process."""

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
from covbell.models import LocalSphereModel, OrderedModel
from covbell.spacetime import Boost, SimultaneousEventsError, boost_event, time_order
from covbell.stats import JointStats


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
