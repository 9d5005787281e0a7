"""Joint distributions, correlators, and CHSH values for ordered models.

Two estimators are provided: seeded Monte Carlo over uniform hidden points
(counter-based Philox streams, reproducible regardless of worker count) and
midpoint quadrature on [0,1]^d for exact low-dimensional checks. Indicator
integrands make higher-order quadrature rules useless; the midpoint error is
O(1/grid) and predictable.
"""

from __future__ import annotations

import csv
import io
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import Outcome
from .models import OrderedModel

# Fixed evaluation block size; partitioning is independent of worker count so
# merged counts are bit-identical under any scheduling.
_BLOCK = 1 << 18

_CHUNK = 1 << 13  # rows per Philox draw when filling a column-major sample block

_IDX = {1: 0, -1: 1}  # outcome +1 -> row/col 0, -1 -> row/col 1


@dataclass(frozen=True)
class SeedSpec:
    """Seed and stream index; together they fully determine the sample sequence."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")
        if not (0 <= self.stream < 2**64):
            raise ValueError("stream must fit in 64 unsigned bits")


@dataclass(frozen=True)
class JointStats:
    """2x2 outcome table indexed by (alpha, beta), +1 before -1.

    Monte Carlo tables carry integer counts and binomial standard errors;
    exact quadrature tables carry lattice-cell counts, n = grid^d, and a
    discretization bound in stderr.
    """

    counts: np.ndarray
    n: int
    probs: np.ndarray
    stderr: np.ndarray
    exact: bool = False

    def prob(self, alpha: Outcome, beta: Outcome) -> float:
        return float(self.probs[_IDX[int(alpha)], _IDX[int(beta)]])


@dataclass(frozen=True)
class CorrelationEstimate:
    """Correlator E = sum alpha*beta P(alpha,beta); n = 0 for exact results."""

    value: float
    stderr: float
    n: int


def _sample_block(d: int, spec: SeedSpec, start: int, rows: int) -> np.ndarray:
    """Rows start..start+rows of the (seed, stream) sample sequence of [0,1]^d,
    drawn without the rows before it: Philox yields 4 words per counter step.
    The block is column-major, as models read one coordinate at a time. Draws
    of _CHUNK rows fill it and continue one word stream, so its values are
    those of one (rows, d) draw, without a second block-sized buffer."""
    if start * d % 4:
        raise ValueError("a sample block must start on a Philox counter step")
    bitgen = np.random.Philox(key=np.array([spec.seed, spec.stream], dtype=np.uint64))
    bitgen.advance(start * d // 4)
    gen = np.random.Generator(bitgen)
    blk = np.empty((rows, d), order="F")
    for i in range(0, rows, _CHUNK):
        blk[i:i + _CHUNK] = gen.random((min(_CHUNK, rows - i), d))
    return blk


def sample_lambda(d: int, n: int, spec: SeedSpec) -> np.ndarray:
    """n uniform points in [0,1]^d as an (n, d) array, one hidden point per row.

    Counter-based (Philox) generation keyed on (seed, stream): the output
    depends only on (d, n, seed, stream), never on call history. The array is
    column-major, like every engine block; models take either layout.
    """
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    if n < 1:
        raise ValueError("need at least one sample")
    return _sample_block(d, spec, 0, n)


def _lattice_block(d: int, grid: int, start: int, rows: int) -> np.ndarray:
    """Rows start..start+rows of the midpoint lattice of [0,1]^d in C order, as
    a read-only column-major array: every setting pair of a pool task reads the
    same block, one contiguous column per coordinate. Axis j holds runs of
    grid^(d-1-j) equal midpoints, so each column is the 1-D midpoints tiled
    over the runs the block meets, each repeated its length."""
    blk = np.empty((rows, d), order="F")
    run = 1
    for axis in reversed(range(d)):
        first = start // run
        runs = (start + rows - 1) // run - first + 1
        period = (np.arange(first, first + min(runs, grid)) % grid + 0.5) / grid
        mids = np.tile(period, -(-runs // period.size))[:runs]
        if run == 1:  # every run is one row
            blk[:, axis] = mids
        else:
            lengths = np.full(runs, run)
            lengths[0] -= start - first * run
            lengths[-1] -= (first + runs) * run - start - rows
            blk[:, axis] = np.repeat(mids, lengths)
        run *= grid
    blk.flags.writeable = False
    return blk


def _count_blocks(m, ordering, state, pairs, n, make_block, workers) -> np.ndarray:
    """(k, 2, 2) outcome counts of k setting pairs over n hidden points, one
    ``m.count_pairs`` call per block. At most ``workers`` pool tasks run, task t
    making blocks t, t + tasks, ... with make_block(start, rows) and summing their
    counts; integer sums do not depend on order, so the result is bit-identical
    for any worker count."""
    starts = range(0, n, _BLOCK)
    tasks = max(1, min(workers, len(starts)))

    def count(task):
        counts = np.zeros((len(pairs), 2, 2), dtype=np.int64)
        for start in starts[task::tasks]:
            counts += m.count_pairs(ordering, state, pairs,
                                    make_block(start, min(_BLOCK, n - start)))
        return counts

    if tasks == 1:
        return count(0)
    with ThreadPoolExecutor(max_workers=tasks) as pool:
        return np.sum(list(pool.map(count, range(tasks))), axis=0)


def _counts_to_stats(counts: np.ndarray, n: int, grid=None) -> JointStats:
    """The table of n points; an exact one (grid given) carries the 1/grid cell bound."""
    probs = counts / float(n)
    if grid is None:
        stderr = np.sqrt(probs * (1.0 - probs) / n)
    else:
        stderr = np.full((2, 2), 1.0 / grid)
    return JointStats(counts=counts, n=n, probs=probs, stderr=stderr, exact=grid is not None)


def estimate_joint(m: OrderedModel, ordering, state, a, b, n: int,
                   seed: SeedSpec, workers: int = 1) -> JointStats:
    """Monte Carlo joint table over n hidden points drawn from the seed spec."""
    if n < 1:
        raise ValueError("need at least one sample")
    d = m.lambda_dim
    counts = _count_blocks(m, ordering, state, [(a, b)], n,
                           lambda start, rows: _sample_block(d, seed, start, rows), workers)
    return _counts_to_stats(counts[0], n)


def exact_joint(m: OrderedModel, ordering, state, a, b, grid: int,
                workers: int = 1) -> JointStats:
    """Midpoint-rule joint table on a grid^d lattice; cells sum to 1 exactly."""
    return exact_tables(m, ordering, state, [(a, b)], grid, workers)[0]


def correlator(j: JointStats) -> CorrelationEstimate:
    """E = P(+,+) + P(-,-) - P(+,-) - P(-,+), with propagated error."""
    if j.n == 0 and not j.exact:
        raise ValueError("empty statistics: no samples and not an exact table")
    p = j.probs
    value = float(p[0, 0] + p[1, 1] - p[0, 1] - p[1, 0])
    # absorb rounding just past the physical bound
    if 1.0 < abs(value) < 1.0 + 1e-12:
        value = float(np.sign(value))
    if j.exact:
        stderr = float(np.sum(j.stderr))  # conservative discretization bound
        n = 0
    else:
        stderr = float(np.sqrt(max(0.0, 1.0 - value * value) / j.n))
        n = j.n
    return CorrelationEstimate(value=value, stderr=stderr, n=n)


@dataclass(frozen=True)
class ChshEstimate:
    """CHSH combination S = E(a,b) + E(a,b') + E(a',b) - E(a',b')."""

    value: float
    stderr: float
    terms: tuple


def chsh_pairs(settings) -> list:
    """The CHSH setting pairs (a,b), (a,b'), (a',b), (a',b') of (a, a', b, b')."""
    a, ap, b, bp = settings
    return [(a, b), (a, bp), (ap, b), (ap, bp)]


def exact_tables(m: OrderedModel, ordering, state, pairs, grid: int,
                 workers: int = 1) -> list:
    """Midpoint-rule joint tables of every setting pair, scored on one pass over
    the grid^d lattice."""
    d = m.lambda_dim
    if d > 3:
        raise ValueError("use Monte Carlo: quadrature supports lambda_dim <= 3")
    if grid < 2:
        raise ValueError("grid must be at least 2")
    if grid ** d >= 2**63:
        raise ValueError(f"grid^{d} lattice points exceed 64-bit index arithmetic")
    counts = _count_blocks(m, ordering, state, pairs, grid ** d,
                           lambda start, rows: _lattice_block(d, grid, start, rows), workers)
    return [_counts_to_stats(c, grid ** d, grid) for c in counts]


def sample_tables(m: OrderedModel, ordering, state, pairs, n: int, seed: SeedSpec,
                  workers: int = 1) -> list:
    """Monte Carlo joint tables of every setting pair over n hidden points each:
    pair i draws from stream ``seed.stream + i``, so the tables' errors are
    independent."""
    return [estimate_joint(m, ordering, state, a, b, n,
                           SeedSpec(seed.seed, seed.stream + i), workers=workers)
            for i, (a, b) in enumerate(pairs)]


def chsh(tables) -> ChshEstimate:
    """CHSH value of the four joint tables of ``chsh_pairs`` order.

    Monte Carlo tables' correlator errors are independent and add in
    quadrature; exact tables' discretization bounds are summed.
    """
    terms = [correlator(table) for table in tables]
    # grouped so identical-term cancellations (e.g. b = b') stay exact
    value = (terms[0].value + terms[1].value) + (terms[2].value - terms[3].value)
    if tables[0].exact:
        stderr = float(sum(t.stderr for t in terms))
    else:
        stderr = float(np.sqrt(sum(t.stderr ** 2 for t in terms)))
    return ChshEstimate(value=value, stderr=stderr, terms=tuple(terms))


# ---------------------------------------------------------------------------
# Record emission (CSV / JSON mirrors)

CSV_COLUMNS = ["ordering", "ax", "ay", "az", "bx", "by", "bz",
               "ppp", "ppm", "pmp", "pmm", "E", "stderr", "n_or_grid", "seed"]


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    if isinstance(x, bool):
        return str(int(x))
    return str(x)


def joint_record(ordering, a, b, table: JointStats, n_or_grid: int, seed: int) -> dict:
    """One output record: setting pair, cell probabilities, correlator."""
    est = correlator(table)
    return {
        "ordering": ordering.value,
        "ax": a.x, "ay": a.y, "az": a.z,
        "bx": b.x, "by": b.y, "bz": b.z,
        "ppp": table.prob(Outcome.PLUS, Outcome.PLUS),
        "ppm": table.prob(Outcome.PLUS, Outcome.MINUS),
        "pmp": table.prob(Outcome.MINUS, Outcome.PLUS),
        "pmm": table.prob(Outcome.MINUS, Outcome.MINUS),
        "E": est.value,
        "stderr": est.stderr,
        "n_or_grid": n_or_grid,
        "seed": seed,
    }


def records_to_csv(records, config: dict, columns=CSV_COLUMNS, notes=()) -> str:
    """CSV text with the resolved config, then each note, as leading comment
    lines. Floats are written with 17 significant digits, booleans as 0/1."""
    buf = io.StringIO()
    buf.write("# config = " + json.dumps(config, sort_keys=True) + "\n")
    for note in notes:
        buf.write(f"# {note}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for rec in records:
        writer.writerow([_fmt(rec[col]) for col in columns])
    return buf.getvalue()


def records_to_json(payload: dict, config: dict) -> str:
    """JSON document of the payload's keys with the resolved config under
    ``config``, keys sorted."""
    return json.dumps({"config": config, **payload}, sort_keys=True, indent=2) + "\n"
