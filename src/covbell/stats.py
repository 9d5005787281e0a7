"""Joint distributions, correlators, and CHSH values for ordered models.

Both estimators count k setting pairs on one point set that all share, into one
table, the pair its leading axis: seeded Monte Carlo over uniform hidden points
(Philox draws, reproducible for any worker count) and midpoint quadrature on
[0,1]^d for exact checks, whose O(1/grid) error indicator integrands leave no
better rule to beat. Correlators, CHSH terms and records are array operations on it.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain

import numpy as np

from .models import OrderedModel, check_engine_cap

# Fixed evaluation block size; partitioning is independent of worker count so
# merged counts are bit-identical under any scheduling. One block of a pool
# task, with its count temporaries, should fit a core's L2: a d = 2 block of
# 2^17 rows is 2 MiB of float64, one core's L2 on a 2-CPU Xeon. There chsh-mc
# peaks at 42.6 MB of RSS with a norm_wall_s of 0.077 s, 2^18 rows at 47.6 MB and
# 0.080 s, and 2^16 rows at 40.0 MB and 0.084 s (medians of 4 runs each).
_BLOCK = 1 << 17

_CHUNK = 1 << 13  # rows per Philox draw when filling a column-major sample block

# Most sample-points (n x setting pairs) of one Monte Carlo call, the exact engine's
# cap: about 7 minutes at chsh-mc's 2.3e8 points a second on a 2-CPU x86 host.
_SAMPLE_CAP = 10 ** 11


@dataclass(frozen=True)
class SeedSpec:
    """The seed; it fully determines every sample sequence."""

    seed: int

    def __post_init__(self):
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class JointStats:
    """2x2 outcome tables of k setting pairs as (k, 2, 2) arrays, (pair, alpha, beta), +1 first.

    Monte Carlo tables carry integer counts and binomial standard errors;
    exact quadrature tables carry lattice-cell counts, n = grid^d, and a
    discretization bound in stderr.
    """

    counts: np.ndarray
    n: int
    probs: np.ndarray
    stderr: np.ndarray
    exact: bool = False

    def __getitem__(self, i) -> "JointStats":  # pair i's (2, 2) table; iterates over pairs
        return JointStats(self.counts[i], self.n, self.probs[i], self.stderr[i], self.exact)


@dataclass(frozen=True)
class CorrelationEstimate:
    """Correlator E = sum alpha*beta P(alpha,beta); n = 0 for exact results."""

    value: float
    stderr: float
    n: int


def _sample_block(d: int, spec: SeedSpec, start: int, rows: int) -> np.ndarray:
    """Rows start..start+rows of the seed's sample sequence of [0,1]^d (Philox keyed on
    (seed, 0)), drawn without the rows before it: Philox yields 4 words per counter step.
    The block is column-major, as models read one coordinate at a time. Draws
    of _CHUNK rows fill it and continue one word stream, so its values are
    those of one (rows, d) draw, without a second block-sized buffer."""
    if start * d % 4:
        raise ValueError("a sample block must start on a Philox counter step")
    bitgen = np.random.Philox(key=np.array([spec.seed, 0], dtype=np.uint64))
    bitgen.advance(start * d // 4)
    gen = np.random.Generator(bitgen)
    blk = np.empty((rows, d), order="F")
    for i in range(0, rows, _CHUNK):
        blk[i:i + _CHUNK] = gen.random((min(_CHUNK, rows - i), d))
    return blk


def sample_lambda(d: int, n: int, spec: SeedSpec) -> np.ndarray:
    """n uniform points in [0,1]^d as an (n, d) array, one hidden point per row.

    Counter-based (Philox) generation keyed on (seed, 0): the output depends
    only on (d, n, seed), never on call history. The array is column-major,
    like every engine block; models take either layout.
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


def _count_blocks(count, n, make_block, workers) -> np.ndarray:
    """The sum of the integer arrays ``count(block)`` over the blocks of n hidden
    points. At most ``workers`` pool tasks run, and no more than there are blocks
    or CPUs, task t making blocks t, t + tasks, ... with make_block(start, rows)
    and summing their counts; integer sums do not depend on order, so the result
    is bit-identical for any worker count."""
    starts = range(0, n, _BLOCK)
    tasks = max(1, min(workers, len(starts), os.cpu_count() or 1))

    def task_sum(task):
        return sum(count(make_block(start, min(_BLOCK, n - start)))
                   for start in starts[task::tasks])

    if tasks == 1:
        return task_sum(0)
    from concurrent.futures import ThreadPoolExecutor  # only a run with a pool pays its import
    with ThreadPoolExecutor(max_workers=tasks) as pool:
        return np.sum(list(pool.map(task_sum, range(tasks))), axis=0)


def _counts_to_stats(counts: np.ndarray, n: int, grid=None) -> JointStats:
    """Tables of n points from (..., 2, 2) counts; exact ones (grid given) carry 1/grid."""
    probs = counts / float(n)
    if grid is None:
        stderr = np.sqrt(probs * (1.0 - probs) / n)
    else:
        stderr = np.full(counts.shape, 1.0 / grid)
    return JointStats(counts=counts, n=n, probs=probs, stderr=stderr, exact=grid is not None)


def estimate_joint(m: OrderedModel, ordering, state, a, b, n: int,
                   seed: SeedSpec, workers: int = 1) -> JointStats:
    """Monte Carlo joint table over n hidden points: ``sample_tables`` of one pair."""
    return sample_tables(m, ordering, state, [(a, b)], n, seed, workers)[0]


def exact_joint(m: OrderedModel, ordering, state, a, b, grid: int,
                workers: int = 1) -> JointStats:
    """Midpoint-rule joint table on a grid^d lattice: ``exact_tables`` of one pair."""
    return exact_tables(m, ordering, state, [(a, b)], grid, workers)[0]


def correlator(j: JointStats) -> CorrelationEstimate:
    """E = P(+,+) + P(-,-) - P(+,-) - P(-,+), with propagated error (lists for k pairs)."""
    if j.n == 0 and not j.exact:
        raise ValueError("empty statistics: no samples and not an exact table")
    p = j.probs
    value = ((p[..., 0, 0] + p[..., 1, 1]) - p[..., 0, 1]) - p[..., 1, 0]
    # absorb rounding just past the physical bound
    value = np.where((1.0 < abs(value)) & (abs(value) < 1.0 + 1e-12), np.sign(value), value)
    if j.exact:  # conservative discretization bound
        return CorrelationEstimate(value.tolist(), j.stderr.sum(axis=(-2, -1)).tolist(), 0)
    stderr = np.sqrt(np.maximum(0.0, 1.0 - value * value) / j.n)
    return CorrelationEstimate(value.tolist(), stderr.tolist(), j.n)


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
                 workers: int = 1) -> JointStats:
    """Midpoint-rule joint table of the k setting pairs over the grid^d lattice:
    counted by the model's ``lattice_counts`` hook if it has one, else scored on
    one pass of the block engine, which takes at most _ENGINE_CAP pair-points."""
    d = m.lambda_dim
    if grid < 2:
        raise ValueError("grid must be at least 2")
    if grid ** d >= 2**63:
        raise ValueError(f"grid^{d} lattice points exceed 64-bit index arithmetic")
    counts = m.lattice_counts(ordering, state, pairs, grid)
    if counts is None:
        check_engine_cap(d, grid, pairs)
        counts = _count_blocks(partial(m.count_pairs, ordering, state, pairs), grid ** d,
                               partial(_lattice_block, d, grid), workers)
    return _counts_to_stats(counts, grid ** d, grid)


def _sample_counts(count, m: OrderedModel, pairs, n: int, seed: SeedSpec, workers: int):
    """The sum of ``count(block)`` over the blocks of ``sample_lambda(d, n, seed)``."""
    if n < 1:
        raise ValueError("need at least one sample")
    if n * len(pairs) > _SAMPLE_CAP:
        raise ValueError(f"{n} samples x {len(pairs)} setting pairs exceed the Monte Carlo "
                         f"cap of {_SAMPLE_CAP:,}")
    return _count_blocks(count, n, partial(_sample_block, m.lambda_dim, seed), workers)


def sample_tables(m: OrderedModel, ordering, state, pairs, n: int, seed: SeedSpec,
                  workers: int = 1) -> JointStats:
    """Monte Carlo joint table of the k setting pairs, every pair counted on one shared
    sample: ``count_pairs`` on ``sample_lambda(d, n, seed)``, block by block."""
    return _counts_to_stats(_sample_counts(partial(m.count_pairs, ordering, state, pairs),
                                           m, pairs, n, seed, workers), n)


def chsh(tables: JointStats) -> ChshEstimate:
    """CHSH value of a table of the four pairs of ``chsh_pairs``, in that order, with
    the terms' errors summed: exact tables' discretization bounds, or an upper bound
    on the error of Monte Carlo terms, which may share their points."""
    est = correlator(tables)
    e, errs = est.value, est.stderr
    terms = tuple(CorrelationEstimate(v, err, est.n) for v, err in zip(e, errs))
    # grouped so identical-term cancellations (e.g. b = b') stay exact
    return ChshEstimate(value=(e[0] + e[1]) + (e[2] - e[3]), stderr=float(sum(errs)), terms=terms)


def sample_chsh(m: OrderedModel, ordering, state, settings, n: int, seed: SeedSpec,
                workers: int = 1) -> ChshEstimate:
    """``chsh`` of the quadruple (a, a', b, b')'s Monte Carlo tables, with the standard error
    of the per-point value s, whose histogram the same pass counts: the four terms share
    one sample, so their errors are not independent and do not add in quadrature."""
    pairs = chsh_pairs(settings)
    counts = _sample_counts(partial(m.count_chsh, ordering, state, pairs), m, pairs, n, seed,
                            workers)
    s = np.arange(-4, 5, 2)  # the histogram's bins
    total, squares = int(counts[16:] @ s), int(counts[16:] @ s ** 2)
    res = chsh(_counts_to_stats(counts[:16].reshape(4, 2, 2), n))
    return replace(res, stderr=math.sqrt((n * squares - total * total) / n ** 3))


# ---------------------------------------------------------------------------
# Record emission (CSV / JSON mirrors)

_SPECIAL = re.compile('[,"\r\n]')  # a CSV cell with any of these is quoted

CSV_COLUMNS = ["ordering", "ax", "ay", "az", "bx", "by", "bz",
               "ppp", "ppm", "pmp", "pmm", "E", "stderr", "n_or_grid", "seed"]


def _fmt(x) -> str:
    """A CSV cell: floats with 17 significant digits, booleans as 0/1, numpy
    scalars as their Python counterparts, anything else as str."""
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    if isinstance(x, (bool, np.bool_)):
        return str(int(x))
    return str(x)


def joint_columns(ordering, pairs, table: JointStats, n_or_grid: int, seed: int) -> dict:
    """The output records of a table of k pairs as columns, ``{name: k cells}`` in
    CSV_COLUMNS order: setting pair, cell probabilities, correlator. Every cell
    is a Python scalar, so the writers format each column as one type."""
    k, est = len(pairs), correlator(table)
    settings = [[getattr(pair[side], axis) for pair in pairs] for side in (0, 1) for axis in "xyz"]
    cells = table.probs.reshape(k, 4).T.tolist()
    return dict(zip(CSV_COLUMNS, [(ordering.value,) * k, *settings, *cells, est.value, est.stderr,
                                  (n_or_grid,) * k, (seed,) * k]))


def joint_record(ordering, a, b, table: JointStats, n_or_grid: int, seed: int) -> tuple:
    """One output record, its cells in CSV_COLUMNS order: ``joint_columns`` of one pair."""
    return next(zip(*joint_columns(ordering, [(a, b)], table[None], n_or_grid, seed).values()))


def _quoted(cells, alone: bool) -> list:
    """Text cells quoted as csv's default dialect quotes them: a cell with a
    comma, a double quote or a line break goes in double quotes, its own
    doubled; in a one-column table an empty cell is written "" (alone), as a
    blank line would read as no row. One scan finds whether any cell needs it."""
    cells = list(cells)
    if _SPECIAL.search("".join(cells)):
        cells = ['"' + c.replace('"', '""') + '"' if _SPECIAL.search(c) else c for c in cells]
    return [c or '""' for c in cells] if alone else cells


def records_to_csv(columns: dict, config: dict, notes=()) -> str:
    """CSV text of a table given as columns, ``{name: list of cells}`` in
    column order, with the resolved config, then each note, as leading comment
    lines. Each column takes one printf conversion: a column of ints and bools
    %d (booleans as 0/1), of Python floats %.17g, and any other its cells as
    _fmt writes them, quoted where csv would; the rows are one format call."""
    convs, cols = [], []
    for values in columns.values():
        kinds = set(map(type, values))
        if kinds <= {int, bool}:
            convs.append("%d")
        elif kinds <= {float}:
            convs.append("%.17g")
        else:
            convs.append("%s")
            values = _quoted(values if kinds <= {str} else map(_fmt, values), len(columns) == 1)
        cols.append(values)
    cells = tuple(chain.from_iterable(zip(*cols)))
    head = ["# config = " + json.dumps(config, sort_keys=True), *(f"# {note}" for note in notes),
            ",".join(_quoted(map(str, columns), len(columns) == 1)), ""]
    return "\n".join(head) + (",".join(convs) + "\n") * (len(cells) // max(len(cols), 1)) % cells


def records_to_json(payload: dict, config: dict) -> str:
    """JSON document of the payload's keys with the resolved config under
    ``config``, keys sorted."""
    return json.dumps({"config": config, **payload}, sort_keys=True, indent=2) + "\n"
