"""Joint distributions, correlators, and CHSH values for ordered models.

Two estimators are provided: seeded Monte Carlo over uniform hidden points
(counter-based Philox streams, reproducible regardless of worker count) and
midpoint quadrature on [0,1]^d for exact low-dimensional checks. Indicator
integrands make higher-order quadrature rules useless; the midpoint error is
O(1/grid) and predictable.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import Outcome, dot
from .models import OrderedModel, eval_pairs

# Fixed evaluation block size; partitioning is independent of worker count so
# merged counts are bit-identical under any scheduling.
_BLOCK = 1 << 18

_IDX = {1: 0, -1: 1}  # outcome +1 -> row/col 0, -1 -> row/col 1


@dataclass(frozen=True)
class SeedSpec:
    """Seed and stream index; together they fully determine the sample sequence."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.stream < 0:
            raise ValueError("stream must be nonnegative")


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


def sample_lambda(d: int, n: int, spec: SeedSpec) -> np.ndarray:
    """n uniform points in [0,1]^d as an (n, d) array, one hidden point per row.

    Counter-based (Philox) generation keyed on (seed, stream): the output
    depends only on (d, n, seed, stream), never on call history.
    """
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    if n < 1:
        raise ValueError("need at least one sample")
    bitgen = np.random.Philox(key=np.array([spec.seed, spec.stream], dtype=np.uint64))
    return np.random.Generator(bitgen).random((n, d))


def _count_blocks(m, ordering, state, a, b, blocks, workers) -> np.ndarray:
    """2x2 outcome counts over hidden-point blocks, summed in block order so the
    result is bit-identical for any worker count."""

    def count(lams):
        alphas, betas = eval_pairs(m, ordering, state, a, b, lams)
        idx = (alphas < 0).astype(np.int64) * 2 + (betas < 0).astype(np.int64)
        return np.bincount(idx, minlength=4).reshape(2, 2)

    if workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(count, blocks))
    else:
        parts = [count(blk) for blk in blocks]
    return np.sum(parts, axis=0)


def _counts_to_stats(counts: np.ndarray, n: int, exact: bool, cell_err) -> JointStats:
    probs = counts / float(n)
    if exact:
        stderr = np.full((2, 2), cell_err)
    else:
        stderr = np.sqrt(probs * (1.0 - probs) / n)
    return JointStats(counts=counts, n=n, probs=probs, stderr=stderr, exact=exact)


def estimate_joint(m: OrderedModel, ordering, state, a, b, n: int,
                   seed: SeedSpec, workers: int = 1) -> JointStats:
    """Monte Carlo joint table over n hidden points drawn from the seed spec."""
    if n < 1:
        raise ValueError("need at least one sample")
    lams = sample_lambda(m.lambda_dim, n, seed)
    blocks = [lams[i:i + _BLOCK] for i in range(0, n, _BLOCK)]
    counts = _count_blocks(m, ordering, state, a, b, blocks, workers)
    return _counts_to_stats(counts, n, exact=False, cell_err=0.0)


@functools.lru_cache(maxsize=1)
def _lattice_blocks(d: int, grid: int) -> tuple:
    """Read-only (n, d) blocks of _BLOCK points of the midpoint lattice of
    [0,1]^d, in C order. The last lattice stays cached, so every setting pair
    of a command is scored against one lattice; the CLI clears it after each
    command."""
    mids = (np.arange(grid) + 0.5) / grid
    n = grid ** d
    blocks = []
    for i0 in range(0, n, _BLOCK):
        idx = np.arange(i0, min(i0 + _BLOCK, n))
        blk = np.empty((len(idx), d))
        for axis in reversed(range(d)):
            idx, digit = np.divmod(idx, grid)
            blk[:, axis] = mids[digit]
        blk.flags.writeable = False
        blocks.append(blk)
    return tuple(blocks)


def exact_joint(m: OrderedModel, ordering, state, a, b, grid: int,
                workers: int = 1) -> JointStats:
    """Midpoint-rule joint table on a grid^d lattice; cells sum to 1 exactly."""
    d = m.lambda_dim
    if d > 3:
        raise ValueError("use Monte Carlo: quadrature supports lambda_dim <= 3")
    if grid < 2:
        raise ValueError("grid must be at least 2")
    counts = _count_blocks(m, ordering, state, a, b, _lattice_blocks(d, grid), workers)
    return _counts_to_stats(counts, grid ** d, exact=True, cell_err=1.0 / grid)


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


def joint_tables(m: OrderedModel, ordering, state, pairs, mode: str, n: int,
                 grid: int, seed: SeedSpec, workers: int = 1) -> list:
    """One joint table per setting pair under one estimator. In MC mode pair i
    draws from stream ``seed.stream + i``, so the tables' errors are
    independent."""
    if mode == "exact":
        return [exact_joint(m, ordering, state, a, b, grid, workers=workers)
                for a, b in pairs]
    if mode == "mc":
        return [estimate_joint(m, ordering, state, a, b, n,
                               SeedSpec(seed.seed, seed.stream + i), workers=workers)
                for i, (a, b) in enumerate(pairs)]
    raise ValueError(f"unknown mode {mode!r}; use 'mc' or 'exact'")


def chsh(m: OrderedModel, ordering, state, settings, mode: str = "mc",
         n: int = 1_000_000, grid: int = 2000, seed: SeedSpec = SeedSpec(0),
         workers: int = 1) -> ChshEstimate:
    """CHSH value for the setting quadruple (a, a', b, b') under one estimator.

    In MC mode stderr combines the four independent correlator errors in
    quadrature; in exact mode it is the summed discretization bound.
    """
    terms = [correlator(table) for table in joint_tables(
        m, ordering, state, chsh_pairs(settings), mode, n, grid, seed, workers)]
    # grouped so identical-term cancellations (e.g. b = b') stay exact
    value = (terms[0].value + terms[1].value) + (terms[2].value - terms[3].value)
    if mode == "exact":
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


def records_to_json(records, config: dict) -> str:
    """JSON mirror of the CSV records, config embedded."""
    return json.dumps({"config": config, "records": list(records)},
                      sort_keys=True, indent=2) + "\n"
