"""The benchmark's workloads: fixed CLI jobs, their point counts and their checks.

Each workload is a list of jobs, each job one ``covbell`` command line. The
workload seed reaches the program only as ``--seed``. ``points`` is the
workload's fixed count of hidden-point evaluations: one lattice cell or sample
x setting pair x ordering, with each covariance probe counted as 2 orderings.
Why each workload exists is recorded in README.md beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import checks

# Layers (covbell modules) each workload must record spans in when traced.
_TOMO_LAYERS = ("cli", "core", "models", "stats")
_NOGO_LAYERS = ("cli", "core", "models", "stats", "covariance", "spacetime")

# frame-order velocities: evenly spaced in (-1, 1), never exactly 0, so every
# frame has a definite ordering for the default events (0,-1) and (0,1).
_VELOCITIES = ",".join(repr(-0.999 + 1.998 * k / 999) for k in range(1000))
_SMOKE_VELOCITIES = ",".join(repr(-0.9 + 1.8 * k / 9) for k in range(10))


@dataclass(frozen=True)
class Job:
    """One CLI invocation. ``output`` names a file the job writes with
    ``--output`` (relative to the run's work directory), or is None."""

    argv: tuple
    check: Callable
    points: int
    output: str | None = None

    def command(self, seed: int, workdir) -> list:
        argv = list(self.argv) + ["--seed", str(seed)]
        if self.output:
            argv += ["--output", str(workdir / self.output)]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple
    setup: Job  # the first job at minimal size, timed for setup_s
    layers: tuple

    @property
    def points(self) -> int:
        return sum(job.points for job in self.jobs)


def _setup(job: Job) -> Job:
    return Job(job.argv, checks.ran, 0, job.output)


def _tomography(model, settings_n, grid, check):
    argv = ("tomography", "--model", model, "--settings", f"grid:{settings_n}",
            "--mode", "exact", "--grid", str(grid), "--workers", "2")
    return Job(argv, check, settings_n ** 2 * grid ** 2)


def _chsh(n):
    argv = ("chsh", "--model", "gisin-singlet", "--settings", "tsirelson",
            "--mode", "mc", "--n", str(n), "--workers", "2")
    return Job(argv, checks.chsh_tsirelson, 4 * n)


def _probe_points(settings_n, probes):
    pairs = settings_n ** 2
    return pairs * max(1, probes // pairs)


def _check_covariance(settings_n, probes):
    argv = ("check-covariance", "--model", "gisin-singlet",
            "--settings", f"grid:{settings_n}", "--probes", str(probes))
    return Job(argv, checks.gisin_not_covariant, 2 * _probe_points(settings_n, probes))


def _reduce(settings_n, probes):
    argv = ("reduce", "--model", "local-sphere",
            "--settings", f"grid:{settings_n}", "--probes", str(probes))
    # two orderings per probe in the covariance check, then one local-view
    # evaluation per probe for the reported correlators
    return Job(argv, checks.sphere_reduced, 3 * _probe_points(settings_n, probes))


_ENUMERATE = Job(("enumerate",), checks.enumeration, 0, output="enumerate.csv")


def _frame_order(velocities):
    return Job(("frame-order", "--velocities=" + velocities), checks.frame_order, 0)


def _nogo(cov_probes, red_probes, velocities):
    return (_check_covariance(5, cov_probes), _reduce(5, red_probes),
            _ENUMERATE, _frame_order(velocities))


def _build(smoke: bool) -> dict:
    if smoke:
        gisin_grid, sphere_grid, gisin_n, sphere_n = 400, 400, 2, 2
        chsh_n, cov_probes, red_probes, velocities = 20_000, 5_000, 5_000, _SMOKE_VELOCITIES
    else:
        gisin_grid, sphere_grid, gisin_n, sphere_n = 1000, 1000, 5, 3
        chsh_n, cov_probes, red_probes, velocities = 4_000_000, 5_000_000, 1_000_000, _VELOCITIES
    workloads = [
        Workload("tomo-exact-gisin",
                 (_tomography("gisin-singlet", gisin_n, gisin_grid, checks.gisin_tables),),
                 _setup(_tomography("gisin-singlet", 1, 2, None)), _TOMO_LAYERS),
        Workload("tomo-exact-sphere",
                 (_tomography("local-sphere", sphere_n, sphere_grid, checks.sphere_tables),),
                 _setup(_tomography("local-sphere", 1, 2, None)), _TOMO_LAYERS),
        Workload("chsh-mc", (_chsh(chsh_n),),
                 _setup(_chsh(1)), _TOMO_LAYERS),
        Workload("nogo-scan", _nogo(cov_probes, red_probes, velocities),
                 _setup(_check_covariance(1, 1)), _NOGO_LAYERS),
    ]
    return {w.name: w for w in workloads}


WORKLOADS = _build(smoke=False)
SMOKE_WORKLOADS = _build(smoke=True)
