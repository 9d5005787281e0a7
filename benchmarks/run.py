#!/usr/bin/env python3
"""covbell batch benchmark.

Run from the root of a covbell source tree:

    python3 benchmarks/run.py --workload tomo-exact-gisin --seed 1 --seconds 22 --trace 0

``--trace 0`` reports the end-to-end metrics. It runs the workload's CLI jobs
once each in its own ``python3 -m covbell.cli`` process from ``src/`` (through
``launch.py``, for each child's own peak RSS), at the start and at the end.
In between it times passes of the same jobs, one at a time, through
``covbell.cli.main`` in this process: a fresh process that runs the first job
at minimal size (set-up time) before each pass, and ``calibrate()`` before
each job, whose time scales the job's to a reference host speed.
``--trace 1`` reports the per-layer metrics: it runs the same jobs in-process
with the tracer installed, alternating with untraced in-process passes to
measure the tracing overhead.
``--trace both`` and ``--workload all`` print every metric, for humans.
``--smoke`` runs every workload at a tiny size.

Every job's output is checked against closed forms and compared byte for
byte with the other runs of the same job. The last line of stdout is one JSON
object: ``correct``, ``attempted`` and ``failed`` (jobs), and ``metrics``.
Result records, with provenance and raw samples, and the traced spans are
written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# Single-threaded BLAS for the children timed end to end and, when run as a
# program, for this process (set before numpy is imported below). By default
# OpenBLAS starts one thread per CPU; beside covbell's own --workers threads
# that oversubscribes a 2-CPU host, and each job then waits on whichever CPU a
# neighbour is using. proc.cpu_s is measured on children in the default
# environment, so it still shows what the default costs.
STEADY_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEFAULT_ENV = dict(os.environ)
if __name__ == "__main__":
    os.environ.update(STEADY_ENV)

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from tracer import PER_LAYER, Tracer, layer_metrics, layers_seen  # noqa: E402
from workloads import SMOKE_WORKLOADS, WORKLOADS  # noqa: E402

END_TO_END = {"norm_wall_s": "s", "norm_points_per_s": "1/s", "peak_rss_mb": "MB",
              "setup_s": "s"}
PER_LAYER_UNITS = {name: unit for name, unit, _, _ in PER_LAYER}
REPEATING = [name for name, _, _, repeats in PER_LAYER if repeats]

LAUNCHER = Path(__file__).resolve().parent / "launch.py"
MIN_PASSES = 5         # passes per run at least, however long they take
SMOKE_MIN_PASSES = 2
STOP_AFTER_S = 120     # start no pass after this, so a run ends within 180 s
JOB_TIMEOUT_S = 60

# End-to-end times are scaled to a host on which calibrate() takes this long.
CAL_REF_S = 0.06
_CAL_POINTS = np.random.default_rng(0).random((1 << 19, 3))
_CAL_AXIS = np.array([0.3, 0.4, 0.866])


def calibrate() -> float:
    """Seconds a fixed numpy kernel takes now, as a measure of host speed.

    On a shared 2-CPU host the speed a process gets drifts by up to 40% for
    seconds to minutes at a time. The kernel is shaped like covbell's hot loop
    (directions from hidden points, signs of their projections, a 2x2 count)
    and never changes, so only the host moves it. It follows jobs run in a
    warm process; fresh processes drift more, through start-up and first
    touch of memory, which is why the timed passes run in-process.
    """
    start = time.perf_counter()
    theta = np.arccos(2.0 * _CAL_POINTS[:, 1] - 1.0)
    phi = 2.0 * np.pi * _CAL_POINTS[:, 2]
    dirs = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                     np.cos(theta)], axis=-1)
    signs = dirs @ _CAL_AXIS < 0
    np.bincount(signs * 2 + (_CAL_POINTS[:, 0] < 0.5), minlength=4)
    return time.perf_counter() - start


@dataclass
class JobRun:
    job: object
    returncode: int
    stdout: bytes
    output: bytes | None
    wall: float
    rss_mb: float = 0.0
    cpu_s: float = 0.0
    error: str = ""


class Bench:
    """One benchmark run of one workload in one source tree."""

    def __init__(self, root: Path, workload, seed: int, seconds: float, smoke: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.min_passes = SMOKE_MIN_PASSES if smoke else MIN_PASSES
        self.workdir = root / ".bench_out" / f"work-{os.getpid()}"
        src = str(root / "src")
        pythonpath = DEFAULT_ENV.get("PYTHONPATH")
        self.env = dict(DEFAULT_ENV, PYTHONPATH=src + (os.pathsep + pythonpath if pythonpath else ""))
        self.steady_env = dict(self.env, **STEADY_ENV)
        self.runs = []       # every JobRun, for attempted/failed
        self.reference = {}  # job -> first JobRun, the bytes all others must match
        self.problems = []   # run-level problems (trace completeness, counts)

    # -- running jobs -------------------------------------------------------

    def _read_output(self, job):
        if not job.output:
            return None
        path = self.workdir / job.output
        return path.read_bytes() if path.exists() else None

    def _clear_output(self, job):
        if job.output:
            (self.workdir / job.output).unlink(missing_ok=True)

    def spawn(self, job, env=None) -> JobRun:
        """Run one job in a fresh interpreter, through launch.py, which
        reports the job's own wall time and rusage."""
        self._clear_output(job)
        result = self.workdir / "launch.json"
        result.unlink(missing_ok=True)
        argv = [sys.executable, "-I", "-S", str(LAUNCHER), str(result),
                sys.executable, "-m", "covbell.cli", *job.command(self.seed, self.workdir)]
        out_path = self.workdir / "stdout"
        with open(out_path, "wb") as out, open(self.workdir / "stderr", "wb") as err:
            # a session of its own, so a timeout kills the job with its launcher
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env or self.env,
                                    cwd=self.root, start_new_session=True)
            timer = threading.Timer(JOB_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                proc.wait()
            finally:
                timer.cancel()
        stderr = (self.workdir / "stderr").read_bytes().decode(errors="replace").strip()
        if not result.exists():
            return self._record(JobRun(job, proc.returncode or -1, out_path.read_bytes(),
                                       None, 0.0, error=f"launcher failed: {stderr}"))
        usage = json.loads(result.read_text())
        return self._record(JobRun(job, usage["returncode"], out_path.read_bytes(),
                                   self._read_output(job), usage["wall_s"],
                                   usage["maxrss_kb"] / 1024.0, usage["cpu_s"], stderr))

    def call(self, job) -> JobRun:
        """Run one job in this process through covbell.cli.main."""
        self._clear_output(job)
        cli = sys.modules["covbell.cli"]
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                returncode = cli.main(job.command(self.seed, self.workdir))
            error = ""
        except Exception:
            returncode, error = -1, traceback.format_exc()
        wall = time.perf_counter() - start
        return self._record(JobRun(job, returncode, buf.getvalue().encode(),
                                   self._read_output(job), wall, error=error))

    def _record(self, run: JobRun) -> JobRun:
        self.runs.append(run)
        self.reference.setdefault(run.job, run)
        return run

    def run_pass(self, runner) -> tuple:
        start = time.perf_counter()
        runs = [runner(job) for job in self.workload.jobs]
        return time.perf_counter() - start, runs

    def until_done(self, step):
        """Call step() until the run has measured for --seconds (and made
        at least min_passes calls)."""
        start = time.perf_counter()
        calls = 0
        while True:
            step()
            calls += 1
            elapsed = time.perf_counter() - start
            if (elapsed >= self.seconds and calls >= self.min_passes) or elapsed >= STOP_AFTER_S:
                return

    # -- correctness --------------------------------------------------------

    def failures(self) -> list:
        """(job argv, reason) for every failed run: a non-zero exit, an
        output that fails its closed-form check, or output bytes that
        differ from the job's first run."""
        verdicts = {}
        for job, ref in self.reference.items():
            if ref.returncode != 0:
                verdicts[job] = f"exit code {ref.returncode}: {ref.error[-500:]}"
                continue
            try:
                problems = job.check(ref.stdout, ref.output)
            except (ValueError, KeyError, IndexError, TypeError) as err:
                problems = [f"unreadable output: {err!r}"]
            verdicts[job] = "; ".join(problems[:5])
        failed = []
        for run in self.runs:
            ref = self.reference[run.job]
            if run.returncode != 0:
                reason = f"exit code {run.returncode}: {run.error[-500:]}"
            elif verdicts[run.job]:
                reason = verdicts[run.job]
            elif (run.stdout, run.output) != (ref.stdout, ref.output):
                reason = "output bytes differ from the first run of this job"
            else:
                continue
            failed.append((" ".join(run.job.argv)[:120], reason))
        return failed

    # -- the two levels -----------------------------------------------------

    def end_to_end(self) -> tuple:
        # A pass of fresh CLI processes, at the start and at the end, gives each
        # child's own peak RSS; the first gives the reference bytes that every
        # later run of a job must reproduce.
        def fresh_pass():
            return self.run_pass(lambda job: self.spawn(job, self.steady_env))

        fresh = [fresh_pass()]
        import_covbell(self.root)
        self.run_pass(self.call)  # warm-up: first calls, first touch of memory
        raw = {"raw_wall_s": [], "raw_setup_s": [], "calibrate_s": []}
        passes, setup = [], []

        def step():
            # Each time is scaled by the host speed measured just before it:
            # the set-up by the calibration that follows it, each job by the
            # one that precedes it.
            setup_wall = self.spawn(self.workload.setup, self.steady_env).wall
            wall = scaled = 0.0
            for job in self.workload.jobs:
                cal = calibrate()
                speed = CAL_REF_S / cal
                if job is self.workload.jobs[0]:
                    setup.append(setup_wall * speed)
                run = self.call(job)
                wall += run.wall
                scaled += run.wall * speed
                raw["calibrate_s"].append(cal)
            passes.append(scaled)
            raw["raw_wall_s"].append(wall)
            raw["raw_setup_s"].append(setup_wall)

        self.until_done(step)
        fresh.append(fresh_pass())
        wall = statistics.median(passes)
        metrics = {
            "norm_wall_s": wall,
            "norm_points_per_s": self.workload.points / wall,
            # the smaller of the two, so one child's stray spike does not count
            "peak_rss_mb": min(max(r.rss_mb for r in runs) for _, runs in fresh),
            "setup_s": statistics.median(setup),
        }
        samples = {"norm_wall_s": passes, "setup_s": setup, **raw,
                   "subprocess_wall_s": [wall for wall, _ in fresh]}
        return metrics, samples, []

    def layers(self) -> tuple:
        # untraced children give the process-level CPU figures and the
        # reference bytes that the in-process runs must reproduce
        sub_wall, sub_runs = self.run_pass(self.spawn)
        cpu = sum(r.cpu_s for r in sub_runs)
        import_covbell(self.root)
        plain, traced, per_pass, spans = [], [], [], []

        def step():
            plain.append(self.run_pass(self.call)[0])
            tracer = Tracer()
            with tracer:
                missed = tracer.unpatched_bindings()
                if missed:
                    self.problems.append(f"tracer missed bindings: {', '.join(missed)}")

                def traced_call(job):
                    tracer.job = self.workload.jobs.index(job)
                    return self.call(job)

                traced.append(self.run_pass(traced_call)[0])
            missing = sorted(set(self.workload.layers) - layers_seen(tracer.spans))
            if missing:
                self.problems.append(f"no spans recorded in layers {missing}")
            per_pass.append(layer_metrics(tracer.spans))
            spans.append(tracer.spans)

        self.until_done(step)
        for name in REPEATING:
            values = {m[name] for m in per_pass}
            if len(values) > 1:
                self.problems.append(f"{name} differs between traced passes: {sorted(values)}")
        metrics = {name: per_pass[0][name] if name in REPEATING
                   else statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        metrics["proc.cpu_s"] = cpu
        metrics["proc.cpu_util"] = cpu / sub_wall
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        samples = {"untraced_subprocess_wall_s": sub_wall, "untraced_inprocess_wall_s": plain,
                   "traced_inprocess_wall_s": traced}
        return metrics, samples, spans


def import_covbell(root: Path):
    """Import covbell from the tree's src/ directory, never from anywhere else."""
    src = root / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import covbell.cli  # noqa: F401
    where = Path(sys.modules["covbell"].__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"covbell imported from {where}, not from {src}")


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except OSError:
        return ""


def provenance(root: Path) -> dict:
    cpu_model = re.search(r"^model name\s*:\s*(.+)$", _read(Path("/proc/cpuinfo")), re.M)
    l3 = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "level").strip() == "3":
            l3 = _read(index / "size").strip()
    version = re.search(r'__version__\s*=\s*"([^"]+)"', _read(root / "src/covbell/__init__.py"))
    source = hashlib.sha256()
    for path in sorted((root / "src/covbell").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists() and shutil.which("git"):
        res = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = res.stdout.strip() or None
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model.group(1).strip() if cpu_model else platform.processor(),
        "l3_cache": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "covbell": version.group(1) if version else None,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "platform": platform.platform(),
    }


def measure(root: Path, name: str, seed: int, seconds: float, level: int, smoke: bool,
            out_dir: Path, prov: dict) -> dict:
    workload = (SMOKE_WORKLOADS if smoke else WORKLOADS)[name]
    bench = Bench(root, workload, seed, seconds, smoke)
    bench.workdir.mkdir(parents=True, exist_ok=True)
    try:
        metrics, samples, spans = bench.layers() if level else bench.end_to_end()
        failures = bench.failures()
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)
    units = PER_LAYER_UNITS if level else END_TO_END
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": level, "smoke": smoke,
        "correct": not failures and not bench.problems,
        "attempted": len(bench.runs),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "samples": samples,
        "problems": bench.problems + [f"{argv}: {why}" for argv, why in failures],
        "provenance": prov,
    }
    tag = f"{name}-seed{seed}-trace{level}{'-smoke' if smoke else ''}"
    (out_dir / f"result-{tag}.json").write_text(json.dumps(result, indent=2) + "\n")
    if spans:
        with open(out_dir / f"spans-{tag}.jsonl", "w") as fh:
            for i, pass_spans in enumerate(spans):
                for span in pass_spans:
                    fh.write(json.dumps({"pass": i, **span.to_dict()}) + "\n")
    return result


def _print_table(result: dict):
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']}: "
          f"{result['attempted']} jobs, {result['failed']} failed, "
          f"fail_frac {result['failed'] / max(1, result['attempted']):.4g}")
    for key, values in result["samples"].items():
        values = values if isinstance(values, list) else [values]
        print(f"#   {key}: {len(values)} sample(s), median {statistics.median(values):.6g}, "
              f"min {min(values):.6g}")
    for name, metric in result["metrics"].items():
        print(f"{result['workload']:>18}  {name:<46} {metric['value']:>16.6g} {metric['unit']}")
    for problem in result["problems"]:
        print(f"# PROBLEM {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", choices=["0", "1", "both"], default="0")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src/covbell/cli.py").is_file():
        print("benchmark: run from the root of a covbell source tree "
              "(no src/covbell/cli.py here)", file=sys.stderr)
        return 2
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    prov = provenance(root)
    print("# provenance " + json.dumps(prov, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    levels = [0, 1] if args.trace == "both" else [int(args.trace)]
    results = [measure(root, name, args.seed, args.seconds, level, args.smoke, out_dir, prov)
               for name in names for level in levels]
    for result in results:
        _print_table(result)
    single = len(results) == 1
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(name if single else f"{r['workload']}/{name}"): metric
                    for r in results for name, metric in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
