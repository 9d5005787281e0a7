"""The benchmark tracer's hold on covbell, in tier-1: each smoke workload's jobs run
once, in process, under ``benchmarks/tracer.Tracer``, which must wrap every binding
it names and see spans in every layer the workload lists. A change to ``src/`` that
breaks one of its pins (a class attribute it wraps, a function binding it replaces)
fails here, not only in the slower ``benchmarks/tests``. Nothing in ``benchmarks/``
is changed."""

import contextlib
import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from tracer import Tracer, layers_seen  # noqa: E402
from workloads import SMOKE_WORKLOADS  # noqa: E402

from covbell import cli  # noqa: E402


@pytest.mark.parametrize("name", sorted(SMOKE_WORKLOADS))
def test_smoke_workload_is_traced_in_every_layer(name, tmp_path):
    workload, tracer = SMOKE_WORKLOADS[name], Tracer()
    with tracer:
        assert tracer.unpatched_bindings() == []
        for tracer.job, job in enumerate(workload.jobs):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(job.command(1, tmp_path)) == 0  # the wrapped main, read here
    assert set(workload.layers) <= layers_seen(tracer.spans)
