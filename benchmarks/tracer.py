"""Span tracer for covbell, installed from outside the package.

``Tracer.install`` wraps the public functions of covbell's six modules (cli,
core, spacetime, models, stats, covariance) and the evaluation methods of the
built-in model classes. covbell binds functions by value (``from .stats import
exact_joint`` in cli, ``from .models import eval_pairs`` in stats), so every
module-level binding of a wrapped function is replaced, not only the defining
one; ``unpatched_bindings`` reports any that were missed.

Spans are kept in memory: name, parent, thread, job index, start and end, and
the counts observed at that boundary. Work a thread pool runs for a span open
on the main thread (``exact_joint``/``estimate_joint`` blocks) is parented to
that span. ``layer_metrics`` reduces one traced pass to the per-layer metrics.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import sys
import threading
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

# Models whose evaluation the workloads exercise; each gets its own metrics.
MODELS = ("gisin-singlet", "local-sphere")

_MODEL_CLASSES = ("GisinSingletModel", "LocalSphereModel", "DeterminizedModel")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    job: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "thread": self.thread, "job": self.job, "start": self.start,
                "end": self.end, **{k: v for k, v in self.attrs.items() if k != "key"}}


def _setting(s) -> tuple:
    return (s.x, s.y, s.z)


# Attribute extractors: (tracer, args, kwargs, result) -> span attributes.

def _eval_pairs_attrs(t, args, kwargs, result):
    lams = args[5]
    return {"points": len(lams), "digest": t.digest(lams)}


def _first_attrs(t, args, kwargs, result):
    model, ordering, _, setting, lams = args
    return {"points": len(lams),
            "key": (model.name, ordering.value, "first", _setting(setting), t.digest(lams))}


def _second_attrs(t, args, kwargs, result):
    model, ordering, _, a, b, lams = args
    return {"points": len(lams),
            "key": (model.name, ordering.value, "second", _setting(a), _setting(b),
                    t.digest(lams))}


def _table_attrs(t, args, kwargs, result):
    return {"points": result.n}


def _sample_attrs(t, args, kwargs, result):
    return {"rows": result.shape[0], "bytes": result.nbytes}


def _text_attrs(t, args, kwargs, result):
    return {"bytes": len(result.encode())}


def _report_attrs(t, args, kwargs, result):
    return {"probes": result.checked, "violations": result.violations,
            "witnesses": len(result.witnesses)}


def _summary_attrs(t, args, kwargs, result):
    return {"strategies": result.total}


# (module, attribute, span name, attribute extractor)
FUNCTIONS = (
    ("cli", "main", "cli.main", None),
    ("core", "dot", "core.dot", None),
    ("core", "setting_grid", "core.setting_grid", None),
    ("core", "tsirelson_settings", "core.tsirelson_settings", None),
    ("spacetime", "time_order", "spacetime.time_order", None),
    ("models", "eval_pairs", "models.eval_pairs", _eval_pairs_attrs),
    ("stats", "sample_lambda", "stats.sample_lambda", _sample_attrs),
    ("stats", "estimate_joint", "stats.estimate_joint", _table_attrs),
    ("stats", "exact_joint", "stats.exact_joint", _table_attrs),
    ("stats", "chsh", "stats.chsh", None),
    ("stats", "correlator", "stats.emit.correlator", None),
    ("stats", "joint_record", "stats.emit.joint_record", None),
    ("stats", "records_to_csv", "stats.emit.records_to_csv", _text_attrs),
    ("stats", "records_to_json", "stats.emit.records_to_json", _text_attrs),
    ("covariance", "check_covariance", "covariance.check_covariance", _report_attrs),
    ("covariance", "reduce_to_local", "covariance.reduce_to_local", None),
    ("covariance", "enumerate_finite", "covariance.enumerate_finite", _summary_attrs),
)


class Tracer:
    """Records spans while installed; create one per traced pass."""

    def __init__(self):
        self.spans = []
        self.job = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._digests = {}
        self._patches = []
        self._originals = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _begin(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif stack is not self._main_stack and self._main_stack:
            # a pool thread doing work for the span open on the main thread
            parent = self._main_stack[-1].id
        else:
            parent = None
        span = Span(next(self._ids), name, parent, threading.get_ident(), self.job,
                    time.perf_counter())
        stack.append(span)
        self.spans.append(span)
        return span

    def _end(self, span: Span):
        span.end = time.perf_counter()
        self._stack().pop()

    def digest(self, arr) -> str:
        """Content hash of a hidden-point block, cached while the array lives."""
        hit = self._digests.get(id(arr))
        if hit is not None and hit[0]() is arr:
            return hit[1]
        h = hashlib.sha256(repr((arr.shape, arr.dtype.str)).encode())
        h.update(np.ascontiguousarray(arr))
        key = id(arr)

        def forget(ref, key=key):
            entry = self._digests.get(key)
            if entry is not None and entry[0] is ref:
                del self._digests[key]

        value = h.hexdigest()
        self._digests[key] = (weakref.ref(arr, forget), value)
        return value

    def _wrap(self, fn, name, attrs):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._begin(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    t0 = time.perf_counter()
                    span.attrs.update(attrs(tracer, args, kwargs, result))
                    # hashing inputs is tracer work, not the layer's
                    span.attrs["trace_s"] = time.perf_counter() - t0
                return result
            finally:
                tracer._end(span)

        return traced

    def install(self):
        modules = _covbell_modules()
        for module, attr, name, attrs in FUNCTIONS:
            orig = getattr(sys.modules[f"covbell.{module}"], attr)
            self._originals[f"{module}.{attr}"] = orig
            wrapper = self._wrap(orig, name, attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        models = sys.modules["covbell.models"]
        model_span = lambda args: f"models.eval.{args[0].name}"  # noqa: E731
        for cls_name in _MODEL_CLASSES:
            cls = getattr(models, cls_name)
            for attr, attrs in (("first_values", _first_attrs), ("second_values", _second_attrs)):
                orig = cls.__dict__[attr]
                self._patches.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(orig, model_span, attrs))
        setting = sys.modules["covbell.core"].MeasurementSetting
        orig = setting.__dict__["__post_init__"]
        self._patches.append((setting, "__post_init__", orig))
        setting.__post_init__ = self._wrap(orig, "core.MeasurementSetting", None)

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def unpatched_bindings(self) -> list:
        """Module bindings in covbell that still hold an unwrapped function."""
        originals = {id(fn) for fn in self._originals.values()}
        return [f"{mod.__name__}.{key}" for mod in _covbell_modules()
                for key, value in vars(mod).items() if id(value) in originals]

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _covbell_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "covbell" or name.startswith("covbell.")]


def _covered(span: Span, children) -> float:
    """Length of the part of span's interval that child spans cover."""
    total, reach = 0.0, span.start
    for start, end in sorted((c.start, c.end) for c in children):
        start, end = max(start, reach), min(end, span.end)
        if end > start:
            total += end - start
            reach = end
    return total


def _repeat_frac(keys_by_job) -> float:
    """Share of keys equal to an earlier key of the same job."""
    total = repeats = 0
    for keys in keys_by_job.values():
        seen = set()
        for key in keys:
            total += 1
            repeats += key in seen
            seen.add(key)
    return repeats / total if total else 0.0


def _rate(count, seconds) -> float:
    return count / seconds if seconds > 0 else 0.0


def _per_layer() -> list:
    rows = []
    for fn in ("exact_joint", "estimate_joint"):
        rows += [(f"stats.{fn}.calls", "count", "lower", True),
                 (f"stats.{fn}.points", "count", "lower", True),
                 (f"stats.{fn}.self_frac", "ratio", "lower", False),
                 (f"stats.{fn}.blocks", "count", "higher", True),
                 (f"stats.{fn}.threads_used", "count", "higher", False)]
    rows += [("stats.sample_lambda.rows", "count", "lower", True),
             ("stats.sample_lambda.bytes_computed", "B", "lower", True),
             ("stats.sample_lambda.self_frac", "ratio", "lower", False),
             ("stats.sample_lambda.rows_per_s", "1/s", "higher", False),
             ("stats.block_repeat_frac", "ratio", "lower", True),
             ("stats.emit.self_frac", "ratio", "lower", False),
             ("stats.emit.bytes", "B", "lower", True)]
    for model in MODELS:
        rows += [(f"models.eval.{model}.calls", "count", "lower", True),
                 (f"models.eval.{model}.points", "count", "lower", True),
                 (f"models.eval.{model}.self_frac", "ratio", "lower", False),
                 (f"models.eval.{model}.points_per_s", "1/s", "higher", False)]
    rows += [("models.eval.dup_call_frac", "ratio", "lower", True),
             ("covariance.check_covariance.calls", "count", "lower", True),
             ("covariance.check_covariance.probes", "count", "lower", True),
             ("covariance.check_covariance.violations", "count", "lower", True),
             ("covariance.check_covariance.witnesses", "count", "lower", True),
             ("covariance.check_covariance.self_frac", "ratio", "lower", False),
             ("covariance.reduce_to_local.self_frac", "ratio", "lower", False),
             ("covariance.enumerate_finite.strategies_per_s", "1/s", "higher", False),
             ("covariance.enumerate_finite.self_frac", "ratio", "lower", False),
             ("spacetime.time_order.calls", "count", "lower", True),
             ("spacetime.time_order.self_frac", "ratio", "lower", False),
             ("core.self_frac", "ratio", "lower", False),
             ("cli.main.self_frac", "ratio", "lower", False),
             ("proc.cpu_s", "s", "lower", False),
             ("proc.cpu_util", "ratio", "higher", False),
             ("trace.overhead_frac", "ratio", "lower", False)]
    return rows


# Per-layer metrics in report order: (name, unit, better, repeats). Metrics
# with repeats=True are counts that must be identical across runs of the same
# code; the rest are shares of traced time, rates and thread counts. Self
# times are reported as shares of the traced pass, not in seconds, so that a
# layer a workload never calls reads 0 as a share, not as a constant time.
PER_LAYER = tuple(_per_layer())


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass: every PER_LAYER name except the
    proc.* and trace.* ones, which the runner measures."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    self_s = {s.id: s.end - s.start - _covered(s, children[s.id]) - s.attrs.get("trace_s", 0.0)
              for s in spans}

    def named(name):
        return [s for s in spans if s.name == name]

    def total(group, key):
        return sum(s.attrs.get(key, 0) for s in group)

    def busy(group):
        return sum(self_s[s.id] for s in group)

    traced_s = (sum(s.end - s.start for s in named("cli.main"))
                - sum(s.attrs.get("trace_s", 0.0) for s in spans))

    def share(group):
        """Self time as a share of the pass's time inside covbell.cli.main,
        less the tracer's own hashing."""
        return busy(group) / traced_s if traced_s else 0.0

    m = {}
    for fn in ("exact_joint", "estimate_joint"):
        calls = named(f"stats.{fn}")
        blocks = [[c for c in children[s.id] if c.name == "models.eval_pairs"] for s in calls]
        m[f"stats.{fn}.calls"] = len(calls)
        m[f"stats.{fn}.points"] = total(calls, "points")
        m[f"stats.{fn}.self_frac"] = share(calls)
        m[f"stats.{fn}.blocks"] = sum(len(b) for b in blocks)
        m[f"stats.{fn}.threads_used"] = max((len({c.thread for c in b}) for b in blocks), default=0)
    sampling = named("stats.sample_lambda")
    m["stats.sample_lambda.rows"] = total(sampling, "rows")
    m["stats.sample_lambda.bytes_computed"] = total(sampling, "bytes")
    m["stats.sample_lambda.self_frac"] = share(sampling)
    m["stats.sample_lambda.rows_per_s"] = _rate(m["stats.sample_lambda.rows"], busy(sampling))

    by_job = defaultdict(list)
    for s in named("models.eval_pairs"):
        by_job[s.job].append(s.attrs.get("digest"))
    m["stats.block_repeat_frac"] = _repeat_frac(by_job)
    emit = [s for s in spans if s.name.startswith("stats.emit.")]
    m["stats.emit.self_frac"] = share(emit)
    m["stats.emit.bytes"] = total(emit, "bytes")

    evals = [s for s in spans if s.name.startswith("models.eval.")]
    for model in MODELS:
        calls = named(f"models.eval.{model}")
        m[f"models.eval.{model}.calls"] = len(calls)
        m[f"models.eval.{model}.points"] = total(calls, "points")
        m[f"models.eval.{model}.self_frac"] = share(calls)
        m[f"models.eval.{model}.points_per_s"] = _rate(total(calls, "points"), busy(calls))
    by_job = defaultdict(list)
    for s in evals:
        by_job[s.job].append(s.attrs.get("key"))
    m["models.eval.dup_call_frac"] = _repeat_frac(by_job)

    checks = named("covariance.check_covariance")
    m["covariance.check_covariance.calls"] = len(checks)
    for key in ("probes", "violations", "witnesses"):
        m[f"covariance.check_covariance.{key}"] = total(checks, key)
    m["covariance.check_covariance.self_frac"] = share(checks)
    m["covariance.reduce_to_local.self_frac"] = share(named("covariance.reduce_to_local"))
    scans = named("covariance.enumerate_finite")
    m["covariance.enumerate_finite.strategies_per_s"] = _rate(total(scans, "strategies"), busy(scans))
    m["covariance.enumerate_finite.self_frac"] = share(scans)
    orders = named("spacetime.time_order")
    m["spacetime.time_order.calls"] = len(orders)
    m["spacetime.time_order.self_frac"] = share(orders)
    m["core.self_frac"] = share([s for s in spans if s.layer == "core"])
    m["cli.main.self_frac"] = share(named("cli.main"))
    return m


def layers_seen(spans) -> set:
    return {s.layer for s in spans}
