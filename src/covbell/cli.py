"""Batch command-line front end.

Subcommands: tomography, chsh, check-covariance, reduce, enumerate,
frame-order. Each subcommand takes only the config keys it reads, as flags
and as a JSON file (``--config``); flags override file values, and any other
key is a usage error. Every output embeds its command's resolved config and
seed. Exit codes: 0 success, 1 usage error, 2 domain error (e.g. a
non-covariant model passed to ``reduce``, or a size that does not fit in
memory).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .core import MeasurementSetting, QuantumState, TimeOrdering, setting_grid, tsirelson_settings
from .covariance import NotCovariantError, check_covariance, enumerate_finite, reduce_to_local
from .models import MODEL_REGISTRY, make_model
from .spacetime import Boost, Event, SimultaneousEventsError, boost_event, is_spacelike, time_order
# exact_joint is not called here; benchmarks/tests swaps this binding to test the tracer
from .stats import (SeedSpec, chsh, chsh_pairs, exact_joint, joint_record,  # noqa: F401
                    joint_tables, records_to_csv, records_to_json, sample_lambda)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# Every option's default, type, allowed values (None: any) and minimum (None:
# none). Flags and config-file values are checked against the same entry.
_OPTIONS = {
    "model": ("gisin-singlet", str, tuple(sorted(MODEL_REGISTRY)), None),
    "ordering": ("AB", str, ("AB", "BA"), None),
    "settings": ("grid:5", str, None, None),
    "mode": ("mc", str, ("mc", "exact"), None),
    "n": (1_000_000, int, None, 1),
    "grid": (2000, int, None, 2),
    "seed": (0, int, None, None),
    "stream": (0, int, None, None),
    "workers": (os.cpu_count() or 1, int, None, 1),
    "probes": (10_000, int, None, 1),
    "witness_cap": (32, int, None, 0),
    "output": (None, str, None, None),
    "format": ("csv", str, ("csv", "json"), None),
    "event_a": ("0,-1", str, None, None),
    "event_b": ("0,1", str, None, None),
    "velocities": ("-0.5,0,0.5", str, None, None),
}

_HELP = {
    "settings": "'tsirelson', 'grid:N', or inline JSON vectors",
    "event_a": "'t,x'",
    "event_b": "'t,x'",
    "velocities": "comma-separated boost velocities",
}

# The keys each subcommand reads, besides seed, workers and output, which every
# subcommand takes: every output names its seed, and the other two never enter
# an output. A command accepts and embeds only its own keys.
_KEYS = {
    "tomography": ("model", "ordering", "settings", "mode", "n", "grid", "stream", "format"),
    "chsh": ("model", "ordering", "settings", "mode", "n", "grid", "stream"),
    "check-covariance": ("model", "settings", "stream", "probes", "witness_cap"),
    "reduce": ("model", "settings", "stream", "probes", "witness_cap"),
    "enumerate": ("format",),
    "frame-order": ("event_a", "event_b", "velocities", "format"),
}

# Defaults that differ by subcommand: chsh takes a quadruple, not a grid.
_COMMAND_DEFAULTS = {"chsh": {"settings": "tsirelson"}}


def _keys(command: str) -> tuple:
    return _KEYS[command] + ("seed", "workers", "output")


def build_parser() -> _Parser:
    parser = _Parser(prog="covbell", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name in _KEYS:
        # no prefix matching: check-covariance must refuse --mode, not read it as --model
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for key in _keys(name):
            _, typ, choices, _ = _OPTIONS[key]
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=typ,
                           help=_HELP.get(key) or (choices and "one of: " + ", ".join(choices)))
    return parser


def _resolve_config(args) -> dict:
    keys = _keys(args.command)
    cfg = {key: _OPTIONS[key][0] for key in keys}
    cfg.update(_COMMAND_DEFAULTS.get(args.command, {}))
    if args.config:
        with open(args.config) as fh:
            try:
                file_cfg = json.load(fh)
            except json.JSONDecodeError as err:
                raise UsageError(f"config file must hold a JSON object: {err}") from None
        if not isinstance(file_cfg, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(keys)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key in keys:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    for key in keys:
        default, typ, choices, low = _OPTIONS[key]
        val = cfg[key]
        if val is None and default is None:
            continue
        if type(val) is not typ:
            raise UsageError(f"{key} must be of type {typ.__name__}, got {val!r}")
        if choices and val not in choices:
            raise UsageError(f"unknown {key} {val!r}; available: {', '.join(choices)}")
        if low is not None and val < low:
            raise UsageError(f"{key} must be at least {low}")
    cfg["command"] = args.command
    return cfg


def _inline_vectors(spec: str, shape: tuple, what: str) -> np.ndarray:
    """Setting vectors from inline JSON as a float array of the given shape
    (None: any length)."""
    try:
        vecs = np.array(json.loads(spec), dtype=float)
    except (TypeError, ValueError) as err:  # bad JSON, ragged or non-numeric
        raise UsageError(f"settings {spec!r}: {err}") from None
    if vecs.ndim != len(shape) or any(want not in (None, got)
                                      for want, got in zip(shape, vecs.shape)):
        raise UsageError(f"settings {spec!r}: expected {what}")
    return vecs


def _setting_pairs(spec: str):
    """List of (a, b) pairs from a settings spec."""
    if spec == "tsirelson":
        return chsh_pairs(tsirelson_settings())
    if spec.startswith("grid:"):
        count = spec[len("grid:"):]
        if not count.isdecimal() or int(count) < 1:
            raise UsageError(f"settings {spec!r}: grid size must be a positive integer")
        g = setting_grid(int(count))
        return [(ga, gb) for ga in g for gb in g]
    if spec.startswith("["):
        vecs = _inline_vectors(spec, (None, 2, 3), "a list of [a, b] vector pairs")
        return [(MeasurementSetting.from_array(pa), MeasurementSetting.from_array(pb))
                for pa, pb in vecs]
    raise UsageError(f"cannot parse settings spec {spec!r}")


def _setting_quad(spec: str):
    """CHSH quadruple (a, a', b, b') from a settings spec."""
    if spec == "tsirelson":
        return tsirelson_settings()
    if spec.startswith("["):
        vecs = _inline_vectors(spec, (4, 3), "exactly 4 setting vectors (a, a', b, b')")
        return tuple(MeasurementSetting.from_array(v) for v in vecs)
    raise UsageError(f"cannot parse settings spec {spec!r} for chsh")


def _emit(text: str, output):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _provenance(cfg: dict) -> dict:
    """Config as embedded in outputs. Worker count and destination path are
    execution details that cannot affect results, so they are excluded; this
    keeps outputs byte-identical across worker counts."""
    return {k: v for k, v in cfg.items() if k not in ("workers", "output")}


def _json_doc(payload: dict, cfg: dict) -> str:
    return json.dumps({"config": _provenance(cfg), **payload},
                      sort_keys=True, indent=2) + "\n"


def _cmd_tomography(cfg) -> int:
    model = make_model(cfg["model"])
    ordering = TimeOrdering(cfg["ordering"])
    seed = SeedSpec(cfg["seed"], cfg["stream"])
    pairs = _setting_pairs(cfg["settings"])
    tables = joint_tables(model, ordering, QuantumState.SINGLET, pairs, cfg["mode"],
                          cfg["n"], cfg["grid"], seed, cfg["workers"])
    n_or_grid = cfg["grid"] if cfg["mode"] == "exact" else cfg["n"]
    records = [joint_record(ordering, a, b, table, n_or_grid, cfg["seed"])
               for (a, b), table in zip(pairs, tables)]
    writer = records_to_json if cfg["format"] == "json" else records_to_csv
    _emit(writer(records, _provenance(cfg)), cfg["output"])
    return 0


def _cmd_chsh(cfg) -> int:
    model = make_model(cfg["model"])
    quad = _setting_quad(cfg["settings"])
    res = chsh(model, TimeOrdering(cfg["ordering"]), QuantumState.SINGLET, quad,
               mode=cfg["mode"], n=cfg["n"], grid=cfg["grid"],
               seed=SeedSpec(cfg["seed"], cfg["stream"]), workers=cfg["workers"])
    doc = _json_doc({
        "S": res.value,
        "stderr": res.stderr,
        "terms": [{"E": t.value, "stderr": t.stderr, "n": t.n} for t in res.terms],
    }, cfg)
    _emit(doc, cfg["output"])
    if cfg["output"]:
        print(f"S = {res.value:.17g} +/- {res.stderr:.17g}")
    return 0


def _probe_lambdas(model, cfg):
    pairs = _setting_pairs(cfg["settings"])
    if cfg["probes"] % len(pairs):
        raise UsageError(f"probes must be a multiple of the {len(pairs)} setting pairs")
    n_lams = cfg["probes"] // len(pairs)
    lams = sample_lambda(model.lambda_dim, n_lams, SeedSpec(cfg["seed"], cfg["stream"]))
    return pairs, lams


def _cmd_check_covariance(cfg) -> int:
    model = make_model(cfg["model"])
    pairs, lams = _probe_lambdas(model, cfg)
    report = check_covariance(model, QuantumState.SINGLET, pairs, lams,
                              witness_cap=cfg["witness_cap"])
    _emit(_json_doc(report.to_dict(), cfg), cfg["output"])
    return 0


def _cmd_reduce(cfg) -> int:
    model = make_model(cfg["model"])
    pairs, lams = _probe_lambdas(model, cfg)
    try:
        view = reduce_to_local(model.bind(lams), QuantumState.SINGLET, pairs, lams,
                               witness_cap=cfg["witness_cap"])
    except NotCovariantError as err:
        doc = _json_doc({
            "reduced": False,
            "witness": err.witness.to_dict(),
            "checked": err.report.checked,
            "violations": err.report.violations,
            "violation_fraction": err.report.violation_fraction,
        }, cfg)
        _emit(doc, cfg["output"])
        print(str(err), file=sys.stderr)
        return 2
    # each party's outcomes once per distinct setting, as check_covariance takes them
    alphas = {a: view.responds_alice_values(a, lams) for a in dict.fromkeys(a for a, _ in pairs)}
    betas = {b: view.responds_bob_values(b, lams) for b in dict.fromkeys(b for _, b in pairs)}
    correlators = [{"a": [a.x, a.y, a.z], "b": [b.x, b.y, b.z],
                    "E": float(np.mean(alphas[a] * betas[b]))} for a, b in pairs]
    _emit(_json_doc({"reduced": True, "correlators": correlators}, cfg), cfg["output"])
    return 0


def _cmd_enumerate(cfg) -> int:
    summary = enumerate_finite()
    print(f"total={summary.total} covariant={summary.covariant} "
          f"max_S={summary.max_abs_s} max_S_covariant={summary.max_abs_s_covariant}")
    if cfg["output"]:
        rows = [{"id": r.index, "covariant": r.covariant,
                 "S_AB": r.s_ab, "S_BA": r.s_ba} for r in summary.rows]
        if cfg["format"] == "json":
            text = _json_doc({**summary.to_dict(), "strategies": rows}, cfg)
        else:
            text = records_to_csv(rows, _provenance(cfg),
                                  columns=("id", "covariant", "S_AB", "S_BA"))
        _emit(text, cfg["output"])
    return 0


def _numbers(cfg, key, count=None) -> list:
    """The comma-separated numbers of a config value."""
    try:
        vals = [float(part) for part in cfg[key].split(",")]
    except ValueError:
        raise UsageError(f"{key} must be comma-separated numbers, got {cfg[key]!r}") from None
    if count is not None and len(vals) != count:
        raise UsageError(f"{key} must hold {count} numbers, got {cfg[key]!r}")
    return vals


def _cmd_frame_order(cfg) -> int:
    ea = Event(*_numbers(cfg, "event_a", 2))
    eb = Event(*_numbers(cfg, "event_b", 2))
    velocities = _numbers(cfg, "velocities")
    rows = []
    for v in velocities:
        boost = Boost(v)  # |v| >= 1 raises, handled as a domain error
        ta = boost_event(ea, boost).t
        tb = boost_event(eb, boost).t
        try:
            ordering = time_order(ea, eb, boost).value
        except SimultaneousEventsError:
            ordering = "simultaneous"
        rows.append({"v": v, "tA": ta, "tB": tb, "ordering": ordering})
    if cfg["format"] == "json":
        text = _json_doc({"spacelike": is_spacelike(ea, eb), "rows": rows}, cfg)
    else:
        text = records_to_csv(rows, _provenance(cfg), columns=("v", "tA", "tB", "ordering"),
                              notes=[f"spacelike = {is_spacelike(ea, eb)}"])
    _emit(text, cfg["output"])
    return 0


_COMMANDS = {
    "tomography": _cmd_tomography,
    "chsh": _cmd_chsh,
    "check-covariance": _cmd_check_covariance,
    "reduce": _cmd_reduce,
    "enumerate": _cmd_enumerate,
    "frame-order": _cmd_frame_order,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("a subcommand is required (see --help)")
        cfg = _resolve_config(args)
        return _COMMANDS[args.command](cfg)
    except UsageError as err:
        print(f"covbell: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError) as err:
        print(f"covbell: {err}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
