"""Batch command-line front end.

Subcommands: tomography, chsh, check-covariance, reduce, enumerate,
frame-order. Each takes only the config keys it reads, as flags and as a JSON
file (``--config``); flags override file values, and any other key is a usage
error. Every subcommand takes ``seed`` and ``output``; tomography and chsh
also take ``workers``, for their worker pool, and of the estimator keys only
their mode's: ``grid`` in mode exact, ``n`` in mode mc (``tomography --grid
300`` in the default mode mc is a usage error). One writer writes every
document, to ``--output`` or stdout: CSV or JSON by the command's ``format``
(JSON if none), with its resolved config embedded. Exit codes: 0 success, 1
usage error, 2 domain error (e.g. a non-covariant model passed to ``reduce``,
a size that does not fit in memory, or a file that cannot be opened).
"""

from __future__ import annotations

import argparse
import errno
import functools
import gc
import json
import os
import sys

import numpy as np

from .core import MeasurementSetting, QuantumState, TimeOrdering, setting_grid, tsirelson_settings
from .covariance import NotCovariantError, check_covariance, enumerate_finite, reduce_to_local
from .models import MODEL_REGISTRY, make_model
from .spacetime import Boost, Event, SimultaneousEventsError, boost_event, is_spacelike, time_order
# exact_joint is not called here; benchmarks/tests swaps this binding to test the tracer
from .stats import (_SAMPLE_CAP, SeedSpec, chsh, chsh_pairs, exact_joint,  # noqa: F401
                    exact_tables, joint_columns, records_to_csv, records_to_json, sample_chsh,
                    sample_lambda, sample_tables)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# The estimator keys of the commands with a mode, by the mode that reads them.
_MODE_KEYS = {"mc": ("n",), "exact": ("grid",)}
# Most setting pairs of a grid:N spec, checked before any is built (at the cap the
# pairs take about 72 MB, and a tomography document about 1 KB more per pair).
_PAIR_CAP = 10 ** 6

# Every option's default, type, allowed values (None: any), minimum (None:
# none) and help (None: list the allowed values). Flags and config-file values
# are checked against the same entry.
_OPTIONS = {
    "model": ("gisin-singlet", str, tuple(sorted(MODEL_REGISTRY)), None, None),
    "ordering": ("AB", str, ("AB", "BA"), None, None),
    "settings": ("grid:5", str, None, None, "'tsirelson', 'grid:N', or inline JSON vectors"),
    "mode": ("mc", str, tuple(_MODE_KEYS), None, None),
    "n": (1_000_000, int, None, 1, "samples per setting pair (mode mc only)"),
    "grid": (2000, int, None, 2, "midpoint lattice points per axis (mode exact only)"),
    "seed": (0, int, None, None, None),
    "workers": (os.cpu_count() or 1, int, None, 1, None),
    "probes": (10_000, int, None, 1, None),
    "witness_cap": (32, int, None, 0, None),
    "output": (None, str, None, None, None),
    "format": ("csv", str, ("csv", "json"), None, None),
    "event_a": ("0,-1", str, None, None, "'t,x'"),
    "event_b": ("0,1", str, None, None, "'t,x'"),
    "velocities": ("-0.5,0,0.5", str, None, None, "comma-separated boost velocities"),
}

def _keys(command: str, mode=None) -> tuple:
    """The keys a command takes: in a mode, only that mode's estimator keys."""
    keys = _COMMANDS[command][1] + ("seed", "output")
    if "mode" in keys:
        keys += _MODE_KEYS[mode] if mode else sum(_MODE_KEYS.values(), ())
    return keys


@functools.cache  # one per process: add_argument builds a help formatter for every option
def build_parser() -> _Parser:
    parser = _Parser(prog="covbell", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        # no prefix matching: check-covariance must refuse --mode, not read it as --model
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for key in _keys(name):
            _, typ, choices, _, text = _OPTIONS[key]
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=typ,
                           help=text or (choices and "one of: " + ", ".join(choices)))
    return parser


def _resolve_config(command: str, given: dict) -> dict:
    """The command's defaults under the given keys, one check for every source."""
    keys = _keys(command)
    unknown = set(given) - set(keys)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    cfg = {key: _OPTIONS[key][0] for key in keys}
    cfg.update(_COMMANDS[command][2], **given)
    if cfg.get("mode") in _OPTIONS["mode"][2]:  # an invalid mode fails its check below
        keys = _keys(command, cfg["mode"])
        stray = sorted(set(given) - set(keys))
        if stray:
            raise UsageError(f"mode {cfg['mode']} does not read {', '.join(stray)}")
    for key in keys:
        default, typ, choices, low, _ = _OPTIONS[key]
        val = cfg[key]
        if val is None and default is None:
            continue
        if type(val) is not typ:
            raise UsageError(f"{key} must be of type {typ.__name__}, got {val!r}")
        if choices and val not in choices:
            raise UsageError(f"unknown {key} {val!r}; available: {', '.join(choices)}")
        if low is not None and val < low:
            raise UsageError(f"{key} must be at least {low}")
    SeedSpec(cfg["seed"])  # every command embeds its seed: out of range is a domain error
    return {"command": command, **{key: cfg[key] for key in keys}}


def _inline_vectors(spec: str, shape: tuple, what: str) -> np.ndarray:
    """Setting vectors from inline JSON as a float array of the given shape
    (None: any length)."""
    try:
        vecs = np.array(json.loads(spec), dtype=float)
    except (TypeError, ValueError, RecursionError) as err:  # bad or deep JSON, ragged, non-numeric
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
        # N's digits past its leading zeros, in ASCII: int() refuses over 4,300 digits, and
        # an N of more digits than the cap exceeds it, so N^2 does
        digits = "".join(map(str, map(int, count))).lstrip("0") if count.isdecimal() else ""
        if not digits:
            raise UsageError(f"settings {spec!r}: grid size must be a positive integer")
        if len(digits) > len(str(_PAIR_CAP)) or int(digits) ** 2 > _PAIR_CAP:
            raise ValueError(f"settings {spec!r}: {digits}^2 setting pairs exceed "
                             f"the cap of {_PAIR_CAP:,}")
        g = setting_grid(int(digits))
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


def _check_output(path):
    """Raise, before any work, the error that opening the output path would raise
    if it is empty, names a directory or lies in one that cannot be reached."""
    try:  # "dir/" resolves only if dir is a directory, as open resolves it
        os.stat(os.path.join(os.path.dirname(path.rstrip(os.sep)) or ".", "") if path else path)
    except OSError as err:
        raise OSError(err.errno, err.strerror, path) from None
    if path.endswith(os.sep) or os.path.isdir(path):  # open makes no directory
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _emit(cfg, payload: dict, table=None, notes=()):
    """Write a command's document to its output file, or to stdout: when its
    format is csv, the columns ``payload[table]`` (``{name: cells}``) with the
    notes as comment lines, otherwise the JSON of the payload, with the table
    as one object per row. Either embeds the config less the worker count and
    destination path, which cannot affect results; this keeps documents
    byte-identical across worker counts."""
    config = {k: v for k, v in cfg.items() if k not in ("workers", "output")}
    if cfg.get("format") == "csv":
        text = records_to_csv(payload[table], config, notes)
    else:
        if table:
            cols = payload[table]
            payload = {**payload, table: [dict(zip(cols, row)) for row in zip(*cols.values())]}
        text = records_to_json(payload, config)
    if cfg["output"] is not None:
        with open(cfg["output"], "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _tables(cfg, ordering, pairs):
    """The joint table of the config's model on the setting pairs, by the
    estimator its mode names."""
    model = make_model(cfg["model"])
    if cfg["mode"] == "exact":
        return exact_tables(model, ordering, QuantumState.SINGLET, pairs, cfg["grid"],
                            cfg["workers"])
    return sample_tables(model, ordering, QuantumState.SINGLET, pairs, cfg["n"],
                         SeedSpec(cfg["seed"]), cfg["workers"])


def _cmd_tomography(cfg) -> int:
    ordering, pairs = TimeOrdering(cfg["ordering"]), _setting_pairs(cfg["settings"])
    n_or_grid = cfg["grid"] if cfg["mode"] == "exact" else cfg["n"]
    columns = joint_columns(ordering, pairs, _tables(cfg, ordering, pairs), n_or_grid, cfg["seed"])
    _emit(cfg, {"records": columns}, table="records")
    return 0


def _cmd_chsh(cfg) -> int:
    quad, ordering = _setting_quad(cfg["settings"]), TimeOrdering(cfg["ordering"])
    res = (chsh(_tables(cfg, ordering, chsh_pairs(quad))) if cfg["mode"] == "exact" else
           sample_chsh(make_model(cfg["model"]), ordering, QuantumState.SINGLET, quad, cfg["n"],
                       SeedSpec(cfg["seed"]), cfg["workers"]))
    _emit(cfg, {
        "S": res.value,
        "stderr": res.stderr,
        "terms": [{"E": t.value, "stderr": t.stderr, "n": t.n} for t in res.terms],
    })
    if cfg["output"] is not None:
        print(f"S = {res.value:.17g} +/- {res.stderr:.17g}")
    return 0


def _probe_lambdas(model, cfg):
    if cfg["probes"] > _SAMPLE_CAP:  # before any probe is drawn
        raise ValueError(f"{cfg['probes']} probes exceed the Monte Carlo cap of {_SAMPLE_CAP:,}")
    pairs = _setting_pairs(cfg["settings"])
    if cfg["probes"] % len(pairs):
        raise UsageError(f"probes must be a multiple of the {len(pairs)} setting pairs")
    n_lams = cfg["probes"] // len(pairs)
    lams = sample_lambda(model.lambda_dim, n_lams, SeedSpec(cfg["seed"]))
    return pairs, lams


def _cmd_check_covariance(cfg) -> int:
    model = make_model(cfg["model"])
    pairs, lams = _probe_lambdas(model, cfg)
    report = check_covariance(model, QuantumState.SINGLET, pairs, lams,
                              witness_cap=cfg["witness_cap"])
    _emit(cfg, report.to_dict())
    return 0


def _cmd_reduce(cfg) -> int:
    model = make_model(cfg["model"])
    pairs, lams = _probe_lambdas(model, cfg)
    try:
        view = reduce_to_local(model, QuantumState.SINGLET, pairs, lams)
    except NotCovariantError as err:
        print(f"covbell: {err}", file=sys.stderr)  # first: _emit raises if --output cannot open
        doc = err.report.to_dict()
        _emit(cfg, {"reduced": False, "witness": doc.pop("witnesses")[0], **doc})
        return 2
    counts = view.count_pairs(TimeOrdering.AB, QuantumState.SINGLET, pairs)(lams)
    correlators = [{"a": [a.x, a.y, a.z], "b": [b.x, b.y, b.z],
                    "E": float((c[0, 0] + c[1, 1] - c[0, 1] - c[1, 0]) / len(lams))}
                   for (a, b), c in zip(pairs, counts)]
    _emit(cfg, {"reduced": True, "correlators": correlators})
    return 0


def _cmd_enumerate(cfg) -> int:
    summary = enumerate_finite()
    print(f"total={summary.total} covariant={summary.covariant} "
          f"max_S={summary.max_abs_s} max_S_covariant={summary.max_abs_s_covariant}")
    if cfg["output"] is not None:
        columns = {"id": list(range(summary.total)), "covariant": summary.covariant_mask.tolist(),
                   "S_AB": summary.s_ab.tolist(), "S_BA": summary.s_ba.tolist()}
        _emit(cfg, {**summary.to_dict(), "strategies": columns}, table="strategies")
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
    vs = np.array(velocities)
    # boost_event's t' and x' of both events for every velocity, by the same IEEE
    # operations, so the same bits; a bad velocity or an overflow fails in the loop
    with np.errstate(all="ignore"):
        g = 1.0 / np.sqrt(1.0 - vs * vs)
        ta, xa, tb, xb = [g * (p - vs * q) for e in (ea, eb) for p, q in ((e.t, e.x), (e.x, e.t))]
    orderings = []
    for v, fits in zip(velocities, np.isfinite([ta, xa, tb, xb]).all(axis=0).tolist()):
        boost = Boost(v)  # NaN or |v| >= 1 raises, handled as a domain error
        if not fits:
            boost_event(ea, boost), boost_event(eb, boost)  # raises: a coordinate overflows
        try:
            orderings.append(time_order(ea, eb, boost).value)
        except SimultaneousEventsError:
            orderings.append("simultaneous")
    rows = {"v": velocities, "tA": ta.tolist(), "tB": tb.tolist(), "ordering": orderings}
    spacelike = is_spacelike(ea, eb)
    _emit(cfg, {"spacelike": spacelike, "rows": rows}, table="rows",
          notes=[f"spacelike = {spacelike}"])
    return 0


# Each subcommand's function, the keys it reads besides seed and output, which
# all take (every output names its seed, none its path), and the defaults it
# sets over _OPTIONS' (chsh takes a quadruple, not a grid). A command takes only
# its own keys; tomography and chsh also take their mode's keys in _MODE_KEYS.
_COMMANDS = {
    "tomography": (_cmd_tomography,
                   ("model", "ordering", "settings", "mode", "workers", "format"), {}),
    "chsh": (_cmd_chsh, ("model", "ordering", "settings", "mode", "workers"),
             {"settings": "tsirelson"}),
    "check-covariance": (_cmd_check_covariance, ("model", "settings", "probes", "witness_cap"), {}),
    "reduce": (_cmd_reduce, ("model", "settings", "probes"), {}),
    "enumerate": (_cmd_enumerate, ("format",), {}),
    "frame-order": (_cmd_frame_order, ("event_a", "event_b", "velocities", "format"), {}),
}


def _config_int(text: str) -> int:
    """A config file's integer; past the digits int() converts, a usage error naming it."""
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"config file: an integer of {len(text) - (text[0] == '-'):,} digits "
                         "is too large") from None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("a subcommand is required (see --help)")
        given = {}
        if args.config is not None:
            with open(args.config, encoding="utf-8") as fh:
                try:
                    given = json.load(fh, parse_int=_config_int)
                except (ValueError, RecursionError) as err:  # not JSON, too deep, or not UTF-8
                    raise UsageError(f"config file must hold a JSON object: {err}") from None
            if not isinstance(given, dict):
                raise UsageError("config file must hold a JSON object")
        given.update({key: getattr(args, key) for key in _keys(args.command)
                      if getattr(args, key) is not None})
        cfg = _resolve_config(args.command, given)
        if cfg["output"] is not None:
            _check_output(cfg["output"])
        return _COMMANDS[args.command][0](cfg)
    except (UsageError, ValueError, OSError, MemoryError) as err:
        why = str(err) or ("out of memory" if isinstance(err, MemoryError) else type(err).__name__)
        print("covbell: " + "\\n".join(why.splitlines()), file=sys.stderr)  # one line, always
        return 1 if isinstance(err, UsageError) else 2


def entry():
    code = main()
    gc.freeze()  # the exit's collections skip the objects alive now, the imports' above all
    sys.exit(code)


if __name__ == "__main__":
    entry()
