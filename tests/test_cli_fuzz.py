"""A fuzz of ``cli.main``, run in process, over drawn flags and ``--config``
objects of every subcommand: whatever it is given, it exits 0, 1 or 2, and an
error is one ``covbell: <why>`` line on stderr with nothing on stdout.

Every size drawn either finishes within a fraction of a second or lies past a
check that refuses it before anything of that size is allocated:
- n x pairs > 10^11 (the Monte Carlo cap);
- grid^2 >= 2^63 (every registry model has two hidden coordinates), or a
  local-sphere grid past the engine cap of 10^11 pair-points;
- N > 1000 in ``grid:N`` (the pair cap);
- probes / pairs >= 2^63, a shape numpy refuses at once.
Nothing is drawn between those two ranges, and ``workers`` stays at 8 or below.
"""

import contextlib
import io
import itertools
import json
import math

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from covbell import cli, models, stats

_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.5, 1e308, 5e-324]
_FLOAT = st.one_of(st.sampled_from(_SPECIAL), st.floats())
_HUGE = st.one_of(st.integers(2 ** 63, 2 ** 200), st.just(10 ** 4000))
# wrong types for any key; text is empty, non-ASCII or control characters at times
_TEXT = st.text(max_size=8)
_WRONG = st.one_of(st.none(), st.booleans(), _FLOAT, _TEXT, st.lists(st.integers(), max_size=2),
                   st.dictionaries(_TEXT, st.integers(), max_size=1))

_PAIR_LCM = math.lcm(*range(1, 37))  # every pair count a valid drawn spec can give (at most 36)
_SPHERE_CAP_GRID = math.isqrt(models._ENGINE_CAP) + 1  # one pair at this grid passes the cap


def _mostly(draw, good, bad):
    """A draw of good, or of bad about one time in eight (hypothesis favours the
    first of sampled values, so good comes first)."""
    return draw(draw(st.sampled_from([good] * 7 + [bad])))


def _rarely(draw) -> bool:
    return _mostly(draw, st.just(False), st.just(True))


def _vector(finite):
    return st.lists(st.floats(-2, 2) if finite else _FLOAT, min_size=3, max_size=3)


@st.composite
def _settings(draw):
    """A settings spec and its pair count, None where the spec cannot be read as pairs."""
    kind = _mostly(draw, st.sampled_from(["tsirelson", "grid", "past cap", "pairs", "quad"]),
                   st.just("text"))
    if kind == "tsirelson":
        return "tsirelson", 4
    if kind == "grid":
        n = draw(st.integers(0, 6))
        zeros = draw(st.sampled_from(["", "0", "٠"]))  # a leading zero, ASCII or not
        return f"grid:{zeros}{n}", n * n or None
    if kind == "past cap":
        n = draw(st.one_of(st.integers(math.isqrt(cli._PAIR_CAP) + 1, 10 ** 30),
                           st.just(int("9" * 4000))))
        return "grid:" + draw(st.sampled_from(["", "0" * 5000])) + str(n), None
    finite = _mostly(draw, st.just(True), st.just(False))
    if kind == "pairs":
        vecs = draw(st.lists(st.lists(_vector(finite), min_size=2, max_size=2), max_size=3))
        return json.dumps(vecs), len(vecs) or None
    if kind == "quad":
        return json.dumps(draw(st.lists(_vector(finite), min_size=4, max_size=4))), 4
    return draw(st.one_of(_TEXT, st.just("[" * 100_000), st.just("grid:" + "9" * 5000))), None


@st.composite
def _job(draw, command, out_dir):
    """The keys of one run, as {key: value}."""
    keys = cli._keys(command)
    given = {key: None for key in keys if draw(st.booleans())}  # the keys this run sets
    if "mode" in keys:  # the mode's estimator key always, so no run takes a default size;
        mode = draw(st.sampled_from(["mc", "exact"]))  # the other's at times, a stray key
        given.update({"mode": mode, cli._MODE_KEYS[mode][0]: None})
        given = {key: value for key, value in given.items()
                 if key != cli._MODE_KEYS["exact" if mode == "mc" else "mc"][0]
                 or _rarely(draw)}
    spec, pairs = draw(_settings())
    model = _mostly(draw, st.sampled_from(sorted(cli.MODEL_REGISTRY)), _TEXT)
    seed = _mostly(draw, st.integers(0, 2 ** 64 - 1), st.integers(2 ** 64, 2 ** 70)
                   | st.integers(-5, -1))
    choices = {
        "model": st.just(model),
        "ordering": st.sampled_from(["AB", "BA"]),
        "settings": st.just(spec),
        "mode": st.just(given.get("mode")),
        "format": st.sampled_from(["csv", "json"]),
        "seed": st.just(seed),
        "workers": st.integers(-1, 8),
        "witness_cap": st.one_of(st.integers(-2, 64), _HUGE),
        "event_a": st.builds("{},{}".format, _FLOAT, _FLOAT),
        "event_b": st.builds("{},{}".format, _FLOAT, _FLOAT),
        "velocities": st.lists(st.one_of(st.floats(-1, 1), _FLOAT), max_size=8).map(
            lambda vs: ",".join(map(str, vs))),
        "output": st.sampled_from([str(out_dir / "out")] * 4 + [
            str(out_dir / "missing" / "out"), "", str(out_dir), str(out_dir) + "/"]),
    }
    for key in given:
        if key in ("n", "grid", "probes"):
            kind = _mostly(draw, st.sampled_from(["small", "past"]), st.just("wrong"))
            if kind == "wrong":
                given[key] = draw(st.one_of(_WRONG, st.integers(-3, 1)))
            elif key == "n":
                given[key] = draw(st.integers(1, 2000) if kind == "small" else
                                  st.one_of(st.integers(stats._SAMPLE_CAP + 1, 10 ** 30), _HUGE))
            elif key == "grid":
                past = st.integers(2 ** 32, 2 ** 80)  # grid^2 >= 2^63
                if given.get("model") == "local-sphere":  # or past the engine cap
                    past |= st.integers(_SPHERE_CAP_GRID, 2 ** 32)
                given[key] = draw(st.integers(2, 300) if kind == "small" else past)
            elif kind == "small":  # probes: a few rows per pair, a multiple of the pairs or not
                rows = st.integers(1, 100).map(lambda r: r * (pairs or 1))
                given[key] = _mostly(draw, rows, st.integers(1, 3600))
            else:
                given[key] = draw(st.integers(2 ** 63, 2 ** 70).map(lambda k: k * _PAIR_LCM))
        else:
            # the output is always a path under out_dir; other keys take a wrong type, or
            # empty or non-ASCII text, at times
            given[key] = draw(choices[key]) if key == "output" else _mostly(
                draw, choices[key], _WRONG)
    if _rarely(draw):  # a key no command takes, or one this command does not
        given[draw(_TEXT.filter(lambda k: k not in ("output", "mode")))] = 1
    return given


def _flag_text(value) -> str:
    return value if isinstance(value, str) else json.dumps(value)


_RUNS = itertools.count()


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_main_exits_0_1_or_2_with_one_named_error_line(command, data, tmp_path):
    out_dir = tmp_path / str(next(_RUNS))
    out_dir.mkdir()
    given = data.draw(_job(command, out_dir), label="given")
    # each key is a flag or a config value; the config file may also be no JSON object
    as_flag = {key: data.draw(st.booleans(), label=f"{key} as flag") for key in given}
    argv = [command] + [f"--{key.replace('_', '-')}={_flag_text(value)}"
                        for key, value in given.items() if as_flag[key]]
    config = {key: value for key, value in given.items() if not as_flag[key]}
    texts = {"object": json.dumps(config), "not an object": "[1]", "not JSON": '{"seed": ',
             "huge int": '{"seed": ' + "9" * 5000 + "}", "missing": None}
    form = data.draw(st.sampled_from(["object"] * 16 + [*texts][1:] + ["none"]), label="config")
    if form != "none" and (config or form != "object"):
        path = out_dir / "config.json"
        if texts[form] is not None:
            path.write_text(texts[form], encoding="utf-8")
        argv += ["--config", str(path)]
    argv = data.draw(st.sampled_from([argv] * 15 + [[], ["bogus"], [command, "--bogus=1"]]),
                     label="argv")

    code, out, err = _run(argv)
    event(f"exit {code}")

    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
        return
    assert err.startswith("covbell: ") and err.endswith("\n") and err.count("\n") == 1
    assert err[len("covbell: "):].strip()  # an exception raised through main fails the test
    if command == "reduce" and code == 2 and err.startswith("covbell: model is not covariant"):
        # the documented failure document, to stdout unless --output names a file
        written = out or (out_dir / "out").read_text()
        assert json.loads(written)["reduced"] is False
    else:
        assert out == ""
