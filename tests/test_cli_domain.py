"""Properties over the command line's input domain: whatever finite, extreme or
out-of-domain number a flag holds, the command ends in a documented exit code
with either a clean table or one ``error:`` line, never a traceback or a
non-finite cell; and a command line argparse cannot read returns 2 with one
``error:`` line, never a usage block or a SystemExit."""

import contextlib
import csv
import io
import json
import math
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qreading.cli import _OPTIONS, main

EXTREMES = [0.0, 5e-324, 1e300, sys.float_info.max]
NEGATIVES = [-5e-324, -0.5, -1e300, -sys.float_info.max]
NUMBER = st.one_of(st.sampled_from(EXTREMES), st.floats(0.0, 3.0, allow_subnormal=False),
                   st.sampled_from(NEGATIVES))
# up to 3 points, half the time put in increasing order so that most grids are valid
GRID = st.tuples(st.lists(NUMBER, min_size=1, max_size=3), st.booleans()).map(
    lambda args: ",".join(map(repr, sorted(set(args[0])) if args[1] else args[0])))


def flags(**values):
    # --key=value, so argparse never reads a negative number such as -1e+300 as a flag
    return [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]


CELL = dict(p0=NUMBER, z0_mod=NUMBER, z0_phase_deg=NUMBER, z1_mod=NUMBER,
            z1_phase_deg=NUMBER)
# each optional flag is given or left at its default, so valid runs are common
COMMANDS = st.one_of(
    st.fixed_dictionaries(dict(n=NUMBER), optional=dict(CELL, nth=NUMBER)).map(
        lambda kw: ["rate", *flags(**kw)]),
    st.fixed_dictionaries(dict(n_grid=GRID, nth_grid=GRID),
                          optional=dict(p0=NUMBER, z0_grid=GRID, z1_grid=GRID)).map(
        lambda kw: ["gain-map", *flags(**kw)]),
    st.fixed_dictionaries(dict(lxr_grid=GRID),
                          optional=dict(CELL, n=NUMBER, nth=NUMBER, d_over_ell=NUMBER)).map(
        lambda kw: ["diffraction", *flags(**kw)]),
)


def _refuse(constant):
    raise ValueError(f"non-finite JSON constant {constant}")


@given(COMMANDS, st.integers(4, 10), st.sampled_from(["csv", "json"]))
@settings(max_examples=200, deadline=None)
@example(["rate", "--n=0.1", f"--nth={sys.float_info.max!r}"], 30, "json")
@example(["diffraction", f"--lxr-grid={sys.float_info.max!r}"], 4, "csv")
@example(["diffraction", "--lxr-grid=1e9", "--d-over-ell=0.7", "--n=0.01"], 4, "csv")
@example(["diffraction", "--lxr-grid=1e20", "--d-over-ell=0.7", "--n=0.01"], 4, "csv")
@example(["rate", "--n=0.1"], 0, "csv")
def test_every_input_ends_cleanly(argv, dim, fmt):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, f"--dim={dim}", f"--format={fmt}"])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code != 0:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return
    assert err == ""
    if fmt == "json":
        rows = json.loads(out, parse_constant=_refuse)
        assert rows
        return
    for row in list(csv.reader(io.StringIO(out)))[1:]:
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value), row


def _unreadable(cast, text):
    try:
        cast(text)
    except ValueError:
        return True
    return False


# flag and subcommand names; an unknown one must not be a prefix of a known
# one, which argparse would take as its abbreviation
WORD = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12)
# a well-formed start for each subcommand, so that only the appended part is wrong
WELL_FORMED = {"rate": ["--n=0.1"], "gain-map": ["--n-grid=0.1", "--nth-grid=0"],
               "diffraction": ["--lxr-grid=1"]}


def _malformed(command):
    opts = _OPTIONS[command]
    known = ["--help", "--config", *(f"--{key}" for key in opts)]
    numbers = [key for key, opt in opts.items() if opt.type in (float, int)]
    choices = [key for key, opt in opts.items() if opt.choices]
    valued = ["--config", *(f"--{key}" for key, opt in opts.items() if opt.type is not bool)]
    tail = st.one_of(
        st.tuples(st.sampled_from(numbers), st.text(max_size=8))
        .filter(lambda kv: _unreadable(opts[kv[0]].type, kv[1]))
        .map(lambda kv: [f"--{kv[0]}={kv[1]}"]),
        st.tuples(st.sampled_from(choices), st.text(max_size=8))
        .filter(lambda kv: kv[1] not in opts[kv[0]].choices)
        .map(lambda kv: [f"--{kv[0]}={kv[1]}"]),
        WORD.map("--{}".format).filter(lambda flag: not any(k.startswith(flag) for k in known))
        .map(lambda flag: [flag, "3"]),
        st.sampled_from(valued).map(lambda flag: [flag]),
    )
    return tail.map(lambda bad: [command, *WELL_FORMED[command], *bad])


UNKNOWN_SUBCOMMAND = WORD.filter(
    lambda word: not word.startswith("-") and not any(c.startswith(word) for c in _OPTIONS))
MALFORMED = st.one_of(*map(_malformed, _OPTIONS), st.just([]),
                      UNKNOWN_SUBCOMMAND.map(lambda word: [word, "--n=0.1"]))


@given(MALFORMED)
@settings(max_examples=200, deadline=None)
@example(["rate", "--n", "abc"])
@example(["rate", "--n", "1", "--transmitter", "foo"])
@example(["rate", "--n", "1", "--bogus", "3"])
@example(["rate", "--n"])
@example(["rate", "--n", "1", "--dim", "2.5"])
@example(["rate", "--n", "0.1", "--nth", "-1e300"])
@example(["bogus"])
@example([])
def test_malformed_command_line_is_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # a SystemExit fails the test
    err = err.getvalue()
    assert code == 2
    assert out.getvalue() == ""
    assert err.startswith("error: ") and err.count("\n") == 1
