"""Property over the command line's input domain: whatever finite, extreme or
out-of-domain number a flag holds, the command ends in a documented exit code
with either a clean table or one ``error:`` line, never a traceback or a
non-finite cell."""

import contextlib
import csv
import io
import json
import math
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qreading.cli import main

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
