"""The benchmark's workloads: seeded CLI inputs and checks of every output row.

Each op is one ``qreading`` CLI call, given as its argument list. A workload
yields cycles, each a list of ops; a run measures whole cycles, so every run
keeps the same mix of op kinds. Workloads pass only physics inputs and the
truncation ``--dim``; numerical knobs (``--quad-order``, ``--threads``,
``--grid-size``) stay at their defaults, so a later change that retunes or
deletes a knob is measured by the benchmark rather than broken by it.

The first op of ``point-rate`` and ``gain-map`` sits at the corner of the
input box where truncation error is largest. The run's worst Fock-vs-Gaussian
cross-check then measures that corner on every seed, so the trust number
compares across seeds and catches a change that lowers accuracy there.
``diffraction-sweep`` needs no such op: at d/ell = 1, tau_max = 1 fixes the
worst point of every run.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

Argv = list[str]
Row = dict[str, str]

TEXT_COLUMNS = {"transmitter", "method"}
TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    cycles: Callable[[random.Random], Iterator[list[Argv]]]
    check: Callable[[Argv, list[Row]], list[str]]


def _draw(rng: random.Random, lo: float, hi: float) -> str:
    """A value in [lo, hi), written with the digits the CLI receives."""
    return f"{lo + (hi - lo) * rng.random():.4f}"


def _stratum(rng: random.Random, lo: float, hi: float, k: int) -> str:
    """A value from the (k mod 3)-th third of [lo, hi)."""
    width = (hi - lo) / 3
    return _draw(rng, lo + width * (k % 3), lo + width * (k % 3 + 1))


def _distinct_sorted(rng: random.Random, lo: float, hi: float, count: int) -> list[str]:
    while True:
        vals = sorted({_draw(rng, lo, hi) for _ in range(count)}, key=float)
        if len(vals) == count and float(vals[0]) > 0:
            return vals


def _flag(argv: Argv, name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def _h2(q: float) -> float:
    return 0.0 if q <= 0.0 or q >= 1.0 else -q * math.log2(q) - (1 - q) * math.log2(1 - q)


def _coherent_noiseless(p0: float, z0: float, z1: float, n: float) -> float:
    """Closed-form noiseless coherent rate of a binary cell."""
    arg = 1.0 - 4.0 * p0 * (1.0 - p0) * (1.0 - math.exp(-n * abs(z1 - z0) ** 2))
    return _h2(0.5 - 0.5 * math.sqrt(max(arg, 0.0)))


def _numbers(rows: list[Row]) -> tuple[list[dict[str, float]], list[str]]:
    """Rows with numeric columns parsed; errors for non-finite values."""
    parsed: list[dict[str, float]] = []
    errors: list[str] = []
    for i, row in enumerate(rows):
        out: dict[str, float] = {}
        for key, text in row.items():
            if key in TEXT_COLUMNS:
                continue
            try:
                value = float(text)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                errors.append(f"row {i}: {key}={text!r} is not finite")
            out[key] = value
        parsed.append(out)
    return parsed, errors


def _in_rate_range(row: dict[str, float], keys: tuple[str, ...], i: int) -> list[str]:
    top = _h2(row["p0"]) + TOL
    return [f"row {i}: {k}={row[k]} outside [0, h(p0)={top}]"
            for k in keys if not (0.0 <= row[k] <= top)]


# ---------------------------------------------------------------------------
# point-rate: `rate` at one (N, T); both transmitters at their default dims
# ---------------------------------------------------------------------------

def point_rate_cycles(rng: random.Random) -> Iterator[list[Argv]]:
    yield [["rate", "--n", "1", "--nth", "1"]]
    used = {"1.0000"}
    while True:
        nth = _draw(rng, 0.1, 1.0)
        if nth in used:
            continue
        used.add(nth)
        yield [["rate", "--n", _draw(rng, 0.05, 1.0), "--nth", nth]]


def point_rate_check(argv: Argv, rows: list[Row]) -> list[str]:
    parsed, errors = _numbers(rows)
    kinds = sorted(r.get("transmitter", "") for r in rows)
    if kinds != ["coherent", "epr"]:
        errors.append(f"expected one coherent and one epr row, got {kinds}")
    for i, row in enumerate(parsed):
        if errors:
            break
        errors += _in_rate_range(row, ("rate_bits",), i)
        if row["n"] != float(_flag(argv, "--n", "nan")) \
                or row["n_th"] != float(_flag(argv, "--nth", "nan")):
            errors.append(f"row {i}: inputs not echoed")
    return errors


# ---------------------------------------------------------------------------
# gain-map: 2 x 3 grid of (n, n_th) at dim 24, 12 Holevo rates per op
# ---------------------------------------------------------------------------

def gain_map_cycles(rng: random.Random) -> Iterator[list[Argv]]:
    yield [["gain-map", "--n-grid", "0.01,0.5", "--nth-grid", "0,0.05,1", "--dim", "24"]]
    while True:
        ns = _distinct_sorted(rng, 0.01, 0.5, 2)
        nths = _distinct_sorted(rng, 0.05, 1.0, 2)
        yield [["gain-map", "--n-grid", ",".join(ns),
                "--nth-grid", ",".join(["0"] + nths), "--dim", "24"]]


def gain_map_check(argv: Argv, rows: list[Row]) -> list[str]:
    parsed, errors = _numbers(rows)
    expect = len(_flag(argv, "--n-grid", "").split(",")) \
        * len(_flag(argv, "--nth-grid", "").split(","))
    if len(rows) != expect:
        errors.append(f"expected {expect} rows, got {len(rows)}")
    for i, row in enumerate(parsed):
        if errors:
            break
        errors += _in_rate_range(row, ("coherent_bits", "epr_bits"), i)
        if abs(row["gain_absolute"] - (row["epr_bits"] - row["coherent_bits"])) > TOL:
            errors.append(f"row {i}: gain_absolute != epr_bits - coherent_bits")
        if row["n_th"] == 0.0:
            ref = _coherent_noiseless(row["p0"], row["z0"], row["z1"], row["n"])
            if abs(row["coherent_bits"] - ref) > 1e-6:
                errors.append(f"row {i}: coherent_bits {row['coherent_bits']} "
                              f"!= noiseless closed form {ref}")
    return errors


# ---------------------------------------------------------------------------
# diffraction-sweep: 8 ratios ell/x_R, faint regime, d/ell = 1 then aliased
# ---------------------------------------------------------------------------

def diffraction_cycles(rng: random.Random) -> Iterator[list[Argv]]:
    # s, t and the aliased d/ell take the thirds of their ranges in turn, so
    # every run of three or more cycles spans the inputs the op cost depends on
    def op(k: int, d_over_ell: str) -> Argv:
        grid = f"{_stratum(rng, 0.5, 1.0, k)}:{_stratum(rng, 2.0, 3.0, k + 1)}:8"
        return ["diffraction", "--lxr-grid", grid, "--n", "0.01", "--nth", "0.1",
                "--dim", "12", "--d-over-ell", d_over_ell]

    for k in itertools.count():
        yield [op(k, "1"), op(k, _stratum(rng, 0.5, 0.95, k))]


def diffraction_check(argv: Argv, rows: list[Row]) -> list[str]:
    parsed, errors = _numbers(rows)
    expect = int(_flag(argv, "--lxr-grid", "::0").split(":")[2])
    if len(rows) != expect:
        errors.append(f"expected {expect} rows, got {len(rows)}")
    bounds = ("coherent_lower", "coherent_upper", "epr_lower", "epr_upper")
    for i, row in enumerate(parsed):
        if errors:
            break
        errors += _in_rate_range(row, bounds, i)
        if not (0.0 <= row["tau_min"] <= row["tau_max"] <= 1.0):
            errors.append(f"row {i}: tau_min={row['tau_min']} tau_max={row['tau_max']}")
        for kind in ("coherent", "epr"):
            if row[f"{kind}_lower"] > row[f"{kind}_upper"] + TOL:
                errors.append(f"row {i}: {kind} lower bound above upper")
        if row["d_over_ell"] == 1.0 and abs(row["tau_max"] - 1.0) > TOL:
            errors.append(f"row {i}: tau_max={row['tau_max']} at d/ell = 1")
    if not errors and parsed and parsed[0]["d_over_ell"] == 1.0:
        for prev, cur in zip(parsed, parsed[1:]):
            for key in bounds:
                if cur[key] < prev[key] - TOL:
                    errors.append(f"{key} falls from {prev[key]} to {cur[key]} "
                                  f"at ell/x_R={cur['ell_over_xr']}")
    return errors


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("point-rate", point_rate_cycles, point_rate_check),
    Workload("gain-map", gain_map_cycles, gain_map_check),
    Workload("diffraction-sweep", diffraction_cycles, diffraction_check),
)}
