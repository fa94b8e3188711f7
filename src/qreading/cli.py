"""Command-line front end: rate tables, gain maps, and diffraction sweeps.

Subcommands
    rate         one row per (transmitter, method) for a single cell config
    gain-map     EPR-vs-coherent gains over a parameter grid (figure data)
    diffraction  tau extrema and rate bounds as a function of ell / x_R

Values may come from a config file (INI-style, one section per command,
keys equal to the long flag names) and are overridden by explicit flags.
Results go to --out or standard output; diagnostics go to standard error,
with verbosity controlled by the QREADING_LOG environment variable.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import logging
import math
import os
import sys
from configparser import ConfigParser
from typing import Any, Sequence

from .channels import MarginalCell
from .diffraction import DiffractionGeometry, rate_bounds, tau_extrema
from .errors import ConfigError, QReadingError
from .rates import (
    TransmitterSpec,
    coherent_capacity_noiseless,
    epr_rate_noiseless_phase,
    gains,
    holevo_rate,
)

log = logging.getLogger("qreading")

_DEFAULTS: dict[str, dict[str, Any]] = {
    "rate": {
        "p0": 0.5, "z0-mod": 0.0, "z0-phase-deg": 0.0,
        "z1-mod": 1.0, "z1-phase-deg": 0.0,
        "n": None, "nth": 0.0, "transmitter": "both",
        "dim": None, "quad-order": 20, "threads": None,
        "out": None, "format": "csv",
    },
    "gain-map": {
        "p0": 0.5, "z0-grid": "0", "z1-grid": "1",
        "n-grid": None, "nth-grid": None,
        "dim": 30, "quad-order": 20, "threads": None,
        "out": None, "format": "csv",
    },
    "diffraction": {
        "p0": 0.5, "z0-mod": 0.0, "z0-phase-deg": 0.0,
        "z1-mod": 1.0, "z1-phase-deg": 0.0,
        "n": 0.1, "nth": 1.0, "lxr-grid": None, "d-over-ell": 1.0,
        "grid-size": 4096, "both-sides": False,
        "dim": None, "quad-order": 20, "threads": None,
        "out": None, "format": "csv",
    },
}

_KEY_TYPES: dict[str, type] = {
    "p0": float, "z0-mod": float, "z0-phase-deg": float,
    "z1-mod": float, "z1-phase-deg": float,
    "n": float, "nth": float, "d-over-ell": float,
    "dim": int, "quad-order": int, "threads": int, "grid-size": int,
    "both-sides": bool,
}

_REQUIRED: dict[str, tuple[str, ...]] = {
    "rate": ("n",),
    "gain-map": ("n-grid", "nth-grid"),
    "diffraction": ("lxr-grid",),
}


def _fmt(value: Any) -> Any:
    if value is None:
        return None
    if isinstance(value, float):
        return float(f"{value:.12g}")
    return value


def parse_grid(text: str) -> list[float]:
    """Grid syntax: 'start:stop:count' (inclusive linspace) or 'a,b,c'."""
    text = str(text).strip()
    try:
        if ":" in text:
            start_s, stop_s, count_s = text.split(":")
            start, stop, count = float(start_s), float(stop_s), int(count_s)
            if count < 1:
                raise ValueError
            if count == 1:
                return [start]
            step = (stop - start) / (count - 1)
            return [start + i * step for i in range(count)]
        vals = [float(v) for v in text.split(",") if v.strip() != ""]
        if not vals:
            raise ValueError
        return vals
    except ValueError as exc:
        raise ConfigError(f"cannot parse grid {text!r}") from exc


def _validate_grid(name: str, values: Sequence[float]) -> list[float]:
    vals = list(values)
    if not vals:
        raise ConfigError(f"{name}: grid is empty")
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"{name}: grid values must be finite")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ConfigError(f"{name}: grid must be strictly increasing")
    return vals


def _polar(mod: float, phase_deg: float) -> complex:
    return cmath.rect(float(mod), math.radians(float(phase_deg)))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qreading",
        description="Holevo readout rates of optical memories under thermal "
                    "and diffraction noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", help="INI config file")
        p.add_argument("--out", metavar="PATH", help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--dim", type=int, help="Fock truncation per mode")
        p.add_argument("--quad-order", type=int, help="Gauss-Hermite order")
        p.add_argument("--threads", type=int,
                       help="deprecated and ignored; computation is serial")

    p_rate = sub.add_parser("rate", help="rates for a single configuration")
    common(p_rate)
    p_rate.add_argument("--p0", type=float)
    p_rate.add_argument("--z0-mod", type=float)
    p_rate.add_argument("--z0-phase-deg", type=float)
    p_rate.add_argument("--z1-mod", type=float)
    p_rate.add_argument("--z1-phase-deg", type=float)
    p_rate.add_argument("--n", type=float)
    p_rate.add_argument("--nth", type=float)
    p_rate.add_argument("--transmitter", choices=("coherent", "epr", "both"))

    p_map = sub.add_parser("gain-map", help="gain grid over (z0, z1) x (n, nth)")
    common(p_map)
    p_map.add_argument("--p0", type=float)
    p_map.add_argument("--z0-grid")
    p_map.add_argument("--z1-grid")
    p_map.add_argument("--n-grid")
    p_map.add_argument("--nth-grid")

    p_dif = sub.add_parser("diffraction", help="tau extrema and rate bounds")
    common(p_dif)
    p_dif.add_argument("--p0", type=float)
    p_dif.add_argument("--z0-mod", type=float)
    p_dif.add_argument("--z0-phase-deg", type=float)
    p_dif.add_argument("--z1-mod", type=float)
    p_dif.add_argument("--z1-phase-deg", type=float)
    p_dif.add_argument("--n", type=float)
    p_dif.add_argument("--nth", type=float)
    p_dif.add_argument("--lxr-grid")
    p_dif.add_argument("--d-over-ell", type=float)
    p_dif.add_argument("--grid-size", type=int)
    p_dif.add_argument("--both-sides", action="store_const", const=True)
    return parser


def _merge_config(command: str, args: argparse.Namespace) -> dict[str, Any]:
    merged = dict(_DEFAULTS[command])
    if args.config:
        parser = ConfigParser()
        read = parser.read(args.config)
        if not read:
            raise ConfigError(f"cannot read config file {args.config}")
        if parser.has_section(command):
            for key, value in parser.items(command):
                if key not in merged:
                    raise ConfigError(f"unknown config key {key!r} in [{command}]")
                merged[key] = value
    for key in merged:
        arg_val = getattr(args, key.replace("-", "_"), None)
        if arg_val is not None:
            merged[key] = arg_val
    for key in _REQUIRED[command]:
        if merged[key] is None:
            raise ConfigError(f"missing required field {key!r} for {command}")
    # normalize scalar types possibly read as strings from the config file
    for key, caster in _KEY_TYPES.items():
        if key in merged and isinstance(merged[key], str):
            if caster is bool:
                merged[key] = merged[key].lower() in ("1", "true", "yes")
            else:
                try:
                    merged[key] = caster(merged[key])
                except ValueError as exc:
                    raise ConfigError(f"bad value for {key!r}: {merged[key]!r}") from exc
        if isinstance(merged.get(key), float) and not math.isfinite(merged[key]):
            raise ConfigError(f"{key!r} must be finite, got {merged[key]!r}")
    return merged


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def cmd_rate(cfg: dict[str, Any]) -> list[dict[str, Any]]:
    p0 = float(cfg["p0"])
    z0 = _polar(cfg["z0-mod"], cfg["z0-phase-deg"])
    z1 = _polar(cfg["z1-mod"], cfg["z1-phase-deg"])
    n = float(cfg["n"])
    nth = float(cfg["nth"])
    cell = MarginalCell.binary(p0, z0, z1)
    kinds = ("coherent", "epr") if cfg["transmitter"] == "both" else (cfg["transmitter"],)

    echo = {
        "p0": p0, "z0_mod": float(cfg["z0-mod"]), "z0_phase_deg": float(cfg["z0-phase-deg"]),
        "z1_mod": float(cfg["z1-mod"]), "z1_phase_deg": float(cfg["z1-phase-deg"]),
        "n": n, "n_th": nth, "quad_order": int(cfg["quad-order"]),
    }

    def one(kind: str) -> list[dict[str, Any]]:
        tx = TransmitterSpec.coherent(n) if kind == "coherent" else TransmitterSpec.epr(n)
        res = holevo_rate(cell, tx, nth, cfg["dim"], int(cfg["quad-order"]))
        rows = [dict(echo, transmitter=kind, method=res.method, dim=res.truncation_dim,
                     rate_bits=res.rate_bits, trace_deficit=res.trace_deficit)]
        if nth == 0.0:
            analytic = None
            if kind == "coherent":
                analytic = coherent_capacity_noiseless(cell, n)
            elif abs(abs(z0) - 1.0) < 1e-12 and abs(abs(z1) - 1.0) < 1e-12:
                theta = cmath.phase(z1) - cmath.phase(z0)
                analytic = epr_rate_noiseless_phase(p0, 1.0 - p0, theta, n)
            if analytic is not None:
                rows.append(dict(echo, transmitter=kind, method="analytic_noiseless",
                                 dim=res.truncation_dim, rate_bits=analytic,
                                 trace_deficit=0.0))
        return rows

    out: list[dict[str, Any]] = []
    for kind in kinds:
        out.extend(one(kind))
    return out


def cmd_gain_map(cfg: dict[str, Any]) -> list[dict[str, Any]]:
    p0 = float(cfg["p0"])
    z0s = _validate_grid("z0-grid", parse_grid(cfg["z0-grid"]))
    z1s = _validate_grid("z1-grid", parse_grid(cfg["z1-grid"]))
    ns = _validate_grid("n-grid", parse_grid(cfg["n-grid"]))
    nths = _validate_grid("nth-grid", parse_grid(cfg["nth-grid"]))
    dim = int(cfg["dim"])
    quad = int(cfg["quad-order"])

    def one(z0: float, z1: float, n: float, nth: float) -> dict[str, Any]:
        res = gains(MarginalCell.binary(p0, z0, z1), n, nth, dim, quad)
        return {
            "p0": p0, "z0": z0, "z1": z1, "n": n, "n_th": nth,
            "dim": dim, "quad_order": quad,
            "coherent_bits": res.coherent_bits, "epr_bits": res.epr_bits,
            "gain_absolute": res.absolute, "gain_relative": res.relative,
        }

    return [one(z0, z1, n, nth) for z0 in z0s for z1 in z1s for n in ns for nth in nths]


def cmd_diffraction(cfg: dict[str, Any]) -> list[dict[str, Any]]:
    p0 = float(cfg["p0"])
    z0 = _polar(cfg["z0-mod"], cfg["z0-phase-deg"])
    z1 = _polar(cfg["z1-mod"], cfg["z1-phase-deg"])
    n = float(cfg["n"])
    nth = float(cfg["nth"])
    d_over_ell = float(cfg["d-over-ell"])
    grid_size = int(cfg["grid-size"])
    quad = int(cfg["quad-order"])
    both_sides = bool(cfg["both-sides"])
    ratios = _validate_grid("lxr-grid", parse_grid(cfg["lxr-grid"]))
    cell = MarginalCell.binary(p0, z0, z1)
    txs = {"coherent": TransmitterSpec.coherent(n), "epr": TransmitterSpec.epr(n)}

    def one(ratio: float) -> dict[str, Any]:
        geom = DiffractionGeometry.from_ratios(ratio, d_over_ell)
        tau_min, tau_max = tau_extrema(geom, grid_size)  # memoised; shared with rate_bounds
        row = {
            "p0": p0, "z0_mod": float(cfg["z0-mod"]), "z0_phase_deg": float(cfg["z0-phase-deg"]),
            "z1_mod": float(cfg["z1-mod"]), "z1_phase_deg": float(cfg["z1-phase-deg"]),
            "n": n, "n_th": nth, "d_over_ell": d_over_ell,
            "ell_over_xr": ratio, "quad_order": quad,
            "tau_min": tau_min, "tau_max": tau_max,
        }
        for kind, tx in txs.items():
            bounds = rate_bounds(cell, tx, geom, nth, cfg["dim"], quad, grid_size,
                                 both_sides)
            row[f"{kind}_lower"] = bounds.lower_bits
            row[f"{kind}_upper"] = bounds.upper_bits
        return row

    return [one(ratio) for ratio in ratios]


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def render(rows: list[dict[str, Any]], fmt: str) -> str:
    if not rows:
        raise QReadingError("no rows computed")
    header = list(rows[0].keys())
    if fmt == "json":
        payload = [{k: _fmt(row[k]) for k in header} for row in rows]
        return json.dumps(payload, indent=1) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow("" if row[k] is None else
                        (f"{row[k]:.12g}" if isinstance(row[k], float) else row[k])
                        for k in header)
    return buf.getvalue()


def main(argv: Sequence[str] | None = None) -> int:
    level = os.environ.get("QREADING_LOG", "warn").upper()
    level = {"WARN": "WARNING"}.get(level, level)
    logging.basicConfig(stream=sys.stderr,
                        level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args.command, args)
        if cfg["threads"] is not None:
            log.warning("--threads is deprecated and ignored: computation is "
                        "serial; limit BLAS threads with OPENBLAS_NUM_THREADS")
        log.info("running %s with %s", args.command, cfg)
        runner = {"rate": cmd_rate, "gain-map": cmd_gain_map,
                  "diffraction": cmd_diffraction}[args.command]
        rows = runner(cfg)
        text = render(rows, cfg["format"])
    except (ConfigError, ValueError) as exc:  # out-of-domain input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QReadingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if cfg["out"]:
        with open(cfg["out"], "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
