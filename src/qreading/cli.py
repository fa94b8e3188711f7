"""Command-line front end: rate tables, gain maps, and diffraction sweeps.

Subcommands
    rate         one row per (transmitter, method) for a single cell config
    gain-map     EPR-vs-coherent gains over a parameter grid (figure data)
    diffraction  tau extrema and rate bounds as a function of ell / x_R

Values may come from a config file (INI-style, one section per command,
keys equal to the long flag names). Its entries become flags ahead of the
command line's own, so one parser reads and checks both, and flags win.
Results go to --out or standard output; diagnostics go to standard error,
with verbosity controlled by the QREADING_LOG environment variable.
"""

from __future__ import annotations

import argparse
import cmath
import configparser
import csv
import ctypes
import io
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, NoReturn, Sequence

from .channels import MarginalCell
from .diffraction import DiffractionGeometry, rate_bounds
from .errors import ConfigError, QReadingError
from .rates import (
    TransmitterSpec,
    coherent_capacity_noiseless,
    epr_rate_noiseless_phase,
    gains,
    holevo_rate,
)
from .states import DEFAULT_DIM_PER_MODE

log = logging.getLogger("qreading")

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters
_HEAP_RETAIN_BYTES = 32 << 20
_MAX_GRID_COUNT = 10 ** 6  # points a 'start:stop:count' grid may ask for


def _retain_freed_heap() -> None:
    """Have glibc keep freed memory for reuse instead of returning it to the kernel.

    A rate call allocates and frees numpy temporaries of a few hundred KB (a
    (3, d, d, d) EPR batch is 660 KB at d = 24). Past glibc's default
    thresholds each is mapped afresh, or trimmed off the heap top once freed,
    so the next one page-faults its memory back in: a dim-24 gain-map spent
    about a fifth of its wall in those faults. glibc's self-adjusting
    threshold also flips between faulting and reusing as sizes change, so a
    run of such ops switched between two speeds about 1.5x apart. The CLI
    owns its process, so it pins both thresholds; blocks above
    _HEAP_RETAIN_BYTES are still mapped on their own. A no-op off Linux.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, _HEAP_RETAIN_BYTES)
        mallopt(_M_TRIM_THRESHOLD, 2 * _HEAP_RETAIN_BYTES)


@dataclass(frozen=True)
class Option:
    """One flag and its config key: how its text is read, default, allowed values."""

    type: Callable[[str], Any] = str
    default: Any = None
    choices: tuple[str, ...] | None = None
    required: bool = False
    help: str | None = None


def _probe(n: float | None, nth: float) -> dict[str, Option]:
    """Probe photon number and thermal noise; ``--n`` is required without a default."""
    return {"n": Option(float, n, required=n is None), "nth": Option(float, nth)}


def _common(dim: int | None) -> dict[str, Option]:
    return {
        "out": Option(help="output path (default stdout)"),
        "format": Option(default="csv", choices=("csv", "json")),
        "dim": Option(int, dim, help="Fock truncation per mode"),
    }


_P0 = {"p0": Option(float, 0.5)}
_CELL = {
    **_P0,
    "z0-mod": Option(float, 0.0), "z0-phase-deg": Option(float, 0.0),
    "z1-mod": Option(float, 1.0), "z1-phase-deg": Option(float, 0.0),
}

_OPTIONS: dict[str, dict[str, Option]] = {
    "rate": {
        **_common(None), **_CELL, **_probe(None, 0.0),
        "transmitter": Option(default="both", choices=("coherent", "epr", "both")),
    },
    "gain-map": {
        **_common(DEFAULT_DIM_PER_MODE), **_P0,
        "z0-grid": Option(default="0"), "z1-grid": Option(default="1"),
        "n-grid": Option(required=True), "nth-grid": Option(required=True),
    },
    "diffraction": {
        **_common(None), **_CELL, **_probe(0.1, 1.0),
        "lxr-grid": Option(required=True), "d-over-ell": Option(float, 1.0),
        "both-sides": Option(bool, False),
    },
}

_SUMMARY = {
    "rate": "rates for a single configuration",
    "gain-map": "gain grid over (z0, z1) x (n, nth)",
    "diffraction": "tau extrema and rate bounds",
}


def _fmt(value: Any) -> Any:
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
            if count > _MAX_GRID_COUNT:
                raise ConfigError(f"grid {text!r}: count is above {_MAX_GRID_COUNT}")
            step = (stop - start) / (count - 1) if count > 1 else 0.0
            return [start + i * step for i in range(count)]
        vals = [float(v) for v in text.split(",") if v.strip() != ""]
        if not vals:
            raise ValueError
        return vals
    except ValueError as exc:
        raise ConfigError(f"cannot parse grid {text!r}") from exc


def _grid(cfg: dict[str, Any], key: str) -> list[float]:
    """The grid setting ``key``, finite and strictly increasing."""
    vals = parse_grid(cfg[key])
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"{key}: grid values must be finite")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ConfigError(f"{key}: grid must be strictly increasing")
    return vals


class _Parser(argparse.ArgumentParser):
    """argparse whose complaints become a ConfigError: one ``error:`` line, exit 2."""

    @staticmethod
    def error(message: str) -> NoReturn:
        raise ConfigError(message)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qreading",
        description="Holevo readout rates of optical memories under thermal "
                    "and diffraction noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in _OPTIONS.items():
        p = sub.add_parser(command, help=_SUMMARY[command])
        p.add_argument("--config", metavar="PATH", help="INI config file")
        for key, opt in options.items():
            if opt.type is bool:
                p.add_argument(f"--{key}", action="store_true", help=opt.help)
            else:
                p.add_argument(f"--{key}", type=opt.type, default=opt.default,
                               choices=opt.choices, help=opt.help)
    return parser


_PARSER = _parser()  # once per process: parse_args keeps no state between calls


def _config_flags(command: str, path: str) -> list[str]:
    """The [command] entries of a config file as flags: ``--key=value``, whose
    ``=`` keeps a value such as -1e300 from reading as a flag, or a boolean
    key's bare flag when its value is true."""
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
        items = parser.items(command) if parser.has_section(command) else []
    except (configparser.Error, UnicodeDecodeError) as exc:  # messages may span several lines
        raise ConfigError(f"cannot parse config file {path}: "
                          f"{str(exc).splitlines()[0]}") from exc
    options, flags = _OPTIONS[command], []
    for key, text in items:
        if key not in options:
            raise ConfigError(f"unknown config key {key!r} in [{command}]")
        if options[key].type is not bool:
            flags.append(f"--{key}={text}")
        elif text.lower() not in parser.BOOLEAN_STATES:
            raise ConfigError(f"bad value for {key!r}: {text!r}")
        elif parser.BOOLEAN_STATES[text.lower()]:
            flags.append(f"--{key}")
    return flags


def _settings(argv: list[str]) -> tuple[str, dict[str, Any]]:
    """The subcommand and its settings. A config file's flags go between the
    subcommand and the command line's flags, and argparse keeps the last value."""
    args = _PARSER.parse_args(argv)
    if args.config:
        args = _PARSER.parse_args([*argv[:1], *_config_flags(args.command, args.config),
                                   *argv[1:]])
    options = _OPTIONS[args.command]
    cfg = {key: getattr(args, key.replace("-", "_")) for key in options}
    for key, opt in options.items():
        if opt.required and cfg[key] is None:
            raise ConfigError(f"missing required field {key!r} for {args.command}")
    for key, value in cfg.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key!r} must be finite, got {value!r}")
    return args.command, cfg


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _cell(cfg: dict[str, Any]) -> tuple[MarginalCell, dict[str, Any]]:
    """The binary cell of the shared flags, and the row columns echoing them."""
    z0 = cmath.rect(cfg["z0-mod"], math.radians(cfg["z0-phase-deg"]))
    z1 = cmath.rect(cfg["z1-mod"], math.radians(cfg["z1-phase-deg"]))
    echo = {
        "p0": cfg["p0"], "z0_mod": cfg["z0-mod"], "z0_phase_deg": cfg["z0-phase-deg"],
        "z1_mod": cfg["z1-mod"], "z1_phase_deg": cfg["z1-phase-deg"],
        "n": cfg["n"], "n_th": cfg["nth"],
    }
    return MarginalCell.binary(cfg["p0"], z0, z1), echo


def cmd_rate(cfg: dict[str, Any]) -> list[dict[str, Any]]:
    cell, echo = _cell(cfg)
    (p0, p1), (z0, z1) = cell.probs, cell.reflectances
    n, nth = cfg["n"], cfg["nth"]
    kinds = ("coherent", "epr") if cfg["transmitter"] == "both" else (cfg["transmitter"],)
    rows: list[dict[str, Any]] = []
    for kind in kinds:
        tx = TransmitterSpec.coherent(n) if kind == "coherent" else TransmitterSpec.epr(n)
        res = holevo_rate(cell, tx, nth, cfg["dim"])
        rows.append(dict(echo, transmitter=kind, method="fock_numeric", dim=res.truncation_dim,
                         rate_bits=res.rate_bits, trace_deficit=res.trace_deficit,
                         cross_check_bits=res.cross_check_error))
        if nth != 0.0:
            continue
        analytic = None
        if kind == "coherent":
            analytic = coherent_capacity_noiseless(cell, n)
        elif abs(abs(z0) - 1.0) < 1e-12 and abs(abs(z1) - 1.0) < 1e-12:
            analytic = epr_rate_noiseless_phase(p0, p1, cmath.phase(z1) - cmath.phase(z0), n)
        if analytic is not None:
            rows.append(dict(echo, transmitter=kind, method="analytic_noiseless",
                             dim=res.truncation_dim, rate_bits=analytic,
                             trace_deficit=0.0, cross_check_bits=0.0))
    return rows


def cmd_gain_map(cfg: dict[str, Any]) -> list[dict[str, Any]]:
    p0, dim = cfg["p0"], cfg["dim"]
    z0s, z1s, ns, nths = (_grid(cfg, key) for key in ("z0-grid", "z1-grid", "n-grid",
                                                      "nth-grid"))
    return [dict(p0=p0, z0=z0, z1=z1, n=n, n_th=nth, dim=dim,
                 **vars(gains(MarginalCell.binary(p0, z0, z1), n, nth, dim)))
            for z0 in z0s for z1 in z1s for n in ns for nth in nths]


def cmd_diffraction(cfg: dict[str, Any]) -> list[dict[str, Any]]:
    ratios = _grid(cfg, "lxr-grid")
    cell, echo = _cell(cfg)
    geoms = [DiffractionGeometry(ratio, cfg["d-over-ell"]) for ratio in ratios]
    bounds = rate_bounds(cell, cfg["n"], geoms, cfg["nth"], cfg["dim"],
                         attenuate_idler=cfg["both-sides"])
    return [dict(echo, d_over_ell=cfg["d-over-ell"], ell_over_xr=ratio, **vars(b))
            for ratio, b in zip(ratios, bounds)]


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
        writer.writerow(f"{row[k]:.12g}" if isinstance(row[k], float) else row[k]
                        for k in header)
    return buf.getvalue()


def main(argv: Sequence[str] | None = None) -> int:
    level = logging.getLevelName(os.environ.get("QREADING_LOG", "warn").upper())
    logging.basicConfig(stream=sys.stderr,
                        level=level if isinstance(level, int) else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    _retain_freed_heap()
    try:
        command, cfg = _settings(sys.argv[1:] if argv is None else list(argv))
        log.info("running %s with %s", command, cfg)
        runner = {"rate": cmd_rate, "gain-map": cmd_gain_map,
                  "diffraction": cmd_diffraction}[command]
        rows = runner(cfg)
        text = render(rows, cfg["format"])
    except (ConfigError, ValueError) as exc:  # out-of-domain input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QReadingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the allocation; Python's is empty
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1
    if cfg["out"]:
        try:
            with open(cfg["out"], "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {cfg['out']}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
