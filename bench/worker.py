"""Run one workload in this (fresh) interpreter and print its figures as JSON.

Started by ``run.py``; not meant to be run by hand. Ops are ``qreading.cli.main``
calls made in-process, one after another (one closed-loop client), in whole
cycles: at least ``MIN_CYCLES``, and no new cycle after ``--seconds`` seconds.
With ``--trace 1`` cycles alternate
between traced and untraced, starting traced, so the same run gives the
per-layer spans and the tracing overhead (traced minus untraced op wall).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import random
import re
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Callable

from tracer import Tracer, rebind
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# whole cycles measured at least: an odd sample count keeps one slow op from
# moving the median, and a traced run then has traced, untraced, traced
MIN_CYCLES = 3
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_cli() -> Any:
    """Import the checkout's own ``qreading.cli``, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import qreading.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"imported qreading from {cli.__file__}, not {SRC}")
    return cli


class Observer:
    """Keeps the worst cross-check error and trace deficit of ``holevo_rate``.

    Installed in every run: the cross-check is an end-to-end trust number,
    and the CLI does not print it.
    """

    def __init__(self) -> None:
        self.cross_check_max = 0.0
        self.trace_deficit_max = 0.0
        self.calls = 0
        self._lock = threading.Lock()  # the CLI calls holevo_rate from pool threads
        self.restore = rebind("rates.holevo_rate", self._wrap)
        if self.restore is None:
            raise SystemExit("qreading.rates.holevo_rate not found")

    def _wrap(self, fn: Callable) -> Callable:
        def observed(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            with self._lock:
                self.calls += 1
                self.trace_deficit_max = max(self.trace_deficit_max,
                                             float(result.trace_deficit))
                if result.cross_check_error is not None:
                    self.cross_check_max = max(self.cross_check_max,
                                               float(result.cross_check_error))
            return result
        return observed


def clear_caches() -> None:
    """Empty the package's ``lru_cache``s, so every op starts as cold as a
    CLI call does; no op reuses another op's results."""
    for name, module in list(sys.modules.items()):
        if name != "qreading" and not name.startswith("qreading."):
            continue
        for value in list(vars(module).values()):
            while value is not None and not hasattr(value, "cache_clear"):
                value = getattr(value, "__wrapped__", None)
            if value is not None:
                value.cache_clear()


def blas_threads() -> dict[str, int | None]:
    """OpenBLAS thread count of each OpenBLAS library loaded in this process."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    found: dict[str, int | None] = {}
    for path in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        lib = ctypes.CDLL(path)
        count = None
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                count = int(fn())
                break
        found[Path(path).name] = count
    return found


def provenance(cli: Any) -> dict[str, Any]:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    default_threads = getattr(cli, "_DEFAULTS", {}).get("rate", {}).get("threads")
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "cli_threads_default": default_threads,
        "cli_threads_effective": (os.cpu_count() or 1) if default_threads == 0
        else default_threads,
    }


def run_op(argv: list[str], call: Callable) -> tuple[float, list[dict], str]:
    """One CLI call; returns (wall seconds, output rows, failure or '')."""
    buf = io.StringIO()
    failure = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = call(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code
    except Exception:  # a crashing op is counted as failed; the run goes on
        traceback.print_exc()
        code = "exception"
    wall = time.perf_counter() - start
    if code != 0:
        failure = f"exit {code}"
    rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
    return wall, rows, failure


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", help="gzipped CSV of the traced spans")
    args = parser.parse_args()

    cli = import_cli()
    workload = WORKLOADS[args.workload]
    cycles = workload.cycles(random.Random(args.seed))
    observer = Observer()
    tracer = Tracer() if args.trace else None

    ops: list[dict[str, Any]] = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    cycle = 0
    while cycle < MIN_CYCLES or time.perf_counter() - wall0 < args.seconds:
        traced = tracer is not None and cycle % 2 == 0
        if traced:
            tracer.install()
        for argv in next(cycles):
            op_id = len(ops)
            call = (lambda a, op_id=op_id: tracer.run_op(op_id, cli.main, a)) \
                if traced else cli.main
            clear_caches()
            wall, rows, failure = run_op(argv, call)
            errors = [failure] if failure else workload.check(argv, rows)
            for err in errors:
                print(f"op {op_id} {' '.join(argv)}: {err}", file=sys.stderr)
            ops.append({"argv": argv, "wall_s": wall, "rows": len(rows),
                        "cycle": cycle, "traced": traced, "ok": not errors})
        if traced:
            tracer.uninstall()
        cycle += 1
    cpu_s, wall_s = time.process_time() - cpu0, time.perf_counter() - wall0
    observer.restore()

    result: dict[str, Any] = {
        "ops": ops,
        "cross_check_bits_max": observer.cross_check_max,
        "holevo_calls": observer.calls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": provenance(cli),
    }
    if tracer is not None:
        # the first cycle is the coldest, and in two workloads the corner op
        later = [o for o in ops if o["cycle"] > 0]
        traced_walls = [o["wall_s"] for o in later if o["traced"]]
        untraced_walls = [o["wall_s"] for o in later if not o["traced"]]
        layers = tracer.metrics()
        layers["rates.holevo_rate.trace_deficit_max"] = observer.trace_deficit_max
        layers["rates.holevo_rate.cross_check_bits_max"] = observer.cross_check_max
        layers["process.cpu_util"] = cpu_s / wall_s
        layers["trace.ops"] = float(tracer.ops_traced)
        layers["trace.overhead_s"] = (statistics.median(traced_walls)
                                      - statistics.median(untraced_walls))
        result["per_layer"] = layers
        result["absent"] = tracer.absent
        if args.spans_out:
            tracer.write_spans(args.spans_out)
            result["spans_file"] = args.spans_out
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
