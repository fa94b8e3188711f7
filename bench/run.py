"""qreading benchmark: three CLI workloads, end-to-end metrics, layer spans.

Usage, from the root of a checkout:

    python3 bench/run.py --workload point-rate --seed 1 --seconds 25 --trace 0

Each workload runs in its own fresh interpreter (``worker.py``), so the
package's per-process caches start cold, as they do for a CLI user. With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a separate traced run. The
line before it is a report: provenance, op sample count, op walls and, in a
traced run, the targets found absent. The run exits non-zero without a
result when the checkout has no ``src/qreading`` or the worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 140
SETUP_TIMEOUT_S = 30
END_TO_END_UNITS = {
    "setup_s": "s", "op_s_p50": "s", "rows_per_s": "rows/s",
    "cross_check_bits_max": "bits", "peak_rss_mb": "MB", "ops_ok_ratio": "ratio",
}
# Eigenvalue roundoff puts Fock-vs-Gaussian deviations near 1e-12 bits where
# truncation error vanishes (diffraction-sweep). Below this floor the number
# is noise, so a change that only reorders arithmetic does not read as a loss.
CROSS_CHECK_RESOLUTION_BITS = 1e-10
# The child prints the system-wide monotonic clock once the parser is built,
# so a sample is not rounded up to the parent's polling interval.
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import qreading.cli as cli; "
    "getattr(cli, '_build_parser', lambda: None)(); print(time.monotonic())"
)

sys.path.insert(0, str(HERE))
from tracer import metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def commit() -> dict[str, str]:
    """Git commit when the checkout has one, and a hash of the package source."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "qreading").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    head = "unknown"
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        head = (git / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    except OSError:
        pass
    return {"commit": head, "src_sha256": digest.hexdigest()}


def setup_seconds() -> list[float]:
    """Wall time of fresh interpreters that import the CLI and build its parser."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True,
                              stdout=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S)
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "qreading" / "cli.py").is_file():
        print(f"error: {SRC / 'qreading'} not found; run from a qreading checkout",
              file=sys.stderr)
        return 2

    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(out_dir / f"spans-{args.workload}.csv.gz")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    worker = json.loads(proc.stdout.strip().splitlines()[-1])

    ops = worker["ops"]
    ok = [o for o in ops if o["ok"]]
    report: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": {**commit(), "nproc": os.cpu_count(), **worker["provenance"]},
        "ops": len(ops),
        "op_walls_s": [o["wall_s"] for o in ops],
        "op_args": [" ".join(o["argv"]) for o in ops],
        "holevo_calls": worker["holevo_calls"],
    }
    if args.trace:
        units = metric_units()
        values = worker["per_layer"]
        report["absent"] = worker["absent"]
        report["spans_file"] = worker.get("spans_file")
    else:
        setup = setup_seconds()
        report["setup_samples_s"] = setup
        walls = [o["wall_s"] for o in ops]
        units = END_TO_END_UNITS
        values = {
            "setup_s": statistics.median(setup),
            "op_s_p50": statistics.median(walls),
            "rows_per_s": statistics.median(
                (o["rows"] if o["ok"] else 0) / o["wall_s"] for o in ops),
            "cross_check_bits_max": max(worker["cross_check_bits_max"],
                                        CROSS_CHECK_RESOLUTION_BITS),
            "peak_rss_mb": worker["peak_rss_mb"],
            "ops_ok_ratio": len(ok) / len(ops),
        }
    print(json.dumps(report))
    print(json.dumps({
        "correct": len(ok) == len(ops),
        "attempted": len(ops),
        "failed": len(ops) - len(ok),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
