"""Tiny-size self-test of the benchmark.

    python3 -m pytest -q bench/test_bench.py

Runs a few small CLI ops under the tracer and checks that every named metric
and span appears with its unit, that a missing target is reported absent,
that the row checks reject broken rows, and that the benchmark refuses to
run without the package source.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import qreading.channels  # noqa: E402
import qreading.cli  # noqa: E402

TINY_OPS = [
    ["rate", "--n", "0.01", "--nth", "0.1", "--dim", "6"],
    ["gain-map", "--n-grid", "0.01", "--nth-grid", "0,0.1", "--dim", "6"],
    ["diffraction", "--lxr-grid", "1:2:2", "--n", "0.01", "--nth", "0.1",
     "--dim", "5", "--grid-size", "1024"],
]


def _quiet_main(argv: list[str]) -> int:
    import contextlib
    import io

    with contextlib.redirect_stdout(io.StringIO()):
        return qreading.cli.main(argv)


def test_benchmark_json_names_match_the_code() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_every_span_and_counter_is_recorded() -> None:
    rec = tracer.Tracer()
    rec.install()
    try:
        assert rec.absent == []
        for op, argv in enumerate(TINY_OPS):
            assert rec.run_op(op, _quiet_main, argv) == 0
    finally:
        rec.uninstall()
    metrics = rec.metrics()
    for span in tracer.SPANS:
        assert metrics[f"{span}.calls"] > 0, span
        assert metrics[f"{span}.busy_s"] >= metrics[f"{span}.self_s"] >= 0.0, span
    for name in tracer.COUNTERS:
        assert metrics[name] > 0, name
    worker_added = {"rates.holevo_rate.trace_deficit_max",
                    "rates.holevo_rate.cross_check_bits_max",
                    "process.cpu_util", "trace.ops", "trace.overhead_s"}
    assert set(metrics) | worker_added == set(tracer.metric_units())
    assert {span[3] for span in rec.spans} == {0, 1, 2}  # op ids
    assert len({span[4] for span in rec.spans}) >= 1  # thread ids


def test_caches_are_emptied_through_the_tracer() -> None:
    rec = tracer.Tracer()
    rec.install()
    try:
        assert _quiet_main(TINY_OPS[0]) == 0
        assert qreading.channels.displacement_table.__wrapped__.cache_info().currsize > 0
        worker.clear_caches()
        assert qreading.channels.displacement_table.__wrapped__.cache_info().currsize == 0
    finally:
        rec.uninstall()


def test_uninstall_restores_every_site() -> None:
    before = (qreading.cli.holevo_rate, qreading.channels.displacement_table,
              qreading.cli.tau_extrema)
    rec = tracer.Tracer()
    rec.install()
    assert qreading.cli.holevo_rate is not before[0]
    rec.uninstall()
    assert (qreading.cli.holevo_rate, qreading.channels.displacement_table,
            qreading.cli.tau_extrema) == before


def test_missing_target_is_reported_absent(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.delattr(qreading.channels, "displacement_table")
    rec = tracer.Tracer()
    rec.install()
    rec.uninstall()
    assert rec.absent == ["channels.displacement_table"]
    assert rec.metrics()["channels.displacement_table.calls"] == 0


def test_workload_inputs_follow_the_seed() -> None:
    for workload in WORKLOADS.values():
        first = list(islice(workload.cycles(random.Random(7)), 6))
        again = list(islice(workload.cycles(random.Random(7)), 6))
        other = list(islice(workload.cycles(random.Random(8)), 6))
        assert first == again and first != other
    nths = [c[0][4] for c in islice(WORKLOADS["point-rate"].cycles(random.Random(1)), 200)]
    assert len(set(nths)) == len(nths)


def test_row_checks_reject_broken_rows() -> None:
    gain_rows = [{"p0": "0.5", "z0": "0", "z1": "1", "n": "0.1", "n_th": "0",
                  "dim": "6", "quad_order": "20", "coherent_bits": "0.3",
                  "epr_bits": "0.35", "gain_absolute": "0.05", "gain_relative": "0.1"}]
    argv = ["gain-map", "--n-grid", "0.1", "--nth-grid", "0"]
    check = WORKLOADS["gain-map"].check
    errors = check(argv, gain_rows)
    assert any("closed form" in e for e in errors)  # 0.3 is not the noiseless rate
    gain_rows[0]["coherent_bits"] = "nan"
    assert any("not finite" in e for e in check(argv, gain_rows))

    row = {"p0": "0.5", "n": "0.01", "n_th": "0.1", "d_over_ell": "1",
           "ell_over_xr": "1", "quad_order": "20", "tau_min": "0.5", "tau_max": "1",
           "coherent_lower": "0.1", "coherent_upper": "0.2",
           "epr_lower": "0.1", "epr_upper": "0.2"}
    falling = dict(row, ell_over_xr="2", coherent_lower="0.05")
    argv = ["diffraction", "--lxr-grid", "1:2:2"]
    assert WORKLOADS["diffraction-sweep"].check(argv, [row, dict(row, ell_over_xr="2")]) == []
    assert any("falls" in e for e in WORKLOADS["diffraction-sweep"].check(argv, [row, falling]))


def test_refuses_to_run_without_the_package(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "gain-map",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
