"""End-to-end acceptance gate: ten numbered criteria, one verdict line each.

Each test computes its criterion, records a PASS/FAIL line (echoed in the
terminal summary), and then asserts. Runtime-limited criteria measure wall
time and include it in the verdict detail.
"""

import math
import time

import numpy as np
import pytest

from conftest import record_acceptance

from qreading import (
    DiffractionGeometry,
    MarginalCell,
    TransmitterSpec,
    coherent_capacity_faint,
    coherent_capacity_noiseless,
    concavity_scan,
    epr_rate_faint,
    epr_rate_noiseless_phase,
    gains,
    bounding_rates,
    holevo_rate,
    rate_bounds,
    tau_extrema,
)

from oracles import gram_matrix

AMP_CELL = MarginalCell.binary(0.5, 0.0, 1.0)
PHASE_CELL = MarginalCell.binary(0.5, 1.0, -1.0)


def test_01_coherent_noiseless_matches_analytic():
    start = time.perf_counter()
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    worst = 0.0
    for z0 in grid:
        for z1 in grid:
            cell = MarginalCell.binary(0.5, z0, z1)
            for n in (0.1, 1.0):
                num = holevo_rate(cell, TransmitterSpec.coherent(n), dim=60)
                ref = coherent_capacity_noiseless(cell, n)
                worst = max(worst, abs(num.rate_bits - ref))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    record_acceptance("01 coherent noiseless vs closed form",
                      ok, f"max dev {worst:.2e} bits, {elapsed:.1f} s")
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_02_epr_noiseless_phase_matches_analytic():
    start = time.perf_counter()
    worst = 0.0
    for theta in (math.pi / 4, math.pi / 2, math.pi):
        for n in (0.1, 1.0):
            cell = MarginalCell.binary(0.5, 1.0, np.exp(1j * theta))
            num = holevo_rate(cell, TransmitterSpec.epr(n), dim=30)
            ref = epr_rate_noiseless_phase(0.5, 0.5, theta, n, 1)
            worst = max(worst, abs(num.rate_bits - ref))
    # frozen point: n = 1, theta = pi gives h2[1/3]
    pin = epr_rate_noiseless_phase(0.5, 0.5, math.pi, 1.0, 1)
    pin_dev = abs(pin - 0.9182958340544896)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and pin_dev < 1e-12 and elapsed < 60.0
    record_acceptance("02 epr noiseless phase vs closed form",
                      ok, f"max dev {worst:.2e} bits, {elapsed:.1f} s")
    assert worst <= 1e-6
    assert pin_dev < 1e-12
    assert elapsed < 60.0


def test_03_faint_signal_approximations():
    cells = {"amplitude": AMP_CELL, "phase": PHASE_CELL}
    rel = {}
    for label, cell in cells.items():
        for scale in (1e-3,) if label == "phase" else (1e-3, 1e-4):
            exact_c = holevo_rate(cell, TransmitterSpec.coherent(scale), scale,
                                  dim=14).rate_bits
            rel[("coherent", label, scale)] = \
                abs(coherent_capacity_faint(cell, scale, scale) - exact_c) / exact_c
        exact_e = holevo_rate(cell, TransmitterSpec.epr(1e-3), 1e-3,
                              dim=12).rate_bits
        rel[("epr", label, 1e-3)] = \
            abs(epr_rate_faint(cell, 1e-3, 1e-3) - exact_e) / exact_e
    worst = max(rel.values())
    improves = all(
        rel[("coherent", label, 1e-4)] < rel[("coherent", label, 1e-3)]
        for label in cells if ("coherent", label, 1e-4) in rel
    )
    ok = worst <= 0.05 and improves
    record_acceptance("03 faint-signal approximations",
                      ok, f"worst rel err {worst:.2%}, improves at 1e-4: {improves}")
    assert worst <= 0.05
    assert improves


def test_04_thermal_gain_sign_structure():
    noisy = gains(AMP_CELL, 0.01, 0.1, dim=24)
    clean = gains(PHASE_CELL, 1.0, 0.0, dim=30)
    ok = (noisy.gain_absolute > 0.0 and noisy.gain_relative is not None
          and noisy.gain_relative > 1.0 and clean.gain_absolute < 0.0)
    record_acceptance(
        "04 thermal-noise gain signs", ok,
        f"G_a={noisy.gain_absolute:.3e}, G_r={noisy.gain_relative:.2f}, "
        f"noiseless phase G_a={clean.gain_absolute:.3e}")
    assert noisy.gain_absolute > 0.0
    assert noisy.gain_relative is not None and noisy.gain_relative > 1.0
    assert clean.gain_absolute < 0.0


def test_05_cross_picture_conditional_entropies():
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for i in range(20):
        kind = "coherent" if i % 5 < 3 else "epr"
        n = float(rng.uniform(0.01, 1.0))
        nth = float(rng.uniform(0.0, 0.6))
        z0 = math.sqrt(rng.uniform(0.0, 1.0)) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        z1 = math.sqrt(rng.uniform(0.0, 1.0)) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        cell = MarginalCell.binary(0.5, z0, z1)
        if kind == "coherent":
            res = holevo_rate(cell, TransmitterSpec.coherent(n), nth, dim=60)
        else:
            res = holevo_rate(cell, TransmitterSpec.epr(n), nth, dim=30)
        worst = max(worst, res.cross_check_error)
    ok = worst <= 1e-6
    record_acceptance("05 cross-picture entropy oracle",
                      ok, f"max dev {worst:.2e} bits over 20 configs")
    assert worst <= 1e-6


def test_06_toeplitz_spectral_containment():
    eps = 1e-3
    ok = True
    detail = []
    for ratio in (0.3, 0.5, 1.0, 3.0):
        geom = DiffractionGeometry(ratio)
        tau_min, tau_max = tau_extrema(geom)
        f_min, f_max = tau_min ** 2, tau_max ** 2
        prev = None
        for size in (16, 64, 256):
            ev = np.linalg.eigvalsh(gram_matrix(geom, size))
            lo, hi = float(ev[0]), float(ev[-1])
            if not (f_min - eps <= lo and hi <= f_max + eps):
                ok = False
            if prev is not None and not (lo <= prev[0] + 1e-12 and hi >= prev[1] - 1e-12):
                ok = False
            prev = (lo, hi)
        detail.append(f"{ratio}: [{prev[0]:.4f},{prev[1]:.4f}] in "
                      f"[{f_min:.4f},{f_max:.4f}]")
    record_acceptance("06 toeplitz spectral containment", ok, "; ".join(detail))
    assert ok


def test_07_attenuation_extrema_profile():
    deviations = []
    for ratio in (0.5, 0.6, 0.8, 1.0, 2.0, 5.0):
        _, tau_max = tau_extrema(DiffractionGeometry(ratio))
        deviations.append(abs(tau_max - 1.0))
    max_dev_top = max(deviations)
    mins = [tau_extrema(DiffractionGeometry(r))[0]
            for r in (0.1, 0.25, 0.4, 0.49)]
    max_dev_zero = max(mins)
    tau_half = tau_extrema(DiffractionGeometry(0.5))[0]
    dev_half = abs(tau_half - 2.0 / math.pi)
    ok = max_dev_top <= 1e-9 and max_dev_zero <= 1e-9 and dev_half <= 1e-6
    record_acceptance(
        "07 tau extrema profile", ok,
        f"tau_max dev {max_dev_top:.1e}, tau_min dev {max_dev_zero:.1e}, "
        f"tau_min(1/2)={tau_half:.7f} vs 2/pi")
    assert max_dev_top <= 1e-9
    assert max_dev_zero <= 1e-9
    assert dev_half <= 1e-6


def test_08_diffraction_sweep_bounds():
    start = time.perf_counter()
    n, nth, dim = 0.1, 1.0, 24
    ratios = np.linspace(0.5, 3.0, 20)
    geoms = [DiffractionGeometry(ratio) for ratio in ratios]
    keys = ("coherent_lower", "coherent_upper", "epr_lower", "epr_upper")
    rows = [{key: getattr(b, key) for key in keys}
            for b in rate_bounds(AMP_CELL, n, geoms, nth, dim)]
    elapsed = time.perf_counter() - start

    advantage = any(r["epr_lower"] > r["coherent_upper"] for r in rows)
    monotone = all(
        all(b[key] >= a[key] - 1e-7 for a, b in zip(rows, rows[1:]))
        for key in rows[0]
    )
    ok = advantage and monotone and elapsed < 300.0
    record_acceptance(
        "08 diffraction sweep bounds", ok,
        f"epr-lower > coherent-upper on sub-range: {advantage}, "
        f"monotone: {monotone}, {elapsed:.0f} s for 20 points")
    assert advantage
    assert monotone
    assert elapsed < 300.0


def test_09_data_processing_monotonicity():
    rng = np.random.default_rng(7)
    worst = -np.inf
    for _ in range(10):
        z0 = math.sqrt(rng.uniform(0, 1)) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        z1 = math.sqrt(rng.uniform(0, 1)) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        cell = MarginalCell.binary(float(rng.uniform(0.2, 0.8)), z0, z1)
        n = float(rng.uniform(0.05, 1.0))
        nth = float(rng.uniform(0.0, 0.5))
        tx = TransmitterSpec.coherent(n)
        before = holevo_rate(cell, tx, nth, dim=40).rate_bits
        for after in bounding_rates(cell, tx, nth, (0.3, 0.7, 1.0), dim=40):
            worst = max(worst, after.rate_bits - before)
    ok = worst <= 1e-7
    record_acceptance("09 data-processing monotonicity",
                      ok, f"max rate increase {worst:.2e} bits")
    assert worst <= 1e-7


def test_10_concavity_evidence():
    grid = np.linspace(0.05, 3.0, 30)
    worst = -np.inf
    details = []
    for nth in (0.0, 0.5, 1.0):
        report = concavity_scan(AMP_CELL, grid, nth, dim=60)
        worst = max(worst, report.max_second_difference)
        details.append(f"nth={nth}: {report.max_second_difference:.2e}")
    ok = worst <= 1e-5
    record_acceptance("10 concavity evidence", ok, "; ".join(details))
    assert worst <= 1e-5
