"""Holevo rates: numerics vs closed forms, faint limits, gains, properties."""

import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qreading import (
    ConvergenceError,
    MarginalCell,
    TransmitterSpec,
    bounding_rates,
    coherent_capacity_faint,
    coherent_capacity_noiseless,
    concavity_scan,
    epr_rate_faint,
    epr_rate_noiseless_phase,
    g_thermal,
    gains,
    holevo_rate,
    rates,
    shannon_entropy_d,
)
from qreading.rates import gaussian_output_entropy

from oracles import symplectic_output_entropy

AMP_CELL = MarginalCell.binary(0.5, 0.0, 1.0)
PHASE_CELL = MarginalCell.binary(0.5, 1.0, -1.0)


def h2(q):
    return shannon_entropy_d([q])


class TestShannonEntropy:
    def test_binary_values(self):
        assert shannon_entropy_d([0.5]) == 1.0
        assert shannon_entropy_d([0.0]) == 0.0
        assert abs(shannon_entropy_d([1.0 / 3.0]) - 0.9182958340544896) < 1e-12

    def test_quaternary(self):
        assert abs(shannon_entropy_d([0.25, 0.25, 0.25]) - 2.0) < 1e-12

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            shannon_entropy_d([0.7, 0.7])
        with pytest.raises(ValueError):
            shannon_entropy_d([-0.1])

    @given(st.lists(st.floats(min_value=0.0, max_value=0.2),
                    min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_bounds(self, q):
        val = shannon_entropy_d(q)
        assert 0.0 <= val <= math.log2(len(q) + 1) + 1e-12


class TestCoherentClosedForms:
    def test_noiseless_zero_energy(self):
        assert coherent_capacity_noiseless(AMP_CELL, 0.0) == 0.0

    def test_noiseless_frozen_value(self):
        # n = 1, |z1 - z0| = 1: h2[(1 - e^{-1/2}) / 2]
        val = coherent_capacity_noiseless(AMP_CELL, 1.0)
        assert abs(val - 0.7153491667107217) < 1e-12

    def test_noiseless_saturates_one_bit(self):
        assert coherent_capacity_noiseless(PHASE_CELL, 50.0) > 1.0 - 1e-12

    def test_faint_structure(self):
        # h2[p0 p1 n |dz|^2 + nth] - h2[nth]
        val = coherent_capacity_faint(AMP_CELL, 1e-3, 1e-3)
        assert abs(val - (h2(0.25e-3 + 1e-3) - h2(1e-3))) < 1e-15

    def test_faint_leading_order(self):
        # leading term misses O(x) pieces, so accuracy grows like 1/|log2 x|
        rel = []
        for scale in (1e-4, 1e-6, 1e-8):
            full = coherent_capacity_faint(AMP_CELL, scale, scale)
            lead = coherent_capacity_faint(AMP_CELL, scale, scale,
                                           leading_only=True)
            rel.append(abs(full - lead) / full)
        assert rel[0] < 0.15
        assert rel[0] > rel[1] > rel[2]


class TestEprClosedForms:
    def test_phase_zero_angle(self):
        assert epr_rate_noiseless_phase(0.5, 0.5, 0.0, 1.0) == 0.0

    def test_phase_pi_frozen_value(self):
        # q = |1 + 2|^{-2} = 1/9, rate = h2[1/3]
        val = epr_rate_noiseless_phase(0.5, 0.5, math.pi, 1.0, 1)
        assert abs(val - 0.9182958340544896) < 1e-12

    def test_large_s_limit(self):
        # q -> exp(-2 n (1 - cos theta)) as s -> infinity
        n, theta = 0.7, 1.1
        val = epr_rate_noiseless_phase(0.5, 0.5, theta, n, s=200000)
        q = math.exp(-2.0 * n * (1.0 - math.cos(theta)))
        ref = h2(0.5 - 0.5 * math.sqrt(1.0 - (1.0 - q)))
        assert abs(val - ref) < 1e-5

    def test_noiseless_phase_favors_coherent_probes(self):
        # without added noise the optimal coherent probe wins on phase cells
        for n in (0.1, 0.5, 1.0):
            epr = epr_rate_noiseless_phase(0.5, 0.5, math.pi, n, 1)
            coh = coherent_capacity_noiseless(PHASE_CELL, n)
            assert coh > epr

    def test_faint_zero_energy(self):
        assert epr_rate_faint(AMP_CELL, 0.0, 0.0) == 0.0

    def test_faint_leading_is_noise_independent(self):
        a = epr_rate_faint(AMP_CELL, 1e-4, 0.0, leading_only=True)
        b = epr_rate_faint(AMP_CELL, 1e-4, 0.5, leading_only=True)
        assert a == b
        x = 0.25e-4
        assert abs(a - (-x * math.log2(x))) < 1e-15

    def test_faint_regime_guard(self):
        with pytest.raises(ValueError):
            epr_rate_faint(AMP_CELL, 2.0, 0.5)


class TestHolevoRate:
    def test_degenerate_cell_zero(self):
        cell = MarginalCell.binary(0.5, 0.7, 0.7)
        res = holevo_rate(cell, TransmitterSpec.coherent(0.5), dim=20)
        assert res.rate_bits < 1e-9

    def test_deterministic_symbol_zero(self):
        cell = MarginalCell.binary(1.0, 0.0, 1.0)
        res = holevo_rate(cell, TransmitterSpec.coherent(0.5), dim=20)
        assert res.rate_bits < 1e-9

    def test_coherent_matches_analytic(self):
        for n, p0 in ((0.3, 0.5), (1.0, 0.25)):
            cell = MarginalCell.binary(p0, 0.0, 1.0)
            res = holevo_rate(cell, TransmitterSpec.coherent(n), dim=40)
            assert abs(res.rate_bits - coherent_capacity_noiseless(cell, n)) < 1e-8

    def test_epr_matches_analytic_phase(self):
        res = holevo_rate(PHASE_CELL, TransmitterSpec.epr(1.0), dim=30)
        assert abs(res.rate_bits - 0.9182958340544896) < 1e-8
        assert res.cross_check_error is not None and res.cross_check_error < 1e-6

    @pytest.mark.parametrize("phase", [np.exp(0.9j), -1.0], ids=["complex", "minus-one"])
    @pytest.mark.parametrize("tx", [TransmitterSpec.coherent(0.5), TransmitterSpec.epr(0.5)],
                             ids=["coherent", "epr"])
    def test_global_phase_invariance(self, tx, phase):
        a = holevo_rate(MarginalCell.binary(0.5, 0.2, 0.9), tx, 0.3, dim=25)
        b = holevo_rate(MarginalCell.binary(0.5, 0.2 * phase, 0.9 * phase), tx, 0.3, dim=25)
        assert abs(a.rate_bits - b.rate_bits) < 1e-8

    def test_bounded_by_ensemble_entropy(self):
        cell = MarginalCell.binary(0.3, 0.0, 1.0)
        res = holevo_rate(cell, TransmitterSpec.epr(2.0), dim=50)
        assert res.rate_bits <= shannon_entropy_d([0.7]) + 1e-9

    def test_ternary_cell(self):
        cell = MarginalCell((0.4, 0.3, 0.3), (0.0, 1.0, -1.0))
        res = holevo_rate(cell, TransmitterSpec.coherent(1.0), dim=30)
        assert 0.0 < res.rate_bits <= math.log2(3.0) + 1e-9

    @pytest.mark.parametrize("tau", [1.5, -0.1])
    @pytest.mark.parametrize("tx", [TransmitterSpec.coherent(0.1), TransmitterSpec.epr(0.1)],
                             ids=["coherent", "epr"])
    def test_idler_attenuation_outside_unit_interval_rejected(self, tx, tau):
        with pytest.raises(ValueError, match=r"tau must lie in \[0, 1\]"):
            bounding_rates(AMP_CELL, tx, 0.1, [tau], 10, attenuate_idler=True)

    def test_result_metadata(self):
        res = holevo_rate(AMP_CELL, TransmitterSpec.coherent(0.5), 0.2,
                          dim=30)
        assert res.truncation_dim == 30
        assert 0.0 <= res.trace_deficit < 1e-6

    def test_noisy_epr_reports_truncation_loss(self):
        # exact thermal noise loses weight past the default dim and says so,
        # and stays close to the Gaussian entropies
        res = holevo_rate(AMP_CELL, TransmitterSpec.epr(1.0), n_th=1.0)
        assert res.trace_deficit >= 1e-6
        assert res.cross_check_error <= 1e-3


class TestCoherentCostGuard:
    def test_memory_bounded_at_large_dim(self):
        # one dense (d, d, d) Kraus stack at d = 240 alone takes 221 MB
        tracemalloc.start()
        try:
            res = holevo_rate(AMP_CELL, TransmitterSpec.coherent(1.0), 5.0, dim=240)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6
        assert 0.0 < res.rate_bits < 1.0
        assert res.trace_deficit < 1e-12


class TestGaussianOracle:
    @given(st.sampled_from(["coherent", "epr"]), st.floats(0.0, 50.0), st.floats(0.0, 1.0),
           st.floats(-math.pi, math.pi), st.floats(0.0, 5.0), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    # pure EPR outputs, exact 0: a float64 eigensolve of i Omega V read up to
    # 1.2e-10 bits here, the point depending on the LAPACK build
    @example("epr", 48.37, 1.0, math.pi / 2, 0.0, 1.0)
    @example("epr", 48.33, 1.0, 0.0, 0.0, 1.0)
    def test_closed_form_matches_symplectic_eigensolve(self, kind, n, mag, phase, n_th, tau):
        tx, z = TransmitterSpec(kind, n), cmath.rect(mag, phase)
        ref = symplectic_output_entropy(tx, z, n_th, tau)
        assert abs(gaussian_output_entropy(tx, z, n_th, tau) - ref) < 1e-10

    def test_pure_output_reads_exact_zero(self):
        assert gaussian_output_entropy(TransmitterSpec.epr(39.08), 1j, 0.0, 1.0) == 0.0

    @pytest.mark.parametrize("n,n_th,tau", [(1.3, 0.7, 0.6), (0.2, 3.0, 0.3), (39.08, 0.0, 1.0),
                                            (0.0, 0.5, 1.0), (2.0, 0.0, 0.0)])
    def test_signal_killed_leaves_two_thermal_modes(self, n, n_th, tau):
        ent = gaussian_output_entropy(TransmitterSpec.epr(n), 0.0, n_th, tau)
        assert ent == pytest.approx(g_thermal(n_th) + g_thermal(n * tau * tau), rel=1e-14)

    @pytest.mark.parametrize("z", [0.0, 0.6j, 1.0])
    def test_coherent_output_is_thermal(self, z):
        assert gaussian_output_entropy(TransmitterSpec.coherent(2.0), z, 0.4, 1.0) == g_thermal(0.4)

    @pytest.mark.parametrize("tx,tau", [(TransmitterSpec.coherent(0.1), 1.0),
                                        (TransmitterSpec.epr(0.1), 1.0),
                                        (TransmitterSpec.epr(0.1), 0.7)],
                             ids=["coherent", "epr", "epr-idler-loss"])
    def test_cost_guard_no_general_eigensolve(self, monkeypatch, tx, tau):
        def refuse(*_):
            raise AssertionError("general eigensolve on the rate path")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        [res] = bounding_rates(AMP_CELL, tx, 0.3, [tau], 12, attenuate_idler=True)
        assert 0.0 < res.rate_bits < 1.0 and res.cross_check_error < 1e-3

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError, match="n_th must be >= 0"):
            holevo_rate(AMP_CELL, TransmitterSpec.epr(0.5), -0.1, dim=10)

    @pytest.mark.parametrize("n_th", [6.8e153, 1e200, 1e300, 1e307])
    @pytest.mark.parametrize("tau", [1.0, 0.7])
    def test_closed_form_finite_at_huge_noise(self, n_th, tau):
        # float64 diff^2 overflows here; the reference is the same closed form at 60
        # digits, since the 50-digit eigensolve oracle reads an eigenvalue of 0 from 1e100
        for z in (0.0, 0.6 + 0.3j, 1.0):
            with mpmath.workdps(60):
                e, t, n, nth = (mpmath.mpf(x) for x in (abs(z) ** 2, tau * tau, 0.1, n_th))
                b = 1 + 2 * n * t
                diff = 2 * n * (t - e) - 2 * nth
                prod = 1 + 2 * n * (e * (1 - t) + t * (1 - e)) + 2 * nth * b
                big = (mpmath.sqrt(diff ** 2 + 4 * prod) + abs(diff)) / 2
                ref = sum((mpmath.log1p(x) + x * mpmath.log1p(1 / x)) / mpmath.log(2)
                          for x in ((big - 1) / 2, (prod / big - 1) / 2))
            value = gaussian_output_entropy(TransmitterSpec.epr(0.1), z, n_th, tau)
            assert abs(value - ref) <= 1e-15 * ref


class TestNoNegativeZero:
    def test_certain_outcome_entropy_is_positive_zero(self):
        assert math.copysign(1.0, shannon_entropy_d([0.0])) == 1.0

    @pytest.mark.parametrize("tx", [TransmitterSpec.coherent(0.0), TransmitterSpec.epr(0.0)],
                             ids=["coherent", "epr"])
    def test_zero_rate_is_positive_zero(self, tx):
        res = holevo_rate(AMP_CELL, tx, 0.0, dim=10)
        assert res.rate_bits == 0.0 and math.copysign(1.0, res.rate_bits) == 1.0


class TestFaintAgreement:
    def test_coherent_faint_vs_numeric(self):
        n = n_th = 1e-3
        approx = coherent_capacity_faint(AMP_CELL, n, n_th)
        exact = holevo_rate(AMP_CELL, TransmitterSpec.coherent(n), n_th,
                            dim=14).rate_bits
        assert abs(approx - exact) / exact < 0.05

    def test_epr_faint_vs_numeric(self):
        n = n_th = 1e-3
        approx = epr_rate_faint(AMP_CELL, n, n_th)
        exact = holevo_rate(AMP_CELL, TransmitterSpec.epr(n), n_th,
                            dim=12).rate_bits
        assert abs(approx - exact) / exact < 0.05


class TestGains:
    def test_noisy_amplitude_favors_epr(self):
        res = gains(AMP_CELL, 0.1, 1.0, dim=24)
        assert res.gain_absolute > 0.0
        assert res.gain_relative is not None and res.gain_relative > 0.0
        assert abs(res.gain_absolute - (res.epr_bits - res.coherent_bits)) < 1e-12

    def test_noiseless_phase_favors_coherent(self):
        res = gains(PHASE_CELL, 1.0, 0.0, dim=30)
        assert res.gain_absolute < 0.0

    def test_degenerate_cell_relative_undefined(self):
        res = gains(MarginalCell.binary(0.5, 0.6, 0.6), 0.5, 0.0, dim=18)
        assert res.gain_relative is None


# real reflectances (either sign) and complex ones
reflectance = st.one_of(st.floats(-1.0, 1.0).map(complex),
                        st.builds(cmath.rect, st.floats(0.0, 1.0), st.floats(-math.pi, math.pi)))


class TestBoundingRates:
    @given(kind=st.sampled_from(["coherent", "epr"]), p0=st.floats(0.05, 0.95),
           z0=reflectance, z1=reflectance, n=st.floats(0.0, 0.1), n_th=st.floats(0.0, 0.5),
           dim=st.integers(8, 14), extra=st.lists(st.floats(0.0, 1.0), max_size=4),
           repeat=st.integers(0, 5), both_sides=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_one_rate_per_tau(self, kind, p0, z0, z1, n, n_th, dim, extra,
                                           repeat, both_sides):
        # the tau list always holds 0, 1 and a repeated value
        taus = [0.0, 1.0, *extra]
        taus.append(taus[repeat % len(taus)])
        cell = MarginalCell.binary(p0, z0, z1)
        tx = TransmitterSpec(kind, n)
        batch = bounding_rates(cell, tx, n_th, taus, dim, attenuate_idler=both_sides)
        assert len(batch) == len(taus)
        for tau, res in zip(taus, batch):
            if both_sides:
                [one] = bounding_rates(cell, tx, n_th, [tau], dim, attenuate_idler=True)
            else:
                composed = MarginalCell(cell.probs, tuple(tau * z for z in cell.reflectances))
                one = holevo_rate(composed, tx, n_th * tau * tau, dim)
            assert res.rate_bits == one.rate_bits
            assert res.truncation_dim == one.truncation_dim == dim
            assert abs(res.trace_deficit - one.trace_deficit) <= 1e-15
            assert abs(res.cross_check_error - one.cross_check_error) <= 1e-15

    def test_validates_like_one_rate(self):
        tx = TransmitterSpec.epr(0.1)
        with pytest.raises(ValueError, match="n_th must be >= 0"):
            bounding_rates(AMP_CELL, tx, -1.0, [0.0, 1.0], 8)
        with pytest.raises(ValueError, match="n_th must be >= 0"):
            bounding_rates(AMP_CELL, tx, -1.0, [0.0], 8)  # tau^2 n_th would read -0.0
        with pytest.raises(ValueError, match=r"tau must lie in \[0, 1\]"):
            bounding_rates(AMP_CELL, tx, 0.1, [0.5, 1.5], 8)
        assert bounding_rates(AMP_CELL, tx, 0.1, [], 8) == []


class TestDisplacementCovariance:
    @given(p0=st.floats(0.05, 0.95), z0=reflectance, z1=reflectance, n=st.floats(0.0, 1.0),
           n_th=st.floats(0.0, 0.5), phi=st.floats(-math.pi, math.pi), reach=st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_common_shift_leaves_coherent_rate(self, p0, z0, z1, n, n_th, phi, reach):
        # move the cell's midpoint along phi, as far as keeps every |z| <= 1 times reach:
        # D(-c sqrt(n)) on every output changes no rate
        half = (z0 - z1) / 2
        along = (cmath.exp(-1j * phi) * half).real
        far = math.sqrt(along * along + 1.0 - min(abs(half), 1.0) ** 2) - abs(along)
        mid = reach * far * cmath.exp(1j * phi)
        tx = TransmitterSpec.coherent(n)
        one = holevo_rate(MarginalCell.binary(p0, z0, z1), tx, n_th, 60)
        two = holevo_rate(MarginalCell.binary(p0, mid + half, mid - half), tx, n_th, 60)
        assert one.trace_deficit < 1e-12
        assert abs(one.rate_bits - two.rate_bits) <= 1e-9


class TestFiniteResults:
    def test_nan_entropy_is_an_error(self, monkeypatch):
        # a NaN rate passes both range checks, and max() can drop a NaN cross-check
        real = rates.block_entropies

        def poisoned(blocks):
            entropies, deficits = real(blocks)
            return np.full_like(entropies, np.nan), deficits

        monkeypatch.setattr(rates, "block_entropies", poisoned)
        with pytest.raises(ConvergenceError, match="non-finite result"):
            holevo_rate(AMP_CELL, TransmitterSpec.coherent(0.1), 0.1, dim=8)

    def test_noise_past_the_float_range_is_an_error(self):
        with pytest.raises(ConvergenceError, match=r"cross-check errors \[nan, nan\]"):
            holevo_rate(AMP_CELL, TransmitterSpec.epr(0.1), 1.7e308, dim=8)


class TestAttenuationAndConcavity:
    def test_full_transmission_is_identity(self):
        for tx in (TransmitterSpec.coherent(0.5), TransmitterSpec.epr(0.5)):
            direct = holevo_rate(AMP_CELL, tx, 0.2, dim=25)
            [via] = bounding_rates(AMP_CELL, tx, 0.2, [1.0], dim=25)
            assert direct == via

    def test_monotone_in_tau(self):
        taus = (0.3, 0.6, 0.9, 1.0)
        vals = [r.rate_bits for r in bounding_rates(AMP_CELL, TransmitterSpec.coherent(0.8),
                                                     0.4, taus, dim=25)]
        assert all(b >= a - 1e-7 for a, b in zip(vals, vals[1:]))

    def test_concavity_noiseless(self):
        grid = np.linspace(0.05, 2.0, 12)
        report = concavity_scan(AMP_CELL, grid, 0.0, dim=40)
        assert report.max_second_difference <= 1e-7
        assert report.second_differences.size == grid.size - 2

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            concavity_scan(AMP_CELL, [0.5, 0.4, 0.6], 0.0)
        with pytest.raises(ValueError):
            concavity_scan(AMP_CELL, [0.5, 0.6], 0.0)
