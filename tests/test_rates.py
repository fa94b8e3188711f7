"""Holevo rates: numerics vs closed forms, faint limits, gains, properties."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qreading import (
    ConvergenceError,
    MarginalCell,
    TransmitterSpec,
    coherent_capacity_faint,
    coherent_capacity_noiseless,
    concavity_scan,
    epr_rate_faint,
    epr_rate_noiseless_phase,
    gains,
    holevo_rate,
    rate_after_attenuation,
    shannon_entropy_d,
)

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

    def test_global_phase_invariance(self):
        phase = np.exp(0.9j)
        a = holevo_rate(MarginalCell.binary(0.5, 0.2, 0.9),
                        TransmitterSpec.coherent(0.5), 0.3, dim=25)
        b = holevo_rate(MarginalCell.binary(0.5, 0.2 * phase, 0.9 * phase),
                        TransmitterSpec.coherent(0.5), 0.3, dim=25)
        assert abs(a.rate_bits - b.rate_bits) < 1e-8

    def test_bounded_by_ensemble_entropy(self):
        cell = MarginalCell.binary(0.3, 0.0, 1.0)
        res = holevo_rate(cell, TransmitterSpec.epr(2.0), dim=50)
        assert res.rate_bits <= shannon_entropy_d([0.7]) + 1e-9

    def test_ternary_cell(self):
        cell = MarginalCell((0.4, 0.3, 0.3), (0.0, 1.0, -1.0))
        res = holevo_rate(cell, TransmitterSpec.coherent(1.0), dim=30)
        assert 0.0 < res.rate_bits <= math.log2(3.0) + 1e-9

    def test_general_s_not_implemented(self):
        with pytest.raises(NotImplementedError):
            holevo_rate(AMP_CELL, TransmitterSpec.epr(1.0, s=2))

    def test_convergence_guard_fires(self):
        # strong noise leaks past a dim-10 truncation; the dim+10 recheck sees it
        with pytest.raises(ConvergenceError):
            holevo_rate(AMP_CELL, TransmitterSpec.coherent(0.5), 2.0, dim=10,
                        check_convergence=True)

    def test_convergence_guard_passes(self):
        holevo_rate(AMP_CELL, TransmitterSpec.coherent(0.3), 0.2, dim=30,
                    check_convergence=True)

    def test_result_metadata(self):
        res = holevo_rate(AMP_CELL, TransmitterSpec.coherent(0.5), 0.2,
                          dim=30)
        assert res.method == "fock_numeric"
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
        assert res.absolute > 0.0
        assert res.relative is not None and res.relative > 0.0
        assert abs(res.absolute - (res.epr_bits - res.coherent_bits)) < 1e-12

    def test_noiseless_phase_favors_coherent(self):
        res = gains(PHASE_CELL, 1.0, 0.0, dim=30)
        assert res.absolute < 0.0

    def test_degenerate_cell_relative_undefined(self):
        res = gains(MarginalCell.binary(0.5, 0.6, 0.6), 0.5, 0.0, dim=18)
        assert res.relative is None


class TestAttenuationAndConcavity:
    def test_full_transmission_is_identity(self):
        direct = holevo_rate(AMP_CELL, TransmitterSpec.coherent(0.5), 0.2,
                             dim=25)
        via = rate_after_attenuation(AMP_CELL, TransmitterSpec.coherent(0.5),
                                     0.2, 1.0, dim=25)
        assert abs(direct.rate_bits - via.rate_bits) < 1e-12

    def test_monotone_in_tau(self):
        taus = (0.3, 0.6, 0.9, 1.0)
        vals = [rate_after_attenuation(AMP_CELL, TransmitterSpec.coherent(0.8),
                                       0.4, t, dim=25).rate_bits
                for t in taus]
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
