"""Fock and Gaussian state machinery: constructors, entropies, reductions."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qreading import (
    StateValidationError,
    TransmitterSpec,
    TruncationError,
    g_thermal,
)
from qreading.channels import coherent_cell_output, epr_amplitudes
from qreading.rates import block_entropies

from oracles import (
    FockDensityMatrix,
    GaussianState,
    check_positive,
    coherent_state,
    epr_state,
    fock_moments,
    partial_trace,
    symplectic_eigenvalues,
    symplectic_entropy,
    symplectic_form,
    thermal_state,
    von_neumann_entropy,
)


def coherent_output(n, dim, n_th=0.0):
    """The channel output on |sqrt(n)> for the phase cell (1, -1): its first
    symbol is displaced by +sqrt(n), so at n_th = 0 it is |sqrt(n)><sqrt(n)|."""
    return coherent_cell_output(n, [[1.0, -1.0]], [n_th], dim)[0, 0]


class TestCoherentState:
    def test_vacuum_amplitude(self):
        out = coherent_output(0.0, 8)
        expected = np.zeros((8, 8))
        expected[0, 0] = 1.0
        assert np.allclose(out, expected)

    def test_ground_coefficient_unit_amplitude(self):
        # c_0 = exp(-|alpha|^2 / 2) = exp(-1/2)
        out = coherent_output(1.0, 30)
        assert abs(math.sqrt(out[0, 0]) - 0.6065306597126334) < 1e-12
        assert abs(np.trace(out) - 1.0) < 1e-10

    def test_mean_photon_number(self):
        out = coherent_output(0.1, 25)
        mean = np.sum(np.arange(25) * np.diagonal(out))
        assert abs(mean - 0.1) < 1e-10

    def test_complex_amplitude_phases(self):
        alpha = 0.7 * np.exp(1j * 0.9)
        vec = coherent_state(alpha, 25)
        ref = coherent_state(abs(alpha), 25)
        assert np.allclose(vec, ref * np.exp(1j * 0.9 * np.arange(25)))

    def test_too_large_amplitude_rejected(self):
        # Poisson(9) puts 0.41 of its weight at 10 photons or more
        with pytest.raises(TruncationError,
                           match=r"coherent-state norm deficit 4\.1\d\de-01 > 1\.0e-08"):
            coherent_output(9.0, 10)

    @given(st.floats(min_value=0.0, max_value=2.25))
    @settings(max_examples=25, deadline=None)
    def test_norm_deficit_small(self, n):
        out = coherent_output(n, 40)
        assert 1.0 - np.trace(out) < 1e-8

    @pytest.mark.parametrize("n,n_th", [(math.nan, 0.0), (math.inf, 0.0), (0.1, math.nan)])
    def test_guard_fails_closed_on_nan(self, n, n_th):
        with pytest.raises(TruncationError, match="coherent-state norm deficit nan"):
            coherent_output(n, 8, n_th)


class TestEprState:
    def test_zero_energy_is_double_vacuum(self):
        vec = epr_state(0.0, 1, 6)
        expected = np.zeros(36)
        expected[0] = 1.0
        assert np.allclose(vec, expected)
        assert np.array_equal(epr_amplitudes(0.0, 6), np.eye(1, 6)[0])

    def test_schmidt_weights(self):
        # n = 1, s = 1: weight of |m>|m> is (1/2)(1/2)^m
        vec = epr_state(1.0, 1, 30).reshape(30, 30)
        diag = np.abs(np.diag(vec)) ** 2
        assert np.allclose(diag, 0.5 ** (np.arange(30) + 1), atol=1e-12)
        off = vec - np.diag(np.diag(vec))
        assert np.max(np.abs(off)) == 0.0

    def test_energy_split_across_copies(self):
        # each mode's marginal straight from the pure vector, not a dense 10^4 x 10^4 state
        psi = epr_state(1.0, 2, 10).reshape((10,) * 4)
        num = np.arange(10)
        for mode in range(4):
            others = [k for k in range(4) if k != mode]
            red = np.tensordot(psi, psi.conj(), axes=(others, others))
            mean = np.real(np.sum(num * np.diag(red)))
            assert abs(mean - 0.5) < 1e-3

    def test_reduced_state_is_thermal(self):
        rho = FockDensityMatrix.from_pure(epr_state(1.0, 1, 30), (30, 30))
        signal = partial_trace(rho, [0])
        ref = thermal_state(1.0, 30)
        assert np.max(np.abs(signal.data - ref.data)) < 1e-12

    def test_truncation_guard(self):
        with pytest.raises(TruncationError, match=r"EPR-state norm deficit .* > 1\.0e-08"):
            epr_amplitudes(5.0, 4)


class TestThermalState:
    def test_vacuum(self):
        rho = thermal_state(0.0, 5)
        assert abs(rho.data[0, 0] - 1.0) < 1e-15
        assert von_neumann_entropy(rho) == 0.0

    def test_entropy_one_photon(self):
        # g(1) = 2 log2 2 - 0 = 2 bits
        assert abs(von_neumann_entropy(thermal_state(1.0, 45)) - 2.0) < 1e-9

    def test_entropy_half_photon(self):
        assert abs(von_neumann_entropy(thermal_state(0.5, 40))
                   - 1.3774437510817343) < 1e-9

    def test_g_thermal_values(self):
        assert g_thermal(0.0) == 0.0
        assert abs(g_thermal(1.0) - 2.0) < 1e-14
        assert abs(g_thermal(0.5) - 1.3774437510817343) < 1e-14

    def test_g_thermal_matches_series(self):
        # independent oracle: direct -sum p log p over geometric weights
        nbar = 0.73
        m = np.arange(400)
        p = (nbar / (nbar + 1.0)) ** m / (nbar + 1.0)
        direct = -np.sum(p * np.log2(p))
        assert abs(g_thermal(nbar) - direct) < 1e-10

    def test_g_thermal_matches_decimal_reference(self):
        # (n+1) ln(n+1) - n ln n at 400 digits, where its two terms cancel
        # harmlessly out to n = 1e300; a float difference of the two reads 0
        # from n = 1e16 on, and 1/n overflows for a subnormal n
        with localcontext() as ctx:
            ctx.prec = 400
            for nbar in [*np.geomspace(1e-300, 1e300, 61), 5e-324, 1e-310, 0.999, 1.001]:
                n = Decimal(float(nbar))
                ref = float(((n + 1) * (n + 1).ln() - n * n.ln()) / Decimal(2).ln())
                assert abs(g_thermal(float(nbar)) - ref) <= 1e-15 * ref


class TestFockDensityMatrix:
    def test_rejects_non_hermitian(self):
        bad = np.array([[0.5, 0.1], [0.2, 0.5]], dtype=complex)
        with pytest.raises(StateValidationError):
            FockDensityMatrix((2,), bad)

    def test_rejects_wrong_shape(self):
        with pytest.raises(StateValidationError):
            FockDensityMatrix((3,), np.eye(2) / 2)

    def test_rejects_bad_trace(self):
        with pytest.raises(StateValidationError):
            FockDensityMatrix((2,), 2.0 * np.eye(2))

    def test_trace_deficit_monotone_in_dim(self):
        deficits = []
        for dim in (10, 14, 18, 22, 30):
            vec = coherent_state(1.2, dim)
            rho = FockDensityMatrix.from_pure(vec, (dim,))
            deficits.append(rho.trace_deficit)
        assert all(b <= a + 1e-15 for a, b in zip(deficits, deficits[1:]))
        assert deficits[-1] < 1e-8

    def test_check_positive(self):
        rho = thermal_state(0.3, 10)
        check_positive(rho)
        flipped = rho.data.copy()
        flipped[3, 3] = -0.1
        with pytest.raises(StateValidationError):
            check_positive(FockDensityMatrix((10,), flipped / np.trace(flipped).real))


class TestEntropy:
    def test_pure_state_zero(self):
        rho = FockDensityMatrix.from_pure(coherent_state(0.8, 20), (20,))
        assert von_neumann_entropy(rho) < 1e-9

    def test_pure_state_entropy_is_positive_zero(self):
        vac = thermal_state(0.0, 5)
        assert math.copysign(1.0, von_neumann_entropy(vac)) == 1.0
        entropies, _ = block_entropies(np.stack([vac.data, vac.data])[:, None])
        assert np.all(entropies == 0.0)
        assert all(math.copysign(1.0, e) == 1.0 for e in entropies)

    def test_maximally_mixed(self):
        d = 7
        rho = FockDensityMatrix((d,), np.eye(d) / d)
        assert abs(von_neumann_entropy(rho) - math.log2(d)) < 1e-12

    def test_invariant_under_mode_swap(self):
        vec = epr_state(0.8, 1, 12)
        rho = FockDensityMatrix.from_pure(vec, (12, 12))
        mixed = 0.6 * rho.data + 0.4 * np.kron(thermal_state(0.5, 12).data,
                                               thermal_state(0.2, 12).data)
        a = FockDensityMatrix((12, 12), mixed)
        t = mixed.reshape(12, 12, 12, 12).transpose(1, 0, 3, 2).reshape(144, 144)
        b = FockDensityMatrix((12, 12), t)
        assert abs(von_neumann_entropy(a) - von_neumann_entropy(b)) < 1e-10


class TestPartialTrace:
    def test_product_state_factors(self):
        r1 = thermal_state(0.4, 8)
        r2 = thermal_state(1.1, 8)
        joint = FockDensityMatrix((8, 8), np.kron(r1.data, r2.data))
        # truncated factors are subnormalized; the partner trace scales out
        assert np.max(np.abs(partial_trace(joint, [0]).data
                             - r1.data * r2.trace)) < 1e-12
        assert np.max(np.abs(partial_trace(joint, [1]).data
                             - r2.data * r1.trace)) < 1e-12

    def test_keep_order_respected(self):
        r1 = thermal_state(0.4, 6)
        r2 = thermal_state(1.1, 6)
        joint = FockDensityMatrix((6, 6), np.kron(r1.data, r2.data))
        swapped = partial_trace(joint, [1, 0])
        assert np.max(np.abs(swapped.data - np.kron(r2.data, r1.data))) < 1e-12
        assert swapped.dims == (6, 6)

    def test_invalid_subsets(self):
        rho = FockDensityMatrix((4, 4), np.eye(16) / 16)
        for keep in ([], [2], [0, 0]):
            with pytest.raises(ValueError):
                partial_trace(rho, keep)


class TestGaussianPicture:
    def test_vacuum_entropy_zero(self):
        assert symplectic_entropy(GaussianState.vacuum(2)) == 0.0

    def test_thermal_entropy(self):
        assert abs(symplectic_entropy(GaussianState.thermal(1.0)) - 2.0) < 1e-12

    def test_epr_is_pure(self):
        assert symplectic_entropy(GaussianState.epr(1.0)) < 1e-9
        nus = symplectic_eigenvalues(GaussianState.epr(2.0, 2).cov)
        assert np.allclose(nus, 1.0, atol=1e-9)

    def test_unphysical_covariance_rejected(self):
        with pytest.raises(StateValidationError):
            GaussianState(1, np.zeros(2), 0.5 * np.eye(2))

    def test_fock_moments_match_gaussian(self):
        alpha = 0.6 + 0.3j
        rho = FockDensityMatrix.from_pure(coherent_state(alpha, 30), (30,))
        mean, cov = fock_moments(rho)
        ref = GaussianState.coherent(alpha)
        assert np.max(np.abs(mean - ref.mean)) < 1e-8
        assert np.max(np.abs(cov - ref.cov)) < 1e-8

    def test_fock_moments_epr(self):
        rho = FockDensityMatrix.from_pure(epr_state(0.5, 1, 25), (25, 25))
        mean, cov = fock_moments(rho)
        ref = GaussianState.epr(0.5)
        assert np.max(np.abs(mean)) < 1e-8
        assert np.max(np.abs(cov - ref.cov)) < 1e-7

    @given(st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=25, deadline=None)
    def test_thermal_symplectic_eigenvalue(self, nbar):
        nus = symplectic_eigenvalues(GaussianState.thermal(nbar).cov)
        assert abs(nus[0] - (2.0 * nbar + 1.0)) < 1e-10

    @pytest.mark.parametrize("modes", [1, 2, 3, 4])
    def test_symplectic_form_matches_kron(self, modes):
        kron = np.kron(np.eye(modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert np.array_equal(symplectic_form(modes), kron)


class TestTransmitterSpec:
    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            TransmitterSpec.coherent(-0.1)

    @given(st.floats(min_value=0.0, max_value=3.0), st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=30, max_value=60))
    @settings(max_examples=40, deadline=None)
    def test_amplitudes_equal_oracle_builders(self, n_coh, n_epr, dim):
        # the outer product of the real coherent vector (to rounding of its logs),
        # and bit for bit the dense EPR vector's diagonal
        vec = coherent_state(math.sqrt(n_coh), dim)
        assert np.max(np.abs(coherent_output(n_coh, dim) - np.outer(vec, vec))) <= 1e-15
        schmidt = epr_amplitudes(n_epr, dim)
        assert np.array_equal(schmidt, np.diagonal(epr_state(n_epr, 1, dim).reshape(dim, dim)))

    def test_amplitudes_need_two_levels(self):
        with pytest.raises(ValueError, match="dim must be >= 2"):
            coherent_output(0.0, 1)
        with pytest.raises(ValueError, match="dim must be >= 2"):
            epr_amplitudes(0.0, 1)

    def test_amplitudes_roundtrip(self):
        vec = epr_amplitudes(0.7, 25)
        assert vec.shape == (25,)
        assert abs(np.vdot(vec, vec).real - 1.0) < 1e-8

    def test_amplitudes_one_row_per_energy(self):
        # one array call gives each energy's own row bit for bit, and guards every row
        energies = [0.0, 0.098, 0.2, 0.75, 1.0]
        rows = epr_amplitudes(np.array(energies), 30)
        assert rows.shape == (5, 30)
        for n, row in zip(energies, rows):
            assert np.array_equal(row, epr_amplitudes(n, 30))
        with pytest.raises(TruncationError, match="EPR-state norm deficit 1.786e-04"):
            epr_amplitudes(np.array([0.75, 3.0]), 30)
