"""Memory-cell channel: loss, classical displacement noise, both pictures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qreading import (
    ChannelParams,
    FockDensityMatrix,
    GaussianState,
    MarginalCell,
    apply_cell_channel,
    apply_classical_noise,
    apply_loss,
    coherent_state,
    compose_with_attenuator,
    epr_state,
    fock_moments,
    gaussian_channel_action,
    partial_trace,
    thermal_state,
)
from qreading.channels import (
    amplifier_amplitudes,
    amplifier_kraus,
    loss_amplitudes,
    loss_kraus,
    pure_state_cell_output,
)


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return FockDensityMatrix((dim,), rho / np.trace(rho).real)


class TestChannelParams:
    def test_reflectance_bound(self):
        with pytest.raises(ValueError):
            ChannelParams(1.2 + 0j)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            ChannelParams(0.5, -0.1)


class TestMarginalCell:
    def test_binary_constructor(self):
        cell = MarginalCell.binary(0.3, 0.0, 1.0)
        assert cell.d == 2
        assert cell.probs == (0.3, 0.7)
        assert cell.channel(1, 0.2).z == 1.0 + 0j

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            MarginalCell((0.5, 0.6), (0.0, 1.0))
        with pytest.raises(ValueError):
            MarginalCell((-0.1, 1.1), (0.0, 1.0))
        with pytest.raises(ValueError):
            MarginalCell((0.5, 0.5), (0.0, 1.5))
        with pytest.raises(ValueError):
            MarginalCell((1.0,), (1.0,))


def loss_kraus_ref(z, dim):
    """Plain-Python loss Kraus stack: A_k |m> = sqrt(C(m,k)) (1-eta)^(k/2)
    eta^((m-k)/2) e^(i arg(z) (m-k)) |m-k>, one entry at a time."""
    eta = min(abs(z) ** 2, 1.0)
    phase = np.exp(1j * (np.angle(z) if z != 0 else 0.0) * np.arange(dim))
    ops = np.zeros((dim, dim, dim), dtype=complex)
    for k in range(dim):
        for m in range(k, dim):
            amp = math.sqrt(math.comb(m, k)) * (1.0 - eta) ** (k / 2.0) \
                * eta ** ((m - k) / 2.0)
            ops[k, m - k, m] = amp * phase[m - k]
    return ops


def amplifier_kraus_ref(gain, dim):
    """Plain-Python amplifier Kraus stack: B_k |m> = sqrt(C(m+k,k))
    (1-1/G)^(k/2) G^(-(m+1)/2) |m+k>, cut off at ``dim``."""
    ops = np.zeros((dim, dim, dim))
    for k in range(dim):
        for m in range(dim - k):
            ops[k, m + k, m] = math.sqrt(math.comb(m + k, k)) \
                * (1.0 - 1.0 / gain) ** (k / 2.0) * gain ** (-(m + 1) / 2.0)
    return ops


class TestShiftTables:
    @pytest.mark.parametrize("dim", [2, 17, 120])
    @pytest.mark.parametrize("z", [0.0, 0.6, 0.6 * np.exp(0.4j), -0.3j, 1.0, np.exp(2.1j)],
                             ids=["eta0", "eta036", "eta036-complex", "eta009-imag",
                                  "eta1", "eta1-complex"])
    def test_loss_matches_reference(self, dim, z):
        ref = loss_kraus_ref(complex(z), dim)
        assert np.max(np.abs(loss_kraus(complex(z), dim) - ref)) < 1e-13
        k, m = np.ogrid[:dim, :dim]
        expected = np.where(k <= m, ref[k, (m - k) % dim, m], 0.0)
        assert np.max(np.abs(loss_amplitudes(complex(z), dim) - expected)) < 1e-13

    @pytest.mark.parametrize("dim", [2, 17, 120])
    @pytest.mark.parametrize("gain", [1.0, 1.6, 6.0])
    def test_amplifier_matches_reference(self, dim, gain):
        ref = amplifier_kraus_ref(gain, dim)
        assert np.max(np.abs(amplifier_kraus(gain, dim) - ref)) < 1e-13
        j, m = np.ogrid[:dim, :dim]
        expected = np.where(m + j < dim, ref[j, (m + j) % dim, m], 0.0)
        assert np.max(np.abs(amplifier_amplitudes(gain, dim) - expected)) < 1e-13

    def test_exact_at_the_edges(self):
        # eta = 0, eta = 1 and G = 1 give exact zeros and ones, no rounding
        only_branch_0 = np.zeros((9, 9))
        only_branch_0[0] = 1.0
        assert np.array_equal(loss_amplitudes(0j, 9), np.eye(9))
        assert np.array_equal(loss_amplitudes(1 + 0j, 9), only_branch_0)
        assert np.array_equal(amplifier_amplitudes(1.0, 9), only_branch_0)

    @pytest.mark.parametrize("z", [0.6, 0.6 * np.exp(0.4j), 0.95],
                             ids=["eta036", "eta036-complex", "eta09"])
    def test_large_dim_stays_finite_and_complete(self, z):
        # C(1099, 549) ~ 1e329 overflows a float; the log-space table does not
        a = loss_amplitudes(complex(z), 1100)
        assert np.all(np.isfinite(a))
        assert np.max(np.abs(np.sum(np.abs(a) ** 2, axis=0) - 1.0)) < 1e-12
        assert np.all(np.isfinite(amplifier_amplitudes(2.0, 1100)))


class TestLoss:
    def test_kraus_completeness(self):
        ops = loss_kraus(0.6 * np.exp(0.4j), 15)
        total = np.einsum("kij,kil->jl", ops.conj(), ops)
        assert np.max(np.abs(total - np.eye(15))) < 1e-12

    def test_unit_reflectance_pure_phase(self):
        rho = FockDensityMatrix.from_pure(coherent_state(0.9, 20), (20,))
        out = apply_loss(rho, 1.0)
        assert np.max(np.abs(out.data - rho.data)) < 1e-12

    def test_zero_reflectance_gives_vacuum(self):
        rho = FockDensityMatrix.from_pure(coherent_state(1.0, 25), (25,))
        out = apply_loss(rho, 0.0)
        vac = np.zeros((25, 25), dtype=complex)
        vac[0, 0] = rho.trace
        assert np.max(np.abs(out.data - vac)) < 1e-10

    def test_coherent_maps_to_coherent(self):
        alpha = 1.1
        z = 0.7 * np.exp(0.5j)
        rho = FockDensityMatrix.from_pure(coherent_state(alpha, 30), (30,))
        out = apply_loss(rho, z)
        target = coherent_state(z * alpha, 30)
        fidelity = np.real(np.vdot(target, out.data @ target))
        assert abs(fidelity - 1.0) < 1e-8

    def test_trace_preserved_random(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            rho = random_density(rng, 12)
            out = apply_loss(rho, 0.4 + 0.3j)
            assert abs(out.trace - rho.trace) < 1e-10


class TestClassicalNoise:
    def test_zero_variance_identity(self):
        rho = thermal_state(0.5, 12)
        out = apply_classical_noise(rho, 0.0)
        assert out is rho

    def test_vacuum_becomes_thermal(self):
        vac = thermal_state(0.0, 40)
        out = apply_classical_noise(vac, 1.0)
        ref = thermal_state(1.0, 40)
        assert np.max(np.abs(out.data - ref.data)) < 1e-6

    def test_adds_mean_photons(self):
        rho = FockDensityMatrix.from_pure(coherent_state(0.8, 35), (35,))
        out = apply_classical_noise(rho, 0.6)
        num = np.arange(35)
        before = np.real(np.sum(num * np.diag(rho.data)))
        after = np.real(np.sum(num * np.diag(out.data)))
        assert abs(after - before - 0.6) < 1e-7

    def test_truncation_loss_is_weight_past_cutoff(self):
        # the amplifier only raises photon number, so a truncated output is
        # the top-left block of a wide one and loses exactly the rest
        rng = np.random.default_rng(3)
        rho = random_density(rng, 15)
        wide = np.zeros((60, 60), dtype=complex)
        wide[:15, :15] = rho.data
        out = apply_classical_noise(rho, 0.8)
        out_wide = apply_classical_noise(FockDensityMatrix((60,), wide), 0.8)
        assert np.max(np.abs(out.data - out_wide.data[:15, :15])) < 1e-12
        past = float(np.real(np.trace(out_wide.data[15:, 15:]))) + out_wide.trace_deficit
        assert abs(out.trace_deficit - past) < 1e-12
        assert out.trace_deficit > 0.1
        assert abs(out_wide.trace - rho.trace) < 1e-10

    @pytest.mark.parametrize("nbar", [0.3, 1.0, 2.5])
    def test_vacuum_gives_exact_thermal_weights(self, nbar):
        dim = 20
        out = apply_classical_noise(thermal_state(0.0, dim), nbar)
        m = np.arange(dim)
        assert np.max(np.abs(out.data - np.diag(nbar ** m / (nbar + 1.0) ** (m + 1)))) < 1e-14
        assert abs(out.trace_deficit - (nbar / (nbar + 1.0)) ** dim) < 1e-14

    def test_output_positive(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, 10)
        apply_classical_noise(rho, 1.2).check_positive()


class TestCellChannel:
    def test_composition_order(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 14)
        params = ChannelParams(0.6 + 0.2j, 0.4)
        direct = apply_cell_channel(rho, params)
        staged = apply_classical_noise(apply_loss(rho, params.z), params.n_th)
        assert np.max(np.abs(direct.data - staged.data)) < 1e-12

    def test_pure_fast_path_matches_generic(self):
        vec = epr_state(0.6, 1, 10, eps_trunc=1e-3)
        params = ChannelParams(0.5 * np.exp(0.3j), 0.7)
        fast = pure_state_cell_output(vec, (10, 10), params, mode=0)
        rho = FockDensityMatrix.from_pure(vec, (10, 10))
        slow = apply_cell_channel(rho, params, mode=0)
        assert np.max(np.abs(fast.data - slow.data)) < 1e-11

    def test_epr_signal_killed_leaves_thermal_marginal(self):
        vec = epr_state(0.8, 1, 26)
        out = pure_state_cell_output(vec, (26, 26), ChannelParams(0.0, 0.0))
        signal = partial_trace(out, [0])
        vac = np.zeros((26, 26), dtype=complex)
        vac[0, 0] = 1.0
        assert np.max(np.abs(signal.data - vac)) < 1e-8
        idler = partial_trace(out, [1])
        ref = thermal_state(0.8, 26)
        assert np.max(np.abs(idler.data - ref.data)) < 1e-8

    def test_moments_match_gaussian_picture(self):
        tx_cases = [
            (coherent_state(math.sqrt(0.7), 35), (35,), GaussianState.coherent(complex(math.sqrt(0.7)))),
            (epr_state(0.5, 1, 18), (18, 18), GaussianState.epr(0.5)),
        ]
        params = ChannelParams(0.6 * np.exp(0.8j), 0.5)
        for vec, dims, gauss in tx_cases:
            rho = pure_state_cell_output(vec, dims, params, mode=0)
            mean, cov = fock_moments(rho)
            ref = gaussian_channel_action(gauss, params, mode=0)
            assert np.max(np.abs(mean - ref.mean)) < 1e-6
            assert np.max(np.abs(cov - ref.cov)) < 1e-5


class TestGaussianChannel:
    def test_vacuum_output_covariance(self):
        out = gaussian_channel_action(GaussianState.vacuum(1), ChannelParams(0.6, 0.3))
        assert np.max(np.abs(out.cov - (1.0 + 0.6) * np.eye(2))) < 1e-12

    def test_mean_scaling(self):
        alpha = 1.0 + 0.5j
        z = 0.8 * np.exp(0.4j)
        out = gaussian_channel_action(GaussianState.coherent(alpha), ChannelParams(z, 0.0))
        target = GaussianState.coherent(z * alpha)
        assert np.max(np.abs(out.mean - target.mean)) < 1e-12

    def test_acts_on_one_mode_only(self):
        state = GaussianState.epr(1.0)
        out = gaussian_channel_action(state, ChannelParams(0.5, 0.2), mode=0)
        assert np.max(np.abs(out.cov[2:, 2:] - state.cov[2:, 2:])) < 1e-12

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.5))
    @settings(max_examples=30, deadline=None)
    def test_attenuator_composition_law(self, mag, tau, nth):
        params = ChannelParams(mag * np.exp(0.7j), nth)
        composed = compose_with_attenuator(params, tau)
        state = GaussianState.epr(0.8)
        one_step = gaussian_channel_action(state, composed, mode=0)
        two_step = gaussian_channel_action(
            gaussian_channel_action(state, params, mode=0),
            ChannelParams(tau, 0.0), mode=0)
        assert np.max(np.abs(one_step.cov - two_step.cov)) < 1e-10
        assert np.max(np.abs(one_step.mean - two_step.mean)) < 1e-10


class TestComposeWithAttenuator:
    def test_values(self):
        out = compose_with_attenuator(ChannelParams(0.8 + 0j, 1.0), 0.5)
        assert out.z == 0.4 + 0j
        assert abs(out.n_th - 0.25) < 1e-15

    def test_identity(self):
        p = ChannelParams(0.3 + 0.1j, 0.7)
        out = compose_with_attenuator(p, 1.0)
        assert out == p

    def test_tau_range(self):
        with pytest.raises(ValueError):
            compose_with_attenuator(ChannelParams(0.5), 1.5)
