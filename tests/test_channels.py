"""Memory-cell channel: loss, classical displacement noise, both pictures."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qreading import MarginalCell
from qreading.channels import (
    amplifier_amplitudes,
    coherent_cell_output,
    epr_amplitudes,
    epr_output_blocks,
    loss_amplitudes,
)

from oracles import (
    FockDensityMatrix,
    GaussianState,
    amplifier_kraus,
    apply_cell_channel,
    apply_classical_noise,
    apply_loss,
    check_positive,
    coherent_state,
    epr_state,
    fock_moments,
    gaussian_channel_action,
    loss_kraus,
    partial_trace,
    pure_state_cell_output,
    thermal_state,
)


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return FockDensityMatrix((dim,), rho / np.trace(rho).real)


class TestMarginalCell:
    def test_binary_constructor(self):
        cell = MarginalCell.binary(0.3, 0.0, 1.0)
        assert cell.d == 2
        assert cell.probs == (0.3, 0.7)
        assert cell.reflectances == (0j, 1.0 + 0j)

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
        j, n = np.ogrid[:dim, :dim]
        expected = np.where(j <= n, ref[j, n, (n - j) % dim], 0.0)
        assert np.max(np.abs(amplifier_amplitudes(gain, dim) - expected)) < 1e-13

    @pytest.mark.parametrize("dim", [2, 17, 120])
    @pytest.mark.parametrize("gain", [1.0, 1.3, 2.0, 6.0, 50.0])
    def test_amplifier_is_the_loss_table(self, dim, gain):
        # over its output level, the amplifier is loss to eta = 1/G scaled by 1/sqrt(G)
        loss = loss_amplitudes(complex(1.0 / math.sqrt(gain)), dim)
        assert np.max(np.abs(amplifier_amplitudes(gain, dim) * math.sqrt(gain) - loss)) < 1e-13

    def test_exact_at_the_edges(self):
        # eta = 0, eta = 1 and G = 1 give exact zeros and ones, no rounding
        only_branch_0 = np.zeros((9, 9))
        only_branch_0[0] = 1.0
        assert np.array_equal(loss_amplitudes(0j, 9), np.eye(9))
        assert np.array_equal(loss_amplitudes(1 + 0j, 9), only_branch_0)
        assert np.array_equal(amplifier_amplitudes(1.0, 9), only_branch_0)

    # np.exp(1j * pi * m) carries about m * 1.2e-16 in its imaginary part
    # (4.9e-15 at m = 11); the real tables hold the exact +-1 powers
    @pytest.mark.parametrize("z", [0.6, -0.6, 0.0, 1.0, -1.0])
    def test_real_reflectance_gives_real_table(self, z):
        k, m = np.ogrid[:12, :12]
        a = loss_amplitudes(complex(z), 12)
        mags = loss_amplitudes(complex(abs(z)), 12)
        assert a.dtype == np.float64 and mags.dtype == np.float64
        assert np.array_equal(a, mags * (-1.0 if z < 0 else 1.0) ** abs(m - k))
        assert np.max(np.abs(a - mags * np.exp(1j * np.angle(z) * abs(m - k)))) < 1e-14

    @pytest.mark.parametrize("alpha", [0.8, -0.8])
    def test_real_amplitude_gives_real_coherent_state(self, alpha):
        m = np.arange(12)
        vec, mags = coherent_state(alpha, 12), coherent_state(abs(alpha), 12)
        assert vec.dtype == np.float64 and mags.dtype == np.float64
        assert np.max(np.abs(vec - mags * np.exp(1j * np.angle(alpha) * m))) < 1e-15
        assert coherent_state(0.0, 12).dtype == np.float64

    def test_complex_phase_is_the_exp_formula(self):
        z, m = 0.6 * np.exp(0.4j), np.arange(12)
        k = m[:, None]
        a = loss_amplitudes(complex(z), 12)
        assert a.dtype == np.complex128
        assert np.array_equal(
            a, loss_amplitudes(complex(abs(z)), 12) * np.exp(1j * np.angle(z) * m)[abs(m - k)])
        alpha = 0.8 * np.exp(0.4j)
        vec = coherent_state(alpha, 12)
        assert np.array_equal(
            vec, coherent_state(abs(alpha), 12) * np.exp(1j * np.angle(alpha) * m))

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
        check_positive(apply_classical_noise(rho, 1.2))


class TestCellChannel:
    def test_composition_order(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 14)
        direct = apply_cell_channel(rho, 0.6 + 0.2j, 0.4)
        staged = apply_classical_noise(apply_loss(rho, 0.6 + 0.2j), 0.4)
        assert np.max(np.abs(direct.data - staged.data)) < 1e-12

    def test_pure_fast_path_matches_generic(self):
        # the single-mode builder against the dense Kraus oracle; the random
        # probe puts weight on every level up to the cutoff
        rng = np.random.default_rng(17)
        wide = rng.normal(size=12) + 1j * rng.normal(size=12)
        probes = [coherent_state(0.9 * np.exp(0.4j), 16), wide / np.linalg.norm(wide)]
        for vec in probes:
            for z, n_th in ((0.5 * np.exp(0.3j), 0.0), (0.5 * np.exp(0.3j), 0.7),
                            (0.8 * np.exp(-2.1j), 2.5)):
                fast = pure_state_cell_output(vec, [[z]], [n_th])[0, 0]
                slow = apply_cell_channel(FockDensityMatrix.from_pure(vec, (vec.size,)), z, n_th)
                assert fast.shape == (vec.size, vec.size)
                assert np.max(np.abs(fast - slow.data)) < 1e-11

    @pytest.mark.parametrize("zs", [(0.0, 1.0), (0.9 * np.exp(0.7j), 0.5 * np.exp(-1.2j)),
                                    (0.3j, 0.6, -0.2)], ids=["real", "complex", "mixed"])
    def test_builders_stack_the_ensemble(self, zs):
        # one call per ensemble gives each symbol's one-symbol output, in order
        d, n_th = 12, 0.4
        vec, schmidt = coherent_state(0.7, d), np.diagonal(epr_state(0.2, 1, d).reshape(d, d))
        centre = sum(map(complex, zs)) / len(zs)  # a one-symbol row is its own centre
        for stack, single in (
                (pure_state_cell_output(vec, [zs], [n_th])[0],
                 lambda z: pure_state_cell_output(vec, [[z]], [n_th])[0, 0]),
                (coherent_cell_output(0.49, [zs], [n_th], d)[0],
                 lambda z: coherent_cell_output(0.49, [[z - centre, centre - z]], [n_th], d)[0, 0]),
                (epr_output_blocks(schmidt[None], [zs], [[n_th] * len(zs)])[0],
                 lambda z: epr_output_blocks(schmidt[None], [[z]], [[n_th]])[0, 0])):
            assert stack.shape[0] == len(zs)
            for out, z in zip(stack, zs):
                assert np.max(np.abs(out - single(z))) < 1e-15

    @pytest.mark.parametrize("zs", [(0.0, 1.0), (0.9 * np.exp(0.7j), -0.5)],
                             ids=["real", "complex"])
    def test_builders_stack_entries(self, zs):
        # one call over entries gives each entry's own output, bit for bit; EPR entries
        # differ in probe energy and in each symbol's noise
        d = 12
        vec = coherent_state(0.7, d)
        n_th = (0.0, 0.4, 0.4, 0.0)
        coherent = pure_state_cell_output(vec, [zs] * 4, n_th)
        displaced = coherent_cell_output(0.49, [zs] * 4, n_th, d)
        schmidt = epr_amplitudes(np.array([0.2, 0.2, 0.098, 0.0]), d)
        noise = [(0.0, 0.0), (0.4, 0.4), (0.4, 0.13), (0.0, 0.7)]
        epr = epr_output_blocks(schmidt, [zs] * 4, noise)
        for e, nth in enumerate(n_th):
            assert np.array_equal(coherent[e], pure_state_cell_output(vec, [zs], [nth])[0])
            assert np.array_equal(displaced[e], coherent_cell_output(0.49, [zs], [nth], d)[0])
            assert np.array_equal(epr[e], epr_output_blocks(schmidt[e:e + 1], [zs], [noise[e]])[0])

    def test_epr_signal_killed_leaves_thermal_marginal(self):
        vec = epr_state(0.8, 1, 26)
        rho = FockDensityMatrix.from_pure(vec, (26, 26))
        out = apply_cell_channel(rho, 0.0, 0.0)
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
        z, n_th = 0.6 * np.exp(0.8j), 0.5
        for vec, dims, gauss in tx_cases:
            if len(dims) == 1:
                out = pure_state_cell_output(vec, [[z]], [n_th])[0, 0]
                rho = FockDensityMatrix(dims, out)
            else:  # two-mode EPR output: the dense oracle
                rho = apply_cell_channel(FockDensityMatrix.from_pure(vec, dims), z, n_th, mode=0)
            mean, cov = fock_moments(rho)
            ref = gaussian_channel_action(gauss, z, n_th, mode=0)
            assert np.max(np.abs(mean - ref.mean)) < 1e-6
            assert np.max(np.abs(cov - ref.cov)) < 1e-5


class TestCoherentCellOutput:
    @pytest.mark.parametrize("zs", [(0.0, 1.0), (0.9 * np.exp(0.7j), 0.5 * np.exp(-1.2j)),
                                    (0.0, 1.0, -1.0)], ids=["real", "complex", "ternary"])
    @pytest.mark.parametrize("n_th", [0.0, 0.7])
    @pytest.mark.parametrize("n,d", [(1.0, 12), (4.0, 24), (1.0, 60)])
    def test_is_the_top_block_of_the_pure_state_builder(self, zs, n_th, n, d):
        # the oracle truncates the probe at 3d, whose tail past it is below 1e-30:
        # its top-left (d, d) block is P rho P on the centred cell
        centre = sum(map(complex, zs)) / len(zs)
        wide = pure_state_cell_output(coherent_state(math.sqrt(n), 3 * d),
                                      [[z - centre for z in zs]], [n_th])[0]
        out = coherent_cell_output(n, [zs], [n_th], d)[0]
        assert out.shape == (len(zs), d, d)
        assert out.dtype == (np.float64 if np.isrealobj(zs) else np.complex128)
        assert np.max(np.abs(out - wide[:, :d, :d])) <= 1e-15


reflectance = st.one_of(st.floats(-1.0, 1.0).map(complex),
                        st.builds(cmath.rect, st.floats(0.0, 1.0), st.floats(-math.pi, math.pi)))


@given(p0=st.floats(0.0, 1.0), z0=reflectance, z1=reflectance, n=st.floats(0.0, 0.3),
       n_th=st.floats(0.0, 2.0), n_th1=st.floats(0.0, 2.0))
@settings(max_examples=40, deadline=None)
def test_builders_are_exactly_hermitian(p0, z0, z1, n, n_th, n_th1):
    # block_entropies checks no Hermiticity: the stacks and their mixture are Hermitian bit for bit
    d, probs = 16, (p0, 1.0 - p0)
    schmidt = epr_amplitudes(n, d)
    for outputs in (coherent_cell_output(n, [(z0, z1)], [n_th], d)[0],
                    epr_output_blocks(schmidt[None], [(z0, z1)], [(n_th, n_th1)])[0]):
        mixture = sum(p * outputs[u] for u, p in enumerate(probs))
        for x in (outputs, mixture):
            assert np.array_equal(x, x.conj().swapaxes(-1, -2))


class TestGaussianChannel:
    def test_vacuum_output_covariance(self):
        out = gaussian_channel_action(GaussianState.vacuum(1), 0.6, 0.3)
        assert np.max(np.abs(out.cov - (1.0 + 0.6) * np.eye(2))) < 1e-12

    def test_mean_scaling(self):
        alpha = 1.0 + 0.5j
        z = 0.8 * np.exp(0.4j)
        out = gaussian_channel_action(GaussianState.coherent(alpha), z, 0.0)
        target = GaussianState.coherent(z * alpha)
        assert np.max(np.abs(out.mean - target.mean)) < 1e-12

    def test_acts_on_one_mode_only(self):
        state = GaussianState.epr(1.0)
        out = gaussian_channel_action(state, 0.5, 0.2, mode=0)
        assert np.max(np.abs(out.cov[2:, 2:] - state.cov[2:, 2:])) < 1e-12

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.5))
    @settings(max_examples=30, deadline=None)
    def test_attenuator_composition_law(self, mag, tau, nth):
        z = mag * np.exp(0.7j)
        state = GaussianState.epr(0.8)
        one_step = gaussian_channel_action(state, tau * z, tau * tau * nth, mode=0)
        two_step = gaussian_channel_action(
            gaussian_channel_action(state, z, nth, mode=0), tau, 0.0, mode=0)
        assert np.max(np.abs(one_step.cov - two_step.cov)) < 1e-10
        assert np.max(np.abs(one_step.mean - two_step.mean)) < 1e-10

