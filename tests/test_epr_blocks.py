"""EPR outputs built block by block in n_S - n_R, against the dense path."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qreading import (
    MarginalCell,
    TransmitterSpec,
    TruncationError,
    bounding_rates,
    shannon_entropy_d,
)
from qreading.channels import epr_output_blocks

from oracles import (
    FockDensityMatrix,
    apply_cell_channel,
    apply_loss,
    epr_state,
    gaussian_channel_action,
    gaussian_probe,
    symplectic_entropy,
    von_neumann_entropy,
)

CASES = [  # (z, n_th, idler attenuation)
    (0.6 * cmath.exp(0.7j), 0.4, 1.0),
    (0.0, 0.3, 1.0),
    (0.8j, 0.0, 1.0),
    (0.5 - 0.4j, 0.0, 0.8),
    (0.7 * cmath.exp(-1.1j), 0.4, 0.8),
    (0.0, 0.0, 0.6),
]
IDS = ["complex-z-noisy", "z0-noisy", "complex-z-noiseless", "idler-loss-noiseless",
       "idler-loss-noisy", "z0-idler-loss"]


def dense_output(n, d, z, n_th, tau):
    """P rho P, P onto levels below d, for loss tau on the idler of a two-mode squeezed
    vacuum of energy n and the cell channel (z, n_th) on its signal, as dense Kraus sums.
    The probe is truncated at D levels, where its dropped weight t^D is below 1e-16."""
    t = n / (n + 1.0)
    top = max(d, math.ceil(math.log(1e-16) / math.log(t))) if t > 0 else d
    probe = FockDensityMatrix.from_pure(epr_state(n, 1, top), (top, top))
    rho = apply_cell_channel(apply_loss(probe, tau, 1, keep=d), z, n_th)  # idler r < d
    return FockDensityMatrix((d, d), rho.data.reshape(top, d, top, d)[:d, :, :d].reshape(d * d, -1))


def mapped_blocks(n, d, z, n_th, tau):
    """The builder's blocks of the same output: idler loss tau is the probe at
    tau^2 n with a gain T = (n + 1) / (tau^2 n + 1) amplifier on the signal."""
    gain = (n + 1.0) / (tau * tau * n + 1.0)
    schmidt = np.diagonal(epr_state(tau * tau * n, 1, d).reshape(d, d))
    return epr_output_blocks(schmidt[None], [[z * math.sqrt(gain)]],
                             [[n_th + abs(z) ** 2 * (gain - 1.0)]])[0, 0]


def embed(blocks, d):
    """Dense (d^2, d^2) matrix of the folded blocks, and the mask of in-block entries."""
    dense = np.zeros((d,) * 4, dtype=complex)  # indices (s, r, s', r')
    inside = np.zeros((d,) * 4, dtype=bool)
    for delta in range(1 - d, d):
        r = np.arange(max(0, -delta), min(d, d - delta))
        rr, cc = np.meshgrid(r, r, indexing="ij")
        dense[rr + delta, rr, cc + delta, cc] = blocks[delta % d][np.ix_(r, r)]
        inside[rr + delta, rr, cc + delta, cc] = True
    for i in range(d):  # fold i: delta = i on rows < d - i, delta = i - d on the rest
        low = np.arange(d) < d - i
        assert np.all(blocks[i][low[:, None] != low] == 0.0)  # between its two sub-blocks
    return dense.reshape(d * d, d * d), inside.reshape(d * d, d * d)


def dense_rate(cell, tx, n_th, d, tau):
    """A one-entry rate's numbers from dense d^2 x d^2 outputs: rate, deficit, cross."""
    rhos, cond, cross, deficit = [], 0.0, 0.0, 0.0
    for p, z in zip(cell.probs, cell.reflectances):
        rho = dense_output(tx.n, d, z, n_th, tau)
        gauss = gaussian_channel_action(gaussian_probe(tx), z, n_th, 0)
        if tau < 1.0:
            gauss = gaussian_channel_action(gauss, tau, 0.0, 1)
        s_fock = von_neumann_entropy(rho)
        cross = max(cross, abs(s_fock - symplectic_entropy(gauss)))
        deficit = max(deficit, rho.trace_deficit)
        cond += p * s_fock
        rhos.append(rho.data)
    mixture = FockDensityMatrix((d, d), sum(p * r for p, r in zip(cell.probs, rhos)))
    return von_neumann_entropy(mixture) - cond, deficit, cross


class TestBlockOracle:
    @pytest.mark.parametrize("z,n_th,tau", CASES, ids=IDS)
    def test_blocks_equal_dense_output(self, z, n_th, tau):
        d = 8
        dense = dense_output(0.6, d, z, n_th, tau).data  # weight reaches the cutoff
        blocks = mapped_blocks(0.6, d, z, n_th, tau)
        assert blocks.shape == (d, d, d)
        embedded, inside = embed(blocks, d)
        assert np.max(np.abs(embedded - dense)) < 1e-12
        assert np.all(dense[~inside] == 0.0)

    @pytest.mark.parametrize("z,n_th,tau", CASES, ids=IDS)
    def test_rate_result_matches_dense_path(self, z, n_th, tau):
        d = 10
        cell = MarginalCell.binary(0.35, 0.9 * cmath.exp(-0.4j), z)
        tx = TransmitterSpec.epr(0.15)
        [res] = bounding_rates(cell, tx, n_th, [tau], d, attenuate_idler=True)
        composed = MarginalCell(cell.probs, tuple(tau * r for r in cell.reflectances))
        rate, deficit, cross = dense_rate(composed, tx, n_th * tau * tau, d, tau)
        assert abs(res.rate_bits - max(rate, 0.0)) < 1e-12
        assert abs(res.trace_deficit - deficit) < 1e-12
        assert abs(res.cross_check_error - cross) < 1e-12


class TestIdlerLoss:
    # idler loss is the probe at tau^2 n with an amplifier on its signal, so every
    # output is exactly P rho P and the truncated probe is the lower-energy one
    AMP = MarginalCell.binary(0.5, 0.0, 1.0)

    def test_rate_is_exact_at_the_default_dim(self):
        [res] = bounding_rates(self.AMP, TransmitterSpec.epr(1.0), 1.0, [0.5], 30,
                               attenuate_idler=True)
        [ref] = bounding_rates(self.AMP, TransmitterSpec.epr(1.0), 1.0, [0.5], 70,
                               attenuate_idler=True)
        assert abs(res.rate_bits - ref.rate_bits) < 1e-11
        assert res.cross_check_error < 1e-10

    def test_guard_reads_the_truncated_probe(self):
        # TMSV(3) drops 1.8e-4 of its weight at d = 30; TMSV(0.75), the probe built, does not
        tx = TransmitterSpec.epr(3.0)
        [res] = bounding_rates(self.AMP, tx, 1.0, [0.5], 30, attenuate_idler=True)
        [ref] = bounding_rates(self.AMP, tx, 1.0, [0.5], 90, attenuate_idler=True)
        assert abs(res.rate_bits - ref.rate_bits) < 1e-9  # the output's deficit is 9.4e-10
        with pytest.raises(TruncationError, match="EPR-state norm deficit"):
            bounding_rates(self.AMP, tx, 1.0, [1.0], 30, attenuate_idler=True)


class TestCostGuard:
    @pytest.mark.parametrize("tau", [1.0, 0.7])
    def test_no_eigensolve_larger_than_one_mode(self, monkeypatch, tau):
        d = 20
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        bounding_rates(MarginalCell.binary(0.5, 0.0, 1.0), TransmitterSpec.epr(0.3),
                       0.4, [tau], d, attenuate_idler=True)
        assert shapes
        assert all(s[-2] <= d and s[-1] <= d for s in shapes), shapes

    @pytest.mark.parametrize("tau", [1.0, 0.7])
    def test_epr_batch_is_d_folds(self, monkeypatch, tau):
        # two symbols and their mixture, each as d folds of (n_S - n_R) mod d
        d = 20
        shapes = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a, *args: shapes.append(np.shape(a)) or eigvalsh(a, *args))
        bounding_rates(MarginalCell.binary(0.5, 0.0, 1.0), TransmitterSpec.epr(0.3),
                       0.4, [tau], d, attenuate_idler=True)
        assert shapes == [(3, d, d, d)]

    @pytest.mark.parametrize("cell,dtype", [
        (MarginalCell.binary(0.5, 0.0, 1.0), np.float64),
        (MarginalCell.binary(0.5, 1.0, -1.0), np.float64),
        (MarginalCell.binary(0.5, 0.9 * cmath.exp(0.7j), 0.5 * cmath.exp(-1.2j)), np.complex128),
    ], ids=["amplitude", "phase", "complex"])
    @pytest.mark.parametrize("tau", [1.0, 0.7])
    @pytest.mark.parametrize("tx", [TransmitterSpec.coherent(0.3), TransmitterSpec.epr(0.3)],
                             ids=["coherent", "epr"])
    def test_real_cell_solves_in_float64(self, monkeypatch, tx, tau, cell, dtype):
        # every z real: probe, tables, outputs and eigensolve stay float64
        dtypes = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a, *args: dtypes.append(a.dtype) or eigvalsh(a, *args))
        bounding_rates(cell, tx, 0.4, [tau], 20, attenuate_idler=True)
        assert dtypes and all(t == dtype for t in dtypes), dtypes


reflectance = st.builds(cmath.rect, st.floats(0.0, 1.0), st.floats(-math.pi, math.pi))


@given(p0=st.floats(0.05, 0.95), z0=reflectance, z1=reflectance,
       n=st.floats(0.0, 0.1), n_th=st.floats(0.0, 0.2), dim=st.integers(10, 12),
       taus=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       both_sides=st.booleans())
@settings(max_examples=20, deadline=None)
def test_rate_bounded_and_monotone_in_tau(p0, z0, z1, n, n_th, dim, taus, both_sides):
    cell = MarginalCell.binary(p0, z0, z1)
    tx = TransmitterSpec.epr(n)
    lo, hi = sorted(taus)
    r_lo, r_hi = (r.rate_bits for r in bounding_rates(cell, tx, n_th, (lo, hi), dim,
                                                      attenuate_idler=both_sides))
    bound = shannon_entropy_d([1.0 - p0])
    assert 0.0 <= r_lo <= bound + 1e-9
    assert 0.0 <= r_hi <= bound + 1e-9
    assert r_lo <= r_hi + 1e-7


@given(p0=st.floats(0.05, 0.95), z0=reflectance, z1=reflectance, n=st.floats(0.0, 0.1),
       n_th=st.floats(0.0, 0.2), dim=st.integers(10, 12))
@settings(max_examples=20, deadline=None)
def test_idler_untouched_at_tau_one(p0, z0, z1, n, n_th, dim):
    # at tau = 1 the amplifier's gain is exactly 1: both variants agree bit for bit
    cell, tx = MarginalCell.binary(p0, z0, z1), TransmitterSpec.epr(n)
    one, two = (bounding_rates(cell, tx, n_th, [1.0], dim, attenuate_idler=both)[0]
                for both in (False, True))
    assert one == two
