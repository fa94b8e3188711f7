"""The memory-cell channel: attenuation by a complex reflectance plus
classical Gaussian displacement noise, in both Fock and Gaussian pictures.

The Heisenberg-picture map is a -> z a + sqrt(1 - |z|^2) v + nu, with v a
vacuum mode and nu a complex circular Gaussian of variance n_th (so the
channel adds n_th photons on average). In the Fock basis it is computed
exactly as a loss by z / sqrt(G) followed by the quantum-limited amplifier
of gain G = 1 + n_th; weight the amplifier pushes past the truncation is
dropped and shows up as the output's trace deficit. Both stages are shifts
(Ivan, Sabapathy and Simon, PRA 84, 042311 (2011)): loss branch k sends |m>
to a[k, m] |m - k> and amplifier branch j sends |m> to b[j, m] |m + j>.
Every Fock-basis result is built from these two (d, d) tables, so a pure
single-mode output costs O(d^3) time and O(d^2) memory; the dense Kraus
stacks serve only the ``apply_*`` oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .states import FockDensityMatrix, GaussianState, log_factorials


@dataclass(frozen=True)
class ChannelParams:
    """Complex reflectance z (|z| <= 1) and classical-noise variance n_th."""

    z: complex
    n_th: float = 0.0

    def __post_init__(self) -> None:
        if abs(self.z) > 1.0 + 1e-12:
            raise ValueError(f"|z| = {abs(self.z)} exceeds 1")
        if self.n_th < 0:
            raise ValueError("n_th must be >= 0")


@dataclass(frozen=True)
class MarginalCell:
    """Symbol ensemble of the memory cell: probabilities and reflectances."""

    probs: tuple[float, ...]
    reflectances: tuple[complex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        object.__setattr__(self, "reflectances",
                           tuple(complex(z) for z in self.reflectances))
        if len(self.probs) != len(self.reflectances) or len(self.probs) < 2:
            raise ValueError("need matching probs/reflectances of length >= 2")
        if any(p < 0 for p in self.probs):
            raise ValueError("probabilities must be >= 0")
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {sum(self.probs)}, not 1")
        if any(abs(z) > 1.0 + 1e-12 for z in self.reflectances):
            raise ValueError("all |z_u| must be <= 1")

    @classmethod
    def binary(cls, p0: float, z0: complex, z1: complex) -> "MarginalCell":
        return cls((p0, 1.0 - p0), (complex(z0), complex(z1)))

    @property
    def d(self) -> int:
        return len(self.probs)

    def channel(self, u: int, n_th: float) -> ChannelParams:
        return ChannelParams(self.reflectances[u], n_th)


# ---------------------------------------------------------------------------
# Fock-basis building blocks
# ---------------------------------------------------------------------------

def _binomial_amplitudes(p: float, q: float, k: np.ndarray, n: np.ndarray,
                         count: int) -> np.ndarray:
    """sqrt(C(n, k) p^k q^(n-k)) where 0 <= k <= n < count, else 0, as one exp
    of a log sum: C(n, k) never overflows, and p or q = 0 takes no log of 0."""
    i = np.arange(2 * count)  # n < 2 count; entries with k > n use |n - k|
    p_log, q_log = (i * math.log(x) if x > 0 else np.where(i == 0, 0.0, -np.inf)
                    for x in (p, q))  # i log x, with 0 log 0 = 0
    log_fact = log_factorials(2 * count)
    r = np.abs(n - k)
    log_amp = log_fact[n] - log_fact[k] - log_fact[r] + p_log[k] + q_log[r]
    return np.where((k <= n) & (n < count), np.exp(0.5 * log_amp), 0.0)


def loss_amplitudes(z: complex, dim: int) -> np.ndarray:
    """a[k, m]: loss branch k sends |m> to a[k, m] |m - k>, with eta = |z|^2 and
    a[k, m] = sqrt(C(m, k) (1-eta)^k eta^(m-k)) exp(i arg(z) (m - k))."""
    eta = abs(z) ** 2
    if eta > 1.0 + 1e-12:
        raise ValueError(f"|z| = {abs(z)} exceeds 1")
    eta = min(eta, 1.0)
    phase = np.exp(1j * np.angle(z) * np.arange(dim))
    k, m = np.arange(dim)[:, None], np.arange(dim)
    return _binomial_amplitudes(1.0 - eta, eta, k, m, dim) * phase[np.abs(m - k)]


def amplifier_amplitudes(gain: float, dim: int) -> np.ndarray:
    """b[j, m]: amplifier branch j sends |m> to b[j, m] |m + j>, with
    b[j, m] = sqrt(C(m+j, j) (1-1/G)^j G^-(m+1)), 0 for m + j >= ``dim``: weight
    pushed past the cutoff shows up as trace deficit instead of being hidden."""
    if gain < 1.0:
        raise ValueError(f"amplifier gain {gain} is below 1")
    j, m = np.arange(dim)[:, None], np.arange(dim)
    return _binomial_amplitudes(1.0 - 1.0 / gain, 1.0 / gain, j, j + m, dim) \
        / math.sqrt(gain)


def _kraus_stack(table: np.ndarray, sign: int) -> np.ndarray:
    """Dense stack (k, dim, dim) with ops[k] |m> = table[k, m] |m + sign k>."""
    k, m = np.nonzero(table)
    ops = np.zeros((len(table),) * 3, dtype=table.dtype)
    ops[k, m + sign * k, m] = table[k, m]
    return ops


def loss_kraus(z: complex, dim: int) -> np.ndarray:
    """Kraus stack (k, dim, dim) of the attenuation channel, from ``loss_amplitudes``."""
    return _kraus_stack(loss_amplitudes(z, dim), -1)


def amplifier_kraus(gain: float, dim: int) -> np.ndarray:
    """Kraus stack (k, dim, dim) of the amplifier, from ``amplifier_amplitudes``."""
    return _kraus_stack(amplifier_amplitudes(gain, dim), 1)


def _apply_kraus_mode(rho: FockDensityMatrix, ops: np.ndarray,
                      mode: int) -> FockDensityMatrix:
    """sum_k O_k rho O_k^dag with each O_k acting on one mode."""
    m = rho.mode_count
    if not (0 <= mode < m):
        raise ValueError(f"mode {mode} out of range for {m} modes")
    tensor = np.moveaxis(rho.data.reshape(rho.dims * 2), (mode, m + mode), (0, 1))
    out = np.einsum("kia,ab...,kjb->ij...", ops, tensor, ops.conj(), optimize=True)
    data = np.moveaxis(out, (0, 1), (mode, m + mode)).reshape(rho.data.shape)
    return FockDensityMatrix(rho.dims, 0.5 * (data + data.conj().T))


def apply_loss(rho: FockDensityMatrix, z: complex, mode: int = 0) -> FockDensityMatrix:
    """Attenuation by |z|^2 plus phase rotation arg z on one mode."""
    return _apply_kraus_mode(rho, loss_kraus(complex(z), rho.dims[mode]), mode)


def apply_classical_noise(rho: FockDensityMatrix, n_th: float,
                          mode: int = 0) -> FockDensityMatrix:
    """Add ``n_th`` thermal photons on one mode, exactly: the Gaussian
    displacement average is a loss to 1/G then the amplifier of gain 1 + n_th."""
    if n_th < 0:
        raise ValueError("n_th must be >= 0")
    if n_th == 0:
        return rho
    gain = 1.0 + n_th
    out = apply_loss(rho, 1.0 / math.sqrt(gain), mode)
    return _apply_kraus_mode(out, amplifier_kraus(gain, rho.dims[mode]), mode)


def apply_cell_channel(rho: FockDensityMatrix, params: ChannelParams,
                       mode: int = 0) -> FockDensityMatrix:
    """Loss by z then classical noise n_th on the designated mode."""
    out = apply_loss(rho, params.z, mode)
    return apply_classical_noise(out, params.n_th, mode)


def pure_state_cell_output(vec: np.ndarray, dims: tuple[int, ...],
                           params: ChannelParams, mode: int = 0) -> FockDensityMatrix:
    """``apply_cell_channel`` on |vec><vec|, without the dense Kraus stacks.

    The loss output is one Gram product over the d shifted vectors; the
    amplifier adds that Gram shifted diagonally by j and scaled by
    outer(b_j, b_j). O(d^3 r^2) time, O((d r)^2) memory, r the other modes' size.
    """
    dims = tuple(dims)
    d = dims[mode]
    tensor = np.moveaxis(np.asarray(vec, dtype=complex).reshape(dims), mode, 0)
    psi = tensor.reshape(d, -1)
    gain = 1.0 + params.n_th
    a = loss_amplitudes(complex(params.z) / math.sqrt(gain), d)
    b = amplifier_amplitudes(gain, d)
    k, n = np.arange(d)[:, None], np.arange(d)
    source = np.minimum(n + k, d - 1)  # branch k takes |n + k> to |n>
    shifted = (np.where(n + k < d, a[k, source], 0.0)[..., None] * psi[source]).reshape(d, -1)
    gram = (shifted.T @ shifted.conj()).reshape(psi.shape * 2)
    rho = np.zeros_like(gram)
    for j in np.flatnonzero(b.any(axis=1)):  # only branch 0 when n_th = 0
        bj = b[j, :d - j, None]  # b_j b_j^T below, on the (d, rest, d, rest) axes
        rho[j:, :, j:] += (bj[:, None, :, None] * bj) * gram[:d - j, :, :d - j]
    m = len(dims)
    rho = np.moveaxis(rho.reshape(tensor.shape * 2), (0, m), (mode, m + mode))
    rho = rho.reshape(psi.size, psi.size)
    return FockDensityMatrix(dims, 0.5 * (rho + rho.conj().T))


def epr_output_blocks(schmidt: np.ndarray, params: ChannelParams,
                      idler_attenuation: float = 1.0) -> np.ndarray:
    """``pure_state_cell_output`` of sum_m c_m |m, m> (then idler loss) by blocks.

    Each step commutes with exp(i phi (n_S - n_R)): loss branch k, amplifier
    branch j and idler-loss branch l send c_m |m, m> into block j - k + l.
    Entry [delta + d - 1, r, r'] of the (2d - 1, d, d) result is
    <r + delta, r| rho |r' + delta, r'>, 0 past the cutoff. Cost O(d^4), not O(d^6).
    """
    d = len(schmidt)
    gain = 1.0 + params.n_th
    a = loss_amplitudes(complex(params.z) / math.sqrt(gain), d)
    b = amplifier_amplitudes(gain, d)
    delta, k, m = np.ogrid[1 - d:d, :d, :d]
    j = k + delta  # the amplifier branch that takes loss branch k into block delta
    branches = np.where((j >= 0) & (j < d), schmidt * a[k, m] * b[j % d, (m - k) % d], 0)
    blocks = np.swapaxes(branches, 1, 2) @ branches.conj()
    if idler_attenuation < 1.0:
        c = loss_amplitudes(complex(idler_attenuation), d)
        lossy = np.zeros_like(blocks)
        for l in range(d):
            w = np.outer(c[l, l:], c[l, l:].conj())  # idler r -> r - l, block +l
            lossy[l:, :d - l, :d - l] += w * blocks[:2 * d - 1 - l, l:, l:]
        blocks = lossy
    return 0.5 * (blocks + np.swapaxes(blocks, 1, 2).conj())


# ---------------------------------------------------------------------------
# Gaussian picture and channel algebra
# ---------------------------------------------------------------------------

def gaussian_channel_action(state: GaussianState, params: ChannelParams,
                            mode: int = 0) -> GaussianState:
    """Exact covariance-level action of the cell channel on one mode."""
    m = state.mode_count
    if not (0 <= mode < m):
        raise ValueError(f"mode {mode} out of range for {m} modes")
    mag, phi = abs(params.z), np.angle(params.z)
    block = slice(2 * mode, 2 * mode + 2)
    scale = np.eye(2 * m)
    scale[block, block] = mag * np.array([[math.cos(phi), -math.sin(phi)],
                                          [math.sin(phi), math.cos(phi)]])
    noise = np.zeros((2 * m, 2 * m))
    noise[block, block] = ((1.0 - mag * mag) + 2.0 * params.n_th) * np.eye(2)
    return GaussianState(m, scale @ state.mean, scale @ state.cov @ scale.T + noise)


def compose_with_attenuator(params: ChannelParams, tau: float) -> ChannelParams:
    """Cell channel followed by a tau-attenuator: z -> tau z, n_th -> tau^2 n_th."""
    if not (0.0 <= tau <= 1.0):
        raise ValueError("tau must lie in [0, 1]")
    return ChannelParams(tau * params.z, tau * tau * params.n_th)
