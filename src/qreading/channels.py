"""The memory-cell channel: attenuation by a complex reflectance plus
classical Gaussian displacement noise, in both Fock and Gaussian pictures.

The Heisenberg-picture map is a -> z a + sqrt(1 - |z|^2) v + nu, with v a
vacuum mode and nu a complex circular Gaussian of variance n_th (so the
channel adds n_th photons on average). In the Fock basis it is computed
exactly as a loss by z / sqrt(G) followed by the quantum-limited amplifier
of gain G = 1 + n_th; weight the amplifier pushes past the truncation is
dropped and shows up as the output's trace deficit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .states import FockDensityMatrix, GaussianState


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

@lru_cache(maxsize=64)
def loss_kraus(z: complex, dim: int) -> np.ndarray:
    """Kraus stack (k, dim, dim) of the attenuation channel with phase arg z.

    A_k = sum_m sqrt(C(m,k)) (1-eta)^(k/2) eta^((m-k)/2) |m-k><m|, eta = |z|^2,
    left-multiplied by the rotation exp(i arg(z) a^dag a).
    """
    eta = abs(z) ** 2
    if eta > 1.0 + 1e-12:
        raise ValueError(f"|z| = {abs(z)} exceeds 1")
    eta = min(eta, 1.0)
    phase = np.exp(1j * (np.angle(z) if z != 0 else 0.0) * np.arange(dim))
    ops = np.zeros((dim, dim, dim), dtype=complex)
    for k in range(dim):
        for m in range(k, dim):
            amp = math.sqrt(math.comb(m, k)) * (1.0 - eta) ** (k / 2.0) \
                * eta ** ((m - k) / 2.0)
            ops[k, m - k, m] = amp * phase[m - k]
    return ops


@lru_cache(maxsize=64)
def amplifier_kraus(gain: float, dim: int) -> np.ndarray:
    """Kraus stack (k, dim, dim) of the quantum-limited amplifier of gain G.

    B_k = sum_m sqrt(C(m+k,k)) (1-1/G)^(k/2) G^(-(m+1)/2) |m+k><m|, cut off at
    ``dim``: weight pushed past the cutoff is dropped and shows up as trace
    deficit instead of being hidden.
    """
    if gain < 1.0:
        raise ValueError(f"amplifier gain {gain} is below 1")
    ops = np.zeros((dim, dim, dim))
    for k in range(dim):
        for m in range(dim - k):
            ops[k, m + k, m] = math.sqrt(math.comb(m + k, k)) \
                * (1.0 - 1.0 / gain) ** (k / 2.0) * gain ** (-(m + 1) / 2.0)
    return ops


def _apply_kraus_mode(rho: FockDensityMatrix, ops: np.ndarray,
                      mode: int) -> FockDensityMatrix:
    """sum_k O_k rho O_k^dag with each O_k acting on one mode."""
    dims = rho.dims
    m = len(dims)
    if not (0 <= mode < m):
        raise ValueError(f"mode {mode} out of range for {m} modes")
    tensor = rho.data.reshape(dims * 2)
    out = np.zeros_like(tensor)
    for op in ops:
        t = np.moveaxis(np.tensordot(op, tensor, axes=([1], [mode])), 0, mode)
        t = np.moveaxis(np.tensordot(op.conj(), t, axes=([1], [m + mode])), 0, m + mode)
        out += t
    size = int(np.prod(dims))
    data = out.reshape(size, size)
    data = 0.5 * (data + data.conj().T)
    return FockDensityMatrix(dims, data)


def apply_loss(rho: FockDensityMatrix, z: complex, mode: int = 0) -> FockDensityMatrix:
    """Attenuation by |z|^2 plus phase rotation arg z on one mode."""
    return _apply_kraus_mode(rho, loss_kraus(complex(z), rho.dims[mode]), mode)


def apply_classical_noise(rho: FockDensityMatrix, n_th: float,
                          mode: int = 0) -> FockDensityMatrix:
    """Add ``n_th`` thermal photons on one mode, exactly.

    The Gaussian displacement average equals a loss to 1/G followed by the
    amplifier of gain G = 1 + n_th.
    """
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
    """Cell-channel output for a pure input, assembled from Kraus vectors.

    Equivalent to ``apply_cell_channel`` on |vec><vec| but much cheaper: the
    loss z / sqrt(G) and then the amplifier of gain G = 1 + n_th act on the
    vector one stage at a time, and the output sum_i o_i o_i^dag over the
    resulting vectors o_i is a single Gram product.
    """
    dims = tuple(dims)
    d = dims[mode]
    size = int(np.prod(dims))
    tensor = np.moveaxis(np.asarray(vec, dtype=complex).reshape(dims), mode, 0)
    rest = tensor.size // d
    gain = 1.0 + params.n_th
    stages = [loss_kraus(complex(params.z) / math.sqrt(gain), d)]
    if params.n_th > 0:
        stages.append(amplifier_kraus(gain, d))

    branches = tensor.reshape(1, d, rest)
    for ops in stages:  # (count, d, rest) -> (len(ops) * count, d, rest)
        count = branches.shape[0]
        flat = branches.transpose(1, 0, 2).reshape(d, count * rest)
        branches = (ops @ flat).reshape(-1, d, count, rest).transpose(0, 2, 1, 3) \
            .reshape(-1, d, rest)
    cols = np.moveaxis(branches.reshape((-1,) + tensor.shape), 1, mode + 1)
    w = cols.reshape(-1, size)
    rho = w.T @ w.conj()
    rho = 0.5 * (rho + rho.conj().T)
    return FockDensityMatrix(dims, rho)


def _shift_amplitudes(ops: np.ndarray, sign: int) -> np.ndarray:
    """t[k, m]: the amplitude with which ops[k] sends |m> to |m + sign k>."""
    k, m = np.ogrid[:len(ops), :ops.shape[-1]]
    return ops[k, (m + sign * k) % ops.shape[-1], m]  # wrapped entries are 0


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
    a = _shift_amplitudes(loss_kraus(complex(params.z) / math.sqrt(gain), d), -1)
    b = _shift_amplitudes(amplifier_kraus(gain, d), 1)
    delta, k, m = np.ogrid[1 - d:d, :d, :d]
    j = k + delta  # the amplifier branch that takes loss branch k into block delta
    branches = np.where((j >= 0) & (j < d), schmidt * a[k, m] * b[j % d, (m - k) % d], 0)
    blocks = np.swapaxes(branches, 1, 2) @ branches.conj()
    if idler_attenuation < 1.0:
        c = _shift_amplitudes(loss_kraus(complex(idler_attenuation), d), -1)
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
    mag = abs(params.z)
    phi = np.angle(params.z) if params.z != 0 else 0.0
    rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    scale = np.eye(2 * m)
    scale[2 * mode:2 * mode + 2, 2 * mode:2 * mode + 2] = mag * rot
    noise = np.zeros((2 * m, 2 * m))
    noise[2 * mode:2 * mode + 2, 2 * mode:2 * mode + 2] = \
        ((1.0 - mag * mag) + 2.0 * params.n_th) * np.eye(2)
    cov = scale @ state.cov @ scale.T + noise
    mean = scale @ state.mean
    return GaussianState(m, mean, cov)


def compose_with_attenuator(params: ChannelParams, tau: float) -> ChannelParams:
    """Cell channel followed by a tau-attenuator: z -> tau z, n_th -> tau^2 n_th."""
    if not (0.0 <= tau <= 1.0):
        raise ValueError("tau must lie in [0, 1]")
    return ChannelParams(tau * params.z, tau * tau * params.n_th)
