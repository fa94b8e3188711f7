"""The memory-cell channel: attenuation by a complex reflectance plus
classical Gaussian displacement noise, in the Fock basis.

The Heisenberg-picture map is a -> z a + sqrt(1 - |z|^2) v + nu, with v a
vacuum mode and nu a complex circular Gaussian of variance n_th (so the
channel adds n_th photons on average). In the Fock basis it is computed
exactly as a loss by z / sqrt(G) followed by the quantum-limited amplifier
of gain G = 1 + n_th; weight the amplifier pushes past the truncation is
dropped and shows up as the output's trace deficit. Both stages are shifts
(Ivan, Sabapathy and Simon, PRA 84, 042311 (2011)): loss branch k sends |m>
to a[k, m] |m - k> and amplifier branch j sends |m> to b[j, m] |m + j>.
Every Fock-basis result is built from these (d, d) tables (float64 when z
is real), one loss table per symbol and one amplifier table per ensemble, so
a pure single-mode output costs O(d^3) time and O(d^2) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .states import log_factorials, phase_powers


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
    a[k, m] = sqrt(C(m, k) (1-eta)^k eta^(m-k)) exp(i arg(z) (m - k)), real for real z."""
    eta = abs(z) ** 2
    if eta > 1.0 + 1e-12:
        raise ValueError(f"|z| = {abs(z)} exceeds 1")
    eta = min(eta, 1.0)
    phase = phase_powers(z, dim)
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


def _loss_tables(reflectances: Sequence[complex], gain: float, dim: int) -> np.ndarray:
    """(u, dim, dim) stack of each symbol's loss table at z / sqrt(gain)."""
    return np.stack([loss_amplitudes(complex(z) / math.sqrt(gain), dim) for z in reflectances])


def pure_state_cell_output(vec: np.ndarray, reflectances: Sequence[complex],
                           n_th: float) -> np.ndarray:
    """The (u, d, d) stack of cell-channel outputs on |vec><vec|, one per reflectance.

    Each loss output is one Gram product over the d shifted vectors, batched
    over symbols; the amplifier adds that Gram shifted diagonally by j and
    scaled by outer(b_j, b_j). O(d^3) time and O(d^2) memory per symbol;
    float64 when ``vec`` and every z are real.
    """
    psi = np.asarray(vec)
    d = psi.size
    gain = 1.0 + n_th
    a = _loss_tables(reflectances, gain, d)
    b = amplifier_amplitudes(gain, d)
    k, n = np.arange(d)[:, None], np.arange(d)
    source = np.minimum(n + k, d - 1)  # branch k takes |n + k> to |n>
    shifted = np.where(n + k < d, np.take_along_axis(a, source[None], 2), 0.0) * psi[source]
    gram = np.swapaxes(shifted, 1, 2) @ shifted.conj()
    rho = np.zeros_like(gram)
    for j in np.flatnonzero(b.any(axis=1)):  # only branch 0 when n_th = 0
        bj = b[j, :d - j]
        rho[:, j:, j:] += np.outer(bj, bj) * gram[:, :d - j, :d - j]
    return 0.5 * (rho + np.swapaxes(rho, 1, 2).conj())


def epr_output_blocks(schmidt: np.ndarray, reflectances: Sequence[complex], n_th: float,
                      idler_attenuation: float) -> np.ndarray:
    """The cell channel on sum_m c_m |m, m> (then idler loss), by blocks, per reflectance.

    Each step commutes with exp(i phi (n_S - n_R)): loss branch k, amplifier
    branch j and idler-loss branch l send c_m |m, m> into block j - k + l.
    Entry [u, delta % d, r, r'] of the (u, d, d, d) result is symbol u's
    <r + delta, r| rho |r' + delta, r'>, 0 past the cutoff. Fold i holds
    delta = i on idler levels r < d - i and delta = i - d on r >= d - i
    (where n_S = r + delta fits below d), so the two never share an entry
    and the fold's spectrum is the union of theirs. Cost O(d^4), not O(d^6).
    """
    d = len(schmidt)
    gain = 1.0 + n_th
    a = _loss_tables(reflectances, gain, d)
    b = amplifier_amplitudes(gain, d)
    fold, k, m = np.ogrid[:d, :d, :d]  # amplifier branch (k + fold) % d takes loss branch k
    branches = schmidt * a[:, None] * b[(k + fold) % d, (m - k) % d]
    blocks = np.swapaxes(branches, -1, -2) @ branches.conj()
    if idler_attenuation < 1.0:
        c = loss_amplitudes(complex(idler_attenuation), d)
        lossy = np.zeros_like(blocks)
        for l in range(d):
            w = np.outer(c[l, l:], c[l, l:].conj())  # idler r -> r - l, fold +l
            lossy[..., :d - l, :d - l] += w * blocks[:, (np.arange(d) - l) % d, l:, l:]
        blocks = lossy
    return 0.5 * (blocks + np.swapaxes(blocks, -1, -2).conj())


# ---------------------------------------------------------------------------
# Channel algebra
# ---------------------------------------------------------------------------

def compose_with_attenuator(params: ChannelParams, tau: float) -> ChannelParams:
    """Cell channel followed by a tau-attenuator: z -> tau z, n_th -> tau^2 n_th."""
    if not (0.0 <= tau <= 1.0):
        raise ValueError("tau must lie in [0, 1]")
    return ChannelParams(tau * params.z, params.n_th * tau * tau)
