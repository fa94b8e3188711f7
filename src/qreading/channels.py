"""The memory-cell channel: attenuation by a complex reflectance plus
classical Gaussian displacement noise, in the Fock basis.

The Heisenberg-picture map is a -> z a + sqrt(1 - |z|^2) v + nu, with v a
vacuum mode and nu a complex circular Gaussian of variance n_th (so the
channel adds n_th photons on average). In the Fock basis it is computed
exactly as a loss by z / sqrt(G) followed by the quantum-limited amplifier
of gain G = 1 + n_th; weight the amplifier pushes past the truncation is
dropped and shows up as the output's trace deficit. Both stages are shifts
(Ivan, Sabapathy and Simon, PRA 84, 042311 (2011)): loss branch k sends |m>
to a[k, m] |m - k> and amplifier branch j sends |n - j> to b[j, n] |n>, both
(d, d) tables of one binomial over the higher level (float64 when z is real).
Loss keeps a coherent state coherent, so a coherent output needs no loss
table: it is built from its displacement, centred on the cell, with no probe
truncation. The builders take a stack of entries (a row of reflectances with
its noise) and build all their tables in one array call per kind. A setting
is plain scalars: the cell ensemble checks |z| <= 1, and rates.bounding_rates
composes the attenuator. An EPR probe is its d real Schmidt coefficients
(epr_amplitudes), one row per entry; no idler enters the builder, so every
EPR output is exactly P rho P. Both probe guards live here: each probe's
weight below d must fall short of 1 by at most DEFAULT_EPS_TRUNC (NaN fails).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import TruncationError

DEFAULT_EPS_TRUNC = 1e-8  # largest probe weight a truncation may drop


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
        # each check is written so that NaN fails it
        if not all(p >= 0 for p in self.probs):
            raise ValueError("probabilities must be >= 0")
        if not abs(sum(self.probs) - 1.0) <= 1e-12:
            raise ValueError(f"probabilities sum to {sum(self.probs)}, not 1")
        if not all(abs(z) <= 1.0 + 1e-12 for z in self.reflectances):
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

def log_factorials(count: int) -> np.ndarray:
    """log(m!) for m < ``count``: a running sum of log i, each step's rounding
    error recovered exactly (TwoSum) and added back (1.2e-11 drift at m = 1099)."""
    terms = np.concatenate(([0.0], np.log(np.arange(1, count))))
    total = np.cumsum(terms)
    before = np.concatenate(([0.0], total[:-1]))
    step = total - before
    return total + np.cumsum((before - (total - step)) + (terms - step))


def phase_powers(x: complex | np.ndarray, count: int) -> np.ndarray:
    """exp(i arg(x) m) for m < ``count``, along a new last axis of x; (+-1)^m
    for a real x (arg 0 = 0), in float64 when every x is real."""
    x, m = np.asarray(x)[..., None], np.arange(count)
    signs = np.where(x.real < 0, -1.0, 1.0) ** m
    if not x.imag.any():
        return signs
    return np.where(x.imag == 0.0, signs, np.exp(1j * np.angle(x) * m))


def _binomial_amplitudes(p: np.ndarray, q: np.ndarray, count: int) -> np.ndarray:
    """t[..., k, n] = sqrt(C(n, k) p^k q^(n-k)) where k <= n < count, else 0, one table
    per entry of the equal-shaped arrays p and q, as one exp of a log sum: C(n, k)
    never overflows, and p or q = 0 takes no log of 0."""
    i = np.arange(count)
    # i log x, with 0 log 0 = 0; each log is math.log's, as for a scalar x
    logs = [[math.log(x) if x > 0 else -math.inf for x in xs.ravel().tolist()] for xs in (p, q)]
    p_log, q_log = (np.maximum(i, 1) * np.array(row).reshape(p.shape + (1,)) for row in logs)
    p_log[..., 0] = q_log[..., 0] = 0.0
    log_fact = log_factorials(count)
    r = i - i[:, None]  # n - k, wrapping below 0 where the table is 0
    log_amp = (log_fact - log_fact[:, None] - log_fact[r]
               + p_log[..., None] + np.take(q_log, r, axis=-1))
    return np.where(r >= 0, np.exp(0.5 * log_amp), 0.0)


def loss_amplitudes(z: complex | np.ndarray, dim: int) -> np.ndarray:
    """a[..., k, m], one table per z: loss branch k sends |m> to a[k, m] |m - k>, with
    eta = |z|^2 and a[k, m] = sqrt(C(m, k) (1-eta)^k eta^(m-k)) exp(i arg(z) (m - k)),
    real when every z is. |z|^2 is Python's, as for a scalar z."""
    z = np.asarray(z, dtype=complex)
    eta = np.array([abs(x) ** 2 for x in z.ravel().tolist()]).reshape(z.shape)
    if eta.max() > 1.0 + 1e-12:
        raise ValueError(f"|z| = {math.sqrt(eta.max())} exceeds 1")
    eta = np.minimum(eta, 1.0)
    k, m = np.ogrid[:dim, :dim]
    return _binomial_amplitudes(1.0 - eta, eta, dim) \
        * np.take(phase_powers(z, dim), abs(m - k), axis=-1)


def amplifier_amplitudes(gain: float | np.ndarray, dim: int) -> np.ndarray:
    """b[..., j, n], one table per gain: amplifier branch j sends |n - j> to b[j, n] |n>, the
    loss table at eta = 1/G over sqrt(G): sqrt(C(n, j) (1-1/G)^j G^-(n-j+1)), 0 for j > n.
    Weight pushed past ``dim`` is dropped and shows up as trace deficit, never hidden."""
    gain = np.asarray(gain, dtype=float)
    if np.any(gain < 1.0):
        raise ValueError(f"amplifier gain {gain.min()} is below 1")
    return _binomial_amplitudes(1.0 - 1.0 / gain, 1.0 / gain, dim) / np.sqrt(gain)[..., None, None]


def epr_amplitudes(n: float | np.ndarray, dim: int) -> np.ndarray:
    """The EPR probe's d real Schmidt coefficients sqrt(t^m / (n + 1)), t = n / (n + 1),
    along a new last axis of n. Raises TruncationError unless each probe's
    weight falls short of 1 by at most DEFAULT_EPS_TRUNC (NaN fails)."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    n = np.asarray(n, dtype=float)[..., None]
    amp = np.sqrt((n / (n + 1.0)) ** np.arange(dim) / (n + 1.0))
    deficit = float(np.max(1.0 - np.sum(amp * amp, axis=-1), initial=0.0))  # NaN stays NaN
    if not deficit <= DEFAULT_EPS_TRUNC:
        raise TruncationError(f"EPR-state norm deficit {deficit:.3e} > {DEFAULT_EPS_TRUNC:.1e}")
    return amp


def coherent_cell_output(n: float, reflectances: Sequence[Sequence[complex]],
                         n_th: Sequence[float], dim: int) -> np.ndarray:
    """The (entry, u, d, d) stack of cell-channel outputs on the coherent probe
    |sqrt(n)>: entry e reads row e of ``reflectances``, at noise n_th[e].

    Symbol u's output is D(z_u sqrt(n)) rho_th(n_th) D(z_u sqrt(n))^dag, and
    one shift of a row's every z applies one unitary to all its outputs, so
    the row's centre c = mean(z) is taken off. Loss by (z_u - c) / sqrt(G)
    sends the probe to the coherent state of gamma_u = (z_u - c) sqrt(n) /
    sqrt(G) exactly, and the amplifier of gain G = 1 + n_th only raises
    photon number, so its branches on gamma_u's first d amplitudes give
    exactly P rho P, P the projector below d: no probe is truncated. Raises
    TruncationError unless each gamma_u's weight below d falls short of 1 by
    at most DEFAULT_EPS_TRUNC (NaN fails). Float64 when every z is real.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    gain = [1.0 + float(x) for x in n_th]
    gammas = []  # Python scalars, so each entry is bit-identical to a one-entry build
    for row, g in zip(reflectances, gain):
        row = [complex(z) for z in row]
        centre = sum(row) / len(row)
        gammas.append([(z - centre) * math.sqrt(n) / math.sqrt(g) for z in row])
    size = [[abs(x) for x in row] for row in gammas]
    # m log|gamma|, with 0 log 0 = 0; each log is math.log's, as for a scalar gamma
    m_log = np.maximum(np.arange(dim), 1) * np.array(
        [[math.log(a) if a > 0 else -math.inf for a in row] for row in size])[..., None]
    m_log[..., 0] = 0.0
    mags = np.exp(m_log - np.array(size)[..., None] ** 2 / 2 - log_factorials(dim) / 2)
    deficit = float(np.max(1.0 - np.sum(mags * mags, axis=-1)))
    if not deficit <= DEFAULT_EPS_TRUNC:
        raise TruncationError(
            f"coherent-state norm deficit {deficit:.3e} > {DEFAULT_EPS_TRUNC:.1e}")
    vec = mags * phase_powers(np.array(gammas), dim)
    n, j = np.ogrid[:dim, :dim]  # branch j sends |(n - j) % d> to b[j, n] |n>, 0 where it wraps
    branches = np.take(vec, (n - j) % dim, axis=-1)  # C order: the Gram's last bits depend on it
    branches *= np.swapaxes(amplifier_amplitudes(np.array(gain), dim), -1, -2)[:, None]
    rho = branches @ np.swapaxes(branches, -1, -2).conj()
    return 0.5 * (rho + np.swapaxes(rho, -1, -2).conj())


def epr_output_blocks(schmidt: np.ndarray, reflectances: Sequence[Sequence[complex]],
                      n_th: Sequence[Sequence[float]]) -> np.ndarray:
    """The cell channel on sum_m c_m |m, m>, by blocks, per entry e (Schmidt
    row ``schmidt[e]`` and a row of ``reflectances``) and symbol u, at noise n_th[e][u].

    Each step commutes with exp(i phi (n_S - n_R)): loss branch k and amplifier branch j
    send c_m |m, m> into block j - k. Entry [e, u, delta % d, r, r'] of the (entry, u,
    d, d, d) result is symbol u's <r + delta, r| rho |r' + delta, r'>, 0 past the cutoff.
    Fold i holds delta = i on idler levels r < d - i and delta = i - d on r >= d - i
    (where n_S = r + delta fits below d), so the two never share an entry and the
    fold's spectrum is the union of theirs. Cost O(d^4), not O(d^6).
    """
    d, gain = schmidt.shape[-1], 1.0 + np.asarray(n_th, dtype=float)
    a = loss_amplitudes([[complex(z) / math.sqrt(g) for z, g in zip(row, gs)]  # at z / sqrt(G)
                         for row, gs in zip(reflectances, gain.tolist())], d)
    b = np.zeros(gain.shape + (2 * d, 2 * d))
    b[..., :d, :d] = b[..., d:, d:] = amplifier_amplitudes(gain, d)
    s = b.strides  # fold i of loss branch k: amplifier branch k + i to level m + i of diag(b, b)
    b = np.ndarray(gain.shape + (d,) * 3, b.dtype, b, 0, s[:2] + (s[2] + s[3],) + s[2:])
    branches = schmidt[:, None, None, None] * a[:, :, None] * b  # axes (e, u, fold, k, m)
    blocks = np.swapaxes(branches, -1, -2) @ branches.conj()
    return 0.5 * (blocks + np.swapaxes(blocks, -1, -2).conj())
