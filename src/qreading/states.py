"""Probes as their d real Fock amplitudes, the entropies of states given as
stacks of diagonal blocks, and the thermal entropy g(n) that the closed-form
Gaussian entropies are built from. No probe vector or full multi-mode density
matrix is built here; the dense ones are test oracles.

Conventions used throughout the package:

* quadratures are x = a + a^dag, p = -i(a - a^dag), so the vacuum covariance
  matrix is the identity (variance 1) and a thermal state with mean photon
  number ``nbar`` has covariance (2*nbar + 1) * I;
* entropies are in bits (log base 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import StateValidationError, TruncationError

HERMITICITY_TOL = 1e-12
EIGENVALUE_FLOOR = 1e-14
NEGATIVITY_TOL = 1e-10

DEFAULT_DIM_SINGLE = 60
DEFAULT_DIM_PER_MODE = 30
DEFAULT_EPS_TRUNC = 1e-8


def g_thermal(nbar: float) -> float:
    """Entropy in bits of a thermal state with mean photon number ``nbar``:
    (n+1) log(n+1) - n log n, summed as log1p(n) + n log(1 + 1/n) so no large
    terms cancel; below n = 1 that log is log1p(n) - log(n) (1/n overflows)."""
    if nbar <= 0.0:
        return 0.0
    tail = math.log1p(1.0 / nbar) if nbar >= 1.0 else math.log1p(nbar) - math.log(nbar)
    return (math.log1p(nbar) + nbar * tail) / math.log(2.0)


# ---------------------------------------------------------------------------
# Fock picture
# ---------------------------------------------------------------------------

def _check_states(blocks: np.ndarray) -> np.ndarray:
    """Each state's trace in a (..., count, b, b) block stack, checked Hermitian and in (0, 1]."""
    dev = np.max(np.abs(blocks - np.swapaxes(blocks, -1, -2).conj()))
    if dev > HERMITICITY_TOL:
        raise StateValidationError(f"matrix not Hermitian: max deviation {dev:.3e}")
    tr = np.trace(blocks, axis1=-2, axis2=-1).real.sum(axis=-1)
    bad = tr[~((tr > 0.0) & (tr <= 1.0 + 1e-10))]
    if bad.size:
        raise StateValidationError(f"trace {bad[0]} outside (0, 1]")
    return tr


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


def block_entropies(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entropies in bits and trace deficits of states given as (..., count,
    b, b) stacks of diagonal blocks, zero-padded to one size b. Each state is
    checked Hermitian with its trace in (0, 1]; its spectrum is its blocks'
    spectra, so one batched ``eigvalsh`` serves every state. A pure state reads +0.0."""
    tr = _check_states(blocks)
    lam = np.linalg.eigvalsh(blocks).reshape(blocks.shape[:-3] + (-1,))
    if lam.min() < -NEGATIVITY_TOL:
        raise StateValidationError(f"eigenvalue {lam.min():.3e} below negativity floor")
    lam = np.where(lam > EIGENVALUE_FLOOR, lam, 1.0)
    return np.maximum(0.0, -np.sum(lam * np.log2(lam), axis=-1)) + 0.0, np.maximum(0.0, 1.0 - tr)


# ---------------------------------------------------------------------------
# Transmitters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransmitterSpec:
    """Probe description: kind, photon budget per cell, number of signal modes s."""

    kind: Literal["coherent", "epr"]
    n: float
    s: int = 1

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("mean photon number n must be >= 0")
        if self.s < 1:
            raise ValueError("need s >= 1")
        if self.kind not in ("coherent", "epr"):
            raise ValueError(f"unknown transmitter kind {self.kind!r}")
        if self.kind == "coherent" and self.s != 1:
            raise ValueError("a coherent probe has one signal mode: need s == 1")

    @classmethod
    def coherent(cls, n: float) -> "TransmitterSpec":
        return cls("coherent", n)

    @classmethod
    def epr(cls, n: float, s: int = 1) -> "TransmitterSpec":
        return cls("epr", n, s=s)

    def amplitudes(self, dim: int) -> np.ndarray:
        """The probe's d real Fock amplitudes, all a rate reads of it: sqrt of
        Poisson(n) for a coherent probe (e_0 at n = 0), the Schmidt coefficients
        sqrt(t^m / (nbar + 1)) of one EPR copy at nbar = n/s, t = nbar / (nbar + 1).
        Raises TruncationError if the probe's weight below ``dim`` falls short of
        1 by more than DEFAULT_EPS_TRUNC (for EPR, over all s copies)."""
        if dim < 2:
            raise ValueError("dim must be >= 2")
        m = np.arange(dim)
        if self.kind == "coherent":
            a = math.sqrt(self.n)
            if a ** 2 > dim / 4.0:
                raise TruncationError(f"|amplitude|^2 = {a**2:.3g} too large for dim {dim}")
            if a == 0:
                return np.eye(1, dim)[0]
            amp = np.exp(-a ** 2 / 2 + m * np.log(a) - log_factorials(dim) / 2)
            name = "coherent-state"
        else:
            nbar = self.n / self.s
            amp = np.sqrt((nbar / (nbar + 1.0)) ** m / (nbar + 1.0))
            name = "EPR-state"
        deficit = 1.0 - float(np.vdot(amp, amp)) ** self.s
        if deficit > DEFAULT_EPS_TRUNC:
            raise TruncationError(f"{name} norm deficit {deficit:.3e} > {DEFAULT_EPS_TRUNC:.1e}")
        return amp
