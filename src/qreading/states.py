"""Probe states in two pictures: truncated Fock space and Gaussian phase space.

Conventions used throughout the package:

* quadratures are x = a + a^dag, p = -i(a - a^dag), so the vacuum covariance
  matrix is the identity (variance 1) and a thermal state with mean photon
  number ``nbar`` has covariance (2*nbar + 1) * I;
* entropies are in bits (log base 2);
* multi-mode Fock tensors use row-major mode ordering, EPR copies are stored
  interleaved as (S_1, R_1, S_2, R_2, ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from .errors import StateValidationError, TruncationError

HERMITICITY_TOL = 1e-12
EIGENVALUE_FLOOR = 1e-14
NEGATIVITY_TOL = 1e-10
SYMPLECTIC_TOL = 1e-9
HERMITICITY_TILE = 512  # checked per upper-triangle tile: no full-size temporary

DEFAULT_DIM_SINGLE = 60
DEFAULT_DIM_PER_MODE = 30
DEFAULT_EPS_TRUNC = 1e-8


def g_thermal(nbar: float) -> float:
    """Entropy in bits of a thermal state with mean photon number ``nbar``."""
    if nbar <= 0.0:
        return 0.0
    return (nbar + 1.0) * math.log2(nbar + 1.0) - nbar * math.log2(nbar)


# ---------------------------------------------------------------------------
# Fock picture
# ---------------------------------------------------------------------------

@dataclass
class FockDensityMatrix:
    """Multi-mode density matrix in a truncated number basis.

    ``dims`` holds the truncation dimension of each mode; ``data`` is the
    full matrix of size prod(dims). The trace may fall short of 1: the
    deficit is the recorded truncation loss.
    """

    dims: tuple[int, ...]
    data: np.ndarray
    eps_trunc: float | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.dims = tuple(int(d) for d in self.dims)
        if not self.dims or any(d < 1 for d in self.dims):
            raise StateValidationError(f"invalid mode dimensions {self.dims}")
        size = int(np.prod(self.dims))
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.shape != (size, size):
            raise StateValidationError(
                f"data shape {self.data.shape} does not match dims {self.dims}"
            )
        a, b = self.data, HERMITICITY_TILE
        dev = max(np.max(np.abs(a[i:i + b, j:j + b] - a[j:j + b, i:i + b].conj().T))
                  for i in range(0, size, b) for j in range(i, size, b))
        if dev > HERMITICITY_TOL:
            raise StateValidationError(f"matrix not Hermitian: max deviation {dev:.3e}")
        tr = float(np.real(np.trace(self.data)))
        if not (0.0 < tr <= 1.0 + 1e-10):
            raise StateValidationError(f"trace {tr} outside (0, 1]")
        if self.eps_trunc is not None and self.trace_deficit > self.eps_trunc:
            raise TruncationError(
                f"trace deficit {self.trace_deficit:.3e} exceeds eps_trunc {self.eps_trunc:.1e}"
            )

    @property
    def mode_count(self) -> int:
        return len(self.dims)

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.data)))

    @property
    def trace_deficit(self) -> float:
        return max(0.0, 1.0 - self.trace)

    @classmethod
    def from_pure(cls, vec: np.ndarray, dims: Sequence[int],
                  eps_trunc: float | None = None) -> "FockDensityMatrix":
        vec = np.asarray(vec, dtype=complex).reshape(-1)
        rho = np.outer(vec, vec.conj())
        return cls(tuple(dims), rho, eps_trunc)

    def check_positive(self, floor: float = NEGATIVITY_TOL) -> None:
        """Raise unless all eigenvalues are above ``-floor``."""
        lo = float(np.min(np.linalg.eigvalsh(self.data)))
        if lo < -floor:
            raise StateValidationError(f"negative eigenvalue {lo:.3e} below floor")


def log_factorials(count: int) -> np.ndarray:
    """log(m!) for m < ``count``: a running sum of log i, each step's rounding
    error recovered exactly (TwoSum) and added back (1.2e-11 drift at m = 1099)."""
    terms = np.concatenate(([0.0], np.log(np.arange(1, count))))
    total = np.cumsum(terms)
    before = np.concatenate(([0.0], total[:-1]))
    step = total - before
    return total + np.cumsum((before - (total - step)) + (terms - step))


def coherent_state(amplitude: complex, dim: int,
                   eps_trunc: float = DEFAULT_EPS_TRUNC) -> np.ndarray:
    """Fock coefficients of |alpha>, c_m = exp(-|a|^2/2) a^m / sqrt(m!)."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if abs(amplitude) ** 2 > dim / 4.0:
        raise TruncationError(
            f"|amplitude|^2 = {abs(amplitude)**2:.3g} too large for dim {dim}"
        )
    if amplitude == 0:
        vec = np.zeros(dim, dtype=complex)
        vec[0] = 1.0
        return vec
    m = np.arange(dim)
    log_mag = -abs(amplitude) ** 2 / 2 + m * np.log(abs(amplitude)) - log_factorials(dim) / 2
    phase = np.exp(1j * np.angle(amplitude) * m)
    vec = np.exp(log_mag) * phase
    deficit = 1.0 - float(np.vdot(vec, vec).real)
    if deficit > eps_trunc:
        raise TruncationError(f"coherent-state norm deficit {deficit:.3e} > {eps_trunc:.1e}")
    return vec


def epr_state(n: float, s: int, dim: int,
              eps_trunc: float = DEFAULT_EPS_TRUNC) -> np.ndarray:
    """Tensor power of two-mode squeezed vacuum, total signal energy ``n``.

    Per copy the Schmidt coefficient of |m>|m> is (tanh xi)^m / cosh xi with
    sinh^2 xi = n/s. Modes are ordered (S_1, R_1, ..., S_s, R_s).
    """
    if n < 0 or s < 1:
        raise ValueError("need n >= 0 and s >= 1")
    if dim < 2:
        raise ValueError("dim must be >= 2")
    nbar = n / s
    tanh2 = nbar / (nbar + 1.0)
    m = np.arange(dim)
    schmidt = np.sqrt(tanh2 ** m / (nbar + 1.0))
    copy = np.zeros((dim, dim), dtype=complex)
    copy[m, m] = schmidt
    vec = copy.reshape(-1)
    for _ in range(s - 1):
        vec = np.kron(vec, copy.reshape(-1))
    deficit = 1.0 - float(np.vdot(vec, vec).real)
    if deficit > eps_trunc:
        raise TruncationError(f"EPR-state norm deficit {deficit:.3e} > {eps_trunc:.1e}")
    return vec


def thermal_state(nbar: float, dim: int,
                  eps_trunc: float | None = None) -> FockDensityMatrix:
    """Single-mode thermal state with weights nbar^m / (nbar+1)^(m+1)."""
    if nbar < 0:
        raise ValueError("nbar must be >= 0")
    m = np.arange(dim)
    weights = (nbar / (nbar + 1.0)) ** m / (nbar + 1.0) if nbar > 0 else \
        np.concatenate(([1.0], np.zeros(dim - 1)))
    return FockDensityMatrix((dim,), np.diag(weights).astype(complex), eps_trunc)


def von_neumann_entropy(rho: FockDensityMatrix) -> float:
    """-sum lambda log2 lambda over the eigenvalues of ``rho``, in bits."""
    return float(block_entropies(rho.data[None])[0])


def block_entropies(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entropies in bits and trace deficits of states given as (..., count,
    b, b) stacks of diagonal blocks, zero-padded to one size b. Each state is
    checked like a :class:`FockDensityMatrix`; its spectrum is its blocks'
    spectra, so one batched ``eigvalsh`` serves every state."""
    dev = np.max(np.abs(blocks - np.swapaxes(blocks, -1, -2).conj()))
    if dev > HERMITICITY_TOL:
        raise StateValidationError(f"matrix not Hermitian: max deviation {dev:.3e}")
    tr = np.trace(blocks, axis1=-2, axis2=-1).real.sum(axis=-1)
    bad = tr[(tr <= 0.0) | (tr > 1.0 + 1e-10)]
    if bad.size:
        raise StateValidationError(f"trace {bad[0]} outside (0, 1]")
    lam = np.linalg.eigvalsh(blocks).reshape(blocks.shape[:-3] + (-1,))
    if lam.min() < -NEGATIVITY_TOL:
        raise StateValidationError(f"eigenvalue {lam.min():.3e} below negativity floor")
    lam = np.where(lam > EIGENVALUE_FLOOR, lam, 1.0)
    return np.maximum(0.0, -np.sum(lam * np.log2(lam), axis=-1)), np.maximum(0.0, 1.0 - tr)


def partial_trace(rho: FockDensityMatrix, keep: Sequence[int]) -> FockDensityMatrix:
    """Reduced state on the mode subset ``keep`` (order preserved)."""
    keep = list(keep)
    m = rho.mode_count
    if not keep or any(k < 0 or k >= m for k in keep) or len(set(keep)) != len(keep):
        raise ValueError(f"keep {keep} is not a valid subset of modes 0..{m - 1}")
    order = keep + [k for k in range(m) if k not in keep]
    new_dims = tuple(rho.dims[k] for k in keep)
    size = int(np.prod(new_dims))
    tensor = np.transpose(rho.data.reshape(rho.dims * 2), order + [m + k for k in order])
    tensor = tensor.reshape(size, -1, size, rho.data.shape[0] // size)
    return FockDensityMatrix(new_dims, np.einsum("itjt->ij", tensor))


def fock_moments(rho: FockDensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature mean vector and symmetrized covariance of a Fock state.

    Returned in the same (x_1, p_1, x_2, p_2, ...) ordering and vacuum = I
    normalization as :class:`GaussianState`; useful as a cross-picture check.
    """
    m = rho.mode_count
    quads = []
    for k, d in enumerate(rho.dims):
        a = np.diag(np.sqrt(np.arange(1, d)), 1)
        x = a + a.conj().T
        p = -1j * (a - a.conj().T)
        quads.append(_embed_operator(x, rho.dims, k))
        quads.append(_embed_operator(p, rho.dims, k))
    tr = rho.trace
    mean = np.array([np.real(np.trace(q @ rho.data)) / tr for q in quads])
    cov = np.zeros((2 * m, 2 * m))
    for i in range(2 * m):
        for j in range(i, 2 * m):
            anti = quads[i] @ quads[j] + quads[j] @ quads[i]
            val = np.real(np.trace(anti @ rho.data)) / (2.0 * tr) - mean[i] * mean[j]
            cov[i, j] = cov[j, i] = val
    return mean, cov


def _embed_operator(op: np.ndarray, dims: Sequence[int], mode: int) -> np.ndarray:
    full = np.array([[1.0 + 0j]])
    for k, d in enumerate(dims):
        full = np.kron(full, op if k == mode else np.eye(d))
    return full


# ---------------------------------------------------------------------------
# Gaussian picture
# ---------------------------------------------------------------------------

def symplectic_form(mode_count: int) -> np.ndarray:
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(mode_count), omega)


@dataclass
class GaussianState:
    """Mean vector and covariance matrix, vacuum covariance = identity."""

    mode_count: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=float).reshape(-1)
        self.cov = np.asarray(self.cov, dtype=float)
        n = 2 * self.mode_count
        if self.mean.shape != (n,) or self.cov.shape != (n, n):
            raise StateValidationError("mean/cov shape mismatch with mode_count")
        if np.max(np.abs(self.cov - self.cov.T)) > HERMITICITY_TOL:
            raise StateValidationError("covariance not symmetric")
        if np.min(symplectic_eigenvalues(self.cov)) < 1.0 - SYMPLECTIC_TOL:
            raise StateValidationError("covariance violates the uncertainty bound")

    @classmethod
    def vacuum(cls, mode_count: int) -> "GaussianState":
        return cls(mode_count, np.zeros(2 * mode_count), np.eye(2 * mode_count))

    @classmethod
    def coherent(cls, amplitude: complex) -> "GaussianState":
        mean = np.array([2.0 * amplitude.real, 2.0 * amplitude.imag])
        return cls(1, mean, np.eye(2))

    @classmethod
    def thermal(cls, nbar: float) -> "GaussianState":
        return cls(1, np.zeros(2), (2.0 * nbar + 1.0) * np.eye(2))

    @classmethod
    def epr(cls, n: float, s: int = 1) -> "GaussianState":
        """s interleaved TMSV copies with n/s mean signal photons each."""
        nbar = n / s
        mu = 2.0 * nbar + 1.0
        c = math.sqrt(max(mu * mu - 1.0, 0.0))
        z = np.diag([1.0, -1.0])
        block = np.block([[mu * np.eye(2), c * z], [c * z, mu * np.eye(2)]])
        cov = np.kron(np.eye(s), block)
        return cls(2 * s, np.zeros(4 * s), cov)


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Williamson eigenvalues of ``cov``, ascending (vacuum value 1)."""
    cov = np.asarray(cov, dtype=float)
    m = cov.shape[0] // 2
    ev = np.linalg.eigvals(1j * symplectic_form(m) @ cov)
    return np.sort(np.abs(ev))[::2]


def symplectic_entropy(state: GaussianState) -> float:
    """Entropy in bits from the symplectic spectrum: sum g((nu - 1)/2)."""
    nus = symplectic_eigenvalues(state.cov)
    if np.min(nus) < 1.0 - SYMPLECTIC_TOL:
        raise StateValidationError(f"symplectic eigenvalue {np.min(nus)} below 1")
    return float(sum(g_thermal(max(nu - 1.0, 0.0) / 2.0) for nu in nus))


# ---------------------------------------------------------------------------
# Transmitters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransmitterSpec:
    """Probe description: kind, photon budget per cell, mode counts."""

    kind: Literal["coherent", "epr"]
    n: float
    s: int = 1
    r: int = 0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("mean photon number n must be >= 0")
        if self.s < 1 or self.r < 0:
            raise ValueError("need s >= 1 and r >= 0")
        if self.kind == "epr" and self.r != self.s:
            raise ValueError("EPR transmitter requires r == s")
        if self.kind not in ("coherent", "epr"):
            raise ValueError(f"unknown transmitter kind {self.kind!r}")

    @classmethod
    def coherent(cls, n: float) -> "TransmitterSpec":
        return cls("coherent", n, s=1, r=0)

    @classmethod
    def epr(cls, n: float, s: int = 1) -> "TransmitterSpec":
        return cls("epr", n, s=s, r=s)

    @property
    def mode_count(self) -> int:
        return self.s + self.r

    def fock_vector(self, dim: int,
                    eps_trunc: float = DEFAULT_EPS_TRUNC) -> np.ndarray:
        """Pure transmitter state in the truncated Fock basis.

        Coherent probes put the full amplitude sqrt(n) on the single signal
        mode; EPR probes are interleaved TMSV copies.
        """
        if self.kind == "coherent":
            return coherent_state(math.sqrt(self.n), dim, eps_trunc)
        return epr_state(self.n, self.s, dim, eps_trunc)

    def gaussian(self) -> GaussianState:
        if self.kind == "coherent":
            return GaussianState.coherent(complex(math.sqrt(self.n)))
        return GaussianState.epr(self.n, self.s)

    def fock_dims(self, dim: int) -> tuple[int, ...]:
        if self.kind == "coherent":
            return (dim,)
        return (dim,) * (2 * self.s)

    @property
    def signal_modes(self) -> tuple[int, ...]:
        if self.kind == "coherent":
            return (0,)
        return tuple(2 * k for k in range(self.s))

    @property
    def idler_modes(self) -> tuple[int, ...]:
        if self.kind == "coherent":
            return ()
        return tuple(2 * k + 1 for k in range(self.s))
