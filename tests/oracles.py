"""Reference oracles for the tests: dense probe vectors (a complex coherent
state, s interleaved EPR copies), a dense multi-mode density matrix and its
entropy, the cell channel as dense Kraus stacks on it and as the generic
pure-state builder, Fock-state helpers,
the general Gaussian phase-space picture (covariance matrices, the channel
on them, symplectic spectra), and the diffraction overlap, Gram and transfer
matrices. The library computes none of these.

Multi-mode Fock tensors use row-major mode ordering, and EPR copies are
stored interleaved as (S_1, R_1, S_2, R_2, ...)."""

import math
from dataclasses import dataclass
from typing import Sequence

import mpmath
import numpy as np
import scipy.integrate
import scipy.special

from qreading import DiffractionGeometry, TransmitterSpec
from qreading.channels import amplifier_amplitudes, loss_amplitudes
from qreading.errors import ConvergenceError, StateValidationError
from qreading.states import (
    NEGATIVITY_TOL,
    _check_states,
    block_entropies,
    g_thermal,
    log_factorials,
    phase_powers,
)

HERMITICITY_TOL = 1e-12
SYMPLECTIC_TOL = 1e-9
# the reference's own uniform symbol samples over the full period [0, 2pi],
# fixed apart from the library's half-period grid
REFERENCE_GRID_SIZE = 4096

_QUAD_TOL = 1e-8  # absolute tolerance of each transfer-matrix quadrature

# The optics the diffraction oracles realise a geometry's two ratios with:
# 650 nm light, object distance D_o = 10 cm (a 1:1 image, D_i = D_o), cell
# spacing ell = 1 um, so x_R = lambda D_o / a = ell / (ell / x_R) fixes the
# pupil half-width a; an array of L = cells * ell is each oracle's own input.
WAVELENGTH, OBJECT_DISTANCE, CELL_SPACING = 650e-9, 0.1, 1e-6


def coherent_state(amplitude: complex, dim: int) -> np.ndarray:
    """Fock coefficients of |alpha>, c_m = exp(-|a|^2/2) a^m / sqrt(m!), with no
    truncation check; real for real a."""
    if amplitude == 0:
        return np.eye(1, dim)[0]
    m = np.arange(dim)
    log_mag = -abs(amplitude) ** 2 / 2 + m * np.log(abs(amplitude)) - log_factorials(dim) / 2
    return np.exp(log_mag) * phase_powers(amplitude, dim)


def epr_state(n: float, s: int, dim: int) -> np.ndarray:
    """Dense d^(2s) vector of s interleaved two-mode squeezed vacuum copies,
    total signal energy ``n``, with no truncation check. Per copy the Schmidt
    coefficient of |m>|m> is (tanh xi)^m / cosh xi with sinh^2 xi = n/s."""
    nbar = n / s
    tanh2 = nbar / (nbar + 1.0)
    m = np.arange(dim)
    copy = np.zeros((dim, dim))
    copy[m, m] = np.sqrt(tanh2 ** m / (nbar + 1.0))
    vec = copy.reshape(-1)
    for _ in range(s - 1):
        vec = np.kron(vec, copy.reshape(-1))
    return vec


@dataclass
class FockDensityMatrix:
    """Multi-mode density matrix in a truncated number basis.

    ``dims`` holds the truncation dimension of each mode; ``data`` is the
    full matrix of size prod(dims). The trace may fall short of 1: the
    deficit is the recorded truncation loss.
    """

    dims: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self) -> None:
        self.dims = tuple(int(d) for d in self.dims)
        if not self.dims or any(d < 1 for d in self.dims):
            raise StateValidationError(f"invalid mode dimensions {self.dims}")
        size = int(np.prod(self.dims))
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.shape != (size, size):
            raise StateValidationError(
                f"data shape {self.data.shape} does not match dims {self.dims}")
        dev = np.max(np.abs(self.data - self.data.conj().T))
        if dev > HERMITICITY_TOL:
            raise StateValidationError(f"matrix not Hermitian: max deviation {dev:.3e}")
        _check_states(self.data[None])

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
    def from_pure(cls, vec: np.ndarray, dims: Sequence[int]) -> "FockDensityMatrix":
        vec = np.asarray(vec, dtype=complex).reshape(-1)
        return cls(tuple(dims), np.outer(vec, vec.conj()))


def von_neumann_entropy(rho: FockDensityMatrix) -> float:
    """-sum lambda log2 lambda over the eigenvalues of ``rho``, in bits."""
    return float(block_entropies(rho.data[None])[0])


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


def apply_cell_channel(rho: FockDensityMatrix, z: complex, n_th: float,
                       mode: int = 0) -> FockDensityMatrix:
    """Loss by z then classical noise n_th on the designated mode."""
    return apply_classical_noise(apply_loss(rho, z, mode), n_th, mode)


def pure_state_cell_output(vec: np.ndarray, reflectances: Sequence[Sequence[complex]],
                           n_th: Sequence[float]) -> np.ndarray:
    """The (entry, u, d, d) stack of cell-channel outputs on |vec><vec|, for any
    pure single-mode probe truncated at d = vec.size: entry e reads row e of
    ``reflectances``, one output per reflectance, at noise n_th[e].

    Each loss output is one Gram product over the d shifted vectors; the
    amplifier adds that Gram shifted diagonally by j and scaled by
    outer(b_j, b_j). The library's coherent builder is checked against it.
    """
    psi = np.asarray(vec)
    d = psi.size
    gain = 1.0 + np.asarray(n_th, dtype=float)
    a = loss_amplitudes([[complex(z) / math.sqrt(g) for z in row]
                         for row, g in zip(reflectances, gain.tolist())], d)
    b = amplifier_amplitudes(gain, d)[:, None]
    k, n = np.arange(d)[:, None], np.arange(d)
    source = np.minimum(n + k, d - 1)  # branch k takes |n + k> to |n>
    shifted = np.where(n + k < d, a[..., k, source], 0.0) * psi[source]
    gram = np.swapaxes(shifted, -1, -2) @ shifted.conj()
    rho = np.zeros_like(gram)
    for j in np.flatnonzero(b.any(axis=(0, 1, 3))):  # only branch 0 when every n_th = 0
        bj = b[..., j, :d - j]
        rho[..., j:, j:] += bj[..., :, None] * bj[..., None, :] * gram[..., :d - j, :d - j]
    return 0.5 * (rho + np.swapaxes(rho, -1, -2).conj())


def check_positive(rho: FockDensityMatrix) -> None:
    """Raise unless all eigenvalues of ``rho`` are above ``-NEGATIVITY_TOL``."""
    lo = float(np.min(np.linalg.eigvalsh(rho.data)))
    if lo < -NEGATIVITY_TOL:
        raise StateValidationError(f"negative eigenvalue {lo:.3e} below floor")


def thermal_state(nbar: float, dim: int) -> FockDensityMatrix:
    """Single-mode thermal state with weights nbar^m / (nbar+1)^(m+1)."""
    if nbar < 0:
        raise ValueError("nbar must be >= 0")
    m = np.arange(dim)
    weights = (nbar / (nbar + 1.0)) ** m / (nbar + 1.0) if nbar > 0 else \
        np.concatenate(([1.0], np.zeros(dim - 1)))
    return FockDensityMatrix((dim,), np.diag(weights).astype(complex))


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
    normalization as :class:`GaussianState`; a cross-picture check.
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


def symplectic_form(mode_count: int) -> np.ndarray:
    """Block-diagonal Omega with one [[0, 1], [-1, 0]] block per mode."""
    omega = np.zeros((2 * mode_count, 2 * mode_count))
    x = np.arange(0, 2 * mode_count, 2)
    omega[x, x + 1] = 1.0
    omega[x + 1, x] = -1.0
    return omega


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Williamson eigenvalues of ``cov``, ascending (vacuum value 1)."""
    cov = np.asarray(cov, dtype=float)
    ev = np.linalg.eigvals(1j * symplectic_form(cov.shape[0] // 2) @ cov)
    return np.sort(np.abs(ev))[::2]


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
        return cls(1, [2.0 * amplitude.real, 2.0 * amplitude.imag], np.eye(2))

    @classmethod
    def thermal(cls, nbar: float) -> "GaussianState":
        return cls(1, np.zeros(2), (2.0 * nbar + 1.0) * np.eye(2))

    @classmethod
    def epr(cls, n: float, s: int = 1) -> "GaussianState":
        """s interleaved TMSV copies with n/s mean signal photons each."""
        mu = 2.0 * (n / s) + 1.0
        c = math.sqrt(max(mu * mu - 1.0, 0.0)) * np.diag([1.0, -1.0])
        block = np.block([[mu * np.eye(2), c], [c, mu * np.eye(2)]])
        return cls(2 * s, np.zeros(4 * s), np.kron(np.eye(s), block))


def gaussian_probe(tx: TransmitterSpec) -> GaussianState:
    """The transmitter's probe state in phase space."""
    if tx.kind == "coherent":
        return GaussianState.coherent(complex(math.sqrt(tx.n)))
    return GaussianState.epr(tx.n)


def _spectrum_entropy(cov: mpmath.matrix, mode_count: int) -> float:
    """Entropy in bits of a covariance given at 50 digits: sum g((nu - 1)/2)
    over its symplectic spectrum, nu clamped to >= 1. The nu are the moduli
    of the eigenvalues of Omega V, from a 50-digit eigensolve: a float64 one
    cannot resolve nu - 1 below about eps ||V||^2, and g has infinite slope
    at 0 (1.2e-10 bits on a pure EPR output)."""
    with mpmath.workdps(50):
        omega_v = mpmath.matrix(symplectic_form(mode_count).tolist()) * cov
        ev = mpmath.eig(omega_v, left=False, right=False)
        nus = np.sort([float(abs(e)) for e in ev])[::2]
    if np.min(nus) < 1.0 - SYMPLECTIC_TOL:
        raise StateValidationError(f"symplectic eigenvalue {np.min(nus)} below 1")
    return float(sum(g_thermal(max(nu - 1.0, 0.0) / 2.0) for nu in nus))


def symplectic_entropy(state: GaussianState) -> float:
    """Entropy in bits of a Gaussian state, from its symplectic spectrum."""
    return _spectrum_entropy(mpmath.matrix(state.cov.tolist()), state.mode_count)


def gaussian_channel_action(state: GaussianState, z: complex, n_th: float,
                            mode: int = 0) -> GaussianState:
    """Exact covariance-level action of the cell channel on one mode."""
    m = state.mode_count
    if not (0 <= mode < m):
        raise ValueError(f"mode {mode} out of range for {m} modes")
    mag, phi = abs(z), np.angle(z)
    block = slice(2 * mode, 2 * mode + 2)
    scale = np.eye(2 * m)
    scale[block, block] = mag * np.array([[math.cos(phi), -math.sin(phi)],
                                          [math.sin(phi), math.cos(phi)]])
    noise = np.zeros((2 * m, 2 * m))
    noise[block, block] = ((1.0 - mag * mag) + 2.0 * n_th) * np.eye(2)
    return GaussianState(m, scale @ state.mean, scale @ state.cov @ scale.T + noise)


def symplectic_output_entropy(tx: TransmitterSpec, z: complex, n_th: float,
                              idler_attenuation: float) -> float:
    """One symbol's Gaussian output entropy (s = 1) by a general eigensolve:
    the cell channel on the signal, loss on the idler, then the symplectic
    spectrum. The covariance is built from (n, z, n_th, tau) at 50 digits, so
    no float64 rounding of entries near 2n + 1 shows up as entropy."""
    with mpmath.workdps(50):
        if tx.kind == "coherent":
            modes, cov = 1, mpmath.eye(2)
        else:
            mu = 2 * mpmath.mpf(tx.n) + 1
            c = mpmath.sqrt(mu * mu - 1)
            modes = 2
            cov = mpmath.matrix([[mu, 0, c, 0], [0, mu, 0, -c], [c, 0, mu, 0], [0, -c, 0, mu]])
        # mode 0 sees z and n_th, the idler (mode 1) a loss by tau
        for mode, w, noise in [(0, mpmath.mpc(z), mpmath.mpf(n_th)),
                               (1, mpmath.mpc(idler_attenuation), 0)][:modes]:
            scale, added = mpmath.eye(2 * modes), mpmath.zeros(2 * modes)
            x, y = 2 * mode, 2 * mode + 1
            scale[x, x], scale[x, y], scale[y, x], scale[y, y] = w.real, -w.imag, w.imag, w.real
            added[x, x] = added[y, y] = 1 - (w.real ** 2 + w.imag ** 2) + 2 * noise
            cov = scale * cov * scale.T + added
        return _spectrum_entropy(cov, modes)


def paraxial_ok(geom: DiffractionGeometry) -> bool:
    """Phase factor constant across a cell: d^2 << lambda D_o."""
    return (geom.d_over_ell * CELL_SPACING) ** 2 < 0.01 * WAVELENGTH * OBJECT_DISTANCE


def _cos_tail(a: float, w: float) -> float:
    """int_{-w}^{w} (1 - cos(a x)) / x^2 dx, via the sine integral."""
    a = abs(a)
    if a == 0.0:
        return 0.0
    si, _ = scipy.special.sici(a * w)
    return 2.0 * (a * si - (1.0 - math.cos(a * w)) / w)


def gram_coefficient(geom: DiffractionGeometry, q: int) -> float:
    """Toeplitz coefficient (M M^dag)_q = (d/ell) int sinc^2 e^{i 2 pi q x} dx.

    The oscillatory sinc^2 integral over |x| <= ell/x_R is evaluated in
    closed form: splitting sin^2 into cosines reduces it to three
    (1 - cos)/x^2 tails, each a sine-integral expression.
    """
    ratio = geom.ell_over_xr
    dl = geom.d_over_ell
    two_pi = 2.0 * math.pi
    val = (0.5 * _cos_tail(two_pi * (q + dl), ratio)
           + 0.5 * _cos_tail(two_pi * (q - dl), ratio)
           - _cos_tail(two_pi * q, ratio))
    return val / (2.0 * math.pi ** 2 * dl)


def gram_matrix(geom: DiffractionGeometry, size: int) -> np.ndarray:
    """Hermitian Toeplitz Gram matrix M M^dag in the continuum limit.

    Valid for L/x_R >> 1 and ell/L << 1; entries depend on q = j - k only.
    Its spectrum lies between the extrema of ``toeplitz_symbol`` (Szego).
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    col = np.array([gram_coefficient(geom, q) for q in range(size)])
    return col[np.abs(np.arange(size)[:, None] - np.arange(size))]


def overlap_matrix(geom: DiffractionGeometry, i_range: Sequence[int],
                   j_range: Sequence[int], *, cells: int) -> np.ndarray:
    """Cell-to-normal-mode overlap M_ij over the given index ranges, in the
    oracle optics with an array of L = cells * ell.

    Rows i index the transmitted Fourier modes (|i| <= L/x_R), columns j
    index cell positions (|j| <= L/(2 ell)).
    """
    i_arr = np.asarray(list(i_range), dtype=int)
    j_arr = np.asarray(list(j_range), dtype=int)
    band = cells * geom.ell_over_xr
    if np.any(np.abs(i_arr) > band):
        raise ValueError(f"mode index outside the transmitted band |i| <= {band:.3g}")
    if np.any(np.abs(j_arr) > cells / 2.0):
        raise ValueError("cell index outside the array")
    ell = CELL_SPACING
    d, length = geom.d_over_ell * ell, cells * ell
    theta = (np.pi * (j_arr * ell) ** 2 / (WAVELENGTH * OBJECT_DISTANCE)
             + 2.0 * np.pi * OBJECT_DISTANCE / WAVELENGTH)
    amp = math.sqrt(d / length) * np.sinc(i_arr * d / length)
    phase = np.exp(-1j * (theta[None, :] + 2.0 * np.pi
                          * np.outer(i_arr, j_arr) * ell / length))
    return amp[:, None] * phase


def transfer_matrix(geom: DiffractionGeometry, k_range: Sequence[int],
                    h_range: Sequence[int], *, cells: int) -> np.ndarray:
    """Mode-to-mode transfer matrix T_kh of the slit-pupil thin lens, for an
    array of L = cells * ell.

    The pupil integral reduces to T_kh = int du sinc(pi(k+u)) sinc(pi(h+u))
    over |u| <= L/x_R; in the near field this tends to a 0/1 diagonal step
    at |h| = L/x_R.
    """
    k_arr = list(k_range)
    h_arr = list(h_range)
    band = cells * geom.ell_over_xr
    out = np.zeros((len(k_arr), len(h_arr)))

    def entry(k: int, h: int) -> float:
        def integrand(u: float) -> float:
            return float(np.sinc(k + u) * np.sinc(h + u))

        val, err = scipy.integrate.quad(integrand, -band, band,
                                        epsabs=_QUAD_TOL, limit=2000)
        if err > max(100.0 * _QUAD_TOL, 1e-6):
            raise ConvergenceError(f"transfer entry ({k},{h}) error {err:.3e}")
        return val

    for a, k in enumerate(k_arr):
        for b, h in enumerate(h_arr):
            out[a, b] = entry(k, h)
    return out
